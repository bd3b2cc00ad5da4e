"""Byte-for-byte goldens of the sweep, cost and verify outputs in every format,
and of one ``run`` artifact with basis candidate preparation.

Text output ends with the subcommand's wall time, the one line that is not
a function of the arguments; it is dropped before comparing.
"""

import dataclasses
from pathlib import Path

import pytest

from qtreesearch.cli import main, render_json
from qtreesearch.config import load_config, resolve_config
from qtreesearch.runner import EXIT_OK, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "cli"

COMMANDS = {
    "sweep": ("sweep",),
    "sweep_m7_g4_seed3": ("sweep", "--m", "7", "--g", "4", "--seed", "3"),
    "cost": ("cost",),
    "verify_fig_a_basic_4": ("verify", "--config", "fig_a_basic_4"),
    "verify_fig_d_el_v_3_6": ("verify", "--config", "fig_d_el_v_3_6"),
}
SUFFIXES = {"json": "json", "csv": "csv", "text": "txt"}


def render(argv, output_format, capsys) -> str:
    """What the command prints in the format, without its wall-time line."""
    main([*argv, "--format", output_format])
    out = capsys.readouterr().out
    return "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("wall_time_s:")
    )


@pytest.mark.parametrize("output_format", list(SUFFIXES))
@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_golden(name, output_format, capsys):
    golden = GOLDEN / f"{name}.{SUFFIXES[output_format]}"
    assert render(COMMANDS[name], output_format, capsys) == golden.read_text()


def test_basis_prep_run_matches_golden():
    # no bundled config prepares candidates by basis relabeling, so the
    # permutation config is rerun with prep: basis
    config = dataclasses.replace(load_config(resolve_config("fig_d_el_v_3_6")), prep="basis")
    artifact, exit_code = run_experiment(config)
    assert exit_code == EXIT_OK
    assert render_json(artifact) == (GOLDEN / "run_fig_d_el_v_3_6_basis.json").read_text()
