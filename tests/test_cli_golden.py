"""Byte-for-byte goldens of the sweep, cost and verify outputs in every format.

Text output ends with the subcommand's wall time, the one line that is not
a function of the arguments; it is dropped before comparing.
"""

from pathlib import Path

import pytest

from qtreesearch.cli import main

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
