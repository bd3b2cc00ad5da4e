"""One strategy registry: bundled artifacts pinned byte for byte, and each
trial state and relabeling built once per run."""

import json
from pathlib import Path

import pytest

import qtreesearch.permutation as permmod
import qtreesearch.runner as runmod
import qtreesearch.strategies as stratmod
from qtreesearch.cli import render_json
from qtreesearch.config import STRATEGY_CHOICES, load_config, resolve_config
from qtreesearch.runner import STRATEGY_RUNS, run_experiment, run_verification

GOLDEN = Path(__file__).parent / "golden"

# kernel checks each bundled config's verify replays, and their operations
VERIFY_COVERAGE = {
    "fig_a_basic_0": (4, ["diffusion", "phase_flip"]),
    "fig_a_basic_10": (22, ["conditional_bit_flip", "diffusion", "phase_flip"]),
    "fig_a_basic_2": (4, ["diffusion", "phase_flip"]),
    "fig_a_basic_4": (12, ["diffusion", "phase_flip"]),
    "fig_d_el_v_3_6": (8, ["diffusion", "index_map", "phase_flip"]),
}


@pytest.mark.parametrize("name", sorted(VERIFY_COVERAGE))
def test_bundled_config_matches_golden(name):
    config = load_config(resolve_config(name))
    artifact, _ = run_experiment(config)
    assert render_json(artifact) == (GOLDEN / f"{name}.json").read_text()

    report, code = run_verification(config)
    count, operations = VERIFY_COVERAGE[name]
    assert code == 0
    assert report["kernel_checks"]["count"] == count
    assert list(report["kernel_checks"]["by_operation"]) == operations


def test_registry_covers_every_strategy_choice():
    assert tuple(STRATEGY_RUNS) == STRATEGY_CHOICES


def _count_calls(monkeypatch, name, modules):
    """Wrap ``name`` wherever a module holds it; return the call tally."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_iterative_run_simulates_each_trial_once(monkeypatch):
    # fig_a_basic_4 lists the matching candidate last, so both trials run
    calls = _count_calls(monkeypatch, "iterative_trial_state", [stratmod, runmod])
    config = load_config(resolve_config("fig_a_basic_4"))
    artifact, _ = run_experiment(config)
    assert len(artifact["trials"]) == config.v
    assert len(calls) == config.v


def test_permutation_run_builds_the_relabeling_once(monkeypatch):
    calls = _count_calls(monkeypatch, "build_permutation", [permmod, runmod])
    artifact, _ = run_experiment(load_config(resolve_config("fig_d_el_v_3_6")))
    assert artifact["relabeling"]["mapping"]
    assert len(calls) == 1
