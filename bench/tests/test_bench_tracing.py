"""The tracer wraps every importer of a traced function and restores them."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
from qtreesearch import grover, oracles, runner, statevector, strategies  # noqa: E402
from qtreesearch.config import config_from_mapping  # noqa: E402


class _Job:
    strategy = "entangled"


def _config():
    return config_from_mapping(
        {
            "strategy": "entangled",
            "m": 5,
            "g": 3,
            "upper_oracle": [2, -1],
            "lower_oracle": [3, -2, 1],
            "candidates": ["011", "101"],
            "seed": 3,
        }
    )


def test_wrappers_reach_from_imports_and_are_restored():
    original = statevector.apply_phase_flip
    tracer = tracing.Tracer()
    with tracer.installed():
        assert grover.apply_phase_flip is strategies.apply_phase_flip
        assert grover.apply_phase_flip is not original
        assert runner.merge_counts is not None
    assert grover.apply_phase_flip is original and strategies.apply_phase_flip is original
    assert oracles.ConcatenatedOracle.__call__.__qualname__.startswith("ConcatenatedOracle")


def test_spans_nest_and_oracle_evals_count_outermost_calls():
    config = _config()
    tracer = tracing.Tracer()
    tracer.begin_job(_Job())
    with tracer.installed():
        traced_artifact, _ = runner.run_experiment(config)
    untraced_artifact, _ = runner.run_experiment(config)
    assert traced_artifact == untraced_artifact

    names = [span[0] for span in tracer.spans]
    parents = {span[0]: tracer.spans[span[1]][0] for span in tracer.spans if span[1] >= 0}
    assert names[0] == "runner.run_experiment"
    assert parents["strategies.entangled_nested"] == "runner.run_experiment"
    assert parents["strategies.prepare_candidates"] == "strategies.entangled_nested"
    # candidate rounds: r(8, 2) = 1 table of 8 patterns; upper rounds:
    # r(4, 1) = 1 table of 32 patterns over the concatenated oracle, whose
    # two inner conjunction calls are not counted again
    assert tracer.counts["oracles.evals"] == 8 + 32
    assert tracer.counts["grover.rounds"] == 1
    stages = {tracing.stage_of(n, parents.get(n)) for n in names}
    assert {"candidate_prep", "upper_amplify", "measure_verify"} <= stages


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.begin_job(_Job())
    with tracer.installed():
        runner.run_experiment(_config())
    durations = [s[4] - s[3] for s in tracer.spans]
    children = sum(d for s, d in zip(tracer.spans, durations) if s[1] == 0)
    assert 0 < children < durations[0]
