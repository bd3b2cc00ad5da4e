"""One strategy registry: bundled artifacts pinned byte for byte, each
trial state and relabeling built once per run, and oracles reaching the
kernels as masks, never as per-pattern queries."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import qtreesearch.permutation as permmod
import qtreesearch.runner as runmod
import qtreesearch.statevector as svmod
import qtreesearch.strategies as stratmod
from qtreesearch.cli import render_json
from qtreesearch.config import STRATEGY_CHOICES, config_from_mapping, load_config, resolve_config
from qtreesearch.errors import ValidationError
from qtreesearch.oracles import ConcatenatedOracle, PartialCandidateSet
from qtreesearch.runner import (
    STRATEGY_RUNS,
    Histogram,
    merge_counts,
    run_experiment,
    run_verification,
)
from qtreesearch.statevector import basis_state

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


def _expected_states(artifact) -> int:
    """Simulated states of a run: one per iterative trial, one per
    disentangled composite plus one for the recovered winner, else one."""
    if artifact["strategy"] == "iterative":
        return len(artifact["trials"])
    if artifact["strategy"] == "disentangled":
        return 1 + (artifact["winning_index"] is not None)
    return 1


@pytest.mark.parametrize(
    "name, prep",
    [(name, "grover") for name in sorted(VERIFY_COVERAGE)] + [("fig_d_el_v_3_6", "basis")],
)
def test_each_simulated_state_is_frozen_once(monkeypatch, name, prep):
    # each strategy opens one register per simulated state, runs every
    # stage on it and freezes it once: the freeze builds the run's only
    # Statevectors (prep is read by the permutation strategy alone)
    config = dataclasses.replace(load_config(resolve_config(name)), prep=prep)
    built = []
    original = svmod.Statevector.__post_init__

    def counted(self):
        built.append(self.num_qubits)
        original(self)

    monkeypatch.setattr(svmod.Statevector, "__post_init__", counted)
    artifact, _ = run_experiment(config)
    assert len(built) == _expected_states(artifact)


def test_iterative_run_simulates_each_trial_once(monkeypatch):
    # fig_a_basic_4 lists the matching candidate last, so both trials run
    calls = _count_calls(monkeypatch, "iterative_trial_state", [stratmod, runmod])
    config = load_config(resolve_config("fig_a_basic_4"))
    artifact, _ = run_experiment(config)
    assert len(artifact["trials"]) == config.v
    assert len(calls) == config.v


def test_disentangled_run_reads_each_block_and_flag_once(monkeypatch):
    # one marginal per block and one per flag, shared by the winner test and
    # the artifact's blocks section
    calls = _count_calls(monkeypatch, "marginal_distribution", [svmod, stratmod])
    config = load_config(resolve_config("fig_a_basic_10"))
    artifact, _ = run_experiment(config)
    assert len(artifact["blocks"]) == config.v
    assert len(calls) == 2 * config.v


def test_permutation_run_builds_the_relabeling_once(monkeypatch):
    calls = _count_calls(monkeypatch, "build_permutation", [permmod, runmod])
    artifact, _ = run_experiment(load_config(resolve_config("fig_d_el_v_3_6")))
    assert artifact["relabeling"]["mapping"]
    assert len(calls) == 1


def test_entangled_run_never_queries_the_oracle_per_pattern(monkeypatch):
    # the kernels take the oracle's mask; the per-pattern query is spent
    # only on classical checks, and an entangled run measures none
    queries = []
    original = ConcatenatedOracle.__call__

    def counted(oracle, pattern):
        queries.append(pattern)
        return original(oracle, pattern)

    monkeypatch.setattr(ConcatenatedOracle, "__call__", counted)
    config = config_from_mapping(
        {
            "strategy": "entangled",
            "m": 12,
            "g": 6,
            "upper_oracle": [6, -5, 4, -3, 2, 1],
            "lower_oracle": [-6, 5, -4, 3, 2, -1],
            "candidates": ["000011", "101110", "010110", "111000"],
        }
    )
    artifact, code = run_experiment(config)
    assert code == 0
    assert artifact["histogram"].support.size
    assert queries == []


def test_merge_counts_joins_the_sampled_and_the_exact_support():
    # index 2 was sampled but has probability 0, so it reads 0.0
    histogram = merge_counts(basis_state(2, 1), np.array([0, 5, 3, 0]))
    assert histogram.num_qubits == 2
    assert histogram.support.tolist() == [1, 2]
    assert histogram.counts.tolist() == [5, 3]
    assert histogram.probabilities.tolist() == [1.0, 0.0]
    assert histogram.labels() == ["01", "10"]


@pytest.mark.parametrize(
    "support, counts",
    [([1, 0], [1, 1]), ([0, 0], [1, 1]), ([-1, 0], [1, 1]), ([0, 4], [1, 1]), ([0, 1], [1])],
    ids=["descending", "repeated", "negative", "outside", "misaligned"],
)
def test_histogram_support_must_ascend_within_the_register(support, counts):
    # the renderers write the support in order as label order
    with pytest.raises(ValidationError):
        Histogram(2, support, counts, [0.5, 0.5])


@pytest.mark.parametrize("name", ["fig_a_basic_4", "fig_d_el_v_3_6"])
def test_artifacts_of_one_config_and_seed_compare_equal(name):
    # histograms compare by value, so a rerun equals the first run
    config = load_config(resolve_config(name))
    first, _ = run_experiment(config)
    again, _ = run_experiment(config)
    assert first == again


def test_histograms_compare_by_width_and_arrays():
    histogram = Histogram(2, [1, 2], [5, 3], [1.0, 0.0])
    assert histogram == Histogram(2, np.array([1, 2]), (5, 3), [1.0, 0.0])
    assert histogram != Histogram(3, [1, 2], [5, 3], [1.0, 0.0])
    assert histogram != Histogram(2, [1, 3], [5, 3], [1.0, 0.0])
    assert histogram != Histogram(2, [1, 2], [5, 4], [1.0, 0.0])
    assert histogram != Histogram(2, [1, 2], [5, 3], [0.5, 0.5])
    assert histogram != {"01": {"count": 5, "probability": 1.0}}
    with pytest.raises(TypeError):
        hash(histogram)


TEN_BIT_PATHS = PartialCandidateSet.from_strings(
    ["0110101010", "1110101011", "1010101011", "1101010101"]
)


def test_cnot_check_covers_a_relabeling_wider_than_twelve_qubits():
    # g = 10 data qubits and 4 flags: one pass sees all 1024 data patterns
    spec = permmod.build_permutation(TEN_BIT_PATHS)
    report = runmod._cnot_equivalence(spec)
    assert report == {"basis_states": 1024, "flag_qubits": 4, "max_deviation": 0.0}


@pytest.mark.parametrize("a, b", [(0, 1), (5, 1023)])
def test_cnot_check_sees_any_two_patterns_traded(a, b):
    # a mapping the gates do not realize: two of its entries traded
    spec = permmod.build_permutation(TEN_BIT_PATHS)
    mapping = list(spec.mapping)
    mapping[a], mapping[b] = mapping[b], mapping[a]
    wrong = permmod.PermutationSpec(
        width=spec.width,
        mapping=tuple(mapping),
        convention=spec.convention,
        code_width=spec.code_width,
        transpositions=spec.transpositions,
    )
    assert runmod._cnot_equivalence(wrong)["max_deviation"] >= 1 - 1e-9
