"""Strategy pipelines checked against hand-derived exact probabilities.

The recurring 5-qubit instance: global conjunction with upper half marking
10 and lower half marking 101, candidates {011, 101}. Useful exact values:
a 2-round single-mark search over 8 states puts 121/128 on the mark, and a
1-round search with a quarter marked is exact.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreesearch import grover, permutation, strategies
from qtreesearch import statevector as svmod
from qtreesearch.errors import ConfigurationError, PreconditionError, ValidationError
from qtreesearch.grover import QueryCounter, Stage, amplify
from qtreesearch.oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from qtreesearch.statevector import (
    KernelCrossCheck,
    Register,
    apply_conditional_bit_flip,
    apply_diffusion,
    apply_phase_flip,
    basis_state,
    init_uniform,
    marginal_distribution,
    partition_purity,
    probability_map,
    qubits,
    sample,
    uniform_fiber,
)
from qtreesearch.strategies import (
    DECISION_THRESHOLD,
    Measurement,
    SearchProblem,
    block_distribution,
    disentangled_layout,
    disentangled_search,
    entangled_nested,
    iterative_search,
    iterative_trial_state,
    measure_and_verify,
    product_subspace_search,
    prepare_candidates,
    recover_candidate,
    trial_stages,
    upper_stage,
)

TWO_ROUND_EIGHT = 121 / 128  # sin^2(5 asin(sqrt(1/8))) exactly


def five_qubit_problem(candidate_strings=("011", "101")):
    upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
    lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
    return SearchProblem(
        global_oracle=ConcatenatedOracle(upper, lower),
        candidates=PartialCandidateSet.from_strings(list(candidate_strings)),
    )


def six_qubit_problem(candidate_strings=("011", "101")):
    upper = ConjunctionOracle.from_signed_literals([-3, -2, 1], width=3)
    lower = ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3)
    return SearchProblem(
        global_oracle=ConcatenatedOracle(upper, lower),
        candidates=PartialCandidateSet.from_strings(list(candidate_strings)),
    )


class TestSearchProblem:
    def test_geometry(self):
        problem = five_qubit_problem()
        assert (problem.m, problem.g, problem.v) == (5, 3, 2)
        assert np.flatnonzero(problem.global_oracle.mask()).tolist() == [0b10101]
        assert problem.upper_target_bits == "10"
        assert problem.lower_solution == 0b101
        assert problem.matching_candidate_index() == 2

    def test_rejects_candidate_width_mismatch(self):
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
        with pytest.raises(ConfigurationError):
            SearchProblem(
                global_oracle=ConcatenatedOracle(upper, lower),
                candidates=PartialCandidateSet.from_strings(["01", "10"]),
            )


class TestMeasureAndVerify:
    def test_found_is_the_top_label_only_when_verified(self):
        sv = basis_state(5, 0b10101)
        counts = np.zeros(32, dtype=np.int64)
        assert Measurement(sv, counts, "10101", True, 2, 1).found == "10101"
        assert Measurement(sv, counts, "10101", False, None, 1).found is None

    def test_lower_half_state_is_completed_by_the_upper_target(self):
        problem = five_qubit_problem()
        counter = QueryCounter()
        measured = measure_and_verify(problem, basis_state(3, 0b101), 16, 0, counter, 2)
        assert measured.top == "10101"
        assert measured.verified and measured.found == "10101"
        assert measured.candidate_index == 2
        assert counter.oracle_calls == 1
        wrong = measure_and_verify(problem, basis_state(3, 0b011), 16, 0, counter, 1)
        assert wrong.top == "10011"
        assert not wrong.verified and wrong.candidate_index is None

    @pytest.mark.parametrize(
        "tied, top",
        [((0b10101, 0b11101), "10101"), ((0b00101, 0b10101), "00101")],
        ids=["solution-first", "decoy-first"],
    )
    def test_a_tie_goes_to_the_smallest_index(self, monkeypatch, tied, top):
        counts = np.zeros(32, dtype=np.int64)
        counts[list(tied)] = 7
        counts[0b00000] = 3
        monkeypatch.setattr(strategies, "sample", lambda sv, shots, seed: counts)
        problem = five_qubit_problem()
        measured = measure_and_verify(problem, init_uniform(5).freeze(), 17, 0, QueryCounter(), 2)
        assert measured.top == top
        assert measured.verified == (top == "10101")

    def test_the_check_is_one_query_on_the_pattern(self, monkeypatch):
        queried = []
        real = ConcatenatedOracle.__call__

        def counting(self, pattern):
            queried.append(pattern)
            return real(self, pattern)

        monkeypatch.setattr(ConcatenatedOracle, "__call__", counting)
        problem = five_qubit_problem()
        measure_and_verify(problem, basis_state(3, 0b101), 8, 0, QueryCounter(), 2)
        measure_and_verify(problem, basis_state(5, 0b01011), 8, 0, QueryCounter(), None)
        assert queried == [0b10101, 0b01011]
        assert all(type(p) is int for p in queried)

    def test_rejects_a_state_of_another_width(self):
        with pytest.raises(ConfigurationError, match="4-qubit state"):
            measure_and_verify(five_qubit_problem(), basis_state(4, 0), 8, 0, QueryCounter(), None)


class TestPrepareCandidates:
    def test_quarter_marked_prep_is_exact(self):
        problem = five_qubit_problem()
        sv = prepare_candidates(problem, problem.m, QueryCounter()).freeze()
        probs = probability_map(sv)
        # all candidate mass, spread uniformly over upper values
        for upper in range(4):
            for cand in ("011", "101"):
                label = format(upper, "02b") + cand
                assert probs[label] == pytest.approx(1 / 8)


class TestProductSubspace:
    def test_both_completions_at_half(self):
        problem = five_qubit_problem()
        counter = QueryCounter()
        sv = product_subspace_search(problem, counter)
        probs = probability_map(sv)
        assert probs["10011"] == pytest.approx(0.5, abs=1e-12)
        assert probs["10101"] == pytest.approx(0.5, abs=1e-12)
        assert counter.oracle_calls == 2

    def test_halves_stay_product(self):
        sv = product_subspace_search(five_qubit_problem(), QueryCounter())
        assert partition_purity(sv, qubits(0, 1, 2)) == pytest.approx(1.0, abs=1e-9)

    def test_single_candidate_concentrates(self):
        problem = five_qubit_problem(candidate_strings=("101",))
        sv = product_subspace_search(problem, QueryCounter())
        assert probability_map(sv)["10101"] == pytest.approx(TWO_ROUND_EIGHT)


class TestEntangledNested:
    def test_solution_at_half(self):
        problem = five_qubit_problem()
        counter = QueryCounter()
        sv = entangled_nested(problem, counter)
        probs = probability_map(sv)
        assert probs["10101"] == pytest.approx(0.5, abs=1e-12)
        # the non-matching candidate keeps its uniform upper spread
        for upper in ("00", "01", "10", "11"):
            assert probs[upper + "011"] == pytest.approx(0.125, abs=1e-12)
        assert counter.oracle_calls == 2

    def test_halves_end_entangled(self):
        # rho_L has two half-weight candidates plus a 1/4 cross term from
        # the overlap of |10> with the uniform upper block: purity 5/8
        sv = entangled_nested(five_qubit_problem(), QueryCounter())
        purity = partition_purity(sv, qubits(0, 1, 2))
        assert purity == pytest.approx(0.625, abs=1e-9)
        assert purity < 0.999

    def test_mass_scales_inversely_with_candidates(self):
        # v=2 at split 3: the matching block also pays the 8-state search loss
        sv2 = entangled_nested(six_qubit_problem(), QueryCounter())
        assert probability_map(sv2)["001011"] == pytest.approx(TWO_ROUND_EIGHT / 2)
        # v=4 at split 4: both stages sit on exact rotations
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        lower = ConjunctionOracle.from_signed_literals([4, -3, 2, 1], width=4)
        problem = SearchProblem(
            global_oracle=ConcatenatedOracle(upper, lower),
            candidates=PartialCandidateSet.from_strings(["0011", "0101", "1011", "1110"]),
        )
        sv4 = entangled_nested(problem, QueryCounter())
        assert probability_map(sv4)["101011"] == pytest.approx(0.25, abs=1e-12)

    def test_requires_a_matching_candidate(self):
        with pytest.raises(PreconditionError):
            entangled_nested(five_qubit_problem(candidate_strings=("011", "110")), QueryCounter())

    def test_single_matching_candidate_has_no_splitting_loss(self):
        problem = five_qubit_problem(candidate_strings=("101",))
        sv = entangled_nested(problem, QueryCounter())
        assert probability_map(sv)["10101"] == pytest.approx(TWO_ROUND_EIGHT)


class TestIterativeSearch:
    def test_matching_candidate_first(self):
        problem = five_qubit_problem(candidate_strings=("101", "011"))
        counter = QueryCounter()
        [result] = iterative_search(problem, 256, 7, counter)
        assert result.verified
        assert result.found == "10101"
        assert result.candidate_index == 1
        assert result.trials == 1
        assert counter.oracle_calls == 4  # 2 lower + 1 upper + 1 check

    def test_mismatch_first_then_success(self):
        problem = five_qubit_problem()
        counter = QueryCounter()
        first, result = iterative_search(problem, 256, 7, counter)
        assert result.verified
        assert result.found == "10101"
        assert result.candidate_index == 2
        assert result.trials == 2
        assert counter.oracle_calls == 8
        assert not first.verified and first.found is None and first.candidate_index is None

    def test_mismatch_trial_spreads_over_the_upper_half(self):
        problem = five_qubit_problem()
        probs = probability_map(iterative_trial_state(problem, 1, QueryCounter()))
        for upper in ("00", "01", "10", "11"):
            assert probs[upper + "011"] == pytest.approx(121 / 512, abs=1e-12)
        assert probs["10101"] == pytest.approx(1 / 128, abs=1e-12)

    def test_matching_trial_concentrates(self):
        problem = five_qubit_problem()
        probs = probability_map(iterative_trial_state(problem, 2, QueryCounter()))
        assert probs["10101"] == pytest.approx(TWO_ROUND_EIGHT)

    def test_matching_trial_histogram_dominated_by_the_solution(self):
        problem = five_qubit_problem()
        sv = iterative_trial_state(problem, 2, QueryCounter())
        counts = sample(sv, shots=256, seed=11)
        assert counts[0b10101] / 256 >= 0.9

    def test_exhaustion_returns_unverified(self):
        problem = five_qubit_problem(candidate_strings=("011", "110"))
        result = iterative_search(problem, 256, 3, QueryCounter())[-1]
        assert not result.verified
        assert result.found is None
        assert result.trials == 2

    def test_query_bound_over_all_lower_placements(self):
        # criterion: every placement of the lower string verifies within
        # the v * (r_lower + r_upper + 1) budget
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        for lower_value in range(8):
            lower_bits = format(lower_value, "03b")
            lower = ConjunctionOracle.matching(lower_bits)
            decoy = format(lower_value ^ 0b111, "03b")
            problem = SearchProblem(
                global_oracle=ConcatenatedOracle(upper, lower),
                candidates=PartialCandidateSet.from_strings([decoy, lower_bits]),
            )
            counter = QueryCounter()
            result = iterative_search(problem, 256, 13, counter)[-1]
            assert result.verified
            assert result.found == "10" + lower_bits
            assert counter.oracle_calls <= 2 * (2 + 1 + 1)


def full_width_replay(sv, stages, counter):
    """Every round of every stage with each kernel on the whole register.

    Any qubit may be a stage's flag, and the whole register is
    norm-checked once per round: the reference for stages that run on a
    fiber or on a flag-clear half.
    """
    for stage in stages:
        for _ in range(stage.rounds):
            if stage.flag is None:
                apply_phase_flip(sv, stage.marked, stage.flip_on)
            else:
                apply_conditional_bit_flip(sv, stage.flag, stage.marked, stage.flip_on)
                apply_phase_flip(sv, np.array([False, True]), qubits(stage.flag))
                apply_conditional_bit_flip(sv, stage.flag, stage.marked, stage.flip_on)
            apply_diffusion(sv, stage.diffuse_on)
            sv.check_norm()
            counter.count_oracle()
            counter.count_diffusion()
    return sv


def candidate_prep_stage(problem):
    lower = problem.lower_qubits
    return Stage.standard(problem.candidates.mask(), lower, lower, problem.v)


def flag_per_block_reference(problem, counter):
    """The composite run with one flag per block, every round on all qubits.

    Uniform over the candidate register and the blocks with every flag at
    0, then the candidate rounds, then block k's rounds kicked through flag
    k of the composite layout.
    """
    layout = disentangled_layout(problem)
    total = layout.total_qubits
    flags = sum(1 << layout.flag(k) for k in range(1, problem.v + 1))
    amps = np.zeros(2**total, dtype=np.complex128)
    amps[(np.arange(2**total) & flags) == 0] = 1.0 / math.sqrt(2 ** (total - problem.v))
    global_mask = problem.global_oracle.mask().reshape(-1, 2**problem.g)
    stages = [
        Stage.standard(global_mask[:, y], layout.block(k), layout.block(k), flag=layout.flag(k))
        for k, y in enumerate(problem.candidates.candidates, start=1)
    ]
    sv = Register(total, amps)
    return full_width_replay(sv, [candidate_prep_stage(problem), *stages], counter).freeze()


def shuffled_problem(m, g, v, null, seed):
    """Random targets; v candidates in random order, the lower target among
    them unless ``null``."""
    rng = random.Random(seed)
    lower = rng.randrange(2**g)
    decoys = rng.sample([y for y in range(2**g) if y != lower], v if null else v - 1)
    candidates = decoys if null else decoys + [lower]
    rng.shuffle(candidates)
    return SearchProblem(
        global_oracle=ConcatenatedOracle(
            ConjunctionOracle.marking(rng.randrange(2 ** (m - g)), m - g),
            ConjunctionOracle.marking(lower, g),
        ),
        candidates=PartialCandidateSet(g, tuple(candidates)),
    )


# (m, g, v, null): composites of 8 to 16 qubits; a null case needs v
# patterns besides the lower target
BORROWED_FLAG_CASES = [
    (m, g, v, null)
    for m, g, v in [
        (4, 1, 2), (4, 2, 2), (4, 3, 4), (5, 2, 3), (5, 3, 3), (6, 3, 3), (6, 4, 4),
        (7, 4, 2), (7, 5, 3), (8, 4, 2), (8, 6, 3), (8, 7, 4),
    ]
    for null in (False, True)
    if v < 2**g or not null
]


class TestDisentangledSearch:
    @pytest.mark.parametrize("m, g, v, null", BORROWED_FLAG_CASES)
    def test_borrowed_flag_gives_the_flag_per_block_composite(self, m, g, v, null):
        problem = shuffled_problem(m, g, v, null, seed=f"{m}:{g}:{v}:{null}")
        assert disentangled_layout(problem).total_qubits <= 16
        expected_counter, counter = QueryCounter(), QueryCounter()
        expected = flag_per_block_reference(problem, expected_counter)
        outcome = disentangled_search(problem, counter)
        assert np.array_equal(outcome.state.amplitudes, expected.amplitudes)
        assert counter == expected_counter
        assert outcome.flag_excitations == (0.0,) * v

    def test_layout_positions(self):
        layout = disentangled_layout(six_qubit_problem())
        assert layout.total_qubits == 11
        assert layout.flag(1) == 3
        assert layout.block(1).indices == (4, 5, 6)
        assert layout.flag(2) == 7
        assert layout.block(2).indices == (8, 9, 10)
        # the rounds' register drops the flags and borrows one on top
        assert layout.working_qubits == 9
        assert layout.working_block(1).indices == (3, 4, 5)
        assert layout.working_block(2).indices == (6, 7, 8)

    def test_matching_block_wins(self):
        problem = six_qubit_problem()
        counter = QueryCounter()
        outcome = disentangled_search(problem, counter)
        assert outcome.winning_index == 1
        dist1 = block_distribution(problem, outcome.state, 1)
        dist2 = block_distribution(problem, outcome.state, 2)
        assert dist1[0b001] == pytest.approx(TWO_ROUND_EIGHT)
        for p in dist2:
            assert p == pytest.approx(0.125, abs=1e-12)
        # prep (1) + two rounds in each of two blocks (4)
        assert counter.oracle_calls == 5

    def test_block_rounds_continue_on_the_prepared_register(self, monkeypatch):
        # the candidate fiber is tiled into the flag-clear half of the
        # working register, the leading entries of the composite's buffer:
        # both blocks run on that one register, the returned state holds
        # that buffer, and the register is spent once the composite is
        # assembled
        prepared, blocks = [], []
        real_prepare, real_amplify = strategies.prepare_candidates, strategies.amplify

        def recording(*args, **kwargs):
            register = real_prepare(*args, **kwargs)
            prepared.append((register, register.amplitudes))
            return register

        def block(sv, stages, counter):
            if stages[0].flag is not None:
                blocks.append((sv, sv.amplitudes))
            return real_amplify(sv, stages, counter)

        monkeypatch.setattr(strategies, "prepare_candidates", recording)
        monkeypatch.setattr(strategies, "amplify", block)
        state = disentangled_search(six_qubit_problem(), QueryCounter()).state
        [(register, array)] = prepared
        assert register.num_qubits == 3 + 2 * 3
        assert array.base is state.amplitudes.base
        [(working, amplitudes), second] = blocks
        assert second[0] is working and second[1] is amplitudes
        assert working.num_qubits == 3 + 2 * 3 + 1
        assert amplitudes.base is array.base
        assert np.shares_memory(amplitudes[: array.size], array)
        assert working.amplitudes is None

    @pytest.mark.parametrize("block, round_", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_a_non_unitary_round_raises_at_that_round(self, monkeypatch, block, round_):
        # one candidate round, then two blocks of two rounds; the first bit
        # flip of round ``round_`` of ``block`` is scaled. The loop checks
        # the register's norm once per round, after the diffusion, so the
        # fault raises at the end of that round, not when the search
        # freezes its register
        faulty = 2 * (block - 1) + round_
        calls = {"flip": 0, "phase": 0, "diffusion": 0}
        real_flip, real_phase, real_diffusion = (
            grover.apply_conditional_bit_flip,
            grover.apply_phase_flip,
            grover.apply_diffusion,
        )

        def flip(*args):
            out = real_flip(*args)
            calls["flip"] += 1
            if calls["flip"] == 2 * faulty - 1:
                out.amplitudes *= 1.01
            return out

        def phase(*args):
            calls["phase"] += 1
            return real_phase(*args)

        def diffusion(*args):
            calls["diffusion"] += 1
            return real_diffusion(*args)

        monkeypatch.setattr(grover, "apply_conditional_bit_flip", flip)
        monkeypatch.setattr(grover, "apply_phase_flip", phase)
        monkeypatch.setattr(grover, "apply_diffusion", diffusion)
        with pytest.raises(ValidationError, match="norm"):
            disentangled_search(six_qubit_problem(), QueryCounter())
        assert calls == {"flip": 2 * faulty, "phase": 1 + faulty, "diffusion": 1 + faulty}

    def test_flags_uncompute_exactly(self):
        problem = six_qubit_problem()
        outcome = disentangled_search(problem, QueryCounter())
        assert outcome.flag_excitations == (0.0, 0.0)
        layout = disentangled_layout(problem)
        for k in (1, 2):
            assert marginal_distribution(outcome.state, qubits(layout.flag(k)))[1] == 0.0

    def test_a_flag_left_excited_raises_before_the_next_block(self, monkeypatch):
        # round 1 of block 1 skips its uncompute, so the flag keeps the
        # kicked amplitude; the flag-clear half the round diffuses has lost
        # that mass, and its norm check raises at the end of round 1
        calls = {"flip": 0, "phase": 0, "diffusion": 0}
        real_flip, real_phase, real_diffusion = (
            grover.apply_conditional_bit_flip,
            grover.apply_phase_flip,
            grover.apply_diffusion,
        )

        def flip(sv, *args):
            calls["flip"] += 1
            return sv if calls["flip"] == 2 else real_flip(sv, *args)

        def phase(*args):
            calls["phase"] += 1
            return real_phase(*args)

        def diffusion(*args):
            calls["diffusion"] += 1
            return real_diffusion(*args)

        monkeypatch.setattr(grover, "apply_conditional_bit_flip", flip)
        monkeypatch.setattr(grover, "apply_phase_flip", phase)
        monkeypatch.setattr(grover, "apply_diffusion", diffusion)
        with pytest.raises(ValidationError, match="norm"):
            disentangled_search(six_qubit_problem(), QueryCounter())
        # one candidate round, then block 1's first round
        assert calls == {"flip": 2, "phase": 2, "diffusion": 2}

    def test_any_probability_left_on_the_flag_raises(self, monkeypatch):
        # 1e-13 of amplitude, 1e-26 of probability, on the flag after block 1:
        # far below the norm tolerance, and below the 1e-9 a flag was once
        # allowed to keep, but the next block's kick would read it
        real = strategies.amplify
        blocks = []

        def leaky(sv, stages, counter):
            out = real(sv, stages, counter)
            if stages[0].flag is not None:
                blocks.append(stages)
                out.amplitudes[-1] = 1e-13
            return out

        monkeypatch.setattr(strategies, "amplify", leaky)
        with pytest.raises(ValidationError, match="flag 1 retains probability .*e-26"):
            disentangled_search(six_qubit_problem(), QueryCounter())
        assert len(blocks) == 1

    def test_candidate_register_stays_product(self):
        problem = six_qubit_problem()
        state = disentangled_search(problem, QueryCounter()).state
        layout = disentangled_layout(problem)
        assert partition_purity(state, problem.lower_qubits) == pytest.approx(1.0, abs=1e-9)
        assert partition_purity(state, layout.block(1)) == pytest.approx(1.0, abs=1e-9)

    def test_null_case_spreads_every_block(self):
        problem = six_qubit_problem(candidate_strings=("101", "110"))
        outcome = disentangled_search(problem, QueryCounter())
        assert outcome.winning_index is None
        for k in (1, 2):
            for p in block_distribution(problem, outcome.state, k):
                assert p == pytest.approx(0.125, abs=1e-12)

    def test_threshold_separates_cleanly(self):
        problem = six_qubit_problem()
        state = disentangled_search(problem, QueryCounter()).state
        dist1 = block_distribution(problem, state, 1)
        dist2 = block_distribution(problem, state, 2)
        assert dist1[0b001] > DECISION_THRESHOLD
        assert max(dist2) < DECISION_THRESHOLD

    def test_outcome_distributions_are_arrays_indexed_by_pattern(self):
        problem = six_qubit_problem()
        outcome = disentangled_search(problem, QueryCounter())
        for k in (1, 2):
            dist = outcome.distributions[k - 1]
            assert isinstance(dist, np.ndarray) and dist.shape == (8,)
            assert np.array_equal(dist, block_distribution(problem, outcome.state, k))
        assert outcome.distributions[0][problem.upper_target] == pytest.approx(TWO_ROUND_EIGHT)

    def test_requires_two_candidates(self):
        with pytest.raises(PreconditionError):
            disentangled_search(six_qubit_problem(candidate_strings=("011",)), QueryCounter())
        with pytest.raises(PreconditionError):
            disentangled_layout(six_qubit_problem(candidate_strings=("011",)))

    def test_rejects_oversized_composite(self):
        upper = ConjunctionOracle.from_signed_literals([5, -4, 3, -2, 1], width=5)
        lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
        problem = SearchProblem(
            global_oracle=ConcatenatedOracle(upper, lower),
            candidates=PartialCandidateSet.from_strings(["011", "101", "110"]),
        )
        with pytest.raises(ConfigurationError):
            disentangled_search(problem, QueryCounter())

    def test_recover_candidate_completes_the_solution(self):
        problem = six_qubit_problem()
        counter = QueryCounter()
        result = recover_candidate(problem, 1, 256, 5, counter)
        assert isinstance(result, Measurement) and result.state.num_qubits == problem.g
        assert result.verified
        assert result.found == "001011"
        assert result.candidate_index == 1
        assert counter.oracle_calls == 3

    def test_recover_wrong_candidate_fails_verification(self):
        problem = six_qubit_problem()
        result = recover_candidate(problem, 2, 256, 5, QueryCounter())
        assert not result.verified
        assert result.found is None


def _full_width_prep(problem, width, counter):
    return full_width_replay(init_uniform(width), [candidate_prep_stage(problem)], counter)


def _assert_replayed(run, start, stages):
    """``run(counter)``'s state equals ``stages`` replayed at full width on
    ``start``, signed zeros included, for the same queries."""
    counter, expected_counter = QueryCounter(), QueryCounter()
    state = run(counter)
    expected = full_width_replay(start, stages, expected_counter).freeze()
    assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert counter == expected_counter


@st.composite
def width_cases(draw):
    """(m, g, v, null, seed) over m <= 10, every valid g and shuffled candidates."""
    m = draw(st.integers(min_value=2, max_value=10))
    g = draw(st.integers(min_value=1, max_value=m - 1))
    v = draw(st.integers(min_value=1, max_value=min(2**g, 5)))
    null = draw(st.booleans()) and v < 2**g
    return m, g, v, null, draw(st.integers(min_value=0, max_value=2**32))


class TestStagesAtTheirWidth:
    """Candidate stages run on one g-qubit fiber and block rounds diffuse
    the flag-clear half, leaving every state as a full-width run leaves it."""

    @given(width_cases())
    @settings(max_examples=60, deadline=None)
    def test_each_strategy_matches_its_full_width_replay(self, case):
        m, g, v, null, seed = case
        problem = shuffled_problem(m, g, v, null, seed)
        prep = candidate_prep_stage(problem)
        upper = problem.upper_qubits
        factored = Stage.standard(problem.global_oracle.upper.mask(), upper, upper)
        _assert_replayed(
            lambda c: product_subspace_search(problem, c), init_uniform(m), [prep, factored]
        )
        if not null:
            _assert_replayed(
                lambda c: entangled_nested(problem, c), init_uniform(m), [prep, upper_stage(problem)]
            )
        for k in range(1, v + 1):
            _assert_replayed(
                lambda c: iterative_trial_state(problem, k, c),
                init_uniform(m),
                trial_stages(problem, k),
            )
        for convention in permutation.CONVENTIONS:
            counter, expected_counter = QueryCounter(), QueryCounter()
            state = permutation.compacted_search_state(problem, counter, "grover", convention)
            with mock.patch.object(permutation, "prepare_candidates", _full_width_prep):
                expected = permutation.compacted_search_state(
                    problem, expected_counter, "grover", convention
                )
            assert state.state.amplitudes.tobytes() == expected.state.amplitudes.tobytes()
            assert counter == expected_counter
        if v >= 2 and g + v * (m - g + 1) <= 16:
            counter, expected_counter = QueryCounter(), QueryCounter()
            outcome = disentangled_search(problem, counter)
            expected = flag_per_block_reference(problem, expected_counter)
            assert outcome.state.amplitudes.tobytes() == expected.amplitudes.tobytes()
            assert counter == expected_counter

    def test_a_norm_fault_in_a_fiber_round_raises_there_before_the_tile(self, monkeypatch):
        # one candidate: r(8, 1) = 2 preparation rounds on the 3-qubit
        # fiber; the first round's diffusion scales it, and that round's
        # norm check raises before the fiber is tiled
        problem = five_qubit_problem(candidate_strings=("101",))
        diffused, tiled = [], []
        real_diffusion, real_tile = grover.apply_diffusion, Register.tile

        def diffusion(sv, on):
            out = real_diffusion(sv, on)
            diffused.append(sv.num_qubits)
            if len(diffused) == 1:
                out.amplitudes *= 1.01
            return out

        def tile(self, *args):
            tiled.append(self.num_qubits)
            return real_tile(self, *args)

        monkeypatch.setattr(grover, "apply_diffusion", diffusion)
        monkeypatch.setattr(Register, "tile", tile)
        with pytest.raises(ValidationError, match="norm .* deviates from 0.5"):
            product_subspace_search(problem, QueryCounter())
        assert diffused == [3]
        assert tiled == []

    def test_a_fiber_cannot_be_frozen(self):
        problem = five_qubit_problem()
        fiber = amplify(uniform_fiber(5, 3), [candidate_prep_stage(problem)], QueryCounter())
        assert fiber.norm == 0.5
        with pytest.raises(ValidationError, match="fiber"):
            fiber.freeze()
        assert fiber.amplitudes is not None
        # a fiber tiles back only into the width it was cut from
        with pytest.raises(ConfigurationError, match="uniform fiber"):
            fiber.tile(6)
        assert fiber.tile(5).freeze().amplitudes.tobytes() == (
            prepare_candidates(problem, 5, QueryCounter()).freeze().amplitudes.tobytes()
        )

    def test_fiber_references_read_a_fiber_snapshot(self, monkeypatch):
        # the preparation is one round on the 3-qubit fiber, the upper stage
        # one round on all 5 qubits
        seen = []
        for name in ("dense_phase_flip_matrix", "dense_diffusion_matrix"):
            def recording(sv, *args, _real=getattr(svmod, name)):
                seen.append((sv.num_qubits, sv.norm, sv.amplitudes.flags.writeable))
                return _real(sv, *args)

            monkeypatch.setattr(svmod, name, recording)
        with KernelCrossCheck() as check:
            product_subspace_search(five_qubit_problem(), QueryCounter())
            arrays = dict(check.index_arrays)
        assert seen == [(3, 0.5, False)] * 2 + [(5, 1.0, False)] * 2
        assert check.max_deviation <= 1e-12
        # basis indices, sub-patterns and diffusion blocks, one per width
        # and qubit set, read-only, and dropped when the context exits
        assert sorted(key[:2] for key in arrays) == [
            ("basis", 3), ("basis", 5), ("block", 3), ("block", 5),
            ("subpattern", 3), ("subpattern", 5),
        ]
        assert not any(array.flags.writeable for array in arrays.values())
        assert check.index_arrays == {}
