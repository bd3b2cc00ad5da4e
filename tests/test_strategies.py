"""Strategy pipelines checked against hand-derived exact probabilities.

The recurring 5-qubit instance: global conjunction with upper half marking
10 and lower half marking 101, candidates {011, 101}. Useful exact values:
a 2-round single-mark search over 8 states puts 121/128 on the mark, and a
1-round search with a quarter marked is exact.
"""

import numpy as np
import pytest

from qtreesearch import strategies
from qtreesearch.errors import ConfigurationError, PreconditionError, ValidationError
from qtreesearch.grover import QueryCounter
from qtreesearch.oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from qtreesearch.statevector import (
    basis_state,
    init_uniform,
    partition_purity,
    probability_map,
    qubits,
    sample,
)
from qtreesearch.strategies import (
    DECISION_THRESHOLD,
    Measurement,
    SearchProblem,
    block_distribution,
    disentangled_layout,
    disentangled_search,
    entangled_nested,
    flag_excitation,
    iterative_search,
    iterative_trial_state,
    measure_and_verify,
    product_subspace_search,
    prepare_candidates,
    recover_candidate,
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
        sv = prepare_candidates(problem, init_uniform(problem.m)).freeze()
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
        sv = product_subspace_search(five_qubit_problem())
        assert partition_purity(sv, qubits(0, 1, 2)) == pytest.approx(1.0, abs=1e-9)

    def test_single_candidate_concentrates(self):
        problem = five_qubit_problem(candidate_strings=("101",))
        sv = product_subspace_search(problem)
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
        sv = entangled_nested(five_qubit_problem())
        purity = partition_purity(sv, qubits(0, 1, 2))
        assert purity == pytest.approx(0.625, abs=1e-9)
        assert purity < 0.999

    def test_mass_scales_inversely_with_candidates(self):
        # v=2 at split 3: the matching block also pays the 8-state search loss
        sv2 = entangled_nested(six_qubit_problem())
        assert probability_map(sv2)["001011"] == pytest.approx(TWO_ROUND_EIGHT / 2)
        # v=4 at split 4: both stages sit on exact rotations
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        lower = ConjunctionOracle.from_signed_literals([4, -3, 2, 1], width=4)
        problem = SearchProblem(
            global_oracle=ConcatenatedOracle(upper, lower),
            candidates=PartialCandidateSet.from_strings(["0011", "0101", "1011", "1110"]),
        )
        sv4 = entangled_nested(problem)
        assert probability_map(sv4)["101011"] == pytest.approx(0.25, abs=1e-12)

    def test_requires_a_matching_candidate(self):
        with pytest.raises(PreconditionError):
            entangled_nested(five_qubit_problem(candidate_strings=("011", "110")))

    def test_single_matching_candidate_has_no_splitting_loss(self):
        problem = five_qubit_problem(candidate_strings=("101",))
        sv = entangled_nested(problem)
        assert probability_map(sv)["10101"] == pytest.approx(TWO_ROUND_EIGHT)


class TestIterativeSearch:
    def test_matching_candidate_first(self):
        problem = five_qubit_problem(candidate_strings=("101", "011"))
        counter = QueryCounter()
        outcome = iterative_search(problem, seed=7, counter=counter)
        result = outcome.result
        assert result is outcome.trials[-1]
        assert result.verified
        assert result.found == "10101"
        assert result.candidate_index == 1
        assert result.trials == 1
        assert counter.oracle_calls == 4  # 2 lower + 1 upper + 1 check

    def test_mismatch_first_then_success(self):
        problem = five_qubit_problem()
        counter = QueryCounter()
        outcome = iterative_search(problem, seed=7, counter=counter)
        result = outcome.result
        assert result.verified
        assert result.found == "10101"
        assert result.candidate_index == 2
        assert result.trials == 2
        assert counter.oracle_calls == 8
        first = outcome.trials[0]
        assert not first.verified and first.found is None and first.candidate_index is None

    def test_mismatch_trial_spreads_over_the_upper_half(self):
        problem = five_qubit_problem()
        probs = probability_map(iterative_trial_state(problem, 1))
        for upper in ("00", "01", "10", "11"):
            assert probs[upper + "011"] == pytest.approx(121 / 512, abs=1e-12)
        assert probs["10101"] == pytest.approx(1 / 128, abs=1e-12)

    def test_matching_trial_concentrates(self):
        problem = five_qubit_problem()
        probs = probability_map(iterative_trial_state(problem, 2))
        assert probs["10101"] == pytest.approx(TWO_ROUND_EIGHT)

    def test_matching_trial_histogram_dominated_by_the_solution(self):
        problem = five_qubit_problem()
        sv = iterative_trial_state(problem, 2)
        counts = sample(sv, shots=256, seed=11)
        assert counts[0b10101] / 256 >= 0.9

    def test_exhaustion_returns_unverified(self):
        problem = five_qubit_problem(candidate_strings=("011", "110"))
        result = iterative_search(problem, seed=3).result
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
            result = iterative_search(problem, seed=13, counter=counter).result
            assert result.verified
            assert result.found == "10" + lower_bits
            assert counter.oracle_calls <= 2 * (2 + 1 + 1)


class TestDisentangledSearch:
    def test_layout_positions(self):
        layout = disentangled_layout(six_qubit_problem())
        assert layout.total_qubits == 11
        assert layout.flag(1) == 3
        assert layout.block(1).indices == (4, 5, 6)
        assert layout.flag(2) == 7
        assert layout.block(2).indices == (8, 9, 10)

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
        # the candidate rounds and the block rounds share one register: the
        # returned state holds the prepared register's own array, and the
        # register is spent once it is frozen
        prepared = []
        real = strategies.prepare_candidates

        def recording(*args, **kwargs):
            register = real(*args, **kwargs)
            prepared.append((register, register.amplitudes))
            return register

        monkeypatch.setattr(strategies, "prepare_candidates", recording)
        state = disentangled_search(six_qubit_problem()).state
        [(register, array)] = prepared
        assert state.amplitudes.base is array
        assert register.amplitudes is None

    @pytest.mark.parametrize("block, round_", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_a_non_unitary_round_raises_at_that_round(self, monkeypatch, block, round_):
        # two blocks of two rounds; the first bit flip of round ``round_``
        # of ``block`` is scaled. The loop checks the register's norm once
        # per round, after the diffusion, so the fault raises at the end
        # of that round, not when the loop freezes its register
        faulty = 2 * (block - 1) + round_
        calls = {"flip": 0, "phase": 0, "diffusion": 0}
        real_flip, real_phase, real_diffusion = (
            strategies.apply_conditional_bit_flip,
            strategies.apply_phase_flip,
            strategies.apply_diffusion,
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

        monkeypatch.setattr(strategies, "apply_conditional_bit_flip", flip)
        monkeypatch.setattr(strategies, "apply_phase_flip", phase)
        monkeypatch.setattr(strategies, "apply_diffusion", diffusion)
        with pytest.raises(ValidationError, match="norm"):
            disentangled_search(six_qubit_problem())
        assert calls == {"flip": 2 * faulty, "phase": faulty, "diffusion": faulty}

    def test_flags_uncompute_exactly(self):
        problem = six_qubit_problem()
        state = disentangled_search(problem).state
        assert flag_excitation(problem, state, 1) == pytest.approx(0.0, abs=1e-12)
        assert flag_excitation(problem, state, 2) == pytest.approx(0.0, abs=1e-12)

    def test_candidate_register_stays_product(self):
        problem = six_qubit_problem()
        state = disentangled_search(problem).state
        layout = disentangled_layout(problem)
        assert partition_purity(state, problem.lower_qubits) == pytest.approx(1.0, abs=1e-9)
        assert partition_purity(state, layout.block(1)) == pytest.approx(1.0, abs=1e-9)

    def test_null_case_spreads_every_block(self):
        problem = six_qubit_problem(candidate_strings=("101", "110"))
        outcome = disentangled_search(problem)
        assert outcome.winning_index is None
        for k in (1, 2):
            for p in block_distribution(problem, outcome.state, k):
                assert p == pytest.approx(0.125, abs=1e-12)

    def test_threshold_separates_cleanly(self):
        problem = six_qubit_problem()
        state = disentangled_search(problem).state
        dist1 = block_distribution(problem, state, 1)
        dist2 = block_distribution(problem, state, 2)
        assert dist1[0b001] > DECISION_THRESHOLD
        assert max(dist2) < DECISION_THRESHOLD

    def test_outcome_distributions_are_arrays_indexed_by_pattern(self):
        problem = six_qubit_problem()
        outcome = disentangled_search(problem)
        for k in (1, 2):
            dist = outcome.distributions[k - 1]
            assert isinstance(dist, np.ndarray) and dist.shape == (8,)
            assert np.array_equal(dist, block_distribution(problem, outcome.state, k))
        assert outcome.distributions[0][problem.upper_target] == pytest.approx(TWO_ROUND_EIGHT)

    def test_requires_two_candidates(self):
        with pytest.raises(PreconditionError):
            disentangled_search(six_qubit_problem(candidate_strings=("011",)))
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
            disentangled_search(problem)

    def test_recover_candidate_completes_the_solution(self):
        problem = six_qubit_problem()
        counter = QueryCounter()
        result = recover_candidate(problem, 1, seed=5, counter=counter)
        assert isinstance(result, Measurement) and result.state.num_qubits == problem.g
        assert result.verified
        assert result.found == "001011"
        assert result.candidate_index == 1
        assert counter.oracle_calls == 3

    def test_recover_wrong_candidate_fails_verification(self):
        problem = six_qubit_problem()
        result = recover_candidate(problem, 2, seed=5)
        assert not result.verified
        assert result.found is None
