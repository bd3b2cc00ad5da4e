"""Relabeling construction, controlled-not realization, and compacted search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreesearch.errors import ConfigurationError, ValidationError
from qtreesearch.grover import QueryCounter
from qtreesearch.oracles import (
    ConcatenatedOracle,
    ConjunctionOracle,
    PartialCandidateSet,
)
from qtreesearch.permutation import (
    PermutationSpec,
    apply_cnot_permutation,
    build_permutation,
    candidate_code,
    compacted_search_state,
)
from qtreesearch.statevector import (
    Register,
    Statevector,
    apply_index_map,
    basis_state,
    init_uniform,
    probability_map,
    qubit_range,
    qubits,
)
from qtreesearch.strategies import SearchProblem, measure_and_verify, prepare_candidates

TWO_ROUND_EIGHT = 121 / 128

# Reference relabelings for the pair of 3-bit paths {011, 101}. Columns are
# inputs, rows outputs. The first sends the paths to the low code words 0
# and 1; the second mirrors the code into the high bits, sending them to
# 000 and 100.
LOW_CODE_MATRIX = np.array(
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.complex128,
)
HIGH_CODE_MATRIX = np.array(
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.complex128,
)


def _paths(*strings):
    return PartialCandidateSet.from_strings(strings)


def five_qubit_problem():
    upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
    lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
    return SearchProblem(
        global_oracle=ConcatenatedOracle(upper=upper, lower=lower),
        candidates=PartialCandidateSet.from_strings(["011", "101"]),
    )


class TestBuildPermutation:
    def test_low_code_mapping(self):
        spec = build_permutation(_paths("011", "101"), convention="standard")
        assert spec.mapping == (3, 5, 2, 0, 4, 1, 6, 7)
        assert spec.transpositions == ((3, 0), (5, 1))
        assert spec.code_width == 1

    def test_high_code_mapping(self):
        spec = build_permutation(_paths("011", "101"), convention="little_endian")
        assert spec.mapping == (3, 1, 2, 0, 5, 4, 6, 7)
        assert spec.transpositions == ((3, 0), (5, 4))

    def test_low_code_matrix(self):
        spec = build_permutation(_paths("011", "101"), convention="standard")
        assert spec.mapping == tuple(np.argmax(LOW_CODE_MATRIX, axis=0))

    def test_high_code_matrix(self):
        spec = build_permutation(_paths("011", "101"), convention="little_endian")
        assert spec.mapping == tuple(np.argmax(HIGH_CODE_MATRIX, axis=0))

    def test_matrix_compacts_the_candidate_pair(self):
        # The even mix of the two paths must land on the code block alone.
        pair = np.zeros(8, dtype=np.complex128)
        pair[0b011] = pair[0b101] = 1 / np.sqrt(2)
        low = LOW_CODE_MATRIX @ pair
        high = HIGH_CODE_MATRIX @ pair
        assert abs(low[0b000]) == pytest.approx(1 / np.sqrt(2))
        assert abs(low[0b001]) == pytest.approx(1 / np.sqrt(2))
        assert abs(high[0b000]) == pytest.approx(1 / np.sqrt(2))
        assert abs(high[0b100]) == pytest.approx(1 / np.sqrt(2))

    def test_path_already_on_its_code_word(self):
        # 001 goes to 0 by swapping with 000, which leaves 000 sitting on
        # code word 1 already; no second swap is recorded.
        spec = build_permutation(_paths("001", "000"), convention="standard")
        assert spec.mapping[0b001] == 0
        assert spec.mapping[0b000] == 1
        assert spec.transpositions == ((1, 0),)

    def test_single_path_zero_width_code(self):
        spec = build_permutation(_paths("110"), convention="little_endian")
        assert spec.code_width == 0
        assert spec.mapping[0b110] == 0

    def test_unknown_convention_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown convention 'big_endian'"):
            build_permutation(_paths("011", "101"), convention="big_endian")

    def test_non_bijective_spec_rejected(self):
        with pytest.raises(ValidationError):
            PermutationSpec(
                width=1,
                mapping=(0, 0),
                convention="standard",
                code_width=0,
                transpositions=(),
            )

    def test_code_targets(self):
        assert candidate_code(1, 0, 3, "standard") == 0
        assert candidate_code(2, 1, 3, "standard") == 1
        assert candidate_code(2, 1, 3, "little_endian") == 0b100
        assert candidate_code(3, 2, 4, "little_endian") == 0b1000


@st.composite
def path_sets(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=1, max_value=min(6, 2**width)))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**width - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return PartialCandidateSet(width, tuple(values))


class TestPermutationProperties:
    @given(path_sets(), st.sampled_from(["standard", "little_endian"]))
    @settings(max_examples=60, deadline=None)
    def test_paths_land_on_code_words(self, paths, convention):
        spec = build_permutation(paths, convention=convention)
        assert sorted(spec.mapping) == list(range(2**paths.width))
        for k, value in enumerate(paths.candidates, start=1):
            target = candidate_code(k, spec.code_width, paths.width, convention)
            assert spec.mapping[value] == target

    @given(path_sets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transpose_round_trip(self, paths, seed):
        width = paths.width
        spec = build_permutation(paths, "standard")
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)
        sv = Statevector(width, amps)
        on = qubit_range(0, width)
        back = apply_index_map(Register.copy_of(sv), spec.mapping, on)
        apply_index_map(back, spec.inverse(), on)
        assert np.allclose(back.amplitudes, sv.amplitudes, atol=1e-12)


class TestCnotRealization:
    @pytest.mark.parametrize("convention", ["standard", "little_endian"])
    def test_matches_relabeling_on_every_basis_state(self, convention):
        spec = build_permutation(_paths("011", "101"), convention=convention)
        data, flags = qubit_range(0, 3), qubit_range(3, 5)
        for y in range(8):
            out = apply_cnot_permutation(Register.copy_of(basis_state(5, y)), spec, data, flags)
            expect = basis_state(5, spec.mapping[y])
            assert np.allclose(out.amplitudes, expect.amplitudes, atol=1e-12), y

    def test_flags_return_to_zero_on_superposition(self):
        spec = build_permutation(_paths("011", "101"), convention="little_endian")
        data, flags = qubit_range(0, 3), qubit_range(3, 5)
        rng = np.random.default_rng(11)
        amps = np.zeros(32, dtype=np.complex128)
        amps[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = apply_cnot_permutation(Register(5, amps.copy()), spec, data, flags)
        assert np.allclose(np.abs(out.amplitudes[8:]), 0.0, atol=1e-12)
        expect = apply_index_map(Register(5, amps), spec.mapping, data)
        assert np.allclose(out.amplitudes[:8], expect.amplitudes[:8], atol=1e-12)

    def test_noncontiguous_data_register(self):
        # Flag sits between data qubits; the recipe must still commute with
        # the plain relabeling of the data content.
        spec = build_permutation(_paths("01", "00"), convention="standard")
        assert len(spec.transpositions) == 1
        data, flags = qubits(0, 2), qubits(1)
        for y in range(4):
            packed = ((y >> 1) << 2) | (y & 1)
            out = apply_cnot_permutation(
                Register.copy_of(basis_state(3, packed)), spec, data, flags
            )
            mapped = spec.mapping[y]
            expect = basis_state(3, ((mapped >> 1) << 2) | (mapped & 1))
            assert np.allclose(out.amplitudes, expect.amplitudes, atol=1e-12)

    def test_wrong_flag_count_rejected(self):
        spec = build_permutation(_paths("011", "101"), "standard")
        with pytest.raises(ConfigurationError):
            apply_cnot_permutation(init_uniform(4), spec, qubit_range(0, 3), qubits(3, 4))

    def test_overlapping_registers_rejected(self):
        spec = build_permutation(_paths("011", "101"), "standard")
        with pytest.raises(ConfigurationError):
            apply_cnot_permutation(init_uniform(5), spec, qubit_range(0, 3), qubits(2, 3))


def _verified_search(
    problem, counter=None, shots=256, seed=0, prep="grover", convention="little_endian"
):
    """The compacted search, sampled and checked as a permutation run checks it."""
    counter = QueryCounter() if counter is None else counter
    sv = compacted_search_state(problem, counter, prep, convention).state
    return measure_and_verify(
        problem, sv, shots, seed, counter, problem.matching_candidate_index()
    )


class TestCompactedSearch:
    def test_exact_success_probability(self):
        problem = five_qubit_problem()
        for prep in ("grover", "basis"):
            sv = compacted_search_state(problem, QueryCounter(), prep, "little_endian").state
            dist = probability_map(sv)
            assert dist["10101"] == pytest.approx(TWO_ROUND_EIGHT, abs=1e-12)

    def test_grover_prep_search(self):
        counter = QueryCounter()
        result = _verified_search(
            five_qubit_problem(), counter=counter, shots=256, seed=3
        )
        assert result.verified
        assert result.found == "10101"
        assert result.candidate_index == 2
        assert result.trials == 1
        # one prep round, two compacted rounds, one classical check
        assert counter.oracle_calls == 4
        assert counter.diffusion_calls == 3

    def test_basis_prep_search(self):
        counter = QueryCounter()
        result = _verified_search(
            five_qubit_problem(), counter=counter, prep="basis", shots=256, seed=3
        )
        assert result.verified
        assert result.found == "10101"
        assert counter.oracle_calls == 3
        assert counter.diffusion_calls == 2

    def test_standard_convention_search(self):
        result = _verified_search(
            five_qubit_problem(), convention="standard", shots=256, seed=5
        )
        assert result.verified
        assert result.found == "10101"

    def test_unknown_prep_rejected(self):
        with pytest.raises(ConfigurationError):
            compacted_search_state(
                five_qubit_problem(), QueryCounter(), "adiabatic", "little_endian"
            )

    def test_idle_lower_qubits_stay_clear(self):
        # After relabeling, all support must sit inside code block x upper
        # half; the idle lower qubit reads 0 with certainty.
        problem = five_qubit_problem()
        counter = QueryCounter()
        spec = build_permutation(problem.candidates, convention="little_endian")
        sv = prepare_candidates(problem, problem.m, counter)
        apply_index_map(sv, spec.mapping, problem.lower_qubits)
        for label, weight in probability_map(sv.freeze()).items():
            if weight > 1e-12:
                assert label[-1] == "0"
                assert label[-2] == "0"

    @staticmethod
    def _half_filled_problem(upper, target):
        return SearchProblem(
            global_oracle=ConcatenatedOracle(
                upper=ConjunctionOracle.from_signed_literals(upper, width=len(upper)),
                lower=ConjunctionOracle.matching(target),
            ),
            candidates=PartialCandidateSet.from_strings(["000", "011", "110", "101"]),
        )

    @pytest.mark.parametrize("upper", [[2, -1], [-3, -2, 1]], ids=["m5", "m6"])
    @pytest.mark.parametrize("target", ["000", "011", "110", "101"])
    def test_half_filled_lower_block_verifies_at_every_seed(self, upper, target):
        # v = 2^g / 2: candidate preparation leaves half the mass off the
        # candidates, on the idle-qubit block, which the conjugated oracle
        # never marks, so the solution stays the top outcome at every seed
        problem = self._half_filled_problem(upper, target)
        found = [_verified_search(problem, seed=seed).found for seed in range(20)]
        assert found == [problem.upper_target_bits + target] * 20

    @pytest.mark.parametrize("upper", [[2, -1], [-3, -2, 1]], ids=["m5", "m6"])
    @pytest.mark.parametrize("target", ["001", "010", "100", "111"])
    def test_lower_string_outside_candidates_is_never_amplified(self, upper, target):
        # the off-candidate mass sits on the idle-qubit block, uniform over
        # the search set; the conjugated oracle marks only candidates, so a
        # solution whose lower string is no candidate keeps its prepared
        # weight and the final state stays uniform over every pattern
        problem = self._half_filled_problem(upper, target)
        state = compacted_search_state(problem, QueryCounter(), "grover", "little_endian").state
        weights = probability_map(state)
        assert len(weights) == 2**problem.m
        assert weights[problem.upper_target_bits + target] == pytest.approx(2.0**-problem.m)
        assert max(weights.values()) == pytest.approx(2.0**-problem.m)
