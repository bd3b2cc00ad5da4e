"""Predicate and bitstring plumbing checks, mostly by exhaustive enumeration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtreesearch.errors import ConfigurationError, PreconditionError, ValidationError
from qtreesearch.oracles import (
    ConcatenatedOracle,
    ConjunctionOracle,
    PartialCandidateSet,
    bits_to_int,
    candidate_oracle,
    concat,
    eval_oracle,
    int_to_bits,
)


def brute_force_conjunction(width, signed):
    """Reference semantics: evaluate each signed literal against MSB-left bits."""
    hits = set()
    for pattern in range(2**width):
        bits = format(pattern, f"0{width}b")
        ok = True
        for s in signed:
            pos = abs(s)  # 1-based, counted from the right of the string
            val = bits[width - pos] == "1"
            if (s > 0) != val:
                ok = False
        if ok:
            hits.add(pattern)
    return hits


class TestBitstrings:
    def test_round_trip(self):
        assert int_to_bits(21, 5) == "10101"
        assert bits_to_int("10101") == 21

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_round_trip_property(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert bits_to_int(int_to_bits(value, width)) == value

    def test_concat_puts_upper_on_the_left(self):
        assert concat("10", "101") == "10101"

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            bits_to_int("10x01")


class TestConjunctionOracle:
    def test_three_literal_example(self):
        # not-x3 and x2 and x1 is satisfied only by 011
        oracle = ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3)
        expected = brute_force_conjunction(3, [-3, 2, 1])
        assert expected == {0b011}
        got = {p for p in range(8) if oracle(p)}
        assert got == expected
        assert oracle.marked_count == 1
        assert oracle.marked_state == 0b011

    def test_five_literal_example(self):
        oracle = ConjunctionOracle.from_signed_literals([5, -4, 3, -2, 1], width=5)
        expected = brute_force_conjunction(5, [5, -4, 3, -2, 1])
        got = {p for p in range(32) if oracle(p)}
        assert got == expected == {0b10101}
        assert int_to_bits(oracle.marked_state, 5) == "10101"

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(
                    st.integers(min_value=1, max_value=w), unique=True, min_size=0, max_size=w
                ).flatmap(
                    lambda ps: st.tuples(*[st.sampled_from([p, -p]) for p in ps])
                ),
            )
        )
    )
    def test_matches_brute_force(self, case):
        width, signed = case
        oracle = ConjunctionOracle.from_signed_literals(list(signed), width=width)
        expected = brute_force_conjunction(width, signed)
        got = {p for p in range(2**width) if oracle(p)}
        assert got == expected
        assert oracle.marked_count == len(expected) == 2 ** (width - len(signed))

    def test_partial_conjunction_marks_a_block(self):
        oracle = ConjunctionOracle.from_signed_literals([5, -4], width=5)
        assert oracle.marked_count == 8
        assert {p for p in range(32) if oracle(p)} == brute_force_conjunction(5, [5, -4])
        with pytest.raises(PreconditionError):
            oracle.marked_state

    def test_signed_literals_round_trip(self):
        oracle = ConjunctionOracle.from_signed_literals([1, -4, 3], width=5)
        assert oracle.signed_literals() == [1, 3, -4]

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValidationError):
            ConjunctionOracle.from_signed_literals([2, -2], width=3)

    def test_rejects_zero_literal(self):
        with pytest.raises(ConfigurationError):
            ConjunctionOracle.from_signed_literals([0], width=3)

    def test_rejects_out_of_range_position(self):
        with pytest.raises(ConfigurationError):
            ConjunctionOracle.from_signed_literals([4], width=3)

    def test_matching_constructor_pins_every_bit(self):
        oracle = ConjunctionOracle.matching("011")
        assert oracle.width == 3
        assert oracle.marked_count == 1
        assert oracle.marked_state == 0b011
        assert {p for p in range(8) if oracle(p)} == {0b011}


class TestConcatenatedOracle:
    def test_joint_solution(self):
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
        oracle = ConcatenatedOracle(upper, lower)
        assert oracle.width == 5
        assert oracle.split == 3
        assert oracle.solution_bits == "10101"
        got = {p for p in range(32) if oracle(p)}
        assert got == {bits_to_int("10101")}
        assert oracle.marked_count == 1

    def test_agrees_with_flat_conjunction(self):
        # shifting the upper literals by the lower width must give the same set
        upper = ConjunctionOracle.from_signed_literals([-2, 1], width=2)
        lower = ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3)
        oracle = ConcatenatedOracle(upper, lower)
        flat = ConjunctionOracle.from_signed_literals([-5, 4, -3, 2, 1], width=5)
        for p in range(32):
            assert oracle(p) == flat(p)

    def test_rejects_multi_marked_half(self):
        upper = ConjunctionOracle.from_signed_literals([2], width=2)
        lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
        with pytest.raises(ValidationError):
            ConcatenatedOracle(upper, lower)


class TestEvalOracle:
    def test_string_evaluation(self):
        oracle = ConjunctionOracle.from_signed_literals([5, -4, 3, -2, 1], width=5)
        assert eval_oracle(oracle, "10101") == 1
        assert eval_oracle(oracle, "10011") == 0

    def test_partial_oracle(self):
        oracle = ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3)
        assert eval_oracle(oracle, "011") == 1

    def test_concatenated_splits_the_input(self):
        upper = ConjunctionOracle.from_signed_literals([2, -1], width=2)
        lower = ConjunctionOracle.from_signed_literals([3, -2, 1], width=3)
        oracle = ConcatenatedOracle(upper, lower)
        assert eval_oracle(oracle, "10101") == 1
        assert eval_oracle(oracle, "10001") == 0

    def test_rejects_width_mismatch(self):
        oracle = ConjunctionOracle.from_signed_literals([1], width=3)
        with pytest.raises(ConfigurationError):
            eval_oracle(oracle, "01")


class TestPartialCandidateSet:
    def test_membership(self):
        cands = PartialCandidateSet.from_strings(["011", "101"])
        assert cands.width == 3
        assert cands.size == 2
        assert cands(0b011) and cands(0b101)
        assert not cands(0b000)
        assert cands.marked_count == 2

    def test_one_based_access_preserves_order(self):
        cands = PartialCandidateSet.from_strings(["011", "101"])
        assert cands.candidate(1) == 0b011
        assert cands.candidate(2) == 0b101
        assert cands.strings() == ("011", "101")
        with pytest.raises(ConfigurationError):
            cands.candidate(0)
        with pytest.raises(ConfigurationError):
            cands.candidate(3)

    def test_index_of(self):
        cands = PartialCandidateSet.from_strings(["011", "101"])
        assert cands.index_of(0b101) == 2
        assert cands.index_of(0b111) is None

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            PartialCandidateSet.from_strings(["011", "011"])

    def test_candidate_oracle_matches_one_string(self):
        cands = PartialCandidateSet.from_strings(["011", "101"])
        sub = candidate_oracle(cands, 2)
        assert isinstance(sub, ConjunctionOracle)
        assert {p for p in range(8) if sub(p)} == {0b101}


@st.composite
def conjunctions(draw, width):
    positions = draw(st.lists(st.integers(1, width), unique=True, max_size=width))
    signed = [draw(st.sampled_from([p, -p])) for p in positions]
    return ConjunctionOracle.from_signed_literals(signed, width=width)


@st.composite
def oracles(draw):
    """Any oracle class over 1 to 8 variables (2 to 8 for a concatenation)."""
    kind = draw(st.sampled_from(["conjunction", "concatenated", "candidates"]))
    if kind == "conjunction":
        return draw(conjunctions(draw(st.integers(1, 8))))
    if kind == "concatenated":
        width = draw(st.integers(2, 8))
        g = draw(st.integers(1, width - 1))
        upper = draw(st.integers(0, 2 ** (width - g) - 1))
        lower = draw(st.integers(0, 2**g - 1))
        return ConcatenatedOracle(
            upper=ConjunctionOracle.matching(int_to_bits(upper, width - g)),
            lower=ConjunctionOracle.matching(int_to_bits(lower, g)),
        )
    width = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, 2**width - 1), unique=True, min_size=1, max_size=16))
    return PartialCandidateSet(width=width, candidates=tuple(values))


class TestMask:
    @given(oracles())
    def test_mask_agrees_with_the_classical_query(self, oracle):
        mask = oracle.mask()
        assert mask.dtype == np.bool_
        assert mask.tolist() == [oracle(p) for p in range(2**oracle.width)]
        assert int(mask.sum()) == oracle.marked_count

