"""Query-budget formulas, pinned values first, then shape properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtreesearch.costs import (
    BUDGETED,
    STRATEGIES,
    cost,
    cost_table,
    times_ratio,
    times_ratio_limit,
    v_max,
)
from qtreesearch.errors import ConfigurationError


def _total(strategy, m, v=1):
    return cost(strategy, m, m // 2, v).total


def _flat(m):
    return _total("baseline", m)


def _staged(m, g):
    return cost("decomposition-ideal", m, g, 1).total


class TestBaseline:
    def test_values(self):
        assert _flat(4) == pytest.approx(4.0)
        assert _flat(10) == pytest.approx(32.0)

    def test_has_no_margin(self):
        assert cost("baseline", 8, 4, 2).margin is None


class TestDecomposition:
    # staged cost a + b against the flat a * b, with a = sqrt(2**g) and
    # b = sqrt(2**(m-g)): staging saves exactly when (a-1)(b-1) > 1
    def test_even_split_saves(self):
        assert _staged(6, 3) == pytest.approx(2 * math.sqrt(8))
        assert _staged(6, 3) < _flat(6)

    def test_tiny_registers_do_not_save(self):
        assert _staged(2, 1) > _flat(2)
        assert _staged(3, 1) > _flat(3)

    def test_boundary_case_is_not_a_save(self):
        # (2-1)*(2-1) = 1 exactly: staged cost equals the flat cost
        assert _staged(4, 2) == pytest.approx(_flat(4))

    def test_symmetry(self):
        for m in range(2, 16):
            for g in range(1, m):
                assert _staged(m, g) == pytest.approx(_staged(m, m - g))

    def test_integer_scan_certifies_the_midpoint(self):
        for m in range(2, 25):
            best = min(range(1, m), key=lambda g: _staged(m, g))
            assert best in (math.floor(m / 2), math.ceil(m / 2))

    def test_margin_is_the_saving_against_the_flat_search(self):
        for m in range(2, 21):
            for g in range(1, m):
                staged = cost("decomposition-ideal", m, g, 1)
                assert staged.margin == _flat(m) - staged.total


class TestIterative:
    def test_values(self):
        assert _total("iterative", 4, 1) == pytest.approx(5.0)
        assert _total("iterative", 8, 3) == pytest.approx(27.0)

    def test_linear_in_candidates(self):
        assert _total("iterative", 12, 6) == pytest.approx(2 * _total("iterative", 12, 3))

    def test_v_max(self):
        assert v_max(8) == pytest.approx(16 / 9)
        assert v_max(16) == pytest.approx(256 / 33)

    def test_budget_below_its_large_register_limit(self):
        for m in range(1, 41):
            assert v_max(m) < 2 ** (m / 4)

    def test_budget_keeps_iterative_below_baseline(self):
        for m in range(4, 21):
            budget = math.floor(v_max(m))
            if budget >= 1:
                assert _total("iterative", m, budget) < _flat(m)

    def test_margin_against_the_budget(self):
        assert cost("iterative", 8, 4, 1).margin == pytest.approx(16 / 9 - 1)
        assert cost("iterative", 8, 4, 4).margin < 0

    @pytest.mark.parametrize("strategy", BUDGETED)
    def test_every_budgeted_strategy_shares_the_margin(self, strategy):
        for m in range(1, 30):
            for v in (1, 2, 3, 5, 8):
                assert cost(strategy, m, m // 2, v).margin == v_max(m) - v


class TestDisentangled:
    def test_value(self):
        assert _total("disentangled", 8, 4) == pytest.approx(4 * (0.5 + 1 + 4))
        assert _total("disentangled", 8, 1) == pytest.approx(4 * 3)

    def test_ratio_descends_to_its_limit(self):
        assert times_ratio(16, 4) == pytest.approx(1.5)
        assert times_ratio(24, 4) == pytest.approx(516 / 352)
        limit = times_ratio_limit(4)
        assert limit == pytest.approx(8 / 5.5)
        prev = times_ratio(16, 4)
        for m in (24, 32, 48, 64, 128):
            cur = times_ratio(m, 4)
            assert limit < cur < prev
            prev = cur

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=16))
    def test_ratio_is_iterative_over_disentangled(self, m, v):
        ratio = _total("iterative", m, v) / _total("disentangled", m, v)
        assert times_ratio(m, v) == pytest.approx(ratio, rel=1e-12)

    @given(st.integers(min_value=8, max_value=64), st.integers(min_value=2, max_value=16))
    def test_beats_iterative_for_multiple_candidates(self, m, v):
        # 1/sqrt(v) + 1 < v for v >= 2, so the block pipeline wins
        assert _total("disentangled", m, v) < _total("iterative", m, v)


class TestPermutation:
    def test_pinned_small_case(self):
        assert _total("permutation-grover-prep", 8, 4) == pytest.approx(10.0)
        assert _total("permutation-basis-prep", 8, 4) == pytest.approx(12.0)

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=2, max_value=64))
    def test_prep_variants_differ_only_in_preparation(self, m, v):
        unit = 2 ** (m / 4)
        basis = cost("permutation-basis-prep", m, m // 2, v)
        grover = cost("permutation-grover-prep", m, m // 2, v)
        assert basis.terms["compacted_search"] == grover.terms["compacted_search"]
        assert basis.total - grover.total == pytest.approx(v - unit / math.sqrt(v), abs=1e-9)


class TestOrdering:
    def test_chain_at_candidate_counts_near_register_width(self):
        for m in (8, 12, 16, 20):
            v = m
            perm = _total("permutation-grover-prep", m, v)
            dis = _total("disentangled", m, v)
            it = _total("iterative", m, v)
            assert perm <= dis <= it
            # the last link to baseline requires the candidate budget
            if cost("iterative", m, m // 2, v).margin > 0:
                assert it < _flat(m)

    @given(st.integers(min_value=2, max_value=30))
    def test_costs_grow_with_register(self, m):
        assert _flat(m + 1) > _flat(m)
        assert _total("iterative", m + 1, 3) > _total("iterative", m, 3)
        assert _total("disentangled", m + 1, 3) > _total("disentangled", m, 3)


class TestCost:
    def test_totals_match_components(self):
        for strategy, expected in [
            ("baseline", 16.0),
            ("decomposition-ideal", 8.0),
            ("iterative", 4 * (2 * 4 + 1)),
            ("disentangled", 4 * (0.5 + 1 + 4)),
            ("permutation-basis-prep", 12.0),
            ("permutation-grover-prep", 10.0),
        ]:
            row = cost(strategy, 8, 4, 4)
            assert row.total == pytest.approx(expected)
            assert row.total == sum(row.terms.values())
            assert all(term >= 0 for term in row.terms.values())

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            cost("permutation-magic-prep", 8, 4, 4)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_empty_register_and_no_candidates(self, strategy):
        with pytest.raises(ConfigurationError, match="register width must be >= 1, got 0"):
            cost(strategy, 0, 0, 1)
        with pytest.raises(ConfigurationError, match="candidate count must be >= 1, got 0"):
            cost(strategy, 8, 4, 0)


class TestCostTable:
    def test_rows_read_the_cost_model(self):
        rows = cost_table([8, 16], [2, 4], STRATEGIES)
        assert len(rows) == 2 * 2 * len(STRATEGIES)
        for row in rows:
            total, _, margin = cost(row["strategy"], row["m"], row["m"] // 2, row["v"])
            assert (row["g"], row["total"], row["margin"]) == (row["m"] // 2, total, margin)
            assert row["valid"] == (margin is None or margin > 0)
            if row["strategy"] == "disentangled":
                assert row["times_ratio"] == times_ratio(row["m"], row["v"])
            else:
                assert row["times_ratio"] is None

    @pytest.mark.parametrize(
        "ms, vs, strategies, message",
        [
            ([], [1], ["baseline"], "^cost table needs a non-empty m list$"),
            ([8], [], ["baseline"], "^cost table needs a non-empty v list$"),
            ([8], [1], [], "^cost table needs a non-empty strategy list$"),
            ([8], [1], ["quantum-annealing"], "unknown strategies"),
            ([0], [1], ["baseline"], "register width"),
            ([8], [0], ["iterative"], "candidate count"),
        ],
    )
    def test_rejects_bad_input(self, ms, vs, strategies, message):
        with pytest.raises(ConfigurationError, match=message):
            cost_table(ms, vs, strategies)

    def test_overflow_names_m_v_and_strategy_but_no_flag(self):
        with pytest.raises(OverflowError) as caught:
            cost_table([8, 1024], [2], ["iterative", "baseline"])
        assert str(caught.value) == "m=1024 (with v=2) makes the baseline cost overflow a float"
