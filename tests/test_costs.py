"""Query-budget formulas, pinned values first, then shape properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtreesearch.costs import (
    CostBreakdown,
    baseline_cost,
    candidate_budget_validity,
    cost_breakdown,
    disentangled_cost,
    iterative_cost,
    times_ratio,
    times_ratio_limit,
    v_max,
)
from qtreesearch.errors import ConfigurationError


class TestBaseline:
    def test_values(self):
        assert baseline_cost(4) == pytest.approx(4.0)
        assert baseline_cost(10) == pytest.approx(32.0)
        assert baseline_cost(10, k=4) == pytest.approx(16.0)

    def test_rejects_zero_marked(self):
        with pytest.raises(ConfigurationError):
            baseline_cost(4, k=0)


def _staged(m, g):
    return cost_breakdown("decomposition-ideal", m, g=g).total


class TestDecomposition:
    # staged cost a + b against the flat a * b, with a = sqrt(2**g) and
    # b = sqrt(2**(m-g)): staging saves exactly when (a-1)(b-1) > 1
    def test_even_split_saves(self):
        assert _staged(6, 3) == pytest.approx(2 * math.sqrt(8))
        assert _staged(6, 3) < baseline_cost(6)

    def test_tiny_registers_do_not_save(self):
        assert _staged(2, 1) > baseline_cost(2)
        assert _staged(3, 1) > baseline_cost(3)

    def test_boundary_case_is_not_a_save(self):
        # (2-1)*(2-1) = 1 exactly: staged cost equals the flat cost
        assert _staged(4, 2) == pytest.approx(baseline_cost(4))

    def test_symmetry(self):
        for m in range(2, 16):
            for g in range(1, m):
                assert _staged(m, g) == pytest.approx(_staged(m, m - g))

    def test_integer_scan_certifies_the_midpoint(self):
        for m in range(2, 25):
            best = min(range(1, m), key=lambda g: _staged(m, g))
            assert best in (math.floor(m / 2), math.ceil(m / 2))


class TestIterative:
    def test_values(self):
        assert iterative_cost(4, 1) == pytest.approx(5.0)
        assert iterative_cost(8, 3) == pytest.approx(27.0)

    def test_linear_in_candidates(self):
        assert iterative_cost(12, 6) == pytest.approx(2 * iterative_cost(12, 3))

    def test_v_max(self):
        exact, approx = v_max(8)
        assert exact == pytest.approx(16 / 9)
        assert approx == pytest.approx(4.0)
        exact16, approx16 = v_max(16)
        assert exact16 == pytest.approx(256 / 33)
        assert approx16 == pytest.approx(16.0)

    def test_exact_budget_below_approx(self):
        for m in range(1, 41):
            assert v_max(m).exact < v_max(m).approx

    def test_budget_keeps_iterative_below_baseline(self):
        for m in range(4, 21):
            budget = math.floor(v_max(m).exact)
            if budget >= 1:
                assert iterative_cost(m, budget) < baseline_cost(m)

    def test_validity_report(self):
        report = candidate_budget_validity(8, 1)
        assert report.holds and report.margin == pytest.approx(16 / 9 - 1)
        bad = candidate_budget_validity(8, 4)
        assert not bad.holds and bad.margin < 0


class TestDisentangled:
    def test_value(self):
        assert disentangled_cost(8, 4) == pytest.approx(4 * (0.5 + 1 + 4))
        assert disentangled_cost(8, 1) == pytest.approx(4 * 3)

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

    @given(st.integers(min_value=8, max_value=64), st.integers(min_value=2, max_value=16))
    def test_beats_iterative_for_multiple_candidates(self, m, v):
        # 1/sqrt(v) + 1 < v for v >= 2, so the block pipeline wins
        assert disentangled_cost(m, v) < iterative_cost(m, v)


class TestPermutation:
    def test_pinned_small_case(self):
        assert cost_breakdown("permutation-grover-prep", 8, v=4).total == pytest.approx(10.0)
        assert cost_breakdown("permutation-basis-prep", 8, v=4).total == pytest.approx(12.0)

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=2, max_value=64))
    def test_prep_variants_differ_only_in_preparation(self, m, v):
        unit = 2 ** (m / 4)
        basis = cost_breakdown("permutation-basis-prep", m, v=v)
        grover = cost_breakdown("permutation-grover-prep", m, v=v)
        assert basis.terms["compacted_search"] == grover.terms["compacted_search"]
        assert basis.total - grover.total == pytest.approx(v - unit / math.sqrt(v), abs=1e-9)


class TestOrdering:
    def test_chain_at_candidate_counts_near_register_width(self):
        for m in (8, 12, 16, 20):
            v = m
            perm = cost_breakdown("permutation-grover-prep", m, v=v).total
            dis = disentangled_cost(m, v)
            it = iterative_cost(m, v)
            assert perm <= dis <= it
            # the last link to baseline requires the candidate budget
            report = candidate_budget_validity(m, v)
            if report.holds:
                assert it < baseline_cost(m)

    @given(st.integers(min_value=2, max_value=30))
    def test_costs_grow_with_register(self, m):
        assert baseline_cost(m + 1) > baseline_cost(m)
        assert iterative_cost(m + 1, 3) > iterative_cost(m, 3)
        assert disentangled_cost(m + 1, 3) > disentangled_cost(m, 3)


class TestBreakdown:
    def test_totals_match_components(self):
        for strategy, kwargs, expected in [
            ("baseline", {}, baseline_cost(8)),
            ("decomposition-ideal", {"g": 4}, 8.0),
            ("iterative", {"v": 4}, iterative_cost(8, 4)),
            ("disentangled", {"v": 4}, disentangled_cost(8, 4)),
            ("permutation-basis-prep", {"v": 4}, 12.0),
            ("permutation-grover-prep", {"v": 4}, 10.0),
        ]:
            row = cost_breakdown(strategy, 8, **kwargs)
            assert row.total == pytest.approx(expected)
            assert row.total == pytest.approx(sum(row.terms.values()))

    def test_rejects_inconsistent_total(self):
        with pytest.raises(ConfigurationError):
            CostBreakdown(
                strategy="baseline", m=4, g=None, v=None, total=5.0, terms={"search": 4.0}
            )

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            cost_breakdown("permutation-magic-prep", 8, v=4)

    def test_rejects_missing_v(self):
        with pytest.raises(ConfigurationError):
            cost_breakdown("iterative", 8)
