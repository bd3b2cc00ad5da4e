"""Closed-form query budgets for the search strategies; no simulation here.

Costs are oracle-call counts with the pi/4 prefactor dropped, so a flat
search over n states costs sqrt(n). The iterative, disentangled, and
permutation formulas assume the even split g = m/2, which makes 2**(m/4)
the cost of searching one half-register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigurationError

STRATEGIES = (
    "baseline",
    "decomposition-ideal",
    "iterative",
    "disentangled",
    "permutation-basis-prep",
    "permutation-grover-prep",
)


def _check_register(m: int) -> None:
    if m < 1:
        raise ConfigurationError(f"register width must be >= 1, got {m}")


def _check_candidates(v: int) -> None:
    if v < 1:
        raise ConfigurationError(f"candidate count must be >= 1, got {v}")


def baseline_cost(m: int, k: int = 1) -> float:
    """Flat search over the whole register: sqrt(2**m / k)."""
    _check_register(m)
    if k < 1:
        raise ConfigurationError(f"marked count must be >= 1, got {k}")
    return math.sqrt(2**m / k)


def iterative_cost(m: int, v: int) -> float:
    """Try candidates one by one: v trials of lower + upper + one check."""
    _check_register(m)
    _check_candidates(v)
    return v * (2 * 2 ** (m / 4) + 1)


class VMax(NamedTuple):
    exact: float
    approx: float


def v_max(m: int) -> VMax:
    """Candidate budget below which one-by-one trials beat the flat search."""
    _check_register(m)
    return VMax(
        exact=2 ** (m / 2) / (2 * 2 ** (m / 4) + 1),
        approx=2 ** (m / 4),
    )


def disentangled_cost(m: int, v: int) -> float:
    """Superpose v candidates, score each block once, recover the winner.

    Three phases in 2**(m/4) units: preparing the v-candidate lower
    superposition (1/sqrt(v)), one bound upper search per block (v), and a
    fresh lower search for the winning candidate (1).
    """
    _check_register(m)
    _check_candidates(v)
    return 2 ** (m / 4) * (1 / math.sqrt(v) + 1 + v)


def times_ratio(m: int, v: int = 4) -> float:
    """iterative_cost over disentangled_cost at the same v.

    Decreases toward 2*v / (1/sqrt(v) + 1 + v) as the register grows; the
    verification "+1" per trial keeps small registers above that limit.
    """
    return iterative_cost(m, v) / disentangled_cost(m, v)


def times_ratio_limit(v: int = 4) -> float:
    _check_candidates(v)
    return 2 * v / (1 / math.sqrt(v) + 1 + v)


@dataclass(frozen=True)
class CostBreakdown:
    """One strategy's total with its labeled addends."""

    strategy: str
    m: int
    g: int | None
    v: int | None
    total: float
    terms: dict[str, float]

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if any(t < 0 for t in self.terms.values()):
            raise ConfigurationError("cost terms must be nonnegative")
        if abs(self.total - sum(self.terms.values())) > 1e-9:
            raise ConfigurationError("total does not match the sum of terms")


def cost_breakdown(
    strategy: str, m: int, g: int | None = None, v: int | None = None, k: int = 1
) -> CostBreakdown:
    """Assemble the labeled addends behind each strategy's total."""
    _check_register(m)
    unit = 2 ** (m / 4)
    if strategy == "baseline":
        terms = {"search": baseline_cost(m, k)}
    elif strategy == "decomposition-ideal":
        if g is None:
            raise ConfigurationError("decomposition needs a split g")
        terms = {
            "lower_search": math.sqrt(2**g),
            "upper_search": math.sqrt(2 ** (m - g)),
        }
    elif strategy == "iterative":
        if v is None:
            raise ConfigurationError("iterative needs a candidate count v")
        _check_candidates(v)
        terms = {
            "lower_trials": v * unit,
            "upper_trials": v * unit,
            "verifications": float(v),
        }
    elif strategy == "disentangled":
        if v is None:
            raise ConfigurationError("disentangled needs a candidate count v")
        _check_candidates(v)
        terms = {
            "candidate_prep": unit / math.sqrt(v),
            "block_searches": v * unit,
            "candidate_recovery": unit,
        }
    elif strategy == "permutation-basis-prep":
        if v is None:
            raise ConfigurationError("permutation needs a candidate count v")
        _check_candidates(v)
        terms = {"preparation": float(v), "compacted_search": unit * math.sqrt(v)}
    elif strategy == "permutation-grover-prep":
        if v is None:
            raise ConfigurationError("permutation needs a candidate count v")
        _check_candidates(v)
        terms = {
            "preparation": unit / math.sqrt(v),
            "compacted_search": unit * math.sqrt(v),
        }
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    return CostBreakdown(
        strategy=strategy, m=m, g=g, v=v, total=sum(terms.values()), terms=terms
    )


@dataclass(frozen=True)
class ValidityReport:
    """A named constraint with its boolean outcome and signed margin."""

    constraint: str
    holds: bool
    margin: float

    def __post_init__(self) -> None:
        if self.holds != (self.margin > 0):
            raise ConfigurationError("holds must equal margin > 0")


def candidate_budget_validity(m: int, v: int) -> ValidityReport:
    """Whether v stays under the break-even budget for iterative search."""
    _check_candidates(v)
    margin = v_max(m).exact - v
    return ValidityReport(
        constraint="v < v_max", holds=margin > 0, margin=margin
    )
