"""Closed-form query budgets for the search strategies; no simulation here.

Costs are oracle-call counts with the pi/4 prefactor dropped, so a flat
search over n states costs sqrt(n). The iterative, disentangled, and
permutation formulas assume the even split g = m/2, which makes 2**(m/4)
the cost of searching one half-register.

``cost`` is the one statement of each strategy's addends and of the rule
its budget is judged by; the run artifact and ``cost_table`` both read it.
"""

from __future__ import annotations

import math
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

# strategies that beat the flat search only while v stays under v_max(m)
BUDGETED = ("iterative", "disentangled", "permutation-basis-prep", "permutation-grover-prep")


def _check_register(m: int) -> None:
    if m < 1:
        raise ConfigurationError(f"register width must be >= 1, got {m}")


def _check_candidates(v: int) -> None:
    if v < 1:
        raise ConfigurationError(f"candidate count must be >= 1, got {v}")


def v_max(m: int) -> float:
    """Candidate budget below which one-by-one trials beat the flat search.

    The iterative total v * (2 * 2**(m/4) + 1) equals the flat sqrt(2**m)
    at this v; for large m it approaches 2**(m/4).
    """
    _check_register(m)
    return 2 ** (m / 2) / (2 * 2 ** (m / 4) + 1)


class Cost(NamedTuple):
    """One strategy's total, its labeled addends and its budget margin.

    ``margin`` is positive when the strategy's budget rule holds: v_max - v
    for the ``BUDGETED`` strategies, the flat search minus the total for
    decomposition-ideal, and None for the flat search itself.
    """

    total: float
    terms: dict[str, float]
    margin: float | None


def cost(strategy: str, m: int, g: int, v: int) -> Cost:
    """Labeled addends, total and budget margin of a strategy at (m, g, v).

    Only decomposition-ideal reads the split g; the other strategies
    assume g = m/2.
    """
    _check_register(m)
    _check_candidates(v)
    unit = 2 ** (m / 4)
    if strategy == "baseline":
        terms = {"search": math.sqrt(2**m)}
    elif strategy == "decomposition-ideal":
        terms = {"lower_search": math.sqrt(2**g), "upper_search": math.sqrt(2 ** (m - g))}
    elif strategy == "iterative":
        # v trials of lower + upper search, each closed by one classical check
        terms = {"lower_trials": v * unit, "upper_trials": v * unit, "verifications": float(v)}
    elif strategy == "disentangled":
        # prepare the v-candidate superposition, search every block once,
        # then search the winning candidate afresh
        terms = {
            "candidate_prep": unit / math.sqrt(v),
            "block_searches": v * unit,
            "candidate_recovery": unit,
        }
    elif strategy == "permutation-basis-prep":
        terms = {"preparation": float(v), "compacted_search": unit * math.sqrt(v)}
    elif strategy == "permutation-grover-prep":
        terms = {"preparation": unit / math.sqrt(v), "compacted_search": unit * math.sqrt(v)}
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    total = sum(terms.values())
    if strategy in BUDGETED:
        margin = v_max(m) - v
    elif strategy == "decomposition-ideal":
        margin = math.sqrt(2**m) - total
    else:
        margin = None
    return Cost(total, terms, margin)


def times_ratio(m: int, v: int = 4) -> float:
    """Iterative over disentangled cost at the same v.

    Decreases toward 2*v / (1/sqrt(v) + 1 + v) as the register grows; the
    verification "+1" per trial keeps small registers above that limit.
    """
    _check_register(m)
    _check_candidates(v)
    unit = 2 ** (m / 4)
    return v * (2 * unit + 1) / (unit * (1 / math.sqrt(v) + 1 + v))


def times_ratio_limit(v: int = 4) -> float:
    _check_candidates(v)
    return 2 * v / (1 / math.sqrt(v) + 1 + v)


def cost_table(ms, vs, strategies) -> list[dict]:
    """One row per (m, v, strategy), with g = m // 2.

    A row is valid when its margin is positive or it has none. An (m, v)
    at which a total, margin or ratio overflows a float raises
    OverflowError naming that m, v and strategy; the caller knows which of
    its inputs gave them.
    """
    ms, vs, strategies = list(ms), list(vs), list(strategies)
    for what, values in (("m", ms), ("v", vs), ("strategy", strategies)):
        if not values:
            raise ConfigurationError(f"cost table needs a non-empty {what} list")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigurationError(f"unknown strategies {unknown}, pick from {STRATEGIES}")
    rows = []
    for m in ms:
        for v in vs:
            for strategy in strategies:
                try:
                    total, _, margin = cost(strategy, m, m // 2, v)
                    ratio = times_ratio(m, v) if strategy == "disentangled" else None
                    finite = all(
                        math.isfinite(x) for x in (total, margin, ratio) if x is not None
                    )
                except OverflowError:
                    finite = False
                if not finite:
                    raise OverflowError(
                        f"m={m} (with v={v}) makes the {strategy} cost overflow a float"
                    )
                rows.append(
                    {
                        "strategy": strategy,
                        "m": m,
                        "g": m // 2,
                        "v": v,
                        "total": total,
                        "valid": margin is None or margin > 0,
                        "margin": margin,
                        "times_ratio": ratio,
                    }
                )
    return rows
