"""Properties that tie the strategies to each other and to the round rules.

The strategies solve one problem in different ways, so on a random problem
(m <= 8, any split, targets, candidate count and order) their states must
agree where the paper says they do: product and entangled put the same
mass on the solution and leave the same lower marginal, the disentangled
candidate register carries that marginal too, only the entangled run ties
the halves together, and its upper half stays uniform beside every
candidate that does not complete the solution. The strategies that
measure and check report the same answer. None of these relations reads a
strategy's own qubit sets or masks.

The query counts are checked against the floor(pi/4 * sqrt(N/k)) rules,
spelled out here rather than read from the package.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreesearch.config import config_from_mapping
from qtreesearch.grover import QueryCounter
from qtreesearch.oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from qtreesearch.runner import STRATEGY_RUNS
from qtreesearch.statevector import (
    MAX_QUBITS,
    marginal_distribution,
    partition_purity,
)
from qtreesearch.strategies import (
    DECISION_THRESHOLD,
    SearchProblem,
    disentangled_search,
    entangled_nested,
    product_subspace_search,
)


@st.composite
def problems(draw, composite=False):
    """A problem whose lower solution is one of at least two candidates.

    With ``composite``, the disentangled register of g + v(m - g + 1)
    qubits fits the simulator's cap.
    """
    m = draw(st.integers(min_value=2, max_value=8))
    g = draw(st.integers(min_value=1, max_value=m - 1))
    v_max = (MAX_QUBITS - g) // (m - g + 1) if composite else 6
    upper = draw(st.integers(min_value=0, max_value=2 ** (m - g) - 1))
    lower = draw(st.integers(min_value=0, max_value=2**g - 1))
    others = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**g - 1).filter(lambda y: y != lower),
            min_size=1,
            max_size=min(2**g, v_max) - 1,
            unique=True,
        )
    )
    at = draw(st.integers(min_value=0, max_value=len(others)))
    return SearchProblem(
        global_oracle=ConcatenatedOracle(
            ConjunctionOracle.marking(upper, m - g), ConjunctionOracle.marking(lower, g)
        ),
        candidates=PartialCandidateSet(g, tuple(others[:at] + [lower] + others[at:])),
    )


def _solution(problem):
    return (problem.upper_target << problem.g) | problem.lower_solution


class TestStrategiesAgree:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_product_and_entangled_differ_only_in_entanglement(self, problem):
        product = product_subspace_search(problem, QueryCounter())
        entangled = entangled_nested(problem, QueryCounter())
        solution = _solution(problem)
        # the upper rounds act inside each lower fiber, and on the solution
        # fiber both oracles mark the same upper pattern
        assert product.probabilities[solution] == entangled.probabilities[solution]
        lower = problem.lower_qubits
        assert np.allclose(
            marginal_distribution(product, lower),
            marginal_distribution(entangled, lower),
            rtol=0,
            atol=1e-12,
        )
        assert math.isclose(partition_purity(product, lower), 1.0, abs_tol=1e-12)
        # only the solution fiber turns, so with a second candidate the
        # halves end entangled
        assert partition_purity(entangled, lower) < 1 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(problems(composite=True))
    def test_disentangled_candidates_and_winner(self, problem):
        outcome = disentangled_search(problem, QueryCounter())
        lower = problem.lower_qubits
        assert np.allclose(
            marginal_distribution(outcome.state, lower),
            marginal_distribution(product_subspace_search(problem, QueryCounter()), lower),
            rtol=0,
            atol=1e-12,
        )
        # the matching block wins exactly when its target clears the threshold
        matching = problem.matching_candidate_index()
        target = outcome.distributions[matching - 1][problem.upper_target]
        assert (outcome.winning_index == matching) == (target > DECISION_THRESHOLD)
        assert outcome.winning_index in (matching, None)

    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_entangled_upper_half_stays_uniform_beside_other_candidates(self, problem):
        # row z, column y: the probability of (z << g) | y. The upper rounds
        # mark nothing in a fiber whose lower string is not the solution,
        # and a diffusion leaves a uniform fiber as it is
        p = entangled_nested(problem, QueryCounter()).probabilities
        by_lower = p.reshape(2 ** (problem.m - problem.g), 2**problem.g)
        for y in problem.candidates.candidates:
            if y != problem.lower_solution:
                conditioned = by_lower[:, y] / by_lower[:, y].sum()
                assert np.allclose(conditioned, conditioned.mean(), rtol=0, atol=1e-12)


def _both_halves_searched(problem):
    return problem.g >= 2 and problem.m - problem.g >= 2


def _rounds(n, k=1):
    return math.floor(math.pi / 4 * math.sqrt(n / k))


def _config(problem, strategy, prep="grover"):
    return config_from_mapping(
        {
            "strategy": strategy,
            "m": problem.m,
            "g": problem.g,
            "upper_oracle": problem.global_oracle.upper.signed_literals(),
            "lower_oracle": problem.global_oracle.lower.signed_literals(),
            "candidates": list(problem.candidates.strings()),
            "prep": prep,
            "shots": 64,
            "shots_per_trial": 64,
        }
    )


def _counted(config):
    counter = QueryCounter()
    run = STRATEGY_RUNS[config.strategy](config, config.problem(), counter)
    return run, (counter.oracle_calls, counter.diffusion_calls)


class TestQueryCounts:
    """(oracle calls, diffusion calls) of every strategy, from the rules."""

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_product_entangled_and_iterative(self, problem):
        m, g, v = problem.m, problem.g, problem.v
        r_prep, r_lower, r_upper = _rounds(2**g, v), _rounds(2**g), _rounds(2 ** (m - g))
        for strategy in ("product", "entangled"):
            _, counts = _counted(_config(problem, strategy))
            assert counts == (r_prep + r_upper, r_prep + r_upper), strategy
        run, counts = _counted(_config(problem, "iterative"))
        trials = run.result.trials
        assert counts == (trials * (r_lower + r_upper) + trials, trials * (r_lower + r_upper))

    @settings(max_examples=30, deadline=None)
    @given(problems(composite=True))
    def test_disentangled(self, problem):
        m, g, v = problem.m, problem.g, problem.v
        quantum = _rounds(2**g, v) + v * _rounds(2 ** (m - g))
        run, counts = _counted(_config(problem, "disentangled"))
        if run.result is not None:
            # the winner's lower half is read back out and checked once
            assert counts == (quantum + _rounds(2**g) + 1, quantum + _rounds(2**g))
        else:
            assert counts == (quantum, quantum)

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.sampled_from(["grover", "basis"]))
    def test_permutation(self, problem, prep):
        m, g, v = problem.m, problem.g, problem.v
        code_width = (v - 1).bit_length()
        quantum = (_rounds(2**g, v) if prep == "grover" else 0) + _rounds(
            2 ** (code_width + m - g)
        )
        _, counts = _counted(_config(problem, "permutation", prep))
        assert counts == (quantum + 1, quantum)


class TestSameAnswer:
    @settings(max_examples=30, deadline=None)
    @given(problems(composite=True).filter(_both_halves_searched))
    def test_every_measuring_strategy_finds_the_solution(self, problem):
        # with two or more qubits in each half, the matching block clears
        # the decision threshold and every measured search peaks on the
        # solution. Grover preparation leaves the compacted search uniform
        # only when v fills its code block, so other v prepare by basis
        prep = "grover" if problem.v & (problem.v - 1) == 0 else "basis"
        solution = format(_solution(problem), f"0{problem.m}b")
        found = {
            strategy: _counted(_config(problem, strategy, prep))[0].result.found
            for strategy in ("iterative", "permutation", "disentangled")
        }
        assert found == dict.fromkeys(found, solution)
