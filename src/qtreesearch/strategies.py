"""Search strategies over a register split into lower and upper halves.

A problem is a global conjunction oracle factored as upper(z) and lower(y)
plus an ordered set of lower-half candidate strings. Four pipelines share
that problem description:

- product_subspace_search amplifies the halves independently (no nesting);
- entangled_nested amplifies the candidates, then amplifies the upper half
  against the global oracle, entangling the halves;
- iterative_search tries candidates one at a time with a measured trial
  per candidate and classical verification;
- disentangled_search gives every candidate its own upper block bound to
  that candidate, keeping the blocks and the candidate register product.

All pipelines count oracle and diffusion applications through QueryCounter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PreconditionError, ValidationError
from .grover import QueryCounter, iteration_count, run_grover
from .oracles import (
    ConcatenatedOracle,
    PartialCandidateSet,
    candidate_oracle,
    concat,
    eval_oracle,
    int_to_bits,
)
from .statevector import (
    MAX_QUBITS,
    QubitSet,
    Statevector,
    apply_conditional_bit_flip,
    apply_diffusion,
    apply_phase_flip,
    init_uniform,
    marginal_probability,
    qubit_range,
    qubits,
    sample,
    top_outcome,
)

DECISION_THRESHOLD = 0.8


@dataclass(frozen=True)
class SearchProblem:
    """A factored search instance: global oracle plus candidate strings."""

    global_oracle: ConcatenatedOracle
    candidates: PartialCandidateSet

    def __post_init__(self) -> None:
        if self.candidates.width != self.global_oracle.split:
            raise ConfigurationError(
                f"candidate width {self.candidates.width} does not match the "
                f"oracle's lower width {self.global_oracle.split}"
            )

    @property
    def m(self) -> int:
        return self.global_oracle.width

    @property
    def g(self) -> int:
        return self.global_oracle.split

    @property
    def v(self) -> int:
        return self.candidates.size

    @property
    def lower_qubits(self) -> QubitSet:
        return qubit_range(0, self.g)

    @property
    def upper_qubits(self) -> QubitSet:
        return qubit_range(self.g, self.m)

    @property
    def all_qubits(self) -> QubitSet:
        return qubit_range(0, self.m)

    @property
    def solution(self) -> int:
        return self.global_oracle.solution

    @property
    def solution_bits(self) -> str:
        return self.global_oracle.solution_bits

    @property
    def upper_target(self) -> int:
        return self.global_oracle.upper.marked_state

    @property
    def upper_target_bits(self) -> str:
        return int_to_bits(self.upper_target, self.m - self.g)

    @property
    def lower_solution(self) -> int:
        return self.global_oracle.lower.marked_state

    @property
    def lower_solution_bits(self) -> str:
        return int_to_bits(self.lower_solution, self.g)

    def matching_candidate_index(self) -> int | None:
        """1-based index of the candidate equal to the oracle's lower string."""
        return self.candidates.index_of(self.lower_solution)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a measured strategy run."""

    found: str | None
    candidate_index: int | None
    verified: bool
    queries: QueryCounter
    trials: int

    def __post_init__(self) -> None:
        if self.verified and self.found is None:
            raise ValidationError("a verified result must carry the found string")


class Measurement(NamedTuple):
    """One measured state: its sampled counts, the checked string, the verdict."""

    state: Statevector
    counts: dict[str, int]
    top: str
    result: SearchResult


def measure_and_verify(
    problem: SearchProblem,
    sv: Statevector,
    shots: int,
    seed,
    counter: QueryCounter,
    candidate_index: int | None,
    trials: int = 1,
    upper_bits: str = "",
) -> Measurement:
    """Sample the state and classically check its top outcome.

    The checked string is ``upper_bits`` followed by the top outcome, so a
    lower-half-only state is completed by the known upper target. The check
    spends one oracle query; the result reports ``candidate_index`` only
    when the string verifies.
    """
    counts = sample(sv, shots, seed=seed)
    top = concat(upper_bits, top_outcome(counts))
    counter.count_oracle()
    verified = bool(eval_oracle(problem.global_oracle, top))
    result = SearchResult(
        found=top if verified else None,
        candidate_index=candidate_index if verified else None,
        verified=verified,
        queries=counter,
        trials=trials,
    )
    return Measurement(state=sv, counts=counts, top=top, result=result)


def prepare_candidates(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> Statevector:
    """Uniform register with the candidate set amplified on the lower half."""
    rounds = iteration_count(2**problem.g, problem.v)
    sv = init_uniform(problem.m)
    return run_grover(sv, problem.candidates, problem.lower_qubits, rounds, counter)


def _amplify_upper_globally(
    problem: SearchProblem,
    sv: Statevector,
    counter: QueryCounter | None,
) -> Statevector:
    """Repeat [global phase flip; upper diffusion] the standard round count.

    The oracle reads all m qubits while the diffusion reflects only the
    upper half, so lower-half amplitudes steer which upper block grows.
    The lower register is deliberately non-uniform here; no uniformity
    assertion applies.
    """
    rounds = iteration_count(2 ** (problem.m - problem.g), 1)
    for _ in range(rounds):
        sv = apply_phase_flip(sv, problem.global_oracle, problem.all_qubits)
        sv = apply_diffusion(sv, problem.upper_qubits)
        if counter is not None:
            counter.count_oracle()
            counter.count_diffusion()
    return sv


def entangled_nested(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> Statevector:
    """Candidate amplification followed by global-oracle upper amplification.

    The upper rounds mark the full solution, so only the upper block paired
    with the matching candidate grows; the halves end entangled and the
    solution carries roughly 1/v of the mass.
    """
    if problem.matching_candidate_index() is None:
        raise PreconditionError(
            "the oracle's lower string is not among the candidates"
        )
    sv = prepare_candidates(problem, counter)
    return _amplify_upper_globally(problem, sv, counter)


def product_subspace_search(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> Statevector:
    """Amplify candidates and the upper target independently.

    Uses the factored upper oracle directly, so the halves never interact:
    the result is a product state pairing the upper target with every
    candidate, matching or not.
    """
    sv = prepare_candidates(problem, counter)
    upper_rounds = iteration_count(2 ** (problem.m - problem.g), 1)
    return run_grover(
        sv, problem.global_oracle.upper, problem.upper_qubits, upper_rounds, counter
    )


def iterative_trial_state(
    problem: SearchProblem, k: int, counter: QueryCounter | None = None
) -> Statevector:
    """Pre-measurement state of the k-th trial (1-based candidate order).

    One trial amplifies candidate k alone on the lower half, then runs the
    global-oracle upper rounds. When candidate k completes the solution the
    solution state carries nearly all the mass; otherwise the upper half
    stays near-uniform against candidate k.
    """
    oracle_k = candidate_oracle(problem.candidates, k)
    lower_rounds = iteration_count(2**problem.g, 1)
    sv = init_uniform(problem.m)
    sv = run_grover(sv, oracle_k, problem.lower_qubits, lower_rounds, counter)
    return _amplify_upper_globally(problem, sv, counter)


class IterativeOutcome(NamedTuple):
    trials: tuple[Measurement, ...]

    @property
    def result(self) -> SearchResult:
        """The last trial's result: verified, or the exhausted search."""
        return self.trials[-1].result


def iterative_search(
    problem: SearchProblem,
    shots_per_trial: int = 256,
    seed: int = 0,
    counter: QueryCounter | None = None,
) -> IterativeOutcome:
    """Try candidates in order; measure each trial and verify classically.

    Each trial costs r_lower + r_upper quantum queries plus one classical
    evaluation of the top outcome. The loop stops at the first verified
    trial; exhausting the candidates returns an unverified result rather
    than raising. Every trial's measurement is returned in order.
    """
    if counter is None:
        counter = QueryCounter()
    trials = []
    for k in range(1, problem.v + 1):
        sv = iterative_trial_state(problem, k, counter)
        trials.append(
            measure_and_verify(problem, sv, shots_per_trial, (seed, k), counter, k, trials=k)
        )
        if trials[-1].result.verified:
            break
    return IterativeOutcome(trials=tuple(trials))


# ---------------------------------------------------------------------------
# disentangled pipeline: one shared candidate register, one upper block per
# candidate, each block bound to its candidate through a flag ancilla.

@dataclass(frozen=True)
class CompositeLayout:
    """Qubit positions in the candidate-register-plus-blocks register."""

    g: int
    block_width: int
    v: int

    @property
    def total_qubits(self) -> int:
        return self.g + self.v * (self.block_width + 1)

    @property
    def lower(self) -> QubitSet:
        return qubit_range(0, self.g)

    def flag(self, k: int) -> int:
        self._check(k)
        return self.g + (k - 1) * (self.block_width + 1)

    def block(self, k: int) -> QubitSet:
        self._check(k)
        start = self.flag(k) + 1
        return qubit_range(start, start + self.block_width)

    def _check(self, k: int) -> None:
        if not 1 <= k <= self.v:
            raise ConfigurationError(f"block index {k} outside 1..{self.v}")


class DisentangledOutcome(NamedTuple):
    winning_index: int | None
    state: Statevector


def disentangled_layout(problem: SearchProblem) -> CompositeLayout:
    layout = CompositeLayout(
        g=problem.g, block_width=problem.m - problem.g, v=problem.v
    )
    if layout.total_qubits > MAX_QUBITS:
        raise ConfigurationError(
            f"composite register of {layout.total_qubits} qubits exceeds the "
            f"{MAX_QUBITS}-qubit cap"
        )
    return layout


def _flags_cleared_uniform(layout: CompositeLayout) -> Statevector:
    """Uniform over candidate register and blocks, flags pinned to 0."""
    total = layout.total_qubits
    flag_mask = 0
    for k in range(1, layout.v + 1):
        flag_mask |= 1 << layout.flag(k)
    idx = np.arange(2**total)
    live = (idx & flag_mask) == 0
    amps = np.where(live, 1.0 / math.sqrt(int(live.sum())), 0.0).astype(np.complex128)
    return Statevector(total, amps)


def _bound_upper_oracle(problem: SearchProblem, k: int):
    """The global oracle with its lower input fixed to candidate k."""
    h_k = problem.candidates.candidate(k)
    g = problem.g

    def predicate(z: int) -> bool:
        return problem.global_oracle((z << g) | h_k)

    return predicate


def block_distribution(
    problem: SearchProblem, state: Statevector, k: int
) -> dict[str, float]:
    """Exact marginal distribution of block k's qubits."""
    layout = disentangled_layout(problem)
    width = layout.block_width
    return {
        int_to_bits(z, width): marginal_probability(state, layout.block(k), z)
        for z in range(2**width)
    }


def flag_excitation(problem: SearchProblem, state: Statevector, k: int) -> float:
    """Probability that flag k failed to uncompute back to 0."""
    layout = disentangled_layout(problem)
    return marginal_probability(state, qubits(layout.flag(k)), 1)


def disentangled_search(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> DisentangledOutcome:
    """Score every candidate at once in its own upper block.

    The candidate register is amplified over the candidate set; each block k
    then runs upper amplification against the global oracle with its lower
    input bound to candidate k, phase-kicked through a flag ancilla that is
    computed, sign-flipped, and uncomputed every round. Nothing couples the
    blocks to the candidate register, so the state stays product across
    every block boundary and the flags return to 0 exactly.

    The winner is the unique block whose exact marginal puts more than
    DECISION_THRESHOLD on the upper target; None when no such block exists
    (the upper target is absent or ambiguous).
    """
    if problem.v < 2:
        raise PreconditionError("block scoring needs at least two candidates")
    layout = disentangled_layout(problem)
    sv = _flags_cleared_uniform(layout)
    prep_rounds = iteration_count(2**problem.g, problem.v)
    sv = run_grover(sv, problem.candidates, layout.lower, prep_rounds, counter)

    upper_rounds = iteration_count(2**layout.block_width, 1)
    for k in range(1, problem.v + 1):
        bound = _bound_upper_oracle(problem, k)
        flag = layout.flag(k)
        block = layout.block(k)
        for _ in range(upper_rounds):
            sv = apply_conditional_bit_flip(sv, flag, bound, block)
            sv = apply_phase_flip(sv, lambda b: b == 1, qubits(flag))
            sv = apply_conditional_bit_flip(sv, flag, bound, block)
            sv = apply_diffusion(sv, block)
            if counter is not None:
                counter.count_oracle()
                counter.count_diffusion()

    for k in range(1, problem.v + 1):
        leak = flag_excitation(problem, sv, k)
        if leak > 1e-9:
            raise ValidationError(f"flag {k} retains probability {leak} after uncompute")

    target = problem.upper_target
    above = [
        k
        for k in range(1, problem.v + 1)
        if marginal_probability(sv, layout.block(k), target) > DECISION_THRESHOLD
    ]
    winning = above[0] if len(above) == 1 else None
    return DisentangledOutcome(winning_index=winning, state=sv)


def recover_candidate(
    problem: SearchProblem,
    k: int,
    shots: int = 256,
    seed: int = 0,
    counter: QueryCounter | None = None,
) -> SearchResult:
    """Fresh lower-half search for candidate k, completing the solution.

    The block scoring identifies which candidate wins; this final search
    spends the standard lower budget to read the candidate string back out
    and verifies the assembled string classically.
    """
    if counter is None:
        counter = QueryCounter()
    oracle_k = candidate_oracle(problem.candidates, k)
    rounds = iteration_count(2**problem.g, 1)
    sv = run_grover(init_uniform(problem.g), oracle_k, qubit_range(0, problem.g), rounds, counter)
    return measure_and_verify(
        problem, sv, shots, (seed, k), counter, k, upper_bits=problem.upper_target_bits
    ).result
