"""Search strategies over a register split into lower and upper halves.

A problem is a global conjunction oracle factored as upper(z) and lower(y)
plus an ordered set of lower-half candidate patterns. Four pipelines share
that problem description:

- product_subspace_search amplifies the halves independently (no nesting);
- entangled_nested amplifies the candidates, then amplifies the upper half
  against the global oracle, entangling the halves;
- iterative_search tries candidates one at a time with a measured trial
  per candidate and classical verification;
- disentangled_search gives every candidate its own upper block bound to
  that candidate, keeping the blocks and the candidate register product.

All pipelines count oracle and diffusion applications through QueryCounter.
Each amplification builds its oracle mask once and reuses it every round.
Each simulated state is one Register: the pipeline opens it, runs every
stage on it in place, and freezes it once into the Statevector it returns.
Patterns stay ints: a measured state's top outcome is a basis index, which
one oracle query checks, and the one ``Measurement`` record holds the
state, its counts, the checked label and the verdict. Block read-outs are
arrays indexed by pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PreconditionError, ValidationError
from .grover import QueryCounter, amplify, iteration_count, run_grover
from .oracles import ConcatenatedOracle, PartialCandidateSet, candidate_oracle, int_to_bits
from .statevector import (
    MAX_QUBITS,
    QubitSet,
    Register,
    Statevector,
    apply_conditional_bit_flip,
    apply_diffusion,
    apply_phase_flip,
    init_uniform,
    marginal_distribution,
    marginal_probability,
    qubit_range,
    qubits,
    sample,
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
    def upper_target(self) -> int:
        return self.global_oracle.upper.marked_state

    @property
    def upper_target_bits(self) -> str:
        return int_to_bits(self.upper_target, self.m - self.g)

    @property
    def lower_solution(self) -> int:
        return self.global_oracle.lower.marked_state

    def matching_candidate_index(self) -> int | None:
        """1-based index of the candidate equal to the oracle's lower string."""
        return self.candidates.index_of(self.lower_solution)


class Measurement(NamedTuple):
    """One measured state, its classical check, and the trials it took.

    ``counts`` is the ``sample`` array, one count per basis index; ``top``
    is the label of the checked m-bit pattern. ``candidate_index`` is
    reported only when that pattern verifies.
    """

    state: Statevector
    counts: np.ndarray
    top: str
    verified: bool
    candidate_index: int | None
    trials: int

    @property
    def found(self) -> str | None:
        """The verified label, or None."""
        return self.top if self.verified else None


def measure_and_verify(
    problem: SearchProblem,
    sv: Statevector,
    shots: int,
    seed,
    counter: QueryCounter,
    candidate_index: int | None,
    trials: int = 1,
) -> Measurement:
    """Sample the state and classically check its top outcome.

    The top outcome is the most sampled basis index, the smallest on a
    tie. A g-qubit state holds only the lower half, so its pattern is
    completed by the known upper target. The check spends one oracle query
    on the m-bit pattern.
    """
    counts = sample(sv, shots, seed=seed)
    pattern = int(np.argmax(counts))
    if sv.num_qubits == problem.g:
        pattern |= problem.upper_target << problem.g
    elif sv.num_qubits != problem.m:
        raise ConfigurationError(
            f"a {sv.num_qubits}-qubit state is neither the lower half nor the "
            f"{problem.m}-qubit register"
        )
    counter.count_oracle()
    verified = problem.global_oracle(pattern)
    return Measurement(
        sv, counts, int_to_bits(pattern, problem.m), verified,
        candidate_index if verified else None, trials,
    )


def prepare_candidates(
    problem: SearchProblem, sv: Register, counter: QueryCounter | None = None
) -> Register:
    """Amplify the candidate set on qubits 0..g-1 of a register uniform over them."""
    rounds = iteration_count(2**problem.g, problem.v)
    return run_grover(sv, problem.candidates.mask(), problem.lower_qubits, rounds, counter)


def _amplify_upper_globally(
    problem: SearchProblem,
    sv: Register,
    counter: QueryCounter | None,
) -> Register:
    """Repeat [global phase flip; upper diffusion] the standard round count.

    The oracle reads all m qubits while the diffusion reflects only the
    upper half, so lower-half amplitudes steer which upper block grows.
    The lower register is deliberately non-uniform here; no uniformity
    assertion applies.
    """
    rounds = iteration_count(2 ** (problem.m - problem.g), 1)
    marked = problem.global_oracle.mask()
    return amplify(sv, marked, problem.all_qubits, problem.upper_qubits, rounds, counter)


def require_matching_candidate(problem: SearchProblem) -> None:
    """The entangled strategy's premise: some candidate completes the solution."""
    if problem.matching_candidate_index() is None:
        raise PreconditionError(
            "the oracle's lower string is not among the candidates"
        )


def entangled_nested(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> Statevector:
    """Candidate amplification followed by global-oracle upper amplification.

    The upper rounds mark the full solution, so only the upper block paired
    with the matching candidate grows; the halves end entangled and the
    solution carries roughly 1/v of the mass.
    """
    require_matching_candidate(problem)
    sv = prepare_candidates(problem, init_uniform(problem.m), counter)
    return _amplify_upper_globally(problem, sv, counter).freeze()


def product_subspace_search(
    problem: SearchProblem, counter: QueryCounter | None = None
) -> Statevector:
    """Amplify candidates and the upper target independently.

    Uses the factored upper oracle directly, so the halves never interact:
    the result is a product state pairing the upper target with every
    candidate, matching or not.
    """
    sv = prepare_candidates(problem, init_uniform(problem.m), counter)
    upper_rounds = iteration_count(2 ** (problem.m - problem.g), 1)
    return run_grover(
        sv, problem.global_oracle.upper.mask(), problem.upper_qubits, upper_rounds, counter
    ).freeze()


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
    sv = run_grover(
        init_uniform(problem.m), oracle_k.mask(), problem.lower_qubits, lower_rounds, counter
    )
    return _amplify_upper_globally(problem, sv, counter).freeze()


class IterativeOutcome(NamedTuple):
    trials: tuple[Measurement, ...]

    @property
    def result(self) -> Measurement:
        """The last trial: verified, or the exhausted search."""
        return self.trials[-1]


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
        if trials[-1].verified:
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
    """The scored composite state and its per-block read-out.

    ``distributions[k - 1]`` is block k's exact marginal, indexed by
    pattern, and ``flag_excitations[k - 1]`` the probability that flag k
    stayed at 1.
    """

    winning_index: int | None
    state: Statevector
    distributions: tuple[np.ndarray, ...]
    flag_excitations: tuple[float, ...]


def disentangled_layout(problem: SearchProblem) -> CompositeLayout:
    """The composite register of ``problem``; needs two candidates and fits the cap."""
    if problem.v < 2:
        raise PreconditionError("block scoring needs at least two candidates")
    layout = CompositeLayout(
        g=problem.g, block_width=problem.m - problem.g, v=problem.v
    )
    if layout.total_qubits > MAX_QUBITS:
        raise ConfigurationError(
            f"composite register of {layout.total_qubits} qubits exceeds the "
            f"{MAX_QUBITS}-qubit cap"
        )
    return layout


def _flags_cleared_uniform(layout: CompositeLayout) -> Register:
    """A register uniform over candidate register and blocks, flags at 0."""
    total = layout.total_qubits
    amps = np.zeros(2**total, dtype=np.complex128)
    # one (block, flag) axis pair per block, highest block first, then the
    # candidate register
    view = amps.reshape((2**layout.block_width, 2) * layout.v + (2**layout.g,))
    view[(slice(None), 0) * layout.v] = 1.0 / math.sqrt(2 ** (total - layout.v))
    return Register(total, amps)


def block_distribution(problem: SearchProblem, state: Statevector, k: int) -> np.ndarray:
    """Exact marginal distribution of block k's qubits, indexed by pattern."""
    return marginal_distribution(state, disentangled_layout(problem).block(k))


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
    every block boundary and the flags return to 0 exactly. The candidate
    rounds and every block round run on the one register the search opens,
    norm-checked once per round after the diffusion and frozen once into
    the returned state.

    Each block's marginal and flag excitation is read once and returned
    with the state. The winner is the unique block whose marginal puts
    more than DECISION_THRESHOLD on the upper target; None when no such
    block exists (the upper target is absent or ambiguous).
    """
    layout = disentangled_layout(problem)
    sv = prepare_candidates(problem, _flags_cleared_uniform(layout), counter)

    upper_rounds = iteration_count(2**layout.block_width, 1)
    # row z, column y: whether the global oracle marks (z << g) | y
    global_mask = problem.global_oracle.mask().reshape(-1, 2**problem.g)
    flag_set = np.array([False, True])
    for k in range(1, problem.v + 1):
        # the global oracle with its lower input fixed to candidate k
        bound = global_mask[:, problem.candidates.candidate(k)]
        flag = layout.flag(k)
        block = layout.block(k)
        for _ in range(upper_rounds):
            apply_conditional_bit_flip(sv, flag, bound, block)
            apply_phase_flip(sv, flag_set, qubits(flag))
            apply_conditional_bit_flip(sv, flag, bound, block)
            apply_diffusion(sv, block)
            sv.check_norm()
            if counter is not None:
                counter.count_oracle()
                counter.count_diffusion()
    state = sv.freeze()

    blocks = range(1, problem.v + 1)
    excitations = tuple(flag_excitation(problem, state, k) for k in blocks)
    for k, leak in zip(blocks, excitations):
        if leak > 1e-9:
            raise ValidationError(f"flag {k} retains probability {leak} after uncompute")

    distributions = tuple(block_distribution(problem, state, k) for k in blocks)
    target = problem.upper_target
    above = [k for k in blocks if distributions[k - 1][target] > DECISION_THRESHOLD]
    winning = above[0] if len(above) == 1 else None
    return DisentangledOutcome(winning, state, distributions, excitations)


def recover_candidate(
    problem: SearchProblem,
    k: int,
    shots: int = 256,
    seed: int = 0,
    counter: QueryCounter | None = None,
) -> Measurement:
    """Fresh lower-half search for candidate k, completing the solution.

    The block scoring identifies which candidate wins; this final search
    spends the standard lower budget to read the candidate string back out
    and verifies the assembled string classically.
    """
    if counter is None:
        counter = QueryCounter()
    oracle_k = candidate_oracle(problem.candidates, k)
    rounds = iteration_count(2**problem.g, 1)
    sv = run_grover(
        init_uniform(problem.g), oracle_k.mask(), qubit_range(0, problem.g), rounds, counter
    ).freeze()
    return measure_and_verify(problem, sv, shots, (seed, k), counter, k)
