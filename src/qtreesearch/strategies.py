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
  Its rounds run on the candidates and blocks plus one flag that each
  block borrows in turn; the flags-per-block composite is assembled once,
  for the read-outs.

Every pipeline runs ``grover.Stage`` records, built by the constructors
below, through ``grover.amplify``, which counts their rounds in the
caller's QueryCounter. Each simulated state is one Register: the pipeline
opens it, runs every stage on it in place, and freezes it once into the
Statevector it returns. A stage that starts uniform and acts only on the
candidate register, candidate preparation (``prepare_candidates``) or a
trial's candidate stage, runs first on one fiber of the lowest g qubits,
which is then tiled into the wider register: 2**g amplitudes per round
instead of the wider register's, and the same state bit for bit.
Patterns stay ints: a measured state's top outcome is a basis index, which
one oracle query checks, and the one ``Measurement`` record holds the
state, its counts, the checked label and the verdict. Block read-outs are
arrays indexed by pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PreconditionError, ValidationError
from .grover import QueryCounter, Stage, amplify
from .oracles import ConcatenatedOracle, PartialCandidateSet, candidate_oracle, int_to_bits
from .statevector import (
    MAX_QUBITS,
    QubitSet,
    Register,
    Statevector,
    init_uniform,
    marginal_distribution,
    qubit_range,
    sample,
    uniform_fiber,
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


def candidate_stage(problem: SearchProblem, k: int) -> Stage:
    """Search the lower half for candidate k alone."""
    lower = problem.lower_qubits
    return Stage.standard(candidate_oracle(problem.candidates, k).mask(), lower, lower)


def upper_stage(problem: SearchProblem) -> Stage:
    """Global phase flip, upper diffusion: the lower half steers which upper block grows."""
    marked = problem.global_oracle.mask()
    return Stage.standard(marked, problem.all_qubits, problem.upper_qubits)


def _on_lower_fiber(
    problem: SearchProblem,
    stage: Stage,
    width: int,
    counter: QueryCounter,
    into: np.ndarray | None = None,
) -> Register:
    """Run ``stage``, which acts on qubits 0..g-1 alone, on a uniform start
    of ``width`` qubits: on one fiber, then tiled into ``into`` or a fresh
    array."""
    fiber = amplify(uniform_fiber(width, problem.g), (stage,), counter)
    return fiber.tile(width, into)


def prepare_candidates(
    problem: SearchProblem, width: int, counter: QueryCounter, into: np.ndarray | None = None
) -> Register:
    """Amplify the candidate set on qubits 0..g-1 of a uniform ``width``-qubit register.

    The rounds run on one g-qubit fiber, which is then tiled into the
    returned register, on ``into`` (an array of 2**width entries) or a
    fresh one.
    """
    lower = problem.lower_qubits
    stage = Stage.standard(problem.candidates.mask(), lower, lower, problem.v)
    return _on_lower_fiber(problem, stage, width, counter, into)


def require_matching_candidate(problem: SearchProblem) -> None:
    """The entangled strategy's premise: some candidate completes the solution."""
    if problem.matching_candidate_index() is None:
        raise PreconditionError(
            "the oracle's lower string is not among the candidates"
        )


def entangled_nested(problem: SearchProblem, counter: QueryCounter) -> Statevector:
    """Candidate amplification followed by global-oracle upper amplification.

    The upper rounds mark the full solution, so only the upper block paired
    with the matching candidate grows; the halves end entangled and the
    solution carries roughly 1/v of the mass.
    """
    require_matching_candidate(problem)
    sv = prepare_candidates(problem, problem.m, counter)
    return amplify(sv, (upper_stage(problem),), counter).freeze()


def product_subspace_search(problem: SearchProblem, counter: QueryCounter) -> Statevector:
    """Amplify candidates and the upper target independently.

    Uses the factored upper oracle directly, so the halves never interact:
    the result is a product state pairing the upper target with every
    candidate, matching or not.
    """
    sv = prepare_candidates(problem, problem.m, counter)
    upper = problem.upper_qubits
    stage = Stage.standard(problem.global_oracle.upper.mask(), upper, upper)
    return amplify(sv, (stage,), counter).freeze()


def trial_stages(problem: SearchProblem, k: int) -> tuple[Stage, Stage]:
    """The stages of the k-th trial: candidate k, then the upper half."""
    return candidate_stage(problem, k), upper_stage(problem)


def iterative_trial_state(problem: SearchProblem, k: int, counter: QueryCounter) -> Statevector:
    """Pre-measurement state of the k-th trial (1-based candidate order).

    One trial amplifies candidate k alone on the lower half, then runs the
    global-oracle upper rounds. When candidate k completes the solution the
    solution state carries nearly all the mass; otherwise the upper half
    stays near-uniform against candidate k. The candidate stage runs on one
    fiber, tiled into the m-qubit register the upper stage runs on.
    """
    lower, upper = trial_stages(problem, k)
    sv = _on_lower_fiber(problem, lower, problem.m, counter)
    return amplify(sv, (upper,), counter).freeze()


def iterative_search(
    problem: SearchProblem, shots_per_trial: int, seed: int, counter: QueryCounter
) -> tuple[Measurement, ...]:
    """Try candidates in order; measure each trial and verify classically.

    Each trial costs r_lower + r_upper quantum queries plus one classical
    evaluation of the top outcome. The loop stops at the first verified
    trial; exhausting the candidates ends on an unverified trial rather
    than raising. Every trial's measurement is returned in order, so the
    last one is the search's result.
    """
    trials = []
    for k in range(1, problem.v + 1):
        sv = iterative_trial_state(problem, k, counter)
        trials.append(
            measure_and_verify(problem, sv, shots_per_trial, (seed, k), counter, k, trials=k)
        )
        if trials[-1].verified:
            break
    return tuple(trials)


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
    def working_qubits(self) -> int:
        """The candidate register and the blocks, without the flags."""
        return self.g + self.v * self.block_width

    def flag(self, k: int) -> int:
        self._check(k)
        return self.g + (k - 1) * (self.block_width + 1)

    def block(self, k: int) -> QubitSet:
        self._check(k)
        start = self.flag(k) + 1
        return qubit_range(start, start + self.block_width)

    def working_block(self, k: int) -> QubitSet:
        """Block k's qubits in the working register, where the flags are left out."""
        self._check(k)
        start = self.g + (k - 1) * self.block_width
        return qubit_range(start, start + self.block_width)

    def _check(self, k: int) -> None:
        if not 1 <= k <= self.v:
            raise ConfigurationError(f"block index {k} outside 1..{self.v}")


class DisentangledOutcome(NamedTuple):
    """The scored composite state and its per-block read-out.

    ``distributions[k - 1]`` is block k's exact marginal, indexed by
    pattern, and ``flag_excitations[k - 1]`` the probability that flag k
    stayed at 1 after block k's rounds.
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


def block_distribution(problem: SearchProblem, state: Statevector, k: int) -> np.ndarray:
    """Exact marginal distribution of block k's qubits, indexed by pattern."""
    return marginal_distribution(state, disentangled_layout(problem).block(k))


def block_stages(problem: SearchProblem, layout: CompositeLayout) -> tuple[Stage, ...]:
    """Block k's upper search in the working register, kicked through its top qubit.

    Its oracle is the global oracle with the lower input fixed to
    candidate k, so the candidate register never enters a block round.
    """
    # row z, column y: whether the global oracle marks (z << g) | y
    global_mask = problem.global_oracle.mask().reshape(-1, 2**problem.g)
    flag = layout.working_qubits
    return tuple(
        Stage.standard(
            global_mask[:, y], layout.working_block(k), layout.working_block(k), flag=flag
        )
        for k, y in enumerate(problem.candidates.candidates, start=1)
    )


def _assembled(layout: CompositeLayout, amps: np.ndarray, work: Register) -> Statevector:
    """The composite state on ``amps``, whose leading entries ``work`` views.

    The working register's flag-0 half moves into the composite's
    flags-cleared slots, and the register is spent. The half's copy is
    freed on return, before the read-outs allocate theirs.
    """
    cleared = work.amplitudes[: 2**layout.working_qubits].copy()
    work.amplitudes[:] = 0.0
    work.amplitudes = None
    # one (block, flag) axis pair per block, highest block first, then the
    # candidate register
    w, v = layout.block_width, layout.v
    view = amps.reshape((2**w, 2) * v + (2**layout.g,))
    view[(slice(None), 0) * v] = cleared.reshape((2**w,) * v + (2**layout.g,))
    return Register(layout.total_qubits, amps).freeze()


def disentangled_search(problem: SearchProblem, counter: QueryCounter) -> DisentangledOutcome:
    """Score every candidate at once in its own upper block.

    The candidate register is amplified over the candidate set; each block k
    then runs upper amplification against the global oracle with its lower
    input bound to candidate k, phase-kicked through a flag ancilla that is
    computed, sign-flipped, and uncomputed every round. Nothing couples the
    blocks to the candidate register, so the state stays product across
    every block boundary, and flag k is back at 0 exactly when block k's
    rounds end.

    So the rounds run on a working register of n + 1 qubits, n = g +
    v(m - g): the candidate register and the blocks in order, and on top
    one flag that each block borrows in turn. It views the leading entries
    of the composite's buffer. The candidate rounds run on one g-qubit
    fiber, tiled into the flag-clear half, the flag-set half left at +0.0;
    each block round kicks through the flag on the whole register, then
    diffuses and norm-checks the flag-clear half. After each block the
    flag must hold no probability at all, or ValidationError names it;
    that mass is the block's flag excitation. After the last block the
    flag-clear half moves into the composite's flags-cleared slots, which
    are frozen once into the returned state.

    Each block's marginal is read once from that state and returned with
    it. The winner is the unique block whose marginal puts more than
    DECISION_THRESHOLD on the upper target; None when no such block exists
    (the upper target is absent or ambiguous).
    """
    layout = disentangled_layout(problem)
    n = layout.working_qubits
    amps = np.zeros(2**layout.total_qubits, dtype=np.complex128)
    # the candidates stay lowest and the flag goes on top, so every
    # diffusion sums the same values in the same order as it would on the
    # composite, and the assembled state is the composite's bit for bit
    work = amps[: 2 ** (n + 1)]
    prepare_candidates(problem, n, counter, into=work[: 2**n])
    sv = Register(n + 1, work)

    excitations = []
    for k, stage in enumerate(block_stages(problem, layout), start=1):
        amplify(sv, (stage,), counter)
        excited = sv.amplitudes[2**n :]
        leak = float(np.vdot(excited, excited).real)
        if leak != 0.0:
            raise ValidationError(f"flag {k} retains probability {leak} after uncompute")
        excitations.append(leak)
    state = _assembled(layout, amps, sv)

    blocks = range(1, problem.v + 1)
    distributions = tuple(block_distribution(problem, state, k) for k in blocks)
    target = problem.upper_target
    above = [k for k in blocks if distributions[k - 1][target] > DECISION_THRESHOLD]
    winning = above[0] if len(above) == 1 else None
    return DisentangledOutcome(winning, state, distributions, tuple(excitations))


def recover_candidate(
    problem: SearchProblem, k: int, shots: int, seed: int, counter: QueryCounter
) -> Measurement:
    """Fresh lower-half search for candidate k, completing the solution.

    The block scoring identifies which candidate wins; this final search
    spends the standard lower budget to read the candidate string back out
    and verifies the assembled string classically.
    """
    sv = amplify(init_uniform(problem.g), (candidate_stage(problem, k),), counter).freeze()
    return measure_and_verify(problem, sv, shots, (seed, k), counter, k)
