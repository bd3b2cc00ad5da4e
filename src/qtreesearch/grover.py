"""Amplitude amplification on a full register or a sub-register.

A search is a sequence of ``Stage`` records, which ``amplify``, the one
round loop, runs. A stage's oracle is a boolean mask over sub-register
patterns, built once and reused by every round, and ``Stage.standard``
states the round rule. Each round spends one oracle call and one diffusion
call, tallied by the caller's QueryCounter; classical verification steps
elsewhere tick the same oracle_calls counter: a query is a query however
it is addressed.

A stage with a flag borrows the register's top qubit, which must enter
every round at |0> and leave it there. The kick (compute the flag, flip
its phase, uncompute) runs on the whole register; the diffusion and the
round's norm check then run on the flag-clear half, the leading half of
the amplitudes, viewed as a register one qubit narrower. Only that half
holds amplitude once the flag is uncomputed, so a diffusion of the half
sums the same floats in the same order as one of the whole register, and
a flag left excited shows as a norm deficit of the half in that round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .statevector import QubitSet, Register, apply_conditional_bit_flip, qubits
from .statevector import apply_diffusion, apply_phase_flip

_FLAG_SET = np.array([False, True])


@dataclass
class QueryCounter:
    """Monotone tally of oracle and diffusion applications."""

    oracle_calls: int = 0
    diffusion_calls: int = 0

    def count_oracle(self) -> None:
        self.oracle_calls += 1

    def count_diffusion(self) -> None:
        self.diffusion_calls += 1

    @property
    def total(self) -> int:
        return self.oracle_calls + self.diffusion_calls


def rotation_angle(num_states: int, num_marked: int) -> float:
    """Half-angle of one amplification round, asin(sqrt(k/n))."""
    if num_states < 1 or not 1 <= num_marked <= num_states:
        raise ConfigurationError(
            f"need 1 <= marked ({num_marked}) <= states ({num_states})"
        )
    return math.asin(math.sqrt(num_marked / num_states))


def iteration_count(num_states: int, num_marked: int) -> int:
    """Round count floor(pi/4 * sqrt(n/k)); 0 means amplification is useless."""
    if num_states < 1 or not 1 <= num_marked <= num_states:
        raise ConfigurationError(
            f"need 1 <= marked ({num_marked}) <= states ({num_states})"
        )
    return int(math.floor(math.pi / 4 * math.sqrt(num_states / num_marked)))


def success_probability(num_states: int, num_marked: int, iterations: int) -> float:
    """Marked-set mass after the given rounds, starting from uniform."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    theta = rotation_angle(num_states, num_marked)
    return math.sin((2 * iterations + 1) * theta) ** 2


class Stage(NamedTuple):
    """``rounds`` repetitions of [oracle ``marked`` on ``flip_on``; diffusion on ``diffuse_on``].

    A mask that also reads qubits outside ``diffuse_on`` lets their
    amplitudes steer which patterns of the diffused qubits grow. With a
    ``flag`` qubit, the register's top one, the oracle is a phase kick:
    the mask marks the flag, the flag's phase flips, and the mask unmarks
    it.
    """

    marked: np.ndarray
    flip_on: QubitSet
    diffuse_on: QubitSet
    rounds: int
    flag: int | None = None

    @classmethod
    def standard(cls, marked, flip_on, diffuse_on, num_marked=1, flag=None) -> Stage:
        """A stage of r(2**len(diffuse_on), num_marked) rounds."""
        rounds = iteration_count(2 ** len(diffuse_on), num_marked)
        return cls(marked, flip_on, diffuse_on, rounds, flag)


def run_grover(
    sv: Register, marked: np.ndarray, on: QubitSet, rounds: int, counter: QueryCounter
) -> Register:
    """Apply `rounds` repetitions of [phase flip; diffusion] on `on`: one stage."""
    return amplify(sv, (Stage(marked, on, on, rounds),), counter)


def amplify(sv: Register, stages: Sequence[Stage], counter: QueryCounter) -> Register:
    """Run every round of every stage, in order.

    The rounds update the given register in place, and its norm is
    checked once per round, after the diffusion: the whole register's,
    or a flagged stage's flag-clear half. The same register is returned,
    unfrozen, for the caller's next stage. A flag other than the
    register's top qubit is a ConfigurationError.
    """
    for stage in stages:
        if stage.rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {stage.rounds}")
        diffused = sv
        if stage.flag is not None:
            if stage.flag != sv.num_qubits - 1:
                raise ConfigurationError(
                    f"flag {stage.flag} is not the top qubit of a {sv.num_qubits}-qubit register"
                )
            diffused = Register(stage.flag, sv.amplitudes[: 2**stage.flag], sv.norm)
            kicked = qubits(stage.flag)
        for _ in range(stage.rounds):
            if stage.flag is None:
                apply_phase_flip(sv, stage.marked, stage.flip_on)
            else:
                apply_conditional_bit_flip(sv, stage.flag, stage.marked, stage.flip_on)
                apply_phase_flip(sv, _FLAG_SET, kicked)
                apply_conditional_bit_flip(sv, stage.flag, stage.marked, stage.flip_on)
            apply_diffusion(diffused, stage.diffuse_on)
            diffused.check_norm()
            counter.count_oracle()
            counter.count_diffusion()
    return sv
