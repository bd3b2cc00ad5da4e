"""Amplitude amplification on a full register or a sub-register.

The oracle arrives as a boolean mask over the sub-register patterns, built
once by the caller and reused by every round; each flip+diffuse round
spends one oracle call and one diffusion call, tallied by an optional
QueryCounter so experiment drivers can report query budgets.
Classical verification steps elsewhere tick the same oracle_calls counter:
a query is a query however it is addressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .statevector import QubitSet, Register, apply_diffusion, apply_phase_flip


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


def run_grover(
    sv: Register,
    marked: np.ndarray,
    on: QubitSet | Sequence[int],
    rounds: int,
    counter: QueryCounter | None = None,
) -> Register:
    """Apply `rounds` repetitions of [phase flip; diffusion] on `on`.

    ``marked`` is the oracle mask over the sub-patterns of ``on``.
    Amplifies whatever projection of the register's state the mask marks;
    the caller opens the register and chooses the round count.
    """
    return amplify(sv, marked, on, on, rounds, counter)


def amplify(
    sv: Register,
    marked: np.ndarray,
    flip_on: QubitSet | Sequence[int],
    diffuse_on: QubitSet | Sequence[int],
    rounds: int,
    counter: QueryCounter | None = None,
) -> Register:
    """Repeat [phase flip by ``marked`` on ``flip_on``; diffusion on ``diffuse_on``].

    A mask that also reads qubits outside ``diffuse_on`` lets their
    amplitudes steer which patterns of the diffused qubits grow.

    The rounds update the given register in place, and its norm is
    checked once per round, after the diffusion. The same register is
    returned, unfrozen, for the caller's next stage.
    """
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    for _ in range(rounds):
        apply_phase_flip(sv, marked, flip_on)
        apply_diffusion(sv, diffuse_on)
        sv.check_norm()
        if counter is not None:
            counter.count_oracle()
            counter.count_diffusion()
    return sv
