"""Amplitude amplification on a full register or a sub-register.

The oracle is a plain Python predicate over the sub-register pattern; each
flip+diffuse round spends one oracle call and one diffusion call, tallied by
an optional QueryCounter so experiment drivers can report query budgets.
Classical verification steps elsewhere tick the same oracle_calls counter:
a query is a query however it is addressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigurationError
from .statevector import QubitSet, Statevector, apply_diffusion, apply_phase_flip


@dataclass
class QueryCounter:
    """Monotone tally of oracle and diffusion applications."""

    oracle_calls: int = 0
    diffusion_calls: int = 0

    def count_oracle(self, calls: int = 1) -> None:
        if calls < 0:
            raise ConfigurationError("query count cannot decrease")
        self.oracle_calls += calls

    def count_diffusion(self, calls: int = 1) -> None:
        if calls < 0:
            raise ConfigurationError("query count cannot decrease")
        self.diffusion_calls += calls

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
    sv: Statevector,
    oracle: Callable[[int], bool],
    on: QubitSet | Sequence[int],
    rounds: int,
    counter: QueryCounter | None = None,
) -> Statevector:
    """Apply `rounds` repetitions of [phase flip; diffusion] on `on`.

    Amplifies whatever projection of the current state the oracle marks;
    the caller chooses the starting state and the round count.
    """
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    for _ in range(rounds):
        sv = apply_phase_flip(sv, oracle, on)
        sv = apply_diffusion(sv, on)
        if counter is not None:
            counter.count_oracle()
            counter.count_diffusion()
    return sv

