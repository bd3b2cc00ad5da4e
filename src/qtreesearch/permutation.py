"""Basis relabeling that packs candidate patterns into a small code block.

The k-th candidate pattern is sent to the k-th code word; everything else is
arranged by swapping, one candidate at a time, whichever state currently
holds the wanted code word. The swap record doubles as a recipe for a
controlled-not realization with one flag ancilla per swap.

Code placement comes in two conventions: "standard" puts the code in the
low bits (remaining high bits read 0), "little_endian" mirrors it into the
high bits (remaining low bits read 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .grover import QueryCounter, Stage, amplify
from .oracles import PartialCandidateSet
from .statevector import (
    QubitSet,
    Register,
    Statevector,
    apply_conditional_bit_flip,
    apply_index_map,
    qubits,
)
from .strategies import SearchProblem, prepare_candidates

CONVENTIONS = ("standard", "little_endian")


@dataclass(frozen=True)
class PermutationSpec:
    """A bijective relabeling of basis patterns plus its swap recipe."""

    width: int
    mapping: tuple[int, ...]
    convention: str
    code_width: int
    transpositions: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = 2**self.width
        if len(self.mapping) != n or sorted(self.mapping) != list(range(n)):
            raise ValidationError(f"mapping is not a bijection over {n} patterns")

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.mapping)
        for source, image in enumerate(self.mapping):
            inv[image] = source
        return tuple(inv)


def candidate_code(k: int, code_width: int, width: int, convention: str) -> int:
    """Code word assigned to the k-th candidate (1-based)."""
    if convention == "standard":
        return k - 1
    if convention == "little_endian":
        return (k - 1) << (width - code_width) if code_width else 0
    raise ConfigurationError(f"unknown convention {convention!r}")


def build_permutation(candidates: PartialCandidateSet, convention: str) -> PermutationSpec:
    """Relabeling that sends the k-th candidate to the k-th code word.

    Built as a sequence of pattern swaps: at each step the candidate's
    current image trades places with whichever pattern holds the wanted
    code word. Already-placed candidates are never disturbed because their
    code words are never traded away again.
    """
    width = candidates.width
    code_width = (candidates.size - 1).bit_length()
    mapping = list(range(2**width))
    inverse = list(range(2**width))
    swaps: list[tuple[int, int]] = []
    for k, h in enumerate(candidates.candidates, start=1):
        target = candidate_code(k, code_width, width, convention)
        current = mapping[h]
        if current == target:
            continue
        other = inverse[target]
        mapping[h], mapping[other] = target, current
        inverse[target], inverse[current] = h, other
        swaps.append((current, target))
    return PermutationSpec(
        width=width,
        mapping=tuple(mapping),
        convention=convention,
        code_width=code_width,
        transpositions=tuple(swaps),
    )


def apply_cnot_permutation(
    sv: Register, spec: PermutationSpec, data: QubitSet, flags: QubitSet
) -> Register:
    """Run the swap recipe as controlled-not gates with flag ancillas.

    Each swap (a, b) marks membership of the data register in {a, b} on its
    flag, flips the differing data bits under that flag, then unmarks. The
    flags must enter as |0> and come back to |0> on every basis state.
    """
    if len(flags) != len(spec.transpositions):
        raise ConfigurationError(
            f"need {len(spec.transpositions)} flag qubits, got {len(flags)}"
        )
    if len(data) != spec.width:
        raise ConfigurationError(
            f"data register of {len(data)} does not match width {spec.width}"
        )
    if set(data.indices) & set(flags.indices):
        raise ConfigurationError("data and flag qubits overlap")
    patterns = np.arange(2**spec.width)
    flag_set = np.array([False, True])
    for (a, b), flag in zip(spec.transpositions, flags.indices):
        member = (patterns == a) | (patterns == b)
        apply_conditional_bit_flip(sv, flag, member, data)
        difference = a ^ b
        for j, q in enumerate(data.indices):
            if (difference >> j) & 1:
                apply_conditional_bit_flip(sv, q, flag_set, qubits(flag))
        apply_conditional_bit_flip(sv, flag, member, data)
    return sv


def _basis_prepared(problem: SearchProblem) -> Register:
    """A register: uniform upper half against an even mix of the candidates."""
    m, g = problem.m, problem.g
    amps = np.zeros(2**m, dtype=np.complex128)
    # row z, column y: the amplitude of (z << g) | y
    amps.reshape(2 ** (m - g), 2**g)[:, list(problem.candidates.candidates)] = (
        1.0 / np.sqrt(problem.v * 2 ** (m - g))
    )
    return Register(m, amps)


class CompactedSearch(NamedTuple):
    state: Statevector
    spec: PermutationSpec


def compacted_search_state(
    problem: SearchProblem, counter: QueryCounter, prep: str, convention: str
) -> CompactedSearch:
    """Final state of the relabeled search, before any measurement.

    Pipeline: prepare the candidate superposition (by amplification or by
    direct basis encoding), relabel the lower half, amplify with the
    global oracle conjugated by the relabeling (a phase flip on the whole
    register, diffusion over the compacted search set), and undo the
    relabeling. Every step after the preparation runs on one register,
    frozen once at the end; an amplified preparation tiles that register
    from one g-qubit fiber.
    The relabeling is returned with the state.

    The conjugated oracle marks the solution only when its lower string is
    a candidate, and reads the idle lower qubits too, so mass that
    candidate preparation leaves off the candidates (idle qubits not all
    |0>) is never marked and stays where it was. The search set starts
    uniform, so the marked mass follows sin^2((2r+1)theta), only when the
    candidate count fills the code block (v a power of two) and the
    candidates carry equal amplitudes; otherwise it departs from that law.
    """
    spec = build_permutation(problem.candidates, convention)
    g, m, c = problem.g, problem.m, spec.code_width
    if convention == "little_endian":
        code_positions = range(g - c, g)
    else:
        code_positions = range(0, c)
    search = QubitSet(tuple(code_positions) + tuple(range(g, m)))

    if prep == "grover":
        sv = prepare_candidates(problem, m, counter)
    elif prep == "basis":
        sv = _basis_prepared(problem)
    else:
        raise ConfigurationError(f"prep must be 'basis' or 'grover', got {prep!r}")

    inverse = list(spec.inverse())
    apply_index_map(sv, spec.mapping, problem.lower_qubits)
    # row z, column y: whether the relabeled pattern (z << g) | y is marked;
    # only candidates may be marked, so a lower string outside the candidate
    # set leaves every relabeled pattern unmarked
    oracle = problem.global_oracle
    marked = np.outer(oracle.upper.mask(), oracle.lower.mask() & problem.candidates.mask())
    compacted = Stage.standard(marked[:, inverse].reshape(-1), problem.all_qubits, search)
    amplify(sv, (compacted,), counter)
    apply_index_map(sv, inverse, problem.lower_qubits)
    return CompactedSearch(state=sv.freeze(), spec=spec)
