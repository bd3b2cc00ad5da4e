"""Basis relabeling that packs candidate strings into a small code block.

The k-th candidate string is sent to the k-th code word; everything else is
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
from .grover import QueryCounter, iteration_count, run_grover
from .oracles import bits_to_int
from .statevector import (
    QubitSet,
    Statevector,
    apply_conditional_bit_flip,
    apply_index_map,
    qubits,
)
from .strategies import SearchProblem, SearchResult, measure_and_verify, prepare_candidates

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
        if self.convention not in CONVENTIONS:
            raise ConfigurationError(f"unknown convention {self.convention!r}")
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


def build_permutation(
    h_paths, width: int | None = None, convention: str = "standard"
) -> PermutationSpec:
    """Relabeling that sends the k-th path string to the k-th code word.

    Built as a sequence of pattern swaps: at each step the candidate's
    current image trades places with whichever pattern holds the wanted
    code word. Already-placed candidates are never disturbed because their
    code words are never traded away again.
    """
    paths = list(h_paths)
    if not paths:
        raise ConfigurationError("need at least one path string")
    widths = {len(p) for p in paths}
    if len(widths) != 1:
        raise ConfigurationError(f"path strings must share one width, got {widths}")
    inferred = widths.pop()
    if width is not None and width != inferred:
        raise ConfigurationError(
            f"declared width {width} does not match path strings of width {inferred}"
        )
    width = inferred
    values = [bits_to_int(p) for p in paths]
    if len(set(values)) != len(values):
        raise ValidationError(f"duplicate path strings: {paths}")

    v = len(values)
    code_width = (v - 1).bit_length()
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown convention {convention!r}")

    mapping = list(range(2**width))
    inverse = list(range(2**width))
    swaps: list[tuple[int, int]] = []
    for k, h in enumerate(values, start=1):
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


def permutation_matrix(spec: PermutationSpec) -> np.ndarray:
    """Dense 0/1 unitary with column y carrying a 1 in row mapping[y]."""
    n = 2**spec.width
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[list(spec.mapping), range(n)] = 1.0
    return mat


def apply_permutation(
    sv: Statevector, spec: PermutationSpec, on: QubitSet
) -> Statevector:
    return apply_index_map(sv, spec.mapping, on)


def apply_transpose(
    sv: Statevector, spec: PermutationSpec, on: QubitSet
) -> Statevector:
    """Inverse relabeling; the matrix transpose, since entries are 0/1."""
    return apply_index_map(sv, spec.inverse(), on)


def apply_cnot_permutation(
    sv: Statevector, spec: PermutationSpec, data: QubitSet, flags: QubitSet
) -> Statevector:
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
    for (a, b), flag in zip(spec.transpositions, flags.indices):
        mark_a = lambda p, a=a: p == a
        mark_b = lambda p, b=b: p == b
        sv = apply_conditional_bit_flip(sv, flag, mark_a, data)
        sv = apply_conditional_bit_flip(sv, flag, mark_b, data)
        difference = a ^ b
        for j, q in enumerate(data.indices):
            if (difference >> j) & 1:
                sv = apply_conditional_bit_flip(sv, q, lambda f: f == 1, qubits(flag))
        sv = apply_conditional_bit_flip(sv, flag, mark_a, data)
        sv = apply_conditional_bit_flip(sv, flag, mark_b, data)
    return sv


def _compacted_oracle(problem: SearchProblem, spec: PermutationSpec, search: QubitSet):
    """Global oracle conjugated by the relabeling, restricted to the search set.

    A search-set pattern is embedded into the full register with zeros on
    the idle qubits (valid because the idle lower qubits are exactly |0>
    after the relabeling), the lower part is pulled back through the
    inverse relabeling, and the original oracle answers.
    """
    inverse = spec.inverse()
    g = problem.g
    lower_mask = 2**g - 1

    def oracle(pattern: int) -> bool:
        full = 0
        for j, q in enumerate(search.indices):
            full |= ((pattern >> j) & 1) << q
        lower = inverse[full & lower_mask]
        return problem.global_oracle((full & ~lower_mask) | lower)

    return oracle


def _basis_prepared(problem: SearchProblem) -> Statevector:
    """Uniform upper half against an even superposition of the candidates."""
    m, g = problem.m, problem.g
    amps = np.zeros(2**m, dtype=np.complex128)
    value = 1.0 / np.sqrt(problem.v * 2 ** (m - g))
    for h in problem.candidates.candidates:
        for z in range(2 ** (m - g)):
            amps[(z << g) | h] = value
    return Statevector(m, amps)


class CompactedSearch(NamedTuple):
    state: Statevector
    spec: PermutationSpec


def compacted_search_state(
    problem: SearchProblem,
    counter: QueryCounter | None = None,
    prep: str = "grover",
    convention: str = "little_endian",
) -> CompactedSearch:
    """Final state of the relabeled search, before any measurement.

    Pipeline: prepare the candidate superposition (by amplification or by
    direct basis encoding), relabel the lower half, amplify over the
    compacted search set against the conjugated oracle, and undo the
    relabeling. The relabeling is returned with the state.

    The compacted search starts from a uniform state only when the
    candidate count fills the code block (v a power of two) and the
    candidates carry equal amplitudes; other cases run but with degraded
    success probability.
    """
    if counter is None:
        counter = QueryCounter()
    spec = build_permutation(problem.candidates.strings(), convention=convention)
    g, m, c = problem.g, problem.m, spec.code_width
    if convention == "little_endian":
        code_positions = range(g - c, g)
    else:
        code_positions = range(0, c)
    search = QubitSet(tuple(code_positions) + tuple(range(g, m)))

    if prep == "grover":
        sv = prepare_candidates(problem, counter)
    elif prep == "basis":
        sv = _basis_prepared(problem)
    else:
        raise ConfigurationError(f"prep must be 'basis' or 'grover', got {prep!r}")

    sv = apply_permutation(sv, spec, problem.lower_qubits)
    rounds = iteration_count(2 ** len(search), 1)
    sv = run_grover(sv, _compacted_oracle(problem, spec, search), search, rounds, counter)
    return CompactedSearch(state=apply_transpose(sv, spec, problem.lower_qubits), spec=spec)


def permutation_search(
    problem: SearchProblem,
    counter: QueryCounter | None = None,
    prep: str = "grover",
    convention: str = "little_endian",
    shots: int = 256,
    seed: int = 0,
) -> SearchResult:
    """Sample the relabeled search and classically verify the top outcome."""
    if counter is None:
        counter = QueryCounter()
    sv = compacted_search_state(problem, counter, prep=prep, convention=convention).state
    return measure_and_verify(
        problem, sv, shots, seed, counter, problem.matching_candidate_index()
    ).result
