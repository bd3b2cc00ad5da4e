"""Dense statevector simulation for registers of up to 20 qubits.

Basis indexing is little-endian: qubit q is bit q of the basis index, and
textual labels therefore print qubit m-1 first. Operations are functional,
returning a fresh Statevector and leaving inputs untouched. Every kernel has
a dense-matrix mirror used by the cross-check context, so the fast index
arithmetic is never the only route to a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .oracles import int_to_bits

MAX_QUBITS = 20
NORM_TOL = 1e-9


@dataclass(frozen=True)
class QubitSet:
    """Strictly increasing tuple of qubit positions."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(q) for q in self.indices)
        if any(q < 0 for q in idx):
            raise ConfigurationError(f"negative qubit index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigurationError(f"qubit indices must strictly increase: {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, q: int) -> bool:
        return q in self.indices

    def validate_for(self, num_qubits: int) -> None:
        if self.indices and self.indices[-1] >= num_qubits:
            raise ConfigurationError(
                f"qubit {self.indices[-1]} outside register of {num_qubits}"
            )


def qubits(*indices: int) -> QubitSet:
    return QubitSet(tuple(indices))


def qubit_range(start: int, stop: int) -> QubitSet:
    return QubitSet(tuple(range(start, stop)))


def _as_qubitset(on: QubitSet | Sequence[int]) -> QubitSet:
    if isinstance(on, QubitSet):
        return on
    return QubitSet(tuple(on))


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"register size must be in 1..{MAX_QUBITS}, got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ConfigurationError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def init_uniform(num_qubits: int) -> Statevector:
    """Uniform superposition over all basis states."""
    dim = 2**num_qubits if 1 <= num_qubits <= MAX_QUBITS else 0
    if not dim:
        raise ConfigurationError(
            f"register size must be in 1..{MAX_QUBITS}, got {num_qubits}"
        )
    return Statevector(num_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def basis_state(num_qubits: int, index: int) -> Statevector:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"register size must be in 1..{MAX_QUBITS}, got {num_qubits}"
        )
    if not 0 <= index < 2**num_qubits:
        raise ConfigurationError(f"basis index {index} outside register")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


# ---------------------------------------------------------------------------
# cross-check context: every kernel application is mirrored against an
# explicitly built dense matrix while a check is active.

_ACTIVE_CHECK: "KernelCrossCheck | None" = None


class KernelCrossCheck:
    """Context that compares each fast kernel against its dense construction.

    Registers wider than ``max_qubits`` are not checked (the dense mirror is
    quadratic in the dimension); each such kernel call is counted per
    operation in ``skipped``. Deviations are recorded per operation and
    summarized in ``max_deviation``.
    """

    def __init__(self, max_qubits: int = 12) -> None:
        self.max_qubits = max_qubits
        self.max_deviation = 0.0
        self.records: list[tuple[str, float]] = []
        self.skipped: dict[str, int] = {}
        self._previous: KernelCrossCheck | None = None

    def __enter__(self) -> "KernelCrossCheck":
        global _ACTIVE_CHECK
        self._previous = _ACTIVE_CHECK
        _ACTIVE_CHECK = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_CHECK
        _ACTIVE_CHECK = self._previous

    def record(self, label: str, deviation: float) -> None:
        self.records.append((label, deviation))
        self.max_deviation = max(self.max_deviation, deviation)


def _maybe_crosscheck(
    label: str,
    before: Statevector,
    fast: np.ndarray,
    matrix_builder: Callable[[], np.ndarray],
) -> None:
    check = _ACTIVE_CHECK
    if check is None:
        return
    if before.num_qubits > check.max_qubits:
        check.skipped[label] = check.skipped.get(label, 0) + 1
        return
    dense = matrix_builder() @ before.amplitudes
    check.record(label, float(np.max(np.abs(fast - dense))))


# ---------------------------------------------------------------------------
# kernels

def _subpattern(indices: np.ndarray, on: QubitSet) -> np.ndarray:
    """Bits of each basis index at the given positions, packed little-endian."""
    sub = np.zeros_like(indices)
    for j, q in enumerate(on.indices):
        sub |= ((indices >> q) & 1) << j
    return sub


def _predicate_table(predicate: Callable[[int], bool], width: int) -> np.ndarray:
    return np.fromiter(
        (bool(predicate(p)) for p in range(2**width)), dtype=bool, count=2**width
    )


def apply_phase_flip(
    sv: Statevector, predicate: Callable[[int], bool], on: QubitSet | Sequence[int]
) -> Statevector:
    """Negate amplitudes whose bits at ``on`` satisfy the predicate.

    The predicate sees the sub-pattern as an int whose bit j is the basis
    index bit at on[j].
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("phase flip needs at least one qubit")
    table = _predicate_table(predicate, len(on))
    idx = np.arange(sv.dim)
    signs = np.where(table[_subpattern(idx, on)], -1.0, 1.0)
    out = sv.amplitudes * signs
    _maybe_crosscheck(
        "phase_flip", sv, out, lambda: dense_phase_flip_matrix(sv.num_qubits, predicate, on)
    )
    return Statevector(sv.num_qubits, out)


def apply_diffusion(sv: Statevector, on: QubitSet | Sequence[int]) -> Statevector:
    """Reflect about the mean within the ``on`` sub-register.

    Acts blockwise: for every fixed pattern of the remaining qubits the
    sub-register amplitudes are replaced by (2 * mean - amplitude).
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("diffusion needs at least one qubit")
    m, k = sv.num_qubits, len(on)
    tensor = sv.amplitudes.reshape((2,) * m)
    axes = [m - 1 - q for q in on.indices]
    moved = np.moveaxis(tensor, axes, range(k))
    mat = moved.reshape(2**k, -1)
    reflected = 2.0 * mat.mean(axis=0)[None, :] - mat
    out = np.moveaxis(reflected.reshape((2,) * m), range(k), axes).reshape(-1)
    _maybe_crosscheck(
        "diffusion", sv, out, lambda: dense_diffusion_matrix(sv.num_qubits, on)
    )
    return Statevector(sv.num_qubits, out)


def apply_conditional_bit_flip(
    sv: Statevector,
    target: int,
    predicate: Callable[[int], bool],
    on: QubitSet | Sequence[int],
) -> Statevector:
    """Flip the target qubit where the predicate holds on the ``on`` bits.

    A classical reversible update (an X gate under a predicate control);
    target must not be part of ``on``.
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if not 0 <= target < sv.num_qubits:
        raise ConfigurationError(f"target qubit {target} outside register")
    if target in on:
        raise ConfigurationError("target qubit may not be among the controls")
    table = _predicate_table(predicate, len(on)) if len(on) else None
    idx = np.arange(sv.dim)
    if table is None:
        flips = np.ones(sv.dim, dtype=bool)
    else:
        flips = table[_subpattern(idx, on)]
    partner = np.where(flips, idx ^ (1 << target), idx)
    out = sv.amplitudes[partner]
    _maybe_crosscheck(
        "conditional_bit_flip",
        sv,
        out,
        lambda: dense_bit_flip_matrix(sv.num_qubits, target, predicate, on),
    )
    return Statevector(sv.num_qubits, out)


def apply_index_map(
    sv: Statevector, mapping: Sequence[int], on: QubitSet | Sequence[int]
) -> Statevector:
    """Relabel the ``on`` sub-register basis by a bijective mapping."""
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    k = len(on)
    arr = np.asarray(mapping, dtype=np.int64)
    if arr.shape != (2**k,) or sorted(arr.tolist()) != list(range(2**k)):
        raise ValidationError(f"mapping is not a bijection over {2**k} patterns")
    idx = np.arange(sv.dim)
    sub = _subpattern(idx, on)
    delta = sub ^ arr[sub]
    new_idx = idx.copy()
    for j, q in enumerate(on.indices):
        new_idx ^= ((delta >> j) & 1) << q
    out = np.empty_like(sv.amplitudes)
    out[new_idx] = sv.amplitudes
    _maybe_crosscheck(
        "index_map", sv, out, lambda: dense_index_map_matrix(sv.num_qubits, mapping, on)
    )
    return Statevector(sv.num_qubits, out)


def probabilities(sv: Statevector) -> np.ndarray:
    """Born probabilities indexed by basis index."""
    return np.abs(sv.amplitudes) ** 2


def probability_map(sv: Statevector, floor: float = 1e-12) -> dict[str, float]:
    """Probabilities keyed by textual label, entries below ``floor`` dropped."""
    p = probabilities(sv)
    return {
        int_to_bits(i, sv.num_qubits): float(p[i])
        for i in np.nonzero(p > floor)[0]
    }


def sample(sv: Statevector, shots: int, seed) -> dict[str, int]:
    """Multinomial measurement histogram, keyed by textual label.

    A pure function of (state, shots, seed): repeated calls agree bit for bit.
    """
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    p = probabilities(sv)
    p = p / p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    return {
        int_to_bits(i, sv.num_qubits): int(c) for i, c in enumerate(counts) if c
    }


def top_outcome(histogram: dict[str, int]) -> str:
    """Most frequent label; ties break toward the lexicographically smallest."""
    if not histogram:
        raise ConfigurationError("empty histogram")
    return min(histogram, key=lambda label: (-histogram[label], label))


def partition_purity(sv: Statevector, part: QubitSet | Sequence[int]) -> float:
    """Purity of the reduced state on ``part``; 1 means no entanglement."""
    part = _as_qubitset(part)
    part.validate_for(sv.num_qubits)
    if len(part) == 0 or len(part) == sv.num_qubits:
        raise ConfigurationError("partition must be a proper nonempty subset")
    m, k = sv.num_qubits, len(part)
    tensor = sv.amplitudes.reshape((2,) * m)
    axes = [m - 1 - q for q in part.indices]
    mat = np.moveaxis(tensor, axes, range(k)).reshape(2**k, -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    return float(np.sum(singular**4))


def marginal_probability(
    sv: Statevector, on: QubitSet | Sequence[int], pattern: int
) -> float:
    """Probability that measuring the ``on`` bits yields the given pattern."""
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if not 0 <= pattern < 2 ** len(on):
        raise ConfigurationError(f"pattern {pattern} outside width {len(on)}")
    idx = np.arange(sv.dim)
    mask = _subpattern(idx, on) == pattern
    return float(np.sum(np.abs(sv.amplitudes[mask]) ** 2))


# ---------------------------------------------------------------------------
# dense reference constructions

def dense_phase_flip_matrix(
    num_qubits: int, predicate: Callable[[int], bool], on: QubitSet | Sequence[int]
) -> np.ndarray:
    on = _as_qubitset(on)
    table = _predicate_table(predicate, len(on))
    idx = np.arange(2**num_qubits)
    signs = np.where(table[_subpattern(idx, on)], -1.0, 1.0)
    return np.diag(signs).astype(np.complex128)


def dense_diffusion_matrix(num_qubits: int, on: QubitSet | Sequence[int]) -> np.ndarray:
    on = _as_qubitset(on)
    k = len(on)
    idx = np.arange(2**num_qubits)
    mask = 0
    for q in on.indices:
        mask |= 1 << q
    block = idx & ~mask
    same_block = block[:, None] == block[None, :]
    return (same_block * (2.0 / 2**k) - np.eye(2**num_qubits)).astype(np.complex128)


def dense_bit_flip_matrix(
    num_qubits: int,
    target: int,
    predicate: Callable[[int], bool],
    on: QubitSet | Sequence[int],
) -> np.ndarray:
    on = _as_qubitset(on)
    table = _predicate_table(predicate, len(on)) if len(on) else None
    idx = np.arange(2**num_qubits)
    if table is None:
        flips = np.ones(2**num_qubits, dtype=bool)
    else:
        flips = table[_subpattern(idx, on)]
    dest = np.where(flips, idx ^ (1 << target), idx)
    mat = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    mat[dest, idx] = 1.0
    return mat


def dense_index_map_matrix(
    num_qubits: int, mapping: Sequence[int], on: QubitSet | Sequence[int]
) -> np.ndarray:
    on = _as_qubitset(on)
    arr = np.asarray(mapping, dtype=np.int64)
    idx = np.arange(2**num_qubits)
    sub = _subpattern(idx, on)
    delta = sub ^ arr[sub]
    dest = idx.copy()
    for j, q in enumerate(on.indices):
        dest ^= ((delta >> j) & 1) << q
    mat = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    mat[dest, idx] = 1.0
    return mat
