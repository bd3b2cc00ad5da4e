"""Dense statevector simulation for registers of up to 20 qubits.

Basis indexing is little-endian: qubit q is bit q of the basis index, and
textual labels therefore print qubit m-1 first. An oracle reaches a kernel
as a boolean mask over the sub-patterns of the qubits it reads. Operations
are functional, returning a fresh Statevector and leaving inputs untouched.

Every kernel and read-out addresses a sub-register one way: the amplitudes
viewed as a (2**k, rest) matrix whose row p is sub-pattern p. Every kernel
also has a dense-matrix mirror, used by the cross-check context, that is
built from basis-index bit arithmetic instead. The two routes share no
index code, so a fault in either shows as a deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError

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
# kernels: each reads the amplitudes as a matrix whose rows are the
# sub-patterns of the qubits it acts on

def _row_axes(num_qubits: int, order: Sequence[int]) -> list[int]:
    # qubit q is axis m-1-q of the (2,)*m tensor; order[-1] leads, and the
    # other axes keep their order behind the leading ones
    lead = [num_qubits - 1 - q for q in reversed(order)]
    return lead + [a for a in range(num_qubits) if a not in lead]


def _rows(sv: Statevector, order: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (2**k, rest) matrix; row p is sub-pattern p.

    Bit j of p is qubit order[j]. The columns run over the other qubits in
    basis-index order.
    """
    tensor = sv.amplitudes.reshape((2,) * sv.num_qubits)
    return tensor.transpose(_row_axes(sv.num_qubits, order)).reshape(2 ** len(order), -1)


def _from_rows(rows: np.ndarray, num_qubits: int, order: Sequence[int]) -> np.ndarray:
    """Flat amplitudes of a matrix laid out as ``_rows`` lays it out."""
    axes = np.argsort(_row_axes(num_qubits, order))
    return rows.reshape((2,) * num_qubits).transpose(axes).reshape(-1)


def _checked_mask(marked, on: QubitSet) -> np.ndarray:
    """The oracle mask over the ``on`` sub-patterns, or ConfigurationError."""
    marked = np.asarray(marked)
    if marked.dtype != np.bool_ or marked.shape != (2 ** len(on),):
        raise ConfigurationError(
            f"oracle mask must be bool of shape ({2 ** len(on)},), "
            f"got {marked.dtype} of shape {marked.shape}"
        )
    return marked


def apply_phase_flip(
    sv: Statevector, marked: np.ndarray, on: QubitSet | Sequence[int]
) -> Statevector:
    """Negate amplitudes whose bits at ``on`` form a marked sub-pattern.

    ``marked`` is indexed by the sub-pattern, the int whose bit j is the
    basis index bit at on[j].
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("phase flip needs at least one qubit")
    marked = _checked_mask(marked, on)
    signs = np.where(marked, -1.0, 1.0)[:, None]
    out = _from_rows(_rows(sv, on.indices) * signs, sv.num_qubits, on.indices)
    _maybe_crosscheck(
        "phase_flip", sv, out, lambda: dense_phase_flip_matrix(sv.num_qubits, marked, on)
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
    # on[0] as the top row bit: the mean sums the rows in this order
    order = on.indices[::-1]
    rows = _rows(sv, order)
    out = _from_rows(2.0 * rows.mean(axis=0)[None, :] - rows, sv.num_qubits, order)
    _maybe_crosscheck(
        "diffusion", sv, out, lambda: dense_diffusion_matrix(sv.num_qubits, on)
    )
    return Statevector(sv.num_qubits, out)


def apply_conditional_bit_flip(
    sv: Statevector,
    target: int,
    marked: np.ndarray,
    on: QubitSet | Sequence[int],
) -> Statevector:
    """Flip the target qubit where the ``on`` bits form a marked sub-pattern.

    A classical reversible update (an X gate under an oracle control);
    target must not be part of ``on``. With no control qubits the mask has
    one entry, and True flips the target unconditionally.
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if not 0 <= target < sv.num_qubits:
        raise ConfigurationError(f"target qubit {target} outside register")
    if target in on:
        raise ConfigurationError("target qubit may not be among the controls")
    marked = _checked_mask(marked, on)
    # the target as the top row bit: its two halves trade places where marked
    order = on.indices + (target,)
    halves = _rows(sv, order).reshape(2, 2 ** len(on), -1)
    swapped = np.where(marked[:, None], halves[::-1], halves)
    out = _from_rows(swapped, sv.num_qubits, order)
    _maybe_crosscheck(
        "conditional_bit_flip",
        sv,
        out,
        lambda: dense_bit_flip_matrix(sv.num_qubits, target, marked, on),
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
    rows = _rows(sv, on.indices)
    moved = np.empty_like(rows)
    moved[arr] = rows
    out = _from_rows(moved, sv.num_qubits, on.indices)
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
    keep = np.flatnonzero(p > floor)
    width = f"0{sv.num_qubits}b"
    return {format(i, width): x for i, x in zip(keep.tolist(), p[keep].tolist())}


def sample(sv: Statevector, shots: int, seed) -> dict[str, int]:
    """Multinomial measurement histogram, keyed by textual label.

    A pure function of (state, shots, seed): repeated calls agree bit for bit.
    """
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    p = probabilities(sv)
    p = p / p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    keep = np.flatnonzero(counts)
    width = f"0{sv.num_qubits}b"
    return {format(i, width): c for i, c in zip(keep.tolist(), counts[keep].tolist())}


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
    # part[0] as the top row bit: the SVD sees the rows in this order
    singular = np.linalg.svd(_rows(sv, part.indices[::-1]), compute_uv=False)
    return float(np.sum(singular**4))


def marginal_distribution(sv: Statevector, on: QubitSet | Sequence[int]) -> np.ndarray:
    """Probability of every pattern of the ``on`` bits, indexed by pattern."""
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    return np.sum(np.abs(_rows(sv, on.indices)) ** 2, axis=1)


def marginal_probability(
    sv: Statevector, on: QubitSet | Sequence[int], pattern: int
) -> float:
    """Probability that measuring the ``on`` bits yields the given pattern."""
    on = _as_qubitset(on)
    if not 0 <= pattern < 2 ** len(on):
        raise ConfigurationError(f"pattern {pattern} outside width {len(on)}")
    return float(marginal_distribution(sv, on)[pattern])


# ---------------------------------------------------------------------------
# dense reference constructions: basis-index arithmetic, sharing no index
# code with the kernels above

def _subpattern(indices: np.ndarray, on: QubitSet) -> np.ndarray:
    """Bits of each basis index at the given positions, packed little-endian."""
    sub = np.zeros_like(indices)
    for j, q in enumerate(on.indices):
        sub |= ((indices >> q) & 1) << j
    return sub


def dense_phase_flip_matrix(
    num_qubits: int, marked: np.ndarray, on: QubitSet | Sequence[int]
) -> np.ndarray:
    on = _as_qubitset(on)
    marked = _checked_mask(marked, on)
    idx = np.arange(2**num_qubits)
    signs = np.where(marked[_subpattern(idx, on)], -1.0, 1.0)
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
    marked: np.ndarray,
    on: QubitSet | Sequence[int],
) -> np.ndarray:
    on = _as_qubitset(on)
    marked = _checked_mask(marked, on)
    idx = np.arange(2**num_qubits)
    dest = np.where(marked[_subpattern(idx, on)], idx ^ (1 << target), idx)
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
