"""Dense statevector simulation for registers of up to 20 qubits.

Basis indexing is little-endian: qubit q is bit q of the basis index, and
textual labels therefore print qubit m-1 first. An oracle reaches a kernel
as a boolean mask over the sub-patterns of the qubits it reads. A simulated
state lives in one writable ``Register``: each strategy opens one (uniform,
or from amplitudes it has filled), every kernel updates that register's
array in place and returns it, and the strategy freezes it once into the
read-only Statevector that the read-outs take. Read-outs stay arrays
indexed by basis index: ``sample`` returns one count per index, and a
measured pattern stays that index, so a label is formatted only where a
report needs it.

Every kernel addresses its qubits through one run view: a reshape, without
a copy, with one axis per run of consecutive qubits of one kind (in
``on``, the target, or neither). A sub-pattern indexes the ``on`` axes, one
bit field per run, so a phase flip, bit flip or index map reads and writes
only the sub-patterns it marks or moves, and a diffusion takes its mean
over the ``on`` axes and overwrites the register with its result. A
register is norm-checked once per round, by the loop, after the round's
diffusion, and again when it is frozen. Flips, swaps and index maps only
negate or move amplitudes, so that one check still sees a fault from any
kernel of the round. The read-outs ``marginal_distribution`` and
``partition_purity`` instead view the amplitudes as a (2**k, rest) matrix
whose row p is sub-pattern p (``_rows``): the marginal sums each row, and
the purity is the squared Frobenius norm of that matrix's Gram matrix on
its smaller side.

Every kernel also has an O(dim) reference, used by the cross-check
context, that computes the same output from basis-index bit arithmetic
instead: a sign per index, a destination per index, or a sum per diffusion
block, moving each run of consecutive qubits as one bit field. The two
routes share no index code, so a fault in either shows as a deviation.
"""

from __future__ import annotations

import bisect
import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError

MAX_QUBITS = 20
NORM_TOL = 1e-9
# probabilities at or below this are left out of a label-keyed read-out
SUPPORT_FLOOR = 1e-12


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


def _dim(num_qubits: int) -> int:
    """2**num_qubits, or ConfigurationError outside 1..MAX_QUBITS."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"register size must be in 1..{MAX_QUBITS}, got {num_qubits}")
    return 2**num_qubits


def _as_amplitudes(num_qubits: int, amplitudes) -> np.ndarray:
    """The amplitudes as a complex array of one entry per basis index."""
    dim = _dim(num_qubits)
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (dim,):
        raise ConfigurationError(f"expected {dim} amplitudes, got shape {amps.shape}")
    return amps


@dataclass(frozen=True)
class Statevector:
    """A norm-checked state the read-outs take; its amplitudes are read-only."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _as_amplitudes(self.num_qubits, self.amplitudes)
        _check_norm(amps)
        # a read-only view: a kernel given a Statevector raises instead of
        # writing it, while the array's owner may still write its own
        amps = amps.view()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


def _check_norm(amps: np.ndarray) -> None:
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")


class Register:
    """The one writable state a kernel acts on, in place.

    ``Register(num_qubits, amplitudes)`` takes an array the caller already
    owns, without copying it; ``Register.copy_of`` opens one on a copy of a
    Statevector. A kernel writes into the register's array and returns the
    same register, unchecked; a loop calls ``check_norm`` once per round,
    after the round's diffusion. ``freeze`` is the one norm-checked hand-off
    to a Statevector, which takes the array without a copy; the register is
    spent after that.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        self.amplitudes = _as_amplitudes(num_qubits, amplitudes)
        self.num_qubits = num_qubits

    @classmethod
    def copy_of(cls, sv: Statevector) -> "Register":
        return cls(sv.num_qubits, sv.amplitudes.copy())

    def check_norm(self) -> None:
        """Raise ValidationError unless the register still has unit norm."""
        _check_norm(self.amplitudes)

    def freeze(self) -> Statevector:
        amps, self.amplitudes = self.amplitudes, None
        return Statevector(self.num_qubits, amps)


def init_uniform(num_qubits: int) -> Register:
    """A register opened in the uniform superposition over all basis states."""
    dim = _dim(num_qubits)
    return Register(num_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def basis_state(num_qubits: int, index: int) -> Statevector:
    dim = _dim(num_qubits)
    if not 0 <= index < dim:
        raise ConfigurationError(f"basis index {index} outside register")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


# ---------------------------------------------------------------------------
# cross-check context: every kernel application is compared with its
# reference output while a check is active.

_ACTIVE_CHECK: contextvars.ContextVar["KernelCrossCheck | None"] = contextvars.ContextVar(
    "qtreesearch_kernel_check", default=None
)


class KernelCrossCheck:
    """Context that compares each fast kernel against its O(dim) reference.

    Every kernel call inside the context is checked, on any register the
    simulator can hold. Deviations are recorded per operation and
    summarized in ``max_deviation``. Contexts nest: the innermost one
    records, and the enclosing one resumes when it exits.
    """

    def __init__(self) -> None:
        self.max_deviation = 0.0
        self.records: list[tuple[str, float]] = []
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "KernelCrossCheck":
        self._token = _ACTIVE_CHECK.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_CHECK.reset(self._token)

    def record(self, label: str, deviation: float) -> None:
        self.records.append((label, deviation))
        self.max_deviation = max(self.max_deviation, deviation)


def _maybe_crosscheck(
    label: str, sv: Register, reference: Callable[[], np.ndarray]
) -> None:
    check = _ACTIVE_CHECK.get()
    if check is not None:
        check.record(label, float(np.max(np.abs(sv.amplitudes - reference()))))


def _unwritten(sv: Register) -> Statevector | None:
    """Under an active cross-check, a snapshot of the register before the
    kernel writes it, for the reference to read; None otherwise."""
    if _ACTIVE_CHECK.get() is None:
        return None
    return Statevector(sv.num_qubits, sv.amplitudes.copy())


# ---------------------------------------------------------------------------
# kernels: each reshapes the amplitudes, without a copy, into one axis per
# run of consecutive qubits of one kind (in ``on``, the target, or neither)

def _run_view(
    num_qubits: int, on: QubitSet, target: int | None = None
) -> tuple[tuple[int, ...], list[tuple[int, int, int]], int | None]:
    """Shape of the run view, the ``on`` runs' axes, and the target's axis.

    The shape lists the runs highest qubits first, as a C-order reshape of
    the flat amplitudes does. Each ``on`` run is given as (axis, shift,
    width): its axis index is bits shift .. shift+width-1 of a sub-pattern.
    Built from ``on`` and the target alone, in O(len(on)).
    """
    marks = [(q, j) for j, q in enumerate(on.indices)]
    if target is not None:
        bisect.insort(marks, (target, -1))
    widths: list[int] = []  # qubits per run, lowest run first
    fields: list[list[int]] = []  # [run, shift, width] per ``on`` run
    target_run = None
    free = 0  # lowest qubit not yet in a run
    for q, j in marks:
        if q > free:
            widths.append(q - free)
        if j < 0:
            target_run = len(widths)
            widths.append(1)
        elif fields and q == free and fields[-1][0] == len(widths) - 1:
            widths[-1] += 1
            fields[-1][2] += 1
        else:
            fields.append([len(widths), j, 1])
            widths.append(1)
        free = q + 1
    if free < num_qubits:
        widths.append(num_qubits - free)
    last = len(widths) - 1
    shape = tuple(1 << w for w in reversed(widths))
    axes = [(last - run, shift, width) for run, shift, width in fields]
    return shape, axes, None if target_run is None else last - target_run


def _pattern_index(
    ndim: int, axes: list[tuple[int, int, int]], patterns: np.ndarray | int
) -> list:
    """Run-view index of the given sub-patterns, every other axis whole.

    An int pattern gives a basic index, which selects a view, not a copy.
    """
    index: list = [slice(None)] * ndim
    for axis, shift, width in axes:
        index[axis] = (patterns >> shift) & ((1 << width) - 1)
    return index


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
    sv: Register, marked: np.ndarray, on: QubitSet | Sequence[int]
) -> Register:
    """Negate amplitudes whose bits at ``on`` form a marked sub-pattern.

    ``marked`` is indexed by the sub-pattern, the int whose bit j is the
    basis index bit at on[j].
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("phase flip needs at least one qubit")
    marked = _checked_mask(marked, on)
    shape, axes, _ = _run_view(sv.num_qubits, on)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    patterns = np.flatnonzero(marked)
    # one marked pattern (a flag qubit, a single solution) negates a view in
    # place; several are gathered, negated and scattered back
    if patterns.size == 1:
        patterns = int(patterns[0])
    view[tuple(_pattern_index(len(shape), axes, patterns))] *= -1.0
    _maybe_crosscheck("phase_flip", sv, lambda: dense_phase_flip_matrix(before, marked, on))
    return sv


def apply_diffusion(sv: Register, on: QubitSet | Sequence[int]) -> Register:
    """Reflect about the mean within the ``on`` sub-register.

    Acts blockwise: for every fixed pattern of the remaining qubits the
    sub-register amplitudes are replaced by (2 * mean - amplitude).
    """
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("diffusion needs at least one qubit")
    shape, axes, _ = _run_view(sv.num_qubits, on)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    mean = view.mean(axis=tuple(axis for axis, _, _ in axes), keepdims=True)
    np.subtract(2.0 * mean, view, out=view)
    _maybe_crosscheck("diffusion", sv, lambda: dense_diffusion_matrix(before, on))
    return sv


def apply_conditional_bit_flip(
    sv: Register,
    target: int,
    marked: np.ndarray,
    on: QubitSet | Sequence[int],
) -> Register:
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
    shape, axes, target_axis = _run_view(sv.num_qubits, on, target)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    patterns = np.flatnonzero(marked)
    # the target is indexed by an array even with no controls, so both
    # reads below are copies and the swap cannot alias
    low = _pattern_index(len(shape), axes, patterns)
    high = list(low)
    low[target_axis] = np.zeros_like(patterns)
    high[target_axis] = np.ones_like(patterns)
    low, high = tuple(low), tuple(high)
    view[low], view[high] = view[high], view[low]
    _maybe_crosscheck(
        "conditional_bit_flip", sv, lambda: dense_bit_flip_matrix(before, target, marked, on)
    )
    return sv


def apply_index_map(
    sv: Register, mapping: Sequence[int], on: QubitSet | Sequence[int]
) -> Register:
    """Relabel the ``on`` sub-register basis by a bijective mapping."""
    on = _as_qubitset(on)
    on.validate_for(sv.num_qubits)
    k = len(on)
    arr = np.asarray(mapping, dtype=np.int64)
    if arr.shape != (2**k,) or not np.array_equal(np.sort(arr), np.arange(2**k)):
        raise ValidationError(f"mapping is not a bijection over {2**k} patterns")
    shape, axes, _ = _run_view(sv.num_qubits, on)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    # only the patterns that move are read (as a copy) and written
    moved = np.flatnonzero(arr != np.arange(2**k))
    source = tuple(_pattern_index(len(shape), axes, moved))
    view[tuple(_pattern_index(len(shape), axes, arr[moved]))] = view[source]
    _maybe_crosscheck("index_map", sv, lambda: dense_index_map_matrix(before, mapping, on))
    return sv


def probabilities(sv: Statevector) -> np.ndarray:
    """Born probabilities indexed by basis index."""
    return np.abs(sv.amplitudes) ** 2


def probability_map(sv: Statevector, floor: float = SUPPORT_FLOOR) -> dict[str, float]:
    """Probabilities keyed by textual label, entries below ``floor`` dropped."""
    p = probabilities(sv)
    keep = np.flatnonzero(p > floor)
    width = f"0{sv.num_qubits}b"
    return {format(i, width): x for i, x in zip(keep.tolist(), p[keep].tolist())}


def sample(sv: Statevector, shots: int, seed) -> np.ndarray:
    """Multinomial measurement counts, indexed by basis index.

    Returns an int array of length ``sv.dim`` summing to ``shots``. A pure
    function of (state, shots, seed): repeated calls agree bit for bit.
    """
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    p = probabilities(sv)
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())


def _row_axes(num_qubits: int, order: Sequence[int]) -> list[int]:
    # qubit q is axis m-1-q of the (2,)*m tensor; order[-1] leads, and the
    # other axes keep their order behind the leading ones
    lead = [num_qubits - 1 - q for q in reversed(order)]
    return lead + [a for a in range(num_qubits) if a not in lead]


def _rows(sv: Statevector, order: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (2**k, rest) matrix; row p is sub-pattern p.

    Bit j of p is qubit order[j]. The columns run over the other qubits in
    basis-index order. A view when ``order`` is a run of the lowest or the
    highest qubits in increasing order; otherwise a transposed copy.
    """
    tensor = sv.amplitudes.reshape((2,) * sv.num_qubits)
    return tensor.transpose(_row_axes(sv.num_qubits, order)).reshape(2 ** len(order), -1)


def partition_purity(sv: Statevector, part: QubitSet | Sequence[int]) -> float:
    """Purity of the reduced state on ``part``; 1 means no entanglement.

    The purity is the sum of the fourth powers of the singular values of
    the (2**k, rest) amplitude matrix M, which is ||G||_F^2 with G the Gram
    matrix of M's smaller side: one matrix product and one ``vdot``. No
    permutation of M's rows or columns changes the sum. From 14 qubits up,
    the product's last bits depend on the BLAS thread count.
    """
    part = _as_qubitset(part)
    part.validate_for(sv.num_qubits)
    if len(part) == 0 or len(part) == sv.num_qubits:
        raise ConfigurationError("partition must be a proper nonempty subset")
    matrix = _rows(sv, part.indices)
    rows, columns = matrix.shape
    gram = matrix.conj().T @ matrix if columns <= rows else matrix @ matrix.conj().T
    return float(np.vdot(gram, gram).real)


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
# reference outputs: basis-index arithmetic, sharing no index code with the
# kernels above. Each takes the kernel's input and returns the amplitudes
# the kernel must produce, in O(dim) time and memory. The names keep their
# old `_matrix` suffix because bench/tracing.py wraps them by name.

def _bit_runs(on: QubitSet) -> list[tuple[int, int, int]]:
    """(first qubit, first sub-pattern bit, length) of each run of
    consecutive qubits in ``on``; a run moves as one bit field."""
    runs: list[tuple[int, int, int]] = []
    for j, q in enumerate(on.indices):
        if runs and runs[-1][0] + runs[-1][2] == q:
            q0, j0, length = runs[-1]
            runs[-1] = (q0, j0, length + 1)
        else:
            runs.append((q, j, 1))
    return runs


def _subpattern(indices: np.ndarray, on: QubitSet) -> np.ndarray:
    """Bits of each basis index at the given positions, packed little-endian."""
    sub = np.zeros_like(indices)
    for q0, j0, length in _bit_runs(on):
        sub |= ((indices >> q0) & ((1 << length) - 1)) << j0
    return sub


def _moved(sv: Statevector, dest: np.ndarray) -> np.ndarray:
    """Amplitudes with basis index i carried to dest[i]."""
    out = np.empty_like(sv.amplitudes)
    out[dest] = sv.amplitudes
    return out


def dense_phase_flip_matrix(
    sv: Statevector, marked: np.ndarray, on: QubitSet | Sequence[int]
) -> np.ndarray:
    """Reference output of ``apply_phase_flip``: a sign per basis index."""
    on = _as_qubitset(on)
    marked = _checked_mask(marked, on)
    idx = np.arange(sv.dim)
    return np.where(marked[_subpattern(idx, on)], -1.0, 1.0) * sv.amplitudes


def dense_diffusion_matrix(sv: Statevector, on: QubitSet | Sequence[int]) -> np.ndarray:
    """Reference output of ``apply_diffusion``: 2 * block mean - amplitude.

    A block is the set of basis indices that agree outside ``on``; its id
    is the index with the ``on`` bits cleared.
    """
    on = _as_qubitset(on)
    idx = np.arange(sv.dim)
    mask = 0
    for q in on.indices:
        mask |= 1 << q
    block = idx & ~mask
    amps = sv.amplitudes
    sums = np.bincount(block, weights=amps.real, minlength=sv.dim) + 1j * np.bincount(
        block, weights=amps.imag, minlength=sv.dim
    )
    return 2.0 * sums[block] / 2 ** len(on) - amps


def dense_bit_flip_matrix(
    sv: Statevector,
    target: int,
    marked: np.ndarray,
    on: QubitSet | Sequence[int],
) -> np.ndarray:
    """Reference output of ``apply_conditional_bit_flip``: a destination per index."""
    on = _as_qubitset(on)
    marked = _checked_mask(marked, on)
    idx = np.arange(sv.dim)
    return _moved(sv, np.where(marked[_subpattern(idx, on)], idx ^ (1 << target), idx))


def dense_index_map_matrix(
    sv: Statevector, mapping: Sequence[int], on: QubitSet | Sequence[int]
) -> np.ndarray:
    """Reference output of ``apply_index_map``: a destination per index."""
    on = _as_qubitset(on)
    arr = np.asarray(mapping, dtype=np.int64)
    idx = np.arange(sv.dim)
    sub = _subpattern(idx, on)
    delta = sub ^ arr[sub]
    dest = idx.copy()
    for q0, j0, length in _bit_runs(on):
        dest ^= ((delta >> j0) & ((1 << length) - 1)) << q0
    return _moved(sv, dest)
