"""Dense statevector simulation for registers of up to 20 qubits.

Basis indexing is little-endian: qubit q is bit q of the basis index, and
textual labels therefore print qubit m-1 first. An oracle reaches a kernel
as a boolean mask over the sub-patterns of the qubits it reads, and every
kernel and read-out takes those qubits as one ``QubitSet``. A simulated
state lives in one writable ``Register``: each strategy opens one (uniform,
or from amplitudes it has filled), every kernel updates that register's
array in place and returns it, and the strategy freezes it once into the
read-only Statevector that the read-outs take. Read-outs stay arrays
indexed by basis index: ``sample`` returns one count per index, and a
measured pattern stays that index, so a label is formatted only where a
report needs it.

The kernels and the sub-pattern read-outs share one run view: a reshape
of the amplitudes, without a copy, with one axis per run of consecutive
qubits in ``on`` or not, its shape worked out once per width and qubit
set. A sub-pattern indexes the ``on`` axes, one bit
field per run, so a phase flip negates only the sub-patterns it marks,
and a diffusion takes its mean over the ``on`` axes and overwrites the
register with its result. An index map and a bit flip move sub-patterns
through one helper (``_move``); the bit flip swaps each marked pattern of
``on`` and the target together, target bit 0, with the same pattern at 1.
A register is norm-checked once per round, by the loop, after the round's
diffusion, and again when it is frozen. Flips, swaps and index maps only
negate or move amplitudes, so that one check still sees a fault from any
kernel of the round.

A register keeps a norm: 1 for a state, less for a fiber. A stage that
starts uniform and acts only on the lowest k of m qubits runs on one
fiber (``uniform_fiber``): a k-qubit register whose entries are the
1/sqrt(2**m) that ``init_uniform(m)`` writes, so its kept norm is
sqrt(2**k / 2**m). The lower qubits are the innermost axis of the full
register too, so every upper fiber of the full run would see the same
floats in the same order; ``Register.tile`` writes the fiber into each of
them at once, and the m-qubit register it returns holds the full run's
state bit for bit. A fiber is norm-checked against its kept norm, and
only a unit-norm register freezes, so a fiber never becomes a read-out
state.

A Statevector squares its amplitudes once, on first use, into a read-only
probability vector (``probabilities``) that every read-out of the state
shares: ``sample``, ``probability_map``, the histogram and each marginal.
``marginal_distribution`` and ``partition_purity`` view a per-index vector
as a (2**k, rest) matrix whose row p is sub-pattern p (``_rows``: the run
view with the ``on`` axes moved to the front): the marginal sums each row
of the probabilities, and the purity is the squared Frobenius norm of the
amplitude matrix's Gram matrix on its smaller side. One pattern's
probability (``marginal_probability``) is the sum of that pattern's slice
of the probabilities' run view, with no matrix laid out.

Every kernel also has an O(dim) reference, used by the cross-check
context, that computes the same output from basis-index bit arithmetic
instead: a sign per index, a destination per index, or a sum per diffusion
block, moving each run of consecutive qubits as one bit field. The two
routes share no index code, so a fault in either shows as a deviation.
A reference reads a snapshot of the kernel's input: a read-only copy of
the register, checked against the register's kept norm, so a fiber's
references read its k qubits. Its index arrays (the basis indices, the
sub-pattern of each index, the diffusion block of each index) are built
once per active ``KernelCrossCheck`` and key, the register width and the
qubit set, kept read-only and dropped when the context exits.
"""

from __future__ import annotations

import contextvars
import functools
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

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """Born probabilities by basis index: squared once, then read-only."""
        p = np.abs(self.amplitudes) ** 2
        p.flags.writeable = False
        return p


def _check_norm(amps: np.ndarray, kept: float = 1.0) -> None:
    """Raise ValidationError unless the norm is ``kept``, to within a relative NORM_TOL."""
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not math.isfinite(norm) or abs(norm - kept) > NORM_TOL * kept:
        raise ValidationError(
            f"state norm {norm} deviates from {kept:g} beyond {NORM_TOL * kept:g}"
        )


def _fiber_norm(width: int, num_qubits: int) -> float:
    """Norm of the lowest ``width`` qubits' fiber of a uniform ``num_qubits`` state."""
    return math.sqrt(2**width / 2**num_qubits)


class Register:
    """The one writable state a kernel acts on, in place.

    ``Register(num_qubits, amplitudes)`` takes an array the caller already
    owns, without copying it; ``Register.copy_of`` opens one on a copy of a
    Statevector. ``norm`` is the norm the register must keep: 1, or a
    fiber's norm (``uniform_fiber``). A kernel writes into the register's
    array and returns the same register, unchecked; a loop calls
    ``check_norm`` once per round, after the round's diffusion. ``freeze``
    is the one norm-checked hand-off to a Statevector, which takes the
    array without a copy; the register is spent after that.
    """

    __slots__ = ("num_qubits", "amplitudes", "norm")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray, norm: float = 1.0) -> None:
        self.amplitudes = _as_amplitudes(num_qubits, amplitudes)
        self.num_qubits = num_qubits
        self.norm = norm

    @classmethod
    def copy_of(cls, sv: Statevector) -> "Register":
        return cls(sv.num_qubits, sv.amplitudes.copy())

    def check_norm(self) -> None:
        """Raise ValidationError unless the register still has its kept norm."""
        _check_norm(self.amplitudes, self.norm)

    def tile(self, num_qubits: int, out: np.ndarray | None = None) -> "Register":
        """The ``num_qubits``-qubit register this uniform fiber was cut from.

        Every fiber of the lowest ``self.num_qubits`` qubits becomes a copy
        of this one, in one write into ``out`` (or a fresh array), and the
        returned register views that array, with unit kept norm.
        """
        if self.norm != _fiber_norm(self.num_qubits, num_qubits):
            raise ConfigurationError(
                f"a {self.num_qubits}-qubit register of norm {self.norm} is not a "
                f"uniform fiber of {num_qubits} qubits"
            )
        if out is None:
            out = np.empty(_dim(num_qubits), dtype=np.complex128)
        tiled = Register(num_qubits, out)
        tiled.amplitudes.reshape(-1, 2**self.num_qubits)[:] = self.amplitudes
        return tiled

    def freeze(self) -> Statevector:
        if self.norm != 1.0:
            raise ValidationError(
                f"a register of norm {self.norm} is a fiber, not a state; tile it first"
            )
        amps, self.amplitudes = self.amplitudes, None
        return Statevector(self.num_qubits, amps)


def init_uniform(num_qubits: int) -> Register:
    """A register opened in the uniform superposition over all basis states."""
    return uniform_fiber(num_qubits, num_qubits)


def uniform_fiber(num_qubits: int, width: int) -> Register:
    """The lowest ``width`` qubits of ``init_uniform(num_qubits)``, as one fiber.

    A ``width``-qubit register holding the 1/sqrt(2**num_qubits) that
    ``init_uniform(num_qubits)`` writes, of kept norm
    sqrt(2**width / 2**num_qubits); ``tile`` writes it back into the full
    register.
    """
    dim = _dim(num_qubits)
    if not 1 <= width <= num_qubits:
        raise ConfigurationError(f"fiber of {width} qubits outside 1..{num_qubits}")
    amps = np.full(2**width, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return Register(width, amps, _fiber_norm(width, num_qubits))


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
    records, and the enclosing one resumes when it exits. The references'
    index arrays are kept in ``index_arrays`` while the context is active,
    one read-only array per key, and dropped when it exits.
    """

    def __init__(self) -> None:
        self.max_deviation = 0.0
        self.records: list[tuple[str, float]] = []
        self.index_arrays: dict[tuple, np.ndarray] = {}
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "KernelCrossCheck":
        self._token = _ACTIVE_CHECK.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_CHECK.reset(self._token)
        self.index_arrays.clear()

    def record(self, label: str, deviation: float) -> None:
        self.records.append((label, deviation))
        self.max_deviation = max(self.max_deviation, deviation)


def _maybe_crosscheck(
    label: str, sv: Register, reference: Callable[[], np.ndarray]
) -> None:
    check = _ACTIVE_CHECK.get()
    if check is not None:
        check.record(label, float(np.max(np.abs(sv.amplitudes - reference()))))


def _unwritten(sv: Register) -> Register | None:
    """Under an active cross-check, a snapshot of the register before the
    kernel writes it, for the reference to read; None otherwise.

    The snapshot is one read-only copy, checked against the register's
    kept norm, so a fiber's snapshot is a fiber too.
    """
    if _ACTIVE_CHECK.get() is None:
        return None
    amps = sv.amplitudes.copy()
    _check_norm(amps, sv.norm)
    amps.flags.writeable = False
    return Register(sv.num_qubits, amps, sv.norm)


# ---------------------------------------------------------------------------
# kernels: each reshapes the amplitudes, without a copy, into one axis per
# run of consecutive qubits of one kind (in ``on`` or not)

@functools.lru_cache(maxsize=1024)
def _run_view(
    num_qubits: int, on: QubitSet
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Shape of the run view and the ``on`` runs' axes.

    The shape lists the runs highest qubits first, as a C-order reshape of
    the flat amplitudes does. Each ``on`` run is given as (axis, shift,
    width), lowest run first: its axis index is bits shift .. shift+width-1
    of a sub-pattern. Built from ``on`` alone, in O(len(on)), once per
    width and qubit set: every round of a stage reads the same view.
    """
    widths: list[int] = []  # qubits per run, lowest run first
    fields: list[list[int]] = []  # [run, shift, width] per ``on`` run
    free = 0  # lowest qubit not yet in a run
    for j, q in enumerate(on.indices):
        if fields and q == free:
            widths[-1] += 1
            fields[-1][2] += 1
        else:
            if q > free:
                widths.append(q - free)
            fields.append([len(widths), j, 1])
            widths.append(1)
        free = q + 1
    if free < num_qubits:
        widths.append(num_qubits - free)
    last = len(widths) - 1
    shape = tuple(1 << w for w in reversed(widths))
    axes = tuple((last - run, shift, width) for run, shift, width in fields)
    return shape, axes


def _pattern_index(
    ndim: int, axes: tuple[tuple[int, int, int], ...], patterns: np.ndarray | int
) -> tuple:
    """Run-view index of the given sub-patterns, every other axis whole.

    An int pattern gives a basic index, which selects a view, not a copy.
    """
    index: list = [slice(None)] * ndim
    for axis, shift, width in axes:
        index[axis] = (patterns >> shift) & ((1 << width) - 1)
    return tuple(index)


def _move(sv: Register, on: QubitSet, source: np.ndarray, dest: np.ndarray) -> None:
    """Carry the amplitudes of ``on`` sub-patterns source[i] to dest[i]; the
    sources are read as a copy, so the two may overlap, as in a swap."""
    shape, axes = _run_view(sv.num_qubits, on)
    view = sv.amplitudes.reshape(shape)
    view[_pattern_index(len(shape), axes, dest)] = view[_pattern_index(len(shape), axes, source)]


def _checked_mask(marked, on: QubitSet) -> np.ndarray:
    """The oracle mask over the ``on`` sub-patterns, or ConfigurationError."""
    marked = np.asarray(marked)
    if marked.dtype != np.bool_ or marked.shape != (2 ** len(on),):
        raise ConfigurationError(
            f"oracle mask must be bool of shape ({2 ** len(on)},), "
            f"got {marked.dtype} of shape {marked.shape}"
        )
    return marked


def apply_phase_flip(sv: Register, marked: np.ndarray, on: QubitSet) -> Register:
    """Negate amplitudes whose bits at ``on`` form a marked sub-pattern.

    ``marked`` is indexed by the sub-pattern, the int whose bit j is the
    basis index bit at on[j].
    """
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("phase flip needs at least one qubit")
    marked = _checked_mask(marked, on)
    shape, axes = _run_view(sv.num_qubits, on)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    patterns = np.flatnonzero(marked)
    # one marked pattern (a flag qubit, a single solution) negates a view in
    # place; several are gathered, negated and scattered back
    if patterns.size == 1:
        patterns = int(patterns[0])
    view[_pattern_index(len(shape), axes, patterns)] *= -1.0
    _maybe_crosscheck("phase_flip", sv, lambda: dense_phase_flip_matrix(before, marked, on))
    return sv


def apply_diffusion(sv: Register, on: QubitSet) -> Register:
    """Reflect about the mean within the ``on`` sub-register.

    Acts blockwise: for every fixed pattern of the remaining qubits the
    sub-register amplitudes are replaced by (2 * mean - amplitude).
    """
    on.validate_for(sv.num_qubits)
    if len(on) == 0:
        raise ConfigurationError("diffusion needs at least one qubit")
    shape, axes = _run_view(sv.num_qubits, on)
    before = _unwritten(sv)
    view = sv.amplitudes.reshape(shape)
    mean = view.mean(axis=tuple(axis for axis, _, _ in axes), keepdims=True)
    np.subtract(2.0 * mean, view, out=view)
    _maybe_crosscheck("diffusion", sv, lambda: dense_diffusion_matrix(before, on))
    return sv


def apply_conditional_bit_flip(
    sv: Register, target: int, marked: np.ndarray, on: QubitSet
) -> Register:
    """Flip the target qubit where the ``on`` bits form a marked sub-pattern.

    A classical reversible update (an X gate under an oracle control);
    target must not be part of ``on``. With no control qubits the mask has
    one entry, and True flips the target unconditionally.
    """
    on.validate_for(sv.num_qubits)
    if not 0 <= target < sv.num_qubits:
        raise ConfigurationError(f"target qubit {target} outside register")
    if target in on:
        raise ConfigurationError("target qubit may not be among the controls")
    marked = _checked_mask(marked, on)
    before = _unwritten(sv)
    # a swap on the sub-patterns of ``on`` and the target together: each
    # marked pattern with the target bit at 0 trades places with itself at 1
    joint = QubitSet(tuple(sorted((*on.indices, target))))
    bit = joint.indices.index(target)
    patterns = np.flatnonzero(marked)
    low = ((patterns >> bit) << (bit + 1)) | (patterns & ((1 << bit) - 1))
    high = low | (1 << bit)
    _move(sv, joint, np.concatenate((low, high)), np.concatenate((high, low)))
    _maybe_crosscheck(
        "conditional_bit_flip", sv, lambda: dense_bit_flip_matrix(before, target, marked, on)
    )
    return sv


def apply_index_map(sv: Register, mapping: Sequence[int], on: QubitSet) -> Register:
    """Relabel the ``on`` sub-register basis by a bijective mapping."""
    on.validate_for(sv.num_qubits)
    k = len(on)
    arr = np.asarray(mapping, dtype=np.int64)
    if arr.shape != (2**k,) or not np.array_equal(np.sort(arr), np.arange(2**k)):
        raise ValidationError(f"mapping is not a bijection over {2**k} patterns")
    before = _unwritten(sv)
    # only the patterns that move are read and written
    moved = np.flatnonzero(arr != np.arange(2**k))
    _move(sv, on, moved, arr[moved])
    _maybe_crosscheck("index_map", sv, lambda: dense_index_map_matrix(before, mapping, on))
    return sv


def probability_map(sv: Statevector, floor: float = SUPPORT_FLOOR) -> dict[str, float]:
    """Probabilities keyed by textual label, entries below ``floor`` dropped."""
    p = sv.probabilities
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
    p = sv.probabilities
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())


def _rows(sv: Statevector, on: QubitSet, values: np.ndarray | None = None) -> np.ndarray:
    """The amplitudes, or other ``values`` by basis index, as a (2**k, rest)
    matrix; row p is sub-pattern p.

    The kernels' run view with the ``on`` axes moved to the front, highest
    run first, so bit j of p is qubit on.indices[j]. The columns run over
    the other qubits in basis-index order. A view when ``on`` is a run of
    the lowest or the highest qubits; otherwise a C-contiguous copy.
    """
    values = sv.amplitudes if values is None else values
    shape, axes = _run_view(sv.num_qubits, on)
    lead = [axis for axis, _, _ in reversed(axes)]
    return np.moveaxis(values.reshape(shape), lead, range(len(lead))).reshape(2 ** len(on), -1)


def partition_purity(sv: Statevector, part: QubitSet) -> float:
    """Purity of the reduced state on ``part``; 1 means no entanglement.

    The purity is the sum of the fourth powers of the singular values of
    the (2**k, rest) amplitude matrix M, which is ||G||_F^2 with G the Gram
    matrix of M's smaller side: one matrix product and one ``vdot``. No
    permutation of M's rows or columns changes the sum. From 14 qubits up,
    the product's last bits depend on the BLAS thread count.
    """
    part.validate_for(sv.num_qubits)
    if len(part) == 0 or len(part) == sv.num_qubits:
        raise ConfigurationError("partition must be a proper nonempty subset")
    matrix = _rows(sv, part)
    rows, columns = matrix.shape
    gram = matrix.conj().T @ matrix if columns <= rows else matrix @ matrix.conj().T
    return float(np.vdot(gram, gram).real)


def marginal_distribution(sv: Statevector, on: QubitSet) -> np.ndarray:
    """Probability of every pattern of the ``on`` bits, indexed by pattern.

    Row sums of the state's probability vector laid out by ``_rows``: the
    same matrix, and so the same floats, as squaring the laid-out
    amplitudes.
    """
    on.validate_for(sv.num_qubits)
    return np.sum(_rows(sv, on, sv.probabilities), axis=1)


def marginal_probability(sv: Statevector, on: QubitSet, pattern: int) -> float:
    """Probability that measuring the ``on`` bits yields the given pattern.

    The sum of the pattern's slice of the run view of the probability
    vector: a view, so nothing is laid out or copied.
    """
    if not 0 <= pattern < 2 ** len(on):
        raise ConfigurationError(f"pattern {pattern} outside width {len(on)}")
    on.validate_for(sv.num_qubits)
    shape, axes = _run_view(sv.num_qubits, on)
    return float(np.sum(sv.probabilities.reshape(shape)[_pattern_index(len(shape), axes, pattern)]))


# ---------------------------------------------------------------------------
# reference outputs: basis-index arithmetic, sharing no index code with the
# kernels above. Each takes the kernel's input, a Statevector or the
# kernel's snapshot register, and returns the amplitudes the kernel must
# produce, in O(dim) time and memory. The names keep their
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


def _index_array(key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """The references' index array for ``key``, read-only: built once per
    active cross-check, and afresh outside one."""
    check = _ACTIVE_CHECK.get()
    cache = {} if check is None else check.index_arrays
    array = cache.get(key)
    if array is None:
        array = cache[key] = build()
        array.flags.writeable = False
    return array


def _basis_indices(num_qubits: int) -> np.ndarray:
    return _index_array(("basis", num_qubits), lambda: np.arange(2**num_qubits))


def _subpatterns(num_qubits: int, on: QubitSet) -> np.ndarray:
    """The ``on`` sub-pattern of every basis index."""
    return _index_array(
        ("subpattern", num_qubits, on.indices),
        lambda: _subpattern(_basis_indices(num_qubits), on),
    )


def _block_ids(num_qubits: int, on: QubitSet) -> np.ndarray:
    """The diffusion block of every basis index: the index with the ``on``
    bits cleared."""
    mask = sum(1 << q for q in on.indices)
    return _index_array(
        ("block", num_qubits, on.indices), lambda: _basis_indices(num_qubits) & ~mask
    )


def _moved(sv: Statevector | Register, dest: np.ndarray) -> np.ndarray:
    """Amplitudes with basis index i carried to dest[i]."""
    out = np.empty_like(sv.amplitudes)
    out[dest] = sv.amplitudes
    return out


def dense_phase_flip_matrix(
    sv: Statevector | Register, marked: np.ndarray, on: QubitSet
) -> np.ndarray:
    """Reference output of ``apply_phase_flip``: a sign per basis index."""
    marked = _checked_mask(marked, on)
    return np.where(marked[_subpatterns(sv.num_qubits, on)], -1.0, 1.0) * sv.amplitudes


def dense_diffusion_matrix(sv: Statevector | Register, on: QubitSet) -> np.ndarray:
    """Reference output of ``apply_diffusion``: 2 * block mean - amplitude.

    A block is the set of basis indices that agree outside ``on``.
    """
    block = _block_ids(sv.num_qubits, on)
    amps = sv.amplitudes
    dim = amps.size
    sums = np.bincount(block, weights=amps.real, minlength=dim) + 1j * np.bincount(
        block, weights=amps.imag, minlength=dim
    )
    return 2.0 * sums[block] / 2 ** len(on) - amps


def dense_bit_flip_matrix(
    sv: Statevector | Register, target: int, marked: np.ndarray, on: QubitSet
) -> np.ndarray:
    """Reference output of ``apply_conditional_bit_flip``: a destination per index."""
    marked = _checked_mask(marked, on)
    idx = _basis_indices(sv.num_qubits)
    sub = _subpatterns(sv.num_qubits, on)
    return _moved(sv, np.where(marked[sub], idx ^ (1 << target), idx))


def dense_index_map_matrix(
    sv: Statevector | Register, mapping: Sequence[int], on: QubitSet
) -> np.ndarray:
    """Reference output of ``apply_index_map``: a destination per index."""
    arr = np.asarray(mapping, dtype=np.int64)
    sub = _subpatterns(sv.num_qubits, on)
    delta = sub ^ arr[sub]
    dest = _basis_indices(sv.num_qubits).copy()
    for q0, j0, length in _bit_runs(on):
        dest ^= ((delta >> j0) & ((1 << length) - 1)) << q0
    return _moved(sv, dest)
