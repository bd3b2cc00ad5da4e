"""Kernel checks against independently built dense matrices.

The reference route here is deliberately different from the library's own
reference outputs: matrices are assembled with np.kron in MSB-first factor
order, so an agreement failure flags a convention drift, not a shared bug.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtreesearch.errors import ConfigurationError, ValidationError
from qtreesearch import statevector as svmod
from qtreesearch.statevector import (
    KernelCrossCheck,
    Register,
    Statevector,
    apply_conditional_bit_flip,
    apply_diffusion,
    apply_index_map,
    apply_phase_flip,
    basis_state,
    init_uniform,
    marginal_distribution,
    marginal_probability,
    partition_purity,
    probability_map,
    qubit_range,
    qubits,
    sample,
)

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
# oracle mask of one control qubit, marking the sub-pattern 1
ONE = np.array([False, True])
I2 = np.eye(2, dtype=np.complex128)


def kron_chain(*factors):
    """MSB-first product: the first factor acts on the highest qubit."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(num_qubits, amps)


# a kernel acts on a register: each one here is opened on a copy of a
# Statevector, which the test keeps as the kernel's input
opened = Register.copy_of


class TestConstruction:
    def test_uniform_amplitudes(self):
        sv = init_uniform(3)
        assert np.allclose(sv.amplitudes, 1 / math.sqrt(8))

    def test_basis_state(self):
        sv = basis_state(2, 2)
        assert probability_map(sv) == {"10": 1.0}

    def test_rejects_bad_norm(self):
        with pytest.raises(ValidationError):
            Statevector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_rejects_a_non_finite_norm(self, bad):
        # a NaN norm compares False against any tolerance, so it is refused
        # by name rather than by its distance from 1
        with pytest.raises(ValidationError, match="norm"):
            Statevector(2, np.array([0.5, bad, 0.5, 0.5]))

    @pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
    def test_rejects_a_norm_off_by_a_millionth(self, factor):
        amps = random_state(6, 1).amplitudes * factor
        with pytest.raises(ValidationError, match="norm"):
            Statevector(6, amps)
        # rounding noise well inside the tolerance passes
        Statevector(6, random_state(6, 1).amplitudes * (1 + 1e-12))

    def test_rejects_oversized_register(self):
        with pytest.raises(ConfigurationError):
            init_uniform(21)
        with pytest.raises(ConfigurationError):
            Register(21, np.zeros(2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            Statevector(2, np.ones(3) / math.sqrt(3))
        with pytest.raises(ConfigurationError):
            Register(2, np.ones(3) / math.sqrt(3))


class TestConventions:
    def test_qubit_one_is_the_left_character(self):
        # X on qubit 1 of |00> must land on the label "10", matching
        # kron(X, I) acting on index 0 in MSB-first factor order.
        sv = basis_state(2, 0)
        flipped = apply_conditional_bit_flip(
            opened(sv), target=1, marked=np.array([True]), on=qubits()
        ).freeze()
        assert probability_map(flipped) == {"10": 1.0}
        dense = kron_chain(X, I2) @ sv.amplitudes
        assert np.allclose(flipped.amplitudes, dense)

    def test_qubit_zero_is_the_right_character(self):
        sv = basis_state(2, 0)
        flipped = apply_conditional_bit_flip(
            opened(sv), target=0, marked=np.array([True]), on=qubits()
        ).freeze()
        assert probability_map(flipped) == {"01": 1.0}
        dense = kron_chain(I2, X) @ sv.amplitudes
        assert np.allclose(flipped.amplitudes, dense)


class TestPhaseFlip:
    def test_single_marked_state(self):
        sv = init_uniform(2)
        out = apply_phase_flip(sv, np.arange(4) == 0b11, qubits(0, 1))
        expected = np.array([1, 1, 1, -1]) / 2
        assert np.allclose(out.amplitudes, expected)

    def test_subregister_predicate_reads_low_bits(self):
        # flipping on qubit 0 == 1 negates every odd basis index
        sv = init_uniform(3)
        out = apply_phase_flip(sv, ONE, qubits(0))
        signs = np.array([1, -1] * 4)
        assert np.allclose(out.amplitudes, signs / math.sqrt(8))

    def test_noncontiguous_pattern_reads_on0_as_bit0(self):
        # sub-pattern 0b01 on qubits (0, 2): qubit 0 reads 1, qubit 2 reads 0,
        # which holds for basis indices 0b001 and 0b011 only
        sv = random_state(3, seed=21)
        out = apply_phase_flip(opened(sv), np.arange(4) == 0b01, qubits(0, 2))
        expected = sv.amplitudes.copy()
        expected[[0b001, 0b011]] *= -1
        assert np.array_equal(out.amplitudes, expected)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_involution(self, m, seed):
        sv = random_state(m, seed)
        marked = np.arange(2**m) == seed % (2**m)
        on = qubit_range(0, m)
        twice = apply_phase_flip(apply_phase_flip(opened(sv), marked, on), marked, on)
        assert np.allclose(twice.amplitudes, sv.amplitudes)


class TestOracleMask:
    # one qubit of control: the mask needs exactly two bool entries
    BAD_MASKS = {
        "too_short": np.array([True]),
        "too_long": np.zeros(4, dtype=bool),
        "int_dtype": np.array([0, 1]),
        "float_dtype": np.array([0.0, 1.0]),
        "two_dimensional": np.array([[False, True]]),
    }

    @pytest.mark.parametrize("name", sorted(BAD_MASKS))
    def test_phase_flip_rejects(self, name):
        with pytest.raises(ConfigurationError):
            apply_phase_flip(init_uniform(2), self.BAD_MASKS[name], qubits(0))

    @pytest.mark.parametrize("name", sorted(BAD_MASKS))
    def test_conditional_bit_flip_rejects(self, name):
        with pytest.raises(ConfigurationError):
            apply_conditional_bit_flip(init_uniform(2), 1, self.BAD_MASKS[name], qubits(0))

    @pytest.mark.parametrize("name", sorted(BAD_MASKS))
    def test_dense_mirrors_reject(self, name):
        sv = init_uniform(2).freeze()
        with pytest.raises(ConfigurationError):
            svmod.dense_phase_flip_matrix(sv, self.BAD_MASKS[name], qubits(0))
        with pytest.raises(ConfigurationError):
            svmod.dense_bit_flip_matrix(sv, 1, self.BAD_MASKS[name], qubits(0))


class TestDiffusion:
    def test_uniform_state_is_fixed(self):
        out = apply_diffusion(init_uniform(3), qubit_range(0, 3))
        assert np.allclose(out.amplitudes, 1 / math.sqrt(8))

    def test_two_qubit_search_is_exact(self):
        # one marked state in four: a single flip+diffuse round succeeds
        # with certainty
        sv = init_uniform(2)
        sv = apply_phase_flip(sv, np.arange(4) == 0b10, qubits(0, 1))
        sv = apply_diffusion(sv, qubits(0, 1))
        assert probability_map(sv.freeze())["10"] == pytest.approx(1.0)

    def test_low_block_matches_kron(self):
        sv = random_state(4, seed=7)
        out = apply_diffusion(opened(sv), qubits(0, 1))
        d2 = 2 * np.full((4, 4), 0.25) - np.eye(4)
        dense = kron_chain(I2, I2, d2) @ sv.amplitudes
        assert np.allclose(out.amplitudes, dense)

    def test_high_block_matches_kron(self):
        sv = random_state(4, seed=8)
        out = apply_diffusion(opened(sv), qubits(2, 3))
        d2 = 2 * np.full((4, 4), 0.25) - np.eye(4)
        dense = kron_chain(d2, I2, I2) @ sv.amplitudes
        assert np.allclose(out.amplitudes, dense)

    def test_noncontiguous_block(self):
        # hand-built entrywise: <x|D|y> couples x,y agreeing outside {0,2}
        sv = random_state(3, seed=9)
        out = apply_diffusion(opened(sv), qubits(0, 2))
        dense = np.zeros((8, 8), dtype=np.complex128)
        for x in range(8):
            for y in range(8):
                if (x & 0b010) == (y & 0b010):
                    dense[x, y] += 2 / 4
            dense[x, x] -= 1
        assert np.allclose(out.amplitudes, dense @ sv.amplitudes)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_preserves_norm(self, m, seed):
        out = apply_diffusion(opened(random_state(m, seed)), qubit_range(0, m))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)


class TestConditionalBitFlip:
    def test_cnot(self):
        # control qubit 0, target qubit 1: |01> -> |11>
        sv = opened(basis_state(2, 0b01))
        out = apply_conditional_bit_flip(sv, target=1, marked=ONE, on=qubits(0))
        assert probability_map(out.freeze()) == {"11": 1.0}

    def test_control_zero_does_nothing(self):
        sv = opened(basis_state(2, 0b00))
        out = apply_conditional_bit_flip(sv, target=1, marked=ONE, on=qubits(0))
        assert probability_map(out.freeze()) == {"00": 1.0}

    def test_noncontiguous_pattern_reads_on0_as_bit0(self):
        # target qubit 1 between controls (0, 2), sub-pattern 0b01: only the
        # pair 0b001 <-> 0b011 trades amplitudes
        sv = random_state(3, seed=22)
        out = apply_conditional_bit_flip(opened(sv), 1, np.arange(4) == 0b01, qubits(0, 2))
        expected = sv.amplitudes.copy()
        expected[[0b001, 0b011]] = sv.amplitudes[[0b011, 0b001]]
        assert np.array_equal(out.amplitudes, expected)

    def test_target_among_controls_rejected(self):
        sv = init_uniform(2)
        with pytest.raises(ConfigurationError):
            apply_conditional_bit_flip(sv, target=0, marked=np.array([True, True]), on=qubits(0))

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_involution(self, m, seed):
        sv = random_state(m, seed)
        on = qubit_range(0, m - 1)
        marked = (np.arange(2 ** (m - 1)) * 2654435761 + seed) % 3 == 0
        once = apply_conditional_bit_flip(opened(sv), m - 1, marked, on)
        twice = apply_conditional_bit_flip(once, m - 1, marked, on)
        assert np.allclose(twice.amplitudes, sv.amplitudes)


class TestIndexMap:
    def test_swap_two_patterns(self):
        # exchange lower patterns 01 and 10 inside a 3-qubit register
        mapping = [0, 2, 1, 3]
        sv = opened(basis_state(3, 0b101))
        out = apply_index_map(sv, mapping, qubits(0, 1))
        assert probability_map(out.freeze()) == {"110": 1.0}

    def test_noncontiguous_asymmetric_mapping(self):
        # on qubits (0, 2) the mapping sends sub-pattern 0->0, 1->2, 2->3,
        # 3->1; reversing the sub-pattern bits would send 1 to 3 instead.
        # Qubit 1 is carried along untouched.
        destination = {
            0b000: "000", 0b001: "100", 0b100: "101", 0b101: "001",
            0b010: "010", 0b011: "110", 0b110: "111", 0b111: "011",
        }
        for source, label in destination.items():
            out = apply_index_map(opened(basis_state(3, source)), [0, 2, 3, 1], qubits(0, 2))
            assert probability_map(out.freeze()) == {label: 1.0}, source

    @pytest.mark.parametrize(
        "mapping",
        [
            [0, 0, 1, 2],  # a duplicate
            [0, 1, 2, 4],  # a value of 2**k
            [0, 1, 3, -1],  # a negative value
            [0, 1, 2],  # too short
            [0, 1, 2, 3, 0],  # too long
            [[0, 1], [2, 3]],  # the right values in the wrong shape
        ],
    )
    def test_rejects_non_bijection(self, mapping):
        sv = init_uniform(2)
        with pytest.raises(ValidationError):
            apply_index_map(sv, mapping, qubits(0, 1))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**10))
    def test_permutation_preserves_norm(self, m, seed):
        rng = np.random.default_rng(seed)
        mapping = rng.permutation(2**m).tolist()
        sv = random_state(m, seed + 1)
        out = apply_index_map(opened(sv), mapping, qubit_range(0, m))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)
        # amplitudes are relocated, never altered
        assert np.allclose(np.sort_complex(out.amplitudes), np.sort_complex(sv.amplitudes))


class TestMeasurement:
    def test_probabilities_sum_to_one(self):
        sv = random_state(4, seed=3)
        assert sv.probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_are_one_read_only_vector(self):
        sv = random_state(4, seed=3)
        assert sv.probabilities is sv.probabilities
        with pytest.raises(ValueError):
            sv.probabilities[0] = 0.5

    @given(
        st.integers(1, 12).flatmap(
            lambda m: st.tuples(
                st.just(m), st.sets(st.integers(0, m - 1)), st.integers(0, 2**32 - 1)
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_marginal_equals_the_squared_amplitude_rows_bit_for_bit(self, case):
        m, chosen, seed = case
        sv = random_state(m, seed)
        on = qubits(*sorted(chosen))
        # the amplitudes laid out by ``_rows``, squared, then summed per row
        reference = np.sum(np.abs(svmod._rows(sv, on)) ** 2, axis=1)
        assert np.array_equal(marginal_distribution(sv, on), reference)

    def test_sample_is_reproducible(self):
        sv = init_uniform(3).freeze()
        a = sample(sv, shots=500, seed=11)
        b = sample(sv, shots=500, seed=11)
        assert np.array_equal(a, b)
        assert a.shape == (8,)
        assert int(a.sum()) == 500

    def test_sample_only_support(self):
        sv = basis_state(3, 0b101)
        counts = sample(sv, shots=64, seed=0)
        assert counts.tolist() == [0, 0, 0, 0, 0, 64, 0, 0]

    def test_labels_match_the_per_index_reference(self):
        # same entries, in the same (ascending index) order, as one loop over
        # every basis index
        sv = random_state(5, seed=4)
        p = sv.probabilities
        expected = [(format(i, "05b"), float(p[i])) for i in range(32) if p[i] > 1e-12]
        assert list(probability_map(sv).items()) == expected
        counts = np.random.default_rng(2).multinomial(100, p / p.sum())
        assert sample(sv, 100, seed=2).tolist() == counts.tolist()

    def test_marginal_probability(self):
        bell = Statevector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert marginal_probability(bell, qubits(0), 0) == pytest.approx(0.5)
        assert marginal_probability(bell, qubits(0, 1), 0b11) == pytest.approx(0.5)

    def test_marginal_on_noncontiguous_qubits(self):
        # sub-pattern 0b01 on qubits (0, 2) is held by basis indices 0b001
        # and 0b011
        sv = random_state(3, seed=23)
        p = sv.probabilities
        assert marginal_probability(sv, qubits(0, 2), 0b01) == pytest.approx(p[1] + p[3])
        dist = marginal_distribution(sv, qubits(0, 2))
        assert dist == pytest.approx([p[0] + p[2], p[1] + p[3], p[4] + p[6], p[5] + p[7]])


@st.composite
def purity_cases(draw):
    """A state of 2 to 14 qubits and a cut of its lowest or highest
    qubits, of a run between them, or of scattered qubits; the cut may be
    wider than its complement. Half the states are a product across the
    cut, whose purity is 1."""
    n = draw(st.integers(2, 14))
    k = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["lowest", "highest", "run", "scattered"]))
    if kind == "lowest":
        cut = range(k)
    elif kind == "highest":
        cut = range(n - k, n)
    elif kind == "run":
        start = draw(st.integers(0, n - k))
        cut = range(start, start + k)
    else:
        cut = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)))
    part = qubits(*cut)
    seed = draw(st.integers(0, 2**32 - 1))
    if not draw(st.booleans()):
        return random_state(n, seed), part
    # a product of a state on the cut and one on the rest, each placed
    # by its qubits' bits
    inside, outside = random_state(len(part), seed), random_state(n - len(part), seed + 1)
    rest = [q for q in range(n) if q not in part]
    index = np.arange(2**n)
    amps = inside.amplitudes[svmod._subpattern(index, part)] * outside.amplitudes[
        svmod._subpattern(index, qubits(*rest))
    ]
    return Statevector(n, amps), part


class TestPurity:
    def test_product_state_is_pure(self):
        sv = init_uniform(4).freeze()
        assert partition_purity(sv, qubits(0, 1)) == pytest.approx(1.0)

    def test_bell_state_halves(self):
        bell = Statevector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert partition_purity(bell, qubits(0)) == pytest.approx(0.5)

    def test_noncontiguous_part(self):
        # a Bell pair on qubits (0, 2) with qubit 1 in |1>: the part (0, 2)
        # is pure, and each of its qubits alone is maximally mixed
        amps = np.zeros(8)
        amps[0b010] = amps[0b111] = 1 / math.sqrt(2)
        sv = Statevector(3, amps)
        assert partition_purity(sv, qubits(0, 2)) == pytest.approx(1.0)
        assert partition_purity(sv, qubits(0, 1)) == pytest.approx(0.5)
        assert partition_purity(sv, qubits(2)) == pytest.approx(0.5)

    def test_rejects_trivial_partition(self):
        sv = init_uniform(2).freeze()
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits())
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits(0, 1))

    @given(purity_cases())
    @settings(max_examples=80, deadline=None)
    def test_purity_is_the_sum_of_singular_values_to_the_fourth(self, case):
        sv, part = case
        # M[p, r] is the amplitude whose cut bits read p and other bits r,
        # placed by basis-index arithmetic rather than by ``_rows``
        rest = qubits(*(q for q in range(sv.num_qubits) if q not in part))
        index = np.arange(sv.dim)
        matrix = np.zeros((2 ** len(part), 2 ** len(rest)), dtype=np.complex128)
        matrix[svmod._subpattern(index, part), svmod._subpattern(index, rest)] = sv.amplitudes
        singular = np.linalg.svd(matrix, compute_uv=False)
        assert partition_purity(sv, part) == pytest.approx(np.sum(singular**4), abs=1e-12)
        # the purity cannot see a permutation of the rows; this pins their order
        assert np.array_equal(svmod._rows(sv, part), matrix)

    def test_rows_views_a_cut_of_the_lowest_or_highest_qubits(self):
        sv = random_state(14, 3)
        for cut in (qubit_range(0, 5), qubit_range(9, 14)):
            assert np.shares_memory(svmod._rows(sv, cut), sv.amplitudes)
        middle = svmod._rows(sv, qubit_range(5, 9))
        assert not np.shares_memory(middle, sv.amplitudes)
        assert middle.flags.c_contiguous


def _subpattern_by_loop(index, on):
    return sum(((index >> q) & 1) << j for j, q in enumerate(on))


@st.composite
def kernel_cases(draw, min_qubits=2, max_qubits=6):
    """A random state with a random qubit set; ``rest`` are the others."""
    m = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    chosen = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    on = qubits(*sorted(chosen))
    rest = [q for q in range(m) if q not in on]
    return random_state(m, draw(st.integers(0, 2**32 - 1))), on, rest, draw(st.randoms())


class TestKernelsAgreeWithMirrors:
    """Fast kernels against their reference outputs, on scattered qubit sets."""

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_phase_flip(self, case):
        sv, on, _, rnd = case
        marked = np.array([rnd.random() < 0.5 for _ in range(2 ** len(on))])
        dense = svmod.dense_phase_flip_matrix(sv, marked, on)
        assert np.allclose(apply_phase_flip(opened(sv), marked, on).amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_diffusion(self, case):
        sv, on, _, _ = case
        dense = svmod.dense_diffusion_matrix(sv, on)
        assert np.allclose(apply_diffusion(opened(sv), on).amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_conditional_bit_flip(self, case):
        sv, on, rest, rnd = case
        if not rest:
            # the target must lie outside the controls: give it the top
            # control, which leaves at least one qubit controlling
            on, rest = qubits(*on.indices[:-1]), [on.indices[-1]]
        target = rnd.choice(rest)
        marked = np.array([rnd.random() < 0.5 for _ in range(2 ** len(on))])
        out = apply_conditional_bit_flip(opened(sv), target, marked, on)
        dense = svmod.dense_bit_flip_matrix(sv, target, marked, on)
        assert np.allclose(out.amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_index_map(self, case):
        sv, on, _, rnd = case
        mapping = list(range(2 ** len(on)))
        rnd.shuffle(mapping)
        dense = svmod.dense_index_map_matrix(sv, mapping, on)
        assert np.allclose(apply_index_map(opened(sv), mapping, on).amplitudes, dense, atol=1e-12)

    # the run view's edge cases, each against the reference and as an
    # equality of values, on registers of 1 to 6 qubits
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("flip", [False, True])
    def test_bit_flip_without_controls(self, m, flip):
        # a one-entry mask over no control qubits: the swap covers the whole
        # register, and reading its halves as views would alias
        sv = random_state(m, m)
        for target in range(m):
            out = apply_conditional_bit_flip(opened(sv), target, np.array([flip]), qubits())
            dense = svmod.dense_bit_flip_matrix(sv, target, np.array([flip]), qubits())
            assert np.array_equal(out.amplitudes, dense)
            expected = sv.amplitudes.reshape(-1, 2, 2**target)
            if flip:
                expected = expected[:, ::-1]
            assert np.array_equal(out.amplitudes, expected.reshape(-1))

    @pytest.mark.parametrize(
        "on, target", [((0, 1, 3, 4), 2), ((0, 2, 5), 3), ((1, 2, 4, 5), 3), ((4,), 0)]
    )
    def test_bit_flip_with_the_target_between_control_runs(self, on, target):
        sv = random_state(6, 11)
        marked = np.random.default_rng(len(on)).random(2 ** len(on)) < 0.5
        out = apply_conditional_bit_flip(opened(sv), target, marked, qubits(*on))
        dense = svmod.dense_bit_flip_matrix(sv, target, marked, qubits(*on))
        assert np.array_equal(out.amplitudes, dense)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("on", [(0,), (1, 3), (0, 1, 2), (0, 2, 3, 4)])
    def test_all_false_and_all_true_masks(self, fill, on):
        sv = random_state(5, 5)
        on = qubits(*on)
        marked = np.full(2 ** len(on), fill)
        flipped = apply_phase_flip(opened(sv), marked, on)
        assert np.array_equal(flipped.amplitudes, -sv.amplitudes if fill else sv.amplitudes)
        target = next(q for q in range(5) if q not in on)
        swapped = apply_conditional_bit_flip(opened(sv), target, marked, on)
        assert np.array_equal(
            swapped.amplitudes, svmod.dense_bit_flip_matrix(sv, target, marked, on)
        )
        assert np.array_equal(
            swapped.amplitudes,
            svmod.dense_bit_flip_matrix(sv, target, np.array([fill]), qubits()),
        )

    @pytest.mark.parametrize("on", [(0,), (2,), (0, 1), (1, 3), (0, 2, 3, 5), (0, 1, 2, 3, 4, 5)])
    def test_phase_flip_of_one_marked_pattern(self, on):
        # a single marked pattern is negated through a view, not a copy
        sv = random_state(6, len(on))
        on = qubits(*on)
        for pattern in range(2 ** len(on)):
            marked = np.arange(2 ** len(on)) == pattern
            expected = svmod.dense_phase_flip_matrix(sv, marked, on)
            assert np.array_equal(apply_phase_flip(opened(sv), marked, on).amplitudes, expected)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_on_covering_the_whole_register(self, m):
        sv = random_state(m, 20 + m)
        on = qubit_range(0, m)
        rng = np.random.default_rng(m)
        marked = rng.random(2**m) < 0.5
        mapping = rng.permutation(2**m)
        flipped = apply_phase_flip(opened(sv), marked, on)
        assert np.array_equal(flipped.amplitudes, np.where(marked, -1.0, 1.0) * sv.amplitudes)
        moved = apply_index_map(opened(sv), mapping, on)
        assert np.array_equal(moved.amplitudes[mapping], sv.amplitudes)
        diffused = apply_diffusion(opened(sv), on)
        assert np.allclose(
            diffused.amplitudes, svmod.dense_diffusion_matrix(sv, on), atol=1e-12
        )
        assert np.allclose(diffused.amplitudes, 2 * sv.amplitudes.mean() - sv.amplitudes)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_marginal_is_a_per_index_sum(self, case):
        sv, on, _, _ = case
        p = sv.probabilities
        expected = [0.0] * 2 ** len(on)
        for index in range(sv.dim):
            expected[_subpattern_by_loop(index, on.indices)] += p[index]
        assert marginal_distribution(sv, on) == pytest.approx(expected, abs=1e-12)
        for pattern, weight in enumerate(expected):
            assert marginal_probability(sv, on, pattern) == pytest.approx(weight, abs=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_purity_is_the_trace_of_rho_squared(self, case):
        sv, on, rest, _ = case
        assume(rest)
        # rho[p, p'] sums a(p, r) * conj(a(p', r)) over the patterns r of
        # the other qubits
        rho = np.zeros((2 ** len(on), 2 ** len(on)), dtype=np.complex128)
        by_rest = {}
        for index in range(sv.dim):
            column = by_rest.setdefault(_subpattern_by_loop(index, rest), {})
            column[_subpattern_by_loop(index, on.indices)] = sv.amplitudes[index]
        for column in by_rest.values():
            vec = np.array([column[p] for p in range(2 ** len(on))])
            rho += np.outer(vec, vec.conj())
        expected = float(np.real(np.trace(rho @ rho)))
        assert partition_purity(sv, on) == pytest.approx(expected, abs=1e-12)


class TestRegister:
    """Kernels update a register in place; freezing it is the one hand-off."""

    def test_opening_copies_a_statevector_and_owns_a_given_array(self):
        sv = random_state(4, 1)
        register = opened(sv)
        assert not np.shares_memory(register.amplitudes, sv.amplitudes)
        amps = sv.amplitudes.copy()
        assert Register(4, amps).amplitudes is amps

    @given(kernel_cases(min_qubits=1, max_qubits=10))
    @settings(max_examples=40, deadline=None)
    def test_each_kernel_returns_the_register_it_updated(self, case):
        sv, on, rest, rnd = case
        marked = np.array([rnd.random() < 0.5 for _ in range(2 ** len(on))])
        mapping = list(range(2 ** len(on)))
        rnd.shuffle(mapping)
        # the bit flip's target lies outside its controls: with no other
        # qubit left, the top qubit of ``on`` becomes the target
        controls, target = (on, rnd.choice(rest)) if rest else (
            qubits(*on.indices[:-1]), on.indices[-1]
        )
        controlled = np.array([rnd.random() < 0.5 for _ in range(2 ** len(controls))])
        register = opened(sv)
        array = register.amplitudes
        with KernelCrossCheck() as check:
            assert apply_phase_flip(register, marked, on) is register
            assert apply_diffusion(register, on) is register
            assert apply_index_map(register, mapping, on) is register
            assert apply_conditional_bit_flip(register, target, controlled, controls) is register
        # every write went into the register's own array, and each
        # reference read the register as it was before its kernel wrote it
        assert register.amplitudes is array
        assert [label for label, _ in check.records] == [
            "phase_flip", "diffusion", "index_map", "conditional_bit_flip"
        ]
        assert check.max_deviation <= 1e-12

    # each kernel, given a register whose norm is 1.01: its output is 1.01 too
    NON_UNIT_OUTPUT = {
        "phase_flip": lambda s: apply_phase_flip(s, ONE, qubits(0)),
        "diffusion": lambda s: apply_diffusion(s, qubits(0, 2)),
        "conditional_bit_flip": lambda s: apply_conditional_bit_flip(s, 1, ONE, qubits(0)),
        "index_map": lambda s: apply_index_map(s, [1, 0], qubits(2)),
    }

    @pytest.mark.parametrize("label", sorted(NON_UNIT_OUTPUT))
    def test_a_register_is_norm_checked_by_its_loop(self, label):
        kernel = self.NON_UNIT_OUTPUT[label]
        # a register is left to its loop, which checks once per round
        register = opened(random_state(3, 4))
        register.amplitudes *= 1.01
        assert kernel(register) is register
        with pytest.raises(ValidationError, match="norm"):
            register.check_norm()
        with pytest.raises(ValidationError, match="norm"):
            register.freeze()

    @pytest.mark.parametrize("label", sorted(NON_UNIT_OUTPUT))
    def test_a_kernel_given_a_statevector_raises_and_leaves_it_unchanged(self, label):
        sv = random_state(3, 4)
        before = sv.amplitudes.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            self.NON_UNIT_OUTPUT[label](sv)
        assert sv.amplitudes.tobytes() == before

    def test_freeze_hands_over_the_array_without_a_copy(self):
        sv = random_state(5, 2)
        register = opened(sv)
        assert not np.shares_memory(register.amplitudes, sv.amplitudes)
        amps = register.amplitudes
        frozen = register.freeze()
        assert frozen.amplitudes.base is amps
        assert not frozen.amplitudes.flags.writeable
        assert register.amplitudes is None


class TestKernelCrossCheck:
    def test_clean_run_records_tiny_deviation(self):
        with KernelCrossCheck() as check:
            sv = init_uniform(3)
            sv = apply_phase_flip(sv, np.arange(8) == 5, qubit_range(0, 3))
            sv = apply_diffusion(sv, qubit_range(0, 3))
            sv = apply_conditional_bit_flip(sv, 2, np.arange(4) == 3, qubits(0, 1))
            sv = apply_index_map(sv, [1, 0], qubits(1))
        assert len(check.records) == 4
        assert check.max_deviation < 1e-12

    # reference name -> (operation label, one two-qubit call of its kernel)
    EACH_KERNEL = {
        "dense_phase_flip_matrix": (
            "phase_flip", lambda sv: apply_phase_flip(sv, ONE, qubits(0))
        ),
        "dense_diffusion_matrix": (
            "diffusion", lambda sv: apply_diffusion(sv, qubits(0, 1))
        ),
        "dense_bit_flip_matrix": (
            "conditional_bit_flip", lambda sv: apply_conditional_bit_flip(sv, 1, ONE, qubits(0))
        ),
        "dense_index_map_matrix": (
            "index_map", lambda sv: apply_index_map(sv, [1, 0], qubits(1))
        ),
    }

    @pytest.mark.parametrize("name", sorted(EACH_KERNEL))
    def test_detects_a_corrupted_mirror(self, monkeypatch, name):
        # the check must be live and go through the reference's module-level
        # name: poison that name and the deviation must be seen
        real = getattr(svmod, name)

        def poisoned(*args):
            out = real(*args).copy()
            out[0] += 0.25
            return out

        monkeypatch.setattr(svmod, name, poisoned)
        label, kernel = self.EACH_KERNEL[name]
        with KernelCrossCheck() as check:
            kernel(opened(random_state(2, 7)))
        assert [record[0] for record in check.records] == [label]
        assert check.max_deviation > 0.01

    def test_every_kind_is_mirrored_on_the_widest_register(self):
        sv = opened(random_state(svmod.MAX_QUBITS, 3))
        wide = qubit_range(0, svmod.MAX_QUBITS - 1)
        top = svmod.MAX_QUBITS - 1
        marked = np.zeros(2 ** len(wide), dtype=bool)
        marked[[5, 1234, 2**18 + 9]] = True
        with KernelCrossCheck() as check:
            sv = apply_phase_flip(sv, marked, wide)
            sv = apply_diffusion(sv, qubits(0, 3, 7, 12, top))
            sv = apply_conditional_bit_flip(sv, top, marked, wide)
            mapping = np.random.default_rng(0).permutation(2**6)
            apply_index_map(sv, mapping, qubits(1, 4, 9, 11, 15, top))
        assert sorted(label for label, _ in check.records) == [
            "conditional_bit_flip", "diffusion", "index_map", "phase_flip"
        ]
        assert check.max_deviation <= 1e-12

    def test_nested_contexts_record_into_the_inner_one(self):
        sv = init_uniform(3)
        with KernelCrossCheck() as outer:
            apply_diffusion(sv, qubits(0, 1))
            with KernelCrossCheck() as inner:
                apply_phase_flip(sv, ONE, qubits(2))
                apply_diffusion(sv, qubits(2))
            apply_index_map(sv, [1, 0], qubits(1))
        assert [label for label, _ in inner.records] == ["phase_flip", "diffusion"]
        assert [label for label, _ in outer.records] == ["diffusion", "index_map"]
        # and none is active once both have exited
        apply_diffusion(sv, qubits(0))
        assert len(outer.records) == 2 and len(inner.records) == 2
