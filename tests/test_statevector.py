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
    probabilities,
    probability_map,
    qubit_range,
    qubits,
    sample,
    top_outcome,
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

    def test_rejects_oversized_register(self):
        with pytest.raises(ConfigurationError):
            init_uniform(21)

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            Statevector(2, np.ones(3) / math.sqrt(3))


class TestConventions:
    def test_qubit_one_is_the_left_character(self):
        # X on qubit 1 of |00> must land on the label "10", matching
        # kron(X, I) acting on index 0 in MSB-first factor order.
        sv = basis_state(2, 0)
        flipped = apply_conditional_bit_flip(sv, target=1, marked=np.array([True]), on=qubits())
        assert probability_map(flipped) == {"10": 1.0}
        dense = kron_chain(X, I2) @ sv.amplitudes
        assert np.allclose(flipped.amplitudes, dense)

    def test_qubit_zero_is_the_right_character(self):
        sv = basis_state(2, 0)
        flipped = apply_conditional_bit_flip(sv, target=0, marked=np.array([True]), on=qubits())
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
        out = apply_phase_flip(sv, np.arange(4) == 0b01, qubits(0, 2))
        expected = sv.amplitudes.copy()
        expected[[0b001, 0b011]] *= -1
        assert np.array_equal(out.amplitudes, expected)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_involution(self, m, seed):
        sv = random_state(m, seed)
        marked = np.arange(2**m) == seed % (2**m)
        on = qubit_range(0, m)
        twice = apply_phase_flip(apply_phase_flip(sv, marked, on), marked, on)
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
        with pytest.raises(ConfigurationError):
            svmod.dense_phase_flip_matrix(init_uniform(2), self.BAD_MASKS[name], qubits(0))
        with pytest.raises(ConfigurationError):
            svmod.dense_bit_flip_matrix(init_uniform(2), 1, self.BAD_MASKS[name], qubits(0))


class TestDiffusion:
    def test_uniform_state_is_fixed(self):
        sv = init_uniform(3)
        out = apply_diffusion(sv, qubit_range(0, 3))
        assert np.allclose(out.amplitudes, sv.amplitudes)

    def test_two_qubit_search_is_exact(self):
        # one marked state in four: a single flip+diffuse round succeeds
        # with certainty
        sv = init_uniform(2)
        sv = apply_phase_flip(sv, np.arange(4) == 0b10, qubits(0, 1))
        sv = apply_diffusion(sv, qubits(0, 1))
        assert probability_map(sv)["10"] == pytest.approx(1.0)

    def test_low_block_matches_kron(self):
        sv = random_state(4, seed=7)
        out = apply_diffusion(sv, qubits(0, 1))
        d2 = 2 * np.full((4, 4), 0.25) - np.eye(4)
        dense = kron_chain(I2, I2, d2) @ sv.amplitudes
        assert np.allclose(out.amplitudes, dense)

    def test_high_block_matches_kron(self):
        sv = random_state(4, seed=8)
        out = apply_diffusion(sv, qubits(2, 3))
        d2 = 2 * np.full((4, 4), 0.25) - np.eye(4)
        dense = kron_chain(d2, I2, I2) @ sv.amplitudes
        assert np.allclose(out.amplitudes, dense)

    def test_noncontiguous_block(self):
        # hand-built entrywise: <x|D|y> couples x,y agreeing outside {0,2}
        sv = random_state(3, seed=9)
        out = apply_diffusion(sv, qubits(0, 2))
        dense = np.zeros((8, 8), dtype=np.complex128)
        for x in range(8):
            for y in range(8):
                if (x & 0b010) == (y & 0b010):
                    dense[x, y] += 2 / 4
            dense[x, x] -= 1
        assert np.allclose(out.amplitudes, dense @ sv.amplitudes)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_preserves_norm(self, m, seed):
        sv = random_state(m, seed)
        out = apply_diffusion(sv, qubit_range(0, m))
        assert out.norm() == pytest.approx(1.0)


class TestConditionalBitFlip:
    def test_cnot(self):
        # control qubit 0, target qubit 1: |01> -> |11>
        sv = basis_state(2, 0b01)
        out = apply_conditional_bit_flip(sv, target=1, marked=ONE, on=qubits(0))
        assert probability_map(out) == {"11": 1.0}

    def test_control_zero_does_nothing(self):
        sv = basis_state(2, 0b00)
        out = apply_conditional_bit_flip(sv, target=1, marked=ONE, on=qubits(0))
        assert probability_map(out) == {"00": 1.0}

    def test_noncontiguous_pattern_reads_on0_as_bit0(self):
        # target qubit 1 between controls (0, 2), sub-pattern 0b01: only the
        # pair 0b001 <-> 0b011 trades amplitudes
        sv = random_state(3, seed=22)
        out = apply_conditional_bit_flip(sv, 1, np.arange(4) == 0b01, qubits(0, 2))
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
        once = apply_conditional_bit_flip(sv, m - 1, marked, on)
        twice = apply_conditional_bit_flip(once, m - 1, marked, on)
        assert np.allclose(twice.amplitudes, sv.amplitudes)


class TestIndexMap:
    def test_swap_two_patterns(self):
        # exchange lower patterns 01 and 10 inside a 3-qubit register
        mapping = [0, 2, 1, 3]
        sv = basis_state(3, 0b101)
        out = apply_index_map(sv, mapping, qubits(0, 1))
        assert probability_map(out) == {"110": 1.0}

    def test_noncontiguous_asymmetric_mapping(self):
        # on qubits (0, 2) the mapping sends sub-pattern 0->0, 1->2, 2->3,
        # 3->1; reversing the sub-pattern bits would send 1 to 3 instead.
        # Qubit 1 is carried along untouched.
        destination = {
            0b000: "000", 0b001: "100", 0b100: "101", 0b101: "001",
            0b010: "010", 0b011: "110", 0b110: "111", 0b111: "011",
        }
        for source, label in destination.items():
            out = apply_index_map(basis_state(3, source), [0, 2, 3, 1], qubits(0, 2))
            assert probability_map(out) == {label: 1.0}, source

    def test_rejects_non_bijection(self):
        sv = init_uniform(2)
        with pytest.raises(ValidationError):
            apply_index_map(sv, [0, 0, 1, 2], qubits(0, 1))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**10))
    def test_permutation_preserves_norm(self, m, seed):
        rng = np.random.default_rng(seed)
        mapping = rng.permutation(2**m).tolist()
        sv = random_state(m, seed + 1)
        out = apply_index_map(sv, mapping, qubit_range(0, m))
        assert out.norm() == pytest.approx(1.0)
        # amplitudes are relocated, never altered
        assert np.allclose(np.sort_complex(out.amplitudes), np.sort_complex(sv.amplitudes))


class TestMeasurement:
    def test_probabilities_sum_to_one(self):
        sv = random_state(4, seed=3)
        assert probabilities(sv).sum() == pytest.approx(1.0)

    def test_sample_is_reproducible(self):
        sv = init_uniform(3)
        a = sample(sv, shots=500, seed=11)
        b = sample(sv, shots=500, seed=11)
        assert a == b
        assert sum(a.values()) == 500

    def test_sample_only_support(self):
        sv = basis_state(3, 0b101)
        assert sample(sv, shots=64, seed=0) == {"101": 64}

    def test_labels_match_the_per_index_reference(self):
        # same entries, in the same (ascending index) order, as one loop over
        # every basis index
        sv = random_state(5, seed=4)
        p = probabilities(sv)
        expected = [(format(i, "05b"), float(p[i])) for i in range(32) if p[i] > 1e-12]
        assert list(probability_map(sv).items()) == expected
        counts = np.random.default_rng(2).multinomial(100, p / p.sum())
        expected = [(format(i, "05b"), int(c)) for i, c in enumerate(counts) if c]
        assert list(sample(sv, 100, seed=2).items()) == expected

    def test_top_outcome_tie_breaks_lexicographically(self):
        assert top_outcome({"10": 5, "01": 5, "00": 3}) == "01"

    def test_marginal_probability(self):
        bell = Statevector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert marginal_probability(bell, qubits(0), 0) == pytest.approx(0.5)
        assert marginal_probability(bell, qubits(0, 1), 0b11) == pytest.approx(0.5)

    def test_marginal_on_noncontiguous_qubits(self):
        # sub-pattern 0b01 on qubits (0, 2) is held by basis indices 0b001
        # and 0b011
        sv = random_state(3, seed=23)
        p = probabilities(sv)
        assert marginal_probability(sv, qubits(0, 2), 0b01) == pytest.approx(p[1] + p[3])
        dist = marginal_distribution(sv, qubits(0, 2))
        assert dist == pytest.approx([p[0] + p[2], p[1] + p[3], p[4] + p[6], p[5] + p[7]])

class TestPurity:
    def test_product_state_is_pure(self):
        sv = init_uniform(4)
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
        sv = init_uniform(2)
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits())
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits(0, 1))


def _subpattern_by_loop(index, on):
    return sum(((index >> q) & 1) << j for j, q in enumerate(on))


@st.composite
def kernel_cases(draw):
    """A random state with a random qubit set; ``rest`` are the others."""
    m = draw(st.integers(min_value=2, max_value=6))
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
        assert np.allclose(apply_phase_flip(sv, marked, on).amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_diffusion(self, case):
        sv, on, _, _ = case
        dense = svmod.dense_diffusion_matrix(sv, on)
        assert np.allclose(apply_diffusion(sv, on).amplitudes, dense, atol=1e-12)

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
        out = apply_conditional_bit_flip(sv, target, marked, on)
        dense = svmod.dense_bit_flip_matrix(sv, target, marked, on)
        assert np.allclose(out.amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_index_map(self, case):
        sv, on, _, rnd = case
        mapping = list(range(2 ** len(on)))
        rnd.shuffle(mapping)
        dense = svmod.dense_index_map_matrix(sv, mapping, on)
        assert np.allclose(apply_index_map(sv, mapping, on).amplitudes, dense, atol=1e-12)

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_marginal_is_a_per_index_sum(self, case):
        sv, on, _, _ = case
        p = probabilities(sv)
        expected = [0.0] * 2 ** len(on)
        for index in range(sv.dim):
            expected[_subpattern_by_loop(index, on)] += p[index]
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
            key = _subpattern_by_loop(index, rest)
            by_rest.setdefault(key, {})[_subpattern_by_loop(index, on)] = sv.amplitudes[index]
        for column in by_rest.values():
            vec = np.array([column[p] for p in range(2 ** len(on))])
            rho += np.outer(vec, vec.conj())
        expected = float(np.real(np.trace(rho @ rho)))
        assert partition_purity(sv, on) == pytest.approx(expected, abs=1e-12)


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
            kernel(random_state(2, 7))
        assert [record[0] for record in check.records] == [label]
        assert check.max_deviation > 0.01

    def test_every_kind_is_mirrored_on_the_widest_register(self):
        sv = random_state(svmod.MAX_QUBITS, 3)
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
