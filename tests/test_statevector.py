"""Kernel checks against independently built dense matrices.

The reference route here is deliberately different from the library's own
dense builders: matrices are assembled with np.kron in MSB-first factor
order, so an agreement failure flags a convention drift, not a shared bug.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        flipped = apply_conditional_bit_flip(sv, target=1, predicate=lambda _: True, on=qubits())
        assert probability_map(flipped) == {"10": 1.0}
        dense = kron_chain(X, I2) @ sv.amplitudes
        assert np.allclose(flipped.amplitudes, dense)

    def test_qubit_zero_is_the_right_character(self):
        sv = basis_state(2, 0)
        flipped = apply_conditional_bit_flip(sv, target=0, predicate=lambda _: True, on=qubits())
        assert probability_map(flipped) == {"01": 1.0}
        dense = kron_chain(I2, X) @ sv.amplitudes
        assert np.allclose(flipped.amplitudes, dense)


class TestPhaseFlip:
    def test_single_marked_state(self):
        sv = init_uniform(2)
        out = apply_phase_flip(sv, lambda p: p == 0b11, qubits(0, 1))
        expected = np.array([1, 1, 1, -1]) / 2
        assert np.allclose(out.amplitudes, expected)

    def test_subregister_predicate_reads_low_bits(self):
        # flipping on qubit 0 == 1 negates every odd basis index
        sv = init_uniform(3)
        out = apply_phase_flip(sv, lambda p: p == 1, qubits(0))
        signs = np.array([1, -1] * 4)
        assert np.allclose(out.amplitudes, signs / math.sqrt(8))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_involution(self, m, seed):
        sv = random_state(m, seed)
        marked = seed % (2**m)
        on = qubit_range(0, m)
        twice = apply_phase_flip(
            apply_phase_flip(sv, lambda p: p == marked, on), lambda p: p == marked, on
        )
        assert np.allclose(twice.amplitudes, sv.amplitudes)


class TestDiffusion:
    def test_uniform_state_is_fixed(self):
        sv = init_uniform(3)
        out = apply_diffusion(sv, qubit_range(0, 3))
        assert np.allclose(out.amplitudes, sv.amplitudes)

    def test_two_qubit_search_is_exact(self):
        # one marked state in four: a single flip+diffuse round succeeds
        # with certainty
        sv = init_uniform(2)
        sv = apply_phase_flip(sv, lambda p: p == 0b10, qubits(0, 1))
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
        out = apply_conditional_bit_flip(sv, target=1, predicate=lambda p: p == 1, on=qubits(0))
        assert probability_map(out) == {"11": 1.0}

    def test_control_zero_does_nothing(self):
        sv = basis_state(2, 0b00)
        out = apply_conditional_bit_flip(sv, target=1, predicate=lambda p: p == 1, on=qubits(0))
        assert probability_map(out) == {"00": 1.0}

    def test_target_among_controls_rejected(self):
        sv = init_uniform(2)
        with pytest.raises(ConfigurationError):
            apply_conditional_bit_flip(sv, target=0, predicate=lambda p: True, on=qubits(0))

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_involution(self, m, seed):
        sv = random_state(m, seed)
        on = qubit_range(0, m - 1)
        pred = lambda p: (p * 2654435761 + seed) % 3 == 0
        once = apply_conditional_bit_flip(sv, m - 1, pred, on)
        twice = apply_conditional_bit_flip(once, m - 1, pred, on)
        assert np.allclose(twice.amplitudes, sv.amplitudes)


class TestIndexMap:
    def test_swap_two_patterns(self):
        # exchange lower patterns 01 and 10 inside a 3-qubit register
        mapping = [0, 2, 1, 3]
        sv = basis_state(3, 0b101)
        out = apply_index_map(sv, mapping, qubits(0, 1))
        assert probability_map(out) == {"110": 1.0}

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

    def test_top_outcome_tie_breaks_lexicographically(self):
        assert top_outcome({"10": 5, "01": 5, "00": 3}) == "01"

    def test_marginal_probability(self):
        bell = Statevector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert marginal_probability(bell, qubits(0), 0) == pytest.approx(0.5)
        assert marginal_probability(bell, qubits(0, 1), 0b11) == pytest.approx(0.5)

class TestPurity:
    def test_product_state_is_pure(self):
        sv = init_uniform(4)
        assert partition_purity(sv, qubits(0, 1)) == pytest.approx(1.0)

    def test_bell_state_halves(self):
        bell = Statevector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert partition_purity(bell, qubits(0)) == pytest.approx(0.5)

    def test_rejects_trivial_partition(self):
        sv = init_uniform(2)
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits())
        with pytest.raises(ConfigurationError):
            partition_purity(sv, qubits(0, 1))


class TestKernelCrossCheck:
    def test_clean_run_records_tiny_deviation(self):
        with KernelCrossCheck() as check:
            sv = init_uniform(3)
            sv = apply_phase_flip(sv, lambda p: p == 5, qubit_range(0, 3))
            sv = apply_diffusion(sv, qubit_range(0, 3))
            sv = apply_conditional_bit_flip(sv, 2, lambda p: p == 3, qubits(0, 1))
            sv = apply_index_map(sv, [1, 0], qubits(1))
        assert len(check.records) == 4
        assert check.max_deviation < 1e-12

    def test_detects_a_corrupted_mirror(self, monkeypatch):
        # sanity check that the comparison is live: poison the dense route
        # and the deviation must be seen
        real = svmod.dense_diffusion_matrix

        def poisoned(num_qubits, on):
            mat = real(num_qubits, on).copy()
            mat[0, 0] += 0.25
            return mat

        monkeypatch.setattr(svmod, "dense_diffusion_matrix", poisoned)
        with KernelCrossCheck() as check:
            apply_diffusion(init_uniform(2), qubits(0, 1))
        assert check.max_deviation > 0.01

    def test_skips_wide_registers(self):
        with KernelCrossCheck(max_qubits=2) as check:
            apply_diffusion(init_uniform(3), qubit_range(0, 3))
        assert check.records == []
        assert check.skipped == {"diffusion": 1}
