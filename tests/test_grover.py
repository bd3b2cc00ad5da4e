"""Amplification math pinned against closed-form rotation geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtreesearch.errors import ConfigurationError
from qtreesearch.grover import (
    QueryCounter,
    iteration_count,
    rotation_angle,
    run_grover,
    success_probability,
)
from qtreesearch.oracles import MarkedSetOracle
from qtreesearch.statevector import (
    init_uniform,
    marginal_probability,
    partition_purity,
    probabilities,
    qubit_range,
    qubits,
)


class TestIterationCount:
    def test_four_states_one_marked(self):
        assert iteration_count(4, 1) == 1

    def test_eight_states_one_marked(self):
        assert iteration_count(8, 1) == 2

    def test_quarter_marked_is_always_one(self):
        for m in range(2, 16):
            n = 2**m
            assert iteration_count(n, n // 4) == 1

    def test_all_marked_needs_no_rounds(self):
        assert iteration_count(16, 16) == 0

    def test_rejects_zero_marked(self):
        with pytest.raises(ConfigurationError):
            iteration_count(8, 0)

    def test_rejects_overfull(self):
        with pytest.raises(ConfigurationError):
            iteration_count(8, 9)

    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_floor_form(self, m, data):
        n = 2**m
        k = data.draw(st.integers(min_value=1, max_value=n))
        assert iteration_count(n, k) == math.floor(math.pi / 4 * math.sqrt(n / k))


class TestSuccessProbability:
    def test_quarter_marked_is_exact(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0)
        assert success_probability(8, 2, 1) == pytest.approx(1.0)
        assert success_probability(16, 4, 1) == pytest.approx(1.0)

    def test_half_marked_never_moves(self):
        for r in range(4):
            assert success_probability(8, 4, r) == pytest.approx(0.5)

    def test_eight_states_one_marked_two_rounds(self):
        assert success_probability(8, 1, 2) == pytest.approx(0.9453125, abs=1e-6)

    def test_zero_rounds_is_the_uniform_mass(self):
        assert success_probability(32, 2, 0) == pytest.approx(2 / 32)

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_simulation_agrees_with_closed_form(self, m, data):
        n = 2**m
        k = data.draw(st.integers(min_value=1, max_value=n))
        r = data.draw(st.integers(min_value=0, max_value=min(8, iteration_count(n, k) + 2)))
        marked = frozenset(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
            )
        )
        oracle = MarkedSetOracle(width=m, marked=marked)
        sv = run_grover(init_uniform(m), oracle, qubit_range(0, m), r)
        mass = float(sum(probabilities(sv)[i] for i in marked))
        assert mass == pytest.approx(success_probability(n, k, r), abs=1e-9)


class TestRunGrover:
    def test_two_round_search_on_three_qubits(self):
        oracle = MarkedSetOracle(width=3, marked=frozenset({0b101}))
        counter = QueryCounter()
        sv = run_grover(init_uniform(3), oracle, qubit_range(0, 3), 2, counter)
        assert probabilities(sv)[0b101] == pytest.approx(0.9453125, abs=1e-6)
        assert counter.oracle_calls == 2
        assert counter.diffusion_calls == 2
        assert counter.total == 4

    def test_subregister_search_leaves_the_rest_untouched(self):
        # amplify 11 on the low two qubits of a 4-qubit register: the high
        # half keeps its uniform marginal and the cut stays product
        oracle = MarkedSetOracle(width=2, marked=frozenset({0b11}))
        sv = run_grover(init_uniform(4), oracle, qubits(0, 1), 1)
        assert marginal_probability(sv, qubits(0, 1), 0b11) == pytest.approx(1.0)
        for pattern in range(4):
            assert marginal_probability(sv, qubits(2, 3), pattern) == pytest.approx(0.25)
        assert partition_purity(sv, qubits(2, 3)) == pytest.approx(1.0)

    def test_zero_rounds_is_identity(self):
        sv = init_uniform(3)
        out = run_grover(sv, lambda p: p == 0, qubit_range(0, 3), 0)
        assert np.allclose(out.amplitudes, sv.amplitudes)

    def test_counter_rejects_negative(self):
        counter = QueryCounter()
        with pytest.raises(ConfigurationError):
            counter.count_oracle(-1)

    def test_rotation_angle_range(self):
        assert rotation_angle(4, 4) == pytest.approx(math.pi / 2)
        assert rotation_angle(4, 1) == pytest.approx(math.pi / 6)

