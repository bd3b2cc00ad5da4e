"""Amplification math pinned against closed-form rotation geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtreesearch import grover
from qtreesearch.errors import ConfigurationError, ValidationError
from qtreesearch.grover import (
    QueryCounter,
    Stage,
    amplify,
    iteration_count,
    rotation_angle,
    run_grover,
    success_probability,
)
from qtreesearch.statevector import (
    KernelCrossCheck,
    Register,
    Statevector,
    apply_diffusion,
    apply_phase_flip,
    init_uniform,
    marginal_probability,
    partition_purity,
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
        chosen = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
        )
        marked = np.isin(np.arange(n), list(chosen))
        sv = run_grover(init_uniform(m), marked, qubit_range(0, m), r, QueryCounter()).freeze()
        mass = float(sv.probabilities[marked].sum())
        assert mass == pytest.approx(success_probability(n, k, r), abs=1e-9)


class TestRunGrover:
    def test_two_round_search_on_three_qubits(self):
        counter = QueryCounter()
        sv = run_grover(
            init_uniform(3), np.arange(8) == 0b101, qubit_range(0, 3), 2, counter
        ).freeze()
        assert sv.probabilities[0b101] == pytest.approx(0.9453125, abs=1e-6)
        assert counter.oracle_calls == 2
        assert counter.diffusion_calls == 2
        assert counter.total == 4

    def test_subregister_search_leaves_the_rest_untouched(self):
        # amplify 11 on the low two qubits of a 4-qubit register: the high
        # half keeps its uniform marginal and the cut stays product
        sv = run_grover(
            init_uniform(4), np.arange(4) == 0b11, qubits(0, 1), 1, QueryCounter()
        ).freeze()
        assert marginal_probability(sv, qubits(0, 1), 0b11) == pytest.approx(1.0)
        for pattern in range(4):
            assert marginal_probability(sv, qubits(2, 3), pattern) == pytest.approx(0.25)
        assert partition_purity(sv, qubits(2, 3)) == pytest.approx(1.0)

    def test_zero_rounds_is_identity(self):
        sv = init_uniform(3)
        counter = QueryCounter()
        out = run_grover(sv, np.arange(8) == 0, qubit_range(0, 3), 0, counter)
        assert out is sv
        assert np.allclose(out.amplitudes, 1 / math.sqrt(8))
        assert counter.total == 0

    def test_rotation_angle_range(self):
        assert rotation_angle(4, 4) == pytest.approx(math.pi / 2)
        assert rotation_angle(4, 1) == pytest.approx(math.pi / 6)


def _random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


# a flip over scattered qubits steering a diffusion over others
FLIP_ON, DIFFUSE_ON = qubits(0, 2, 3, 5), qubits(1, 2, 4)
MARKED = np.random.default_rng(9).random(16) < 0.3


class TestAmplifyLoop:
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_the_rounds_update_the_given_register_and_return_it(self, rounds):
        sv = _random_state(6, 1)
        register = Register.copy_of(sv)
        array = register.amplitudes
        stage = Stage(MARKED, FLIP_ON, DIFFUSE_ON, rounds)
        assert amplify(register, [stage], QueryCounter()) is register
        assert register.amplitudes is array
        assert (register.amplitudes.tobytes() == sv.amplitudes.tobytes()) == (rounds == 0)

    def test_rounds_match_kernel_calls_under_a_cross_check(self):
        sv = _random_state(6, 2)
        with KernelCrossCheck() as looped:
            out = amplify(
                Register.copy_of(sv), [Stage(MARKED, FLIP_ON, DIFFUSE_ON, 3)], QueryCounter()
            )
        with KernelCrossCheck() as called:
            expected = Register.copy_of(sv)
            for _ in range(3):
                apply_phase_flip(expected, MARKED, FLIP_ON)
                apply_diffusion(expected, DIFFUSE_ON)
        assert [label for label, _ in looped.records] == ["phase_flip", "diffusion"] * 3
        assert looped.records == called.records
        assert looped.max_deviation <= 1e-12
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()

    def test_a_non_unitary_round_raises_at_that_round(self, monkeypatch):
        # the third flip's output is scaled; the loop checks the register's
        # norm once per round, after the diffusion, so the fault raises at
        # the end of that same round, not when its caller freezes the register
        flips, diffusions = [], []

        def scaled_third_flip(sv, marked, on):
            out = apply_phase_flip(sv, marked, on)
            flips.append(1)
            if len(flips) == 3:
                out.amplitudes *= 1.01
            return out

        def counted_diffusion(sv, on):
            diffusions.append(1)
            return apply_diffusion(sv, on)

        monkeypatch.setattr(grover, "apply_phase_flip", scaled_third_flip)
        monkeypatch.setattr(grover, "apply_diffusion", counted_diffusion)
        with pytest.raises(ValidationError, match="norm"):
            amplify(
                Register.copy_of(_random_state(6, 3)),
                [Stage(MARKED, FLIP_ON, DIFFUSE_ON, 5)],
                QueryCounter(),
            )
        assert (len(flips), len(diffusions)) == (3, 3)

    def test_stages_run_in_order_and_count_every_round(self):
        first = Stage(MARKED, FLIP_ON, DIFFUSE_ON, 2)
        second = Stage(MARKED[:8], qubits(1, 3, 4), qubits(0, 5), 1)
        counter = QueryCounter()
        with KernelCrossCheck() as check:
            out = amplify(Register.copy_of(_random_state(6, 4)), [first, second], counter)
        apart = QueryCounter()
        expected = amplify(
            amplify(Register.copy_of(_random_state(6, 4)), [first], apart), [second], apart
        )
        assert [label for label, _ in check.records] == ["phase_flip", "diffusion"] * 3
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert (counter.oracle_calls, counter.diffusion_calls) == (3, 3)

    def test_a_flag_must_be_the_top_qubit(self):
        # uniform over qubits 0..2, qubit 3 clear
        amps = np.zeros(16, dtype=np.complex128)
        amps[:8] = 1 / math.sqrt(8)
        marked = np.array([False, True])
        counter = QueryCounter()
        with pytest.raises(ConfigurationError, match="flag 2 is not the top qubit"):
            amplify(Register(4, amps.copy()), [Stage(marked, qubits(0), qubits(1), 1, 2)], counter)
        assert counter.total == 0
        # on the top qubit the kick leaves the flag clear, and the round
        # diffuses the flag-clear half
        out = amplify(Register(4, amps), [Stage(marked, qubits(0), qubits(1), 1, 3)], counter)
        assert (counter.oracle_calls, counter.diffusion_calls) == (1, 1)
        assert not out.amplitudes[8:].any()
        assert np.vdot(out.amplitudes[:8], out.amplitudes[:8]).real == pytest.approx(1.0)

    def test_negative_rounds_are_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            stage = Stage(np.arange(4) == 0, qubits(0, 1), qubits(0, 1), -1)
            amplify(init_uniform(2), [stage], QueryCounter())


class TestStandardStage:
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_rounds_follow_the_diffused_width(self, width, data):
        # the flip set may be wider than the diffusion; only the diffused
        # width and the marked count fix the rounds
        k = data.draw(st.integers(min_value=1, max_value=2**width))
        stage = Stage.standard(MARKED, FLIP_ON, qubit_range(0, width), k, flag=7)
        assert stage.rounds == iteration_count(2**width, k)
        assert stage.flag == 7 and stage.marked is MARKED and stage.flip_on is FLIP_ON
