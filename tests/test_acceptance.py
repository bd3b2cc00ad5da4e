"""End-to-end acceptance gate: ten numbered criteria, one line each.

Run ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Probabilities asserted here are exact statevector values unless the
criterion is explicitly about sampling or byte-level output.
"""

import math
import time

import numpy as np

from qtreesearch.cli import render_json, render_run_csv
from qtreesearch.config import bundled_configs, load_config
from qtreesearch.costs import cost, times_ratio, times_ratio_limit, v_max
from qtreesearch.grover import QueryCounter, iteration_count, run_grover, success_probability
from qtreesearch.oracles import (
    ConcatenatedOracle,
    ConjunctionOracle,
    PartialCandidateSet,
)
from qtreesearch.permutation import (
    apply_cnot_permutation,
    build_permutation,
    compacted_search_state,
)
from qtreesearch.runner import run_experiment, run_sweep, run_verification
from qtreesearch.statevector import (
    Register,
    basis_state,
    init_uniform,
    partition_purity,
    probabilities,
    probability_map,
    qubit_range,
)
from qtreesearch.strategies import (
    SearchProblem,
    block_distribution,
    disentangled_search,
    entangled_nested,
    flag_excitation,
    measure_and_verify,
    product_subspace_search,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _five_qubit_problem() -> SearchProblem:
    return SearchProblem(
        global_oracle=ConcatenatedOracle(
            upper=ConjunctionOracle.from_signed_literals([2, -1], width=2),
            lower=ConjunctionOracle.from_signed_literals([3, -2, 1], width=3),
        ),
        candidates=PartialCandidateSet.from_strings(["011", "101"]),
    )


def _six_qubit_problem() -> SearchProblem:
    return SearchProblem(
        global_oracle=ConcatenatedOracle(
            upper=ConjunctionOracle.from_signed_literals([-3, -2, 1], width=3),
            lower=ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3),
        ),
        candidates=PartialCandidateSet.from_strings(["011", "101"]),
    )


def _four_candidate_problem() -> SearchProblem:
    return SearchProblem(
        global_oracle=ConcatenatedOracle(
            upper=ConjunctionOracle.from_signed_literals([2, -1], width=2),
            lower=ConjunctionOracle.from_signed_literals([4, -3, 2, 1], width=4),
        ),
        candidates=PartialCandidateSet.from_strings(["0011", "0101", "1011", "1110"]),
    )


def test_criterion_01_one_rotation_exactness():
    def simulate() -> float:
        sv = run_grover(init_uniform(2), np.arange(4) == 2, qubit_range(0, 2), rounds=1)
        return float(probabilities(sv.freeze())[2])

    simulate()
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        prob = simulate()
        timings.append(time.perf_counter() - started)
    best = min(timings)
    rounds = iteration_count(4, 1)
    ok = abs(prob - 1.0) <= 1e-9 and rounds == 1 and best < 1e-3
    _report(
        1,
        ok,
        f"n=4, k=1: P = {prob:.12f} after iteration_count(4,1) = {rounds} round "
        f"in {best * 1e6:.0f} us",
    )


def test_criterion_02_analytic_success_law():
    worst = 0.0
    cells = 0
    for m in range(1, 9):
        n = 2**m
        for k in (1, 2, 4):
            if k > n:
                continue
            marked = np.arange(n) < k
            for rounds in range(0, 9):
                sv = run_grover(init_uniform(m), marked, qubit_range(0, m), rounds).freeze()
                simulated = float(probabilities(sv)[:k].sum())
                predicted = success_probability(n, k, rounds)
                worst = max(worst, abs(simulated - predicted))
                cells += 1
    ok = worst <= 1e-9
    _report(2, ok, f"{cells} (m, k, r) cells; worst |simulated - analytic| = {worst:.2e}")


def test_criterion_03_product_reproduction():
    problem = _five_qubit_problem()
    sv = product_subspace_search(problem)
    dist = probability_map(sv)
    first = dist.get("10011", 0.0)
    second = dist.get("10101", 0.0)
    purity = partition_purity(sv, problem.lower_qubits)
    ok = (
        0.47 <= first <= 0.53
        and 0.47 <= second <= 0.53
        and purity >= 1 - 1e-9
    )
    _report(
        3,
        ok,
        f"P(10011) = {first:.9f}, P(10101) = {second:.9f}, "
        f"lower-cut purity = {purity:.12f}",
    )


def test_criterion_04_one_over_v_law():
    problem = _five_qubit_problem()
    dist = probability_map(entangled_nested(problem))
    peak = dist.get("10101", 0.0)
    residues = [dist.get(f"{z:02b}011", 0.0) for z in range(4)]
    purity = partition_purity(entangled_nested(problem), problem.lower_qubits)

    four = _four_candidate_problem()
    quarter_peak = probability_map(entangled_nested(four)).get("101011", 0.0)

    ok = (
        0.42 <= peak <= 0.52
        and all(0.10 <= value <= 0.13 for value in residues)
        and purity < 0.999
        and 0.9 / 4 <= quarter_peak <= 1.05 / 4
    )
    _report(
        4,
        ok,
        f"P(10101) = {peak:.6f}, residues per |z,011> = "
        f"[{', '.join(f'{value:.6f}' for value in residues)}], "
        f"lower-cut purity = {purity:.6f}; v=4 variant P(101011) = {quarter_peak:.6f}",
    )


def test_criterion_05_iterative_sweep():
    started = time.perf_counter()
    report, exit_code = run_sweep(m=5, g=3, shots_per_trial=256, seed=0)
    elapsed = time.perf_counter() - started
    rows = report["rows"]
    rows_ok = all(
        row["verified"]
        and row["found"] == "10" + row["lower_target"]
        and row["oracle_calls"] <= row["budget"]
        for row in rows
    )
    ok = (
        exit_code == 0
        and len(rows) == 8
        and report["all_verified"]
        and rows_ok
        and elapsed < 1.0
    )
    _report(
        5,
        ok,
        f"8/8 lower-target placements verified, oracle_calls <= "
        f"{rows[0]['budget']} in every run, sweep took {elapsed:.3f} s",
    )


def test_criterion_06_disentangled_blocks():
    problem = _six_qubit_problem()
    outcome = disentangled_search(problem)
    match = problem.matching_candidate_index()
    target = problem.upper_target
    distributions = {
        k: block_distribution(problem, outcome.state, k)
        for k in range(1, problem.v + 1)
    }
    matching_prob = float(distributions[match][target])
    other_probs = [
        float(distributions[k][target]) for k in distributions if k != match
    ]
    flag_clean = [
        flag_excitation(problem, outcome.state, k) for k in range(1, problem.v + 1)
    ]
    ok = (
        outcome.winning_index == match
        and matching_prob >= 0.9
        and all(value <= 0.6 for value in other_probs)
        and all(value <= 1e-9 for value in flag_clean)
    )
    _report(
        6,
        ok,
        f"matching block {match} measures {problem.upper_target_bits} at "
        f"{matching_prob:.9f} exactly, "
        f"others at {[f'{value:.6f}' for value in other_probs]}, "
        f"worst flag excitation {max(flag_clean):.2e}",
    )


LOW_CODE_MATRIX = np.array(
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.complex128,
)
HIGH_CODE_MATRIX = np.array(
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.complex128,
)


def test_criterion_07_permutation():
    paths = PartialCandidateSet.from_strings(["011", "101"])
    low = build_permutation(paths, convention="standard")
    high = build_permutation(paths, convention="little_endian")
    # column y of a relabeling matrix carries its 1 in row mapping[y]
    matrices_ok = low.mapping == tuple(
        np.argmax(LOW_CODE_MATRIX, axis=0)
    ) and high.mapping == tuple(np.argmax(HIGH_CODE_MATRIX, axis=0))

    cnot_worst = 0.0
    for spec in (low, high):
        data, flags = qubit_range(0, 3), qubit_range(3, 5)
        for source in range(8):
            out = apply_cnot_permutation(
                Register.copy_of(basis_state(5, source)), spec, data, flags
            )
            expected = basis_state(5, spec.mapping[source])
            cnot_worst = max(
                cnot_worst, float(abs(out.amplitudes - expected.amplitudes).max())
            )

    problem = _five_qubit_problem()
    exact = probability_map(compacted_search_state(problem).state).get("10101", 0.0)
    counter = QueryCounter()
    result = measure_and_verify(
        problem, compacted_search_state(problem, counter).state, 256, 1, counter,
        problem.matching_candidate_index(),
    )
    ok = (
        matrices_ok
        and cnot_worst <= 1e-12
        and exact >= 0.9
        and result.verified
        and result.found == "10101"
    )
    _report(
        7,
        ok,
        f"both 8x8 relabeling matrices exact, controlled-not realization deviates "
        f"{cnot_worst:.1e} over all basis states, search recovers 10101 at "
        f"exact P = {exact:.9f}",
    )


def test_criterion_08_cost_model():
    single = iteration_count(4, 1) == 1
    quarter = all(
        iteration_count(n, n // 4) == 1 for n in (4, 8, 16, 64, 256, 1024, 4096)
    )

    def staged(m, g):
        return cost("decomposition-ideal", m, g, 1).total

    def flat(m):
        return cost("baseline", m, m // 2, 1).total

    split_ok = True
    for m in range(2, 25):
        best_g = min(range(1, m), key=lambda g: staged(m, g))
        split_ok = (
            split_ok
            and abs(staged(m, best_g) - staged(m, m // 2)) <= 1e-9
            and best_g in (math.floor(m / 2), math.ceil(m / 2))
        )

    sampled = {m: times_ratio(m, 4) for m in (24, 32, 64, 128)}
    band_ok = all(abs(value - 1.45) <= 0.02 for value in sampled.values())
    limit = times_ratio_limit(4)
    band_ok = band_ok and abs(limit - 1.45) <= 0.02
    boundary = times_ratio(16, 4)

    budget_ok = True
    for m in range(4, 21):
        cap = math.floor(v_max(m))
        for v in range(1, cap + 1):
            budget_ok = budget_ok and cost("iterative", m, m // 2, v).total < flat(m)

    # staging saves exactly when (a-1)(b-1) > 1, a = sqrt(2**g), b = sqrt(2**(m-g))
    saves_ok = all(
        (staged(m, g) < flat(m) - 1e-9)
        == ((math.sqrt(2**g) - 1) * (math.sqrt(2 ** (m - g)) - 1) > 1 + 1e-9)
        for m in range(2, 31)
        for g in range(1, m)
    )

    ok = single and quarter and split_ok and band_ok and budget_ok and saves_ok
    _report(
        8,
        ok,
        "iteration_count(4,1)=1 and quarter-marked rotations land in 1; integer "
        "scan certifies the midpoint split for m <= 24; iterative/disentangled "
        f"ratio = {', '.join(f'{ratio:.4f} (m={m})' for m, ratio in sampled.items())} "
        f"with limit {limit:.4f}, all within 1.45 +/- 0.02 (the pinned formula "
        f"gives exactly {boundary:.2f} at m=16 and enters the band at m=23); "
        "budget implication holds for m in 4..20; staging saves exactly when "
        "(a-1)(b-1) > 1 for 1 <= g < m <= 30",
    )


def test_criterion_09_dense_crosscheck():
    worst = 0.0
    checked = []
    all_passed = True
    for name, path in sorted(bundled_configs().items()):
        config = load_config(path)
        assert config.m <= 6
        report, exit_code = run_verification(config)
        worst = max(worst, report["kernel_checks"]["max_deviation"])
        if "cnot_check" in report:
            worst = max(worst, report["cnot_check"]["max_deviation"])
        all_passed = all_passed and report["passed"] and exit_code == 0
        checked.append(name)
    ok = all_passed and worst < 1e-10 and len(checked) == 5
    _report(
        9,
        ok,
        f"{len(checked)}/5 bundled configs replayed with every kernel checked, "
        f"worst elementwise deviation = {worst:.2e}",
    )


def test_criterion_10_determinism():
    identical = True
    for name, path in sorted(bundled_configs().items()):
        config = load_config(path)
        first, _ = run_experiment(config)
        second, _ = run_experiment(config)
        identical = (
            identical
            and render_json(first) == render_json(second)
            and render_run_csv(first) == render_run_csv(second)
        )
    ok = identical
    _report(
        10,
        ok,
        "5/5 bundled configs produce byte-identical json and csv on repeat runs "
        "with the same seed",
    )
