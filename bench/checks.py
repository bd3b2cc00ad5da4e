"""Checks of every artifact against values computed apart from the program.

Round counts come from the benchmark's own floor(pi/4 * sqrt(N/k)) and
success probabilities from the analytic law sin^2((2r + 1) theta); none of
the program's helpers are used. Each check returns a list of problems, empty
when the artifact is right.
"""

from __future__ import annotations

import math

LAW_TOL = 1e-9
KERNEL_TOL = 1e-10
# probability_map drops labels below 1e-12, so a histogram over n-bit labels
# may miss at most 2**n * 1e-12 of the mass
SUPPORT_FLOOR = 1e-12

KERNEL_KINDS = {
    "product": {"phase_flip", "diffusion"},
    "entangled": {"phase_flip", "diffusion"},
    "iterative": {"phase_flip", "diffusion"},
    "permutation": {"phase_flip", "diffusion", "index_map"},
    "disentangled": {"phase_flip", "diffusion", "conditional_bit_flip"},
}


def rounds(n: int, k: int = 1) -> int:
    return int(math.floor(math.pi / 4 * math.sqrt(n / k)))


def law(n: int, k: int = 1) -> float:
    """Marked mass after the optimal round count, starting from uniform."""
    theta = math.asin(math.sqrt(k / n))
    return math.sin((2 * rounds(n, k) + 1) * theta) ** 2


def code_width(v: int) -> int:
    return (v - 1).bit_length()


def predicted_queries(inst: dict) -> tuple[int, int]:
    """(oracle calls, diffusion calls) a run of this instance must count."""
    m, g, v = inst["m"], inst["g"], len(inst["candidates"])
    r_prep = rounds(2**g, v)
    r_lower = rounds(2**g)
    r_upper = rounds(2 ** (m - g))
    strategy = inst["strategy"]
    if strategy in ("product", "entangled"):
        return r_prep + r_upper, r_prep + r_upper
    if strategy == "iterative":
        trials = inst["candidates"].index(inst["lower"]) + 1
        return trials * (r_lower + r_upper + 1), trials * (r_lower + r_upper)
    if strategy == "permutation":
        quantum = r_prep + rounds(2 ** (code_width(v) + m - g))
        return quantum + 1, quantum
    if strategy == "disentangled":
        quantum = r_prep + v * r_upper + r_lower
        return quantum + 1, quantum
    raise ValueError(f"unknown strategy {strategy!r}")


def predicted_solution_probability(inst: dict) -> float:
    m, g, v = inst["m"], inst["g"], len(inst["candidates"])
    strategy = inst["strategy"]
    if strategy in ("product", "entangled"):
        return law(2**g, v) / v * law(2 ** (m - g))
    if strategy == "iterative":
        return law(2**g) * law(2 ** (m - g))
    if strategy == "permutation":
        return law(2**g, v) * law(2 ** (code_width(v) + m - g))
    if strategy == "disentangled":
        return law(2 ** (m - g))
    raise ValueError(f"unknown strategy {strategy!r}")


def _check_histogram(histogram: dict, shots: int, label_bits: int, where: str) -> list[str]:
    problems = []
    counts = sum(entry["count"] for entry in histogram.values())
    if counts != shots:
        problems.append(f"{where}: counts sum to {counts}, expected {shots}")
    mass = sum(entry["probability"] for entry in histogram.values())
    if abs(mass - 1.0) > 2**label_bits * SUPPORT_FLOOR + LAW_TOL:
        problems.append(f"{where}: probabilities sum to {mass!r}")
    return problems


def check_run(inst: dict, artifact: dict, exit_code: int) -> list[str]:
    """Problems with one `run` artifact of the given instance."""
    strategy = inst["strategy"]
    m = inst["m"]
    solution = inst["upper"] + inst["lower"]
    match_index = inst["candidates"].index(inst["lower"]) + 1
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")

    oracle, diffusion = predicted_queries(inst)
    queries = artifact["queries"]
    if (queries["oracle_calls"], queries["diffusion_calls"]) != (oracle, diffusion):
        problems.append(
            f"queries {queries['oracle_calls']}/{queries['diffusion_calls']}, "
            f"predicted {oracle}/{diffusion}"
        )

    if strategy in ("iterative", "permutation", "disentangled"):
        result = artifact.get("result", {})
        if result.get("found") != solution or not result.get("verified"):
            problems.append(f"found {result.get('found')!r}, planted {solution!r}")
        if result.get("candidate_index") != match_index:
            problems.append(f"candidate_index {result.get('candidate_index')}, expected {match_index}")
    if strategy == "entangled":
        top = max(artifact["histogram"].items(), key=lambda kv: kv[1]["probability"])[0]
        if top != solution:
            problems.append(f"most probable label {top!r}, planted {solution!r}")

    predicted = predicted_solution_probability(inst)
    if strategy == "disentangled":
        winner = artifact.get("winning_index")
        if winner != match_index:
            problems.append(f"winning block {winner}, expected {match_index}")
        else:
            block = artifact["blocks"][winner - 1]
            observed = block["target_probability"]
            if abs(observed - predicted) > LAW_TOL:
                problems.append(f"winning block mass {observed!r}, law {predicted!r}")
        for block in artifact["blocks"]:
            mass = sum(block["distribution"].values())
            if abs(mass - 1.0) > LAW_TOL:
                problems.append(f"block {block['index']} distribution sums to {mass!r}")
    else:
        observed = artifact["histogram"].get(solution, {}).get("probability", 0.0)
        if abs(observed - predicted) > LAW_TOL:
            problems.append(f"solution probability {observed!r}, law {predicted!r}")

    if strategy == "product":
        purity = artifact["purity"][0]["purity"]
        if abs(purity - 1.0) > LAW_TOL:
            problems.append(f"product-cut purity {purity!r}")

    if strategy == "iterative":
        for trial in artifact["trials"]:
            problems += _check_histogram(
                trial["histogram"], inst["shots_per_trial"], m, f"trial {trial['candidate_index']}"
            )
        if len(artifact["trials"]) != match_index:
            problems.append(f"{len(artifact['trials'])} trials, expected {match_index}")
    else:
        label_bits = len(next(iter(artifact["histogram"])))
        problems += _check_histogram(artifact["histogram"], inst["shots"], label_bits, "histogram")
    return problems


def check_verify(
    inst: dict, report: dict, exit_code: int, known_failure: bool = False
) -> tuple[list[str], bool]:
    """(problems, whether the report is the known dishonest one).

    A problem is a wrong output: a kernel beyond tolerance, an exit code that
    disagrees with ``passed``, or a report that does not pass with every
    kernel kind the strategy applies checked. For the ``known_failure``
    config the only fault counted is the known one, a report that says
    ``passed`` while a kernel kind went unchecked; that returns True. An
    honest report ends it: ``passed`` with every kind checked, or
    ``passed: false``.
    """
    problems = []
    checks = report["kernel_checks"]
    for label, deviation in checks["by_operation"].items():
        if deviation > KERNEL_TOL:
            problems.append(f"{label} deviates by {deviation!r}")
    if checks["max_deviation"] > KERNEL_TOL:
        problems.append(f"max deviation {checks['max_deviation']!r}")
    if inst["strategy"] == "permutation":
        cnot = report.get("cnot_check")
        if cnot is None or cnot["max_deviation"] > KERNEL_TOL:
            problems.append(f"controlled-not check {cnot!r}")
    passed = report.get("passed") is True
    if passed != (exit_code == 0):
        problems.append(f"passed={report.get('passed')}, exit code {exit_code}")
    unchecked = sorted(KERNEL_KINDS[inst["strategy"]] - set(checks["by_operation"]))
    if known_failure:
        return problems, passed and bool(unchecked)
    problems += [f"{kind} never checked" for kind in unchecked]
    if not passed:
        problems.append("report did not pass")
    return problems, False


def check_sweep(inst: dict, report: dict, exit_code: int) -> list[str]:
    m, g = inst["m"], inst["g"]
    budget = 2 * (rounds(2**g) + rounds(2 ** (m - g)) + 1)
    upper = "1" + "0" * (m - g - 1)
    problems = []
    if exit_code != 0 or not report.get("all_verified"):
        problems.append(f"all_verified={report.get('all_verified')}, exit code {exit_code}")
    if len(report["rows"]) != 2**g:
        problems.append(f"{len(report['rows'])} rows, expected {2**g}")
    for row in report["rows"]:
        target = row["lower_target"]
        if row["found"] != upper + target or not row["verified"] or row["trials"] != 2:
            problems.append(f"row {target}: found {row['found']!r} after {row['trials']} trials")
        if row["oracle_calls"] != budget:
            problems.append(f"row {target}: {row['oracle_calls']} oracle calls, predicted {budget}")
    return problems
