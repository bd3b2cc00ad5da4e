"""Each benchmark check accepts a real artifact and rejects a doctored one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qtreesearch.cli import main as cli_main  # noqa: E402

SIZES = {
    "product": (6, 3, 3),
    "entangled": (6, 3, 3),
    "iterative": (6, 3, 3),
    "disentangled": (6, 3, 2),
    "permutation": (7, 4, 4),
}


def _artifact(tmp_path: Path, kind: str, inst: dict):
    config = tmp_path / f"{inst['name']}.yaml"
    config.write_text(workloads.config_yaml(inst))
    out = tmp_path / f"{kind}-{inst['name']}.json"
    code = cli_main([kind, "--config", str(config), "--format", "json", "--out", str(out)])
    return json.loads(out.read_text()), code


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(7)
    return {
        strategy: workloads.seeded_instance(rng, f"t_{strategy}", strategy, *size)
        for strategy, size in SIZES.items()
    }


@pytest.fixture(scope="module")
def runs(instances, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {s: _artifact(tmp, "run", inst) for s, inst in instances.items()}


@pytest.fixture(scope="module")
def reports(instances, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    return {s: _artifact(tmp, "verify", inst) for s, inst in instances.items()}


def _doctored_run(instances, runs, strategy, edit):
    artifact, code = runs[strategy]
    artifact = copy.deepcopy(artifact)
    edit(artifact, instances[strategy])
    return checks.check_run(instances[strategy], artifact, code)


def _solution(inst):
    return inst["upper"] + inst["lower"]


@pytest.mark.parametrize("strategy", sorted(SIZES))
def test_real_run_artifacts_pass(instances, runs, strategy):
    artifact, code = runs[strategy]
    assert checks.check_run(instances[strategy], artifact, code) == []


@pytest.mark.parametrize("strategy", sorted(SIZES))
def test_real_verify_reports_pass(instances, reports, strategy):
    report, code = reports[strategy]
    assert checks.check_verify(instances[strategy], report, code) == ([], False)


@pytest.mark.parametrize("strategy", sorted(SIZES))
def test_query_count_off_by_one_is_rejected(instances, runs, strategy):
    def edit(artifact, inst):
        artifact["queries"]["oracle_calls"] += 1

    assert _doctored_run(instances, runs, strategy, edit)


@pytest.mark.parametrize("strategy", ["iterative", "permutation", "disentangled"])
def test_wrong_found_string_is_rejected(instances, runs, strategy):
    def edit(artifact, inst):
        found = artifact["result"]["found"]
        artifact["result"]["found"] = found[:-1] + ("1" if found[-1] == "0" else "0")

    assert _doctored_run(instances, runs, strategy, edit)


def test_entangled_top_label_must_be_the_solution(instances, runs):
    def edit(artifact, inst):
        artifact["histogram"][_solution(inst)]["probability"] = 0.0

    assert _doctored_run(instances, runs, "entangled", edit)


@pytest.mark.parametrize("strategy", ["product", "entangled", "iterative", "permutation"])
def test_solution_probability_off_the_law_is_rejected(instances, runs, strategy):
    def edit(artifact, inst):
        artifact["histogram"][_solution(inst)]["probability"] += 1e-8

    problems = _doctored_run(instances, runs, strategy, edit)
    assert any("law" in p for p in problems)


def test_winning_block_mass_off_the_law_is_rejected(instances, runs):
    def edit(artifact, inst):
        winner = artifact["winning_index"]
        artifact["blocks"][winner - 1]["target_probability"] -= 1e-8

    assert any("law" in p for p in _doctored_run(instances, runs, "disentangled", edit))


def test_wrong_winning_block_is_rejected(instances, runs):
    def edit(artifact, inst):
        artifact["winning_index"] = 1

    assert _doctored_run(instances, runs, "disentangled", edit)


def test_block_distribution_must_sum_to_one(instances, runs):
    def edit(artifact, inst):
        distribution = artifact["blocks"][0]["distribution"]
        distribution[next(iter(distribution))] += 1e-6

    assert _doctored_run(instances, runs, "disentangled", edit)


def test_product_purity_below_one_is_rejected(instances, runs):
    def edit(artifact, inst):
        artifact["purity"][0]["purity"] = 0.99

    assert _doctored_run(instances, runs, "product", edit)


@pytest.mark.parametrize("strategy", sorted(SIZES))
def test_counts_must_sum_to_shots(instances, runs, strategy):
    def edit(artifact, inst):
        histogram = artifact["trials"][0]["histogram"] if strategy == "iterative" else artifact["histogram"]
        histogram[next(iter(histogram))]["count"] += 1

    assert any("counts" in p for p in _doctored_run(instances, runs, strategy, edit))


@pytest.mark.parametrize("strategy", ["product", "disentangled", "permutation"])
def test_probabilities_must_sum_to_one(instances, runs, strategy):
    def edit(artifact, inst):
        label = next(lab for lab in artifact["histogram"] if lab != _solution(inst))
        artifact["histogram"][label]["probability"] += 1e-6

    assert any("probabilities" in p for p in _doctored_run(instances, runs, strategy, edit))


def test_missing_trial_is_rejected(instances, runs):
    def edit(artifact, inst):
        artifact["trials"].pop(0)

    assert _doctored_run(instances, runs, "iterative", edit)


@pytest.mark.parametrize("strategy", sorted(SIZES))
def test_exit_code_must_be_zero(instances, runs, strategy):
    artifact, _ = runs[strategy]
    assert checks.check_run(instances[strategy], artifact, 2)


@pytest.mark.parametrize(
    "strategy, kind",
    [("disentangled", "conditional_bit_flip"), ("permutation", "index_map"), ("product", "diffusion")],
)
def test_passed_report_missing_a_kernel_kind_is_a_problem(instances, reports, strategy, kind):
    report, code = copy.deepcopy(reports[strategy])
    del report["kernel_checks"]["by_operation"][kind]
    assert checks.check_verify(instances[strategy], report, code) == ([f"{kind} never checked"], False)


def test_report_that_did_not_pass_is_a_problem(instances, reports):
    report, _ = copy.deepcopy(reports["entangled"])
    report["passed"] = False
    assert checks.check_verify(instances["entangled"], report, 2) == (["report did not pass"], False)


@pytest.mark.parametrize("passed, code", [(True, 2), (False, 0)])
def test_exit_code_disagreeing_with_passed_is_a_problem(instances, reports, passed, code):
    report, _ = copy.deepcopy(reports["entangled"])
    report["passed"] = passed
    assert checks.check_verify(instances["entangled"], report, code)[0]


def _known_failure_report(reports, passed):
    report, _ = copy.deepcopy(reports["disentangled"])
    del report["kernel_checks"]["by_operation"]["conditional_bit_flip"]
    report["passed"] = passed
    return report


def test_known_failure_counts_while_report_vouches_for_unchecked_kernels(instances, reports):
    report = _known_failure_report(reports, passed=True)
    assert checks.check_verify(instances["disentangled"], report, 0, known_failure=True) == ([], True)


def test_honest_report_ends_the_known_failure(instances, reports):
    report = _known_failure_report(reports, passed=False)
    assert checks.check_verify(instances["disentangled"], report, 2, known_failure=True) == ([], False)
    report, code = reports["disentangled"]
    assert checks.check_verify(instances["disentangled"], report, code, known_failure=True) == ([], False)


def test_kernel_deviation_beyond_tolerance_is_a_problem(instances, reports):
    report, code = copy.deepcopy(reports["iterative"])
    report["kernel_checks"]["by_operation"]["diffusion"] = 1e-9
    assert checks.check_verify(instances["iterative"], report, code)[0]


def test_controlled_not_deviation_is_a_problem(instances, reports):
    report, code = copy.deepcopy(reports["permutation"])
    report["cnot_check"]["max_deviation"] = 1.0
    assert checks.check_verify(instances["permutation"], report, code)[0]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.json"
    code = cli_main(["sweep", "--m", "6", "--g", "3", "--seed", "5", "--format", "json", "--out", str(out)])
    return {"m": 6, "g": 3, "shots_per_trial": 256}, json.loads(out.read_text()), code


def test_real_sweep_passes(sweep):
    inst, report, code = sweep
    assert checks.check_sweep(inst, report, code) == []


@pytest.mark.parametrize("field, value", [("oracle_calls", 0), ("found", "000000"), ("trials", 1)])
def test_doctored_sweep_row_is_rejected(sweep, field, value):
    inst, report, code = sweep
    report = copy.deepcopy(report)
    report["rows"][3][field] = value
    assert checks.check_sweep(inst, report, code)


def test_artifacts_differing_between_passes_are_named():
    first, later = run.Pass(), run.Pass()
    first.digests = {"a": "1", "b": "2"}
    later.digests = {"a": "1", "b": "3"}
    assert run.differing_artifacts(first, later) == ["b"]
    assert run.differing_artifacts(first, first) == []


@pytest.mark.parametrize("known_failure, failed", [(False, False), (True, True)])
def test_missing_artifact_is_never_taken_from_an_earlier_pass(tmp_path, known_failure, failed):
    out = tmp_path / "job.json"
    out.write_text("{}")
    job = workloads.Job("job", "verify", "disentangled", ["no-such-command"], out, {}, known_failure)

    def crashing_cli(argv):
        return 1

    result = run.run_pass([job], crashing_cli, checks)
    assert result.failed == int(failed)
    assert bool(result.problems) != failed
    assert result.digests == {"job": None}


def test_law_matches_textbook_values():
    # one rotation on four states reaches the marked state exactly
    assert checks.rounds(4) == 1 and checks.law(4) == pytest.approx(1.0, abs=1e-15)
    assert checks.law(32) == pytest.approx(0.99918, abs=1e-5)
