"""Every benchmark job's output passes the benchmark's own checks.

bench/run.py checks each artifact it writes against values it computes
apart from the program (bench/checks.py). These tests build the job list
of each workload at seed 1, run every job once through ``cli.main`` and
apply the same checks, so a wrong artifact fails tier-1 and not only a
benchmark run. The verify workload's known-failure job must not be the
dishonest report the benchmark counts as failed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qtreesearch.cli import main
from qtreesearch.config import bundled_config_dir

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves its class's module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


def _problems(job, exit_code):
    report = json.loads(job.out.read_text())
    if job.kind == "run":
        return checks.check_run(job.instance, report, exit_code)
    if job.kind == "verify":
        problems, dishonest = checks.check_verify(
            job.instance, report, exit_code, job.known_failure
        )
        return problems + ["passed with a kernel kind unchecked"] * dishonest
    return checks.check_sweep(job.instance, report, exit_code)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_passes_the_benchmark_checks(workload, tmp_path):
    jobs = workloads.build_jobs(workload, 1, tmp_path, bundled_config_dir()).jobs
    assert jobs
    problems = []
    for job in jobs:
        exit_code = main(job.argv)
        assert job.out.is_file(), f"{job.label}: no artifact, exit code {exit_code}"
        problems += [f"{job.label}: {problem}" for problem in _problems(job, exit_code)]
    assert problems == []
