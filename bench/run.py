#!/usr/bin/env python3
"""Benchmark of the qtreesearch command line on three workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload amplify-wide --seed 1 --seconds 30 --trace 0

Each job is one in-process call of ``qtreesearch.cli.main`` writing its JSON
artifact into ``.bench_work/``. Every artifact is checked against values the
benchmark computes itself (see ``checks.py``), and every pass over the job
list must reproduce the first pass's artifacts byte for byte. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

The process pins OpenBLAS, OpenMP and MKL to one thread before numpy loads;
with OpenBLAS's default pool, the first job of a process could run five
times slower than the rest.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure_setup(config_paths: list[str], work: Path) -> float:
    """Median over fresh interpreters of import plus config load and validation."""
    listing = work / "setup_configs.json"
    listing.write_text(json.dumps(config_paths))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "src", str(listing)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Pass:
    """Outcome of one pass over the job list."""

    def __init__(self) -> None:
        self.job_seconds: list[tuple[str, float]] = []  # (strategy key, seconds)
        self.wall = 0.0  # every job of the pass, failed ones included
        self.digests: dict[str, str | None] = {}  # None: no artifact
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.trials = 0  # trials the artifacts report, for the traced ratio
        self.kernel_checks = 0  # kernel checks the verify reports list


def check_job(job, exit_code: int, result: Pass, checks) -> bool:
    """Check one job's artifact into ``result``; True when the job failed.

    The parsed artifact lives only in this call, so it does not add to the
    next job's peak memory.
    """
    if not job.out.is_file():
        result.digests[job.label] = None
        # no report is no honest report, so the known fault still stands
        if job.known_failure:
            return True
        result.problems.append(f"{job.label}: no artifact, exit code {exit_code}")
        return False
    data = job.out.read_bytes()
    result.digests[job.label] = hashlib.sha256(data).hexdigest()
    payload = json.loads(data)
    failed = False
    if job.kind == "run":
        problems = checks.check_run(job.instance, payload, exit_code)
        if job.strategy == "iterative":
            result.trials += payload["result"]["trials"]
    elif job.kind == "verify":
        # the one known fault, a report that vouches for kernels it never
        # checked, counts as a failed operation, not a wrong output
        problems, failed = checks.check_verify(job.instance, payload, exit_code, job.known_failure)
        result.kernel_checks += payload["kernel_checks"]["count"]
        if job.strategy == "iterative":
            result.trials += len(job.instance["candidates"])
    else:
        problems = checks.check_sweep(job.instance, payload, exit_code)
        result.trials += sum(row["trials"] for row in payload["rows"])
    result.problems += [f"{job.label}: {p}" for p in problems]
    return failed


def run_pass(jobs, cli_main, checks, tracer=None) -> Pass:
    result = Pass()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job)
        job.out.unlink(missing_ok=True)
        started = time.perf_counter()
        exit_code = cli_main(job.argv)
        seconds = time.perf_counter() - started
        result.wall += seconds
        result.attempted += 1
        if check_job(job, exit_code, result, checks):
            result.failed += 1
        else:
            key = "sweep" if job.kind == "sweep" else job.strategy
            result.job_seconds.append((key, seconds))
    return result


def differing_artifacts(first: Pass, later: Pass) -> list[str]:
    """Jobs whose artifact bytes differ between two passes."""
    return sorted(k for k in first.digests if later.digests.get(k) != first.digests[k])


def end_to_end_metrics(passes: list[Pass], setup_s: float, strategies) -> dict:
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
    }
    for strategy in strategies:
        samples = [s for p in passes for key, s in p.job_seconds if key == strategy]
        metrics[f"job_s.{strategy}"] = {"value": statistics.median(samples), "unit": "s"}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qtreesearch" / "cli.py").is_file():
        return _fail(f"no qtreesearch sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; pick from {workloads.WORKLOADS}")

    from qtreesearch.cli import main as cli_main
    from qtreesearch.config import bundled_config_dir

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        builder = workloads.build_jobs(args.workload, args.seed, work, bundled_config_dir())
        jobs = builder.jobs
        setup_s = None if args.trace else measure_setup(builder.config_paths, work)
        warm = run_pass(jobs, cli_main, checks)
        passes: list[Pass] = []
        traced: list[Pass] = []
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        started = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, cli_main, checks))
            if tracer is not None:
                with tracer.installed():
                    traced.append(run_pass(jobs, cli_main, checks, tracer))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [warm] + passes + traced
    problems = [p for one in every for p in one.problems]
    for one in passes + traced:
        changed = differing_artifacts(warm, one)
        if changed:
            problems.append(f"artifacts differ between passes: {changed}")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(traced, passes)
    else:
        metrics = end_to_end_metrics(passes, setup_s, workloads.STRATEGIES)
    line = {
        "correct": not problems,
        "attempted": sum(one.attempted for one in every),
        "failed": sum(one.failed for one in every),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
