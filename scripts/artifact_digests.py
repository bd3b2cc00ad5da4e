#!/usr/bin/env python3
"""Print the sha256 of every benchmark job's artifact, one line per job.

    python3 scripts/artifact_digests.py amplify-wide cli-small --seeds 1 2

Builds each workload's job list with ``bench/workloads.py`` in a temp
directory, runs every job once through ``qtreesearch.cli.main`` and prints
``<workload> <seed> <label> <exit> <sha256>``. Then it runs each bundled
config under ``run`` and ``verify``, in json and in csv, and prints
``stdout <command> <format> <config> <exit> <sha256>`` of what the command
writes to stdout; text is left out, since it ends with the wall time. Two
checkouts agree byte for byte on these outputs when their lines are equal:
run the script with each checkout's ``src`` first on ``PYTHONPATH`` and
compare. As in the
benchmark, OpenBLAS, OpenMP and MKL are pinned to one thread before numpy
loads, since the last bits of a wide purity follow the thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from qtreesearch.cli import main as cli_main
from qtreesearch.config import bundled_config_dir, bundled_configs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves its class's module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def digests(workloads, workload: str, seed: int):
    """Yield (label, exit code, sha256) of every job of one workload and seed."""
    with tempfile.TemporaryDirectory() as work:
        for job in workloads.build_jobs(workload, seed, Path(work), bundled_config_dir()).jobs:
            # a job writes its artifact to --out; anything it prints is dropped
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exit_code = cli_main(job.argv)
            digest = hashlib.sha256(job.out.read_bytes()).hexdigest() if job.out.is_file() else "-"
            yield job.label, exit_code, digest


def stdout_digests():
    """Yield (command, format, config, exit code, sha256 of its stdout) for
    every bundled config under ``run`` and ``verify``, in json and csv."""
    for command in ("run", "verify"):
        for output_format in ("json", "csv"):
            for name in sorted(bundled_configs()):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    exit_code = cli_main([command, "--config", name, "--format", output_format])
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                yield command, output_format, name, exit_code, digest


def main() -> int:
    workloads = _workloads()
    # raw, so the usage line in the docstring keeps its own line
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workloads", nargs="+", choices=workloads.WORKLOADS, metavar="WORKLOAD")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1], metavar="N")
    args = parser.parse_args()
    for workload in args.workloads:
        for seed in args.seeds:
            for label, exit_code, digest in digests(workloads, workload, seed):
                print(f"{workload} {seed} {label} {exit_code} {digest}", flush=True)
    for command, output_format, name, exit_code, digest in stdout_digests():
        print(f"stdout {command} {output_format} {name} {exit_code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
