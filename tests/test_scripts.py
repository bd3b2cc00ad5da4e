"""The scripts under scripts/ run end to end, write what the CLI writes, and
fail on bad input the way the CLI does."""

import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtreesearch.cli import main
from qtreesearch.config import bundled_config_dir, bundled_configs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_script(name, *args, **env_vars):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_figures_writes_the_golden_artifacts(tmp_path, threads):
    done = run_script("run_figures.py", "--out-dir", str(tmp_path), OPENBLAS_NUM_THREADS=threads)
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in GOLDEN.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_cost_tables_csv(capsys):
    done = run_script("cost_tables.py", "--format", "csv")
    assert done.returncode == 0, done.stderr
    main(["cost", "--m-range", "8,12,16,20,24", "--v-range", "2,4", "--format", "csv"])
    assert done.stdout == capsys.readouterr().out


def test_cost_tables_text_matches_golden():
    done = run_script("cost_tables.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "cli" / "cost_tables.txt").read_text()


def test_artifact_digests_prints_each_job_once_and_the_same_twice(tmp_path, monkeypatch, capsys):
    done = run_script("artifact_digests.py", "cli-small", "--seeds", "1")
    assert done.returncode == 0, done.stderr
    assert run_script("artifact_digests.py", "cli-small", "--seeds", "1").stdout == done.stdout
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # @dataclass resolves its class's module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    jobs = workloads.build_jobs("cli-small", 1, tmp_path, bundled_config_dir()).jobs
    lines = done.stdout.splitlines()
    rows = [line.split(" ") for line in lines[: len(jobs)]]
    assert [row[:3] for row in rows] == [["cli-small", "1", job.label] for job in jobs]
    for _, _, _, exit_code, digest in rows:
        assert exit_code.isdigit()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    # then one line per bundled config's stdout, under run and verify, in
    # json and csv, each the digest of what the CLI prints
    outputs = [line.split(" ") for line in lines[len(jobs) :]]
    assert [row[:4] for row in outputs] == [
        ["stdout", command, output_format, name]
        for command in ("run", "verify")
        for output_format in ("json", "csv")
        for name in sorted(bundled_configs())
    ]
    for _, command, output_format, name, exit_code, digest in outputs:
        assert main([command, "--config", name, "--format", output_format]) == int(exit_code)
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cost_tables.py", "--m", "x"), "cannot parse --m 'x'"),
        (("cost_tables.py", "--m", "0"), "--m: expected one or more values of at least 1"),
        (("cost_tables.py", "--v", "0"), "--v: expected one or more values of at least 1"),
        (("cost_tables.py", "--m", "1024"), "--m/--v: m=1024 (with v=2) makes the baseline cost"),
        (("run_figures.py", "--seed", "-1"), "seed must be non-negative, got -1"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_bad_input_exits_one_with_one_error_line(argv, message, tmp_path):
    if argv[0] == "run_figures.py":
        argv += ("--out-dir", str(tmp_path))
    done = run_script(*argv)
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("argv", [("cost_tables.py", "--out"), ("run_figures.py", "--out-dir")])
def test_unwritable_output_exits_one_with_one_error_line(argv, tmp_path):
    # the target's parent is a file, so neither the temp file nor the
    # directory can be made there
    (tmp_path / "taken").write_text("")
    target = tmp_path / "taken" / "out"
    done = run_script(*argv, str(target))
    assert done.returncode == 1
    assert done.stderr == f"error: cannot write {target}: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_scripts_import_no_private_name(script):
    tree = ast.parse((ROOT / "scripts" / script).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("qtreesearch")
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]
