"""The scripts under scripts/ run end to end and write what the CLI writes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_figures_writes_the_golden_artifacts(tmp_path):
    done = run_script("run_figures.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in GOLDEN.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_cost_tables_csv():
    done = run_script("cost_tables.py", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "strategy,m,g,v,total,valid,margin,times_ratio"
