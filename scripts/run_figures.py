#!/usr/bin/env python3
"""Run every bundled experiment config and collect the JSON artifacts.

Writes one <name>.json per config into the output directory and prints a
one-line summary per run. Exit status is the worst exit code seen, so CI
can gate on it; bad input exits 1 with one ``error:`` line, as the
``qtreesearch`` CLI does.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from qtreesearch.cli import open_output, render_json
from qtreesearch.config import bundled_configs, load_config
from qtreesearch.runner import EXIT_CONFIG_ERROR, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="artifacts", help="where to put the JSON files")
    parser.add_argument("--seed", type=int, default=None, help="override every config's seed")
    args = parser.parse_args()
    try:
        return run_all(Path(args.out_dir), args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: cannot write {args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def run_all(out_dir: Path, seed: int | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name, path in sorted(bundled_configs().items()):
        config = load_config(path)
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        artifact, exit_code = run_experiment(config)
        with open_output(str(out_dir / f"{name}.json")) as write:
            render_json(artifact, write)
        worst = max(worst, exit_code)
        summary = artifact.get("result")
        if summary is None:
            histogram = artifact["histogram"]
            # argmax takes the first maximum, the smallest label among ties
            top = int(np.argmax(histogram.probabilities))
            line = (
                f"prepared, top outcome {histogram.labels()[top]} "
                f"at {histogram.probabilities[top]:.4f}"
            )
        else:
            line = (
                f"verified={summary['verified']} found={summary['found']} "
                f"trials={summary['trials']}"
            )
        print(f"{name}: strategy={config.strategy} -> {line} [exit {exit_code}]")
    print(f"artifacts in {out_dir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
