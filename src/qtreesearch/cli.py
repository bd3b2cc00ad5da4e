"""Command line front end: run, cost, verify, and sweep subcommands.

Machine-readable output (json, csv) is a pure function of config and seed;
wall-clock timing appears only in the text renderer. Files are written by
temp-file-and-rename so readers never observe a partial artifact.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from .config import (
    OUTPUT_FORMATS,
    ExperimentConfig,
    bundled_configs,
    load_config,
    resolve_config,
)
from .costs import STRATEGIES
from .errors import ConfigurationError
from .runner import (
    EXIT_CONFIG_ERROR,
    cost_table,
    run_experiment,
    run_sweep,
    run_verification,
)

COST_COLUMNS = ("strategy", "m", "g", "v", "total", "valid", "margin", "times_ratio")
SWEEP_COLUMNS = (
    "lower_target",
    "decoy",
    "found",
    "verified",
    "trials",
    "oracle_calls",
    "budget",
    "within_budget",
)
HISTOGRAM_COLUMNS = ("label", "count", "probability")


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def _histogram_rows(histogram: dict) -> list[dict]:
    return [
        {"label": label, "count": entry["count"], "probability": entry["probability"]}
        for label, entry in sorted(histogram.items())
    ]


def render_run_csv(artifact: dict) -> str:
    return _csv_text(HISTOGRAM_COLUMNS, _histogram_rows(artifact["histogram"]))


def render_run_text(artifact: dict, wall_time: float) -> str:
    lines = []
    config = artifact["config"]
    name = config.get("name") or "<unnamed>"
    lines.append(
        f"run {name}: strategy={artifact['strategy']} m={config['m']} "
        f"g={config['g']} v={config['v']} seed={config['seed']} shots={config['shots']}"
    )
    lines.append("endianness: little (labels read MSB-left)")
    if "result" in artifact:
        r = artifact["result"]
        lines.append(
            f"result: verified={_cell(r['verified'])} found={r['found'] or '-'} "
            f"candidate_index={r['candidate_index'] if r['candidate_index'] else '-'} "
            f"trials={r['trials']}"
        )
    else:
        lines.append("result: state prepared")
    if "winning_index" in artifact:
        lines.append(f"winning block: {artifact['winning_index']}")
        for block in artifact["blocks"]:
            lines.append(
                f"  block {block['index']} candidate={block['candidate']} "
                f"target_probability={block['target_probability']:.6f} "
                f"flag_excitation={block['flag_excitation']:.3e}"
            )
    if "trials" in artifact:
        for trial in artifact["trials"]:
            lines.append(
                f"  trial {trial['candidate_index']} candidate={trial['candidate']} "
                f"top={trial['top_outcome']} accepted={_cell(trial['accepted'])}"
            )
    if "relabeling" in artifact:
        relabeling = artifact["relabeling"]
        lines.append(
            f"relabeling: convention={relabeling['convention']} "
            f"code_width={relabeling['code_width']} mapping={relabeling['mapping']}"
        )
    lines.append("histogram (top 10 by probability):")
    ranked = sorted(
        artifact["histogram"].items(), key=lambda kv: (-kv[1]["probability"], kv[0])
    )
    for label, entry in ranked[:10]:
        lines.append(
            f"  {label}  count={entry['count']:<6d} probability={entry['probability']:.9f}"
        )
    for cut in artifact["purity"]:
        lines.append(f"purity qubits={cut['qubits']}: {cut['purity']:.9f}")
    queries = artifact["queries"]
    lines.append(
        f"queries: oracle={queries['oracle_calls']} diffusion={queries['diffusion_calls']}"
    )
    cost = artifact["cost"]
    terms = ", ".join(f"{k}={v:.3f}" for k, v in cost["terms"].items())
    lines.append(f"cost[{cost['strategy']}]: total={cost['total']:.3f} ({terms})")
    if "validity" in cost:
        validity = cost["validity"]
        lines.append(
            f"  validity {validity['constraint']}: holds={_cell(validity['holds'])} "
            f"margin={validity['margin']:.3f}"
        )
    lines.append(f"wall_time_s: {wall_time:.4f}")
    return "\n".join(lines) + "\n"


def render_cost_text(rows: list[dict]) -> str:
    table = [[_cell(row.get(column)) or "-" for column in COST_COLUMNS] for row in rows]
    widths = [
        max(len(COST_COLUMNS[i]), max(len(line[i]) for line in table))
        for i in range(len(COST_COLUMNS))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*COST_COLUMNS)]
    lines.extend(fmt.format(*line) for line in table)
    return "\n".join(lines) + "\n"


def render_verify_text(report: dict, wall_time: float) -> str:
    lines = [
        f"verify strategy={report['strategy']} tolerance={report['tolerance']:g}",
        f"kernel checks: {report['kernel_checks']['count']} operations, "
        f"max deviation {report['kernel_checks']['max_deviation']:.3e}",
    ]
    for label, value in report["kernel_checks"]["by_operation"].items():
        lines.append(f"  {label}: {value:.3e}")
    if "cnot_check" in report:
        cnot = report["cnot_check"]
        lines.append(
            f"controlled-not realization: {cnot['basis_states']} basis states, "
            f"{cnot['flag_qubits']} flags, max deviation {cnot['max_deviation']:.3e}"
        )
    lines.append(f"passed: {_cell(report['passed'])}")
    lines.append(f"wall_time_s: {wall_time:.4f}")
    return "\n".join(lines) + "\n"


def render_verify_csv(report: dict) -> str:
    rows = [
        {"operation": label, "max_deviation": value}
        for label, value in report["kernel_checks"]["by_operation"].items()
    ]
    if "cnot_check" in report:
        rows.append(
            {
                "operation": "cnot_realization",
                "max_deviation": report["cnot_check"]["max_deviation"],
            }
        )
    return _csv_text(("operation", "max_deviation"), rows)


def render_sweep_text(report: dict, wall_time: float) -> str:
    lines = [
        f"sweep m={report['m']} g={report['g']} upper_target={report['upper_target']} "
        f"seed={report['seed']} shots_per_trial={report['shots_per_trial']}"
    ]
    table = [[_cell(row.get(c)) or "-" for c in SWEEP_COLUMNS] for row in report["rows"]]
    widths = [
        max(len(SWEEP_COLUMNS[i]), max(len(line[i]) for line in table))
        for i in range(len(SWEEP_COLUMNS))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*SWEEP_COLUMNS))
    lines.extend(fmt.format(*line) for line in table)
    lines.append(f"all_verified: {_cell(report['all_verified'])}")
    lines.append(f"wall_time_s: {wall_time:.4f}")
    return "\n".join(lines) + "\n"


def write_output(text: str, out: str | None) -> None:
    """Print to stdout, or write the file atomically via temp and rename."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    directory = path.parent if str(path.parent) else Path(".")
    fd, temp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
    except BaseException:
        os.unlink(temp_name)
        raise
    os.replace(temp_name, path)


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accept '8', '4,8,16', or 'start:stop[:step]' with inclusive stop."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("too many ':' separators")
            if step < 1:
                raise ValueError("step must be positive")
            return list(range(start, stop + 1, step))
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {what} {text!r}: {exc}") from exc


def _config_with_overrides(args) -> ExperimentConfig:
    config = load_config(resolve_config(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "shots", None) is not None:
        overrides["shots"] = args.shots
    if args.format is not None:
        overrides["format"] = args.format
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_run(args) -> int:
    config = _config_with_overrides(args)
    started = time.perf_counter()
    artifact, exit_code = run_experiment(config)
    wall_time = time.perf_counter() - started
    if config.format == "json":
        text = render_json(artifact)
    elif config.format == "csv":
        text = render_run_csv(artifact)
    else:
        text = render_run_text(artifact, wall_time)
    write_output(text, args.out)
    return exit_code


def _cmd_cost(args) -> int:
    ms = _parse_int_list(args.m_range, "--m-range")
    vs = _parse_int_list(args.v_range, "--v-range")
    if args.strategies.strip() == "all":
        strategies = list(STRATEGIES)
    else:
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    rows = cost_table(ms, vs, strategies)
    if args.format == "json":
        text = render_json({"columns": list(COST_COLUMNS), "rows": rows})
    elif args.format == "csv":
        text = _csv_text(COST_COLUMNS, rows)
    else:
        text = render_cost_text(rows)
    write_output(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    config = load_config(resolve_config(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    started = time.perf_counter()
    report, exit_code = run_verification(config)
    wall_time = time.perf_counter() - started
    if args.format == "json":
        text = render_json(report)
    elif args.format == "csv":
        text = render_verify_csv(report)
    else:
        text = render_verify_text(report, wall_time)
    write_output(text, args.out)
    return exit_code


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    report, exit_code = run_sweep(
        m=args.m, g=args.g, shots_per_trial=args.shots, seed=args.seed
    )
    wall_time = time.perf_counter() - started
    if args.format == "json":
        text = render_json(report)
    elif args.format == "csv":
        text = _csv_text(SWEEP_COLUMNS, report["rows"])
    else:
        text = render_sweep_text(report, wall_time)
    write_output(text, args.out)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtreesearch",
        description="Seeded tree-search experiments on an exact statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = ", ".join(sorted(bundled_configs())) or "none found"
    run_p = sub.add_parser("run", help="execute one configured experiment")
    run_p.add_argument(
        "--config", required=True, help=f"config path or bundled name ({names})"
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--shots", type=int, default=None, help="override the shot count")
    run_p.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    run_p.add_argument("--out", default=None, help="write here instead of stdout")

    cost_p = sub.add_parser("cost", help="tabulate strategy cost formulas")
    cost_p.add_argument("--m-range", default="8:24:4", help="'8', '4,8', or 'lo:hi[:step]'")
    cost_p.add_argument("--v-range", default="1,2,4", help="candidate counts")
    cost_p.add_argument(
        "--strategies", default="all", help=f"comma list from {', '.join(STRATEGIES)}"
    )
    cost_p.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    cost_p.add_argument("--out", default=None)

    verify_p = sub.add_parser(
        "verify", help="replay a config with every kernel checked against its reference"
    )
    verify_p.add_argument("--config", required=True)
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    verify_p.add_argument("--out", default=None)

    sweep_p = sub.add_parser(
        "sweep", help="run the trial loop over every lower-target placement"
    )
    sweep_p.add_argument("--m", type=int, default=5)
    sweep_p.add_argument("--g", type=int, default=3)
    sweep_p.add_argument("--shots", type=int, default=256, help="shots per trial")
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    sweep_p.add_argument("--out", default=None)

    return parser


_COMMANDS = {"run": _cmd_run, "cost": _cmd_cost, "verify": _cmd_verify, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
