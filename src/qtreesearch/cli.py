"""Command line front end: run, cost, verify, and sweep subcommands.

Each subcommand returns a report, and ``main`` writes it through one path:
json through ``render_json``, csv and text through the subcommand's own
renderers in ``_COMMANDS``, then a writer from ``open_output``.
Machine-readable output (json, csv) is a pure function of config and
seed; wall-clock timing is the last line of text output only. JSON output
is byte for byte what ``json.dumps(payload, indent=2, sort_keys=True)``
writes, from a renderer of its own (``render_json``) that refuses NaN and
infinity. A run's histogram reaches every renderer as the ``Histogram`` arrays that
``runner.merge_counts`` returns: json renders each distinct leaf once,
finding the few distinct leaves by one sort of each key rather than by an
argsort, and builds the labels' text in numpy a block at a time; csv zips
the arrays, and text ranks them with ``np.lexsort``.

A json artifact bound for a file is streamed into it: ``render_json``
hands each piece, at most one block of histogram labels, to the writer as
it is rendered, so the artifact is never held whole. Every piece goes
through ``write_output``. Files are written by temp-file-and-rename
(``open_output``) so readers never observe a partial artifact, and a fault
met mid-render, a NaN say, leaves the file as it was. Stdout gets whole
text, so such a fault prints nothing there. A file that cannot be written
is reported as one ``error:`` line and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import (
    OUTPUT_FORMATS,
    ExperimentConfig,
    bundled_configs,
    load_config,
    resolve_config,
)
from .costs import STRATEGIES, cost_table
from .errors import ConfigurationError
from .runner import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    Histogram,
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


_encode_str = json.encoder.encode_basestring_ascii

# histogram labels per piece that ``render_json`` hands to its ``write``: a
# block's rows and their text copies, about 0.2 MB each at 16 qubits, stay
# in cache, and at 4096 they raised a small run's peak RSS by 0.4 MB
_HISTOGRAM_BLOCK = 2048

# entry b: the eight binary digits of byte b in ASCII, as one 8-byte word;
# built from bytes, as numpy arithmetic here cost the import 0.45 MB of RSS
_DIGIT_WORDS = np.frombuffer(b"".join(f"{b:08b}".encode() for b in range(256)), np.uint64)


class _NonFinite(Exception):
    """A NaN or infinite float, with the key path collected on the way out."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.value = value
        self.path: list[str] = []


def render_json(payload, write: Callable[[str], None] | None = None) -> str | None:
    """``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.

    The same bytes, from a renderer that handles only what an artifact
    holds: dicts with str keys, lists, tuples, str, bool, None, int, float
    and ``Histogram``. A histogram is written as the dict
    ``{label: {"count": c, "probability": p}}`` over its support would be,
    without that dict being built (see ``_render_histogram``). A NaN or
    infinite float raises ConfigurationError naming its key path, where
    ``json.dumps`` would write ``NaN``, which is not JSON. Any other type,
    or a non-str key, raises TypeError.

    With ``write``, the text goes to ``write`` in pieces as they are
    rendered, as ``json.dump`` writes to a file, and None is returned. A
    piece is the text pending since the last one plus at most one block of
    ``_HISTOGRAM_BLOCK`` histogram labels, so no artifact is held whole.
    Pieces already written stay written when a later value raises.
    Without ``write``, the pieces are joined and returned.
    """
    pieces: list[str] = []
    emit = pieces.append if write is None else write
    out: list[str] = []
    try:
        _render(payload, "\n", out, emit)
    except _NonFinite as exc:
        where = "".join(reversed(exc.path)).lstrip(".") or "the top level"
        raise ConfigurationError(
            f"cannot write {exc.value!r} at {where} as JSON: not a finite number"
        ) from None
    out.append("\n")
    emit("".join(out))
    return "".join(pieces) if write is None else None


def _render(value, newline: str, out: list[str], write: Callable[[str], None]) -> None:
    """Append ``value`` rendered at the indent that ``newline`` ends with.

    A histogram hands ``out`` to ``write`` with each block of its labels.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _NonFinite(value)
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        comma = "," + inner
        for position, item in enumerate(value):
            out.append(separator)
            separator = comma
            try:
                _render(item, inner, out, write)
            except _NonFinite as exc:
                exc.path.append(f"[{position}]")
                raise
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        comma = "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{separator}{_encode_str(key)}: ")
            separator = comma
            try:
                _render(value[key], inner, out, write)
            except _NonFinite as exc:
                exc.path.append(f".{key}")
                raise
        out.append(newline + "}")
    elif isinstance(value, Histogram):
        _render_histogram(value, newline, out, write)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_histogram(
    histogram: Histogram, newline: str, out: list[str], write: Callable[[str], None]
) -> None:
    """Append a histogram as its label-keyed object of count-probability leaves.

    Amplification from a uniform start keeps every unmarked pattern on one
    amplitude and leaves most counts at 0, so a histogram over 2**16
    labels holds a handful of distinct (count, probability) pairs. Each
    pair's leaf body is rendered once, the probability keyed by its bit
    pattern so that 0.0 and -0.0 stay apart. The pairs are found by
    ``_distinct`` on the probability bits, the counts and the pair key:
    one sort each and a binary search back, so no argsort runs over the
    labels.

    The labels are written ``_HISTOGRAM_BLOCK`` at a time, one fixed-width
    ``uint8`` row per label: the opening quote, the label's ASCII digits
    (a word of eight per byte of the label, from ``_DIGIT_WORDS``), and
    the rest of its line, its pair's row of a NUL-padded table. Dropping
    the NULs leaves the block's text, which goes to ``write`` with the
    text pending in ``out``; no Python object is made per label.
    """
    probs = histogram.probabilities
    finite = np.isfinite(probs)
    if not finite.all():
        position = int(np.argmin(finite))
        exc = _NonFinite(float(probs[position]))
        exc.path += [".probability", "." + histogram.labels()[position]]
        raise exc
    support = histogram.support
    if not support.size:
        out.append("{}")
        return
    inner = newline + "  "
    leaf = inner + "  "
    comma = "," + inner
    # each label's line from its closing quote on, once per distinct
    # (count, probability) pair: '": {', '"count": ' and the rest of the leaf
    p_bits, p_index = _distinct(probs.view(np.int64))
    c_values, c_index = _distinct(histogram.counts)
    pairs, pair_index = _distinct(p_index * c_values.size + c_index)
    p_of, c_of = np.divmod(pairs, c_values.size)
    lines = np.array(
        [
            f'": {{{leaf}"count": {c!r},{leaf}"probability": {p!r}{inner}}}{comma}'.encode()
            for c, p in zip(c_values[c_of].tolist(), p_bits[p_of].view(np.float64).tolist())
        ]
    )
    # NUL-padded to the longest line, one row per pair
    table = lines.view(np.uint8).reshape(lines.size, -1)
    width = histogram.num_qubits
    rows = np.empty((min(support.size, _HISTOGRAM_BLOCK), 1 + width + table.shape[1]), np.uint8)
    rows[:, 0] = ord('"')
    # a word of digits per byte of a label, high byte first
    words = -(-width // 8)
    digits = np.empty((rows.shape[0], words), dtype=np.uint64)
    out.append("{" + inner)
    for start in range(0, support.size, _HISTOGRAM_BLOCK):
        labels = support[start : start + _HISTOGRAM_BLOCK]
        block = rows[: labels.size]
        for word, shift in enumerate(range(8 * words - 8, -1, -8)):
            digits[: labels.size, word] = _DIGIT_WORDS[(labels >> shift) & 0xFF]
        block[:, 1 : 1 + width] = digits[: labels.size].view(np.uint8)[:, 8 * words - width :]
        block[:, 1 + width :] = np.take(table, pair_index[start : start + labels.size], axis=0)
        text = block.tobytes().replace(b"\0", b"").decode("ascii")
        if start + labels.size == support.size:
            text = text[: -len(comma)]
        out.append(text)
        write("".join(out))
        out.clear()
    out.append(newline + "}")


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values, and each value's position among them.

    What ``np.unique(values, return_inverse=True)`` returns, from one sort,
    a comparison of neighbours and a binary search, with no argsort.
    """
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows) -> str:
    """Header plus one line per row; a row lists its values in column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _in_columns(columns, records):
    """Each record's values in column order, None for a missing key."""
    return ([record.get(column) for column in columns] for record in records)


def render_run_csv(artifact: dict) -> str:
    histogram = artifact["histogram"]
    rows = zip(
        histogram.labels(), histogram.counts.tolist(), histogram.probabilities.tolist()
    )
    return _csv_text(HISTOGRAM_COLUMNS, rows)


def render_run_text(artifact: dict) -> str:
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
    elif "winning_index" in artifact:
        # no block cleared the decision threshold, so no candidate was recovered
        lines.append("result: verified=false found=- (no winning block)")
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
    histogram = artifact["histogram"]
    # highest probability first, ties by index, which is label order
    top = np.lexsort((histogram.support, -histogram.probabilities))[:10]
    width = f"0{histogram.num_qubits}b"
    for index, count, probability in zip(
        histogram.support[top].tolist(),
        histogram.counts[top].tolist(),
        histogram.probabilities[top].tolist(),
    ):
        lines.append(f"  {index:{width}}  count={count:<6d} probability={probability:.9f}")
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
    return "\n".join(lines) + "\n"


def _table(columns, records) -> list[str]:
    """Fixed-width lines: the header, then one line per record, '-' in an empty cell."""
    table = [[_cell(value) or "-" for value in row] for row in _in_columns(columns, records)]
    widths = [
        max(len(column), *(len(line[i]) for line in table)) for i, column in enumerate(columns)
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*columns), *(fmt.format(*line) for line in table)]


def render_cost_csv(report: dict) -> str:
    """The cost report's rows as csv; ``report`` needs only its ``rows``."""
    return _csv_text(COST_COLUMNS, _in_columns(COST_COLUMNS, report["rows"]))


def render_cost_text(report: dict) -> str:
    """The cost report's rows as a fixed-width table; ``report`` needs only its ``rows``."""
    return "\n".join(_table(COST_COLUMNS, report["rows"])) + "\n"


def render_verify_text(report: dict) -> str:
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
    return "\n".join(lines) + "\n"


def render_verify_csv(report: dict) -> str:
    rows = list(report["kernel_checks"]["by_operation"].items())
    if "cnot_check" in report:
        rows.append(("cnot_realization", report["cnot_check"]["max_deviation"]))
    return _csv_text(("operation", "max_deviation"), rows)


def render_sweep_csv(report: dict) -> str:
    return _csv_text(SWEEP_COLUMNS, _in_columns(SWEEP_COLUMNS, report["rows"]))


def render_sweep_text(report: dict) -> str:
    lines = [
        f"sweep m={report['m']} g={report['g']} upper_target={report['upper_target']} "
        f"seed={report['seed']} shots_per_trial={report['shots_per_trial']}",
        *_table(SWEEP_COLUMNS, report["rows"]),
        f"all_verified: {_cell(report['all_verified'])}",
    ]
    return "\n".join(lines) + "\n"


def write_output(text: str, stream: TextIO) -> None:
    """Write one piece of output to ``stream``."""
    stream.write(text)


@contextlib.contextmanager
def open_output(out: str | None) -> Iterator[Callable[[str], None]]:
    """Yield a writer of text pieces to stdout, or atomically to the file ``out``.

    A file is written as a temp file beside ``out`` that replaces it when
    the block exits cleanly and is removed when it raises, so readers never
    observe a partial artifact and a failed write leaves ``out`` as it was.
    Each piece goes through ``write_output``, looked up when the writer is
    made.
    """
    if out is None:
        yield functools.partial(write_output, stream=sys.stdout)
        return
    path = Path(out)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield functools.partial(write_output, stream=handle)
        os.replace(temp_name, path)
    except BaseException:
        os.unlink(temp_name)
        raise


def parse_int_list(text: str, what: str) -> list[int]:
    """Accept '8', '4,8,16', or 'start:stop[:step]' with inclusive stop.

    The list holds register widths or candidate counts, so it must be
    non-empty with every value at least 1; a fault names ``what``, the flag.
    """
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
            values = list(range(start, stop + 1, step))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not values or min(values) < 1:
        raise ConfigurationError(
            f"{what}: expected one or more values of at least 1, got {text!r}"
        )
    return values


def _overridden(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """The config with the given fields replaced; a value of None, or one the
    field already holds, is left out, so an override that changes nothing
    validates nothing again."""
    changed = {
        name: value
        for name, value in overrides.items()
        if value is not None and value != getattr(config, name)
    }
    return dataclasses.replace(config, **changed) if changed else config


def _config_with_overrides(args) -> ExperimentConfig:
    config = load_config(resolve_config(args.config))
    return _overridden(
        config, seed=args.seed, shots=args.shots, shots_per_trial=args.shots, format=args.format
    )


def _cmd_run(args) -> tuple[dict, int, str]:
    config = _config_with_overrides(args)
    return (*run_experiment(config), config.format)


def _cmd_cost(args) -> tuple[dict, int, str]:
    ms = parse_int_list(args.m_range, "--m-range")
    vs = parse_int_list(args.v_range, "--v-range")
    if args.strategies.strip() == "all":
        strategies = list(STRATEGIES)
    else:
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        rows = cost_table(ms, vs, strategies)
    except OverflowError as exc:
        raise ConfigurationError(f"--m-range/--v-range: {exc}") from exc
    except ConfigurationError as exc:
        # the parsed m and v lists are valid, so the fault is in the strategies
        raise ConfigurationError(f"--strategies: {exc}") from exc
    return {"columns": list(COST_COLUMNS), "rows": rows}, EXIT_OK, args.format


def _cmd_verify(args) -> tuple[dict, int, str]:
    path = resolve_config(args.config)
    config = _overridden(load_config(path), seed=args.seed)
    return (*run_verification(config, str(path)), args.format)


def _cmd_sweep(args) -> tuple[dict, int, str]:
    return (*run_sweep(args.m, args.g, args.shots, args.seed), args.format)


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
    run_p.add_argument("--shots", type=int, default=None, help="set shots and shots_per_trial")
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


# the one parser ``main`` reuses, built on first use
_parser = functools.cache(build_parser)


# subcommand -> (report, exit code, format) builder, csv renderer, text renderer
_COMMANDS = {
    "run": (_cmd_run, render_run_csv, render_run_text),
    "cost": (_cmd_cost, render_cost_csv, render_cost_text),
    "verify": (_cmd_verify, render_verify_csv, render_verify_text),
    "sweep": (_cmd_sweep, render_sweep_csv, render_sweep_text),
}


def main(argv=None) -> int:
    """Run one subcommand and write its report; text ends with the wall time."""
    args = _parser().parse_args(argv)
    command, render_csv, render_text = _COMMANDS[args.command]
    try:
        started = time.perf_counter()
        report, exit_code, output_format = command(args)
        if output_format == "json":
            # streamed into a file below; stdout gets whole text, so a fault
            # found while rendering prints nothing there
            text = render_json(report) if args.out is None else None
        elif output_format == "csv":
            text = render_csv(report)
        else:
            text = render_text(report) + f"wall_time_s: {time.perf_counter() - started:.4f}\n"
        try:
            with open_output(args.out) as write:
                if text is None:
                    render_json(report, write)
                else:
                    write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
