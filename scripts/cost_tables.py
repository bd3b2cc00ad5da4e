#!/usr/bin/env python3
"""Print the strategy cost tables: an m-sweep and the v-near-m ordering.

The first table sweeps register widths at fixed candidate counts. The
second sets v = m, the regime where relabeling pays off most, and shows
the ordering permutation <= disentangled <= iterative <= baseline. Bad
input exits 1 with one ``error:`` line, as the ``qtreesearch`` CLI does.
"""

import argparse
import sys

from qtreesearch.cli import open_output, parse_int_list, render_cost_csv, render_cost_text
from qtreesearch.costs import STRATEGIES, cost_table, times_ratio, times_ratio_limit
from qtreesearch.runner import EXIT_CONFIG_ERROR


def tables(ms: list[int], vs: list[int], output_format: str) -> str:
    report = {"rows": cost_table(ms, vs, list(STRATEGIES))}
    if output_format == "csv":
        return render_cost_csv(report)
    rows = []
    for m in ms:
        rows.extend(cost_table([m], [m], list(STRATEGIES)))
    ratios = ", ".join(f"m={m}: {times_ratio(m, 4):.4f}" for m in ms if m >= 16)
    return (
        render_cost_text(report)
        + "\nv = m ordering:\n"
        + render_cost_text({"rows": rows})
        + f"\niterative/disentangled ratio at v=4 ({ratios}; "
        f"limit {times_ratio_limit(4):.4f})\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", default="8,12,16,20,24", help="comma list of widths")
    parser.add_argument("--v", default="2,4", help="comma list of candidate counts")
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--out", default=None, help="write here instead of stdout")
    args = parser.parse_args()
    try:
        ms = parse_int_list(args.m, "--m")
        vs = parse_int_list(args.v, "--v")
        text = tables(ms, vs, args.format)
        with open_output(args.out) as write:
            write(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OverflowError as exc:
        print(f"error: --m/--v: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
