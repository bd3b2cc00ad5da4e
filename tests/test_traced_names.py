"""Every name the benchmark's tracer wraps still exists under qtreesearch.

bench/tracing.py names the functions it wraps as ``module.function`` and
reads a few of their positional arguments. A renamed function or a moved
argument would fail ``bench/run.py --trace 1`` and nothing else, so these
tests read the tracer's own lists and resolve each entry.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(qualified):
    module_name, attr = qualified.split(".")
    return getattr(importlib.import_module(f"qtreesearch.{module_name}"), attr, None)


def _positional(qualified):
    return list(inspect.signature(_resolve(qualified)).parameters)


def test_every_traced_function_resolves():
    missing = [name for name in tracing.TRACED if not callable(_resolve(name))]
    assert missing == []


def test_every_counted_oracle_class_resolves():
    oracles = importlib.import_module("qtreesearch.oracles")
    missing = [name for name in tracing.ORACLE_CLASSES if not hasattr(oracles, name)]
    assert missing == []


def test_arguments_the_tracer_reads_keep_their_place():
    # amplitudes touched come from a kernel's first argument, rounds from
    # run_grover's fourth, artifact bytes from write_output's first
    for kernel in tracing.KERNELS:
        assert _positional(kernel)[0] == "sv", kernel
    assert _positional("grover.run_grover")[3] == "rounds"
    assert _positional("cli.write_output")[0] == "text"
