"""Every name the benchmark's tracer wraps still exists under qtreesearch.

bench/tracing.py names the functions it wraps as ``module.function`` and
reads a few of their positional arguments. A renamed function or a moved
argument would fail ``bench/run.py --trace 1`` and nothing else, so these
tests read the tracer's own lists and resolve each entry, and run every
bundled config under the installed tracer. A streamed artifact must reach
its file through ``write_output`` one ``str`` piece at a time, inside the
``render_json`` span, for the tracer to count its bytes. The tracer also
counts a loop's kernel calls only while the loop calls the kernels through
its module's names, which the last tests check by rebinding those names in
``grover``, the module of the one round loop.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from qtreesearch import cli, grover, runner, strategies
from qtreesearch.cli import render_json
from qtreesearch.config import bundled_configs, load_config
from qtreesearch.oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from qtreesearch.runner import EXIT_OK
from qtreesearch.statevector import Register, init_uniform, qubit_range

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


@pytest.mark.parametrize("name", sorted(bundled_configs()))
def test_a_traced_run_of_each_bundled_config_matches_the_untraced_one(name):
    config = load_config(bundled_configs()[name])
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, traced_exit = runner.run_experiment(config)
    untraced, untraced_exit = runner.run_experiment(config)
    assert render_json(traced) == render_json(untraced)
    assert traced_exit == untraced_exit
    # every kernel's width is read from the register it is given
    assert tracer.counts["amplitudes_touched"] > 0
    # the tracer's candidate_prep stage is the span of prepare_candidates,
    # which every strategy that amplifies the candidate set opens
    names = {span[0] for span in tracer.spans}
    prepares = config.strategy != "iterative" and config.prep == "grover"
    assert ("strategies.prepare_candidates" in names) == prepares


def test_a_traced_streamed_artifact_is_counted_whole_inside_its_render(
    monkeypatch, tmp_path
):
    # fig_a_basic_4 is iterative: a histogram per trial and the top-level
    # one, each rendered three labels a piece, every piece through write_output
    argv = ["run", "--config", "fig_a_basic_4", "--format", "json", "--out"]
    assert cli.main([*argv, str(tmp_path / "untraced.json")]) == EXIT_OK
    monkeypatch.setattr(cli, "_HISTOGRAM_BLOCK", 3)
    out = tmp_path / "traced.json"
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*argv, str(out)]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "untraced.json").read_bytes()
    assert tracer.counts["cli.artifact_bytes"] == out.stat().st_size
    [render] = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.render_json"]
    writes = [span for span in tracer.spans if span[0] == "cli.write_output"]
    assert len(writes) > 4
    assert all(span[1] == render for span in writes)


KERNEL_NAMES = ("apply_conditional_bit_flip", "apply_phase_flip", "apply_diffusion")


def _count_calls(monkeypatch):
    """Rebind each kernel name in ``grover`` to a wrapper that records, in
    call order, the kernel and the register width the tracer reads from
    args[0]."""
    calls = []
    for name in KERNEL_NAMES:
        def wrapper(*args, _name=name, _kernel=getattr(grover, name), **kwargs):
            assert isinstance(args[0], Register)
            calls.append((_name, args[0].num_qubits))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(grover, name, wrapper)
    return calls


def test_amplify_calls_each_traced_kernel_once_per_round(monkeypatch):
    calls = _count_calls(monkeypatch)
    stage = grover.Stage(np.arange(32) % 7 == 3, qubit_range(0, 5), qubit_range(2, 6), 4)
    register = init_uniform(6)
    assert grover.amplify(register, [stage], grover.QueryCounter()) is register
    assert calls == [("apply_phase_flip", 6), ("apply_diffusion", 6)] * 4


def test_disentangled_block_rounds_call_each_traced_kernel(monkeypatch):
    calls = _count_calls(monkeypatch)
    # m = 6, g = 3, v = 2: one preparation round on the 3-qubit candidate
    # fiber, then r(8, 1) = 2 rounds in each block on 3 + 2 * 3 + 1 = 10
    # qubits, the candidate register, both blocks and one borrowed flag
    problem = strategies.SearchProblem(
        global_oracle=ConcatenatedOracle(
            ConjunctionOracle.from_signed_literals([-3, -2, 1], width=3),
            ConjunctionOracle.from_signed_literals([-3, 2, 1], width=3),
        ),
        candidates=PartialCandidateSet.from_strings(["011", "101"]),
    )
    strategies.disentangled_search(problem, grover.QueryCounter())
    prep = [("apply_phase_flip", 3), ("apply_diffusion", 3)]
    # per block round: compute the flag, flip its phase and uncompute on
    # the whole register, then diffuse its 9-qubit flag-clear half
    block_round = [
        ("apply_conditional_bit_flip", 10),
        ("apply_phase_flip", 10),
        ("apply_conditional_bit_flip", 10),
        ("apply_diffusion", 9),
    ]
    assert calls == prep + block_round * 4
