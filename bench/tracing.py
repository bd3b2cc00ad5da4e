"""Spans and counters around the program's layers, installed from outside.

The tracer wraps public functions of the qtreesearch modules and rebinds
each wrapper in every module that holds the original, since grover,
strategies, permutation, runner and cli import their callees by name. A
span records its name (``module.function``), its parent span, the job it
belongs to and its start and end; self time is a span's duration minus the
time its child spans cover. Oracle evaluations are counted by a class-level
``__call__`` wrapper that counts outermost calls only, so a concatenated
oracle evaluating its two halves counts once. Spans stay in memory and are
reduced to per-pass metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

KERNELS = (
    "statevector.apply_phase_flip",
    "statevector.apply_diffusion",
    "statevector.apply_conditional_bit_flip",
    "statevector.apply_index_map",
)
DENSE_MIRRORS = (
    "statevector.dense_phase_flip_matrix",
    "statevector.dense_diffusion_matrix",
    "statevector.dense_bit_flip_matrix",
    "statevector.dense_index_map_matrix",
)
TRACED = KERNELS + DENSE_MIRRORS + (
    "statevector.probability_map",
    "statevector.sample",
    "statevector.partition_purity",
    "statevector.marginal_probability",
    "grover.run_grover",
    "strategies.prepare_candidates",
    "strategies.product_subspace_search",
    "strategies.entangled_nested",
    "strategies.iterative_trial_state",
    "strategies.iterative_search",
    "strategies.disentangled_search",
    "strategies.block_distribution",
    "strategies.recover_candidate",
    "permutation.build_permutation",
    "permutation.compacted_search_state",
    "runner.merge_counts",
    "runner.run_experiment",
    "runner.run_verification",
    "runner.run_sweep",
    "config.load_config",
    "cli.render_json",
    "cli.write_output",
)
ORACLE_CLASSES = ("ConjunctionOracle", "ConcatenatedOracle", "PartialCandidateSet")

# Stage of a span, from its own name and its parent's name; a span matching
# no rule takes its parent's stage. Candidate preparation is the lower-half
# amplification, upper amplification the rounds over the upper half (or the
# compacted search set, or the disentangled blocks), and measure-and-verify
# the sampling, histogram, purity and block read-out after the last round.
_UPPER_PARENTS = (
    "strategies.entangled_nested",
    "strategies.iterative_trial_state",
    "strategies.disentangled_search",
    "permutation.compacted_search_state",
)
_MEASURE = (
    "statevector.sample",
    "statevector.probability_map",
    "statevector.partition_purity",
    "statevector.marginal_probability",
    "runner.merge_counts",
    "strategies.block_distribution",
    "strategies.recover_candidate",
)


def stage_of(name: str, parent: str | None) -> str | None:
    if name == "strategies.prepare_candidates":
        return "candidate_prep"
    if name == "grover.run_grover":
        if parent in ("strategies.iterative_trial_state", "strategies.disentangled_search"):
            return "candidate_prep"
        if parent in ("strategies.product_subspace_search", "permutation.compacted_search_state"):
            return "upper_amplify"
    if name in KERNELS and parent in _UPPER_PARENTS:
        return "upper_amplify"
    if name in _MEASURE:
        return "measure_verify"
    return None


_REPLAYED = (
    "strategies.product_subspace_search",
    "strategies.entangled_nested",
    "strategies.iterative_trial_state",
    "strategies.disentangled_search",
    "strategies.recover_candidate",
    "permutation.compacted_search_state",
)

# metric name -> span name, for call counts and self times
_CALLS = {
    "statevector.phase_flip": "statevector.apply_phase_flip",
    "statevector.diffusion": "statevector.apply_diffusion",
    "statevector.conditional_bit_flip": "statevector.apply_conditional_bit_flip",
    "statevector.marginal_probability": "statevector.marginal_probability",
    "statevector.index_map": "statevector.apply_index_map",
}
_SELF_SECONDS = {
    **_CALLS,
    **{
        name: name
        for name in (
            "statevector.probability_map",
            "statevector.sample",
            "statevector.partition_purity",
            "runner.merge_counts",
            "cli.render_json",
            "config.load_config",
            "cli.write_output",
        )
    },
}
# thin loops around wrapped kernels: their whole duration is what they cost
_INCLUSIVE_SECONDS = (
    "strategies.block_distribution",
    "permutation.compacted_search_state",
    "grover.run_grover",
)


class Tracer:
    """Records spans and counts while installed; reduces them to metrics."""

    def __init__(self) -> None:
        # per span: [name, parent index or -1, job index, start, end]
        self.spans: list[list] = []
        self.jobs: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._oracle_depth = 0

    # -- recording -----------------------------------------------------

    def begin_job(self, job) -> None:
        self.jobs.append(job)

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        kernel = name in KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, len(self.jobs) - 1, 0.0, 0.0]
            spans.append(span)
            if kernel:
                self._count("amplitudes_touched", 2 ** args[0].num_qubits)
            elif name == "grover.run_grover":
                self._count("grover.rounds", kwargs.get("rounds", args[3] if len(args) > 3 else 0))
            elif name == "cli.write_output":
                self._count("cli.artifact_bytes", len(args[0].encode()))
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def _wrap_call(self, original):
        tracer = self

        def __call__(oracle, pattern):
            if tracer._oracle_depth == 0:
                tracer.counts["oracles.evals"] = tracer.counts.get("oracles.evals", 0) + 1
            tracer._oracle_depth += 1
            try:
                return original(oracle, pattern)
            finally:
                tracer._oracle_depth -= 1

        return __call__

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function and oracle class; restore on exit."""
        restore = []
        modules = [m for n, m in sys.modules.items() if n.startswith("qtreesearch.") and m]
        try:
            for qualified in TRACED:
                module_name, attr = qualified.split(".")
                module = importlib.import_module(f"qtreesearch.{module_name}")
                original = getattr(module, attr)
                wrapper = self._wrap(qualified, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, original))
                            setattr(holder, key, wrapper)
            oracles = importlib.import_module("qtreesearch.oracles")
            for class_name in ORACLE_CLASSES:
                cls = getattr(oracles, class_name)
                restore.append((cls, "__call__", cls.__call__))
                cls.__call__ = self._wrap_call(cls.__call__)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    # -- reduction -----------------------------------------------------

    def metrics(self, traced_passes, untraced_passes) -> dict:
        """Per-pass per-layer metrics, averaged over the traced passes."""
        n = len(traced_passes)
        spans = self.spans
        duration = [s[4] - s[3] for s in spans]
        covered = [0.0] * len(spans)
        stage: list[str | None] = [None] * len(spans)
        in_verify = [False] * len(spans)
        for i, (name, parent, _, _, _) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent >= 0:
                covered[parent] += duration[i]
            own = stage_of(name, parent_name)
            stage[i] = own if own else (stage[parent] if parent >= 0 else None)
            # kernels the verify replay runs under its cross-check: those
            # below a strategy call made by run_verification
            in_verify[i] = parent >= 0 and (
                in_verify[parent] or parent_name == "runner.run_verification" and name in _REPLAYED
            )
        self_time = [d - c for d, c in zip(duration, covered)]

        calls: dict[str, int] = {}
        self_sum: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        stages = {"candidate_prep": 0.0, "upper_amplify": 0.0, "measure_verify": 0.0}
        verify_kernel_calls = 0
        permutation_builds = 0
        for i, (name, parent, job, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_sum[name] = self_sum.get(name, 0.0) + self_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]
            if stage[i]:
                stages[stage[i]] += self_time[i]
            if name in KERNELS and in_verify[i]:
                verify_kernel_calls += 1
            if name == "permutation.build_permutation" and self.jobs[job].strategy == "permutation":
                permutation_builds += 1

        def value(x, unit):
            return {"value": x / n, "unit": unit}

        out = {"oracles.evals": value(self.counts.get("oracles.evals", 0), "count")}
        for metric, span in _CALLS.items():
            out[f"{metric}.calls"] = value(calls.get(span, 0), "count")
        for metric, span in _SELF_SECONDS.items():
            out[f"{metric}.s"] = value(self_sum.get(span, 0.0), "s")
        for name in _INCLUSIVE_SECONDS:
            out[f"{name}.s"] = value(inclusive.get(name, 0.0), "s")
        out["statevector.amplitudes_touched"] = value(self.counts.get("amplitudes_touched", 0), "count")
        out["statevector.dense_mirror.s"] = value(sum(self_sum.get(s, 0.0) for s in DENSE_MIRRORS), "s")
        out["cli.artifact_bytes"] = value(self.counts.get("cli.artifact_bytes", 0), "B")
        out["grover.rounds"] = value(self.counts.get("grover.rounds", 0), "count")
        for name, seconds in stages.items():
            out[f"stage.{name}.s"] = value(seconds, "s")
        trials = sum(p.trials for p in traced_passes)
        states = calls.get("strategies.iterative_trial_state", 0)
        out["strategies.trial_states_per_trial"] = {
            "value": states / trials if trials else 0.0, "unit": "ratio"
        }
        permutation_jobs = sum(1 for job in self.jobs if job.strategy == "permutation")
        out["permutation.build_permutation.calls"] = {
            "value": permutation_builds / permutation_jobs if permutation_jobs else 0.0,
            "unit": "count",
        }
        out["runner.verify.kernel_calls"] = value(verify_kernel_calls, "count")
        checks = sum(p.kernel_checks for p in traced_passes)
        out["runner.verify.kernel_checks"] = value(checks, "count")
        out["trace.overhead_s"] = {
            "value": statistics.median(p.wall for p in traced_passes)
            - statistics.median(p.wall for p in untraced_passes),
            "unit": "s",
        }
        return out
