"""Experiment execution and report assembly behind the command line.

Every strategy is one entry in ``STRATEGY_RUNS``, keyed by its config name.
An entry runs the strategy's pipeline (amplify the candidates, complete
them on the upper half, measure and check classically) and returns one
``Run`` record: the final state, the ``Measurement`` if the strategy
measures one, a builder for the strategy's artifact sections (histogram,
trials, blocks, relabeling) and the key of its cost model.
``run_experiment`` assembles the artifact from that record;
``run_verification`` replays the same entry under the kernel cross-check
and never builds the sections; ``run_sweep`` builds one iterative config
per row and runs it through the same entry. An ``ExperimentConfig``
builds its search problem once, when it is validated, and
``ExperimentConfig.problem`` returns that one.

Reports are plain dicts of builtin types so they serialize byte-identically
for a fixed config and seed. The one exception is a histogram, which
``merge_counts`` returns as a ``Histogram`` of aligned arrays and which
stays arrays until a renderer writes it. Wall-clock timing is deliberately
kept out of these dicts; the text renderer may add it, machine output
never carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ExperimentConfig
from .costs import BUDGETED, cost
from .errors import ConfigurationError, ValidationError
from .grover import QueryCounter, iteration_count
from .oracles import ConjunctionOracle, int_to_bits
from .permutation import (
    PermutationSpec,
    apply_cnot_permutation,
    build_permutation,
    compacted_search_state,
)
from .statevector import (
    SUPPORT_FLOOR,
    MAX_QUBITS,
    KernelCrossCheck,
    QubitSet,
    Register,
    Statevector,
    partition_purity,
    probabilities,
    qubit_range,
    sample,
)
from .strategies import (
    Measurement,
    SearchProblem,
    disentangled_search,
    entangled_nested,
    iterative_search,
    measure_and_verify,
    product_subspace_search,
    recover_candidate,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_UNVERIFIED = 2

CROSSCHECK_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class Histogram:
    """Sampled counts and exact probabilities over a histogram's support.

    ``support`` holds basis indices in ascending order, which is label
    order; ``counts`` and ``probabilities`` are aligned with it. An
    artifact keeps the arrays, and ``cli.render_json`` writes them as the
    object ``{label: {"count": c, "probability": p}}``. Two histograms are
    equal when their widths and arrays are, as their dict forms would be.
    """

    num_qubits: int
    support: np.ndarray
    counts: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if support.ndim != 1 or counts.shape != support.shape or probs.shape != support.shape:
            raise ValidationError(
                f"support, counts and probabilities must be aligned 1-D arrays, got shapes "
                f"{support.shape}, {counts.shape} and {probs.shape}"
            )
        if support.size and (
            support[0] < 0
            or support[-1] >= 2**self.num_qubits
            or np.any(support[1:] <= support[:-1])
        ):
            raise ValidationError(
                f"support must be strictly ascending indices of a {self.num_qubits}-qubit register"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probabilities", probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.probabilities, other.probabilities)
        )

    __hash__ = None

    def labels(self) -> list[str]:
        """Label of every support index, in support order."""
        width = f"0{self.num_qubits}b"
        return [format(i, width) for i in self.support.tolist()]


def merge_counts(sv: Statevector, counts: np.ndarray) -> Histogram:
    """Join sampled counts with exact probabilities over the union support.

    ``counts`` is the ``sample`` array, indexed by basis index. The support
    is every index sampled at least once or with probability above
    ``SUPPORT_FLOOR``; a sampled index at or below the floor reads 0.0.
    Counts sum to the shot count; probabilities sum to 1 up to the floor.
    No label is formatted here: the renderers do that.
    """
    p = probabilities(sv)
    kept = p > SUPPORT_FLOOR
    support = np.flatnonzero((counts > 0) | kept)
    return Histogram(
        sv.num_qubits, support, counts[support], np.where(kept[support], p[support], 0.0)
    )


@dataclass(frozen=True)
class Run:
    """One strategy run, as the report needs it.

    ``sections`` builds the strategy's artifact keys (the histogram plus
    any of ``trials``, ``blocks`` and ``winning_index``, ``relabeling``);
    it is called only when an artifact is assembled, so a replay under the
    cross-check does no rendering. ``verified`` is false when the strategy
    measured no verified answer; pure state preparation has nothing to
    verify and counts as verified.
    """

    state: Statevector
    sections: Callable[[], dict]
    cost_key: str
    verified: bool
    result: Measurement | None = None


def _sampled(sv: Statevector, config: ExperimentConfig) -> dict:
    """Histogram section of a state measured only for the report."""
    return {"histogram": merge_counts(sv, sample(sv, config.shots, seed=config.seed))}


def _run_product(
    config: ExperimentConfig, problem: SearchProblem, counter: QueryCounter
) -> Run:
    sv = product_subspace_search(problem, counter)
    return Run(sv, lambda: _sampled(sv, config), "decomposition-ideal", verified=True)


def _run_entangled(
    config: ExperimentConfig, problem: SearchProblem, counter: QueryCounter
) -> Run:
    sv = entangled_nested(problem, counter)
    # the fully entangled run amplifies against the global oracle, so it is
    # costed as an unstructured search over the whole register
    return Run(sv, lambda: _sampled(sv, config), "baseline", verified=True)


def _run_iterative(
    config: ExperimentConfig, problem: SearchProblem, counter: QueryCounter
) -> Run:
    outcome = iterative_search(
        problem, shots_per_trial=config.shots_per_trial, seed=config.seed, counter=counter
    )

    def sections() -> dict:
        labels = problem.candidates.strings()
        trials = [
            {
                "candidate_index": k,
                "candidate": labels[k - 1],
                "top_outcome": trial.top,
                "accepted": trial.verified,
                "histogram": merge_counts(trial.state, trial.counts),
            }
            for k, trial in enumerate(outcome.trials, start=1)
        ]
        return {"trials": trials, "histogram": trials[-1]["histogram"]}

    return Run(
        outcome.trials[-1].state,
        sections,
        "iterative",
        outcome.result.verified,
        result=outcome.result,
    )


def _run_disentangled(
    config: ExperimentConfig, problem: SearchProblem, counter: QueryCounter
) -> Run:
    outcome = disentangled_search(problem, counter)
    sv = outcome.state
    result = None
    if outcome.winning_index is not None:
        result = recover_candidate(
            problem, outcome.winning_index,
            shots=config.shots, seed=config.seed, counter=counter,
        )

    def sections() -> dict:
        width = problem.m - problem.g
        blocks = [
            {
                "index": k,
                "candidate": candidate,
                "target_probability": float(dist[problem.upper_target]),
                "flag_excitation": float(excitation),
                "distribution": {int_to_bits(z, width): p for z, p in enumerate(dist.tolist())},
            }
            for k, (candidate, dist, excitation) in enumerate(
                zip(problem.candidates.strings(), outcome.distributions, outcome.flag_excitations),
                start=1,
            )
        ]
        return {
            "blocks": blocks,
            "winning_index": outcome.winning_index,
            **_sampled(sv, config),
        }

    return Run(
        sv,
        sections,
        "disentangled",
        result is not None and result.verified,
        result=result,
    )


def _run_permutation(
    config: ExperimentConfig, problem: SearchProblem, counter: QueryCounter
) -> Run:
    search = compacted_search_state(
        problem, counter, prep=config.prep, convention=config.convention
    )
    measured = measure_and_verify(
        problem, search.state, config.shots, config.seed, counter,
        problem.matching_candidate_index(),
    )
    spec = search.spec

    def sections() -> dict:
        return {
            "histogram": merge_counts(search.state, measured.counts),
            "relabeling": {
                "convention": spec.convention,
                "code_width": int(spec.code_width),
                "mapping": list(spec.mapping),
                "transpositions": [list(pair) for pair in spec.transpositions],
            },
        }

    return Run(
        search.state,
        sections,
        f"permutation-{config.prep}-prep",
        measured.verified,
        result=measured,
    )


# keyed by config.STRATEGY_CHOICES. Entries call the strategy functions
# through their module-level names, so a wrapper rebound on a module global
# (bench/tracing.py does this) sees every call.
STRATEGY_RUNS = {
    "product": _run_product,
    "entangled": _run_entangled,
    "iterative": _run_iterative,
    "disentangled": _run_disentangled,
    "permutation": _run_permutation,
}


def _purity_section(sv: Statevector, cuts) -> list[dict]:
    section = []
    for cut in cuts:
        part = QubitSet(tuple(cut))
        section.append(
            {"qubits": list(part.indices), "purity": float(partition_purity(sv, part))}
        )
    return section


def _queries_section(counter: QueryCounter) -> dict:
    return {
        "oracle_calls": int(counter.oracle_calls),
        "diffusion_calls": int(counter.diffusion_calls),
        "total": int(counter.total),
    }


def _result_section(result: Measurement) -> dict:
    return {
        "found": result.found,
        "candidate_index": result.candidate_index,
        "verified": bool(result.verified),
        "trials": int(result.trials),
    }


def _cost_section(config: ExperimentConfig, name: str) -> dict:
    total, terms, margin = cost(name, config.m, config.g, config.v)
    section = {
        "strategy": name,
        "m": int(config.m),
        "g": int(config.g),
        "v": int(config.v),
        "total": float(total),
        "terms": {label: float(value) for label, value in terms.items()},
    }
    if name in BUDGETED:
        section["validity"] = {
            "constraint": "v < v_max",
            "holds": bool(margin > 0),
            "margin": float(margin),
        }
    return section


def run_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Execute the configured strategy and assemble its report.

    Returns the report plus the suggested process exit code: 0 when the
    run verified its answer (or pure state preparation succeeded), 2 when
    every trial was exhausted without verification.
    """
    problem = config.problem()
    counter = QueryCounter()
    run = STRATEGY_RUNS[config.strategy](config, problem, counter)

    # every strategy keeps the candidate register on qubits 0..g-1, the
    # disentangled composite register included; the config has checked
    # its own cuts against the state's width
    cuts = config.purity_cuts if config.purity_cuts else (problem.lower_qubits.indices,)
    artifact: dict = {
        "config": config.to_dict(),
        "endianness": "little",
        "strategy": config.strategy,
        **run.sections(),
        "purity": _purity_section(run.state, cuts),
        "queries": _queries_section(counter),
    }
    if run.result is not None:
        artifact["result"] = _result_section(run.result)
    artifact["cost"] = _cost_section(config, run.cost_key)
    return artifact, EXIT_OK if run.verified else EXIT_UNVERIFIED


def _cnot_equivalence(spec: PermutationSpec, source: str = "<memory>") -> dict:
    """Compare the controlled-not realization to the mapping in one pass.

    The gates only permute basis states, so one state shows the whole
    permutation: flags at 0, and amplitude s + 1 (before normalizing) on
    data pattern s. The realization must carry each amplitude to its
    mapped pattern with the flags back at 0. Deviations are in units of
    that spacing, so a pattern sent anywhere else deviates by at least 1.
    A relabeling too wide to simulate is a fault of the config at
    ``source``, in its ``candidates`` field.
    """
    flags = len(spec.transpositions)
    total = spec.width + flags
    if total > MAX_QUBITS:
        raise ConfigurationError(
            f"{source}: field 'candidates': controlled-not check needs {total} qubits, "
            f"limit is {MAX_QUBITS}"
        )
    weights = np.arange(1, 2**spec.width + 1, dtype=np.float64)
    scale = math.sqrt(float(np.dot(weights, weights)))
    amps = np.zeros(2**total, dtype=np.complex128)
    amps[: 2**spec.width] = weights / scale
    expected = np.zeros_like(amps)
    expected[list(spec.mapping)] = weights / scale
    out = apply_cnot_permutation(
        Register(total, amps), spec, qubit_range(0, spec.width), qubit_range(spec.width, total)
    ).freeze()
    return {
        "basis_states": 2**spec.width,
        "flag_qubits": flags,
        "max_deviation": float(np.max(np.abs(out.amplitudes - expected))) * scale,
    }


def run_verification(config: ExperimentConfig, source: str = "<memory>") -> tuple[dict, int]:
    """Replay the config's run with every kernel checked against its reference.

    Every kernel the replay applies, on any register the simulator can
    hold, is compared with its O(dim) reference output; the report passes
    when all agree within tolerance. A permutation config first checks the
    controlled-not realization of its relabeling, a pure function of the
    candidates and the convention, so a relabeling too wide for that check
    exits 1 before anything is simulated, naming the config's ``source``.
    """
    problem = config.problem()
    cnot = None
    if config.strategy == "permutation":
        cnot = _cnot_equivalence(
            build_permutation(problem.candidates, convention=config.convention),
            source,
        )
    with KernelCrossCheck() as check:
        STRATEGY_RUNS[config.strategy](config, problem, QueryCounter())

    worst_by_operation: dict[str, float] = {}
    for label, deviation in check.records:
        worst_by_operation[label] = max(worst_by_operation.get(label, 0.0), deviation)
    report: dict = {
        "config": config.to_dict(),
        "strategy": config.strategy,
        "tolerance": CROSSCHECK_TOLERANCE,
        "kernel_checks": {
            "count": len(check.records),
            "max_deviation": float(check.max_deviation),
            "by_operation": {
                label: float(value) for label, value in sorted(worst_by_operation.items())
            },
        },
    }
    passed = check.max_deviation <= CROSSCHECK_TOLERANCE
    if cnot is not None:
        report["cnot_check"] = cnot
        passed = passed and cnot["max_deviation"] <= CROSSCHECK_TOLERANCE
    report["passed"] = bool(passed)
    return report, EXIT_OK if passed else EXIT_UNVERIFIED


_COMPLEMENT = str.maketrans("01", "10")


def _sweep_config(
    m: int, g: int, value: int, shots_per_trial: int, seed: int
) -> ExperimentConfig:
    """The sweep row whose lower target is ``value``, its complement the decoy.

    The upper target is 10...0. The bit-strings are built for any m and g,
    so a bad split reaches the config's own checks.
    """
    target = format(value, "b").zfill(g)
    return ExperimentConfig(
        strategy="iterative",
        m=m,
        g=g,
        upper_oracle=tuple(ConjunctionOracle.matching("1".ljust(m - g, "0")).signed_literals()),
        lower_oracle=tuple(ConjunctionOracle.matching(target).signed_literals()),
        candidates=(target.translate(_COMPLEMENT), target),
        shots_per_trial=shots_per_trial,
        seed=seed,
    )


def run_sweep(
    m: int = 5, g: int = 3, shots_per_trial: int = 256, seed: int = 0
) -> tuple[dict, int]:
    """Exercise the trial loop over every placement of the lower target.

    Each placement is an iterative config that pairs the target with its
    bitwise complement as a decoy listed first, so half the probes start on
    a wrong candidate, and runs through ``STRATEGY_RUNS`` like ``run`` and
    ``verify``. Every run must verify within the oracle budget
    v * (r_L + r_U + 1). The first row's config checks m, g, the shots and
    the seed before any row runs.
    """
    _sweep_config(m, g, 0, shots_per_trial, seed)
    budget = 2 * (iteration_count(2**g, 1) + iteration_count(2 ** (m - g), 1) + 1)
    rows = []
    all_ok = True
    for value in range(2**g):
        config = _sweep_config(m, g, value, shots_per_trial, seed)
        problem = config.problem()
        counter = QueryCounter()
        run = STRATEGY_RUNS["iterative"](config, problem, counter)
        decoy, target = config.candidates
        within = counter.oracle_calls <= budget
        rows.append(
            {
                "lower_target": target,
                "decoy": decoy,
                "found": run.result.found,
                "verified": bool(run.verified),
                "trials": int(run.result.trials),
                "oracle_calls": int(counter.oracle_calls),
                "budget": int(budget),
                "within_budget": bool(within),
            }
        )
        all_ok = all_ok and run.verified and within
    report = {
        "m": int(m),
        "g": int(g),
        "upper_target": problem.upper_target_bits,
        "shots_per_trial": int(shots_per_trial),
        "seed": int(seed),
        "endianness": "little",
        "rows": rows,
        "all_verified": bool(all_ok),
    }
    return report, EXIT_OK if all_ok else EXIT_UNVERIFIED
