"""Experiment execution and report assembly behind the command line.

Every strategy is one entry in ``STRATEGY_RUNS``, keyed by its config name.
An entry runs the strategy's pipeline (amplify the candidates, complete
them on the upper half, measure and check classically) and returns one
``Run`` record: the final state, the verified result if the strategy
measures one, a builder for the strategy's artifact sections (histogram,
trials, blocks, relabeling) and the key of its cost model.
``run_experiment`` assembles the artifact from that record;
``run_verification`` replays the same entry under the kernel cross-check
and never builds the sections.

Reports are plain dicts of builtin types so they serialize byte-identically
for a fixed config and seed. Wall-clock timing is deliberately kept out of
these dicts; the text renderer may add it, machine output never carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .config import ExperimentConfig
from .costs import (
    STRATEGIES,
    baseline_cost,
    candidate_budget_validity,
    cost_breakdown,
    times_ratio,
)
from .errors import ConfigurationError
from .grover import QueryCounter, iteration_count
from .oracles import (
    ConcatenatedOracle,
    ConjunctionOracle,
    PartialCandidateSet,
    int_to_bits,
)
from .permutation import (
    PermutationSpec,
    apply_cnot_permutation,
    build_permutation,
    compacted_search_state,
)
from .statevector import (
    KernelCrossCheck,
    QubitSet,
    Statevector,
    basis_state,
    partition_purity,
    probability_map,
    qubit_range,
    sample,
)
from .strategies import (
    SearchProblem,
    SearchResult,
    block_distribution,
    disentangled_search,
    entangled_nested,
    flag_excitation,
    iterative_search,
    measure_and_verify,
    product_subspace_search,
    recover_candidate,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_UNVERIFIED = 2

CROSSCHECK_TOLERANCE = 1e-10

_BUDGETED = ("iterative", "disentangled", "permutation-basis-prep", "permutation-grover-prep")


def merge_counts(sv: Statevector, counts: dict[str, int]) -> dict[str, dict]:
    """Join sampled counts with exact probabilities over the union support.

    Counts sum to the shot count; probabilities sum to 1 up to the support
    floor of the probability map.
    """
    exact = probability_map(sv)
    return {
        label: {
            "count": int(counts.get(label, 0)),
            "probability": float(exact.get(label, 0.0)),
        }
        for label in sorted(set(counts) | set(exact))
    }


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
    result: SearchResult | None = None


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
        trials = [
            {
                "candidate_index": k,
                "candidate": problem.candidates.strings()[k - 1],
                "top_outcome": trial.top,
                "accepted": trial.result.verified,
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
        blocks = []
        for k in range(1, problem.v + 1):
            dist = block_distribution(problem, sv, k)
            blocks.append(
                {
                    "index": k,
                    "candidate": problem.candidates.strings()[k - 1],
                    "target_probability": float(dist.get(problem.upper_target_bits, 0.0)),
                    "flag_excitation": float(flag_excitation(problem, sv, k)),
                    "distribution": {b: float(p) for b, p in sorted(dist.items())},
                }
            )
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
        measured.result.verified,
        result=measured.result,
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


def _result_section(result: SearchResult) -> dict:
    return {
        "found": result.found,
        "candidate_index": result.candidate_index,
        "verified": bool(result.verified),
        "trials": int(result.trials),
    }


def _cost_section(config: ExperimentConfig, name: str) -> dict:
    breakdown = cost_breakdown(name, config.m, g=config.g, v=config.v)
    section = {
        "strategy": name,
        "m": int(config.m),
        "g": int(config.g),
        "v": int(config.v),
        "total": float(breakdown.total),
        "terms": {label: float(value) for label, value in breakdown.terms.items()},
    }
    if name in _BUDGETED:
        validity = candidate_budget_validity(config.m, config.v)
        section["validity"] = {
            "constraint": validity.constraint,
            "holds": bool(validity.holds),
            "margin": float(validity.margin),
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
    # disentangled composite register included
    cuts = config.purity_cuts if config.purity_cuts else (problem.lower_qubits.indices,)
    for cut in cuts:
        bad = [q for q in cut if q >= run.state.num_qubits]
        if bad:
            raise ConfigurationError(
                f"purity cut {list(cut)} exceeds the {run.state.num_qubits}-qubit state"
            )
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


def _cnot_equivalence(spec: PermutationSpec) -> dict:
    """Exhaustively compare the controlled-not realization to the mapping."""
    flags = len(spec.transpositions)
    total = spec.width + flags
    if total > 12:
        raise ConfigurationError(
            f"controlled-not check needs {total} qubits, limit is 12"
        )
    data = qubit_range(0, spec.width)
    flag_set = qubit_range(spec.width, total)
    worst = 0.0
    for source in range(2**spec.width):
        out = apply_cnot_permutation(basis_state(total, source), spec, data, flag_set)
        expected = basis_state(total, spec.mapping[source])
        deviation = float(abs(out.amplitudes - expected.amplitudes).max())
        worst = max(worst, deviation)
    return {
        "basis_states": 2**spec.width,
        "flag_qubits": flags,
        "max_deviation": worst,
    }


def run_verification(config: ExperimentConfig) -> tuple[dict, int]:
    """Replay the config's run with every kernel checked against its reference.

    Every kernel the replay applies, on any register the simulator can
    hold, is compared with its O(dim) reference output; the report passes
    when all agree within tolerance. A permutation config first checks the
    controlled-not realization of its relabeling, a pure function of the
    candidates and the convention, so a relabeling too wide for that check
    exits 1 before anything is simulated.
    """
    problem = config.problem()
    cnot = None
    if config.strategy == "permutation":
        cnot = _cnot_equivalence(
            build_permutation(problem.candidates.strings(), convention=config.convention)
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


def run_sweep(
    m: int = 5, g: int = 3, shots_per_trial: int = 256, seed: int = 0
) -> tuple[dict, int]:
    """Exercise the trial loop over every placement of the lower target.

    Each placement pairs the target with its bitwise complement as a decoy
    listed first, so half the probes start on a wrong candidate. Every run
    must verify within the oracle budget v * (r_L + r_U + 1).
    """
    if not 1 <= g < m:
        raise ConfigurationError(f"need 1 <= g < m, got g={g}, m={m}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    upper_bits = "1" + "0" * (m - g - 1)
    r_lower = iteration_count(2**g, 1)
    r_upper = iteration_count(2 ** (m - g), 1)
    budget = 2 * (r_lower + r_upper + 1)
    rows = []
    all_ok = True
    for value in range(2**g):
        target = int_to_bits(value, g)
        decoy = int_to_bits(value ^ (2**g - 1), g)
        problem = SearchProblem(
            global_oracle=ConcatenatedOracle(
                upper=ConjunctionOracle.matching(upper_bits),
                lower=ConjunctionOracle.matching(target),
            ),
            candidates=PartialCandidateSet.from_strings([decoy, target]),
        )
        counter = QueryCounter()
        result = iterative_search(
            problem, shots_per_trial=shots_per_trial, seed=seed, counter=counter
        ).result
        within = counter.oracle_calls <= budget
        rows.append(
            {
                "lower_target": target,
                "decoy": decoy,
                "found": result.found,
                "verified": bool(result.verified),
                "trials": int(result.trials),
                "oracle_calls": int(counter.oracle_calls),
                "budget": int(budget),
                "within_budget": bool(within),
            }
        )
        all_ok = all_ok and result.verified and within
    report = {
        "m": int(m),
        "g": int(g),
        "upper_target": upper_bits,
        "shots_per_trial": int(shots_per_trial),
        "seed": int(seed),
        "endianness": "little",
        "rows": rows,
        "all_verified": bool(all_ok),
    }
    return report, EXIT_OK if all_ok else EXIT_UNVERIFIED


def cost_table(ms, vs, strategies) -> list[dict]:
    """One row per (m, v, strategy) with totals and validity annotations."""
    ms, vs = list(ms), list(vs)
    strategies = list(strategies)
    if not ms or not vs or not strategies:
        raise ConfigurationError("cost table needs non-empty m, v, and strategy lists")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigurationError(f"unknown strategies {unknown}, pick from {STRATEGIES}")
    rows = []
    for m in ms:
        for v in vs:
            for strategy in strategies:
                g = m // 2
                breakdown = cost_breakdown(strategy, m, g=g, v=v)
                row: dict = {
                    "strategy": strategy,
                    "m": int(m),
                    "g": int(g),
                    "v": int(v),
                    "total": float(breakdown.total),
                }
                if strategy in _BUDGETED:
                    validity = candidate_budget_validity(m, v)
                    row["valid"] = bool(validity.holds)
                    row["margin"] = float(validity.margin)
                elif strategy == "decomposition-ideal":
                    margin = baseline_cost(m) - breakdown.total
                    row["valid"] = bool(margin > 0)
                    row["margin"] = float(margin)
                else:
                    row["valid"] = True
                    row["margin"] = None
                row["times_ratio"] = (
                    float(times_ratio(m, v)) if strategy == "disentangled" else None
                )
                rows.append(row)
    return rows
