"""Exact statevector lab for tree search by staged amplitude amplification.

The package walks one idea through five executable strategies: amplify a
set of partial candidates on the lower half of a register, then complete
them on the upper half, either naively (entangled), independently
(product), candidate by candidate with classical accept checks
(iterative), in per-candidate blocks that never entangle with the
candidate register (disentangled), or after packing the candidates into a
compact code block by basis relabeling (permutation). Closed-form cost
formulas and a config-driven command line accompany the simulations.

Bit order is little-endian: qubit 0 is the least significant bit of a
basis index, and textual labels read most significant bit first.
"""

from .config import (
    ExperimentConfig,
    bundled_configs,
    config_from_mapping,
    load_config,
    resolve_config,
)
from .costs import (
    Cost,
    cost,
    cost_table,
    times_ratio,
    times_ratio_limit,
    v_max,
)
from .errors import ConfigurationError, PreconditionError, ValidationError
from .grover import (
    QueryCounter,
    iteration_count,
    rotation_angle,
    run_grover,
    success_probability,
)
from .oracles import (
    ConcatenatedOracle,
    ConjunctionOracle,
    PartialCandidateSet,
    bits_to_int,
    candidate_oracle,
    eval_oracle,
    int_to_bits,
)
from .permutation import (
    PermutationSpec,
    apply_cnot_permutation,
    build_permutation,
    compacted_search_state,
)
from .runner import run_experiment, run_sweep, run_verification
from .statevector import (
    KernelCrossCheck,
    QubitSet,
    Register,
    Statevector,
    apply_conditional_bit_flip,
    apply_diffusion,
    apply_index_map,
    apply_phase_flip,
    basis_state,
    init_uniform,
    partition_purity,
    probability_map,
    qubit_range,
    qubits,
    sample,
    top_outcome,
)
from .strategies import (
    SearchProblem,
    SearchResult,
    block_distribution,
    disentangled_search,
    entangled_nested,
    iterative_search,
    prepare_candidates,
    product_subspace_search,
    recover_candidate,
)

__version__ = "0.1.0"
