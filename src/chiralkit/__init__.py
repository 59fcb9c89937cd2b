"""chiralkit: chirality measures for multipartite density matrices, the
magic monotones they lower-bound, and the discord-like correlation measures
tied to them."""

from .chirality import (
    MeasureReport,
    ModularSet,
    OptimizationResult,
    chiral_log_distance,
    gamma_integral,
    gamma_s,
    j2,
    j3,
    j3_prime,
    measure_report,
    modular_commutator,
    modular_set,
    pauli_log_distance,
    phi_s,
    pure_state_log_distance,
)
from .correlations import (
    CQDecomposition,
    check_gamma_qfi_bound,
    intrinsic_ip,
    is_classical_quantum,
    log_moment_bound,
    makhlin_invariants,
    noncommutativity_verdict,
    qfi,
    simplex_entropy_max,
    sld_apply,
    sld_integral_form,
)
from .experiments import (
    ScanRow,
    log_negativity,
    nonmonotonicity_demo,
    run_chirality_entanglement_scan,
    scan_to_csv,
)
from .io import parse_state_file, write_state_file
from .qmat import (
    DensityMatrix,
    EigenDecomposition,
    Partition,
    ShapeMismatchError,
    StateInvariantError,
    bipartition,
    conjugate,
    matrix_log_on_support,
    partial_trace,
    partial_transpose,
    purify,
    tensor_product,
    uhlmann_fidelity,
)
from .stabilizer import (
    ConjugationSolutions,
    PauliString,
    StabilizerGroup,
    conjugation_pauli,
    conjugation_pauli_set,
    parse_tableau,
    pure_stabilizer_states,
    stabilizer_fidelity,
    stabilizer_nullity,
    stabilizer_state,
    verify_magic_bounds,
)

__version__ = "0.1.0"
