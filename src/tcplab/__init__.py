"""Solver, property checks and perturbation experiments for tensor
complementarity problems over the nonnegative orthant."""

from .tensors import (
    Tensor,
    add,
    contract,
    flat_index,
    form,
    form_gradient,
    frobenius,
    multi_index,
    non_r0_witness,
    pair_norm,
    random_gaussian,
    scale,
    tensor_from_dict,
    tensor_to_dict,
)
from .model import (
    BudgetError,
    FaceMask,
    FaceSystem,
    KktPoint,
    TcpInstance,
    enumerate_faces,
    face_of,
    face_system,
    kkt_residual,
    max_residual,
    residual,
)
from .solver import (
    OracleResult,
    Ray,
    SolutionPoint,
    SolutionSet,
    SolverConfig,
    STATUS_EMPTY,
    STATUS_FINITE,
    STATUS_NON_ISOLATED,
    STATUS_UNBOUNDED,
    brute_force_oracle,
    chi_bound,
    hausdorff_excess,
    homogeneous_solve,
    homogeneous_solve_many,
    ray_active,
    solve,
    solve_many,
)
from .properties import (
    LscWitness,
    PropertyReport,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    check_copositive,
    check_monotone,
    check_r0,
    int_dual_cone_member,
    lsc_witness,
    probe_gus,
)
from .experiments import (
    ExperimentReport,
    ROW_COLUMNS,
    genericity_sample,
    hoelder_fit,
    local_boundedness_probe,
    pair_ball,
    r0_openness_probe,
    stability_inclusion_check,
    tensor_ball,
    usc_probe,
    vec_ball,
    vec_sphere,
)
from .catalog import EXAMPLE_NAMES, builtin_example, golden_suite, with_rhs

__version__ = "0.1.0"
