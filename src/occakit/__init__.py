"""Orthogonal CCA solvers built on a self-consistent-field iteration.

Two-view and weighted multiset variants share one trace-fractional
subproblem core; classical CCA and QR post-orthogonalization ship as
baselines, together with a synthetic generator and a reproducible CLI.
"""

from .data import SyntheticSpec, center, gen_synthetic, load_matrix, save_matrix
from .errors import (
    ContractViolation,
    DegenerateViewError,
    IsolatedViewError,
    OccaKitError,
    ParseError,
    RankDeficiencyError,
    SolverFailure,
    UndefinedRatioError,
)
from .linalg import align, dist_tr, orthonormalize, pair_align
from .multiset import (
    MultiViewProblem,
    OmccaConfig,
    OmccaReport,
    RangeReducedView,
    build_multiview,
    compute_Ds,
    g_objective,
    rcomcca,
    reduce_views,
    total_correlation,
)
from .scf import (
    ScfConfig,
    ScfReport,
    SubproblemSpec,
    build_E,
    eta,
    grad_eta,
    kkt_residual,
    scf_solve,
    second_order_check,
)
from .twoview import (
    AltConfig,
    OccaReport,
    TwoViewProblem,
    build_two_view,
    classical_cca,
    objective_F,
    objective_f,
    occa_alternate,
    post_orthogonalize,
)
from .weighting import (
    WeightMatrix,
    build_weights,
    pairwise_rho_hat,
    rho_hat_matrix,
    select_weights,
    softmax_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "AltConfig",
    "ContractViolation",
    "DegenerateViewError",
    "IsolatedViewError",
    "MultiViewProblem",
    "OccaKitError",
    "OccaReport",
    "OmccaConfig",
    "OmccaReport",
    "ParseError",
    "RangeReducedView",
    "RankDeficiencyError",
    "ScfConfig",
    "ScfReport",
    "SolverFailure",
    "SubproblemSpec",
    "SyntheticSpec",
    "TwoViewProblem",
    "UndefinedRatioError",
    "WeightMatrix",
    "align",
    "build_E",
    "build_multiview",
    "build_two_view",
    "build_weights",
    "center",
    "classical_cca",
    "compute_Ds",
    "dist_tr",
    "eta",
    "g_objective",
    "gen_synthetic",
    "grad_eta",
    "kkt_residual",
    "load_matrix",
    "objective_F",
    "objective_f",
    "occa_alternate",
    "orthonormalize",
    "pair_align",
    "pairwise_rho_hat",
    "post_orthogonalize",
    "rcomcca",
    "reduce_views",
    "rho_hat_matrix",
    "save_matrix",
    "scf_solve",
    "second_order_check",
    "select_weights",
    "softmax_normalize",
    "total_correlation",
]
