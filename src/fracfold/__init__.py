"""fracfold: singular nonlocal elliptic solves with fold continuation on an interval."""

from .errors import (
    AssemblyError,
    BracketViolation,
    ConvergenceError,
    GridError,
)
from .operator import (
    EigenPair,
    Grid,
    NonlocalOperator,
    assemble_operator,
    build_grid,
    normalization_constant,
    solve_dirichlet,
)
from .continuation import (
    Branch,
    BranchPoint,
    FoldInfo,
    FoldPolicy,
    TracePolicy,
    asymptotic_bifurcation_probe,
    fold_round,
    multiplicity_scan,
    trace_minimal,
    uniqueness_probe,
)
from .linearization import (
    LinearizedOperator,
    SensitivityBundle,
    fredholm_monitor,
    lambda1,
    linearized_operator,
    sensitivity_bundle,
)
from .problem import Nonlinearity, ProblemSpec, no_nonlinearity, power_nonlinearity
from .singular import (
    SolutionField,
    monotone_iterate,
    scale_pure_singular,
    solve_A,
    solve_min,
    solve_pure_singular,
)
from .weights import (
    NormReport,
    Regime,
    build_weight_profile,
    classify_regime,
    cone_norms,
    distance_field,
    fit_boundary_exponent,
    hs_membership_indicator,
    holder_seminorm,
    weight_k,
)

__version__ = "0.1.0"
