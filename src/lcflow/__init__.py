"""Monte Carlo solver for stochastic linear-convex optimal control.

Linear state dynamics, uniformly convex costs: the optimal control is the
fixed point of u <- u - eta * D[u] in the space of square-integrable
adapted controls, where D[u] is the cost gradient represented through the
adjoint backward equation.  On top of the converged system the package
extracts value-function derivatives, feedback laws and the classical
dynamic-programming identities, and cross-checks everything against a
Riccati oracle on linear-quadratic instances.
"""

from .adjoint import (
    AdjointEnsemble,
    GradientEnsemble,
    RegressionBasis,
    evaluate_cost,
    frechet_gradient,
    per_path_costs,
    solve_adjoint,
)
from .costs import CostModel, case1_smooth_cost, case2_smooth_cost, pseudo_huber
from .descent import (
    DescentConfig,
    DescentReport,
    HamiltonianSolution,
    descent_step,
    estimate_lipschitz,
    solve_hamiltonian,
    uniform_convexity_gap,
)
from .errors import (
    BlowupError,
    ConditioningError,
    ConvergenceError,
    LcflowError,
    RegularityError,
    SchemaError,
    StructuralError,
    ValidationFailure,
)
from .feedback import (
    FeedbackQuery,
    LatticeValueSource,
    build_lattice_source,
    feedback_map,
    minimize_hamiltonian_in_u,
    simulate_closed_loop,
    verify_optimality,
)
from .grids import PiecewiseConstant, TimeGrid
from .paths import (
    BrownianEnsemble,
    ControlEnsemble,
    StateEnsemble,
    dump_ensemble,
    generate_brownian,
    l2_norm,
    load_ensemble,
    simulate_forward,
)
from .problem import (
    CoefficientSet,
    ConvexityCertificate,
    Dimensions,
    ProblemSpec,
    ValidationReport,
    build_lq_problem,
    build_smooth_convex_problem,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from .riccati import (
    RiccatiSolution,
    lq_optimal_trajectory,
    lq_policy_value,
    lq_value,
    solve_riccati_ode,
)
from .value import (
    RiccatiValueSource,
    SolverValueSource,
    ValueSample,
    convexity_probe,
    dpp_gap,
    evaluate_value,
    hjb_residual,
    regularity_margin,
)
from .variational import (
    DerivativeSolution,
    FrozenQuadratic,
    freeze_second_order,
    hessian_from_derivative,
    riccati_state_check,
    solve_linear_hamiltonian,
)

__version__ = "0.1.0"
