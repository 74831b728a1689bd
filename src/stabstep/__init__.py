"""Certified step-size control for Runge-Kutta methods on stable ODEs.

The package treats a numerical integration as a hybrid system: continuous
interpolation between grid points plus a discrete update of the step size.
Step bounds are chosen so that a Lyapunov function for the flow also
certifies the numerical trajectory, and every certificate can be re-checked
after the fact from the recorded data.
"""

from .core import (
    ButcherTableau,
    ConfigurationError,
    ConstantController,
    ControllerError,
    EULER,
    HEUN,
    HybridTrajectory,
    IMPLICIT_EULER,
    IMPROVED_POLYGON,
    KUTTA3,
    OracleError,
    RK4,
    StageSolveError,
    VectorField,
    advance,
    linear_field,
    reference_at_times,
    reference_solve,
    rk_increment,
    write_csv,
    write_trajectory_csv,
)
from .lyapunov import (
    CertificationReport,
    DecreaseCertificate,
    EulerQController,
    HalvingController,
    LinearQuadraticController,
    LyapunovFunction,
    certify_trajectory,
    decrease_test,
    euler_q_phi,
    halving_controller,
    linear_phi,
    quadratic_lyapunov,
)
from .implicit import implicit_euler_step
from .smallgain import (
    CascadeSystem,
    IssCheckResult,
    advance_chain,
    advection_chain,
    chain_decay_trials,
    iss_estimate_check,
    partitioned_step,
    sigma_constant,
    write_chain_csv,
    write_grid_csv,
)
from .global_error import (
    ErrorBudget,
    ErrorReport,
    compliant_steps,
    defect,
    defect_orders,
    error_bound,
    error_bound_finite_time,
    error_budget_step,
    error_report,
    order_reduction_exponent,
)
from .applications import (
    ExampleSystem,
    NlpFlow,
    NlpResult,
    STIFF_A,
    STIFF_P,
    SWEEP_TABLEAUS,
    boundary_sweep,
    euler_f2_limit_radius,
    example_fields,
    max_decrease_step,
    nlp_flow,
    nlp_solve,
    stiff_experiment,
    stiff_phi,
    write_steps_csv,
    write_sweep_csv,
)
from .acceptance import (
    AcceptanceTolerances,
    CRITERIA,
    CriterionResult,
    run_all,
    run_criterion,
)

__version__ = "0.1.0"

__all__ = [
    # core
    "ButcherTableau", "ConfigurationError", "ConstantController",
    "ControllerError", "EULER", "HEUN", "HybridTrajectory", "IMPLICIT_EULER",
    "IMPROVED_POLYGON", "KUTTA3", "OracleError", "RK4", "StageSolveError",
    "VectorField", "advance", "linear_field", "reference_at_times",
    "reference_solve", "rk_increment", "write_csv", "write_trajectory_csv",
    # lyapunov
    "CertificationReport", "DecreaseCertificate", "EulerQController",
    "HalvingController", "LinearQuadraticController", "LyapunovFunction",
    "certify_trajectory", "decrease_test", "euler_q_phi", "halving_controller",
    "linear_phi", "quadratic_lyapunov",
    # implicit
    "implicit_euler_step",
    # smallgain
    "CascadeSystem", "IssCheckResult", "advance_chain", "advection_chain",
    "chain_decay_trials", "iss_estimate_check", "partitioned_step",
    "sigma_constant", "write_chain_csv", "write_grid_csv",
    # global_error
    "ErrorBudget", "ErrorReport", "compliant_steps", "defect", "defect_orders",
    "error_bound", "error_bound_finite_time", "error_budget_step",
    "error_report", "order_reduction_exponent",
    # applications
    "ExampleSystem", "NlpFlow", "NlpResult", "STIFF_A", "STIFF_P",
    "SWEEP_TABLEAUS", "boundary_sweep", "euler_f2_limit_radius",
    "example_fields", "max_decrease_step", "nlp_flow", "nlp_solve",
    "stiff_experiment", "stiff_phi", "write_steps_csv", "write_sweep_csv",
    # acceptance
    "AcceptanceTolerances", "CRITERIA", "CriterionResult", "run_all",
    "run_criterion",
]
