"""Certified step-size control for Runge-Kutta methods on stable ODEs.

The package treats a numerical integration as a hybrid system: continuous
interpolation between grid points plus a discrete update of the step size.
Step bounds are chosen so that a Lyapunov function for the flow also
certifies the numerical trajectory, and every certificate can be re-checked
after the fact from the recorded data.

The names below are the certified-stepping library.  The paper's worked
experiments stay in their modules: the example systems, the stiff pair, the
sweeps and the QP flow in `stabstep.applications`, the randomized trials
and the per-experiment writers in `stabstep.smallgain` and
`stabstep.global_error`, the `stabstep run` catalog in `stabstep.cli` and
the acceptance suite in `stabstep.acceptance`.
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
    LyapunovFunction,
    certify_trajectory,
    decrease_test,
    euler_q_phi,
    halving_controller,
    linear_phi,
    quadratic_lyapunov,
)
from .smallgain import CascadeSystem, partitioned_step, sigma_constant
from .global_error import (
    ErrorBudget,
    ErrorReport,
    defect,
    error_bound,
    error_bound_finite_time,
    error_budget_step,
    error_report,
    order_reduction_exponent,
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
    "HalvingController", "LyapunovFunction", "certify_trajectory",
    "decrease_test", "euler_q_phi", "halving_controller", "linear_phi",
    "quadratic_lyapunov",
    # smallgain
    "CascadeSystem", "partitioned_step", "sigma_constant",
    # global_error
    "ErrorBudget", "ErrorReport", "defect", "error_bound",
    "error_bound_finite_time", "error_budget_step", "error_report",
    "order_reduction_exponent",
]
