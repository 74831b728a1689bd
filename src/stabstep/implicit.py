"""Implicit Euler stepping and its unconditional decrease guarantees.

The implicit Euler update Y = x + h f(Y) inherits Lyapunov decrease from the
convexity of V alone: V(x) = V(Y - h f(Y)) >= V(Y) - h grad V(Y) . f(Y) and
the Lie derivative term is nonpositive, so V(Y) <= V(x) for every admissible
step.  For linear Hurwitz fields the step restriction disappears entirely
(I - hA is invertible for all h >= 0).
"""

from __future__ import annotations

import numpy as np

from .core import (
    Array,
    ConfigurationError,
    IMPLICIT_EULER,
    StageSolveError,
    VectorField,
    rk_increment,
)
from .lyapunov import LyapunovFunction, within_slack


def implicit_euler_step(field: VectorField, x: Array, h: float) -> Array:
    """Solve Y = x + h f(Y) and return Y (the next state).

    Linear fields are handled by a direct solve of (I - hA)Y = x with no
    step restriction.  Otherwise Y = x + h F with F from `rk_increment`
    under the implicit Euler tableau, which needs the field's Jacobian and
    also verifies Y's residual.
    """
    x = np.asarray(x, dtype=float)
    if h < 0:
        raise ConfigurationError("step must be nonnegative")
    if h == 0.0:
        return x.copy()
    if field.linear_matrix is not None:
        a = field.linear_matrix
        try:
            return np.linalg.solve(np.eye(field.dim) - h * a, x)
        except np.linalg.LinAlgError as exc:
            raise StageSolveError(f"I - hA singular at h={h}") from exc
    return x + h * rk_increment(IMPLICIT_EULER, field, x, h)


def convex_decrease_check(
    lyap: LyapunovFunction,
    field: VectorField,
    x: Array,
    h: float,
) -> bool:
    """Assert V(Y) <= V(x) for the implicit Euler step out of x.

    Only meaningful for convex V; refuses to run otherwise so a failed
    check always indicts the step, not the hypothesis.
    """
    if not lyap.convex:
        raise ConfigurationError("decrease guarantee needs a convex V")
    x = np.asarray(x, dtype=float)
    y = implicit_euler_step(field, x, h)
    vx = lyap(x)
    return within_slack(lyap(y), vx)


def gradient_system_field(lyap: LyapunovFunction, dim: int) -> VectorField:
    """The descent field f = -grad V, with Jacobian -hess V.

    A V without a Hessian gives a field without a Jacobian, which explicit
    schemes step and implicit Euler refuses.
    """
    jac = None
    if lyap.hess is not None:
        jac = lambda x: -np.asarray(lyap.hess(x), dtype=float)
    return VectorField(dim=dim, f=lambda x: -lyap.gradient(x), jacobian=jac)


def check_midpoint_convexity(
    lyap: LyapunovFunction, rng: np.random.Generator, dim: int = 2
) -> bool:
    """Spot-check V(mid(x, y)) <= (V(x) + V(y)) / 2 on 1000 random pairs
    of standard normal points scaled by 5.

    A cheap guard against a wrongly set convex flag; passing is evidence,
    not proof.
    """
    for _ in range(1000):
        x = 5.0 * rng.standard_normal(dim)
        y = 5.0 * rng.standard_normal(dim)
        lhs = lyap(0.5 * (x + y))
        rhs = 0.5 * (lyap(x) + lyap(y))
        if not within_slack(lhs, rhs):
            return False
    return True
