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
    _STAGE_TOL,
    rk_increment,
)
from .lyapunov import LyapunovFunction, _SLACK


def implicit_euler_step(field: VectorField, x: Array, h: float) -> Array:
    """Solve Y = x + h f(Y) and return Y (the next state).

    Linear fields are handled by a direct solve of (I - hA)Y = x with no
    step restriction.  Otherwise the stage solve of the implicit Euler
    tableau is used (Newton with a Jacobian, fixed-point without), and its
    residual is verified to 1e-11 (1 + |x|) before the step is accepted.

    The returned state is rebuilt as x + h F from the stage, so its residual
    is the stage residual multiplied by about h |J|.  A Newton step that
    misses the plain bound is therefore held to the bound times
    1 + h |J(Y)|_2, with J evaluated only then.  The fixed-point path keeps
    the plain bound: its convergence already implies h L < 1.
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
    y = x + h * rk_increment(IMPLICIT_EULER, field, x, h)
    residual = float(np.linalg.norm(y - x - h * field(y)))
    bound = 10.0 * _STAGE_TOL * (1.0 + float(np.linalg.norm(x)))
    if residual > bound and field.jacobian is not None:
        jac = np.asarray(field.jacobian(y), dtype=float)
        bound *= 1.0 + h * float(np.linalg.norm(jac, 2))
    if residual > bound:
        raise StageSolveError(
            f"implicit step residual {residual:.3e} exceeds {bound:.3e} at h={h}"
        )
    return y


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
    return lyap(y) <= vx + _SLACK * max(1.0, abs(vx))


def gradient_system_field(lyap: LyapunovFunction, dim: int) -> VectorField:
    """The descent field f = -grad V, with Jacobian -hess V when available."""
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
        if lhs > rhs + _SLACK * max(1.0, abs(rhs)):
            return False
    return True
