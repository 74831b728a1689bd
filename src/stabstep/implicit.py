"""Implicit Euler steps, Y = x + h f(Y).

For convex V the step inherits Lyapunov decrease from convexity alone:
V(x) = V(Y - h f(Y)) >= V(Y) - h grad V(Y) . f(Y) and the Lie derivative
term is nonpositive, so V(Y) <= V(x) for every admissible step.  For linear
Hurwitz fields the step restriction disappears entirely (I - hA is
invertible for all h >= 0).  Certified runs step implicit Euler through
core.advance and lyapunov.decrease_test like any other tableau.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Array,
    ConfigurationError,
    IMPLICIT_EULER,
    VectorField,
    _stage_solve,
    rk_increment,
)


def implicit_euler_step(field: VectorField, x: Array, h: float) -> Array:
    """Solve Y = x + h f(Y) and return Y (the next state).

    Linear fields are handled by a direct solve of (I - hA)Y = x with no
    step restriction, by `core._stage_solve`, which refuses an A whose
    shape is not (d, d).  Otherwise Y = x + h F with F from `rk_increment`
    under the implicit Euler tableau, which needs the field's Jacobian and
    also verifies Y's residual.
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 <= h < math.inf:
        raise ConfigurationError("step must be nonnegative")
    if h == 0.0:
        return x.copy()
    if field.linear_matrix is not None:
        return _stage_solve(field.linear_matrix, x, h)
    return x + h * rk_increment(IMPLICIT_EULER, field, x, h)
