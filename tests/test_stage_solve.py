"""The implicit Euler stage solve against the general s-stage Newton
solver it replaced, kept here as a reference, and its refusal of a field
without a Jacobian."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabstep.applications import example_fields
from stabstep.core import (
    IMPLICIT_EULER,
    ButcherTableau,
    ConfigurationError,
    StageSolveError,
    VectorField,
    _STAGE_MAX_ITER,
    _STAGE_TOL,
    _check_rebuilt_state,
    linear_field,
    rk_increment,
)
from stabstep.lyapunov import LyapunovFunction

Array = np.ndarray


def reference_rk_increment(
    tableau: ButcherTableau, field: VectorField, x: Array, h: float, *, fx=None
) -> Array:
    """The s-stage block-Newton stage solver, as it was."""
    x = np.asarray(x, dtype=float)
    if h < 0:
        raise ConfigurationError("step must be nonnegative")
    if fx is None:
        fx = field(x)
    if h == 0.0:
        return fx
    s, n = tableau.stages, field.dim
    a, b = tableau.a, tableau.b

    if tableau.explicit:
        k = np.zeros((s, n))
        k[0] = fx
        for i in range(1, s):
            k[i] = field(x + h * (a[i, :i] @ k[:i]))
        return b @ k

    tol = _STAGE_TOL * (1.0 + float(np.linalg.norm(x)))
    y = np.tile(x, (s, 1))
    fy = np.tile(fx, (s, 1))  # every stage starts at x

    for _ in range(_STAGE_MAX_ITER):
        res = y - x - h * (a @ fy)
        if float(np.max(np.linalg.norm(res, axis=1))) <= tol:
            incr = b @ fy
            break
        jac = np.eye(s * n)
        for i in range(s):
            for j in range(s):
                if a[i, j] != 0.0:
                    block = field.jacobian(y[j])
                    jac[i * n : (i + 1) * n, j * n : (j + 1) * n] -= (
                        h * a[i, j] * np.asarray(block, dtype=float)
                    )
        try:
            delta = np.linalg.solve(jac, res.ravel())
        except np.linalg.LinAlgError as exc:
            raise StageSolveError(f"singular stage Jacobian at h={h}") from exc
        y = y - delta.reshape(s, n)
        if not np.all(np.isfinite(y)):
            raise StageSolveError(f"stage Newton iteration diverged at h={h}")
        fy = np.array([field(yi) for yi in y])
    else:
        raise StageSolveError(f"stage Newton iteration stalled at h={h}")

    # f = Ax is exempt: |r| <= tol gives |hAr| <= h|A| tol < 10 tol (1 + h|A|)
    if s == 1 and a[0, 0] == 1.0 and field.linear_matrix is None:
        _check_rebuilt_state(field, x, h, incr)
    return incr


PLANAR = example_fields()

# V = |x|^2 / 2 + |x|^4 / 4 is convex, so its descent field is a gradient
# system with a nonlinear, symmetric negative definite Jacobian, minus
# V's Hessian, which varies with x.
QUARTIC = LyapunovFunction(
    v=lambda x: 0.5 * float(x @ x) + 0.25 * float(x @ x) ** 2,
    grad=lambda x: (1.0 + float(x @ x)) * x,
)


def quartic_hess(x):
    return (1.0 + float(x @ x)) * np.eye(x.size) + 2.0 * np.outer(x, x)


@st.composite
def stage_problems(draw):
    """(field, x, h): a field from the list below, with or without its
    Jacobian, |x| in [1e-12, 1e3] and h in [1e-3, 1e4], both log-uniform.
    The numbers come from a drawn seed, so that few of them are round."""
    kind = draw(st.sampled_from(["linear", "f2", "sys427", "gradient"]))
    dim = 2 if kind in PLANAR else draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "linear":
        m = rng.uniform(-1.0, 1.0, (dim, dim))
        shift = float(np.max(np.linalg.eigvals(m).real)) + rng.uniform(0.25, 1.5)
        field = linear_field(m - shift * np.eye(dim))
    elif kind == "gradient":
        field = VectorField(dim=dim, f=lambda x: -QUARTIC.grad(x),
                            jacobian=lambda x: -quartic_hess(x))
    else:
        field = PLANAR[kind].field
    if not draw(st.booleans()):
        field = replace(field, jacobian=None)
    direction = rng.standard_normal(dim)
    x = direction * (10.0 ** rng.uniform(-12.0, 3.0)
                     / float(np.linalg.norm(direction)))
    return field, x, 10.0 ** rng.uniform(-3.0, 4.0)


def outcome(solver, field, x, h):
    try:
        return solver(IMPLICIT_EULER, field, x, h), None
    except StageSolveError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(stage_problems())
def test_implicit_euler_matches_the_s_stage_solver(problem):
    field, x, h = problem
    if field.jacobian is None:
        with pytest.raises(ConfigurationError,
                           match="implicit Euler needs the field's Jacobian"):
            rk_increment(IMPLICIT_EULER, field, x, h)
        return
    with np.errstate(all="ignore"):
        new, new_err = outcome(rk_increment, field, x, h)
        old, old_err = outcome(reference_rk_increment, field, x, h)
    assert new_err == old_err
    if new_err is None:
        assert np.array_equal(new, old)
