"""Implicit Euler: direct solves, Newton, convex decrease, gradient flows."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stabstep import core
from stabstep.core import (
    ConfigurationError,
    ConstantController,
    HybridTrajectory,
    IMPLICIT_EULER,
    StageSolveError,
    VectorField,
    advance,
    linear_field,
    rk_increment,
)
from stabstep.implicit import implicit_euler_step
from stabstep.lyapunov import (
    LyapunovFunction,
    decrease_test,
    quadratic_lyapunov,
    within_slack,
)
from stabstep.applications import example_fields

M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def gradient_system_field(lyap: LyapunovFunction, dim: int) -> VectorField:
    """The descent field f = -grad V, with Jacobian -hess V."""
    return VectorField(dim=dim, f=lambda x: -lyap.gradient(x),
                       jacobian=lambda x: -np.asarray(lyap.hess(x),
                                                      dtype=float))


def test_linear_unit_step():
    # (I - M1)^{-1} (1, 0) by hand: det = 5.
    out = implicit_euler_step(linear_field(M1), np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.4, -0.2], rtol=1e-15)


def test_scalar_decay_huge_step():
    out = implicit_euler_step(linear_field(np.array([[-1.0]])),
                              np.array([1.0]), 10.0)
    assert out[0] == pytest.approx(1.0 / 11.0, rel=1e-14)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_refuses_a_non_finite_step(h):
    with pytest.raises(ConfigurationError, match="nonnegative"):
        implicit_euler_step(linear_field(M1), np.array([1.0, 0.0]), h)


def test_zero_step_is_identity():
    x = np.array([2.0, -3.0])
    out = implicit_euler_step(linear_field(M1), x, 0.0)
    np.testing.assert_array_equal(out, x)


def test_stable_linear_decrease_at_h_100():
    """A-stability in action: the step contracts no matter how large h is."""
    lyap = quadratic_lyapunov(np.eye(2))
    f = linear_field(M1)
    x = np.array([5.0, 2.0])
    y = implicit_euler_step(f, x, 100.0)
    assert lyap(y) < lyap(x)


def test_unconditional_decrease_random_steps():
    rng = np.random.default_rng(31)
    lyap = quadratic_lyapunov(np.eye(2))
    f = linear_field(M1)
    for _ in range(40):
        x = rng.normal(size=2) * rng.uniform(0.1, 20.0)
        h = float(10.0 ** rng.uniform(-3, 3))
        assert within_slack(lyap(implicit_euler_step(f, x, h)), lyap(x))


def test_residual_satisfies_stage_equation():
    system = example_fields()["f2"]
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=2)
        h = float(rng.uniform(0.01, 0.5))
        y = implicit_euler_step(system.field, x, h)
        res = y - x - h * system.field(y)
        assert np.linalg.norm(res) <= 1e-10 * (1.0 + np.linalg.norm(x))


@pytest.mark.parametrize("h", [1e3, 1e4])
def test_newton_step_accepted_at_large_h(h):
    # f = -x with a Jacobian: the stage solve converges, and the rebuilt
    # state x + h F carries the stage residual times about h |J|.  The
    # rebuild cancels, so the answer x/(1+h) is exact to 1e-12 of |x|.
    f = gradient_system_field(quadratic_lyapunov(np.eye(2) / 2), 2)
    x = np.array([1.0, 1.0])
    y = implicit_euler_step(f, x, h)
    assert np.max(np.abs(y - x / (1.0 + h))) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("h", [1.0, 1e3])
def test_perturbed_increment_still_rejected(monkeypatch, h):
    # The rebuilt-state check lives in the stage solve, so a bad increment
    # is refused on every path that takes an implicit Euler step.
    real = core._check_rebuilt_state

    def perturbed(field, x, step, incr):
        return real(field, x, step, incr + 1e-6)

    monkeypatch.setattr(core, "_check_rebuilt_state", perturbed)
    lyap = quadratic_lyapunov(np.eye(2) / 2)
    f = gradient_system_field(lyap, 2)
    x = np.array([1.0, 1.0])
    with pytest.raises(StageSolveError, match="implicit step residual") as exc:
        implicit_euler_step(f, x, h)
    with pytest.raises(StageSolveError, match="implicit step residual"):
        advance(IMPLICIT_EULER, f, ConstantController(h), x, math.inf,
                max_steps=1)
    cert = decrease_test(lyap, IMPLICIT_EULER, f, x, h, 0.5)
    assert cert.accepted is False
    assert cert.reason == str(exc.value)


def _f2_implicit_loop(system, params):
    """The hand-written f2-implicit loop that `advance` replaced."""
    h = float(params["h"])
    n = int(params["steps"])
    x = np.array([1.0, 0.0])
    t = 0.0
    taus, states, steps = [t], [x.copy()], []
    first = -1
    for k in range(1, n + 1):
        x = implicit_euler_step(system.field, x, h)
        t = t + h
        taus.append(t)
        states.append(x.copy())
        steps.append(h)
        if first < 0 and float(np.linalg.norm(x)) < 1e-8:
            first = k
    traj = HybridTrajectory(tau=np.array(taus), states=np.array(states),
                            steps=np.array(steps))
    return traj, first


def test_advance_reproduces_the_f2_implicit_loop():
    system = example_fields()["f2"]
    ref, first = _f2_implicit_loop(system, {"h": 0.2, "steps": 2000})
    traj = advance(IMPLICIT_EULER, system.field, ConstantController(0.2),
                   np.array([1.0, 0.0]), math.inf, max_steps=2000)
    assert traj.steps.size == 2000 and first == 881
    assert np.array_equal(traj.tau, ref.tau)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.steps, ref.steps)


def test_cubic_damping_rescue_reaches_1e8():
    """Constant-step implicit Euler kills the spurious limit cycle."""
    f = example_fields()["f2"].field
    x = np.array([1.0, 0.0])
    hit = None
    for k in range(1, 2001):
        x = implicit_euler_step(f, x, 0.2)
        if np.linalg.norm(x) < 1e-8:
            hit = k
            break
    assert hit is not None
    assert hit == 881


@st.composite
def hurwitz_steps(draw):
    """(A, x, h): a Hurwitz A with abscissa in [-1.5, -0.25], x != 0 and
    h in [1e-3, 1e4]."""
    dim = draw(st.integers(1, 4))
    m = draw(hnp.arrays(np.float64, (dim, dim),
                        elements=st.floats(-1.0, 1.0)))
    margin = draw(st.floats(0.25, 1.5))
    x = draw(hnp.arrays(np.float64, dim, elements=st.floats(-10.0, 10.0)))
    assume(float(np.linalg.norm(x)) > 1e-3)
    a = m - (float(np.max(np.linalg.eigvals(m).real)) + margin) * np.eye(dim)
    return a, x, draw(st.floats(1e-3, 1e4))


@settings(max_examples=50, deadline=None)
@given(hurwitz_steps())
def test_linear_fields_need_no_rebuilt_state_check(problem):
    """The exemption of f = Ax from the check in `rk_increment` loses
    nothing: the direct solve meets the plain bound 1e-11 (1 + |x|), and
    the state rebuilt from the Newton stage passes the check."""
    a, x, h = problem
    f = linear_field(a)
    scale = 1.0 + float(np.linalg.norm(x))
    y = implicit_euler_step(f, x, h)
    assert np.linalg.norm(y - x - h * f(y)) <= 10.0 * core._STAGE_TOL * scale
    incr = rk_increment(IMPLICIT_EULER, f, x, h)
    core._check_rebuilt_state(f, x, h, incr)


class TestGradientSystemPhi:
    def test_descent_direction(self):
        lyap = quadratic_lyapunov(np.array([[2.0, 0.0], [0.0, 0.5]]))
        f = gradient_system_field(lyap, 2)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(f(x), -lyap.gradient(x))
