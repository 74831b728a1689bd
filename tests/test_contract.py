"""The float64 contract on f, V and grad V: a state is a 1-D float64
ndarray, and f(x) and grad V(x) are float64 ndarrays of its shape.

The package calls the callables as they are and checks the contract once,
where it first evaluates them at a caller's state.  These tests pin the
refusals, and pin that calling without conversion changes no bit against
the converting calls the package once made."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from stabstep.applications import example_fields
from stabstep.core import (
    ConfigurationError,
    ConstantController,
    EULER,
    HEUN,
    IMPLICIT_EULER,
    RK4,
    VectorField,
    _stage_solve,
    advance,
    linear_field,
    reference_solve,
    rk_increment,
)
from stabstep.global_error import defect
from stabstep.implicit import implicit_euler_step
from stabstep.lyapunov import (
    EulerQController,
    HalvingController,
    LyapunovFunction,
    certify_trajectory,
    decrease_test,
    euler_q_phi,
    halving_controller,
    quadratic_lyapunov,
)

M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])
X = np.array([1.0, 2.0])
LYAP = quadratic_lyapunov(np.eye(2))

# values outside the contract on a 2-D state, each of which the converting
# call turned into something that ran: a broadcast, a list, a float32
BAD_VALUES = {
    "scalar": lambda x: -1.0,
    "list": lambda x: [-x[0], -x[1]],
    "float32": lambda x: (-x).astype(np.float32),
    "shape-1": lambda x: np.array([-x[0]]),
}
BAD = pytest.mark.parametrize("bad", sorted(BAD_VALUES))


def bad_field(bad: str) -> VectorField:
    # a Jacobian, so that implicit Euler reaches f(x) and not its refusal
    return VectorField(2, BAD_VALUES[bad], jacobian=lambda x: M1)


def refused(what: str):
    return pytest.raises(ConfigurationError,
                         match=rf"^{re.escape(what)} must be a float64")


class TestFieldValueRefused:
    """Each entry point refuses f(x) outside the contract, at once."""

    @BAD
    def test_advance_constant(self, bad):
        with refused("f(x)"):
            advance(EULER, bad_field(bad), ConstantController(0.1), X, 0.5)

    @BAD
    @pytest.mark.parametrize("scheme", [EULER, RK4, IMPLICIT_EULER])
    def test_advance_certified(self, bad, scheme):
        field = bad_field(bad)
        ctrl = HalvingController(LYAP, scheme, field, lam=0.5, h_init=1.0)
        with refused("f(x)"):
            advance(scheme, field, ctrl, X, 0.5)

    @BAD
    def test_advance_curvature_controller(self, bad):
        field = bad_field(bad)
        ctrl = EulerQController(LYAP, field, lam=0.5, r=1.0)
        with refused("f(x)"):
            advance(EULER, field, ctrl, X, 0.5)

    @BAD
    @pytest.mark.parametrize("scheme", [EULER, RK4, IMPLICIT_EULER])
    def test_rk_increment(self, bad, scheme):
        with refused("f(x)"):
            rk_increment(scheme, bad_field(bad), X, 0.1)

    @BAD
    def test_rk_increment_at_h_zero(self, bad):
        with refused("f(x)"):
            rk_increment(RK4, bad_field(bad), X, 0.0)

    @BAD
    def test_decrease_test(self, bad):
        with refused("f(x)"):
            decrease_test(LYAP, EULER, bad_field(bad), X, 0.1, 0.5)

    @BAD
    def test_halving_controller(self, bad):
        with refused("f(x)"):
            halving_controller(LYAP, HEUN, bad_field(bad), X, 1.0, 0.5)

    @BAD
    def test_euler_q_phi(self, bad):
        with refused("f(x)"):
            euler_q_phi(LYAP, bad_field(bad), X, 0.5, 1.0)

    @BAD
    def test_certify_trajectory(self, bad):
        traj = advance(EULER, linear_field(M1), ConstantController(0.1), X,
                       0.5)
        with refused("f(x)"):
            certify_trajectory(LYAP, traj, 0.5, bad_field(bad))

    @BAD
    def test_reference_solve(self, bad):
        with refused("f(x)"):
            reference_solve(bad_field(bad), X, 1.0)

    @BAD
    def test_defect(self, bad):
        with refused("f(x)"):
            defect(bad_field(bad), HEUN, X, 0.1)

    @BAD
    def test_implicit_euler_step(self, bad):
        with refused("f(x)"):
            implicit_euler_step(bad_field(bad), X, 0.1)

    def test_message_names_what_came_back(self):
        with pytest.raises(ConfigurationError,
                           match=r"shape \(2,\), got ndarray of dtype "
                                 r"float32 and shape \(2,\)$"):
            rk_increment(EULER, bad_field("float32"), X, 0.1)
        with pytest.raises(ConfigurationError, match=r"got list$"):
            rk_increment(EULER, bad_field("list"), X, 0.1)


class TestGradientRefused:
    @BAD
    def test_decrease_test(self, bad):
        lyap = LyapunovFunction(v=LYAP.v, grad=BAD_VALUES[bad])
        with refused("grad V(x)"):
            decrease_test(lyap, EULER, linear_field(M1), X, 0.1, 0.5)

    @BAD
    def test_certify_trajectory(self, bad):
        lyap = LyapunovFunction(v=LYAP.v, grad=BAD_VALUES[bad])
        field = linear_field(M1)
        traj = advance(EULER, field, ConstantController(0.1), X, 0.5)
        with refused("grad V(x)"):
            certify_trajectory(lyap, traj, 0.5, field)


class TestStateRefused:
    STATES = pytest.mark.parametrize("x", [
        pytest.param([1.0, 2.0], id="list"),
        pytest.param(np.array([1.0, 2.0], dtype=np.float32), id="float32"),
        pytest.param(np.ones((1, 2)), id="2-D")])

    @STATES
    def test_rk_increment(self, x):
        with refused("state x"):
            rk_increment(EULER, linear_field(M1), x, 0.1)

    @STATES
    def test_decrease_test(self, x):
        with refused("state x"):
            decrease_test(LYAP, EULER, linear_field(M1), x, 0.1, 0.5)

    @STATES
    def test_halving_controller(self, x):
        with refused("state x"):
            halving_controller(LYAP, EULER, linear_field(M1), x, 1.0, 0.5)

    def test_drivers_still_convert_their_state(self):
        field = linear_field(M1)
        ref = reference_solve(field, X, 0.5)
        assert reference_solve(field, [1, 2], 0.5).tobytes() == ref.tobytes()
        traj = advance(EULER, field, ConstantController(0.1), [1, 2], 0.5)
        assert traj.states[0].tobytes() == X.tobytes()

    def test_halving_controller_names_a_non_finite_state(self):
        with pytest.raises(ConfigurationError, match="x must be finite"):
            halving_controller(LYAP, EULER, linear_field(M1),
                               np.array([math.inf, 1.0]), 1.0, 0.5)


def test_stage_solve_refuses_a_jacobian_given_as_a_list():
    with pytest.raises(ConfigurationError,
                       match=r"^Jacobian of shape None for a state of size "
                             r"2, given as list$"):
        _stage_solve([[-1.0, 0.0], [0.0, -1.0]], X, 0.5)
    field = VectorField(2, lambda x: -x, jacobian=lambda x: [[-1.0, 0.0],
                                                             [0.0, -1.0]])
    with pytest.raises(ConfigurationError, match="given as list$"):
        rk_increment(IMPLICIT_EULER, field, X, 0.5)


# ---------------------------------------------------------------------------
# calling as they are gives the bits the converting calls gave


class ConvertingField(VectorField):
    """The field call that converted the state in and the value out, and
    a Jacobian converted as the stage solve once did."""

    def __call__(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)


class ConvertingLyapunov(LyapunovFunction):
    """The V call that converted the state in; `converting` wraps grad V
    in the conversions it once made."""

    def __call__(self, x):
        return float(self.v(np.asarray(x, dtype=float)))


def converting(field: VectorField, lyap: LyapunovFunction):
    jac, grad = field.jacobian, lyap.grad
    return (ConvertingField(
                field.dim, field.f,
                None if jac is None
                else lambda x: np.asarray(jac(x), dtype=float),
                field.linear_matrix),
            ConvertingLyapunov(
                lyap.v,
                lambda x: np.asarray(grad(np.asarray(x, dtype=float)),
                                     dtype=float),
                lyap.hess))


PLANAR = example_fields()


@st.composite
def problems(draw):
    """(field, lyap, x0): a random Hurwitz A of dimension 1 to 6 with
    V = x'Px from the Lyapunov equation, or one of the planar systems."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 6))
        m = rng.standard_normal((dim, dim))
        shift = float(np.max(np.linalg.eigvals(m).real))
        a = m - (shift + rng.uniform(0.5, 1.5)) * np.eye(dim)
        p = solve_continuous_lyapunov(a.T, -np.eye(dim))
        field, lyap = linear_field(a), quadratic_lyapunov(0.5 * (p + p.T))
    else:
        sysd = PLANAR[draw(st.sampled_from(sorted(PLANAR)))]
        field, lyap, dim = sysd.field, sysd.lyap, 2
    x0 = rng.standard_normal(dim)
    return field, lyap, x0 * (rng.uniform(0.5, 2.0) / np.linalg.norm(x0))


def run_and_audit(field, lyap, scheme, kind, x0):
    """advance then certify_trajectory, or the exception either raised."""
    if kind == "constant":
        ctrl = ConstantController(0.05)
    elif kind == "halving":
        ctrl = HalvingController(lyap, scheme, field, lam=0.5, h_init=1.0)
    else:
        ctrl = EulerQController(lyap, field, lam=0.5, r=1.0)
    try:
        traj = advance(scheme, field, ctrl, x0, 2.0, max_steps=300)
        report = certify_trajectory(lyap, traj, 0.5, field)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        # a step refused or failed: the same failure either way
        return type(exc), str(exc)
    return traj, report


def same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(problems(),
       st.sampled_from([("constant", EULER), ("constant", HEUN),
                        ("constant", RK4), ("constant", IMPLICIT_EULER),
                        ("halving", EULER), ("halving", HEUN),
                        ("halving", RK4), ("halving", IMPLICIT_EULER),
                        ("curvature", EULER)]))
def test_unconverted_calls_are_bit_identical(problem, run):
    field, lyap, x0 = problem
    kind, scheme = run
    with np.errstate(over="ignore", invalid="ignore"):
        new = run_and_audit(field, lyap, scheme, kind, x0)
        old = run_and_audit(*converting(field, lyap), scheme, kind, x0)
    if isinstance(new[0], type):
        assert new == old
        return
    (traj, report), (old_traj, old_report) = new, old
    for name in ("tau", "states", "steps", "h", "lhs", "rhs", "halvings"):
        assert same(getattr(traj, name), getattr(old_traj, name)), name
    assert traj.stop_reason == old_traj.stop_reason
    for name in ("v", "threshold", "accepted"):
        assert same(getattr(report, name), getattr(old_report, name)), name
    assert (report.ok, report.first_violation) == (old_report.ok,
                                                   old_report.first_violation)
