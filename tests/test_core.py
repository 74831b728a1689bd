"""Core stepper tests: tableaus, increments, trajectories, oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stabstep.core import (
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
    VectorField,
    advance,
    linear_field,
    reference_at_times,
    reference_solve,
    rk_increment,
    write_csv,
    write_trajectory_csv,
)
from stabstep.lyapunov import (
    HalvingController,
    decrease_test,
    quadratic_lyapunov,
)

M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def scalar_decay():
    """x' = -x in one dimension."""
    return linear_field(np.array([[-1.0]]))


class TestTableaus:
    def test_catalog_orders(self):
        assert EULER.order == 1
        assert HEUN.order == 2
        assert IMPROVED_POLYGON.order == 2
        assert KUTTA3.order == 3
        assert RK4.order == 4
        assert IMPLICIT_EULER.order == 1

    def test_explicit_flags(self):
        for tab in (EULER, HEUN, IMPROVED_POLYGON, KUTTA3, RK4):
            assert tab.explicit
        assert not IMPLICIT_EULER.explicit

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ButcherTableau("bad", np.zeros((1, 1)), np.array([0.5]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ButcherTableau("bad", np.zeros((2, 2)), np.array([1.0]), 1)

    @pytest.mark.parametrize("a, b", [
        pytest.param([[0.0]], [math.nan], id="nan-weight"),
        pytest.param([[0.0, 0.0], [math.nan, 0.0]], [0.5, 0.5], id="nan-a"),
        pytest.param([[0.0, 0.0], [math.inf, 0.0]], [0.5, 0.5], id="inf-a")])
    def test_rejects_non_finite_coefficients(self, a, b):
        # |nan - 1| > 1e-12 is False, so the weight check let a NaN pass
        with pytest.raises(ConfigurationError, match="must be finite"):
            ButcherTableau("bad", a, b, 1)

    @pytest.mark.parametrize("order", [2.5, math.nan, 0, -1, "1"])
    def test_order_must_be_a_positive_integer(self, order):
        with pytest.raises(ConfigurationError, match="positive integer"):
            ButcherTableau("bad", [[0.0]], [1.0], order)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_linear_field_needs_a_finite_matrix(self, bad):
        with pytest.raises(ConfigurationError, match="matrix a must be finite"):
            linear_field([[bad]])

    @pytest.mark.parametrize("a, b", [
        ([[0.5]], [1.0]),  # implicit midpoint
        ([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5]),  # trapezoid
    ])
    def test_implicit_euler_is_the_only_implicit_tableau(self, a, b):
        with pytest.raises(ConfigurationError, match="implicit Euler"):
            ButcherTableau("implicit", a, b, 2)

    def test_stage_terms(self):
        assert EULER.stage_terms == ()
        assert HEUN.stage_terms == ((0, 1.0),)
        assert IMPROVED_POLYGON.stage_terms == ((0, 0.5),)
        assert KUTTA3.stage_terms == ((0, 0.5), None)
        assert RK4.stage_terms == ((0, 0.5), (1, 0.5), (2, 1.0))


class TestRkIncrement:
    def test_euler_is_f_of_x(self):
        f = scalar_decay()
        out = rk_increment(EULER, f, np.array([1.0]), 0.3)
        assert out[0] == -1.0

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_refuses_a_non_finite_step(self, h):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            rk_increment(EULER, scalar_decay(), np.array([1.0]), h)

    @pytest.mark.parametrize("tab", [EULER, HEUN, IMPROVED_POLYGON,
                                     KUTTA3, RK4, IMPLICIT_EULER])
    def test_zero_step_collapses_to_f(self, tab):
        # F(0, x) = f(x) is the consistency normalization every scheme obeys.
        f = linear_field(M1)
        x = np.array([0.7, -0.4])
        np.testing.assert_allclose(rk_increment(tab, f, x, 0.0), f(x),
                                   rtol=0, atol=0)

    def test_heun_on_linear_decay(self):
        # Stages 1 and 1-h average to F = -1 + h/2.
        f = scalar_decay()
        out = rk_increment(HEUN, f, np.array([1.0]), 0.2)
        assert out[0] == pytest.approx(-0.9, abs=1e-15)

    def test_implicit_euler_large_step(self):
        # Y = x/(1+h) solves the stage equation; increment is f(Y).
        f = scalar_decay()
        out = rk_increment(IMPLICIT_EULER, f, np.array([1.0]), 10.0)
        assert out[0] == pytest.approx(-1.0 / 11.0, rel=1e-14)

    def test_rk4_matches_degree_four_taylor(self):
        f = linear_field(M1)
        x = np.array([1.0, 2.0])
        h = 0.05
        inc = rk_increment(RK4, f, x, h)
        taylor = x.copy()
        term = x.copy()
        for k in range(1, 5):
            term = (h / k) * (M1 @ term)
            taylor = taylor + term
        np.testing.assert_allclose(x + h * inc, taylor, rtol=1e-15)

    def test_implicit_euler_needs_a_jacobian(self):
        # refused at every h, and passed on by a controller instead of
        # counted as a rejected step
        stiff = VectorField(dim=1, f=lambda x: -1000.0 * x)
        x = np.array([1.0])
        lyap = quadratic_lyapunov(np.eye(1))
        for h in (1e-4, 0.5):
            ctrl = HalvingController(lyap, IMPLICIT_EULER, stiff, lam=0.5,
                                     h_init=h)
            for call in (
                lambda: rk_increment(IMPLICIT_EULER, stiff, x, h),
                lambda: decrease_test(lyap, IMPLICIT_EULER, stiff, x, h, 0.5),
                lambda: advance(IMPLICIT_EULER, stiff, ctrl, x, 1.0),
            ):
                with pytest.raises(ConfigurationError,
                                   match="implicit Euler needs the field's "
                                         "Jacobian"):
                    call()

    def test_newton_handles_the_same_step(self):
        stiff = VectorField(dim=1, f=lambda x: -1000.0 * x,
                            jacobian=lambda x: np.array([[-1000.0]]))
        out = rk_increment(IMPLICIT_EULER, stiff, np.array([1.0]), 0.5)
        y = 1.0 / 501.0
        assert out[0] == pytest.approx(-1000.0 * y, rel=1e-12)

    @pytest.mark.parametrize("tab,order,h_lo", [
        (EULER, 1, -3.0), (HEUN, 2, -3.0), (IMPROVED_POLYGON, 2, -3.0),
        (KUTTA3, 3, -2.0), (RK4, 4, -1.5),
    ])
    def test_local_order(self, tab, order, h_lo):
        """One-step error against the flow decays like h^(p+1).

        The lower end of each h range keeps the error well above the
        1e-13 oracle tolerance, otherwise the fit sees noise.
        """
        f = linear_field(M1)
        x = np.array([1.0, 0.5])
        hs = np.logspace(h_lo, -0.5, 5)
        errs = []
        for h in hs:
            truth = reference_solve(f, x, float(h), tol=1e-13)
            inc = rk_increment(tab, f, x, float(h))
            errs.append(np.linalg.norm(x + h * inc - truth))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= order + 0.8


def plain_increment(tableau, field, x, h):
    """Explicit stages without shortcuts: a matmul for every row and b @ k."""
    a, s = tableau.a, tableau.stages
    k = np.zeros((s, field.dim))
    k[0] = field(x)
    for i in range(1, s):
        k[i] = field(x + h * (a[i, :i] @ k[:i]))
    return tableau.b @ k


COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@st.composite
def explicit_tableaus(draw):
    """A catalog tableau, or a random explicit one whose stage rows have
    one nonzero coefficient or several."""
    tab = draw(st.sampled_from([None, EULER, HEUN, IMPROVED_POLYGON,
                                KUTTA3, RK4]))
    if tab is not None:
        return tab
    s = draw(st.integers(1, 5))
    a = np.zeros((s, s))
    for i in range(1, s):
        if draw(st.booleans()):  # 1.0, as in Heun and RK4, is not multiplied
            a[i, draw(st.integers(0, i - 1))] = draw(
                st.one_of(st.just(1.0), st.floats(-2.0, 2.0)))
        else:
            a[i, :i] = draw(hnp.arrays(np.float64, i, elements=COEFFICIENTS))
    b = draw(hnp.arrays(np.float64, s, elements=st.floats(-1.0, 1.0)))
    b[-1] = 1.0 - b[:-1].sum()
    return ButcherTableau("random", a, b, 1)


class TestStageShortcuts:
    """The one-term stage rows and the one-stage return of rk_increment
    equal the plain matmul loop bit for bit, in every stage state and in
    the increment, signed zeros included, for finite states from subnormal
    to near 1e300."""

    STATES = st.floats(-1e300, 1e300)

    @settings(max_examples=300, deadline=None)
    @given(explicit_tableaus(), st.data())
    def test_bit_for_bit(self, tab, data):
        dim = data.draw(st.integers(1, 4))
        # a matmul field never returns -0.0; a diagonal one can
        shape = (dim, dim) if data.draw(st.booleans()) else dim
        a = data.draw(hnp.arrays(np.float64, shape,
                                 elements=st.floats(-1.0, 1.0)))
        x = data.draw(hnp.arrays(np.float64, dim, elements=self.STATES))
        h = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        inputs = []

        def f(y):
            inputs.append(y.tobytes())
            return a @ y if a.ndim == 2 else a * y

        field = VectorField(dim=dim, f=f)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = plain_increment(tab, field, x, h)
        # a finite b @ k means that every stage was finite
        assume(np.isfinite(expected).all())
        plain_inputs = inputs[:]
        inputs.clear()
        assert rk_increment(tab, field, x, h).tobytes() == expected.tobytes()
        assert inputs == plain_inputs  # every stage state, signed zeros too

    @pytest.mark.parametrize("tab", [HEUN, RK4])
    def test_unit_coefficient_keeps_special_values(self, tab):
        # a row whose one coefficient is 1.0 skips the multiply: 1.0 * v is
        # v bit for bit, for -0.0, inf and NaN too
        assert tab.stage_terms[-1][1] == 1.0
        special = np.array([-0.0, math.inf, -math.inf, math.nan, 1e-310])
        inputs = []

        def f(y):
            inputs.append(y.tobytes())
            return special.copy()

        x = np.array([-0.0, 0.0, 1.0, -1.0, 2.0])
        with np.errstate(invalid="ignore"):
            rk_increment(tab, VectorField(dim=5, f=f), x, 0.5)
            multiplied = x + 0.5 * (1.0 * special + 0.0)
        assert inputs[-1] == multiplied.tobytes()

    def test_row_of_zeros_in_one_dimension(self):
        # a row of zeros takes the one-term shortcut: the dot of a
        # one-element row would keep the -0.0 of 0.0 * k_1 that a matmul
        # turns into +0.0, and the stage state would be -0.0
        tab = ButcherTableau("zero-row", [[0.0, 0.0], [0.0, 0.0]],
                             [0.0, 1.0], 1)
        assert tab.stage_terms == ((0, 0.0),)
        inputs = []

        def f(y):
            inputs.append(y.tobytes())
            return 1.0 * y

        field = VectorField(dim=1, f=f)
        x = np.array([-0.0])
        out = rk_increment(tab, field, x, 0.5)
        shortcut_inputs = inputs[:]
        inputs.clear()
        assert out.tobytes() == plain_increment(tab, field, x, 0.5).tobytes()
        assert shortcut_inputs == inputs

    @pytest.mark.parametrize("tab", [EULER, HEUN, RK4])
    def test_signed_zeros(self, tab):
        # f(y) = y keeps the -0.0 of x in k_1, and a matmul stage row or
        # b @ k turns a -0.0 product into +0.0
        inputs = []

        def f(y):
            inputs.append(y.tobytes())
            return 1.0 * y

        field = VectorField(dim=2, f=f)
        x = np.array([-0.0, 1.0])
        out = rk_increment(tab, field, x, 0.5)
        shortcut_inputs = inputs[:]
        inputs.clear()
        assert out.tobytes() == plain_increment(tab, field, x, 0.5).tobytes()
        assert shortcut_inputs == inputs
        assert math.copysign(1.0, out[0]) == 1.0


class TestAdvance:
    def test_input_scaling_halves_the_step(self):
        # u = ln 2 turns a unit commanded step into 1/2, and Euler on
        # x' = -x with h = 1/2 halves the state exactly.
        f = scalar_decay()
        traj = advance(EULER, f, ConstantController(1.0), np.array([1.0]),
                       t_end=1.0, u_input=lambda t: math.log(2.0))
        np.testing.assert_array_equal(traj.tau, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(traj.states.ravel(), [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("u", [-1.0, math.nan, math.inf])
    def test_input_must_be_nonnegative_and_finite(self, u):
        # a negative u would enlarge the certified step by e^-u, a NaN one
        # would surface only as a non-finite state, and an infinite one
        # would realize steps of 0 until max_steps
        with pytest.raises(ConfigurationError, match=r"u=.* at tau=0\.0"):
            advance(EULER, scalar_decay(), ConstantController(0.5),
                    np.array([1.0]), t_end=1.0, u_input=lambda t: u,
                    max_steps=5)

    def test_nan_t_end_is_refused(self):
        # not tau < nan holds at once, which would end the run with 0 steps
        with pytest.raises(ConfigurationError, match="t_end"):
            advance(EULER, scalar_decay(), ConstantController(0.5),
                    np.array([1.0]), t_end=math.nan)

    def test_clock_identity_holds(self):
        f = linear_field(M1)
        rng = np.random.default_rng(11)

        def jittery(x, tau):
            return float(rng.uniform(0.01, 0.1))

        traj = advance(EULER, f, jittery, np.array([1.0, 0.0]), t_end=2.0)
        np.testing.assert_array_equal(traj.tau[1:], traj.tau[:-1] + traj.steps)
        assert traj.final_time >= 2.0

    def test_stops_at_norm_floor(self):
        f = scalar_decay()
        traj = advance(EULER, f, ConstantController(0.5), np.array([1.0]),
                       t_end=math.inf, max_steps=10_000,
                       stop=lambda x: np.linalg.norm(x) < 1e-6)
        assert np.linalg.norm(traj.final_state) < 1e-6
        assert traj.steps.size < 100

    def test_default_stop_is_the_norm_floor(self):
        # Euler with h = 1/2 halves the state exactly: 2^-47 is the first
        # power of two below 1e-14
        f = scalar_decay()
        traj = advance(EULER, f, ConstantController(0.5), np.array([1.0]),
                       t_end=math.inf, max_steps=10_000)
        assert traj.final_state[0] == 2.0 ** -47
        assert traj.steps.size == 47

    def test_custom_stop_replaces_the_norm_floor(self):
        # from the origin the default floor stops at once; a stop rule
        # that ignores |x| lets the run take its steps
        f = scalar_decay()
        x0 = np.array([0.0])
        assert advance(EULER, f, ConstantController(0.5), x0,
                       t_end=math.inf).steps.size == 0
        traj = advance(EULER, f, ConstantController(0.5), x0, t_end=math.inf,
                       max_steps=5, stop=lambda x: False)
        assert traj.steps.size == 5
        np.testing.assert_array_equal(traj.tau, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])

    def test_stop_at_start_never_calls_the_controller(self):
        def controller(x, tau):
            raise AssertionError("controller called")

        traj = advance(EULER, scalar_decay(), controller, np.array([1.0]),
                       t_end=math.inf, stop=lambda x: True)
        assert traj.steps.size == 0
        np.testing.assert_array_equal(traj.states, [[1.0]])

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_constant_controller_needs_a_finite_positive_step(self, h):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            ConstantController(h)

    def test_rejects_nonpositive_step(self):
        f = scalar_decay()
        with pytest.raises(ControllerError):
            advance(EULER, f, lambda x, tau: 0.0, np.array([1.0]), 1.0)

    def test_max_steps_truncates(self):
        f = scalar_decay()
        traj = advance(EULER, f, ConstantController(0.1), np.array([1.0]),
                       t_end=math.inf, max_steps=7)
        assert traj.steps.size == 7
        assert traj.stop_reason == "max_steps"

    @pytest.mark.parametrize("stop, t_end, reason", [
        (None, 1.0, "t_end"),
        (None, math.inf, "stop"),  # the norm floor, after 47 halvings
        (lambda x: x[0] < 0.1, math.inf, "stop"),
        (lambda x: False, math.inf, "max_steps"),
    ])
    def test_stop_reason(self, stop, t_end, reason):
        traj = advance(EULER, scalar_decay(), ConstantController(0.5),
                       np.array([1.0]), t_end, max_steps=100, stop=stop)
        assert traj.stop_reason == reason

    def test_the_stop_rule_is_asked_before_max_steps(self):
        # Euler with h = 1/2 halves x; after 3 steps both checks would end
        # the run, and the stop rule, asked first, names the reason
        traj = advance(EULER, scalar_decay(), ConstantController(0.5),
                       np.array([1.0]), math.inf, max_steps=3,
                       stop=lambda x: x[0] <= 0.125)
        assert traj.steps.size == 3 and traj.stop_reason == "stop"

    def test_a_run_without_certificates_has_no_columns(self):
        traj = advance(EULER, scalar_decay(), ConstantController(0.5),
                       np.array([1.0]), t_end=2.0)
        assert traj.steps.size == 4
        assert (traj.h, traj.lhs, traj.rhs, traj.halvings) == (None,) * 4

    @pytest.mark.parametrize("max_steps", [-3, 2.5, math.nan])
    def test_max_steps_must_be_a_nonnegative_integer(self, max_steps):
        # once answered with 0 steps, 3 steps and a run to t_end
        with pytest.raises(ConfigurationError, match="max_steps"):
            advance(EULER, scalar_decay(), ConstantController(0.5),
                    np.array([1.0]), t_end=2.0, max_steps=max_steps)

    @pytest.mark.parametrize("x0", [1.0, [[1.0]], np.eye(2)])
    def test_x0_must_be_a_state_vector(self, x0):
        # a (1, 1) x0 would broadcast into a record row without an error
        with pytest.raises(ConfigurationError, match="x0"):
            advance(EULER, scalar_decay(), ConstantController(0.5), x0,
                    t_end=1.0)

    def test_empty_x0_is_refused(self):
        # once ended at once with stop_reason "stop", as if converged
        with pytest.raises(ConfigurationError, match="nonempty"):
            advance(lambda x, h: x, None, ConstantController(0.5),
                    np.empty(0), t_end=1.0)

    @pytest.mark.parametrize("field", [
        pytest.param(linear_field(-np.eye(3)), id="linear"),
        pytest.param(VectorField(3, lambda x: -x), id="silent")])
    def test_a_field_of_another_dim_is_refused(self, field):
        # the linear field failed inside numpy's dot; -x ran silently
        with pytest.raises(ConfigurationError,
                           match="field of dim 3 for x0 of size 2"):
            advance(EULER, field, ConstantController(0.5), np.ones(2),
                    t_end=1.0)

    def test_non_finite_x0_raises(self):
        with pytest.raises(FloatingPointError, match="tau=0.0"):
            advance(EULER, scalar_decay(), ConstantController(0.5),
                    np.array([math.inf]), t_end=1.0)

    def test_a_step_to_another_shape_is_refused(self):
        # a (1,) state would broadcast into the record's row of 2
        with pytest.raises(ConfigurationError, match=r"shape \(1,\)"):
            advance(lambda x, h: x[:1], None, ConstantController(0.5),
                    np.array([1.0, 2.0]), t_end=1.0)

    def test_overflow_raises(self):
        # x' = 1e3 x^2 from x0 = 1 overflows within a few unit Euler steps
        f = VectorField(dim=1, f=lambda x: 1e3 * x * x)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite state"):
            advance(EULER, f, ConstantController(1.0), np.array([1.0]), 100.0)

    def test_nan_state_raises(self):
        # Euler overshoots x' = -sqrt(x) below 0, where the field is NaN; a
        # NaN norm must not pass for having reached the norm floor
        f = VectorField(dim=1, f=lambda x: -np.sqrt(x))
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="tau="):
            advance(EULER, f, ConstantController(0.8), np.array([1.0]), 100.0)


class TestTrajectory:
    def make(self):
        tau = np.array([0.0, 0.5, 1.5])
        states = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -2.0]])
        return HybridTrajectory(tau=tau, states=states,
                                steps=np.array([0.5, 1.0]))

    def test_mismatched_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridTrajectory(tau=np.array([0.0, 0.4]),
                             states=np.zeros((2, 1)),
                             steps=np.array([0.5]))

    @pytest.mark.parametrize("t0", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t0):
        with pytest.raises(ConfigurationError, match="tau must be finite"):
            HybridTrajectory(tau=[t0], states=[[1.0]], steps=[])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, bad):
        # advance raises on such a state before recording it; a trajectory
        # built by hand, as error-budget's is, used to take it
        with pytest.raises(ConfigurationError, match="states must be finite"):
            HybridTrajectory(tau=[0.0, 0.5], states=[[1.0, 0.0], [bad, 0.5]],
                             steps=[0.5])

    def test_built_trajectories_have_no_stop_reason(self):
        assert self.make().stop_reason is None
        with pytest.raises(ConfigurationError, match="stop_reason"):
            HybridTrajectory(tau=[0.0], states=[[1.0]], steps=[],
                             stop_reason="converged")

    def test_certificate_columns_come_together_per_step(self):
        tau, states, steps = [0.0, 0.5], [[1.0], [0.5]], [0.5]
        traj = HybridTrajectory(tau, states, steps, h=[1.0], lhs=[0.25],
                                rhs=[0.5], halvings=[1])
        assert traj.halvings.dtype.kind == "i" and traj.h.dtype == float
        with pytest.raises(ConfigurationError, match="columns .* come "
                                                     "together"):
            HybridTrajectory(tau, states, steps, h=[1.0], lhs=[0.25],
                             rhs=[0.5])
        with pytest.raises(ConfigurationError, match="column lhs needs one "
                                                     "entry per step"):
            HybridTrajectory(tau, states, steps, h=[1.0], lhs=[0.25, 0.1],
                             rhs=[0.5], halvings=[1])

    def test_csv_round_trip(self, tmp_path):
        base = self.make()
        extremes = (-0.0, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, 0.1 + 0.2)
        path = tmp_path / "t.csv"
        for states in (base.states, *(np.array([[v, -v], [v, 1.0], [2.0, v]])
                                      for v in extremes)):
            traj = HybridTrajectory(tau=base.tau, states=states,
                                    steps=base.steps)
            write_trajectory_csv(traj, path)
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "tau,h,x_0,x_1"
            data = np.array([[float(v) for v in line.split(",")]
                             for line in lines[1:]])
            # compare bits, so -0.0 and 0.0 differ
            assert data[:, 0].tobytes() == traj.tau.tobytes()
            assert data[:-1, 1].tobytes() == traj.steps.tobytes()
            assert data[-1, 1] == 0.0
            assert data[:, 2:].tobytes() == traj.states.tobytes()

    def test_write_csv_keeps_strings(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ("scheme", "h", "defect"),
                  [("euler", 0.1, 1.0 / 3.0), ("heun", 1e-3, 5e-324)])
        assert path.read_text() == (
            "scheme,h,defect\n"
            "euler,0.10000000000000001,0.33333333333333331\n"
            "heun,0.001,4.9406564584124654e-324\n"
        )


class TestReferenceOracle:
    def test_scalar_decay_endpoint(self):
        f = scalar_decay()
        x = reference_solve(f, np.array([1.0]), 1.0, tol=1e-12)
        assert x[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_half_turn_of_rotation(self):
        rot = linear_field(np.array([[0.0, -1.0], [1.0, 0.0]]))
        x = reference_solve(rot, np.array([1.0, 0.0]), math.pi, tol=1e-12)
        np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-11)

    def test_end_state_is_within_tol(self):
        f = scalar_decay()
        x = reference_solve(f, np.array([1.0]), 2.0, tol=1e-10)
        assert abs(x[0] - math.exp(-2.0)) < 1e-10

    def test_at_times_matches_closed_form(self):
        f = scalar_decay()
        times = np.array([0.0, 0.3, 0.31, 1.7])
        vals = reference_at_times(f, np.array([1.0]), times)
        np.testing.assert_allclose(vals.ravel(), np.exp(-times), rtol=1e-9)

    def test_times_must_start_at_zero(self):
        f = scalar_decay()
        with pytest.raises(OracleError):
            reference_at_times(f, np.array([1.0]), np.array([0.1, 0.2]))

    def test_non_finite_times_are_refused(self):
        # a NaN time makes every dt > 0 test false, which would return x0
        with pytest.raises(OracleError, match="finite"):
            reference_at_times(scalar_decay(), np.array([1.0]),
                               [0.0, math.nan, 1.0])

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_is_refused(self, t_end):
        with pytest.raises(OracleError, match="finite t_end"):
            reference_solve(scalar_decay(), np.array([1.0]), t_end)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_unreachable_tol_is_refused_before_the_first_step(self, tol):
        # err < tol never holds, so the doubling would run to ~2^40 steps
        def field_not_called(x):
            raise AssertionError("the oracle stepped")

        with pytest.raises(OracleError, match="tol > 0"):
            reference_solve(VectorField(1, field_not_called),
                            np.array([1.0]), 1.0, tol)

    def test_blow_up_raises_instead_of_refining_forever(self):
        # x' = x^2 from 2 blows up at t = 1/2, so every RK4 grid to t = 1
        # ends non-finite and the Richardson estimate is NaN
        blow_up = VectorField(1, lambda x: x * x)
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match=r"t_end=1 with n=\d+"):
                reference_solve(blow_up, np.array([2.0]), 1.0)
        assert time.perf_counter() - start < 1.0
