"""Worked systems: spirals, the stiff pair, sweeps, and the QP flow."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabstep.core import (ConfigurationError, ConstantController,
                           ControllerError, EULER, HEUN, HybridTrajectory,
                           VectorField, advance, linear_field)
from stabstep import applications, lyapunov
from stabstep.lyapunov import (certify_trajectory, decrease_test,
                               quadratic_lyapunov)
from stabstep.applications import (
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
)


@pytest.fixture(scope="module")
def systems():
    return example_fields()


class TestFieldValues:
    def test_linear_spiral(self, systems):
        np.testing.assert_allclose(systems["f1"].field(np.array([1.0, 0.0])),
                                   [-1.0, -1.0])

    def test_cubic_damping(self, systems):
        # rotation plus -|x|^2 x
        np.testing.assert_allclose(systems["f2"].field(np.array([1.0, 0.0])),
                                   [-1.0, -1.0])
        np.testing.assert_allclose(systems["f2"].field(np.array([0.0, 2.0])),
                                   [2.0, -8.0])

    def test_scaled_spiral(self, systems):
        np.testing.assert_allclose(systems["f3"].field(np.array([1.0, 0.0])),
                                   [-1.0, -1.0])
        np.testing.assert_allclose(systems["f3"].field(np.array([2.0, 0.0])),
                                   [-8.0, -8.0])

    def test_equilibria(self, systems):
        for name in ("f1", "f2", "f3", "sys427"):
            np.testing.assert_array_equal(systems[name].field(np.zeros(2)),
                                          np.zeros(2))

    @pytest.mark.parametrize("name", ["f2", "f3", "sys427"])
    def test_jacobians_match_finite_differences(self, systems, name):
        f = systems[name].field
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = rng.normal(size=2) * rng.uniform(0.3, 3.0)
            jac = f.jacobian(x)
            eps = 1e-6
            fd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[:, j] = (f(x + e) - f(x - e)) / (2.0 * eps)
            np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-7)

    def test_lie_derivatives(self, systems):
        x = np.array([1.0, 2.0])

        def lie(name):
            return float(systems[name].lyap.grad(x) @ systems[name].field(x))

        assert lie("f1") == pytest.approx(-2.0 * 5.0)
        assert lie("f2") == pytest.approx(-2.0 * 25.0)
        assert lie("sys427") == pytest.approx(-5.0)


class TestLimitRadius:
    def test_reference_step(self):
        assert euler_f2_limit_radius(0.2) \
            == pytest.approx(0.3178372451957826, rel=1e-13)

    def test_closed_form_at_point_six(self):
        assert euler_f2_limit_radius(0.6) \
            == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_small_h_asymptotics(self):
        # rho(h) ~ sqrt(h/2) as h -> 0
        for h in (1e-3, 1e-5):
            assert euler_f2_limit_radius(h) / math.sqrt(h / 2.0) \
                == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5])
    def test_domain_enforced(self, h):
        with pytest.raises(ValueError):
            euler_f2_limit_radius(h)

    def test_iteration_settles_on_the_circle(self, systems):
        f = systems["f2"].field
        traj = advance(EULER, f, ConstantController(0.2),
                       np.array([1.0, 0.0]), t_end=math.inf,
                       max_steps=20_000)
        tail = np.linalg.norm(traj.states[10_000:], axis=1)
        target = euler_f2_limit_radius(0.2)
        assert abs(np.mean(tail) - target) < 1e-4
        assert np.max(np.abs(tail - target)) < 1e-6


class TestStiffPair:
    def test_phi_on_second_axis(self):
        assert stiff_phi(0.0, 1.0, 0.4, 10.0) == pytest.approx(1.2)
        assert stiff_phi(0.0, 1.0, 0.4, 1.0) == 1.0

    def test_phi_with_a_zero_denominator_is_r(self):
        assert stiff_phi(0.0, 0.0, 0.5, 2.0) == 2.0
        assert stiff_phi(1e-170, 1e-170, 0.5, 2.0) == 2.0  # den underflows

    @pytest.mark.parametrize("args, match", [
        ((math.nan, 1.0, 0.6, 1.0), "x1 must be finite"),
        ((1.0, math.inf, 0.6, 1.0), "x2 must be finite"),
        ((1.0, 1.0, math.nan, 1.0), "lam must lie in"),
        ((1.0, 1.0, 1.5, 1.0), "lam must lie in"),
        # min(h, nan) is h: a NaN cap would mean no cap at all
        ((1.0, 1.0, 0.6, math.nan), "r must be positive and finite"),
        ((1.0, 1.0, 0.6, 0.0), "r must be positive and finite"),
    ])
    def test_bad_inputs_are_refused(self, args, match):
        with pytest.raises(ConfigurationError, match=match):
            stiff_phi(*args)

    def test_a_step_onto_the_origin(self):
        traj = stiff_experiment(0.5, 1.0, (0.0, 1.0), 3)
        assert traj.states.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        assert traj.steps.tolist() == [1.0, 1.0]
        assert traj.final_time == 2.0

    def test_final_times_match_pinned_values(self):
        t6 = stiff_experiment(0.6).final_time
        t9 = stiff_experiment(0.9).final_time
        assert t6 == pytest.approx(12.71372, rel=1e-3)
        assert t9 == pytest.approx(3.798454, rel=1e-3)

    def test_node_count_convention(self):
        traj = stiff_experiment(0.6, n_steps=500)
        assert traj.tau.size == 500
        assert traj.steps.size == 499

    def test_trajectory_certifies(self):
        from stabstep.core import linear_field
        from stabstep.lyapunov import certify_trajectory, quadratic_lyapunov
        traj = stiff_experiment(0.6)
        report = certify_trajectory(quadratic_lyapunov(STIFF_P), traj, 0.6,
                                    field=linear_field(STIFF_A))
        assert report.ok


def _stiff_loop(lam, r=1.0, x0=(1.0, 1.1), n_steps=500):
    """The hand loop stiff_experiment ran before it stepped through
    core.advance, kept verbatim as a reference."""
    if n_steps < 1:
        raise ConfigurationError("n_steps must be at least 1")
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 == 0.0 and x2 == 0.0:
        raise ConfigurationError("x0 must be nonzero")
    t = 0.0
    taus = [t]
    states = [(x1, x2)]
    steps = []
    for _ in range(n_steps - 1):
        h = stiff_phi(x1, x2, lam, r)
        x1, x2 = x1 - (h * 1000.0) * x1, x2 + h * (x1 - x2)
        t = t + h
        taus.append(t)
        states.append((x1, x2))
        steps.append(h)
    return HybridTrajectory(
        tau=np.array(taus), states=np.array(states), steps=np.array(steps)
    )


def _run_or_error(run, *args):
    """The run's nodes, steps and final time, or the type of its error."""
    try:
        traj = run(*args)
    except Exception as exc:
        return type(exc)
    return (traj.tau.tolist(), traj.states.tolist(), traj.steps.tolist(),
            traj.final_time)


_coordinate = st.one_of(st.just(0.0), st.floats(1e-3, 10.0),
                        st.floats(-10.0, -1e-3))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.01, 0.99), r=st.floats(1e-3, 10.0),
       x0=st.tuples(_coordinate, _coordinate).filter(lambda x: any(x)),
       n_steps=st.integers(1, 600))
@example(lam=0.6, r=1.0, x0=(1.0, 1.1), n_steps=1)
@example(lam=0.6, r=1.0, x0=(1.0, 1.1), n_steps=500)
@example(lam=0.5, r=1.0, x0=(0.0, 1.0), n_steps=3)  # one step to the origin
def test_stiff_experiment_matches_the_hand_loop(lam, r, x0, n_steps):
    args = (lam, r, x0, n_steps)
    assert (_run_or_error(stiff_experiment, *args)
            == _run_or_error(_stiff_loop, *args))


class TestBoundarySweep:
    def test_euler_max_step_is_half_at_lambda_half(self, systems):
        s = systems["sys427"]
        for x1 in (-2.0, 0.0, 1.5):
            h = max_decrease_step(s.lyap, EULER, s.field,
                                  np.array([x1, 1.0]), 0.5, tol=1e-8)
            assert h == pytest.approx(0.5, abs=1e-6)

    def test_full_sweep_shape_and_positivity(self):
        sweep = boundary_sweep(n_points=21)
        assert set(sweep) == {"x1"} | {t.name for t in SWEEP_TABLEAUS}
        for tab in SWEEP_TABLEAUS:
            curve = sweep[tab.name]
            assert curve.shape == (21,)
            assert np.all(np.isfinite(curve))
            assert np.all(curve > 0.0)

    def test_no_accepted_step_gives_zero(self):
        # f = x grows V = x^2 at every step, so the halving search from
        # 1/64 runs out and the documented 0.0 comes back
        f = linear_field(np.array([[1.0]]))
        lyap = quadratic_lyapunov(np.eye(1))
        assert max_decrease_step(lyap, EULER, f, np.array([1.0]), 0.5) == 0.0

    def test_returned_step_is_accepted(self, systems):
        s = systems["sys427"]
        for tab in SWEEP_TABLEAUS:
            x = np.array([1.0, 1.0])
            h = max_decrease_step(s.lyap, tab, s.field, x, 0.5)
            assert decrease_test(s.lyap, tab, s.field, x, h, 0.5).accepted


def _budgeted(field: VectorField, calls: int = 10_000) -> VectorField:
    """`field`, raising once it has been called `calls` times, so that a
    search that never ends fails instead of hanging.  Heun's second stage
    calls it on every step `max_decrease_step` tests."""
    count = itertools.count(1)

    def f(x):
        if next(count) > calls:
            raise RuntimeError(f"field called more than {calls} times")
        return field(x)

    return VectorField(dim=field.dim, f=f, jacobian=field.jacobian)


class TestMaxDecreaseStepRefusals:
    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tol_must_be_positive(self, systems, tol):
        # tol <= 0 used to bisect forever, and a NaN tol returned the last
        # doubled step without bisecting
        s = systems["sys427"]
        with pytest.raises(ConfigurationError, match="tol must be positive"):
            max_decrease_step(s.lyap, HEUN, _budgeted(s.field),
                              np.array([0.0, 1.0]), 0.5, tol=tol)

    @pytest.mark.parametrize("x", [[math.nan, 1.0], [0.0, math.inf]])
    def test_state_must_be_finite(self, systems, x):
        # a NaN state used to return 0.0, as if no step were accepted
        s = systems["sys427"]
        with pytest.raises(ConfigurationError, match="x must be finite"):
            max_decrease_step(s.lyap, HEUN, _budgeted(s.field), np.array(x),
                              0.5)

    def test_a_tol_below_the_spacing_of_floats_ends(self, systems):
        # the bracket cannot shrink below one unit in the last place, so
        # the bisection ends there instead of looping on an equal midpoint
        s = systems["sys427"]
        x = np.array([0.0, 1.0])
        h = max_decrease_step(s.lyap, HEUN, _budgeted(s.field), x, 0.5,
                              tol=1e-300)
        assert decrease_test(s.lyap, HEUN, s.field, x, h, 0.5).accepted
        assert not decrease_test(s.lyap, HEUN, s.field, x,
                                 np.nextafter(h, math.inf), 0.5).accepted

    @pytest.mark.parametrize("n_points", [-1, 0])
    def test_sweep_needs_a_point(self, n_points):
        # -1 used to escape as numpy's ValueError from linspace
        with pytest.raises(ConfigurationError, match="n_points"):
            boundary_sweep(n_points=n_points)


class TestNlpFlow:
    def pinned(self):
        return nlp_flow(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                        np.array([1.0]))

    def test_kkt_solution(self):
        np.testing.assert_allclose(self.pinned().kkt_point, [0.5, 0.5, -0.5],
                                   rtol=1e-14)

    def test_v_at_origin(self):
        flow = self.pinned()
        assert flow.lyap(np.zeros(3)) == pytest.approx(0.5)

    def test_gradient_identity(self):
        """grad V . F = -|F|^2 holds for the constructed pair."""
        flow = self.pinned()
        rng = np.random.default_rng(71)
        for _ in range(20):
            w = rng.normal(size=3) * 2.0
            lhs = float(flow.lyap.grad(w) @ flow.field(w))
            rhs = -float(flow.field(w) @ flow.field(w))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_solver_reaches_kkt_point(self):
        flow = self.pinned()
        res = nlp_solve(flow, np.zeros(3), lam=0.5, tol=1e-7)
        np.testing.assert_allclose(res.w, [0.5, 0.5, -0.5], atol=1e-6)
        assert res.certified
        assert np.all(np.diff(res.v_history) < 0.0)

    def test_start_at_solution_needs_no_iterations(self):
        flow = self.pinned()
        w0 = np.array([0.5, 0.5, -0.5])
        res = nlp_solve(flow, w0, tol=1e-10)
        assert res.iterations == 0
        assert res.trajectory.steps.size == 0
        assert res.v_history == (flow.lyap(w0),)

    def test_trajectory_passes_the_reaudit(self):
        # the pinned QP and one random QP drawn as criterion 9 draws them
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((3, 3))
        random_qp = nlp_flow(basis.T @ basis + np.eye(3),
                             rng.standard_normal(3),
                             rng.standard_normal((1, 3)),
                             rng.standard_normal(1))
        for flow, w0 in ((self.pinned(), np.zeros(3)),
                         (random_qp, np.zeros(4))):
            res = nlp_solve(flow, w0, lam=0.5, tol=1e-7)
            traj = res.trajectory
            assert traj.lhs.size == traj.steps.size == res.iterations
            report = certify_trajectory(flow.lyap, traj, 0.5, field=flow.field)
            assert report.ok
            assert all(row[4] for row in report.rows)
            np.testing.assert_array_equal(traj.final_state, res.w)
            assert res.v_history[1:] == tuple(traj.lhs.tolist())

    def test_a_rejected_law_step_is_tested_once(self, monkeypatch):
        # an understated Hessian bound makes the law's step too long; each
        # step then costs one decrease test per candidate, h included once
        flow = self.pinned()
        flow = replace(flow, hess_norm=flow.hess_norm / 3)
        tested = []

        def counting(*args, **kwargs):
            tested.append(args[4])
            return decrease_test(*args, **kwargs)

        monkeypatch.setattr(applications, "decrease_test", counting)
        monkeypatch.setattr(lyapunov, "decrease_test", counting)
        res = nlp_solve(flow, np.zeros(3), lam=0.5, tol=1e-7)
        halvings = res.trajectory.halvings.tolist()
        assert not res.certified and max(halvings) > 0
        assert len(tested) == sum(k + 1 for k in halvings)

    @pytest.mark.parametrize("scale", [
        pytest.param(1.0, id="exact"),
        pytest.param(1.0 / 3.0, id="understated")])
    def test_v_once_per_node(self, scale):
        # V at w0 for v_history and for the first decrease threshold, then
        # once per decrease test: every later node reuses the accepted lhs
        flow = self.pinned()
        calls = []
        real_v = flow.lyap.v

        def v(w):
            calls.append(1)
            return real_v(w)

        flow = replace(flow, hess_norm=flow.hess_norm * scale,
                       lyap=replace(flow.lyap, v=v))
        res = nlp_solve(flow, np.zeros(3), lam=0.5, tol=1e-7)
        halvings = int(res.trajectory.halvings.sum())
        assert len(calls) <= res.iterations + halvings + 2

    def test_nan_start_raises(self):
        flow = self.pinned()
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="tau=0.0"):
            nlp_solve(flow, np.array([np.nan, 0.0, 0.0]), tol=1e-7)

    @pytest.mark.parametrize("r", [math.nan, -1.0])
    def test_bad_cap_is_named(self, r):
        # r = -1 used to surface as the halving start step's fault
        with pytest.raises(ConfigurationError, match="r must be positive"):
            nlp_solve(self.pinned(), np.zeros(3), r=r, tol=1e-7)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-7])
    def test_tol_must_be_positive(self, tol, monkeypatch):
        # a NaN tol used to run the whole iteration budget and then blame
        # convergence; the short budget keeps a missing refusal quick
        monkeypatch.setattr(applications, "_NLP_MAX_ITER", 100)
        with pytest.raises(ConfigurationError, match="tol must be positive"):
            nlp_solve(self.pinned(), np.zeros(3), tol=tol)

    def test_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(applications, "_NLP_MAX_ITER", 3)
        with pytest.raises(ControllerError, match=r"no convergence in 3 .*"
                           r"last step lhs=\S+ rhs=\S+ halvings=\d+$"):
            nlp_solve(self.pinned(), np.zeros(3), tol=1e-7)

    def test_split_separates_primal_and_dual(self):
        # w stacks the n primal entries over the m dual ones
        flow = self.pinned()
        res = nlp_solve(flow, np.zeros(3), tol=1e-7)
        assert (flow.n, flow.m) == (2, 1)
        np.testing.assert_allclose(res.w[:flow.n], [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(res.w[flow.n:], [-0.5], atol=1e-6)

    def test_hessian_bound_for_quadratic_is_exact(self):
        flow = self.pinned()
        g = np.block([[np.eye(2), np.array([[1.0], [1.0]])],
                      [np.array([[1.0, 1.0]]), np.zeros((1, 1))]])
        expected = float(np.max(np.abs(np.linalg.eigvalsh(g))) ** 2)
        assert flow.hess_norm == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q, c, a, b, message", [
        pytest.param(np.ones((2, 3)), np.zeros(2), [[1.0, 1.0]], [1.0],
                     "Q must be a square matrix", id="Q-not-square"),
        pytest.param([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), [[1.0, 1.0]],
                     [1.0], "Q must be symmetric", id="Q-not-symmetric"),
        pytest.param([[1.0, 0.0], [0.0, -1.0]], np.zeros(2), [[1.0, 1.0]],
                     [1.0], "Q must be positive definite", id="Q-not-PD"),
        pytest.param(np.eye(2), np.zeros(3), [[1.0, 1.0]], [1.0],
                     "c must have one entry per row of Q", id="c-vs-Q"),
        pytest.param(np.eye(3), np.zeros(3), [[1.0, 1.0]], [1.0],
                     "A must have one column per row of Q", id="A-vs-Q"),
        pytest.param(np.eye(2), np.zeros(2), [[1.0, 1.0]], [1.0, 2.0],
                     "b must have one entry per constraint row", id="b-vs-A"),
        pytest.param([[math.nan, 0.0], [0.0, 1.0]], np.zeros(2),
                     [[1.0, 1.0]], [1.0], "Q must be finite", id="Q-nan"),
        pytest.param(np.eye(2), [math.nan, 0.0], [[1.0, 1.0]], [1.0],
                     "c must be finite", id="c-nan"),
        pytest.param(np.eye(2), np.zeros(2), [[math.nan, 1.0]], [1.0],
                     "A must be finite", id="A-nan"),
        pytest.param(np.eye(2), np.zeros(2), [[1.0, 1.0]], [math.inf],
                     "b must be finite", id="b-inf"),
    ])
    def test_malformed_qp_is_refused(self, q, c, a, b, message):
        # refused before numpy meets the malformed arrays
        with pytest.raises(ConfigurationError, match=message):
            nlp_flow(q, c, a, b)

    def test_infeasible_constraints_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank deficient
        with pytest.raises(ConfigurationError):
            nlp_flow(np.eye(2), np.zeros(2), a, np.array([1.0, 2.0]))
