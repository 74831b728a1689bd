"""Decrease tests, step-bound formulas, and trajectory certification."""

import gc
import math
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_continuous_lyapunov

from stabstep import lyapunov
from stabstep.applications import example_fields
from stabstep.core import (
    ConfigurationError,
    ConstantController,
    ControllerError,
    EULER,
    HEUN,
    HybridTrajectory,
    IMPLICIT_EULER,
    RK4,
    VectorField,
    advance,
    linear_field,
    rk_increment,
)
from stabstep.implicit import implicit_euler_step
from stabstep.lyapunov import (
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
    within_slack,
    quadratic_lyapunov,
)

M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])
STIFF = np.array([[-1000.0, 0.0], [1.0, -1.0]])


def spiral():
    return linear_field(M1)


def vsq():
    return quadratic_lyapunov(np.eye(2))


# V = |x|^2/2 + |x|^4/4, convex, with a Hessian that varies with x
QUARTIC = LyapunovFunction(
    v=lambda x: 0.5 * float(x @ x) + 0.25 * float(x @ x) ** 2,
    grad=lambda x: (1.0 + float(x @ x)) * x,
    hess=lambda x: (1.0 + float(x @ x)) * np.eye(x.size) + 2.0 * np.outer(x, x),
    convex=True,
)


class TestQuadraticLyapunov:
    def test_value_gradient_hessian(self):
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        lyap = quadratic_lyapunov(p)
        x = np.array([1.0, -2.0])
        assert lyap(x) == pytest.approx(x @ p @ x)
        np.testing.assert_allclose(lyap.gradient(x), 2.0 * p @ x)
        np.testing.assert_allclose(lyap.hess(x), 2.0 * p)
        assert lyap.convex

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            quadratic_lyapunov(np.array([[1.0, 0.3], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_is_named(self, bad):
        # a NaN entry used to be reported as an asymmetric P
        with pytest.raises(ConfigurationError, match="P must be finite"):
            quadratic_lyapunov(np.array([[bad]]))


class TestDecreaseTest:
    """Euler on the spiral with V = |x|^2 accepts exactly h <= 1 - lam."""

    def test_boundary_step_accepted(self):
        cert = decrease_test(vsq(), EULER, spiral(), np.array([1.0, 0.0]),
                             0.5, 0.5)
        assert cert.accepted
        assert cert.lhs == pytest.approx(0.5)
        assert cert.rhs == pytest.approx(0.5)

    def test_step_past_boundary_rejected(self):
        cert = decrease_test(vsq(), EULER, spiral(), np.array([1.0, 0.0]),
                             0.6, 0.5)
        assert not cert.accepted
        # |x + h M1 x|^2 = 1 - 2h + 2h^2 at |x| = 1
        assert cert.lhs == pytest.approx(0.52)
        assert cert.rhs == pytest.approx(0.4)

    def test_origin_always_passes(self):
        cert = decrease_test(vsq(), EULER, spiral(), np.zeros(2), 1.0, 0.5)
        assert cert.accepted

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_refuses_a_non_finite_step(self, h):
        with pytest.raises(ConfigurationError, match="h > 0"):
            decrease_test(vsq(), EULER, spiral(), np.array([1.0, 0.0]), h,
                          0.5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            decrease_test(vsq(), EULER, spiral(), np.ones(2), 0.1, 1.0)

    def test_scale_invariance(self):
        """Scaling V by a constant must not flip the verdict.

        Steps within 1e-6 of the acceptance boundary are skipped; there
        the absolute slack term legitimately decides.
        """
        rng = np.random.default_rng(17)
        lyap = vsq()
        for _ in range(200):
            c = float(rng.uniform(0.01, 100.0))
            scaled = quadratic_lyapunov(c * np.eye(2))
            x = rng.normal(size=2)
            h = float(rng.uniform(0.05, 1.2))
            if abs(h - 0.5) < 1e-6:
                continue
            a = decrease_test(lyap, EULER, spiral(), x, h, 0.5)
            b = decrease_test(scaled, EULER, spiral(), x, h, 0.5)
            assert a.accepted == b.accepted


class TestHalvingController:
    def test_halves_once_from_point_eight(self):
        cert = halving_controller(vsq(), EULER, spiral(),
                                  np.array([1.0, 0.0]), 0.8, 0.5)
        assert cert.accepted
        assert cert.h == 0.4
        assert cert.halvings == 1

    def test_immediate_accept_keeps_step(self):
        cert = halving_controller(vsq(), EULER, spiral(),
                                  np.array([0.3, -0.1]), 0.25, 0.5)
        assert cert.h == 0.25
        assert cert.halvings == 0

    def test_exhaustion_raises(self):
        # Euler on x' = +x grows V = x^2 at every positive step, so no
        # amount of halving finds an accepted one.
        grow = linear_field(np.array([[1.0]]))
        with pytest.raises(ControllerError):
            halving_controller(quadratic_lyapunov(np.eye(1)), EULER, grow,
                               np.array([1.0]), 1.0, 0.5)

    def test_exhaustion_after_exactly_41_tests(self, monkeypatch):
        # h_init and its 40 halvings are each tested once, down to
        # h_init * 2^-40, and then the controller gives up
        tested = []

        def counting(*args, **kwargs):
            tested.append(args[4])
            return decrease_test(*args, **kwargs)

        monkeypatch.setattr(lyapunov, "decrease_test", counting)
        grow = linear_field(np.array([[1.0]]))
        with pytest.raises(ControllerError, match="after 40 halvings"):
            halving_controller(quadratic_lyapunov(np.eye(1)), EULER, grow,
                               np.array([1.0]), 0.75, 0.5)
        assert len(tested) == 41
        assert tested[-1] == 0.75 * 2.0 ** -40

    @pytest.mark.parametrize("h_init", [math.nan, math.inf])
    def test_non_finite_h_init_refused(self, h_init):
        # refused before the first decrease test, not after 41 of them
        with pytest.raises(ConfigurationError, match="positive and finite"):
            halving_controller(vsq(), EULER, spiral(), np.array([1.0, 0.0]),
                               h_init, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_refused(self, bad, monkeypatch):
        # once 41 decrease tests and then "no accepted step after 40
        # halvings", which names the wrong cause
        monkeypatch.setattr(lyapunov, "decrease_test", None)
        x = np.array([bad, 1.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConfigurationError, match="x must be finite"):
                halving_controller(vsq(), EULER, spiral(), x, 1.0, 0.5)
            with pytest.raises(ConfigurationError, match="x must be finite"):
                HalvingController(vsq(), EULER, spiral(), lam=0.5,
                                  h_init=1.0)(x, 0.0)

    def test_sound_after_halving(self):
        """Whenever the controller halves, the doubled step must fail."""
        rng = np.random.default_rng(3)
        lyap = vsq()
        f = spiral()
        for _ in range(50):
            x = rng.normal(size=2) * rng.uniform(0.2, 5.0)
            h0 = float(rng.uniform(0.3, 3.0))
            cert = halving_controller(lyap, EULER, f, x, h0, 0.5)
            again = decrease_test(lyap, EULER, f, x, cert.h, 0.5)
            assert again.accepted
            if cert.halvings:
                doubled = decrease_test(lyap, EULER, f, x, 2 * cert.h, 0.5)
                assert not doubled.accepted


class TestCurvatureBounds:
    def test_scalar_unit_bound(self):
        # f = -x, V = x^2: q = 2x^2 exactly (constant Hessian), so
        # phi = 2 (1 - lam) w / q = 1 at lam = 1/2.
        f = linear_field(np.array([[-1.0]]))
        lyap = quadratic_lyapunov(np.eye(1))
        phi = euler_q_phi(lyap, f, np.array([3.0]), 0.5, 10.0)
        assert phi == pytest.approx(1.0)

    @pytest.mark.parametrize("lyap", [
        pytest.param(QUARTIC, id="quartic"),
        pytest.param(replace(quadratic_lyapunov(np.eye(2)), hess=None),
                     id="no-hess")])
    def test_hessian_not_declared_constant_is_refused(self, lyap):
        # the law reads H_V once, at x, as its bound over the whole step;
        # for a Hessian that varies along the ray that is no bound
        field = spiral()
        x = np.array([1.0, -0.5])
        with pytest.raises(ConfigurationError, match="hess_constant"):
            euler_q_phi(lyap, field, x, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="hess_constant"):
            EulerQController(lyap, field, lam=0.5, r=1.0)(x, 0.0)

    @pytest.mark.parametrize("lam", [1.5, 5.0, math.nan, 0.0, -0.5])
    def test_lam_outside_the_unit_interval_is_refused(self, lam):
        # once -0.488 for lam = 1.5, NaN for NaN, a step for 0, and for
        # EulerQController(lam=5) "decrease test needs h > 0"
        x = np.array([1.0, -0.5])
        with pytest.raises(ConfigurationError, match="lam"):
            euler_q_phi(vsq(), spiral(), x, lam, 1.0)
        with pytest.raises(ConfigurationError, match="lam"):
            EulerQController(vsq(), spiral(), lam=lam, r=1.0)(x, 0.0)

    def test_positive_lie_derivative_rejected(self):
        grow = linear_field(np.array([[1.0]]))
        with pytest.raises(ConfigurationError):
            euler_q_phi(quadratic_lyapunov(np.eye(1)), grow,
                        np.array([1.0]), 0.5, 1.0)

    def test_origin_returns_cap(self):
        phi = euler_q_phi(vsq(), spiral(), np.zeros(2), 0.5, 2.5)
        assert phi == 2.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lie_derivative_is_refused(self, bad):
        # past the sign test, a NaN or infinite grad V . f gives a NaN step
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConfigurationError, match="grad V . f at x"):
                euler_q_phi(vsq(), spiral(), np.array([bad, 1.0]), 0.5, 1.0)
            with pytest.raises(ConfigurationError, match="grad V . f at x"):
                EulerQController(vsq(), spiral(), lam=0.5,
                                 r=1.0)(np.array([1.0, bad]), 0.0)

    @pytest.mark.parametrize("law, r", [
        pytest.param(law, r, id=str(r) if law == "euler_q_phi"
                     else f"{law}-{r}")
        for law in ("euler_q_phi", "linear_phi")
        for r in (math.nan, math.inf, 0.0, -1.0)])
    def test_cap_must_be_positive_and_finite(self, law, r):
        # min(h, nan) is h: a NaN cap would silently mean no cap at all
        x = np.array([1.0, 1.0])
        with pytest.raises(ConfigurationError, match="positive and finite"):
            if law == "linear_phi":
                linear_phi(M1, np.eye(2), x, 0.5, r)
            else:
                euler_q_phi(vsq(), spiral(), x, 0.5, r)


class TestLinearPhi:
    def test_stiff_second_axis(self):
        phi = linear_phi(STIFF, np.eye(2) / 2, np.array([0.0, 1.0]),
                         0.6, 1.0)
        assert phi == pytest.approx(0.8)

    def test_stiff_first_axis(self):
        phi = linear_phi(STIFF, np.eye(2) / 2, np.array([2.0, 0.0]),
                         0.6, 1.0)
        assert phi == pytest.approx(800.0 / 1000001.0, rel=1e-12)

    def test_identity_decay(self):
        phi = linear_phi(-np.eye(2), np.eye(2) / 2,
                         np.array([3.0, 4.0]), 0.5, 10.0)
        assert phi == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_is_refused(self, bad):
        # unrefused, a non-finite x gives a NaN step
        for x in (np.array([bad, 1.0]), np.array([0.0, bad])):
            with pytest.raises(ConfigurationError, match="state x"):
                linear_phi(STIFF, np.eye(2) / 2, x, 0.6, 1.0)

    def test_agrees_with_curvature_forms(self):
        lyap = quadratic_lyapunov(np.eye(2) / 2)
        f = linear_field(STIFF)
        rng = np.random.default_rng(21)
        for _ in range(25):
            x = rng.normal(size=2)
            a = linear_phi(STIFF, np.eye(2) / 2, x, 0.6, 1e6)
            b = euler_q_phi(lyap, f, x, 0.6, 1e6)
            assert a == pytest.approx(b, rel=1e-12)


class TestCertification:
    def test_certified_run_decays_exponentially(self):
        # V_{i+1} <= V_i (1 - 2 lam h_i) <= V_i exp(-2 lam h_i), hence
        # |x(tau)| <= |x0| exp(-lam tau) at the nodes.
        f = spiral()
        lyap = vsq()
        lam = 0.5
        ctrl = HalvingController(lyap, EULER, f, lam=lam, h_init=0.45)
        traj = advance(EULER, f, ctrl, np.array([2.0, -1.0]), t_end=8.0)
        report = certify_trajectory(lyap, traj, lam, field=f)
        assert report.ok
        norms = np.linalg.norm(traj.states, axis=1)
        bound = np.linalg.norm([2.0, -1.0]) * np.exp(-lam * traj.tau)
        assert np.all(norms <= bound * (1 + 1e-9))

    def test_corrupted_state_detected(self):
        f = spiral()
        lyap = vsq()
        ctrl = HalvingController(lyap, EULER, f, lam=0.5, h_init=0.4)
        traj = advance(EULER, f, ctrl, np.array([1.0, 1.0]), t_end=3.0)
        tampered = traj.states.copy()
        tampered[-1] *= 10.0
        bad = type(traj)(tau=traj.tau, states=tampered, steps=traj.steps)
        report = certify_trajectory(lyap, bad, 0.5, field=f)
        assert not report.ok
        # one row per step; the step INTO the tampered node is flagged
        assert report.first_violation == bad.steps.size - 1

    def test_report_csv_layout(self, tmp_path):
        f = spiral()
        lyap = vsq()
        ctrl = HalvingController(lyap, EULER, f, lam=0.5, h_init=0.4)
        traj = advance(EULER, f, ctrl, np.array([1.0, 0.0]), t_end=1.0)
        report = certify_trajectory(lyap, traj, 0.5, field=f)
        path = tmp_path / "cert.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,tau,V,threshold,accepted,halvings"
        assert len(lines) == traj.steps.size + 1

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0, math.nan])
    def test_audit_refuses_lam_outside_the_unit_interval(self, lam):
        # with lam = -1 the threshold V + lam h grad V . f = 1 + 2 admits
        # the growth of V = x^2 from 1 to 2.25 under f = -x
        traj = HybridTrajectory(tau=[0.0, 1.0], states=[[1.0], [1.5]],
                                steps=[1.0])
        with pytest.raises(ConfigurationError, match="lam must lie in"):
            certify_trajectory(quadratic_lyapunov(np.eye(1)), traj, lam,
                               field=linear_field(np.array([[-1.0]])))


class TestControllers:
    def test_euler_q_controller_attaches_certs(self):
        f = spiral()
        ctrl = EulerQController(vsq(), f, lam=0.5, r=1.0)
        traj = advance(EULER, f, ctrl, np.array([1.0, 0.0]), t_end=4.0)
        assert traj.steps.size and traj.lhs.size == traj.steps.size
        assert all(map(within_slack, traj.lhs, traj.rhs))

    def test_linear_quadratic_controller_matches_formula(self):
        ctrl = LinearQuadraticController(STIFF, np.eye(2) / 2,
                                         lam=0.6, r=1.0)
        h = ctrl(np.array([0.0, 1.0]), 0.0)
        assert h == pytest.approx(0.8)


def counting_field(a):
    """Linear field x' = Ax whose f counts its calls in calls[0]."""
    a = np.asarray(a, dtype=float)
    calls = [0]

    def f(x):
        calls[0] += 1
        return a @ x

    return VectorField(dim=a.shape[0], f=f), calls


class TestStepReuse:
    """advance takes the state a certificate tested, and only that one."""

    A = np.array([[-1.0, 3.0], [-3.0, -1.0]])
    X0 = np.array([1.0, 0.5])

    @staticmethod
    def decrease_tests(traj):
        return int(traj.halvings.sum()) + traj.steps.size

    def assert_steps_are(self, traj, tableau, field):
        for i in range(traj.steps.size):
            x, h = traj.states[i], float(traj.steps[i])
            expected = x + h * rk_increment(tableau, field, x, h)
            assert np.array_equal(traj.states[i + 1], expected)

    def test_one_increment_per_decrease_test(self):
        # a halving call evaluates f(x) once, for grad V . f and for every
        # Euler increment it tests; advance adds no call of its own
        f, calls = counting_field(self.A)
        ctrl = HalvingController(vsq(), EULER, f, lam=0.5, h_init=1.0)
        traj = advance(EULER, f, ctrl, self.X0, t_end=3.0)
        assert self.decrease_tests(traj) > traj.steps.size
        assert calls[0] == traj.steps.size

    def test_shrunk_step_is_recomputed(self):
        f, calls = counting_field(self.A)
        ctrl = HalvingController(vsq(), EULER, f, lam=0.5, h_init=1.0)
        traj = advance(EULER, f, ctrl, self.X0, t_end=3.0,
                       u_input=lambda t: 0.3)
        assert calls[0] == 2 * traj.steps.size
        self.assert_steps_are(traj, EULER, f)

    def test_other_tableau_is_refused(self):
        # RK4 certificates next to Euler steps: none of them would match
        # its recorded state, and the audit would reject the first row
        f2 = PLANAR["f2"]
        ctrl = HalvingController(f2.lyap, RK4, f2.field, lam=0.5, h_init=4.0)
        with pytest.raises(ConfigurationError,
                           match="tau=0.0 .* another tableau or field"):
            advance(EULER, f2.field, ctrl, np.array([0.9, 0.3]), t_end=50.0)

    def test_other_field_object_is_refused(self):
        f, _ = counting_field(self.A)
        twin = VectorField(dim=f.dim, f=f.f)
        ctrl = HalvingController(vsq(), EULER, twin, lam=0.5, h_init=1.0)
        with pytest.raises(ConfigurationError,
                           match="tau=0.0 .* another tableau or field"):
            advance(EULER, f, ctrl, self.X0, t_end=3.0)

    def test_certificate_of_another_state_is_refused(self):
        # the controller always tests x0: its first certificate holds, for
        # the run's copy of x0; the second would record x0's lhs and rhs
        # next to a state that has moved on
        f = spiral()
        x0 = np.array([0.6, -0.3])
        c = HalvingController(vsq(), RK4, f, lam=0.5, h_init=1.0)
        with pytest.raises(ConfigurationError,
                           match=r"tau=0\.5 tested another state"):
            advance(RK4, f, lambda x, tau, *l: c(x0, tau), x0, t_end=2.0)
        traj = advance(RK4, f, lambda x, tau, *l: c(x0, tau), x0, t_end=2.0,
                       max_steps=1)
        assert traj.steps.tolist() == [0.5]


@st.composite
def hurwitz_problems(draw):
    """(A, P, x0): a Hurwitz A, P solving A'P + PA = -I, and x0 != 0."""
    dim = draw(st.integers(2, 4))
    m = draw(hnp.arrays(np.float64, (dim, dim),
                        elements=st.floats(-1.0, 1.0)))
    margin = draw(st.floats(0.25, 1.5))
    x0 = draw(hnp.arrays(np.float64, dim, elements=st.floats(-2.0, 2.0)))
    assume(float(np.linalg.norm(x0)) > 0.1)
    a = m - (float(np.max(np.linalg.eigvals(m).real)) + margin) * np.eye(dim)
    p = solve_continuous_lyapunov(a.T, -np.eye(dim))
    return a, 0.5 * (p + p.T), x0


PLANAR = example_fields()


@st.composite
def certified_problems(draw):
    """(field, lyap, x0): a Hurwitz A with V = x'Px, or a planar system."""
    if draw(st.booleans()):
        a, p, x0 = draw(hurwitz_problems())
        return linear_field(a), quadratic_lyapunov(p), x0
    sysd = PLANAR[draw(st.sampled_from(sorted(PLANAR)))]
    x0 = draw(hnp.arrays(np.float64, 2, elements=st.floats(-1.5, 1.5)))
    assume(float(np.linalg.norm(x0)) > 0.1)
    return sysd.field, sysd.lyap, x0


def counted(counts: Counter, key: str, fn):
    """fn, adding one to counts[key] on every call."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestStateTermsHandOff:
    """Controllers evaluate f(x) and grad V . f once per call, and V once
    at a run's first node and once per decrease test: V at every later
    node is the lhs of the certificate that chose it.  Each decrease test
    builds one certificate, and the certificates equal those of plain
    decrease tests, bit for bit.  lam and h_init are not powers of two, so
    products round."""

    LAM, H_INIT = 0.6, 0.9

    def plain_halving(self, lyap, tab, field, x):
        h = self.H_INIT
        for k in range(41):
            cert = decrease_test(lyap, tab, field, x, h, self.LAM)
            if cert.accepted:
                return cert, k
            h *= 0.5
        raise AssertionError("no accepted step")

    def plain_euler_q(self, lyap, field, x):
        h = euler_q_phi(lyap, field, x, self.LAM, self.H_INIT)
        return decrease_test(lyap, EULER, field, x, h, self.LAM), 0

    @staticmethod
    def assert_same(cert, plain, halvings):
        assert cert.h.hex() == plain.h.hex()
        assert cert.lhs.hex() == plain.lhs.hex()
        assert cert.rhs.hex() == plain.rhs.hex()
        assert np.array_equal(cert.x_next, plain.x_next)
        assert cert.halvings == halvings

    @settings(max_examples=40, deadline=None)
    @given(certified_problems())
    def test_certificates_and_field_calls(self, problem):
        field, lyap, x0 = problem
        work = Counter()

        def certificate(*args):
            cert = DecreaseCertificate(*args)
            work["certificates"] += 1
            work["stage solved"] += cert.x_next is not None  # V(x_next) ran
            return cert

        counted_field = replace(field, f=counted(work, "f", field.f))
        counted_lyap = replace(lyap, v=counted(work, "V", lyap.v))
        lam, h_init = self.LAM, self.H_INIT
        runs = [(tab, HalvingController(counted_lyap, tab, counted_field,
                                        lam, h_init))
                for tab in (EULER, HEUN, RK4, IMPLICIT_EULER)]
        runs.append((None, EulerQController(counted_lyap, counted_field,
                                            lam, h_init)))
        for tab, ctrl in runs:
            costs, certs = [], []

            def costed(x, tau, *last):
                before = work.copy()
                cert = ctrl(x, tau, *last)
                costs.append(work - before)
                certs.append(cert)
                return cert

            with mock.patch.object(lyapunov, "DecreaseCertificate",
                                   certificate), \
                    mock.patch.object(lyapunov, "decrease_test",
                                      counted(work, "tests",
                                              lyapunov.decrease_test)):
                traj = advance(tab or EULER, counted_field, costed, x0,
                               t_end=5.0, max_steps=20)
            for i, (x, cert, cost) in enumerate(zip(
                    traj.states, certs, costs)):
                first = int(i == 0)
                assert cost["certificates"] == cost["tests"]
                assert cost["V"] == first + cost["stage solved"]
                if tab is None:
                    self.assert_same(cert, *self.plain_euler_q(lyap, field, x))
                    assert cost["f"] == 1 and cost["tests"] == 1
                    continue
                self.assert_same(cert,
                                 *self.plain_halving(lyap, tab, field, x))
                tests = cert.halvings + 1
                assert cost["tests"] == tests
                if tab.explicit:
                    assert cost["f"] == 1 + (tab.stages - 1) * tests
                    assert cost["V"] == first + tests

    def test_x_next_is_read_only(self):
        cert = halving_controller(vsq(), RK4, spiral(), np.array([1.0, 0.5]),
                                  0.9, 0.6)
        with pytest.raises(ValueError, match="read-only"):
            cert.x_next[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            cert.x_next *= 2.0

    @pytest.mark.parametrize("make", [
        lambda lyap, f: HalvingController(lyap, HEUN, f, 0.6, 0.9),
        lambda lyap, f: EulerQController(lyap, f, 0.6, 0.9),
    ], ids=["halving", "euler-q"])
    def test_a_copy_of_x_next_gets_v_evaluated(self, make):
        work = Counter()
        lyap = vsq()
        ctrl = make(replace(lyap, v=counted(work, "V", lyap.v)), spiral())
        cert = ctrl(np.array([1.0, 0.5]), 0.0)
        # handed the last certificate, V runs only in the decrease tests;
        # without it, once more, at x
        for evaluated in (0, 1, 0):
            x = cert.x_next
            work.clear()
            cert = ctrl(x, 0.0) if evaluated else ctrl(x, 0.0, cert)
            assert work["V"] == evaluated + cert.halvings + 1
            assert cert.rhs == decrease_test(lyap, cert.tableau, spiral(), x,
                                             cert.h, 0.6).rhs


class TestCertificateMatchesAudit:
    """Each step's certificate columns agree exactly with the re-audit's
    row."""

    @staticmethod
    def controllers(lyap, field):
        for tab in (EULER, HEUN, IMPLICIT_EULER):
            yield tab, HalvingController(lyap, tab, field, lam=0.5, h_init=1.0)
        yield EULER, EulerQController(lyap, field, lam=0.5, r=1.0)

    @settings(max_examples=25, deadline=None)
    @given(hurwitz_problems())
    def test_every_step(self, problem):
        a, p, x0 = problem
        field, lyap = linear_field(a), quadratic_lyapunov(p)
        for tab, ctrl in self.controllers(lyap, field):
            traj = advance(tab, field, ctrl, x0, t_end=5.0, max_steps=5000)
            report = certify_trajectory(lyap, traj, 0.5, field=field)
            assert traj.lhs.size == len(report.rows)
            for i, row in enumerate(report.rows):
                _, _, _, threshold, accepted, halvings = row
                assert traj.rhs[i] == threshold
                assert traj.lhs[i] == lyap(traj.states[i + 1])
                assert traj.halvings[i] == halvings
                assert within_slack(traj.lhs[i], traj.rhs[i]) == accepted


class TestCertificateColumns:
    """advance copies h, lhs, rhs and halvings from each step's
    certificate, bit for bit, and keeps no certificate."""

    @staticmethod
    def capturing(ctrl, certs):
        """ctrl, appending every certificate it returns to certs."""
        def wrapped(x, tau, *last):
            cert = ctrl(x, tau, *last)
            certs.append(cert)
            return cert
        return wrapped

    @settings(max_examples=20, deadline=None)
    @given(hurwitz_problems())
    def test_columns_are_the_certificates(self, problem):
        a, p, x0 = problem
        field, lyap = linear_field(a), quadratic_lyapunov(p)
        runs = [(tab, HalvingController(lyap, tab, field, 0.6, 0.9))
                for tab in (EULER, HEUN, RK4, IMPLICIT_EULER)]
        runs.append((EULER, EulerQController(lyap, field, 0.6, 0.9)))
        for tab, ctrl in runs:
            certs = []
            traj = advance(tab, field, self.capturing(ctrl, certs), x0,
                           t_end=5.0, max_steps=2000)
            assert len(certs) == traj.steps.size > 0
            for name in ("h", "lhs", "rhs"):
                assert [v.hex() for v in getattr(traj, name).tolist()] \
                    == [getattr(c, name).hex() for c in certs]
            assert traj.halvings.tolist() == [c.halvings for c in certs]
            # the audit's rows: those of the bare trajectory, with the
            # certificates' halving counts
            report = certify_trajectory(lyap, traj, 0.6, field=field)
            bare = certify_trajectory(
                lyap, HybridTrajectory(traj.tau, traj.states, traj.steps),
                0.6, field=field)
            assert report.rows == tuple(row[:5] + (c.halvings,)
                                        for row, c in zip(bare.rows, certs))

    def test_no_certificate_is_reachable(self):
        f = spiral()
        for tab, ctrl in ((RK4, HalvingController(vsq(), RK4, f, 0.5, 1.0)),
                          (EULER, EulerQController(vsq(), f, 0.5, 1.0))):
            traj = advance(tab, f, ctrl, np.array([1.0, 0.5]), t_end=3.0)
            assert traj.steps.size
            # classes and modules lead to every live object, so stop at them
            seen, todo = set(), [traj, ctrl]
            while todo:
                obj = todo.pop()
                if id(obj) in seen or isinstance(obj, (type, type(gc))):
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, DecreaseCertificate)
                todo.extend(gc.get_referents(obj))
            assert len(seen) > 5

    def test_a_controller_keeps_no_run_state(self):
        f = spiral()
        x0s = (np.array([1.0, 0.5]), np.array([-0.3, 2.0]))
        for make, tab in (
                (lambda: HalvingController(vsq(), HEUN, f, 0.6, 0.9), HEUN),
                (lambda: EulerQController(vsq(), f, 0.6, 0.9), EULER)):
            shared = make()
            for x0 in x0s:
                again = advance(tab, f, shared, x0, t_end=3.0)
                fresh = advance(tab, f, make(), x0, t_end=3.0)
                for name in ("tau", "states", "steps", "h", "lhs", "rhs",
                             "halvings"):
                    assert np.array_equal(getattr(again, name),
                                          getattr(fresh, name))
            with pytest.raises(FrozenInstanceError):
                shared.lam = 0.5

    @pytest.mark.parametrize("certified_first", [True, False])
    def test_a_mixed_run_is_refused(self, certified_first):
        f = spiral()
        ctrl = HalvingController(vsq(), EULER, f, lam=0.5, h_init=1.0)
        taus = []

        def mixed(x, tau, *last):
            taus.append(tau)
            cert = ctrl(x, tau, *last)
            return cert if (len(taus) == 1) == certified_first else cert.h

        with pytest.raises(ConfigurationError) as err:
            advance(EULER, f, mixed, np.array([1.0, 0.5]), t_end=3.0)
        assert len(taus) == 2
        assert f"at tau={taus[1]} " in str(err.value)


class TestExactClock:
    """tau[i+1] == tau[i] + h[i] bit for bit, and h[i] is the controller's
    base step times exp(-u(tau[i])), under any controller and input."""

    @settings(max_examples=15, deadline=None)
    @given(hurwitz_problems(), st.sampled_from([EULER, HEUN, IMPLICIT_EULER]),
           st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 10.0))
    def test_clock(self, problem, tab, frac, u_amp, u_freq):
        a, p, x0 = problem
        field, lyap = linear_field(a), quadratic_lyapunov(p)
        # |1 + h lam| <= 1 + h|A| keeps constant-step Euler finite to t = 3
        h = frac / float(np.linalg.norm(a, 2))

        def u(tau):
            return u_amp * (1.0 + math.sin(u_freq * tau))

        for ctrl in (ConstantController(h),
                     HalvingController(lyap, tab, field, lam=0.5, h_init=h)):
            traj = advance(tab, field, ctrl, x0, t_end=3.0, u_input=u,
                           max_steps=200)
            assert np.array_equal(traj.tau[1:], traj.tau[:-1] + traj.steps)
            bases = ([h] * traj.steps.size if traj.h is None
                     else traj.h.tolist())
            assert traj.steps.tolist() == [
                base * math.exp(-u(tau))
                for base, tau in zip(bases, traj.tau.tolist())]


class TestConvexDecrease:
    """Implicit Euler decreases a convex V paired with its field, at every
    step size."""

    @settings(max_examples=30, deadline=None)
    @given(hurwitz_problems(), st.floats(-3.0, 3.0))
    def test_every_h(self, problem, log_h):
        a, p, x0 = problem
        lyap = quadratic_lyapunov(p)
        y = implicit_euler_step(linear_field(a), x0, 10.0 ** log_h)
        assert within_slack(lyap(y), lyap(x0))


class TestEulerLawAgreement:
    """On x' = Ax with V = x'Px the closed-form and the curvature step
    laws are the same number, up to roundoff."""

    @settings(max_examples=50, deadline=None)
    @given(hurwitz_problems(), st.floats(0.05, 0.95))
    def test_two_laws(self, problem, lam):
        a, p, x = problem
        field, lyap = linear_field(a), quadratic_lyapunov(p)
        laws = (linear_phi(a, p, x, lam, 1e9),
                euler_q_phi(lyap, field, x, lam, 1e9))
        assert max(laws) - min(laws) <= 1e-12 * max(laws)
