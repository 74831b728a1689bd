"""Decrease-test step controllers and trajectory certification.

A step h at state x is accepted when

    V(x + h F(h, x)) <= V(x) + lam * h * grad V(x) . f(x)

for a decrease fraction lam in (0, 1).  Controllers either search for such an
h by halving or compute one directly from curvature information (explicit
Euler with a Hessian, linear systems with quadratic V).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    ButcherTableau,
    ConfigurationError,
    ControllerError,
    EULER,
    HybridTrajectory,
    StageSolveError,
    VectorField,
    _unit_ball_points,
    reference_solve,
    rk_increment,
    write_csv,
)

_SLACK = 1e-15
_H_SAMPLES = 33  # grid points of the curvature maximum over h in [0, r]
_MAX_HALVINGS = 40


def within_slack(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the relative roundoff slack that every decrease and
    convexity check in the package shares; a NaN on either side fails."""
    return lhs <= rhs + _SLACK * max(1.0, abs(rhs))


@dataclass(frozen=True)
class LyapunovFunction:
    """Positive definite V with its gradient and optional curvature data.

    convex declares V convex, which implicit Euler's unconditional decrease
    needs.  hess_constant declares that hess returns the same matrix at
    every x, so curvature bounds evaluate it once instead of on a grid.
    V carries no field: every decrease threshold takes grad V(x) . f(x)
    from the field it is paired with.
    """

    v: Callable[[Array], float]
    grad: Callable[[Array], Array]
    hess: Optional[Callable[[Array], Array]] = None
    convex: bool = False
    hess_constant: bool = False

    def __call__(self, x: Array) -> float:
        return float(self.v(np.asarray(x, dtype=float)))

    def gradient(self, x: Array) -> Array:
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)


def quadratic_lyapunov(p: Array) -> LyapunovFunction:
    """V(x) = x' P x for symmetric positive semidefinite P."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ConfigurationError("P must be a square matrix")
    if not np.allclose(p, p.T, atol=1e-12):
        raise ConfigurationError("P must be symmetric")
    convex = bool(np.all(np.linalg.eigvalsh(p) >= -1e-12))
    return LyapunovFunction(
        v=lambda x: float(x @ p @ x),
        grad=lambda x: 2.0 * (p @ x),
        hess=lambda x: 2.0 * p,
        convex=convex,
        hess_constant=True,
    )


@dataclass(frozen=True)
class DecreaseCertificate:
    """Outcome of one decrease test; `accepted` compares lhs against rhs
    with a relative roundoff slack so exact boundary steps pass.

    x_next is the state x + h F(h, x) whose V is lhs, and tableau and field
    are the scheme it was computed under; core.advance takes x_next as the
    next state when it realizes this very step.  All three are None when
    the stage solve failed, and none of them shows in repr or equality.
    """

    x: Array
    h: float
    lhs: float
    rhs: float
    accepted: bool
    halvings: int = 0
    reason: str = ""
    x_next: Optional[Array] = _field(default=None, repr=False, compare=False)
    tableau: Optional[ButcherTableau] = _field(default=None, repr=False,
                                               compare=False)
    field: Optional[VectorField] = _field(default=None, repr=False,
                                          compare=False)


def _lie_derivative(lyap: LyapunovFunction, field: VectorField, x: Array) -> float:
    return float(lyap.gradient(x) @ field(x))


def decrease_test(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    h: float,
    lam: float,
) -> DecreaseCertificate:
    """Evaluate the Lyapunov decrease condition for one candidate step.

    A stage-solve failure (implicit tableau, step too large) is reported as
    a rejection with the reason recorded, not an exception.
    """
    if h <= 0:
        raise ConfigurationError("decrease test needs h > 0")
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lam must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    rhs = lyap(x) + lam * h * _lie_derivative(lyap, field, x)
    try:
        incr = rk_increment(tableau, field, x, h)
    except StageSolveError as exc:
        return DecreaseCertificate(
            x=x, h=h, lhs=float("nan"), rhs=rhs, accepted=False, reason=str(exc)
        )
    x_next = x + h * incr
    lhs = lyap(x_next)
    accepted = within_slack(lhs, rhs)
    return DecreaseCertificate(x=x, h=h, lhs=lhs, rhs=rhs, accepted=accepted,
                               x_next=x_next, tableau=tableau, field=field)


def halving_controller(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    h_init: float,
    lam: float,
) -> DecreaseCertificate:
    """First accepted step in {h_init, h_init/2, ...} with its halving count.

    Rejecting all of h_init, ..., h_init / 2^40 raises ControllerError:
    either h_init was absurdly large or the Lyapunov pairing is invalid
    near x.
    """
    if h_init <= 0:
        raise ConfigurationError("h_init must be positive")
    h = float(h_init)
    for k in range(_MAX_HALVINGS + 1):
        cert = decrease_test(lyap, tableau, field, x, h, lam)
        if cert.accepted:
            return replace(cert, halvings=k)
        h *= 0.5
    raise ControllerError(
        f"no accepted step after {_MAX_HALVINGS} halvings from h={h_init}"
    )


# ---------------------------------------------------------------------------
# direct step formulas for the explicit Euler scheme


def _curvature_grid(
    lyap: LyapunovFunction, field: VectorField, x: Array, r: float
) -> float:
    """max over h in [0, r] of f(x)' H_V(x + h f(x)) f(x), grid-sampled.

    Inflated by 5% unless every sampled value coincides (constant Hessian
    along the ray), in which case the grid maximum is exact.  A V declared
    hess_constant gets that exact value from a single evaluation.
    """
    if lyap.hess is None:
        raise ConfigurationError("Hessian required for curvature step bounds")
    fx = field(x)
    if lyap.hess_constant:
        return float(fx @ np.asarray(lyap.hess(x), dtype=float) @ fx)
    vals = np.empty(_H_SAMPLES)
    for j in range(_H_SAMPLES):
        hj = r * j / (_H_SAMPLES - 1)
        vals[j] = fx @ np.asarray(lyap.hess(x + hj * fx), dtype=float) @ fx
    top = float(np.max(vals))
    if float(np.min(vals)) == top:
        return top
    return 1.05 * top


def euler_q_phi(
    lyap: LyapunovFunction,
    field: VectorField,
    x: Array,
    lam: float,
    r: float,
) -> float:
    """Largest explicit-Euler step passing the decrease test by curvature.

    With q(x) the max of f' H_V(x + h f) f over h in [0, r], any
    h <= -2(1-lam) grad V . f / q(x) is accepted; nonpositive q means no
    curvature obstruction and the cap r is returned.
    """
    x = np.asarray(x, dtype=float)
    w = _lie_derivative(lyap, field, x)
    if w >= 0.0:
        if w == 0.0 and float(np.linalg.norm(field(x))) == 0.0:
            return r
        raise ConfigurationError("grad V . f must be negative away from 0")
    q = _curvature_grid(lyap, field, x, r)
    if q <= 0.0:
        return r
    return min(2.0 * (1.0 - lam) * (-w) / q, r)


def k1_bound_euler(
    lyap: LyapunovFunction,
    field: VectorField,
    x: Array,
    r: float,
) -> float:
    """Half the grid maximum of f' H_V(x + h f) f over h in [0, r].

    Dominates the second-order term of V(x + hf) - V(x) - h grad V . f;
    exact for constant Hessians, otherwise 5%-inflated.
    """
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(field(x))) == 0.0:
        return 0.0
    return 0.5 * _curvature_grid(lyap, field, x, r)


def k1_phi(
    lyap: LyapunovFunction,
    field: VectorField,
    x: Array,
    lam: float,
    r: float,
) -> float:
    """Explicit-Euler step from the quadratic remainder bound K_1."""
    x = np.asarray(x, dtype=float)
    w = _lie_derivative(lyap, field, x)
    if w >= 0.0:
        if w == 0.0 and float(np.linalg.norm(field(x))) == 0.0:
            return r
        raise ConfigurationError("grad V . f must be negative away from 0")
    k1 = k1_bound_euler(lyap, field, x, r)
    if k1 <= 0.0:
        return r
    return min((1.0 - lam) * (-w) / k1, r)


def linear_phi(a: Array, p: Array, x: Array, lam: float, r: float) -> float:
    """Explicit-Euler step for x' = Ax with V = x'Px, in closed form.

    Requires the decrease direction x'(A'P + PA)x < 0 at the given x; a zero
    denominator (Ax = 0) imposes no restriction and returns r.
    """
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x)) == 0.0:
        return r
    ax = a @ x
    num = float(x @ (a.T @ p + p @ a) @ x)
    den = float(ax @ p @ ax)
    if num >= 0.0:
        raise ConfigurationError("x'(A'P+PA)x must be negative: A not Hurwitz "
                                 "for this P, or x in a bad direction")
    if den <= 0.0:
        return r
    return min(-(1.0 - lam) * num / den, r)


def order_p_phi(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    lam: float,
    r: float,
) -> float:
    """Sampled order-p step bound for a general tableau.  Not certified.

    Writes x + hF(h,x) = z(h,x) - h*d(h,x) for the defect d and accepts h
    once the Lipschitz error term l_V * C * h^{p+1} is dominated by the
    flow decrease (1-lam) * h * W(x).  C is estimated from a 9-point defect
    grid against the reference flow, l_V from 32 gradient samples on a ball.
    """
    x = np.asarray(x, dtype=float)
    w = -_lie_derivative(lyap, field, x)
    if w <= 0.0:
        raise ConfigurationError("flow decrease rate must be positive at x")
    p = tableau.order
    c_est = 0.0
    for j in range(1, 10):
        hj = r * j / 9
        try:
            incr = rk_increment(tableau, field, x, hj)
        except StageSolveError:
            continue
        z = reference_solve(field, x, hj, 1e-12).final_state
        c_est = max(c_est, float(np.linalg.norm(z - x - hj * incr)) / hj ** (p + 1))
    if c_est == 0.0:
        return r
    c_est *= 2.0
    radius = max(float(np.linalg.norm(x)), 1.0)
    pts = x + radius * _unit_ball_points(field.dim, 32)
    l_v = max(float(np.linalg.norm(lyap.gradient(pt))) for pt in pts)
    l_v = max(1.5 * l_v, 1e-30)
    return min(((1.0 - lam) * w / (l_v * c_est)) ** (1.0 / p), r)


# ---------------------------------------------------------------------------
# trajectory certification


@dataclass(frozen=True)
class CertificationReport:
    """Per-step decrease audit of a finished trajectory."""

    ok: bool
    rows: tuple
    first_violation: Optional[int] = None

    def to_csv(self, path) -> None:
        write_csv(path, ("i", "tau", "V", "threshold", "accepted", "halvings"),
                  self.rows)


def certify_trajectory(
    lyap: LyapunovFunction,
    traj: HybridTrajectory,
    lam: float,
    field: VectorField,
) -> CertificationReport:
    """Re-check the decrease condition at every recorded step.

    Each threshold is V(x) + lam * h * grad V(x) . f(x), the one
    decrease_test compares against.  Halving counts are copied from the
    trajectory's certificates when present.
    """
    rows = []
    first_violation = None
    ok = True
    v_next = lyap(traj.states[0])  # each row's V(x_{i+1}) is the next V(x_i)
    for i in range(traj.steps.size):
        x = traj.states[i]
        h = float(traj.steps[i])
        v_here = v_next
        threshold = v_here + lam * h * _lie_derivative(lyap, field, x)
        v_next = lyap(traj.states[i + 1])
        accepted = within_slack(v_next, threshold)
        halv = 0
        if traj.certificates:
            cert = traj.certificates[i]
            if isinstance(cert, DecreaseCertificate):
                halv = cert.halvings
        rows.append((i, float(traj.tau[i]), v_here, threshold, accepted, halv))
        if not accepted and first_violation is None:
            first_violation = i
            ok = False
    return CertificationReport(ok=ok, rows=tuple(rows),
                               first_violation=first_violation)


# ---------------------------------------------------------------------------
# controller objects for core.advance


@dataclass
class HalvingController:
    """Start each step from h_init and halve until the decrease test
    accepts."""

    lyap: LyapunovFunction
    tableau: ButcherTableau
    field: VectorField
    lam: float
    h_init: float

    def __call__(self, x: Array, tau: float):
        cert = halving_controller(
            self.lyap, self.tableau, self.field, x, self.h_init, self.lam
        )
        return cert.h, cert


@dataclass
class EulerQController:
    """Explicit-Euler controller using the curvature bound directly."""

    lyap: LyapunovFunction
    field: VectorField
    lam: float
    r: float

    def __call__(self, x: Array, tau: float):
        h = euler_q_phi(self.lyap, self.field, x, self.lam, self.r)
        cert = decrease_test(self.lyap, EULER, self.field, x, h, self.lam)
        return h, cert


@dataclass
class LinearQuadraticController:
    """Closed-form explicit-Euler controller for x' = Ax with V = x'Px."""

    a: Array
    p: Array
    lam: float
    r: float

    def __call__(self, x: Array, tau: float) -> float:
        return linear_phi(self.a, self.p, x, self.lam, self.r)
