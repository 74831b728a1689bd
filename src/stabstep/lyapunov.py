"""Decrease-test step controllers and trajectory certification.

A step h at state x is accepted when

    V(x + h F(h, x)) <= V(x) + lam * h * grad V(x) . f(x)

for a decrease fraction lam in (0, 1).  Controllers either search for such an
h by halving or compute one directly from curvature information (explicit
Euler with a constant Hessian, linear systems with quadratic V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    ButcherTableau,
    ConfigurationError,
    ControllerError,
    DecreaseCertificate,
    EULER,
    HybridTrajectory,
    StageSolveError,
    VectorField,
    _CHUNK_ROWS,
    _check_vector,
    _chunked,
    _matvec,
    rk_increment,
    write_csv,
)

_SLACK = 1e-15
_MAX_HALVINGS = 40


def within_slack(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the relative roundoff slack that decrease_test and
    certify_trajectory share; a NaN on either side fails."""
    return lhs <= rhs + _SLACK * max(1.0, abs(rhs))


def check_lam(lam: float) -> None:
    """Refuse a decrease fraction outside (0, 1), NaN included."""
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lam must lie in (0, 1)")


def check_cap(r: float) -> None:
    """Refuse a step cap r that is not positive and finite: min(h, nan) is
    h, so a NaN cap would mean no cap at all."""
    if not 0.0 < r < math.inf:
        raise ConfigurationError("r must be positive and finite")


@dataclass(frozen=True)
class LyapunovFunction:
    """Positive definite V with its gradient and optional curvature data.

    V and its gradient are called as they are.  Like the field's f (see
    `core.VectorField`), v and grad take a 1-D float64 ndarray x; v
    returns a number, which calling V turns into a float, and grad a
    float64 ndarray of x's shape, which is not converted.  grad V is
    checked once, where f is: by `state_terms` when it also evaluates V,
    and on the first row of `certify_trajectory`.  A scalar, a list, a
    float32 array or an array of another shape is refused there with
    ConfigurationError.

    convex declares V convex, which implicit Euler's unconditional decrease
    needs.  hess_constant declares that hess returns the same matrix at
    every x; euler_q_phi evaluates it once, at x, and refuses a V without
    it.
    V carries no field: every decrease threshold takes grad V(x) . f(x)
    from the field it is paired with.
    """

    v: Callable[[Array], float]
    grad: Callable[[Array], Array]
    hess: Optional[Callable[[Array], Array]] = None
    convex: bool = False
    hess_constant: bool = False

    def __call__(self, x: Array) -> float:
        return float(self.v(x))

    def gradient(self, x: Array) -> Array:
        return self.grad(x)


def quadratic_lyapunov(p: Array) -> LyapunovFunction:
    """V(x) = x' P x for symmetric positive semidefinite P.

    V and its gradient take their products with ndarray.dot, bit for bit
    the matmul's (`core._matvec`); the + 0.0 on V gives a one-element
    product's -0.0 the matmul's +0.0 and changes nothing else."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ConfigurationError("P must be a square matrix")
    if not np.isfinite(p).all():
        raise ConfigurationError("P must be finite")
    if not np.allclose(p, p.T, atol=1e-12):
        raise ConfigurationError("P must be symmetric")
    convex = bool(np.all(np.linalg.eigvalsh(p) >= -1e-12))
    p_dot = _matvec(p)
    return LyapunovFunction(
        v=lambda x: float(x.dot(p).dot(x)) + 0.0,
        grad=lambda x: 2.0 * p_dot(x),
        hess=lambda x: 2.0 * p,
        convex=convex,
        hess_constant=True,
    )


def state_terms(lyap: LyapunovFunction, field: VectorField, x: Array,
                v: Optional[float] = None):
    """(f(x), V(x), grad V(x) . f(x)): what every decrease test at x shares.

    v, when given, must be V(x): a controller handed the certificate whose
    x_next is x passes its lhs.  V is then not evaluated again.  When v
    is not given, x is a caller's state, and x, f(x) and grad V(x) are
    checked against the float64 contract of `core.VectorField`.  The
    product is the matmul's bit for bit, + 0.0 as in quadratic_lyapunov.
    """
    if v is not None:
        fx = field(x)
        return fx, v, float(lyap.gradient(x).dot(fx)) + 0.0
    _check_vector(x)
    fx = field(x)
    _check_vector(fx, x.shape, "f(x)")
    v = lyap(x)
    grad = lyap.gradient(x)
    _check_vector(grad, x.shape, "grad V(x)")
    return fx, v, float(grad.dot(fx)) + 0.0


def decrease_test(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    h: float,
    lam: float,
    *, terms: Optional[tuple] = None,
    halvings: int = 0,
) -> DecreaseCertificate:
    """Evaluate the Lyapunov decrease condition for one candidate step.

    A stage-solve failure (implicit tableau, step too large) is reported as
    a rejection with the reason recorded, not an exception; implicit Euler
    on a field without a Jacobian raises ConfigurationError.  terms, when
    given, must be state_terms(lyap, field, x): a controller testing several
    h at one x evaluates f(x), V(x) and grad V . f once and hands them to
    each test, which then forms the same rhs and increment bit for bit.
    halvings is recorded in the certificate as the number of halvings that
    led to h.  The certificate's x_next is read-only.
    """
    if not 0.0 < h < math.inf:
        raise ConfigurationError("decrease test needs h > 0")
    check_lam(lam)
    fx, v, w = terms or state_terms(lyap, field, x)
    rhs = v + lam * h * w
    try:
        incr = rk_increment(tableau, field, x, h, fx=fx)
    except StageSolveError as exc:
        return DecreaseCertificate(x, h, math.nan, rhs, False, halvings,
                                   str(exc))
    x_next = x + h * incr
    x_next.flags.writeable = False
    lhs = lyap(x_next)
    return DecreaseCertificate(x, h, lhs, rhs, within_slack(lhs, rhs),
                               halvings, "", x_next, tableau, field)


def halving_controller(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    h_init: float,
    lam: float,
    *, terms: Optional[tuple] = None,
) -> DecreaseCertificate:
    """First accepted step in {h_init, h_init/2, ...} with its halving count.

    Rejecting all of h_init, ..., h_init / 2^40 raises ControllerError:
    either h_init was absurdly large or the Lyapunov pairing is invalid
    near x.  terms, when given, must be state_terms(lyap, field, x).  An
    h_init outside (0, inf) or a non-finite x raises ConfigurationError.
    """
    if not 0.0 < h_init < math.inf:
        raise ConfigurationError("h_init must be positive and finite")
    if terms is None:  # a caller's state, read below before state_terms
        _check_vector(x)
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise ConfigurationError("state x must be finite")
    terms = terms or state_terms(lyap, field, x)
    h = float(h_init)
    for k in range(_MAX_HALVINGS + 1):
        cert = decrease_test(lyap, tableau, field, x, h, lam, terms=terms,
                             halvings=k)
        if cert.accepted:
            return cert
        h *= 0.5
    raise ControllerError(
        f"no accepted step after {_MAX_HALVINGS} halvings from h={h_init}"
    )


# ---------------------------------------------------------------------------
# direct step formulas for the explicit Euler scheme


def euler_q_phi(
    lyap: LyapunovFunction,
    field: VectorField,
    x: Array,
    lam: float,
    r: float,
    *, terms: Optional[tuple] = None,
) -> float:
    """Largest explicit-Euler step passing the decrease test by curvature.

    With q(x) = f' H_V f and H_V constant, any
    h <= -2(1-lam) grad V . f / q(x) is accepted; nonpositive q means no
    curvature obstruction and the cap r is returned.  A V not declared
    hess_constant is refused with ConfigurationError.  terms, when given,
    must be state_terms(lyap, field, x); its f(x) and grad V . f then serve
    the curvature too, and the decrease test of the chosen step.  A lam
    outside (0, 1), and a grad V . f that is not finite at x, raise
    ConfigurationError.
    """
    check_lam(lam)
    check_cap(r)
    if lyap.hess is None or not lyap.hess_constant:
        raise ConfigurationError("euler_q_phi needs a Hessian declared "
                                 "hess_constant")
    fx, _, w = terms or state_terms(lyap, field, x)
    if not -math.inf < w < 0.0:
        if w == 0.0 and float(np.linalg.norm(fx)) == 0.0:
            return r
        if not math.isfinite(w):
            raise ConfigurationError(f"grad V . f at x is {w}, not finite")
        raise ConfigurationError("grad V . f must be negative away from 0")
    q = float(fx.dot(lyap.hess(x)).dot(fx))
    if q <= 0.0:
        return r
    return min(2.0 * (1.0 - lam) * (-w) / q, r)


def linear_phi(a: Array, p: Array, x: Array, lam: float, r: float) -> float:
    """Explicit-Euler step for x' = Ax with V = x'Px, in closed form.

    Requires the decrease direction x'(A'P + PA)x < 0 at the given x; a zero
    denominator (Ax = 0) imposes no restriction and returns r.  A state x
    that is not finite raises ConfigurationError.
    """
    check_cap(r)
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigurationError("state x must be finite")
    if float(np.linalg.norm(x)) == 0.0:
        return r
    ax = a.dot(x)
    num = float(x.dot(a.T.dot(p) + p.dot(a)).dot(x))
    den = float(ax.dot(p).dot(ax))
    if num >= 0.0:
        raise ConfigurationError("x'(A'P+PA)x must be negative: A not Hurwitz "
                                 "for this P, or x in a bad direction")
    if den <= 0.0:
        return r
    return min(-(1.0 - lam) * num / den, r)


# ---------------------------------------------------------------------------
# trajectory certification


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Per-step decrease audit of a finished trajectory, kept as columns: v
    at every node, threshold and accepted per step, 17 bytes per step; tau
    and halvings (None counts 0 per row) are the trajectory's own arrays.
    rows builds the row tuples when asked, to_csv 4,096 at a time."""

    ok: bool
    tau: Array
    v: Array
    threshold: Array
    accepted: Array
    halvings: Optional[Array]
    first_violation: Optional[int] = None

    def _rows(self):
        n, halvings = self.threshold.size, self.halvings
        return _chunked(n, lambda part: zip(
            range(n)[part], self.tau[part].tolist(), self.v[part].tolist(),
            self.threshold[part].tolist(), self.accepted[part].tolist(),
            repeat(0) if halvings is None else halvings[part].tolist()))

    @property
    def rows(self) -> tuple:
        return tuple(self._rows())

    def to_csv(self, path) -> None:
        write_csv(path, ("i", "tau", "V", "threshold", "accepted", "halvings"),
                  self._rows())


def certify_trajectory(
    lyap: LyapunovFunction,
    traj: HybridTrajectory,
    lam: float,
    field: VectorField,
) -> CertificationReport:
    """Re-check the decrease condition at every recorded step.

    Each threshold is V(x) + lam * h * grad V(x) . f(x), the one
    decrease_test compares against, with lam in (0, 1).  Halving counts are
    the trajectory's halvings column, and are 0 without one.  The first
    row checks f and grad V against the float64 contract of
    `core.VectorField`, as `state_terms` does.
    """
    check_lam(lam)
    states, n = traj.states, traj.steps.size
    v, threshold, accepted = np.empty(n + 1), np.empty(n), np.empty(n, bool)
    v_here = None  # V(x_0) comes from the first row's checked state_terms
    for lo in range(0, n, _CHUNK_ROWS):  # no list of every step at once
        for i, h in enumerate(traj.steps[lo:lo + _CHUNK_ROWS].tolist(), lo):
            _, v_here, w = state_terms(lyap, field, states[i], v_here)
            v[i] = v_here
            threshold[i] = bar = v_here + lam * h * w
            v_here = lyap(states[i + 1])  # the next row's V(x_i)
            accepted[i] = within_slack(v_here, bar)
    v[n] = lyap(states[0]) if v_here is None else v_here
    first = None if accepted.all() else int(accepted.argmin())
    return CertificationReport(first is None, traj.tau, v, threshold,
                               accepted, traj.halvings, first)


# ---------------------------------------------------------------------------
# controller objects for core.advance


@dataclass(frozen=True)
class HalvingController:
    """Start each step from h_init and halve until the decrease test
    accepts; returns that test's certificate.  last, when given, must be
    the certificate whose x_next is x, and its lhs serves as V(x)."""

    lyap: LyapunovFunction
    tableau: ButcherTableau
    field: VectorField
    lam: float
    h_init: float

    def __call__(self, x: Array, tau: float, last=None) -> DecreaseCertificate:
        terms = state_terms(self.lyap, self.field, x, last and last.lhs)
        return halving_controller(self.lyap, self.tableau, self.field, x,
                                  self.h_init, self.lam, terms=terms)


@dataclass(frozen=True)
class EulerQController:
    """Explicit-Euler controller using the curvature bound directly;
    returns the decrease test of its step.  last is as for
    HalvingController."""

    lyap: LyapunovFunction
    field: VectorField
    lam: float
    r: float

    def __call__(self, x: Array, tau: float, last=None) -> DecreaseCertificate:
        lyap, field, lam = self.lyap, self.field, self.lam
        terms = state_terms(lyap, field, x, last and last.lhs)
        h = euler_q_phi(lyap, field, x, lam, self.r, terms=terms)
        return decrease_test(lyap, EULER, field, x, h, lam, terms=terms)


@dataclass
class LinearQuadraticController:
    """Closed-form explicit-Euler controller for x' = Ax with V = x'Px."""

    a: Array
    p: Array
    lam: float
    r: float

    def __call__(self, x: Array, tau: float) -> float:
        return linear_phi(self.a, self.p, x, self.lam, self.r)
