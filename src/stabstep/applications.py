"""Worked systems: the planar example family, a stiff linear pair with a
state-feedback step law, decrease-boundary sweeps, and a primal-dual flow
for linearly constrained quadratic programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    ButcherTableau,
    ConfigurationError,
    ControllerError,
    EULER,
    HEUN,
    HybridTrajectory,
    IMPROVED_POLYGON,
    KUTTA3,
    VectorField,
    _chunked,
    _matvec,
    advance,
    linear_field,
    write_csv,
)
from .lyapunov import (
    HalvingController,
    LyapunovFunction,
    check_cap,
    check_lam,
    decrease_test,
    halving_controller,
    state_terms,
)

_M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])
_NLP_MAX_ITER = 200000


@dataclass(frozen=True)
class ExampleSystem:
    """A field bundled with its Lyapunov pairing."""

    name: str
    field: VectorField
    lyap: LyapunovFunction


def _v_sq() -> LyapunovFunction:
    return LyapunovFunction(
        v=lambda x: float(x.dot(x)),
        grad=lambda x: 2.0 * x,
        hess=lambda x: 2.0 * np.eye(x.size),
        convex=True,
        hess_constant=True,
    )


def example_fields() -> dict[str, ExampleSystem]:
    """The four planar benchmark systems, keyed f1, f2, f3, sys427.

    f1 is linear with eigenvalues -1 +- i.  f2 adds cubic radial damping to
    a pure rotation, which explicit one-step maps turn into a limit cycle.
    f3 is f1 throttled by |x|^2, so it decays only algebraically.  sys427
    couples linear decay with a quadratic twist.  All pair with V = |x|^2
    except sys427, which uses |x|^2 / 2.
    """
    f1_field = linear_field(_M1)

    def f2(x: Array) -> Array:
        s = x.dot(x)
        return np.array([-s * x[0] + x[1], -x[0] - s * x[1]])

    def f2_jac(x: Array) -> Array:
        x1, x2 = x
        return np.array([
            [-(3.0 * x1 * x1 + x2 * x2), 1.0 - 2.0 * x1 * x2],
            [-1.0 - 2.0 * x1 * x2, -(x1 * x1 + 3.0 * x2 * x2)],
        ])

    f2_field = VectorField(dim=2, f=f2, jacobian=f2_jac)

    def f3(x: Array) -> Array:
        return x.dot(x) * _M1.dot(x)

    f3_field = VectorField(
        dim=2, f=f3,
        jacobian=lambda x: x.dot(x) * _M1 + 2.0 * np.outer(_M1.dot(x), x))

    def f427(x: Array) -> Array:
        return np.array([-x[0] + x[1] * x[1], -x[1] - x[0] * x[1]])

    sys427_field = VectorField(
        dim=2, f=f427,
        jacobian=lambda x: np.array([[-1.0, 2.0 * x[1]],
                                     [-x[1], -1.0 - x[0]]]))

    v427 = LyapunovFunction(
        v=lambda x: 0.5 * float(x.dot(x)),
        grad=lambda x: x.astype(float),
        hess=lambda x: np.eye(2),
        convex=True,
        hess_constant=True,
    )

    return {
        "f1": ExampleSystem("f1", f1_field, _v_sq()),
        "f2": ExampleSystem("f2", f2_field, _v_sq()),
        "f3": ExampleSystem("f3", f3_field, _v_sq()),
        "sys427": ExampleSystem("sys427", sys427_field, v427),
    }


def euler_f2_limit_radius(h: float) -> float:
    """Invariant radius of the explicit Euler map on f2.

    On the radial map rho^2 -> rho^2((1 - h rho^2)^2 + h^2) the nonzero
    fixed points solve h rho^4 - 2 rho^2 + h = 0; the small root
    rho = sqrt((1 - sqrt(1 - h^2)) / h) is the attracting cycle radius.
    Only defined for h in (0, 1).
    """
    if not 0.0 < h < 1.0:
        raise ValueError("the invariant radius exists only for h in (0, 1)")
    return math.sqrt((1.0 - math.sqrt(1.0 - h * h)) / h)


# ---------------------------------------------------------------------------
# stiff linear pair with the closed-form step law


def stiff_phi(x1: float, x2: float, lam: float, r: float) -> float:
    """Step law for the pair x1' = -1000 x1, x2' = x1 - x2 with V = |x|^2/2.

    The arithmetic below is evaluated in a fixed order on purpose: the run
    is chaotic enough that reassociating these products changes the step
    pattern within a few hundred steps.  Do not "simplify".  A zero
    denominator (the origin, or a state so small that den underflows)
    imposes no restriction and returns r, as in `linear_phi`.  A lam
    outside (0, 1), a cap r that is not positive and finite, and an x1 or
    x2 that is not finite raise ConfigurationError.
    """
    check_lam(lam)
    check_cap(r)
    for name, value in (("x1", x1), ("x2", x2)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite")
    num = (1000.0 * (x1 * x1) + x2 * x2) - x1 * x2
    den = 1000000.0 * (x1 * x1) + (x1 - x2) * (x1 - x2)
    if den == 0.0:
        return r
    return min(((2.0 * (1.0 - lam)) * num) / den, r)


def stiff_experiment(
    lam: float,
    r: float = 1.0,
    x0: tuple[float, float] = (1.0, 1.1),
    n_steps: int = 500,
) -> HybridTrajectory:
    """Explicit Euler on the stiff pair with h = phi(x) exactly, on advance.

    n_steps counts the recorded states including the initial one, so
    n_steps - 1 Euler updates are performed; the trajectory's final_time
    is the clock at the last recorded state.
    """
    if n_steps < 1:
        raise ConfigurationError("n_steps must be at least 1")
    check_lam(lam)
    check_cap(r)
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 == 0.0 and x2 == 0.0:
        raise ConfigurationError("x0 must be nonzero")

    def euler(x, h):  # the update on floats, in this order
        x1, x2 = x.tolist()
        return np.array([x1 - (h * 1000.0) * x1, x2 + h * (x1 - x2)])

    return advance(euler, None, lambda x, tau: stiff_phi(*x.tolist(), lam, r),
                   np.array([x1, x2]), math.inf,
                   max_steps=n_steps - 1, stop=lambda x: False)


STIFF_A = np.array([[-1000.0, 0.0], [1.0, -1.0]])
STIFF_P = 0.5 * np.eye(2)


# ---------------------------------------------------------------------------
# decrease-boundary sweeps

SWEEP_TABLEAUS: tuple[ButcherTableau, ...] = (EULER, HEUN, IMPROVED_POLYGON,
                                              KUTTA3)


def max_decrease_step(
    lyap: LyapunovFunction,
    tableau: ButcherTableau,
    field: VectorField,
    x: Array,
    lam: float,
    tol: float = 1e-6,
) -> float:
    """Largest accepted step at x, located by doubling then bisection.

    The search starts from the step `halving_controller` accepts from
    h = 1/64.  Returns the lower bisection endpoint (always an accepted
    step) once the bracket is narrower than tol, or can shrink no further
    in floating point; 0.0 if no positive step down to 2^-46 is accepted,
    1e6 if none up to 1e6 is rejected.  A tol that is not positive and a
    state that is not finite raise ConfigurationError.
    """
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigurationError("x must be finite")
    terms = state_terms(lyap, field, x)

    def ok(h: float) -> bool:
        return decrease_test(lyap, tableau, field, x, h, lam,
                             terms=terms).accepted

    try:
        hi = halving_controller(lyap, tableau, field, x, 1.0 / 64.0, lam,
                                terms=terms).h
    except ControllerError:
        return 0.0
    lo = hi
    while ok(lo * 2.0):
        lo *= 2.0
        if lo >= 1e6:
            return 1e6
    hi = lo * 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def boundary_sweep(
    lam: float = 0.5,
    n_points: int = 201,
    tol: float = 1e-6,
) -> dict[str, Array]:
    """Maximum accepted step along x = (x1, 1), x1 in [-5, 5], for the four
    one-step schemes on the quadratically twisted system; returns
    {'x1': grid, name: curve}.  An n_points below 1 raises
    ConfigurationError."""
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 1):
        raise ConfigurationError(
            f"n_points must be a positive integer, got {n_points!r}")
    systems = example_fields()
    sys427 = systems["sys427"]
    grid = np.linspace(-5.0, 5.0, n_points)
    out: dict[str, Array] = {"x1": grid}
    for tab in SWEEP_TABLEAUS:
        vals = np.empty(n_points)
        for i, x1 in enumerate(grid):
            vals[i] = max_decrease_step(
                sys427.lyap, tab, sys427.field, np.array([x1, 1.0]), lam, tol
            )
        out[tab.name] = vals
    return out


def write_sweep_csv(sweep: dict[str, Array], path) -> None:
    """Rows x1 followed by one column per scheme."""
    names = ["x1", *(k for k in sweep if k != "x1")]
    write_csv(path, names, zip(*(sweep[k].tolist() for k in names)))


def write_steps_csv(traj: HybridTrajectory, path) -> None:
    """Step sequence as rows k,tau,h (tau is the step's start time)."""
    tau, steps = traj.tau, traj.steps
    write_csv(path, ("k", "tau", "h"), _chunked(steps.size, lambda part: zip(
        range(part.start, part.stop), tau[part].tolist(),
        steps[part].tolist())))


# ---------------------------------------------------------------------------
# primal-dual flow for linearly constrained quadratic programs


@dataclass(frozen=True)
class NlpFlow:
    """Joint (x, z) descent field with its exact-decrease Lyapunov pairing.

    hess_norm is the exact global bound on the Hessian of V, the squared
    spectral radius of the KKT matrix, and kkt_point the analytic
    equilibrium.
    """

    field: VectorField
    lyap: LyapunovFunction
    n: int
    m: int
    hess_norm: float
    kkt_point: Array


def nlp_flow(q: Array, c: Array, a: Array, b: Array) -> NlpFlow:
    """Build the primal-dual flow of min x'Qx/2 + c'x subject to Ax = b.

    The flow is (x', z') = -grad V(x, z) in disguise: x' = -(Q g +
    A'(Ax - b)) and z' = -A g with g = Qx + c + A'z; V(x, z) = |g|^2/2 +
    |Ax - b|^2/2 then satisfies grad V = -(x', z'), so V decays at rate
    |field|^2 along the flow.  With G the KKT matrix, the Hessian of V is
    the constant G^2, and kkt_point solves G w = (-c, b).  A Q, c, A or b
    that is not finite, a Q that is not square, symmetric and positive
    definite, a c, A or b whose size does not match Q's, and linearly
    dependent rows of A raise ConfigurationError.  The field and V take
    their products with ndarray.dot, bit for bit the matmul's
    (`core._matvec`).
    """
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    for name, arr in (("Q", q), ("c", c), ("A", a), ("b", b)):
        if not np.isfinite(arr).all():
            raise ConfigurationError(f"{name} must be finite")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigurationError("Q must be a square matrix")
    if c.shape != (q.shape[0],):
        raise ConfigurationError("c must have one entry per row of Q")
    if not np.allclose(q, q.T, atol=1e-12):
        raise ConfigurationError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(q)) <= 0:
        raise ConfigurationError("Q must be positive definite")
    if a.ndim != 2 or a.shape[1] != q.shape[0]:
        raise ConfigurationError("A must have one column per row of Q")
    m, n = a.shape
    if b.shape != (m,):
        raise ConfigurationError("b must have one entry per constraint row")
    gram = a @ a.T
    if abs(np.linalg.det(gram)) < 1e-12 * max(1.0, float(np.trace(gram)) ** m):
        raise ConfigurationError("constraint rows must be linearly independent")

    q_dot, a_dot, at_dot = _matvec(q), _matvec(a), _matvec(a.T)

    def residuals(w: Array) -> tuple[Array, Array]:
        x, z = w[:n], w[n:]
        return q_dot(x) + c + at_dot(z), a_dot(x) - b

    def fvec(w: Array) -> Array:
        g, cons = residuals(w)
        return np.concatenate([-(q_dot(g) + at_dot(cons)), -a_dot(g)])

    def v(w: Array) -> float:
        g, cons = residuals(w)
        return 0.5 * float(g.dot(g)) + 0.5 * float(cons.dot(cons))

    gmat = np.block([[q, a.T], [a, np.zeros((m, m))]])
    gsq = gmat @ gmat
    field = VectorField(dim=n + m, f=fvec, jacobian=lambda w: -gsq)
    lyap = LyapunovFunction(v=v, grad=lambda w: -fvec(w),
                            hess=lambda w: gsq, convex=True,
                            hess_constant=True)
    hess_norm = float(np.max(np.abs(np.linalg.eigvalsh(gmat)))) ** 2
    return NlpFlow(field=field, lyap=lyap, n=n, m=m, hess_norm=hess_norm,
                   kkt_point=np.linalg.solve(gmat, np.concatenate([-c, b])))


@dataclass(frozen=True)
class NlpResult:
    w: Array
    iterations: int
    residual: float
    certified: bool
    v_history: tuple
    trajectory: HybridTrajectory


def nlp_solve(
    flow: NlpFlow,
    w0: Array,
    lam: float = 0.5,
    r: float = 1.0,
    tol: float = 1e-6,
) -> NlpResult:
    """Drive the flow with explicit Euler and h = min(2(1-lam)/p, r),
    p = flow.hess_norm.

    The step law is a lyapunov.HalvingController from that h, which
    core.advance calls, so the iterates come back as a HybridTrajectory in
    clock time with each step's decrease test in its certificate columns
    (none when w0 has already converged), and V is evaluated
    once per node.  A rejected step (possible only through rounding
    or an understated hess_norm) falls back to halving and clears
    `certified`.  The run stops when |field(w)| < tol; a tol that is not
    positive raises ConfigurationError, a non-finite iterate
    FloatingPointError, and 200000 steps without convergence
    ControllerError.
    """
    check_lam(lam)
    check_cap(r)
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    p = flow.hess_norm
    if not p > 0:
        raise ConfigurationError("Hessian bound must be positive")
    h = min(2.0 * (1.0 - lam) / p, r)
    residual = math.nan

    def converged(w: Array) -> bool:
        nonlocal residual
        residual = float(np.linalg.norm(flow.field(w)))
        return residual < tol

    v0 = flow.lyap(np.asarray(w0, dtype=float))
    controller = HalvingController(flow.lyap, EULER, flow.field, lam=lam,
                                   h_init=h)
    traj = advance(EULER, flow.field, controller, w0, math.inf,
                   max_steps=_NLP_MAX_ITER, stop=converged)
    if traj.stop_reason != "stop":
        raise ControllerError(
            f"no convergence in {_NLP_MAX_ITER} iterations; last residual "
            f"{residual:.3e}, last step lhs={float(traj.lhs[-1])!r} "
            f"rhs={float(traj.rhs[-1])!r} halvings={int(traj.halvings[-1])}"
        )
    stepped = traj.halvings is not None  # else w0 had converged
    return NlpResult(w=traj.final_state, iterations=traj.steps.size,
                     residual=residual,
                     certified=not (stepped and traj.halvings.any()),
                     v_history=(v0, *(traj.lhs.tolist() if stepped else ())),
                     trajectory=traj)
