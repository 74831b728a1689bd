"""Worked systems: the planar example family, a stiff linear pair with a
state-feedback step law, decrease-boundary sweeps, and a primal-dual flow
for linearly constrained convex programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    _unit_ball_points,
    advance,
    linear_field,
    write_csv,
)
from .lyapunov import (
    LyapunovFunction,
    decrease_test,
    halving_controller,
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
        v=lambda x: float(x @ x),
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
        s = x @ x
        return np.array([-s * x[0] + x[1], -x[0] - s * x[1]])

    def f2_jac(x: Array) -> Array:
        x1, x2 = x
        return np.array([
            [-(3.0 * x1 * x1 + x2 * x2), 1.0 - 2.0 * x1 * x2],
            [-1.0 - 2.0 * x1 * x2, -(x1 * x1 + 3.0 * x2 * x2)],
        ])

    f2_field = VectorField(
        dim=2,
        f=f2,
        jacobian=f2_jac,
        gamma=lambda s: 1.0 + s * s,
        local_lipschitz=lambda x: 1.0 + 12.0 * float(x @ x),
    )

    def f3(x: Array) -> Array:
        return (x @ x) * (_M1 @ x)

    f3_field = VectorField(
        dim=2,
        f=f3,
        jacobian=lambda x: (x @ x) * _M1 + 2.0 * np.outer(_M1 @ x, x),
        gamma=lambda s: math.sqrt(2.0) * s * s,
        local_lipschitz=lambda x: 12.0 * math.sqrt(2.0) * float(x @ x),
    )

    def f427(x: Array) -> Array:
        return np.array([-x[0] + x[1] * x[1], -x[1] - x[0] * x[1]])

    sys427_field = VectorField(
        dim=2,
        f=f427,
        jacobian=lambda x: np.array(
            [[-1.0, 2.0 * x[1]], [-x[1], -1.0 - x[0]]]
        ),
        gamma=lambda s: 1.0 + s,
        # Frobenius bound of the nonlinear part on the ball of radius 2|x|
        local_lipschitz=lambda x: 1.0 + 2.0 * math.sqrt(5.0)
        * float(np.linalg.norm(x)),
    )

    v427 = LyapunovFunction(
        v=lambda x: 0.5 * float(x @ x),
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
    imposes no restriction and returns r, as in `linear_phi`.
    """
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
) -> tuple[HybridTrajectory, float]:
    """Explicit Euler on the stiff pair with h = phi(x) exactly, on advance.

    n_steps counts the recorded states including the initial one, so
    n_steps - 1 Euler updates are performed; the returned time is the
    clock at the last recorded state.
    """
    if n_steps < 1:
        raise ConfigurationError("n_steps must be at least 1")
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 == 0.0 and x2 == 0.0:
        raise ConfigurationError("x0 must be nonzero")

    def euler(x, h):  # the update on floats, in this order
        x1, x2 = x.tolist()
        return np.array([x1 - (h * 1000.0) * x1, x2 + h * (x1 - x2)])

    traj = advance(euler, None, lambda x, tau: stiff_phi(*x.tolist(), lam, r),
                   np.array([x1, x2]), math.inf,
                   max_steps=n_steps - 1, stop=lambda x: False)
    return traj, traj.final_time


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

    The search starts from h = 1/64.  Returns the lower bisection endpoint
    (always an accepted step) once the bracket is narrower than tol; 0.0 if
    no positive step down to 2^-46 is accepted, 1e6 if none up to 1e6 is
    rejected.
    """
    x = np.asarray(x, dtype=float)

    def ok(h: float) -> bool:
        return decrease_test(lyap, tableau, field, x, h, lam).accepted

    hi = 1.0 / 64.0
    shrink = 0
    while not ok(hi):
        hi *= 0.5
        shrink += 1
        if shrink > 40:
            return 0.0
    lo = hi
    while ok(lo * 2.0):
        lo *= 2.0
        if lo >= 1e6:
            return 1e6
    hi = lo * 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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
    {'x1': grid, name: curve}."""
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
    write_csv(path, ("k", "tau", "h"),
              zip(range(traj.steps.size), traj.tau.tolist(),
                  traj.steps.tolist()))


# ---------------------------------------------------------------------------
# primal-dual flow for linearly constrained convex programs


@dataclass(frozen=True)
class ConvexObjective:
    """Smooth convex objective with first and second derivatives.

    q_matrix and c_vec are set for the quadratic x'Qx/2 + c'x only.
    """

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array]
    q_matrix: Optional[Array] = None
    c_vec: Optional[Array] = None

    @property
    def quadratic(self) -> bool:
        return self.q_matrix is not None


def quadratic_objective(q: Array, c: Array) -> ConvexObjective:
    """f(x) = x'Qx/2 + c'x with Q symmetric positive definite."""
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    if not np.allclose(q, q.T, atol=1e-12):
        raise ConfigurationError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(q)) <= 0:
        raise ConfigurationError("Q must be positive definite")
    return ConvexObjective(
        value=lambda x: 0.5 * float(x @ q @ x) + float(c @ x),
        grad=lambda x: q @ x + c,
        hess=lambda x: q,
        q_matrix=q,
        c_vec=c,
    )


@dataclass(frozen=True)
class NlpFlow:
    """Joint (x, z) descent field with its exact-decrease Lyapunov pairing.

    For quadratic objectives hess_norm is the exact global bound on the
    Hessian of V and kkt_point the analytic equilibrium; both are None
    otherwise.
    """

    field: VectorField
    lyap: LyapunovFunction
    n: int
    m: int
    hess_norm: Optional[float] = None
    kkt_point: Optional[Array] = None


def solve_kkt(objective: ConvexObjective, a: Array, b: Array) -> Array:
    """Stationary point of the constrained quadratic program, as (x, z)."""
    if not objective.quadratic:
        raise ConfigurationError("closed-form stationary point needs a QP")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = objective.q_matrix.shape[0]
    m = a.shape[0]
    g = np.zeros((n + m, n + m))
    g[:n, :n] = objective.q_matrix
    g[:n, n:] = a.T
    g[n:, :n] = a
    rhs = np.concatenate([-objective.c_vec, b])
    return np.linalg.solve(g, rhs)


def nlp_flow(objective: ConvexObjective, a: Array, b: Array) -> NlpFlow:
    """Build the primal-dual flow (x', z') = -grad V(x, z) in disguise.

    x' = -(hess f(x) g + A'(Ax - b)) and z' = -A g with g = grad f(x) + A'z;
    V(x, z) = |g|^2/2 + |Ax - b|^2/2 then satisfies grad V = -(x', z'), so
    V decays at rate |field|^2 along the flow.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = a.shape
    if b.shape != (m,):
        raise ConfigurationError("b must have one entry per constraint row")
    gram = a @ a.T
    if abs(np.linalg.det(gram)) < 1e-12 * max(1.0, float(np.trace(gram)) ** m):
        raise ConfigurationError("constraint rows must be linearly independent")

    def residuals(w: Array) -> tuple[Array, Array]:
        x, z = w[:n], w[n:]
        return objective.grad(x) + a.T @ z, a @ x - b

    def fvec(w: Array) -> Array:
        g, cons = residuals(w)
        x = w[:n]
        return np.concatenate([-(objective.hess(x) @ g + a.T @ cons),
                               -(a @ g)])

    jac = None
    hess_v = None
    hess_norm = None
    kkt = None
    if objective.quadratic:
        gmat = np.zeros((n + m, n + m))
        gmat[:n, :n] = objective.q_matrix
        gmat[:n, n:] = a.T
        gmat[n:, :n] = a
        gsq = gmat @ gmat
        jac = lambda w: -gsq
        hess_v = lambda w: gsq
        hess_norm = float(np.max(np.abs(np.linalg.eigvalsh(gmat)))) ** 2
        kkt = solve_kkt(objective, a, b)

    def v(w: Array) -> float:
        g, cons = residuals(w)
        return 0.5 * float(g @ g) + 0.5 * float(cons @ cons)

    field = VectorField(dim=n + m, f=fvec, jacobian=jac)
    lyap = LyapunovFunction(
        v=v,
        grad=lambda w: -fvec(w),
        hess=hess_v,
        convex=objective.quadratic,
        hess_constant=objective.quadratic,
    )
    return NlpFlow(field=field, lyap=lyap, n=n, m=m, hess_norm=hess_norm,
                   kkt_point=kkt)


def _hess_v_norm_fd(flow: NlpFlow, w: Array) -> float:
    """Spectral norm of the V-Hessian by central differences on grad V."""
    dim = flow.field.dim
    delta = 1e-5 * max(1.0, float(np.linalg.norm(w)))
    h = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = delta
        h[:, j] = (-flow.field(w + e) + flow.field(w - e)) / (2.0 * delta)
    h = 0.5 * (h + h.T)
    return float(np.linalg.norm(h, 2))


def nlp_hessian_bound(flow: NlpFlow, w: Array, r: float) -> float:
    """Bound p(w) on |hess V| over the ball of radius r |field(w)|.

    Exact for quadratic objectives (constant Hessian); otherwise the max
    over 128 low-discrepancy ball points plus the center, inflated by 1.5.
    """
    if flow.hess_norm is not None:
        return flow.hess_norm
    w = np.asarray(w, dtype=float)
    radius = r * float(np.linalg.norm(flow.field(w)))
    pts = [w] + list(w + radius * _unit_ball_points(flow.field.dim, 128))
    return 1.5 * max(_hess_v_norm_fd(flow, p) for p in pts)


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
    """Drive the flow with explicit Euler and h = min(2(1-lam)/p(w), r).

    The step law is a controller that core.advance calls, so the iterates
    come back as a HybridTrajectory in clock time with one decrease
    certificate per step.  A rejected step (only possible when p is a
    sampled estimate) falls back to halving and clears `certified`.  The
    run stops when |field(w)| < tol; a non-finite iterate raises
    FloatingPointError, and 200000 steps without convergence raise
    ControllerError.
    """
    certified = True
    residual = math.nan

    def converged(w: Array) -> bool:
        nonlocal residual
        residual = float(np.linalg.norm(flow.field(w)))
        return residual < tol

    def controller(w: Array, tau: float):
        nonlocal certified
        p = nlp_hessian_bound(flow, w, r)
        if p <= 0:
            raise ConfigurationError("Hessian bound must be positive")
        h = min(2.0 * (1.0 - lam) / p, r)
        cert = halving_controller(flow.lyap, EULER, flow.field, w, h, lam)
        if cert.halvings > 0:
            certified = False
        return cert.h, cert

    v0 = flow.lyap(np.asarray(w0, dtype=float))
    traj = advance(EULER, flow.field, controller, w0, math.inf,
                   max_steps=_NLP_MAX_ITER, stop=converged)
    if not residual < tol:
        last = traj.certificates[-1] if traj.certificates else None
        raise ControllerError(
            f"no convergence in {_NLP_MAX_ITER} iterations; last residual "
            f"{residual:.3e}, last certificate {last}"
        )
    return NlpResult(w=traj.final_state, iterations=traj.steps.size,
                     residual=residual, certified=certified,
                     v_history=(v0,) + tuple(c.lhs for c in traj.certificates),
                     trajectory=traj)
