"""Partitioned stepping for cascade systems and the advection chain.

Each chain node is advanced by the semi-implicit closed form

    x_i(t+h) = (x_i(t) + h f_i(z(t), x_1(t), ..., x_{i-1}(t)))
               / (1 + h a_i(x_i(t)))

where the damping a_i enters implicitly and every coupling term reads the
pre-step values.  That stale-read rule is load-bearing: it is what makes
the scheme a cascade of one-dimensional input-to-state stable recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Array,
    ConfigurationError,
    HybridTrajectory,
    _node_rows,
    write_csv,
)

ScalarFunc = Callable[[float], float]


@dataclass(frozen=True)
class CascadeSystem:
    """Cascade of n damped scalar nodes, optionally driven by an input z.

    a_funcs[i] is the damping of node i+1, f_funcs[i] its coupling
    f_{i+1}(z, x_prev) where x_prev holds the pre-step values of nodes
    1..i.  l_bounds[i] is a positive lower bound on a_funcs[i].
    a_vec / f_vec, when given, are vectorized equivalents used by the
    stepper for speed; they must agree with the scalar callables.
    """

    n: int
    a_funcs: Sequence[ScalarFunc]
    f_funcs: Sequence[Callable]
    l_bounds: Array
    a_vec: Optional[Callable[[Array], Array]] = None
    f_vec: Optional[Callable[[Optional[Array], Array], Array]] = None
    r: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("chain needs at least one node")
        if len(self.a_funcs) != self.n or len(self.f_funcs) != self.n:
            raise ConfigurationError("need one a_i and f_i per node")
        l = np.asarray(self.l_bounds, dtype=float)
        if l.shape != (self.n,) or not np.all(l > 0):
            raise ConfigurationError("l_bounds must be n positive scalars")
        object.__setattr__(self, "l_bounds", l)


def partitioned_step(
    sys: CascadeSystem, z: Optional[Array], x: Array, h: float
) -> Array:
    """One semi-implicit chain update; z is read, not advanced."""
    if h <= 0:
        raise ConfigurationError("step must be positive")
    if sys.r is not None and h > sys.r:
        raise ConfigurationError(f"step {h} exceeds the chain bound r={sys.r}")
    x = np.asarray(x, dtype=float)
    if sys.a_vec is not None and sys.f_vec is not None:
        return (x + h * sys.f_vec(z, x)) / (1.0 + h * sys.a_vec(x))
    out = np.empty_like(x)
    for i in range(sys.n):
        drive = float(sys.f_funcs[i](z, x[:i]))
        out[i] = (x[i] + h * drive) / (1.0 + h * float(sys.a_funcs[i](x[i])))
    return out


def advance_chain(
    sys: CascadeSystem, x0: Array, steps: Sequence[float]
) -> HybridTrajectory:
    """Apply partitioned_step once per given step, with no input z."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ConfigurationError("x0 must match the chain length")
    steps = np.asarray(steps, dtype=float)
    states = np.empty((steps.size + 1, sys.n))
    states[0] = x
    taus = np.empty(steps.size + 1)
    taus[0] = 0.0
    for k, h in enumerate(steps.tolist()):
        x = partitioned_step(sys, None, x, h)
        states[k + 1] = x
        taus[k + 1] = taus[k] + h  # the additions the clock check repeats
    return HybridTrajectory(tau=taus, states=states, steps=steps)


def chain_decay_trials(
    rng: np.random.Generator, runs: int, cap: int, target: float
) -> tuple[int, int]:
    """Random advection chains under random steps in (0, 10].

    Each run draws a chain of 5-20 nodes with a reaction term up to 70% of
    its transport and a random initial state, then steps it until the sup
    norm drops below target, for at most cap steps.  Returns the number of
    runs that never got there and the most steps any successful run took.
    """
    fails = 0
    worst = 0
    for _ in range(runs):
        n = int(rng.integers(5, 21))
        c = float(rng.uniform(0.5, 2.0))
        big_k = float(rng.uniform(0.0, 0.7)) * c * n
        theta = float(rng.uniform(0.0, 3.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        chain = advection_chain(
            n, c, lambda y: big_k * math.cos(theta * y + phase), big_k, r=10.0
        )
        x = rng.uniform(-1.0, 1.0, size=n)
        nrm = float(np.linalg.norm(x))
        if nrm > 0:
            x *= rng.uniform(0.1, 10.0) / nrm
        reached = False
        for k in range(cap):
            x = partitioned_step(chain, None, x, 10.0 * (1.0 - rng.random()))
            sup = float(np.max(np.abs(x)))  # NaN or inf if any entry is
            if not math.isfinite(sup):
                break
            if sup < target:
                reached = True
                worst = max(worst, k + 1)
                break
        fails += 0 if reached else 1
    return fails, worst


# ---------------------------------------------------------------------------
# the scalar ISS estimate


def sigma_constant(r: float, big_l: float) -> float:
    """Largest sigma with 1/(1+s) <= exp(-sigma s) on [0, rL].

    Equals ln(1+rL)/(rL); evaluated by a short series when rL is tiny to
    dodge cancellation in log1p(s)/s.
    """
    if r <= 0 or big_l <= 0:
        raise ConfigurationError("r and L must be positive")
    s = r * big_l
    if s < 1e-8:
        return 1.0 - s / 2.0 + s * s / 3.0
    return math.log1p(s) / s


@dataclass(frozen=True)
class IssCheckResult:
    """Both decay-rate variants of the scalar ISS estimate.

    The `derived` variant uses exp(-sigma L t) with overshoot e^{sigma L r}
    (what the per-step contraction 1/(1+hL) <= e^{-sigma h L} actually
    yields); the `printed` variant uses exp(-sigma t) with overshoot
    e^{sigma r}.  For L < 1 the printed variant is the stronger claim and
    can fail where the derived one cannot.
    """

    holds: bool
    margin: float
    holds_printed: bool
    margin_printed: float
    sigma: float
    sup_state: float


def iss_estimate_check(
    a_func: ScalarFunc,
    big_l: float,
    r: float,
    steps: Sequence[float],
    v: Sequence[float] | float,
    x0: float,
) -> IssCheckResult:
    """Simulate x(t+h) = (x(t) + h v(t)) / (1 + h a(x(t))) and test the
    ISS estimate at every node and at 8 interpolated times inside each step.

    Requires a(y) >= L on the visited states and h_i in (0, r]; violations
    raise rather than silently producing a vacuous verdict.
    """
    steps = np.asarray(steps, dtype=float)
    if steps.size == 0:
        raise ConfigurationError("need at least one step")
    if np.any(steps <= 0) or np.any(steps > r):
        raise ConfigurationError("steps must lie in (0, r]")
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), steps.shape)
    sup_v = float(np.max(np.abs(v_arr)))
    sigma = sigma_constant(r, big_l)
    gain = (1.0 + math.e) / (math.e * sigma * big_l) * sup_v

    xs = np.empty(steps.size + 1)
    xs[0] = float(x0)
    taus = np.empty(steps.size + 1)
    taus[0] = 0.0
    for k, h in enumerate(steps):
        a_val = float(a_func(xs[k]))
        if a_val < big_l - 1e-12:
            raise ConfigurationError(f"a({xs[k]}) = {a_val} undercuts L = {big_l}")
        xs[k + 1] = (xs[k] + h * v_arr[k]) / (1.0 + h * a_val)
        taus[k + 1] = taus[k] + h

    def margins(rate: float, overshoot: float) -> float:
        worst = math.inf
        init = overshoot * abs(x0)
        for k in range(steps.size + 1):
            worst = min(worst,
                        init * math.exp(-rate * taus[k]) + gain - abs(xs[k]))
            if k < steps.size:
                for j in range(1, 9):
                    w = j / 9.0
                    t = taus[k] + w * steps[k]
                    val = abs((1 - w) * xs[k] + w * xs[k + 1])
                    worst = min(worst,
                                init * math.exp(-rate * t) + gain - val)
        return worst

    m_derived = margins(sigma * big_l, math.exp(sigma * big_l * r))
    m_printed = margins(sigma, math.exp(sigma * r))
    slack = 1e-12 * max(1.0, abs(x0), sup_v)
    return IssCheckResult(
        holds=m_derived >= -slack,
        margin=m_derived,
        holds_printed=m_printed >= -slack,
        margin_printed=m_printed,
        sigma=sigma,
        sup_state=float(np.max(np.abs(xs))),
    )


# ---------------------------------------------------------------------------
# advection semi-discretization


def advection_chain(
    n: int,
    c: float,
    b_func: ScalarFunc,
    big_k: float,
    r: Optional[float] = None,
) -> CascadeSystem:
    """Backward-difference chain for transport at speed c with source b.

    Node i approximates the profile at z = i/n; the inflow boundary is
    pinned at zero, so f_1 vanishes and node i > 1 is driven by (c/dz) times
    the stale upstream value.  Requires the strict gap K * dz < c, which
    keeps every damping a_i(y) = c/dz - b(y) >= c/dz - K = L > 0.
    """
    if n < 1 or c <= 0:
        raise ConfigurationError("need n >= 1 and c > 0")
    dz = 1.0 / n
    if big_k * dz >= c:
        raise ConfigurationError(
            f"K*dz = {big_k * dz} must stay strictly below c = {c}"
        )
    big_l = c / dz - big_k
    for y in np.linspace(-10.0, 10.0, 41):
        if float(b_func(y)) > big_k + 1e-12:
            raise ConfigurationError(f"b({y}) exceeds the stated bound K={big_k}")

    ratio = c / dz

    def _b_arr(vals: Array) -> Array:
        try:
            out = np.asarray(b_func(vals), dtype=float)
            if out.shape == vals.shape:
                return out
        except Exception:
            pass
        return np.array([float(b_func(v)) for v in vals])

    def make_f(i: int):
        if i == 0:
            return lambda z, x_prev: 0.0
        return lambda z, x_prev, i=i: ratio * float(x_prev[i - 1])

    return CascadeSystem(
        n=n,
        a_funcs=[lambda y: ratio - float(b_func(y))] * n,
        f_funcs=[make_f(i) for i in range(n)],
        l_bounds=np.full(n, big_l),
        a_vec=lambda x: ratio - _b_arr(x),
        f_vec=lambda z, x: ratio * np.concatenate(([0.0], x[:-1])),
        r=r,
    )


def write_chain_csv(run: HybridTrajectory, path) -> None:
    """Rows tau,h,x_1..x_n with h = 0 on the final row."""
    cols = [f"x_{j}" for j in range(1, run.dim + 1)]
    write_csv(path, ["tau", "h", *cols], _node_rows(run))


def write_grid_csv(run: HybridTrajectory, path) -> None:
    """Space-time table tau,z_index,value (long form, one node per row)."""
    n = run.dim
    write_csv(path, ("tau", "z_index", "value"),
              zip(np.repeat(run.tau, n).tolist(),
                  np.tile(np.arange(1, n + 1), run.tau.size).tolist(),
                  run.states.ravel().tolist()))
