"""Partitioned stepping for cascade systems and the advection chain.

Each chain node is advanced by the semi-implicit closed form

    x_i(t+h) = (x_i(t) + h f_i(x_1(t), ..., x_{i-1}(t)))
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
    """Cascade of n damped scalar nodes.

    Both callables map the whole pre-step state x of shape (n,) to shape
    (n,): a_vec(x)[i] is the damping a_{i+1}(x_{i+1}) of node i+1, and
    f_vec(x)[i] its coupling f_{i+1}(x_1, ..., x_i), which reads only the
    nodes upstream of it.  l_bounds[i] is a positive lower bound on
    a_vec(x)[i].  r, when set, caps the step size.
    """

    n: int
    l_bounds: Array
    a_vec: Callable[[Array], Array]
    f_vec: Callable[[Array], Array]
    r: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("chain needs at least one node")
        l = np.asarray(self.l_bounds, dtype=float)
        if l.shape != (self.n,) or not np.all(l > 0):
            raise ConfigurationError("l_bounds must be n positive scalars")
        object.__setattr__(self, "l_bounds", l)


def partitioned_step(sys: CascadeSystem, x: Array, h: float) -> Array:
    """One semi-implicit chain update of every node from the pre-step x."""
    if h <= 0:
        raise ConfigurationError("step must be positive")
    if sys.r is not None and h > sys.r:
        raise ConfigurationError(f"step {h} exceeds the chain bound r={sys.r}")
    x = np.asarray(x, dtype=float)
    return (x + h * sys.f_vec(x)) / (1.0 + h * sys.a_vec(x))


def advance_chain(
    sys: CascadeSystem, x0: Array, steps: Sequence[float]
) -> HybridTrajectory:
    """Apply partitioned_step once per given step."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ConfigurationError("x0 must match the chain length")
    steps = np.asarray(steps, dtype=float)
    states = np.empty((steps.size + 1, sys.n))
    states[0] = x
    taus = np.empty(steps.size + 1)
    taus[0] = 0.0
    for k, h in enumerate(steps.tolist()):
        x = partitioned_step(sys, x, h)
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
            x = partitioned_step(chain, x, 10.0 * (1.0 - rng.random()))
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

    Requires finite x0 and v, a(y) >= L on the visited states and h_i in
    (0, r]; violations, a NaN anywhere among them included, raise rather
    than silently producing a vacuous verdict.  So does an estimate that
    overflows to a non-finite margin.

    Both variants share one sample grid: the nodes (tau_k, |x_k|) and, for
    w = j/9 with j = 1..8, (tau_k + w h_k, |(1-w) x_k + w x_{k+1}|).  Each
    margin is min(init e^{-rate t} + gain - |x(t)|) over that grid, with
    numpy doing the arithmetic and the min.  The factor e^{-rate t} comes
    from math.exp per sample: np.exp differs from it in the last bit on a
    few percent of arguments, and math.exp keeps every margin and verdict
    identical to the sample-by-sample evaluation.
    """
    steps = np.asarray(steps, dtype=float)
    if steps.size == 0:
        raise ConfigurationError("need at least one step")
    if not np.all((steps > 0) & (steps <= r)):
        raise ConfigurationError("steps must lie in (0, r]")
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), steps.shape)
    x0 = float(x0)
    if not (math.isfinite(x0) and np.all(np.isfinite(v_arr))):
        raise ConfigurationError("x0 and v must be finite")
    sup_v = float(np.max(np.abs(v_arr)))
    sigma = sigma_constant(r, big_l)
    gain = (1.0 + math.e) / (math.e * sigma * big_l) * sup_v

    xs = [x0]
    taus = [0.0]
    for h, v_k in zip(steps.tolist(), v_arr.tolist()):
        a_val = float(a_func(xs[-1]))
        if not a_val >= big_l - 1e-12:
            raise ConfigurationError(
                f"a({xs[-1]}) = {a_val} undercuts L = {big_l}")
        xs.append((xs[-1] + h * v_k) / (1.0 + h * a_val))
        taus.append(taus[-1] + h)
    xs = np.array(xs)
    taus = np.array(taus)

    w = np.arange(1, 9) / 9.0
    grid_t = np.concatenate(
        [taus, (taus[:-1, None] + w * steps[:, None]).ravel()])
    grid_val = np.concatenate([
        np.abs(xs),
        np.abs((1 - w) * xs[:-1, None] + w * xs[1:, None]).ravel(),
    ])

    def margins(rate: float, overshoot: float) -> float:
        init = overshoot * abs(x0)
        decay = np.fromiter(map(math.exp, (-rate * grid_t).tolist()),
                            dtype=float, count=grid_t.size)
        return float(np.min(init * decay + gain - grid_val))

    m_derived = margins(sigma * big_l, math.exp(sigma * big_l * r))
    m_printed = margins(sigma, math.exp(sigma * r))
    if not (math.isfinite(m_derived) and math.isfinite(m_printed)):
        raise ConfigurationError("ISS estimate overflows for these inputs")
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
    return CascadeSystem(
        n=n,
        l_bounds=np.full(n, big_l),
        a_vec=lambda x: ratio - np.array([float(b_func(v)) for v in x]),
        f_vec=lambda x: ratio * np.concatenate(([0.0], x[:-1])),
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
