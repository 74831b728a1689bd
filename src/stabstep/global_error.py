"""Global discretization error: measurement, bounds, and the budget step rule.

The deviation e(tau) between the exact flow and the hybrid numerical
trajectory admits two bounds in terms of the running defect supremum D:
a finite-horizon bound (D/L)(e^{L tau} - 1) and a horizon-free bound
(D/L)^{ls/(ls+L)} (2a(|x0|))^{L/(ls+L)} with l the decrease fraction and
s the exact decay rate.  Inverting the latter for a target eps yields a
step rule that loosens as tau grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import (
    Array,
    ButcherTableau,
    ConfigurationError,
    EULER,
    HEUN,
    HybridTrajectory,
    IMPROVED_POLYGON,
    KUTTA3,
    VectorField,
    _chunked,
    reference_at_times,
    reference_solve,
    rk_increment,
    write_csv,
)
from .lyapunov import check_lam


@dataclass(frozen=True)
class ErrorBudget:
    """Constants of the error-budget rule for one initial condition.

    a_gain is the K-infinity envelope gain of the exact flow,
    l_of_x0 the increment Lipschitz constant, k_of_x0 the defect constant
    (|defect| <= K h^p), p the scheme order, x0_norm the initial-state norm
    the gain is evaluated at.  lam must lie in (0, 1), p must be a positive
    integer and the other constants must be positive and finite, except
    epsilon, which may be inf: no accuracy target, so error_budget_step
    returns its cap.
    """

    epsilon: float
    sigma: float
    lam: float
    a_gain: Callable[[float], float]
    l_of_x0: float
    k_of_x0: float
    p: int
    x0_norm: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")
        for name in ("sigma", "l_of_x0", "k_of_x0", "x0_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        check_lam(self.lam)
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ConfigurationError("p must be a positive integer")
        if float(self.a_gain(0.0)) != 0.0:
            raise ConfigurationError("a_gain(0) must be 0")

    @property
    def q(self) -> float:
        return self.l_of_x0 / self.sigma


def global_error(traj: HybridTrajectory, field: VectorField) -> Array:
    """Norms |z(tau_i) - x_i| against the reference flow at every node."""
    z = reference_at_times(field, traj.states[0], traj.tau)
    return np.linalg.norm(z - traj.states, axis=1)


def error_bound_finite_time(budget: ErrorBudget, d_i: float, tau: float) -> float:
    """Horizon-dependent bound (D/L)(e^{L tau} - 1), for tau in [0, inf)."""
    if not d_i >= 0:
        raise ConfigurationError("defect supremum must be nonnegative")
    if not 0.0 <= tau < math.inf:
        raise ConfigurationError("tau must lie in [0, inf)")
    big_l = budget.l_of_x0
    return (d_i / big_l) * math.expm1(big_l * tau)


def error_bound(budget: ErrorBudget, d_i: float) -> float:
    """Horizon-free bound (D/L)^{ls/(ls+L)} (2a(|x0|))^{L/(ls+L)}, which
    holds uniformly in time."""
    if not d_i >= 0:
        raise ConfigurationError("defect supremum must be nonnegative")
    if d_i == 0.0:
        return 0.0
    alpha = order_reduction_exponent(budget)
    amp = 2.0 * float(budget.a_gain(budget.x0_norm))
    return (d_i / budget.l_of_x0) ** alpha * amp ** (1.0 - alpha)


def order_reduction_exponent(budget: ErrorBudget) -> float:
    """The h-exponent ls/(ls + L) the horizon-free bound scales with."""
    ls = budget.lam * budget.sigma
    return ls / (ls + budget.l_of_x0)


def error_budget_step(budget: ErrorBudget, tau_i: float, phi_at_x: float) -> float:
    """Step rule keeping |e(tau_i)| <= epsilon, capped by phi.

    min( (2L/K)^{1/p} e^{(sigma/p) tau} (2 a(|x0|)/eps)^{-(q+lam)/(p lam)},
         phi ); monotone increasing in tau.  A rule too large for a float
    exceeds every finite cap, so phi is returned, as for eps = inf.  A
    tau_i outside [0, inf) and a phi that is not positive and finite are
    refused.
    """
    if not 0.0 < phi_at_x < math.inf:
        raise ConfigurationError("phi cap must be positive and finite")
    if not 0.0 <= tau_i < math.inf:
        raise ConfigurationError("tau_i must lie in [0, inf)")
    big_l, big_k, p = budget.l_of_x0, budget.k_of_x0, budget.p
    ratio = 2.0 * float(budget.a_gain(budget.x0_norm)) / budget.epsilon
    if ratio <= 0.0:
        return phi_at_x
    expo = -(budget.q + budget.lam) / (p * budget.lam)
    try:
        rule = ((2.0 * big_l / big_k) ** (1.0 / p)
                * math.exp(budget.sigma * tau_i / p)
                * ratio ** expo)
    except OverflowError:
        return phi_at_x
    return min(rule, phi_at_x)


def defect(
    field: VectorField, tableau: ButcherTableau, x: Array, h: float
) -> float:
    """Local defect norm |(z(h,x) - x)/h - F(h,x)|, with z to 1e-13."""
    if not h > 0:
        raise ConfigurationError("defect needs h > 0")
    x = np.asarray(x, dtype=float)
    z = reference_solve(field, x, h, 1e-13)
    d = (z - x) / h - rk_increment(tableau, field, x, h)
    return math.sqrt(d.dot(d))  # numpy's 1-D norm, bit for bit


def defect_orders(field: VectorField, x: Array) -> list[tuple]:
    """Defects at x over a step grid per explicit scheme, with slopes.

    Returns (tableau, steps, defects, slope) per scheme, the slope being
    the least-squares fit of log defect against log h, which approaches
    the scheme's order for a smooth field.
    """
    out = []
    for tab, hs in ((EULER, np.logspace(-4, -1, 7)),
                    (HEUN, np.logspace(-3, -1, 5)),
                    (IMPROVED_POLYGON, np.logspace(-3, -1, 5)),
                    (KUTTA3, np.logspace(-2.5, -1, 4))):
        ds = [defect(field, tab, x, float(h)) for h in hs]
        slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
        out.append((tab, hs, ds, slope))
    return out


# steps per piece: at 2**14 the buffers, 512 KB, are reused without page
# faults from one sequence to the next; at 2**15 they were not
_PIECE = 1 << 14
_MAX_BLOCK_DRAWS = 1 << 31
# bit generators whose `advance(n)` moves past exactly n doubles
_SKIPPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _compliant_blocks(
    budget: ErrorBudget,
    phi_cap: float,
    t_end: float,
    rng: np.random.Generator,
) -> Iterator[tuple[Array, Array]]:
    """The steps of `compliant_steps` with their clock, in pieces.

    Yields pairs (steps, neg_tau) of at most 2**14 consecutive steps and
    the negated exact clock after each, -tau[i+1] with
    tau[i+1] = tau[i] + h[i] chained from tau[0] = 0 over the whole
    sequence.  Both are views into buffers this generator reuses, valid
    until the next item is requested.

    A block draws n = ceil(0.05 / (0.5 bound)) + 1 uniforms but keeps only
    the steps up to the block's end, about two thirds of them.  Here only
    those are drawn, in chunks sized at the expected kept count; the chained
    sums carry across chunks exactly, because numpy accumulates
    sequentially.  The rest of the n are skipped: PCG64 and PCG64DXSM take
    one state step per double, so `bit_generator.advance` skips them,
    unless half of a 32-bit draw is still buffered (`has_uint32`), which
    `advance` would drop.  Doubles never touch that buffer, so the state is
    read once, when the generator starts.  `advance` also zeroes the spent
    half-word `uinteger`, which is put back once, when the generator
    finishes or is closed.  Any other generator draws the unused doubles
    and discards them.
    Consumed to the end, with nothing else drawing from `rng` meanwhile,
    the steps and the generator's state are bit for bit those of drawing
    `bound * rng.uniform(0.5, 1.0, n)` per block.  One complex cumsum runs
    both sums: its real part is the block's partial sum, whose
    tau + cumsum places the block's end, and its imaginary part is -tau.

    Refuses, before drawing, a rule step that is not positive and a block
    that would need more than 2**31 draws.
    """
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(
            f"compliant steps need a horizon 0 < t_end < inf, got {t_end}"
        )
    bitgen = rng.bit_generator
    state = bitgen.state if type(bitgen) in _SKIPPABLE else None
    skip = state is not None and not state["has_uint32"]
    try:
        steps = np.empty(_PIECE)
        sums = np.empty(_PIECE, dtype=complex)
        neg_tau = np.empty(_PIECE)
        tau = 0.0       # start of the block, on the rule's clock
        clock = 0.0     # the exact clock, negated
        while tau < t_end:
            bound = error_budget_step(budget, tau, phi_cap)
            if not bound > 0.0:
                raise ConfigurationError(
                    f"error-budget step at tau={tau!r} is {bound!r}; "
                    "compliant steps need a positive step"
                )
            block_end = min(tau + 0.05, t_end)
            half = 0.5 * bound
            per_half = (block_end - tau) / half if half > 0.0 else math.inf
            if per_half > _MAX_BLOCK_DRAWS - 1:
                raise ConfigurationError(
                    f"error-budget step {bound!r} at tau={tau!r} needs "
                    "more than 2**31 draws for one block"
                )
            n_est = max(1, int(math.ceil(per_half)) + 1)
            # rule time reached: tau plus the block's partial sum
            drawn, partial, reached = 0, 0.0, tau
            while True:
                expected = (block_end - reached) / (0.75 * bound)
                m = min(_PIECE, n_est - drawn, int(expected * 1.01) + 16)
                d, z = steps[:m], sums[:m]
                rng.random(out=d)
                d *= 0.5
                d += 0.5
                d *= bound          # bound * uniform(0.5, 1.0), bit for bit
                z.real = d
                np.negative(d, out=z.imag)
                z[0] += complex(partial, clock)
                z.cumsum(out=z)
                drawn += m
                reached = tau + float(z.real[-1])
                if reached < block_end and drawn < n_est:
                    partial, clock = float(z.real[-1]), float(z.imag[-1])
                    np.copyto(neg_tau[:m], z.imag)
                    yield d, neg_tau[:m]
                    continue
                times = np.add(z.real, tau, out=neg_tau[:m])
                keep = min(int(times.searchsorted(block_end)) + 1, m)
                reached = float(times[keep - 1])
                clock = float(z.imag[keep - 1])
                np.copyto(neg_tau[:keep], z.imag[:keep])
                unused = n_est - drawn
                if skip:
                    bitgen.advance(unused)
                else:
                    buf = sums.view(float)
                    for lo in range(0, unused, buf.size):
                        rng.random(out=buf[:min(unused - lo, buf.size)])
                yield d[:keep], neg_tau[:keep]
                break
            tau = reached
    finally:
        if skip and state["uinteger"]:
            spent, state = state["uinteger"], bitgen.state
            state["uinteger"] = spent
            bitgen.state = state


def compliant_steps(
    budget: ErrorBudget,
    phi_cap: float,
    t_end: float,
    rng: np.random.Generator,
) -> Array:
    """Random step sequence with every h_i within the budget rule at tau_i.

    Steps are generated in blocks of 0.05 time units: the rule bound is
    frozen at the block's start time and scaled by uniform draws from
    [0.5, 1).  Because the rule is monotone increasing in tau, the frozen
    bound stays admissible for every step inside the block.  The horizon
    must satisfy 0 < t_end < inf.

    Each block draws only the steps it keeps.  With a PCG64 or PCG64DXSM
    generator the unused draws of the block's fixed count are skipped by
    `advance`; any other generator, or a PCG64 holding half of a 32-bit
    draw, draws them and discards them.  Either way the steps and the
    generator's final state are those of drawing the full count.
    """
    return np.concatenate([steps.copy() for steps, _ in
                           _compliant_blocks(budget, phi_cap, t_end, rng)])


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-node error audit as columns: tau (the trajectory's), e_norm
    (global_error's) and bounds, 24 bytes per node for bound_7_4, bound_7_6
    and rule_step.  rows builds row tuples when asked, to_csv 4,096 at once."""

    tau: Array
    e_norm: Array
    bounds: Array
    max_error: float
    bounds_hold: bool

    def _rows(self):
        return _chunked(self.tau.size, lambda part: zip(
            self.tau[part].tolist(), self.e_norm[part].tolist(),
            *self.bounds[part].T.tolist()))

    @property
    def rows(self) -> tuple:
        return tuple(self._rows())

    def to_csv(self, path) -> None:
        write_csv(path, ("tau", "e_norm", "bound_7_4", "bound_7_6", "rule_step"),
                  self._rows())


def error_report(
    traj: HybridTrajectory,
    field: VectorField,
    tableau: ButcherTableau,
    budget: ErrorBudget,
    phi_cap: float,
) -> ErrorReport:
    """Measure the error at every node and tabulate it against both bounds
    and the rule value; bounds use the running defect supremum."""
    errors = global_error(traj, field)
    bounds = np.empty((traj.tau.size, 3))
    d_sup = 0.0
    ok = True
    for i in range(traj.tau.size):
        tau_i = float(traj.tau[i])
        if i > 0:
            h_prev = float(traj.steps[i - 1])
            d_sup = max(
                d_sup, defect(field, tableau, traj.states[i - 1], h_prev)
            )
        b4 = error_bound_finite_time(budget, d_sup, tau_i)
        b6 = error_bound(budget, d_sup)
        rule = error_budget_step(budget, tau_i, phi_cap)
        e_i = float(errors[i])
        if e_i > b4 + 1e-9 * max(1.0, b4):
            ok = False
        bounds[i] = b4, b6, rule
    return ErrorReport(traj.tau, errors, bounds,
                       max_error=float(np.max(errors)), bounds_hold=ok)
