"""Executable acceptance criteria.

Each criterion is a check with pinned tolerances, runnable through
`run_criterion` (used by the test suite and the benchmark) or `run_all`
(used by the CLI `verify` command).  The pinned numbers live in
`AcceptanceTolerances`; no command-line input or config file changes them.
Results carry a human-readable detail string so a failure names the
measured quantity, not just a boolean.
A criterion that judges a `stabstep run` experiment takes that run from
`cli.experiment`, at the criterion's seed, and writes nothing: criteria 1
and 2 read stiff-6.14, 3 the constant-step runs, 4 boundary-4.27, 9
nlp-qp and 11 defect-orders.  The others step systems of their own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from . import cli
from .core import (ConstantController, EULER, HEUN, KUTTA3, advance,
                   linear_field)
from .lyapunov import (HalvingController, certify_trajectory, decrease_test,
                       euler_q_phi, halving_controller, linear_phi,
                       quadratic_lyapunov)
from .implicit import implicit_euler_step
from .smallgain import chain_decay_trials, iss_estimate_check
from .global_error import (_PIECE, ErrorBudget, _compliant_blocks,
                           order_reduction_exponent)
from .applications import (example_fields, max_decrease_step, nlp_flow,
                           nlp_solve)


@dataclass(frozen=True)
class AcceptanceTolerances:
    """Every pinned number the criteria compare against."""

    stiff_rel_tol: float = 1e-3
    stiff_runtime_s: float = 0.1
    big_step: float = 0.5
    min_big_steps: int = 1
    small_step: float = 2e-3
    min_small_steps: int = 100
    radius_target: float = 0.317837
    radius_atol: float = 1e-4
    decay_target: float = 1e-6
    implicit_target: float = 1e-8
    boundary_target: float = 0.5
    boundary_atol: float = 1e-6
    astab_systems: int = 20
    smallgain_runs: int = 200
    smallgain_target: float = 1e-6
    smallgain_step_cap: int = 5000
    iss_trials: int = 1000
    halving_states: int = 100
    agreement_rtol: float = 1e-12
    agreement_states: int = 100
    agreement_systems: int = 5
    nlp_atol: float = 1e-6
    nlp_random_problems: int = 3
    budget_epsilon: float = 1e-2
    budget_sequences: int = 20
    budget_horizon: float = 20.0
    order_reduction_factor: float = 3.0
    slope_margin: float = 0.2


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number} ({self.name}): {status} "
                f"[{self.seconds:.2f}s] {self.detail}")


# a check takes the tolerances, its random stream and its catalog runs' seed
CheckFn = Callable[[AcceptanceTolerances, np.random.Generator, int],
                   tuple[bool, str]]

_STIFF_TARGETS = ((0.6, 12.71372), (0.9, 3.798454))


def _check_stiff_reproduction(tol, rng, seed):
    notes = []
    ok = True
    for lam, expect in _STIFF_TARGETS:
        t0 = time.perf_counter()
        t_final = cli.experiment("stiff-6.14", {"lambda": lam},
                                 seed).value.final_time
        dt = time.perf_counter() - t0
        rel = abs(t_final - expect) / expect
        good = rel <= tol.stiff_rel_tol and dt < tol.stiff_runtime_s
        ok = ok and good
        notes.append(f"lam={lam}: t={t_final:.6f} (target {expect}, "
                     f"rel {rel:.1e}, {dt * 1e3:.0f}ms)")
    return ok, "; ".join(notes)


def _check_step_pattern(tol, rng, seed):
    traj = cli.experiment("stiff-6.14", seed=seed).value
    big = int(np.sum(traj.steps >= tol.big_step))
    small = int(np.sum(traj.steps <= tol.small_step))
    ok = big >= tol.min_big_steps and small >= tol.min_small_steps
    return ok, (f"{big} steps >= {tol.big_step} (need {tol.min_big_steps}), "
                f"{small} steps <= {tol.small_step} "
                f"(need {tol.min_small_steps})")


def _check_limit_cycle(tol, rng, seed):
    """The constant-step runs from (1, 0); each value is |x| per node."""
    notes = []
    norms = cli.experiment("f2-euler", seed=seed).value
    dev = float(np.max(np.abs(norms[norms.size // 2:] - tol.radius_target)))
    ok_radius = dev <= tol.radius_atol
    notes.append(f"f2 Euler radius dev {dev:.2e} (tol {tol.radius_atol})")

    ok_decay = True
    for key in ("f1", "f3"):
        run = cli.experiment(f"{key}-euler", seed=seed)
        best = float(np.min(run.value))
        good = best < tol.decay_target
        ok_decay = ok_decay and good
        notes.append(f"{key} Euler min|x| {best:.3e} within "
                     f"{run.params['steps']} steps "
                     f"({'<' if good else 'NOT <'} {tol.decay_target})")

    run = cli.experiment("f2-implicit", seed=seed)
    hits = np.flatnonzero(run.value < tol.implicit_target)
    ok_impl = hits.size > 0
    notes.append(f"f2 implicit |x| < {tol.implicit_target} at step {hits[0]}"
                 if ok_impl else
                 f"f2 implicit never below {tol.implicit_target} "
                 f"in {run.params['steps']} steps")

    return ok_radius and ok_decay and ok_impl, "; ".join(notes)


def _check_boundary_step(tol, rng, seed):
    sys427 = example_fields()["sys427"]
    h_star = max_decrease_step(sys427.lyap, EULER, sys427.field,
                               np.array([0.0, 1.0]), 0.5,
                               tol=tol.boundary_atol / 4.0)
    err = abs(h_star - tol.boundary_target)
    ok_point = err <= tol.boundary_atol
    sweep = cli.experiment("boundary-4.27", seed=seed).value
    curves = {name: vals for name, vals in sweep.items() if name != "x1"}
    ok_sweep = all(bool(np.all(np.isfinite(vals) & (vals > 0.0)))
                   for vals in curves.values())
    mins = [f"{name} min {float(np.min(vals)):.3g}"
            for name, vals in curves.items()]
    return ok_point and ok_sweep, (
        f"max step at (0,1) = {h_star:.8f} (err {err:.1e}); sweep "
        + ", ".join(mins)
    )


def _random_hurwitz(rng, dim):
    """Random Hurwitz A (spectral abscissa in [-1.5, -0.5]) and the P
    solving A'P + PA = -Q for a random Q > I."""
    m = rng.standard_normal((dim, dim))
    shift = float(np.max(np.linalg.eigvals(m).real)) + rng.uniform(0.5, 1.5)
    a = m - shift * np.eye(dim)
    basis = rng.standard_normal((dim, dim))
    q = basis.T @ basis + np.eye(dim)
    return a, solve_continuous_lyapunov(a.T, -q)


def _check_a_stability(tol, rng, seed):
    worst = math.inf
    for trial in range(tol.astab_systems):
        dim = 2 if trial % 2 == 0 else 4
        a, p = _random_hurwitz(rng, dim)
        if float(np.min(np.linalg.eigvalsh(p))) <= 0:
            return False, f"Lyapunov solve produced a non-SPD P (trial {trial})"
        field = linear_field(a)
        lyap = quadratic_lyapunov(p)
        for h in (0.1, 1.0, 10.0, 100.0):
            run = advance(lambda y, h: implicit_euler_step(field, y, h), None,
                          ConstantController(h),
                          rng.standard_normal(dim) * rng.uniform(0.5, 5.0),
                          math.inf, max_steps=5, stop=lambda y: False)
            for x, y in zip(run.states[:-1], run.states[1:]):
                drop = lyap(x) - lyap(y)
                worst = min(worst, drop / max(lyap(x), 1e-300))
                if not lyap(y) < lyap(x):
                    return False, (f"V failed to decrease (trial {trial}, "
                                   f"h={h}, drop {drop:.3e})")
    return True, (f"{tol.astab_systems} systems x 4 step sizes strictly "
                  f"decreasing; worst relative drop {worst:.2e}")


def _check_smallgain(tol, rng, seed):
    fails, worst_steps = chain_decay_trials(
        rng, tol.smallgain_runs, tol.smallgain_step_cap, tol.smallgain_target
    )

    # Kept apart from cli._run_iss_trials, which draws alpha before the steps.
    iss_bad = 0
    printed_bad = 0
    for _ in range(tol.iss_trials):
        big_l = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.1, 10.0))
        m = int(rng.integers(20, 120))
        steps = r * (1.0 - rng.random(m))
        alpha = float(rng.uniform(0.0, 2.0))

        def a(y, _l=big_l, _al=alpha):
            return _l * (1.0 + _al * y * y / (1.0 + y * y))

        v = rng.normal(0.0, rng.uniform(0.0, 3.0), size=m)
        res = iss_estimate_check(a, big_l, r, steps, v,
                                 float(rng.uniform(-10.0, 10.0)))
        if not res.holds:
            iss_bad += 1
        if not res.holds_printed:
            printed_bad += 1

    ok = fails == 0 and iss_bad == 0
    return ok, (f"{tol.smallgain_runs - fails}/{tol.smallgain_runs} chain "
                f"runs decayed below {tol.smallgain_target} (slowest "
                f"{worst_steps} steps); derived ISS bound held in "
                f"{tol.iss_trials - iss_bad}/{tol.iss_trials} trials "
                f"(printed variant failed {printed_bad})")


def _check_halving_soundness(tol, rng, seed):
    systems = example_fields()
    keys = ("f1", "f3", "sys427")
    doubled_checked = 0
    for i in range(tol.halving_states):
        sysd = systems[keys[i % 3]]
        x = rng.uniform(-3.0, 3.0, size=2)
        if float(np.linalg.norm(x)) < 0.1:
            x = np.array([1.0, -0.5])
        h0 = float(rng.uniform(0.5, 4.0))
        cert = halving_controller(sysd.lyap, EULER, sysd.field, x, h0, 0.5)
        recheck = decrease_test(sysd.lyap, EULER, sysd.field, x, cert.h, 0.5)
        if not recheck.accepted:
            return False, f"accepted step failed on recheck at {x}"
        if cert.halvings >= 1:
            doubled_checked += 1
            doubled = decrease_test(sysd.lyap, EULER, sysd.field, x,
                                    2.0 * cert.h, 0.5)
            if doubled.accepted:
                return False, (f"doubled step unexpectedly accepted at {x} "
                               f"(h={cert.h}, halvings={cert.halvings})")

    for key, tab in (("f1", EULER), ("f3", HEUN), ("sys427", KUTTA3)):
        sysd = systems[key]
        ctrl = HalvingController(sysd.lyap, tab, sysd.field, lam=0.5,
                                 h_init=1.0)
        traj = advance(tab, sysd.field, ctrl, np.array([1.0, 0.4]),
                       t_end=5.0)
        report = certify_trajectory(sysd.lyap, traj, 0.5, field=sysd.field)
        if not report.ok:
            return False, (f"{key}/{tab.name} trajectory failed "
                           f"re-certification at step {report.first_violation}")
    return True, (f"{tol.halving_states} states re-certified; doubled-step "
                  f"rejection checked on {doubled_checked} of them; 3 "
                  f"controller trajectories re-certified")


def _check_agreement(tol, rng, seed):
    dims = (2, 2, 3, 3, 4)
    worst = 0.0
    for trial in range(tol.agreement_systems):
        dim = dims[trial % len(dims)]
        a, p = _random_hurwitz(rng, dim)
        field = linear_field(a)
        lyap = quadratic_lyapunov(p)
        for _ in range(tol.agreement_states):
            x = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
            v1 = euler_q_phi(lyap, field, x, 0.5, 1e9)
            v2 = linear_phi(a, p, x, 0.5, 1e9)
            spread = abs(v1 - v2) / max(abs(v1), abs(v2))
            worst = max(worst, spread)
            if spread > tol.agreement_rtol:
                return False, (f"formulas disagree by rel {spread:.2e} "
                               f"at dim={dim}")
    return True, (f"{tol.agreement_systems} systems x "
                  f"{tol.agreement_states} states agree; worst relative "
                  f"spread {worst:.1e}")


def _check_nlp_convergence(tol, rng, seed):
    notes = []
    target = np.array([0.5, 0.5, -0.5])
    res = cli.experiment("nlp-qp", seed=seed).value
    dist = float(np.linalg.norm(res.w - target))
    v_mono = bool(np.all(np.diff(res.v_history) < 0))
    ok = dist <= tol.nlp_atol and v_mono and res.certified
    notes.append(f"pinned QP: dist {dist:.2e} in {res.iterations} iters, "
                 f"V monotone {v_mono}")

    for k in range(tol.nlp_random_problems):
        # Redraw until the KKT matrix is comfortably invertible: the flow
        # contracts at the rate of the smallest squared eigenvalue, so a
        # near-singular draw would need an unbounded iteration budget even
        # though it still converges.
        while True:
            basis = rng.standard_normal((3, 3))
            q = basis.T @ basis + np.eye(3)
            c = rng.standard_normal(3)
            a = rng.standard_normal((1, 3))
            b = rng.standard_normal(1)
            kkt = np.block([[q, a.T], [a, np.zeros((1, 1))]])
            mu_min = float(np.min(np.abs(np.linalg.eigvalsh(kkt)))) ** 2
            if mu_min >= 0.09:
                break
        flow_k = nlp_flow(q, c, a, b)
        # |F(w)| >= mu_min |w - w*|, so this residual target implies the
        # distance target with a factor-2 margin.
        res_k = nlp_solve(flow_k, np.zeros(4), lam=0.5, r=1.0,
                          tol=0.5 * tol.nlp_atol * mu_min)
        dist_k = float(np.linalg.norm(res_k.w - flow_k.kkt_point))
        mono_k = bool(np.all(np.diff(res_k.v_history) < 0))
        good = dist_k <= tol.nlp_atol and mono_k and res_k.certified
        ok = ok and good
        notes.append(f"QP{k + 1}: dist {dist_k:.2e} in "
                     f"{res_k.iterations} iters")
    return ok, "; ".join(notes)


def _euler_decay_errors(
    pieces: Iterable[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Worst node error of Euler on x' = -x from x0 = 1 for given steps.

    The steps arrive as pairs (steps, neg_tau) of consecutive steps and the
    negated exact clock after each, as `_compliant_blocks` yields them, so
    no full-length array is ever built.  The result is bit for bit that of
    one cumprod over the joined sequence: numpy accumulates sequentially,
    so element k of a whole-array cumprod is ((1 - s0) (1 - s1)) ...
    (1 - sk), and seeding a piece's first element with the carried node,
    x * (1 - s0), continues exactly that chain of roundings.  The nodes go
    into one work array, reused from piece to piece and grown only for a
    longer one; the errors are formed in neg_tau itself, which the pieces'
    producer overwrites with its next piece anyway.
    Node 0 contributes |exp(0) - 1| = 0, the initial value of the running
    max, which propagates a NaN from any piece as the whole-array max does.
    """
    x, worst = 1.0, 0.0
    xs = np.empty(0)
    for steps, neg_tau in pieces:
        n = steps.size
        if n == 0:
            continue
        if xs.size < n:
            xs = np.empty(n)
        x_run = xs[:n]
        np.subtract(1.0, steps, out=x_run)
        x_run[0] *= x
        np.cumprod(x_run, out=x_run)
        x = float(x_run[-1])
        e = np.exp(neg_tau, out=neg_tau)
        np.subtract(e, x_run, out=e)
        np.abs(e, out=e)
        worst = float(np.maximum(worst, np.max(e)))
    return worst


def _constant_pieces(h: float, count: int):
    """`count` steps h as (steps, neg_tau) pieces of at most 2**14 steps.

    neg_tau is the negated running sum of the steps, chained across
    pieces: seeding a piece's first sum with the carried clock continues
    numpy's sequential cumsum, so the pieces join to -np.cumsum over the
    whole sequence bit for bit.  Both arrays are reused from piece to
    piece, as `_compliant_blocks` reuses its own.
    """
    steps = np.full(min(count, _PIECE), h)
    neg_tau = np.empty(steps.size)
    tau = 0.0
    for lo in range(0, count, _PIECE):
        t = neg_tau[:min(_PIECE, count - lo)]
        t.fill(h)
        t[0] += tau
        np.cumsum(t, out=t)
        tau = float(t[-1])
        np.negative(t, out=t)
        yield steps[:t.size], t


def _check_error_budget(tol, rng, seed):
    budget = ErrorBudget(
        epsilon=tol.budget_epsilon, sigma=1.0, lam=0.5,
        a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5, p=1, x0_norm=1.0,
    )
    worst = 0.0
    for _ in range(tol.budget_sequences):
        blocks = _compliant_blocks(budget, 1.0, tol.budget_horizon, rng)
        worst = max(worst, _euler_decay_errors(blocks))
    ok_budget = worst <= tol.budget_epsilon

    # order-reduction exponent of the horizon-free bound, vs measured decay
    target = order_reduction_exponent(replace(budget, lam=0.9))
    sups = []
    hs = (1e-1, 1e-2, 1e-3)
    for h in hs:
        sups.append(_euler_decay_errors(
            _constant_pieces(h, int(round(50.0 / h)))))
    slope = float(np.polyfit(np.log(hs), np.log(sups), 1)[0])
    ratio = slope / target
    ok_order = (1.0 / tol.order_reduction_factor
                <= ratio <= tol.order_reduction_factor)
    return ok_budget and ok_order, (
        f"worst node error {worst:.2e} over {tol.budget_sequences} "
        f"compliant sequences (budget {tol.budget_epsilon}); measured "
        f"error exponent {slope:.3f} vs bound exponent {target:.3f} "
        f"(ratio {ratio:.2f}, allowed factor {tol.order_reduction_factor})"
    )


def _check_consistency_orders(tol, rng, seed):
    ok = True
    notes = []
    for tab, _, _, slope in cli.experiment("defect-orders", seed=seed).value:
        good = slope >= tab.order - tol.slope_margin
        ok = ok and good
        notes.append(f"{tab.name} slope {slope:.2f} (order {tab.order})")
    return ok, "; ".join(notes)


CRITERIA: tuple[tuple[int, str, CheckFn], ...] = (
    (1, "stiff reproduction", _check_stiff_reproduction),
    (2, "step pattern", _check_step_pattern),
    (3, "limit-cycle oracle", _check_limit_cycle),
    (4, "boundary step", _check_boundary_step),
    (5, "a-stability", _check_a_stability),
    (6, "small-gain robustness", _check_smallgain),
    (7, "halving soundness", _check_halving_soundness),
    (8, "controller agreement", _check_agreement),
    (9, "nlp convergence", _check_nlp_convergence),
    (10, "error-budget validity", _check_error_budget),
    (11, "consistency orders", _check_consistency_orders),
)


def run_criterion(
    number: int,
    tolerances: Optional[AcceptanceTolerances] = None,
    seed: int = 20240501,
) -> CriterionResult:
    tolerances = tolerances or AcceptanceTolerances()
    for num, name, fn in CRITERIA:
        if num == number:
            rng = np.random.default_rng(np.random.SeedSequence([seed, num]))
            t0 = time.perf_counter()
            passed, detail = fn(tolerances, rng, seed)
            return CriterionResult(num, name, passed, detail,
                                   time.perf_counter() - t0)
    raise KeyError(f"no criterion numbered {number}")


def run_all(
    name_filter: Optional[str] = None,
    seed: int = 20240501,
) -> list[CriterionResult]:
    """Run every criterion whose number or name matches the filter."""
    probe = None if name_filter is None else name_filter.strip().lower()
    return [run_criterion(num, seed=seed) for num, name, _ in CRITERIA
            if probe is None or probe in name.lower() or probe == str(num)]

