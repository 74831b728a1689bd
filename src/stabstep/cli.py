"""Command-line front end: named experiments and the acceptance suite.

Usage:
    stabstep run <experiment> [--param value ...] [--out DIR] [--seed N]
    stabstep run --config FILE [--out DIR] [--seed N]
    stabstep run --list
    stabstep verify [--filter TEXT] [--seed N]

Exit codes: 0 success, 1 experiment or criterion failure, 2 usage error,
which includes a negative seed.
Config files are flat INI: each section names an experiment and its keys
override that experiment's defaults; a [global] section may set out/seed,
which --out/--seed override.  `verify` takes no config file: its
tolerances are the pinned `acceptance.AcceptanceTolerances`.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import acceptance
from .core import (
    ConstantController,
    EULER,
    HEUN,
    HybridTrajectory,
    IMPLICIT_EULER,
    advance,
    linear_field,
    write_csv,
    write_trajectory_csv,
)
from .lyapunov import (
    HalvingController,
    certify_trajectory,
    quadratic_lyapunov,
)
from .smallgain import advance_chain, advection_chain, chain_decay_trials, \
    iss_estimate_check, write_chain_csv, write_grid_csv
from .global_error import ErrorBudget, compliant_steps, defect_orders, \
    error_report
from .applications import (
    STIFF_A,
    STIFF_P,
    boundary_sweep,
    example_fields,
    nlp_flow,
    nlp_solve,
    quadratic_objective,
    stiff_experiment,
    write_steps_csv,
    write_sweep_csv,
)

Runner = Callable[[dict, Path, np.random.Generator], str]

_DEFAULT_SEED = 20240501


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    defaults: dict
    runner: Runner


def _write_standard(traj: HybridTrajectory, out: Path, name: str,
                    report=None) -> None:
    write_trajectory_csv(traj, out / f"{name}-trajectory.csv")
    write_steps_csv(traj, out / f"{name}-steps.csv")
    if report is not None:
        report.to_csv(out / f"{name}-certification.csv")


def _run_stiff(params, out, rng):
    lam = float(params["lambda"])
    r = float(params["r"])
    steps = int(params["steps"])
    traj, t_final = stiff_experiment(lam, r, (1.0, 1.1), steps)
    lyap = quadratic_lyapunov(STIFF_P)
    report = certify_trajectory(lyap, traj, lam, field=linear_field(STIFF_A))
    _write_standard(traj, out, "stiff-6.14", report)
    big = int(np.sum(traj.steps >= 0.5))
    small = int(np.sum(traj.steps <= 2e-3))
    return (f"t_final={t_final:.6f} final_norm="
            f"{float(np.linalg.norm(traj.final_state)):.6e} "
            f"certified={report.ok} big_steps={big} small_steps={small}")


def _constant_run(key: str, tableau, params, out, rng, name: str) -> tuple:
    system = example_fields()[key]
    h = float(params["h"])
    steps = int(params["steps"])
    traj = advance(tableau, system.field, ConstantController(h),
                   np.array([1.0, 0.0]), math.inf, max_steps=steps)
    _write_standard(traj, out, name)
    return system, traj


def _first_below(norms, level: float) -> int:
    below = np.nonzero(norms < level)[0]
    return int(below[0]) if below.size else -1


def _run_f1_euler(params, out, rng):
    _, traj = _constant_run("f1", EULER, params, out, rng, "f1-euler")
    norms = np.linalg.norm(traj.states, axis=1)
    return (f"final_norm={norms[-1]:.6e} "
            f"first_below_1e-6={_first_below(norms, 1e-6)} "
            f"certificate=none")


def _run_f3_euler(params, out, rng):
    _, traj = _constant_run("f3", EULER, params, out, rng, "f3-euler")
    norms = np.linalg.norm(traj.states, axis=1)
    return (f"final_norm={norms[-1]:.6e} min_norm={float(np.min(norms)):.6e} "
            f"certificate=none")


def _run_f2_euler(params, out, rng):
    _, traj = _constant_run("f2", EULER, params, out, rng, "f2-euler")
    norms = np.linalg.norm(traj.states, axis=1)
    tail = norms[norms.size // 2:]
    return (f"limit_radius={float(np.mean(tail)):.6f} "
            f"radius_spread={float(np.max(tail) - np.min(tail)):.2e} "
            f"certificate=none")


def _run_f2_heun(params, out, rng):
    _, traj = _constant_run("f2", HEUN, params, out, rng, "f2-heun")
    norms = np.linalg.norm(traj.states, axis=1)
    tail = norms[norms.size // 2:]
    return (f"liminf_norm={float(np.min(tail)):.6f} "
            f"final_norm={norms[-1]:.6f} certificate=none")


def _run_f2_implicit(params, out, rng):
    _, traj = _constant_run("f2", IMPLICIT_EULER, params, out, rng,
                            "f2-implicit")
    norms = np.linalg.norm(traj.states, axis=1)
    return (f"final_norm={norms[-1]:.3e} "
            f"first_below_1e-8={_first_below(norms, 1e-8)} certificate=none")


def _run_boundary(params, out, rng):
    lam = float(params["lambda"])
    points = int(params["points"])
    sweep = boundary_sweep(lam=lam, n_points=points,
                           tol=float(params["tol"]))
    write_sweep_csv(sweep, out / "boundary-4.27-sweep.csv")
    mid = points // 2
    return (f"euler_step_at_origin_row={sweep['euler'][mid]:.8f} "
            f"schemes={len(sweep) - 1} points={points}")


def _run_advection(params, out, rng):
    n = int(params["n"])
    c = float(params["c"])
    big_k = float(params["k"])
    h = float(params["h"])
    n_steps = int(params["steps"])

    def b(y):
        return big_k * math.cos(y)

    chain = advection_chain(n, c, b, big_k, r=None)
    run = advance_chain(chain, np.ones(n), np.full(n_steps, h))
    write_chain_csv(run, out / "advection-chain.csv")
    write_grid_csv(run, out / "advection-grid.csv")
    return (f"final_sup={run.final_sup:.6e} t_end={run.tau[-1]:.4f} "
            f"nodes={n}")


def _run_smallgain_trials(params, out, rng):
    runs = int(params["runs"])
    fails, worst = chain_decay_trials(rng, runs, int(params["cap"]), 1e-6)
    return f"runs={runs} failures={fails} slowest_decay_steps={worst}"


def _run_iss_trials(params, out, rng):
    trials = int(params["trials"])
    held = 0
    printed_held = 0
    min_margin = math.inf
    # Kept apart from acceptance._check_smallgain, which draws alpha last.
    for _ in range(trials):
        big_l = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.1, 10.0))
        m = int(rng.integers(20, 120))
        alpha = float(rng.uniform(0.0, 2.0))

        def a(y, _l=big_l, _al=alpha):
            return _l * (1.0 + _al * y * y / (1.0 + y * y))

        res = iss_estimate_check(
            a, big_l, r, r * (1.0 - rng.random(m)),
            rng.normal(0.0, rng.uniform(0.0, 3.0), size=m),
            float(rng.uniform(-10.0, 10.0)),
        )
        held += int(res.holds)
        printed_held += int(res.holds_printed)
        min_margin = min(min_margin, res.margin)
    return (f"derived_held={held}/{trials} printed_held={printed_held}/"
            f"{trials} min_derived_margin={min_margin:.3e}")


def _run_nlp_qp(params, out, rng):
    lam = float(params["lambda"])
    tol = float(params["tol"])
    flow = nlp_flow(quadratic_objective(np.eye(2), np.zeros(2)),
                    np.array([[1.0, 1.0]]), np.array([1.0]))
    res = nlp_solve(flow, np.zeros(3), lam=lam, r=1.0, tol=tol)
    _write_standard(res.trajectory, out, "nlp-qp")
    dist = float(np.linalg.norm(res.w - flow.kkt_point))
    return (f"iterations={res.iterations} residual={res.residual:.3e} "
            f"kkt_distance={dist:.3e} certified={res.certified}")


def _run_error_budget(params, out, rng):
    eps = float(params["epsilon"])
    t_end = float(params["t_end"])
    budget = ErrorBudget(epsilon=eps, sigma=1.0, lam=0.5,
                         a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5,
                         p=1, x0_norm=1.0)
    steps = compliant_steps(budget, 1.0, t_end, rng)
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    states = np.concatenate([[1.0], np.cumprod(1.0 - steps)])[:, None]
    traj = HybridTrajectory(tau=taus, states=states, steps=steps)
    field = linear_field(np.array([[-1.0]]))
    report = error_report(traj, field, EULER, budget, phi_cap=1.0)
    report.to_csv(out / "error-budget-report.csv")
    write_trajectory_csv(traj, out / "error-budget-trajectory.csv")
    return (f"steps={steps.size} max_error={report.max_error:.3e} "
            f"epsilon={eps} finite_time_bound_held={report.bounds_hold}")


def _run_defect_orders(params, out, rng):
    system = example_fields()["sys427"]
    rows = []
    slopes = []
    for tab, hs, ds, slope in defect_orders(system.field, np.array([1.2, 0.8])):
        rows += [(tab.name, h, d) for h, d in zip(hs.tolist(), ds)]
        slopes.append(f"{tab.name}={slope:.2f}")
    write_csv(out / "defect-orders.csv", ("scheme", "h", "defect"), rows)
    return "slopes " + " ".join(slopes)


def _run_halving_f1(params, out, rng):
    system = example_fields()["f1"]
    lam = float(params["lambda"])
    ctrl = HalvingController(system.lyap, EULER, system.field, lam=lam,
                             h_init=float(params["h_init"]))
    traj = advance(EULER, system.field, ctrl, np.array([1.0, 0.0]),
                   t_end=float(params["t_end"]))
    report = certify_trajectory(system.lyap, traj, lam, field=system.field)
    _write_standard(traj, out, "halving-f1", report)
    halvings = sum(c.halvings for c in traj.certificates)
    return (f"steps={traj.steps.size} certified={report.ok} "
            f"total_halvings={halvings} "
            f"final_norm={float(np.linalg.norm(traj.final_state)):.3e}")


CATALOG: tuple[Experiment, ...] = (
    Experiment("stiff-6.14", "stiff linear pair under the closed-form step law",
               {"lambda": 0.6, "r": 1.0, "steps": 500}, _run_stiff),
    Experiment("f1-euler", "linear spiral, explicit Euler, constant step",
               {"h": 0.2, "steps": 10000}, _run_f1_euler),
    Experiment("f2-euler", "cubic-damped rotation, explicit Euler limit cycle",
               {"h": 0.2, "steps": 20000}, _run_f2_euler),
    Experiment("f2-heun", "cubic-damped rotation under Heun's scheme",
               {"h": 0.2, "steps": 20000}, _run_f2_heun),
    Experiment("f2-implicit", "cubic-damped rotation, implicit Euler rescue",
               {"h": 0.2, "steps": 2000}, _run_f2_implicit),
    Experiment("f3-euler", "algebraically decaying spiral, explicit Euler",
               {"h": 0.2, "steps": 10000}, _run_f3_euler),
    Experiment("boundary-4.27", "max accepted step sweep for four schemes",
               {"lambda": 0.5, "points": 201, "tol": 1e-6}, _run_boundary),
    Experiment("advection", "semi-implicit transport chain",
               {"n": 10, "c": 1.0, "k": 0.0, "h": 0.1, "steps": 100},
               _run_advection),
    Experiment("smallgain-trials", "randomized chain decay trials",
               {"runs": 200, "cap": 5000}, _run_smallgain_trials),
    Experiment("iss-trials", "randomized scalar ISS estimate checks",
               {"trials": 1000}, _run_iss_trials),
    Experiment("nlp-qp", "certified primal-dual flow on the reference QP",
               {"lambda": 0.5, "tol": 1e-7}, _run_nlp_qp),
    Experiment("error-budget", "error-budget rule on exponential decay",
               {"epsilon": 0.1, "t_end": 10.0}, _run_error_budget),
    Experiment("defect-orders", "defect slopes for the four schemes",
               {}, _run_defect_orders),
    Experiment("halving-f1", "halving controller on the linear spiral",
               {"lambda": 0.5, "h_init": 0.8, "t_end": 5.0}, _run_halving_f1),
)

_BY_NAME = {e.name: e for e in CATALOG}


class UsageError(Exception):
    pass


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_overrides(tokens: list[str]) -> dict:
    params = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or i + 1 >= len(tokens):
            raise UsageError(f"expected --key value pairs, got {tok!r}")
        params[tok[2:].replace("-", "_")] = _coerce(tokens[i + 1])
        i += 2
    return params


def _load_config(path: str):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    return parser


def _seed(value, source: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {value!r}") \
            from None
    if seed < 0:
        raise UsageError(f"{source} must be non-negative, got {seed}")
    return seed


def _run_experiment(exp: Experiment, overrides: dict, out: Path,
                    seed: int) -> str:
    params = dict(exp.defaults)
    unknown = set(overrides) - set(params)
    if unknown:
        raise UsageError(
            f"unknown parameters for {exp.name}: {sorted(unknown)} "
            f"(accepted: {sorted(params) or 'none'})"
        )
    params.update(overrides)
    index = CATALOG.index(exp)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    out.mkdir(parents=True, exist_ok=True)
    return exp.runner(params, out, rng)


def _cmd_run(args, extra: list[str]) -> int:
    if args.list:
        for exp in CATALOG:
            keys = ", ".join(f"{k}={v}" for k, v in exp.defaults.items())
            print(f"{exp.name:18s} {exp.description} [{keys or 'no params'}]")
        return 0

    jobs: list[tuple[Experiment, dict]] = []
    settings = {}  # [global] out/seed, which an explicit flag overrides
    if args.config:
        if args.name:
            raise UsageError(f"give {args.name!r} or --config, not both")
        parser = _load_config(args.config)
        for section in parser.sections():
            if section == "global":
                settings = parser[section]
                continue
            if section not in _BY_NAME:
                raise UsageError(f"unknown experiment in config: {section}")
            jobs.append((
                _BY_NAME[section],
                {k: _coerce(v) for k, v in parser[section].items()},
            ))
        if extra:
            raise UsageError("--param overrides cannot combine with --config")
    else:
        if not args.name:
            raise UsageError("run needs an experiment name, --config, "
                             "or --list")
        if args.name not in _BY_NAME:
            known = ", ".join(sorted(_BY_NAME))
            raise UsageError(f"unknown experiment {args.name!r} "
                             f"(known: {known})")
        jobs.append((_BY_NAME[args.name], _parse_overrides(extra)))

    out = Path(settings.get("out", "out") if args.out is None else args.out)
    seed = (_seed(settings.get("seed", _DEFAULT_SEED), "[global] seed")
            if args.seed is None else _seed(args.seed, "--seed"))
    if not jobs:
        print("nothing selected")
        return 0

    failures = 0
    for exp, overrides in jobs:
        try:
            summary = _run_experiment(exp, overrides, out, seed)
            print(f"{exp.name}: {summary}")
        except UsageError:
            raise
        except Exception as exc:  # isolate per experiment
            failures += 1
            print(f"{exp.name}: FAILED ({exc})")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all(args.filter, _seed(args.seed, "--seed"))
    if not results:
        print("nothing selected")
        return 0
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stabstep",
        description="certified-step ODE experiments and acceptance checks",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a named experiment")
    run_p.add_argument("name", nargs="?", help="experiment name")
    run_p.add_argument("--list", action="store_true",
                       help="print the experiment catalog")
    run_p.add_argument("--config", help="INI file of experiment sections")
    run_p.add_argument("--out", help="output directory (default out)")
    run_p.add_argument("--seed", type=int,
                       help=f"64-bit seed, split per experiment "
                            f"(default {_DEFAULT_SEED})")

    ver_p = sub.add_parser(
        "verify", help="run the acceptance suite at its pinned tolerances")
    ver_p.add_argument("--filter", help="criterion number or name substring")
    ver_p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                       help=f"non-negative seed, split per criterion "
                            f"(default {_DEFAULT_SEED})")

    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, extra)
        if args.command == "verify":
            if extra:
                raise UsageError(f"unrecognized arguments: {extra}")
            return _cmd_verify(args)
        parser.print_help()
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
