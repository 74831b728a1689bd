"""Command-line front end: named experiments and the acceptance suite.

Usage:
    stabstep run <experiment> [--param value ...] [--out DIR] [--seed N]
    stabstep run --list
    stabstep verify [--filter TEXT] [--seed N]

Exit codes: 0 success, 1 experiment or criterion failure, 2 usage error,
which includes a negative seed.
`run` runs one experiment; its flags, before or after its name, override
that experiment's defaults.  The --out directory is created by the first
CSV the run writes, so a run that fails before writing anything leaves
none behind.
Each experiment draws from its own stream of the seed, so a shell loop of
`run` calls writes what each call writes alone.  No flag sets a `verify`
tolerance: they are the pinned `acceptance.AcceptanceTolerances`.
`experiment` computes a catalog run without writing; `run` writes and
prints its result, and `verify` criteria judge it.  `acceptance` imports
this catalog, so this module imports `acceptance` only inside `verify`.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

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
    stiff_experiment,
    write_steps_csv,
    write_sweep_csv,
)

Runner = Callable[[dict, np.random.Generator], "Result"]

_DEFAULT_SEED = 20240501


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    defaults: dict
    runner: Runner


@dataclass(frozen=True)
class Result:
    """One catalog run: its parameters, the value the acceptance criteria
    judge, the summary line `run` prints, and the CSVs `run` writes as
    (file name, writer) pairs; a writer takes the file's path."""

    params: dict
    value: object
    summary: str
    files: tuple = ()


def _standard_files(traj: HybridTrajectory, name: str, report=None) -> tuple:
    files = ((f"{name}-trajectory.csv", partial(write_trajectory_csv, traj)),
             (f"{name}-steps.csv", partial(write_steps_csv, traj)))
    if report is not None:
        files += ((f"{name}-certification.csv", report.to_csv),)
    return files


def _run_stiff(params, rng):
    lam = float(params["lambda"])
    traj = stiff_experiment(lam, float(params["r"]), (1.0, 1.1),
                            int(params["steps"]))
    lyap = quadratic_lyapunov(STIFF_P)
    report = certify_trajectory(lyap, traj, lam, field=linear_field(STIFF_A))
    big = int(np.sum(traj.steps >= 0.5))
    small = int(np.sum(traj.steps <= 2e-3))
    return Result(params, traj, (
        f"t_final={traj.final_time:.6f} final_norm="
        f"{float(np.linalg.norm(traj.final_state)):.6e} "
        f"certified={report.ok} big_steps={big} small_steps={small}"),
        _standard_files(traj, "stiff-6.14", report))


def _constant_run(key: str, tableau, params, name: str, summary) -> Result:
    """A constant-step run from (1, 0); its value is |x| at every node."""
    field = example_fields()[key].field
    traj = advance(tableau, field, ConstantController(float(params["h"])),
                   np.array([1.0, 0.0]), math.inf,
                   max_steps=int(params["steps"]))
    norms = np.linalg.norm(traj.states, axis=1)
    return Result(params, norms, summary(norms) + " certificate=none",
                  _standard_files(traj, name))


def _first_below(norms, level: float) -> int:
    below = np.nonzero(norms < level)[0]
    return int(below[0]) if below.size else -1


def _run_f1_euler(params, rng):
    return _constant_run("f1", EULER, params, "f1-euler", lambda norms: (
        f"final_norm={norms[-1]:.6e} "
        f"first_below_1e-6={_first_below(norms, 1e-6)}"))


def _run_f3_euler(params, rng):
    return _constant_run("f3", EULER, params, "f3-euler", lambda norms: (
        f"final_norm={norms[-1]:.6e} min_norm={float(np.min(norms)):.6e}"))


def _run_f2_euler(params, rng):
    def summary(norms):
        tail = norms[norms.size // 2:]
        return (f"limit_radius={float(np.mean(tail)):.6f} "
                f"radius_spread={float(np.max(tail) - np.min(tail)):.2e}")
    return _constant_run("f2", EULER, params, "f2-euler", summary)


def _run_f2_heun(params, rng):
    return _constant_run("f2", HEUN, params, "f2-heun", lambda norms: (
        f"liminf_norm={float(np.min(norms[norms.size // 2:])):.6f} "
        f"final_norm={norms[-1]:.6f}"))


def _run_f2_implicit(params, rng):
    return _constant_run(
        "f2", IMPLICIT_EULER, params, "f2-implicit", lambda norms: (
            f"final_norm={norms[-1]:.3e} "
            f"first_below_1e-8={_first_below(norms, 1e-8)}"))


def _run_boundary(params, rng):
    points = int(params["points"])
    sweep = boundary_sweep(lam=float(params["lambda"]), n_points=points,
                           tol=float(params["tol"]))
    mid = points // 2
    return Result(params, sweep, (
        f"euler_step_at_origin_row={sweep['euler'][mid]:.8f} "
        f"schemes={len(sweep) - 1} points={points}"),
        (("boundary-4.27-sweep.csv", partial(write_sweep_csv, sweep)),))


def _run_advection(params, rng):
    n = int(params["n"])
    big_k = float(params["k"])
    chain = advection_chain(n, float(params["c"]),
                            lambda y: big_k * math.cos(y), big_k, r=None)
    run = advance_chain(chain, np.ones(n),
                        np.full(int(params["steps"]), float(params["h"])))
    return Result(params, run, (
        f"final_sup={run.final_sup:.6e} t_end={run.tau[-1]:.4f} nodes={n}"),
        (("advection-chain.csv", partial(write_chain_csv, run)),
         ("advection-grid.csv", partial(write_grid_csv, run))))


def _run_smallgain_trials(params, rng):
    runs = int(params["runs"])
    fails, worst = chain_decay_trials(rng, runs, int(params["cap"]), 1e-6)
    return Result(params, (fails, worst), (
        f"runs={runs} failures={fails} slowest_decay_steps={worst}"))


def _run_iss_trials(params, rng):
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
    return Result(params, (held, printed_held, min_margin), (
        f"derived_held={held}/{trials} printed_held={printed_held}/"
        f"{trials} min_derived_margin={min_margin:.3e}"))


def _run_nlp_qp(params, rng):
    flow = nlp_flow(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                    np.array([1.0]))
    res = nlp_solve(flow, np.zeros(3), lam=float(params["lambda"]), r=1.0,
                    tol=float(params["tol"]))
    dist = float(np.linalg.norm(res.w - flow.kkt_point))
    return Result(params, res, (
        f"iterations={res.iterations} residual={res.residual:.3e} "
        f"kkt_distance={dist:.3e} certified={res.certified}"),
        _standard_files(res.trajectory, "nlp-qp"))


def _run_error_budget(params, rng):
    eps = float(params["epsilon"])
    budget = ErrorBudget(epsilon=eps, sigma=1.0, lam=0.5,
                         a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5,
                         p=1, x0_norm=1.0)
    steps = compliant_steps(budget, 1.0, float(params["t_end"]), rng)
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    states = np.concatenate([[1.0], np.cumprod(1.0 - steps)])[:, None]
    traj = HybridTrajectory(tau=taus, states=states, steps=steps)
    field = linear_field(np.array([[-1.0]]))
    report = error_report(traj, field, EULER, budget, phi_cap=1.0)
    return Result(params, report, (
        f"steps={steps.size} max_error={report.max_error:.3e} "
        f"epsilon={eps} finite_time_bound_held={report.bounds_hold}"),
        (("error-budget-report.csv", report.to_csv),
         ("error-budget-trajectory.csv", partial(write_trajectory_csv, traj))))


def _run_defect_orders(params, rng):
    system = example_fields()["sys427"]
    orders = defect_orders(system.field, np.array([1.2, 0.8]))
    rows = [(tab.name, h, d) for tab, hs, ds, _ in orders
            for h, d in zip(hs.tolist(), ds)]
    return Result(params, orders, "slopes " + " ".join(
        f"{tab.name}={slope:.2f}" for tab, _, _, slope in orders),
        (("defect-orders.csv",
          lambda path: write_csv(path, ("scheme", "h", "defect"), rows)),))


def _run_halving_f1(params, rng):
    system = example_fields()["f1"]
    lam = float(params["lambda"])
    ctrl = HalvingController(system.lyap, EULER, system.field, lam=lam,
                             h_init=float(params["h_init"]))
    traj = advance(EULER, system.field, ctrl, np.array([1.0, 0.0]),
                   t_end=float(params["t_end"]))
    report = certify_trajectory(system.lyap, traj, lam, field=system.field)
    halvings = 0 if traj.halvings is None else int(traj.halvings.sum())
    return Result(params, traj, (
        f"steps={traj.steps.size} certified={report.ok} "
        f"total_halvings={halvings} "
        f"final_norm={float(np.linalg.norm(traj.final_state)):.3e}"),
        _standard_files(traj, "halving-f1", report))


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


def _seed(seed: int) -> int:
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    return seed


def _lookup(name: str) -> Experiment:
    if name not in _BY_NAME:
        raise UsageError(f"unknown experiment {name!r} "
                         f"(known: {', '.join(sorted(_BY_NAME))})")
    return _BY_NAME[name]


def experiment(name: str, overrides: Optional[dict] = None,
               seed: int = _DEFAULT_SEED) -> Result:
    """Compute catalog experiment `name` as `run` does, and write nothing.

    The overrides replace its defaults, and it draws from
    SeedSequence([seed, catalog index]).  An unknown experiment or
    parameter, and a negative seed, raise UsageError.
    """
    exp = _lookup(name)
    overrides = overrides or {}
    params = dict(exp.defaults)
    unknown = set(overrides) - set(params)
    if unknown:
        raise UsageError(
            f"unknown parameters for {exp.name}: {sorted(unknown)} "
            f"(accepted: {sorted(params) or 'none'})"
        )
    params.update(overrides)
    index = CATALOG.index(exp)
    rng = np.random.default_rng(np.random.SeedSequence([_seed(seed), index]))
    return exp.runner(params, rng)


def _run_experiment(exp: Experiment, overrides: dict, out: Path,
                    seed: int) -> str:
    result = experiment(exp.name, overrides, seed)
    for name, write in result.files:
        write(out / name)
    return result.summary


def _cmd_run(args, extra: list[str]) -> int:
    if args.list:
        for exp in CATALOG:
            keys = ", ".join(f"{k}={v}" for k, v in exp.defaults.items())
            print(f"{exp.name:18s} {exp.description} [{keys or 'no params'}]")
        return 0

    if not args.name:
        raise UsageError("run needs an experiment name or --list")
    exp = _lookup(args.name)
    overrides = _parse_overrides(extra)
    try:
        summary = _run_experiment(exp, overrides, Path(args.out), args.seed)
    except UsageError:
        raise
    except Exception as exc:
        print(f"{exp.name}: FAILED ({exc})")
        return 1
    print(f"{exp.name}: {summary}")
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(args.filter, _seed(args.seed))
    if not results:
        print("nothing selected")
        return 0
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabstep",
        description="certified-step ODE experiments and acceptance checks",
        allow_abbrev=False,  # else --h, an experiment's step, reads as --help
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser(
        "run", allow_abbrev=False,
        help="run one named experiment; --key value overrides a default")
    run_p.add_argument("name", nargs="?", help="experiment name")
    run_p.add_argument("--list", action="store_true",
                       help="print the experiment catalog")
    run_p.add_argument("--out", default="out",
                       help="output directory (default out)")
    run_p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                       help=f"non-negative seed, split per experiment "
                            f"(default {_DEFAULT_SEED})")

    ver_p = sub.add_parser(
        "verify", allow_abbrev=False,
        help="run the acceptance suite at its pinned tolerances")
    ver_p.add_argument("--filter", help="criterion number or name substring")
    ver_p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                       help=f"non-negative seed, split per criterion "
                            f"(default {_DEFAULT_SEED})")
    return parser


def _parse_run(parser: argparse.ArgumentParser, argv: list[str],
               extra: list[str]):
    """Parse a `run` command line again without its --key value overrides.

    parse_known_args reads the value of an override that stands before the
    experiment name as the name.  So every unknown --key is taken out with
    the value after it, the rest is parsed again, and the overrides follow
    whatever that parse left over, in their order.
    """
    unknown = {tok for tok in extra if tok.startswith("--")}
    kept, overrides = [], []
    tokens = iter(argv)
    for tok in tokens:
        if tok in unknown:
            overrides.append(tok)
            if "=" not in tok:  # a --key=value token is refused later
                overrides.extend(itertools.islice(tokens, 1))
        else:
            kept.append(tok)
    args, rest = parser.parse_known_args(kept)
    return args, rest + overrides


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(*_parse_run(parser, argv, extra))
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
