"""Span tracer for the traced benchmark run, and the per-layer metrics.

`install` wraps the public functions and methods of the eight stabstep
modules. A wrapped module function is rebound in every stabstep namespace
that holds it, because `cli` and `acceptance` bind names such as `advance`
directly; methods are patched on their classes. Spans (name, start, end,
parent, operation) are kept in memory and written out when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Spans in parallel arrays; per-name totals are derived at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list[int] = []  # indices of the open spans
        self.errors: Counter = Counter()  # spans left by an exception
        self.counts: Counter = Counter()  # work counted by the wrappers

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.span_name))
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())

    def exit(self, failed: bool = False) -> None:
        end = perf_counter()
        idx = self._stack.pop()
        self.span_end[idx] = end
        if failed:
            self.errors[self.names[self.span_name[idx]]] += 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
        }

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Per span name: calls, total seconds, self seconds, and for each
        name the calls whose parent span is 'child<-parent'."""
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=dur.size)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=dur - covered, minlength=n)
        pairs = Counter(zip(a["name"][nested].tolist(),
                            a["name"][a["parent"][nested]].tolist()))
        by_parent = Counter({f"{self.names[c]}<-{self.names[p]}": k
                             for (c, p), k in pairs.items()})
        return (Counter(dict(zip(self.names, calls.tolist()))),
                Counter(dict(zip(self.names, total.tolist()))),
                Counter(dict(zip(self.names, own.tolist()))), by_parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, fn, name, after=None):
    """Trace `fn` as span `name` (a string, or a function of the call's
    arguments); `after(args, out)` records counts once the span closes."""
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        except Exception:
            leave(failed=True)
            raise
        leave()
        if after is not None:
            after(args, out)
        return out

    return traced


def _dir_bytes(path) -> int:
    path = Path(path)
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _module(name: str):
    # by full name: the package re-exports a function called global_error
    return sys.modules[f"stabstep.{name}"]


def install(tracer: Tracer) -> None:
    """Wrap the stabstep layers; must run after stabstep is imported."""
    count = tracer.counts

    def add(key, amount):
        count[key] += amount

    def on_test(args, cert):
        add("lyapunov.decrease_test.accepted", int(cert.accepted))

    def rk_name(args, kwargs):
        tab = args[0] if args else kwargs["tableau"]
        return ("core.rk_increment.explicit" if tab.explicit
                else "core.rk_increment.implicit")

    functions = {
        "core": {
            "advance": ("core.advance",
                        lambda a, t: add("core.advance.steps", t.steps.size)),
            "rk_increment": (rk_name, None),
            "reference_solve": ("core.reference_solve", None),
            "write_trajectory_csv": (
                "core.write_trajectory_csv",
                lambda a, _: add("core.write_trajectory_csv.rows",
                                 a[0].tau.size)),
        },
        "lyapunov": {
            "decrease_test": ("lyapunov.decrease_test", on_test),
            "halving_controller": (
                "lyapunov.halving_controller",
                lambda a, c: add("lyapunov.halving_controller.halvings",
                                 c.halvings)),
            "euler_q_phi": ("lyapunov.euler_q_phi", None),
            "certify_trajectory": (
                "lyapunov.certify_trajectory",
                lambda a, r: add("lyapunov.certify_trajectory.rows",
                                 len(r.rows))),
        },
        "implicit": {
            "implicit_euler_step": ("implicit.implicit_euler_step", None),
        },
        "smallgain": {
            "iss_estimate_check": ("smallgain.iss_estimate_check", None),
            "partitioned_step": ("smallgain.partitioned_step", None),
            "advance_chain": ("smallgain.advance_chain", None),
            "write_chain_csv": (
                "smallgain.chain_csv",
                lambda a, _: add("smallgain.chain_csv.rows", a[0].tau.size)),
            "write_grid_csv": ("smallgain.grid_csv", None),
        },
        "global_error": {
            "compliant_steps": (
                "global_error.compliant_steps",
                lambda a, s: add("global_error.compliant_steps.steps", s.size)),
            "error_report": (
                "global_error.error_report",
                lambda a, r: add("global_error.error_report.rows",
                                 len(r.rows))),
            "defect": ("global_error.defect", None),
            "global_error": ("global_error.global_error", None),
        },
        "applications": {
            "max_decrease_step": ("applications.max_decrease_step", None),
            "boundary_sweep": ("applications.boundary_sweep", None),
            "stiff_experiment": ("applications.stiff_experiment", None),
            "nlp_solve": ("applications.nlp_solve", None),
            "write_steps_csv": (
                "applications.steps_csv",
                lambda a, _: add("applications.steps_csv.rows",
                                 a[0].steps.size)),
            "write_sweep_csv": ("applications.sweep_csv", None),
        },
        "acceptance": {
            "run_criterion": (
                lambda a, k: f"acceptance.criterion.{a[0]}", None),
        },
    }
    modules = [m for key, m in sys.modules.items()
               if key == "stabstep" or key.startswith("stabstep.")]
    for modname, table in functions.items():
        home = _module(modname)
        for attr, (name, after) in table.items():
            original = getattr(home, attr)
            wrapped = _wrap(tracer, original, name, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # each catalog experiment writes into a fresh directory of its own
    cli = _module("cli")
    cli._run_experiment = _wrap(
        tracer, cli._run_experiment,
        lambda a, k: f"cli.experiment.{a[0].name}",
        lambda a, _: add("cli.csv.bytes", _dir_bytes(a[2])))

    core, lyapunov = _module("core"), _module("lyapunov")
    methods = (
        (core.VectorField, "__call__", "core.field", None),
        (core.ConstantController, "__call__", "core.ConstantController", None),
        (lyapunov.HalvingController, "__call__",
         "lyapunov.HalvingController", None),
        (lyapunov.EulerQController, "__call__",
         "lyapunov.EulerQController", None),
        (lyapunov.LinearQuadraticController, "__call__",
         "lyapunov.LinearQuadraticController", None),
        (lyapunov.CertificationReport, "to_csv", "lyapunov.report_csv",
         lambda a, _: add("lyapunov.report_csv.rows", len(a[0].rows))),
        (_module("global_error").ErrorReport, "to_csv",
         "global_error.report_csv", None),
    )
    for cls, attr, name, after in methods:
        setattr(cls, attr, _wrap(tracer, getattr(cls, attr), name, after))


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, criteria, experiments) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    calls, total, self_s, by_parent = tr.totals()
    count = tr.counts
    steps = count["core.advance.steps"]
    rk_calls = (calls["core.rk_increment.explicit"]
                + calls["core.rk_increment.implicit"])
    failures = tr.errors["core.rk_increment.implicit"]
    tests = calls["lyapunov.decrease_test"]
    halvings = count["lyapunov.halving_controller.halvings"]
    us = 1e6
    m = {
        "core.field.calls": (calls["core.field"], "count"),
        "core.field.us_per_call": (
            us * _per(total["core.field"], calls["core.field"]), "us"),
        "core.field.calls_per_step": (
            _per(calls["core.field"], steps), "count/step"),
        "core.rk_increment.calls": (rk_calls, "count"),
        "core.rk_increment.calls_per_step": (
            _per(rk_calls, steps), "count/step"),
    }
    for kind in ("explicit", "implicit"):
        key = f"core.rk_increment.{kind}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.us_per_call"] = (us * _per(total[key], calls[key]), "us")
    m.update({
        "core.rk_increment.implicit.stage_failures": (failures, "count"),
        "core.rk_increment.implicit.stage_failures_per_step": (
            _per(failures, steps), "count/step"),
        "core.advance.steps": (steps, "count"),
        "core.advance.self_us_per_step": (
            us * _per(self_s["core.advance"], steps), "us"),
        "core.reference_solve.calls": (calls["core.reference_solve"], "count"),
        "core.reference_solve.self_s": (self_s["core.reference_solve"], "s"),
        "core.write_trajectory_csv.rows": (
            count["core.write_trajectory_csv.rows"], "count"),
        "core.write_trajectory_csv.us_per_row": (
            us * _per(total["core.write_trajectory_csv"],
                      count["core.write_trajectory_csv.rows"]), "us"),
        "lyapunov.decrease_test.calls": (tests, "count"),
        "lyapunov.decrease_test.calls_per_step": (
            _per(tests, steps), "count/step"),
        "lyapunov.decrease_test.self_us_per_call": (
            us * _per(self_s["lyapunov.decrease_test"], tests), "us"),
        "lyapunov.decrease_test.accept_ratio": (
            _per(count["lyapunov.decrease_test.accepted"], tests), "ratio"),
        "lyapunov.halving_controller.halvings": (halvings, "count"),
        "lyapunov.halving_controller.halvings_per_step": (
            _per(halvings, steps), "count/step"),
        "lyapunov.halving_controller.halvings_per_call": (
            _per(halvings, calls["lyapunov.halving_controller"]),
            "count/call"),
        "lyapunov.euler_q_phi.calls": (calls["lyapunov.euler_q_phi"], "count"),
        "lyapunov.euler_q_phi.self_us_per_call": (
            us * _per(self_s["lyapunov.euler_q_phi"],
                      calls["lyapunov.euler_q_phi"]), "us"),
        "lyapunov.certify_trajectory.rows": (
            count["lyapunov.certify_trajectory.rows"], "count"),
        "lyapunov.certify_trajectory.us_per_row": (
            us * _per(total["lyapunov.certify_trajectory"],
                      count["lyapunov.certify_trajectory.rows"]), "us"),
        "lyapunov.report_csv.us_per_row": (
            us * _per(total["lyapunov.report_csv"],
                      count["lyapunov.report_csv.rows"]), "us"),
        "implicit.implicit_euler_step.calls": (
            calls["implicit.implicit_euler_step"], "count"),
        "implicit.implicit_euler_step.self_us_per_call": (
            us * _per(self_s["implicit.implicit_euler_step"],
                      calls["implicit.implicit_euler_step"]), "us"),
        "smallgain.iss_estimate_check.calls": (
            calls["smallgain.iss_estimate_check"], "count"),
        "smallgain.iss_estimate_check.ms_per_call": (
            1e3 * _per(total["smallgain.iss_estimate_check"],
                       calls["smallgain.iss_estimate_check"]), "ms"),
        "smallgain.partitioned_step.us_per_call": (
            us * _per(total["smallgain.partitioned_step"],
                      calls["smallgain.partitioned_step"]), "us"),
        "smallgain.chain_csv.us_per_row": (
            us * _per(total["smallgain.chain_csv"],
                      count["smallgain.chain_csv.rows"]), "us"),
        "global_error.compliant_steps.steps": (
            count["global_error.compliant_steps.steps"], "count"),
        "global_error.compliant_steps.self_s": (
            self_s["global_error.compliant_steps"], "s"),
        "global_error.error_report.rows": (
            count["global_error.error_report.rows"], "count"),
        "global_error.error_report.self_s": (
            self_s["global_error.error_report"], "s"),
        "global_error.defect.self_us_per_call": (
            us * _per(self_s["global_error.defect"],
                      calls["global_error.defect"]), "us"),
        "applications.max_decrease_step.calls": (
            calls["applications.max_decrease_step"], "count"),
        "applications.max_decrease_step.tests_per_call": (
            _per(by_parent["lyapunov.decrease_test"
                           "<-applications.max_decrease_step"],
                 calls["applications.max_decrease_step"]), "count/call"),
        "applications.nlp_solve.self_s": (
            self_s["applications.nlp_solve"], "s"),
        "applications.steps_csv.us_per_row": (
            us * _per(total["applications.steps_csv"],
                      count["applications.steps_csv.rows"]), "us"),
    })
    for num in criteria:
        m[f"acceptance.criterion.{num}.s"] = (
            total[f"acceptance.criterion.{num}"], "s")
    for name in experiments:
        m[f"cli.experiment.{name}.s"] = (total[f"cli.experiment.{name}"], "s")
    m["cli.csv.bytes"] = (count["cli.csv.bytes"], "bytes")
    m["cli.csv.bytes_per_step"] = (
        _per(count["cli.csv.bytes"], steps), "bytes/step")
    return m
