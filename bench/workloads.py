"""The three benchmark workloads.

Each workload turns a benchmark seed into inputs for the program, runs one
operation at a time through the program's public entry points, and reduces
each operation's output to a small JSON record that is compared with the
golden record. Nothing here is timed; `child.py` does the timing.

`verify` and `catalog` run the CLI's jobs as shipped, at the CLI's default
seed, whatever the benchmark seed: the acceptance suite's random draws change
its amount of work by up to a factor of 2.5 between seeds (criterion 9's
random programs take 1.2k to 18k iterations), which would hide any smaller
regression. `certified` generates its problems from the benchmark seed,
folded onto `GOLDEN_SLOTS` program seeds so that every seed has a golden
record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

# Calls into the program go through module attributes, so the functions the
# traced run rebinds in those modules are the ones called.
from stabstep import acceptance, cli, core, lyapunov
from stabstep.applications import example_fields
from stabstep.core import EULER, HEUN, IMPLICIT_EULER, RK4, linear_field
from stabstep.lyapunov import (
    EulerQController,
    HalvingController,
    quadratic_lyapunov,
)

GOLDEN_SLOTS = 16
DEFAULT_SEED = 20240501  # the CLI's default seed


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Verify:
    """All 11 acceptance criteria at the default seed, one per operation."""

    # timing fragments of the detail strings: "[0.12s]" and criterion 1's "3ms"
    _TIMING = re.compile(r"\[\d+\.\d+s\]|\b\d+ms\b")

    def __init__(self, seed: int, scratch: Path):
        self.program_seed = DEFAULT_SEED
        self.ops = [str(num) for num, _, _ in acceptance.CRITERIA]

    def begin_pass(self) -> None:
        pass

    def run(self, op: str):
        return acceptance.run_criterion(int(op), None, self.program_seed)

    def record(self, op: str, out) -> list:
        return [out.passed, self._TIMING.sub("", out.detail)]

    def audit_rejected(self, out) -> bool:
        return False

    def end_pass(self) -> None:
        pass


class Catalog:
    """All 14 `stabstep run` experiments at their defaults and the default
    seed, one per operation.

    Each experiment writes into its own subdirectory of a fresh temporary
    directory, which is removed once the pass's records are taken.
    """

    def __init__(self, seed: int, scratch: Path):
        self.program_seed = DEFAULT_SEED
        self.scratch = scratch
        self.ops = [exp.name for exp in cli.CATALOG]
        self.out: Path | None = None

    def begin_pass(self) -> None:
        self.out = Path(tempfile.mkdtemp(prefix="catalog-", dir=self.scratch))

    def run(self, op: str):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["run", op, "--seed", str(self.program_seed),
                             "--out", str(self.out / op)])
        return code, text.getvalue()

    def record(self, op: str, out) -> list:
        code, text = out
        csvs = {p.name: sha256_file(p)
                for p in sorted((self.out / op).glob("*.csv"))}
        return [code, text, csvs]

    def audit_rejected(self, out) -> bool:
        return False

    def end_pass(self) -> None:
        shutil.rmtree(self.out)
        self.out = None


@dataclass(frozen=True)
class Job:
    """One certified integration: a problem, a scheme and its controller."""

    tableau: object
    field: object
    lyap: object
    controller: object
    x0: np.ndarray


class Certified:
    """Certified integrations followed by a re-audit of every trajectory.

    Problems are random Hurwitz matrices of dimension 2-6 with V = x'Px from
    the Lyapunov equation, and the four planar example systems, each from a
    random initial state. Dimensions and systems take turns rather than
    being drawn, so every seed has the same mix of problem kinds. Every
    problem is integrated under the halving controller with Euler, Heun, RK4
    and implicit Euler, and once under the curvature controller for explicit
    Euler.
    """

    LINEAR = 160
    PLANAR = 40
    LAM = 0.5
    H_INIT = 1.0
    T_END = 5.0
    SCHEMES = (EULER, HEUN, RK4, IMPLICIT_EULER)

    def __init__(self, seed: int, scratch: Path):
        self.program_seed = DEFAULT_SEED + seed % GOLDEN_SLOTS
        rng = np.random.default_rng(self.program_seed)
        problems = []
        for i in range(self.LINEAR):
            dim = 2 + i % 5
            m = rng.standard_normal((dim, dim))
            shift = float(np.max(np.linalg.eigvals(m).real))
            a = m - (shift + rng.uniform(0.5, 1.5)) * np.eye(dim)
            basis = rng.standard_normal((dim, dim))
            p = solve_continuous_lyapunov(a.T, -(basis.T @ basis + np.eye(dim)))
            problems.append((f"lin{i:03d}", linear_field(a),
                             quadratic_lyapunov(p), self._x0(rng, dim)))
        systems = example_fields()
        keys = sorted(systems)
        for i in range(self.PLANAR):
            sysd = systems[keys[i % len(keys)]]
            problems.append((f"{sysd.name}-{i:03d}", sysd.field, sysd.lyap,
                             self._x0(rng, 2)))

        self.jobs: dict[str, Job] = {}
        for label, field, lyap, x0 in problems:
            for tab in self.SCHEMES:
                ctrl = HalvingController(lyap, tab, field, lam=self.LAM,
                                         h_init=self.H_INIT)
                self.jobs[f"{label}/{tab.name}"] = Job(tab, field, lyap, ctrl, x0)
            ctrl = EulerQController(lyap, field, lam=self.LAM, r=self.H_INIT)
            self.jobs[f"{label}/euler-q"] = Job(EULER, field, lyap, ctrl, x0)
        self.ops = list(self.jobs)

    @staticmethod
    def _x0(rng: np.random.Generator, dim: int) -> np.ndarray:
        x = rng.standard_normal(dim)
        return x * (rng.uniform(0.5, 2.0) / float(np.linalg.norm(x)))

    def begin_pass(self) -> None:
        pass

    def run(self, op: str):
        job = self.jobs[op]
        traj = core.advance(job.tableau, job.field, job.controller, job.x0,
                            t_end=self.T_END)
        report = lyapunov.certify_trajectory(job.lyap, traj, self.LAM,
                                             field=job.field)
        return traj, report

    def record(self, op: str, out) -> list:
        traj, report = out
        digest = hashlib.sha256()
        for arr in (traj.tau, traj.states, traj.steps):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return [digest.hexdigest()[:16], int(traj.steps.size), report.ok,
                report.first_violation]

    def audit_rejected(self, out) -> bool:
        return not out[1].ok

    def end_pass(self) -> None:
        pass


WORKLOADS = {"verify": Verify, "catalog": Catalog, "certified": Certified}
