"""Import-time guards: what `import stabstep` loads and the package names
the benchmark harness needs, each checked in a fresh interpreter, and that
every public name is read by the package or the benchmark."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_out_scipy_stats():
    # scipy.stats is slow to import, and nothing in the package needs it
    proc = run_python("import sys, stabstep\n"
                      "print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_the_acceptance_suite():
    # acceptance imports the catalog from cli, and cli imports acceptance
    # only inside `verify`; the package itself loads neither
    proc = run_python("import sys, stabstep.cli\n"
                      "print('stabstep.acceptance' in sys.modules,"
                      " 'scipy.linalg' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_no_module_imports_scipy_stats():
    # the fresh interpreter above misses an import deferred into a function
    found = []
    for path in sorted((ROOT / "src" / "stabstep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy.stats"
                      or name.startswith("scipy.stats.")]
    assert found == []


def test_stepping_modules_take_no_matmul_operator():
    # on a step's few-element arrays the dispatch of `@` outweighs the
    # arithmetic; ndarray.dot reaches the same BLAS routine without it.
    # Likewise np.linalg.solve's checks outweigh a small solve, so the
    # stage solves call its gufunc, which must exist in this numpy.
    from numpy.linalg import _umath_linalg

    assert callable(_umath_linalg.solve1)
    found = []
    for name in ("core.py", "lyapunov.py", "implicit.py"):
        path = ROOT / "src" / "stabstep" / name
        text = path.read_text()
        found += [f"{name}:{node.lineno}"
                  for node in ast.walk(ast.parse(text, str(path)))
                  if isinstance(getattr(node, "op", None), ast.MatMult)]
        if name != "lyapunov.py":
            found += [f"{name}:{i}: np.linalg.solve"
                      for i, line in enumerate(text.splitlines(), 1)
                      if "np.linalg.solve(" in line]
    assert found == []


def test_benchmark_finds_its_names():
    """bench/workloads.py imports names from the package and
    bench/tracing.py wraps others; removing one fails here, not only in a
    traced benchmark run.  One traced implicit Euler run then checks that
    the wrappers read their calls' arguments and count the work, and that
    the class-level controller wrapper sees every call, the handed-back
    certificate included.  bench/ is read in place, nothing is written."""
    proc = run_python(
        f"import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        f"import numpy as np, tracing, workloads\n"
        f"from stabstep import core, lyapunov\n"
        f"tr = tracing.Tracer()\n"
        f"tracing.install(tr)\n"
        f"f = core.linear_field(np.array([[-1.0, 1.0], [-1.0, -1.0]]))\n"
        f"v = lyapunov.quadratic_lyapunov(np.eye(2))\n"
        f"ctrl = lyapunov.HalvingController(v, core.IMPLICIT_EULER, f,\n"
        f"                                  lam=0.5, h_init=4.0)\n"
        f"core.advance(core.IMPLICIT_EULER, f, ctrl, np.ones(2), 1.0)\n"
        f"calls = tr.totals()[0]\n"
        f"print(calls['core.advance'], calls['core.rk_increment.implicit'] > 0,"
        f" calls['core.field'] > 0, tr.counts['core.advance.steps'] > 0,\n"
        f"      calls['lyapunov.HalvingController']"
        f" == tr.counts['core.advance.steps'])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True", "True", "True"]


def test_benchmark_counts_audit_rows(tmp_path):
    """bench/tracing.py counts audit work as len(report.rows) after
    certify_trajectory, CertificationReport.to_csv and error_report: the
    counters must equal the audited steps and nodes, whatever layout the
    reports keep their rows in.  bench/ is read in place."""
    proc = run_python(
        f"import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        f"import numpy as np, tracing, workloads\n"
        f"from stabstep import core, lyapunov\n"
        f"tr = tracing.Tracer()\n"
        f"tracing.install(tr)\n"
        f"from stabstep.global_error import ErrorBudget, error_report\n"
        f"f = core.linear_field(np.array([[-1.0]]))\n"
        f"v = lyapunov.quadratic_lyapunov(np.eye(1))\n"
        f"traj = core.advance(core.EULER, f, core.ConstantController(0.05),\n"
        f"                    np.ones(1), 1.0)\n"
        f"report = lyapunov.certify_trajectory(v, traj, 0.5, field=f)\n"
        f"report.to_csv({str(tmp_path / 'cert.csv')!r})\n"
        f"budget = ErrorBudget(0.1, 1.0, 0.5, lambda s: s, 1.0, 0.5, 1, 1.0)\n"
        f"error_report(traj, f, core.EULER, budget, 1.0)\n"
        f"print(traj.steps.size, traj.tau.size, *(tr.counts[key] for key in (\n"
        f"    'lyapunov.certify_trajectory.rows', 'lyapunov.report_csv.rows',\n"
        f"    'global_error.error_report.rows')))\n")
    assert proc.returncode == 0, proc.stderr
    steps, nodes, audited, written, measured = map(int, proc.stdout.split())
    assert steps > 0
    assert (audited, written, measured) == (steps, steps, nodes)


def test_benchmark_traces_every_field_call():
    """The field is called only through VectorField.__call__, which
    bench/tracing.py wraps as the span core.field: one certified run,
    stepped and audited, records exactly one span per call of the
    callable, under an explicit and the implicit scheme alike.  bench/ is
    read in place, nothing is written."""
    proc = run_python(
        f"import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        f"import numpy as np, tracing, workloads\n"
        f"from stabstep import applications, core, lyapunov\n"
        f"tr = tracing.Tracer()\n"
        f"tracing.install(tr)\n"
        f"f2 = applications.example_fields()['f2']\n"
        f"calls = []\n"
        f"def f(x):\n"
        f"    calls.append(1)\n"
        f"    return f2.field.f(x)\n"
        f"field = core.VectorField(2, f, jacobian=f2.field.jacobian)\n"
        f"for tab in (core.RK4, core.IMPLICIT_EULER):\n"
        f"    ctrl = lyapunov.HalvingController(f2.lyap, tab, field,\n"
        f"                                      lam=0.5, h_init=1.0)\n"
        f"    traj = core.advance(tab, field, ctrl, np.array([1.0, 0.5]),\n"
        f"                        2.0)\n"
        f"    lyapunov.certify_trajectory(f2.lyap, traj, 0.5, field)\n"
        f"print(len(calls), tr.totals()[0]['core.field'])\n")
    assert proc.returncode == 0, proc.stderr
    called, spans = map(int, proc.stdout.split())
    assert called > 0
    assert spans == called


def test_public_names_resolve_and_none_is_a_module():
    import types

    import stabstep

    assert len(stabstep.__all__) == len(set(stabstep.__all__))
    for name in stabstep.__all__:
        assert not isinstance(getattr(stabstep, name), types.ModuleType), name


# Public names that no run, criterion or benchmark calls, kept on purpose.
# (euler_f2_limit_radius, the one such name so far, left `__all__` with the
# other experiment-only names of `stabstep.applications`.)
UNCALLED_PUBLIC_NAMES: dict[str, str] = {}


def test_every_public_name_is_used():
    """Each name in stabstep.__all__ is read somewhere in the package
    modules or in bench/, or is listed above: a public name that only
    tests call certifies nothing.  The files are parsed, not imported."""
    import stabstep

    files = [p for p in (ROOT / "src" / "stabstep").glob("*.py")
             if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = set(stabstep.__all__) - used
    assert unused == set(UNCALLED_PUBLIC_NAMES), sorted(unused)


def test_global_error_submodule_is_not_shadowed():
    # the package must not re-export the function under the module's name
    proc = run_python("import types\n"
                      "import stabstep.global_error as G\n"
                      "assert isinstance(G, types.ModuleType), G\n"
                      "print(G.compliant_steps.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "compliant_steps"
