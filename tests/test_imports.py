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
    # arithmetic; ndarray.dot reaches the same BLAS routine without it
    found = []
    for name in ("core.py", "lyapunov.py"):
        path = ROOT / "src" / "stabstep" / name
        found += [f"{name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(getattr(node, "op", None), ast.MatMult)]
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
