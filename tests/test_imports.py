"""Import-time guards, each run in a fresh interpreter: what `import
stabstep` loads, and the package names the benchmark harness needs."""

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
    # scipy.stats is slow to import, and only the sampled estimators use it
    proc = run_python("import sys, stabstep\n"
                      "print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_finds_its_names():
    """bench/workloads.py imports names from the package and
    bench/tracing.py wraps others; removing one fails here, not only in a
    traced benchmark run.  One traced implicit Euler run then checks that
    the wrappers read their calls' arguments and count the work.  bench/
    is read in place, nothing is written."""
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
        f" calls['core.field'] > 0, tr.counts['core.advance.steps'] > 0)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True", "True"]


def test_public_names_resolve_and_none_is_a_module():
    import types

    import stabstep

    assert len(stabstep.__all__) == len(set(stabstep.__all__))
    for name in stabstep.__all__:
        assert not isinstance(getattr(stabstep, name), types.ModuleType), name


def test_global_error_submodule_is_not_shadowed():
    # the package must not re-export the function under the module's name
    proc = run_python("import types\n"
                      "import stabstep.global_error as G\n"
                      "assert isinstance(G, types.ModuleType), G\n"
                      "print(G.compliant_steps.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "compliant_steps"
