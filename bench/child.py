"""One benchmark child process: set up a workload, run it, report as JSON.

Set-up is everything from the interpreter's start to the moment the
workload's inputs exist: importing stabstep and generating the inputs.
Modes:
  measure  run untraced passes until --seconds have elapsed, checking
           every operation's output against the golden record;
  trace    optionally one untraced pass (checked, and the base for the
           tracing overhead), then one traced pass.
The last line of standard output is the child's result as JSON.
"""

import time
import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports stabstep)

SCRATCH = ROOT / ".bench_build"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_golden(name: str, program_seed: int) -> dict:
    table = json.loads((GOLDEN / f"{name}.json").read_text())
    if str(program_seed) not in table:
        raise SystemExit(f"no golden record for {name} at seed {program_seed}")
    return table[str(program_seed)]


def run_pass(wl, golden: dict | None, tracer=None) -> dict:
    """Run every operation once; compare each record with the golden one."""
    outs, times, cpu = [], [], []
    wl.begin_pass()
    try:
        start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                out = wl.run(op)
            except Exception:
                traceback.print_exc()
                out = None
            times.append(time.perf_counter() - t0)
            cpu.append(time.thread_time() - c0)
            outs.append(out)
        wall = time.perf_counter() - start

        failed = rejected = 0
        records = {}
        for op, out in zip(wl.ops, outs):
            if out is None:
                failed += 1
                continue
            record = json.loads(json.dumps(wl.record(op, out)))
            records[op] = record
            if golden is not None and record != golden.get(op):
                failed += 1
                print(f"golden mismatch on {wl.__class__.__name__} {op}: "
                      f"{record!r} != {golden.get(op)!r}", file=sys.stderr)
            rejected += wl.audit_rejected(out)
    finally:
        wl.end_pass()
    return {"wall_s": wall, "op_s": times, "op_cpu_s": cpu, "failed": failed,
            "audit_rejected": rejected, "records": records}


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("measure", "trace"))
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned us")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--baseline", action="store_true",
                    help="trace mode: run one untraced pass first")
    ap.add_argument("--spans", help="trace mode: write the spans here")
    args = ap.parse_args()

    SCRATCH.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, SCRATCH)
    result = {"setup_s": time.monotonic() - args.spawned,
              "ops": len(wl.ops), "program_seed": wl.program_seed}

    if args.mode == "measure":
        golden = load_golden(args.workload, wl.program_seed)
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        passes = []
        while not passes or time.perf_counter() - wall0 < args.seconds:
            p = run_pass(wl, golden)
            del p["records"]
            p["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            passes.append(p)
        result["cpu_wall_ratio"] = ((cpu_seconds() - cpu0)
                                    / (time.perf_counter() - wall0))
        result["passes"] = passes
    elif args.mode == "trace":
        import tracing
        if args.baseline:
            base = run_pass(wl, load_golden(args.workload, wl.program_seed))
            result["untraced"] = {"wall_s": base["wall_s"],
                                  "failed": base["failed"]}
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cpu0 = cpu_seconds()
        traced = run_pass(wl, None, tracer)
        result["cpu_wall_ratio"] = (cpu_seconds() - cpu0) / traced["wall_s"]
        result["traced_wall_s"] = traced["wall_s"]
        result["traced_failed"] = traced["failed"]
        result["spans"] = len(tracer.span_start)
        from stabstep import acceptance, cli
        result["layers"] = tracing.layer_metrics(
            tracer, [num for num, _, _ in acceptance.CRITERIA],
            [exp.name for exp in cli.CATALOG])
        if args.spans:
            tracer.write(Path(args.spans))

    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
