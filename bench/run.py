"""Benchmark entry point for stabstep.

    python3 bench/run.py --workload {verify,catalog,certified} --seed N \
        --seconds S --trace {0,1}

Every measurement happens in a fresh single-process child (child.py), one
child at a time, with its environment (and only its environment) pinning
the BLAS thread pools to one thread.

--trace 0 prints the end-to-end metrics. Three measuring children each set
up (their median set-up time is reported) and then run untraced passes over
the workload for S/3 seconds, checking every output against the golden
record. Each operation's wall time and CPU time are its medians over all
passes, which keeps short bursts of contention out of the figures. The time
metrics use CPU time, which time stolen by other tenants of the host does
not inflate; the wall time is printed but not gated.

--trace 1 prints the per-layer metrics. One child runs an untraced pass and
then a traced one; a second child repeats the traced pass, and the two must
report identical counters, or the benchmark fails.

The last line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "catalog", "certified")
CHILDREN = 3
BUDGET_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
EXACT_UNITS = ("count", "bytes")


class BenchError(Exception):
    pass


def spawn(deadline: float, *argv: str) -> dict:
    """Run one child to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    cmd = [sys.executable, str(BENCH / "child.py"), *argv,
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: "
                         f"{' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    runs = [spawn(deadline, "--workload", args.workload,
                  "--seed", str(args.seed), "--mode", "measure",
                  "--seconds", str(args.seconds / CHILDREN))
            for _ in range(CHILDREN)]
    main = runs[0]
    passes = [p for run in runs for p in run["passes"]]
    wall = [statistics.median(p["op_s"][i] for p in passes)
            for i in range(main["ops"])]
    cpu = [statistics.median(p["op_cpu_s"][i] for p in passes)
           for i in range(main["ops"])]
    attempted = main["ops"] * len(passes)
    failed = sum(p["failed"] for p in passes)
    rejected = sum(p["audit_rejected"] for p in passes)
    metrics = {
        "cpu_s": (sum(cpu), "s"),
        "setup_s": (statistics.median(run["setup_s"] for run in runs), "s"),
        # the RSS after the first pass; its peak moves with the host's huge
        # pages, so take the median over the children
        "peak_rss_mb": (statistics.median(run["passes"][0]["maxrss_kb"]
                                          for run in runs) / 1024.0, "MB"),
        "ok_ratio": (1.0 - (failed + rejected) / attempted, "ratio"),
        "solve_p50_ms": (1e3 * statistics.median(cpu), "ms"),
        "solve_p90_ms": (1e3 * statistics.quantiles(cpu, n=10)[-1], "ms"),
    }
    info = {"wall_s": sum(wall), "passes": len(passes),
            "operations": main["ops"],
            "program_seed": main["program_seed"],
            "audit_rejected": rejected,
            "cpu_wall_ratio": [run["cpu_wall_ratio"] for run in runs],
            "versions": main["versions"]}
    return metrics, {"attempted": attempted, "failed": failed, "info": info}


def trace(args, deadline: float) -> tuple[dict, dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed),
              "--mode", "trace")
    spans = ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.npz"
    first = spawn(deadline, *common, "--baseline", "--spans", str(spans))
    second = spawn(deadline, *common)
    differ = [name for name, (value, unit) in first["layers"].items()
              if unit in EXACT_UNITS and second["layers"][name][0] != value]
    if differ:
        raise BenchError("counters differ between two traced runs of the "
                         "same seed: " + ", ".join(
                             f"{n} {first['layers'][n][0]} vs "
                             f"{second['layers'][n][0]}" for n in differ))
    metrics = {k: tuple(v) for k, v in first["layers"].items()}
    base = first["untraced"]["wall_s"]
    overhead = first["traced_wall_s"] - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / base, "%")
    metrics["trace.spans"] = (first["spans"], "count")
    metrics["run.cpu_wall_ratio"] = (first["cpu_wall_ratio"], "ratio")
    info = {"operations": first["ops"], "program_seed": first["program_seed"],
            "spans_file": str(spans.relative_to(ROOT)),
            "versions": first["versions"]}
    failed = first["untraced"]["failed"] + first["traced_failed"]
    return metrics, {"attempted": 2 * first["ops"], "failed": failed,
                     "info": info}


def declared(trace_on: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace_on else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stabstep" / "__init__.py").is_file():
        print("error: stabstep sources not found under src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, result = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared(bool(args.trace)):
        print("error: emitted metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    info = result.pop("info")
    wall = info.pop("wall_s", None)
    info.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                workload=args.workload, seed=args.seed)
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:16.6f} {unit}")
    if wall is not None:  # shown, not gated: host contention sets its spread
        print(f"{'wall_s':52s} {wall:16.6f} s")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
