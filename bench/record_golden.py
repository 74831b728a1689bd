"""Record the golden outputs the benchmark checks every run against.

    python3 bench/record_golden.py [workload ...]

For each workload it runs one pass at every program seed the benchmark can
use and writes bench/golden/<workload>.json, keyed by program seed. An
existing file is never overwritten: a golden record changes only when the
program's output legitimately changes, so delete the file on purpose and say
why.
"""

import json
import sys

from child import GOLDEN, SCRATCH, run_pass
import workloads


def main(names: list[str]) -> int:
    SCRATCH.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        path = GOLDEN / f"{name}.json"
        if path.exists():
            print(f"{path} exists; delete it to record again", file=sys.stderr)
            return 1
        table = {}
        for slot in range(workloads.GOLDEN_SLOTS):
            wl = workloads.WORKLOADS[name](slot, SCRATCH)
            if str(wl.program_seed) in table:
                continue
            result = run_pass(wl, None)
            if len(result["records"]) != len(wl.ops):
                print(f"{name} slot {slot}: an operation raised",
                      file=sys.stderr)
                return 1
            table[str(wl.program_seed)] = result["records"]
            print(f"{name} seed {wl.program_seed}: {len(wl.ops)} records, "
                  f"{result['audit_rejected']} audit rejections", flush=True)
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(dump(table))
    return 0


def dump(table: dict) -> str:
    """JSON with one operation's record per line."""
    seeds = []
    for seed, records in sorted(table.items()):
        lines = ",\n".join(f"{json.dumps(op)}: {json.dumps(rec)}"
                           for op, rec in sorted(records.items()))
        seeds.append(f"{json.dumps(seed)}: {{\n{lines}\n}}")
    return "{\n" + ",\n".join(seeds) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
