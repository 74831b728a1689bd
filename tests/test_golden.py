"""Catalog and certified outputs against the benchmark's golden records.

Every `stabstep run` experiment at its defaults and the default seed must
reproduce the exit code, the summary line and the SHA-256 of every CSV it
writes, as recorded in bench/golden/catalog.json.  Every job of the
benchmark's `certified` workload at the default seed (controller-driven
`advance` plus a re-audit) must reproduce its trajectory digest, step count
and audit verdict, as recorded in bench/golden/certified.json.  A refactor
that moves one byte of output fails here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stabstep.cli import CATALOG, main

SEED = "20240501"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def golden(workload: str) -> dict:
    return json.loads((BENCH / "golden" / f"{workload}.json").read_text())[SEED]


GOLDEN = golden("catalog")


@pytest.mark.parametrize("name", [exp.name for exp in CATALOG])
def test_catalog_matches_golden(name, tmp_path, capsys):
    code = main(["run", name, "--seed", SEED, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}
    assert [code, out, csvs] == GOLDEN[name]


def load_workloads():
    """bench/workloads.py, imported by path (bench is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_certified_matches_golden(tmp_path):
    workloads = load_workloads()
    certified = workloads.Certified(0, tmp_path)
    assert str(certified.program_seed) == SEED
    expected = golden("certified")
    assert sorted(certified.ops) == sorted(expected)
    mismatched = [op for op in certified.ops
                  if certified.record(op, certified.run(op)) != expected[op]]
    assert mismatched == []
