"""Catalog outputs against the benchmark's golden records.

Every `stabstep run` experiment at its defaults and the default seed must
reproduce the exit code, the summary line and the SHA-256 of every CSV it
writes, as recorded in bench/golden/catalog.json.  A refactor that moves
one byte of output fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stabstep.cli import CATALOG, main

SEED = "20240501"
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden"
     / "catalog.json").read_text()
)[SEED]


@pytest.mark.parametrize("name", [exp.name for exp in CATALOG])
def test_catalog_matches_golden(name, tmp_path, capsys):
    code = main(["run", name, "--seed", SEED, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}
    assert [code, out, csvs] == GOLDEN[name]
