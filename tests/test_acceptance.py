"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints the criterion's one-line verdict (visible under -v or -s)
and then asserts it.  These are the same checks `stabstep verify` runs;
anything red here is a known, documented shortfall, not a flaky test.
"""

import json
import re
from pathlib import Path

import pytest

from stabstep.acceptance import CRITERIA, run_criterion

NUMBERS = sorted(num for num, _, _ in CRITERIA)

# detail strings recorded by the benchmark at the default seed
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden"
     / "verify.json").read_text()
)["20240501"]


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    # criterion 1 reports its own run time in milliseconds
    assert re.sub(r"\b\d+ms\b", "", result.detail) == GOLDEN[str(number)][1]
    assert result.passed, result.line()


def test_suite_runtime_budget():
    """The whole gate must stay interactive: under a minute end to end."""
    import time

    start = time.perf_counter()
    for number in NUMBERS:
        run_criterion(number)
    assert time.perf_counter() - start < 60.0
