"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints the criterion's one-line verdict (visible under -v or -s)
and then asserts it.  These are the same checks `stabstep verify` runs;
anything red here is a known, documented shortfall, not a flaky test.
"""

import functools
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabstep import cli
from stabstep.acceptance import (
    AcceptanceTolerances,
    CRITERIA,
    _constant_pieces,
    _euler_decay_errors,
    run_criterion,
)
from stabstep.global_error import _PIECE, ErrorBudget, _compliant_blocks

NUMBERS = sorted(num for num, _, _ in CRITERIA)

# detail strings recorded by the benchmark at the default seed
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden"
     / "verify.json").read_text()
)["20240501"]


@functools.cache
def criterion_result(number):
    """Each criterion runs once per test run; its tests share the result."""
    return run_criterion(number)


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(number):
    result = criterion_result(number)
    print(result.line())
    # criterion 1 reports its own run time in milliseconds
    assert re.sub(r"\b\d+ms\b", "", result.detail) == GOLDEN[str(number)][1]
    assert result.passed, result.line()


def test_suite_runtime_budget():
    """The whole gate must stay interactive: under a minute in all, summed
    over the run times the criteria record."""
    assert sum(criterion_result(n).seconds for n in NUMBERS) < 60.0


# each value is tightened just past what the criterion measures at the
# default seed (in the comment), so the criterion must turn red
@pytest.mark.parametrize("number, field, value", [
    (1, "stiff_rel_tol", 1e-12),      # rel 3.6e-07
    (2, "min_small_steps", 278),      # 277 small steps
    (8, "agreement_rtol", 1e-15),     # worst spread 2.8e-15
    (11, "slope_margin", 0.0),        # euler slope 0.99
])
def test_tightened_tolerance_fails(number, field, value):
    tolerances = replace(AcceptanceTolerances(), **{field: value})
    result = run_criterion(number, tolerances)
    assert not result.passed, result.line()
    assert criterion_result(number).passed


def test_criterion_3_judges_the_catalog_run(monkeypatch):
    # f2-implicit first drops below 1e-8 at step 881 of its 2000; given a
    # budget of 500, the implicit clause must report what that run did
    monkeypatch.setitem(cli._BY_NAME["f2-implicit"].defaults, "steps", 500)
    result = run_criterion(3)
    assert "f2 implicit never below 1e-08 in 500 steps" in result.detail
    assert not result.passed


def _whole_array_reference(steps: np.ndarray) -> float:
    """Worst node error of Euler on x' = -x from x0 = 1 for given steps."""
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    xs = np.concatenate([[1.0], np.cumprod(1.0 - steps)])
    return float(np.max(np.abs(np.exp(-taus) - xs)))


def _pieces(steps: np.ndarray, cuts=()) -> list:
    """(steps, -tau) pairs cut from one sequence, as `_compliant_blocks`
    yields them."""
    return list(zip(np.split(steps, cuts), np.split(-np.cumsum(steps), cuts)))


@settings(max_examples=25, deadline=None)
@given(size=st.integers(0, 70_000), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 0.0))
@example(size=1, seed=1, log_scale=-1.0)
@example(size=32767, seed=2, log_scale=-3.0)
@example(size=32768, seed=3, log_scale=-4.0)
@example(size=32769, seed=4, log_scale=-5.0)
def test_streamed_decay_errors_match_the_whole_array(size, seed, log_scale):
    rng = np.random.default_rng(seed)
    steps = 10.0 ** log_scale * rng.uniform(0.01, 1.0, size)
    cuts = np.sort(rng.integers(0, size + 1, rng.integers(0, 6)))
    assert (_euler_decay_errors(_pieces(steps, cuts)).hex()
            == _whole_array_reference(steps).hex())


def test_streamed_decay_errors_keep_a_nan():
    steps = np.full(40_000, 1e-4)
    steps[35_000] = np.nan
    assert np.isnan(_whole_array_reference(steps))
    assert np.isnan(_euler_decay_errors(_pieces(steps, [20_000])))


@pytest.mark.parametrize("count", [1, _PIECE, 2 * _PIECE + 1])
def test_constant_pieces_join_to_the_whole_sequence(count):
    h = 1e-3  # not a binary fraction, so the clock rounds
    steps = np.full(count, h)
    pieces = [(s.copy(), t.copy()) for s, t in _constant_pieces(h, count)]
    assert np.concatenate([s for s, _ in pieces]).tobytes() == steps.tobytes()
    assert (np.concatenate([t for _, t in pieces]).tobytes()
            == (-np.cumsum(steps)).tobytes())
    assert (_euler_decay_errors(_constant_pieces(h, count)).hex()
            == _whole_array_reference(steps).hex())


def test_budget_sequence_streams_in_bounded_memory():
    """One full-length criterion 10 sequence (about 2.7 million steps, 22 MB
    as one float64 array) is evaluated in fixed buffers of 640 KB."""
    tol = AcceptanceTolerances()
    budget = ErrorBudget(
        epsilon=tol.budget_epsilon, sigma=1.0, lam=0.5,
        a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5, p=1, x0_norm=1.0,
    )
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        _euler_decay_errors(
            _compliant_blocks(budget, 1.0, tol.budget_horizon, rng))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
