"""Defects, global error measurement, and the two accuracy bounds."""

import math
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabstep.core import (
    ConfigurationError,
    ConstantController,
    EULER,
    HEUN,
    HybridTrajectory,
    KUTTA3,
    advance,
    linear_field,
)
from stabstep.global_error import (
    ErrorBudget,
    _compliant_blocks,
    compliant_steps,
    defect,
    error_bound,
    error_bound_finite_time,
    error_budget_step,
    error_report,
    global_error,
    order_reduction_exponent,
)

DECAY = linear_field(np.array([[-1.0]]))


def unit_budget(epsilon=0.1, lam=0.5):
    """sigma = L = 1, K = 1/2, first order, identity gain, |x0| = 1."""
    return ErrorBudget(epsilon=epsilon, sigma=1.0, lam=lam,
                       a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5,
                       p=1, x0_norm=1.0)


class TestDefect:
    def test_euler_single_step_value(self):
        # (e^{-h} - 1)/h + 1 at h = 0.1
        d = defect(DECAY, EULER, np.array([1.0]), 0.1)
        expected = (math.exp(-0.1) - 1.0) / 0.1 + 1.0
        assert d == pytest.approx(expected, rel=1e-9)
        assert d == pytest.approx(0.048374180359595176, rel=1e-8)

    def test_vanishes_at_equilibrium(self):
        assert defect(DECAY, EULER, np.array([0.0]), 0.3) == 0.0

    def test_nan_step_is_refused(self):
        # NaN passes an `h <= 0` test
        with pytest.raises(ConfigurationError, match="h > 0"):
            defect(DECAY, EULER, np.array([1.0]), math.nan)

    @pytest.mark.parametrize("tab,order", [(EULER, 1), (HEUN, 2),
                                           (KUTTA3, 3)])
    def test_order_in_h(self, tab, order):
        hs = np.logspace(-2.5, -1, 4)
        ds = [defect(DECAY, tab, np.array([1.0]), float(h)) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
        assert slope >= order - 0.15


class TestFiniteTimeBound:
    def test_closed_form(self):
        budget = unit_budget()
        # (D/L)(e^{L tau} - 1)
        val = error_bound_finite_time(budget, 1e-3, 2.0)
        assert val == pytest.approx(1e-3 * (math.e ** 2 - 1.0), rel=1e-12)

    def test_euler_composition(self):
        """Measured global error stays under the accumulated-defect bound."""
        rng = np.random.default_rng(41)
        steps = rng.uniform(0.01, 0.2, size=60)
        taus = np.concatenate([[0.0], np.cumsum(steps)])
        states = np.concatenate([[1.0], np.cumprod(1.0 - steps)])[:, None]
        traj = HybridTrajectory(tau=taus, states=states, steps=steps)
        errs = global_error(traj, DECAY)
        d_sup = max(defect(DECAY, EULER, states[i], float(steps[i]))
                    for i in range(steps.size))
        budget = unit_budget()
        for e, t in zip(errs, taus):
            assert e <= error_bound_finite_time(budget, d_sup, float(t)) \
                + 1e-12


class TestAsymptoticBound:
    def test_interpolation_value(self):
        # lam*sigma = L makes the exponent 1/2: sqrt(D * 2 a(|x0|))
        budget = ErrorBudget(epsilon=0.1, sigma=2.0, lam=0.5,
                             a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5,
                             p=1, x0_norm=1.0)
        assert error_bound(budget, 1e-4) \
            == pytest.approx(math.sqrt(2e-4), rel=1e-12)
        assert error_bound(budget, 1e-4) == pytest.approx(0.0141421, rel=1e-4)

    def test_scaling_in_the_defect(self):
        budget = unit_budget()
        alpha = budget.lam * budget.sigma / (budget.lam * budget.sigma
                                             + budget.l_of_x0)
        ratio = error_bound(budget, 2e-4) / error_bound(budget, 1e-4)
        assert ratio == pytest.approx(2.0 ** alpha, rel=1e-12)

    def test_zero_defect_zero_bound(self):
        assert error_bound(unit_budget(), 0.0) == 0.0


class TestBudgetStepRule:
    """unit_budget is first order with K = L^2/2, where the generic rule is
    (4/L) e^{sigma tau} (2 a(|x0|)/eps)^{-(q+lam)/lam}."""

    def test_euler_value_at_start(self):
        # 4/L * (2 a(1)/eps)^{-(q+lam)/lam} with q = 1, lam = 1/2: 4/20^3
        budget = unit_budget(epsilon=0.1, lam=0.5)
        h = error_budget_step(budget, 0.0, phi_at_x=1e9)
        assert h == pytest.approx(5e-4, rel=1e-12)

    def test_grows_exponentially_then_caps(self):
        budget = unit_budget(epsilon=0.1, lam=0.5)
        tau = math.log(1000.0)
        assert error_budget_step(budget, tau, phi_at_x=1e9) \
            == pytest.approx(0.5, rel=1e-12)
        assert error_budget_step(budget, tau, phi_at_x=0.1) == 0.1

    def test_loose_epsilon_defers_to_phi(self):
        budget = unit_budget(epsilon=math.inf)
        assert error_budget_step(budget, 0.0, phi_at_x=0.7) == 0.7

    @pytest.mark.parametrize("epsilon, tau", [
        pytest.param(1e120, 0.0, id="power"),
        pytest.param(0.1, 1e6, id="exp")])
    def test_an_overflowing_rule_defers_to_phi(self, epsilon, tau):
        # (2/eps)^-3 at eps = 1e120 and e^tau at tau = 1e6 both exceed
        # every float; either used to raise OverflowError
        budget = unit_budget(epsilon=epsilon)
        assert error_budget_step(budget, tau, phi_at_x=0.7) == 0.7

    def test_nan_time_is_refused(self):
        with pytest.raises(ConfigurationError, match="tau_i"):
            error_budget_step(unit_budget(), math.nan, phi_at_x=0.7)

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, -1.0])
    def test_time_outside_the_half_line_is_refused(self, tau):
        # at the tiny epsilon, tau = inf used to give exp(inf) * 0.0 = NaN
        budget = unit_budget(epsilon=1e-120)
        with pytest.raises(ConfigurationError, match=r"tau_i must lie in"):
            error_budget_step(budget, tau, phi_at_x=0.7)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, 0.0, -1.0])
    def test_cap_must_be_positive_and_finite(self, phi):
        with pytest.raises(ConfigurationError, match="phi cap"):
            error_budget_step(unit_budget(epsilon=0.1), 0.0, phi_at_x=phi)

    def test_general_rule_matches_euler_instance(self):
        # first order with K = L^2/2 collapses the generic constant to 4/L
        big_l, sigma, lam, eps, a0 = 0.8, 1.3, 0.4, 0.05, 2.0 * 1.5
        budget = ErrorBudget(epsilon=eps, sigma=sigma, lam=lam,
                             a_gain=lambda s: 2.0 * s, l_of_x0=big_l,
                             k_of_x0=big_l ** 2 / 2.0, p=1, x0_norm=1.5)
        q = big_l / sigma
        for tau in (0.0, 1.0, 3.7):
            closed = ((4.0 / big_l) * math.exp(sigma * tau)
                      * (2.0 * a0 / eps) ** (-(q + lam) / lam))
            assert error_budget_step(budget, tau, 1e9) \
                == pytest.approx(closed, rel=1e-12)

    def test_order_reduction_exponent(self):
        budget = unit_budget(lam=0.5)
        # lam sigma / (lam sigma + L) = 1/3
        assert order_reduction_exponent(budget) == pytest.approx(1.0 / 3.0)


class TestCompliantSteps:
    def test_every_step_obeys_the_rule(self):
        rng = np.random.default_rng(50)
        budget = unit_budget()
        steps = compliant_steps(budget, 1.0, 15.0, rng)
        taus = np.concatenate([[0.0], np.cumsum(steps)])
        for i, h in enumerate(steps):
            cap = error_budget_step(budget, float(taus[i]), 1.0)
            assert h <= cap * (1.0 + 1e-12)

    def test_covers_the_horizon(self):
        rng = np.random.default_rng(51)
        steps = compliant_steps(unit_budget(), 1.0, 5.0, rng)
        assert np.sum(steps) >= 5.0
        assert np.all(steps > 0.0)

    def test_blocks_join_to_the_same_steps_and_draws(self):
        budget = unit_budget(epsilon=0.01)
        rng_blocks = np.random.default_rng(53)
        rng_steps = np.random.default_rng(53)
        joined = np.concatenate([s.copy() for s, _ in _compliant_blocks(
            budget, 1.0, 6.0, rng_blocks)])
        steps = compliant_steps(budget, 1.0, 6.0, rng_steps)
        assert np.array_equal(joined, steps)
        assert rng_blocks.random() == rng_steps.random()

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, t_end):
        rng = np.random.default_rng(54)
        untouched = np.random.default_rng(54)
        with pytest.raises(ConfigurationError, match="horizon"):
            compliant_steps(unit_budget(), 1.0, t_end, rng)
        # refused before any draw
        assert rng.random() == untouched.random()

    @pytest.mark.parametrize("budget", [
        unit_budget(epsilon=1e-120),        # the rule underflows to 0
        ErrorBudget(epsilon=0.1, sigma=1.0, lam=0.5,
                    a_gain=lambda s: math.nan if s else 0.0, l_of_x0=1.0,
                    k_of_x0=0.5, p=1, x0_norm=1.0),
    ], ids=["zero", "nan"])
    def test_degenerate_rule_step_is_refused(self, budget):
        rng = np.random.default_rng(55)
        untouched = np.random.default_rng(55)
        with pytest.raises(ConfigurationError,
                           match=r"step at tau=0\.0 is (0\.0|nan)"):
            compliant_steps(budget, 1.0, 1.0, rng)
        assert rng.random() == untouched.random()

    def test_block_beyond_two_to_the_31_draws_is_refused(self):
        # the rule's first step 4 (2/eps)^-3 = 5e-13 needs 2e11 draws
        budget = unit_budget(epsilon=1e-4)
        rng = np.random.default_rng(56)
        untouched = np.random.default_rng(56)
        with pytest.raises(ConfigurationError, match=r"step 5e-13 at "
                           r"tau=0\.0 needs more than 2\*\*31 draws"):
            compliant_steps(budget, 1.0, 1.0, rng)
        assert rng.random() == untouched.random()


# `_compliant_blocks` as it was before it drew only the kept steps: every
# block draws its full count at once.  The pieces must match it bit for bit.
def _reference_blocks(
    budget: ErrorBudget,
    phi_cap: float,
    t_end: float,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """The blocks of `compliant_steps`, yielded one at a time as drawn."""
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(
            f"compliant steps need a horizon 0 < t_end < inf, got {t_end}"
        )
    lo, hi = 0.5, 1.0
    tau = 0.0
    while tau < t_end:
        bound = error_budget_step(budget, tau, phi_cap)
        block_end = min(tau + 0.05, t_end)
        n_est = max(1, int(math.ceil((block_end - tau) / (lo * bound))) + 1)
        draws = bound * rng.uniform(lo, hi, size=n_est)
        times = tau + np.cumsum(draws)
        keep = int(np.searchsorted(times, block_end, side="left")) + 1
        yield draws[:keep]
        tau = float(times[min(keep, times.size) - 1])


def _buffered_pcg64(seed):
    """A PCG64 holding the unused half of a 32-bit draw."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 1000, dtype=np.int32)
    return rng


def _spent_pcg64(seed):
    """A PCG64 that has used both halves of a 32-bit draw."""
    rng = _buffered_pcg64(seed)
    rng.integers(0, 1000, dtype=np.int32)
    return rng


GENERATORS = {
    "pcg64": np.random.default_rng,
    "pcg64-buffered": _buffered_pcg64,
    "pcg64-spent": _spent_pcg64,
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
}


def _plain(state):
    """A bit generator's state with its arrays as lists, for comparison."""
    return {k: _plain(v) if isinstance(v, dict)
            else v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in state.items()}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_step=st.floats(-5.0, 0.5),
       sigma=st.floats(0.5, 2.0), lam=st.floats(0.2, 0.95),
       phi_cap=st.floats(0.01, 2.0), t_end=st.floats(0.01, 2.0),
       generator=st.sampled_from(sorted(GENERATORS)))
# one block of about 149,000 kept steps
@example(seed=1, log_step=-6.35, sigma=1.0, lam=0.5, phi_cap=1.0,
         t_end=0.05, generator="mt19937")
# a first block of just over 2**15 kept steps, overrunning its first chunks
@example(seed=2, log_step=-5.7, sigma=0.5, lam=0.5, phi_cap=1.0,
         t_end=0.15, generator="pcg64")
# a tail of one-step blocks once the rule reaches phi_cap
@example(seed=3, log_step=-1.0, sigma=2.0, lam=0.9, phi_cap=0.2,
         t_end=2.0, generator="pcg64-buffered")
def test_blocks_match_the_full_draw_reference(seed, log_step, sigma, lam,
                                              phi_cap, t_end, generator):
    """Drawing only the kept steps gives the steps, the exact clock and the
    generator state of drawing every block's full count."""
    # epsilon solved from the rule's first step 10**log_step, so that the
    # sequences stay short: 4 (2/eps)^expo with expo = -(1/sigma + lam)/lam
    expo = -(1.0 / sigma + lam) / lam
    epsilon = 2.0 / (10.0 ** log_step / 4.0) ** (1.0 / expo)
    budget = ErrorBudget(epsilon=epsilon, sigma=sigma, lam=lam,
                         a_gain=lambda s: s, l_of_x0=1.0, k_of_x0=0.5,
                         p=1, x0_norm=1.0)
    rng_ref, rng = GENERATORS[generator](seed), GENERATORS[generator](seed)
    expected = np.concatenate(list(_reference_blocks(budget, phi_cap, t_end,
                                                     rng_ref)))
    pieces = [(s.copy(), t.copy())
              for s, t in _compliant_blocks(budget, phi_cap, t_end, rng)]
    joined = np.concatenate([s for s, _ in pieces])
    clock = -np.concatenate([t for _, t in pieces])
    assert all(s.size <= 2**14 for s, _ in pieces)
    assert joined.tobytes() == expected.tobytes()
    assert clock.tobytes() == np.cumsum(joined).tobytes()
    assert _plain(rng.bit_generator.state) \
        == _plain(rng_ref.bit_generator.state)


@pytest.mark.parametrize("generator", ["pcg64", "pcg64-buffered",
                                       "pcg64-spent"])
def test_generator_state_is_read_once_and_restored_once(generator):
    """The state is read when the pieces start and its spent half-word put
    back when they end, so the generator ends as full drawing leaves it:
    consumed to the end, and closed after its first block."""
    budget = unit_budget(epsilon=0.01)
    state = GENERATORS[generator](8).bit_generator.state
    assert (state["has_uint32"], bool(state["uinteger"])) == {
        "pcg64": (0, False), "pcg64-buffered": (1, True),
        "pcg64-spent": (0, True)}[generator]

    rng_ref, rng = GENERATORS[generator](8), GENERATORS[generator](8)
    expected = np.concatenate(list(_reference_blocks(budget, 1.0, 0.5,
                                                     rng_ref)))
    joined = np.concatenate([s.copy() for s, _ in _compliant_blocks(
        budget, 1.0, 0.5, rng)])
    assert joined.tobytes() == expected.tobytes()
    assert _plain(rng.bit_generator.state) \
        == _plain(rng_ref.bit_generator.state)

    rng_ref, rng = GENERATORS[generator](8), GENERATORS[generator](8)
    first = next(_reference_blocks(budget, 1.0, 0.5, rng_ref))
    blocks = _compliant_blocks(budget, 1.0, 0.5, rng)
    pieces = []
    while sum(p.size for p in pieces) < first.size:
        pieces.append(next(blocks)[0].copy())
    assert np.concatenate(pieces).tobytes() == first.tobytes()
    blocks.close()
    assert _plain(rng.bit_generator.state) \
        == _plain(rng_ref.bit_generator.state)


class TestErrorReport:
    def test_bounds_hold_on_compliant_run(self):
        rng = np.random.default_rng(52)
        budget = unit_budget()
        steps = compliant_steps(budget, 1.0, 8.0, rng)
        taus = np.concatenate([[0.0], np.cumsum(steps)])
        states = np.concatenate([[1.0], np.cumprod(1.0 - steps)])[:, None]
        traj = HybridTrajectory(tau=taus, states=states, steps=steps)
        report = error_report(traj, DECAY, EULER, budget, phi_cap=1.0)
        assert report.bounds_hold
        assert report.max_error <= budget.epsilon

    def test_csv_columns(self, tmp_path):
        budget = unit_budget()
        steps = np.full(10, 0.05)
        taus = np.concatenate([[0.0], np.cumsum(steps)])
        states = np.concatenate([[1.0], np.cumprod(1.0 - steps)])[:, None]
        traj = HybridTrajectory(tau=taus, states=states, steps=steps)
        report = error_report(traj, DECAY, EULER, budget, phi_cap=1.0)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "tau,e_norm,bound_7_4,bound_7_6,rule_step"


class TestBudgetValidation:
    def test_gain_must_vanish_at_zero(self):
        with pytest.raises(Exception):
            ErrorBudget(epsilon=0.1, sigma=1.0, lam=0.5,
                        a_gain=lambda s: s + 1.0, l_of_x0=1.0,
                        k_of_x0=0.5, p=1, x0_norm=1.0)

    @pytest.mark.parametrize("name, value", [
        ("lam", 2.0), ("lam", 1.0), ("lam", 0.0), ("lam", math.nan),
        ("sigma", math.inf), ("sigma", math.nan), ("l_of_x0", math.inf),
        ("k_of_x0", math.inf), ("x0_norm", math.inf), ("epsilon", math.nan),
        ("p", math.nan)])
    def test_constant_out_of_range_is_refused(self, name, value):
        # lam = 2 with sigma = inf used to pass, with a NaN exponent
        args = dict(epsilon=0.1, sigma=1.0, lam=0.5, a_gain=lambda s: s,
                    l_of_x0=1.0, k_of_x0=0.5, p=1, x0_norm=1.0)
        args[name] = value
        with pytest.raises(ConfigurationError, match=rf"^{name} must"):
            ErrorBudget(**args)

    @pytest.mark.parametrize("bound", [
        lambda budget, d: error_bound(budget, d),
        lambda budget, d: error_bound_finite_time(budget, d, 1.0)],
        ids=["error_bound", "error_bound_finite_time"])
    def test_nan_defect_supremum_is_refused(self, bound):
        with pytest.raises(ConfigurationError, match="defect supremum"):
            bound(unit_budget(), math.nan)

    def test_q_property(self):
        budget = ErrorBudget(epsilon=0.1, sigma=2.0, lam=0.5,
                             a_gain=lambda s: s, l_of_x0=3.0, k_of_x0=0.5,
                             p=1, x0_norm=1.0)
        assert budget.q == pytest.approx(1.5)
