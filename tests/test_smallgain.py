"""Partitioned chain updates, the sigma constant, and ISS estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabstep.core import ConfigurationError, ControllerError, HybridTrajectory
from stabstep.smallgain import (
    CascadeSystem,
    IssCheckResult,
    advance_chain,
    advection_chain,
    chain_decay_trials,
    iss_estimate_check,
    partitioned_step,
    sigma_constant,
    write_chain_csv,
    write_grid_csv,
)


def unit_chain(n):
    """Transport chain with c/dz = 1 and no reaction term.

    The grid divides the unit interval into n cells, so c = 1/n makes
    every update x_i -> (x_i + h x_{i-1}) / (1 + h).
    """
    return advection_chain(n, 1.0 / n, lambda y: 0.0, 0.0)


class TestPartitionedStep:
    def test_single_node_halves(self):
        chain = unit_chain(1)
        out = partitioned_step(chain, np.array([1.0]), 1.0)
        assert out[0] == 0.5

    def test_updates_read_old_neighbors(self):
        # Node 2 must see the pre-update value of node 1.  A leaky
        # implementation that reads the new 0.5 would produce 0.25.
        chain = unit_chain(3)
        out = partitioned_step(chain, np.array([1.0, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0])

    def test_origin_is_fixed(self):
        chain = unit_chain(4)
        out = partitioned_step(chain, np.zeros(4), 0.7)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_supnorm_never_grows_without_reaction(self):
        """Each update is a convex combination of two old components."""
        rng = np.random.default_rng(23)
        chain = unit_chain(6)
        x = rng.normal(size=6) * 3.0
        for _ in range(50):
            h = float(rng.uniform(0.01, 5.0))
            nxt = partitioned_step(chain, x, h)
            assert np.max(np.abs(nxt)) <= np.max(np.abs(x)) + 1e-14
            x = nxt

    def test_step_cap_enforced(self):
        chain = advection_chain(3, 3.0, lambda y: 0.0, 0.0, r=0.5)
        with pytest.raises(ConfigurationError):
            partitioned_step(chain, np.ones(3), 0.6)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_refuses_a_non_finite_step(self, h):
        with pytest.raises(ConfigurationError, match="step must be positive"):
            partitioned_step(unit_chain(3), np.ones(3), h)


class TestAdvanceChain:
    def test_clock_and_shapes(self):
        chain = unit_chain(5)
        steps = np.full(20, 0.3)
        run = advance_chain(chain, np.ones(5), steps)
        assert run.states.shape == (21, 5)
        np.testing.assert_array_equal(run.tau[1:], run.tau[:-1] + steps)

    def test_final_sup_matches_states(self):
        chain = unit_chain(4)
        run = advance_chain(chain, np.array([1.0, -2.0, 0.5, 0.0]),
                            np.full(10, 0.2))
        assert run.final_sup == np.max(np.abs(run.states[-1]))

    def test_csv_headers(self, tmp_path):
        chain = unit_chain(3)
        run = advance_chain(chain, np.ones(3), np.full(4, 0.5))
        p1 = tmp_path / "chain.csv"
        p2 = tmp_path / "grid.csv"
        write_chain_csv(run, p1)
        write_grid_csv(run, p2)
        assert p1.read_text().splitlines()[0] == "tau,h,x_1,x_2,x_3"
        assert p2.read_text().splitlines()[0] == "tau,z_index,value"


# The hand loops that advance_chain and chain_decay_trials ran before they
# stepped through core.advance, kept verbatim as references.

def _advance_chain_loop(sys, x0, steps):
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ConfigurationError("x0 must match the chain length")
    steps = np.asarray(steps, dtype=float)
    states = np.empty((steps.size + 1, sys.n))
    states[0] = x
    taus = np.empty(steps.size + 1)
    taus[0] = 0.0
    for k, h in enumerate(steps.tolist()):
        x = partitioned_step(sys, x, h)
        states[k + 1] = x
        taus[k + 1] = taus[k] + h  # the additions the clock check repeats
    return HybridTrajectory(tau=taus, states=states, steps=steps)


def _chain_decay_trials_loop(rng, runs, cap, target):
    fails = 0
    worst = 0
    for _ in range(runs):
        n = int(rng.integers(5, 21))
        c = float(rng.uniform(0.5, 2.0))
        big_k = float(rng.uniform(0.0, 0.7)) * c * n
        theta = float(rng.uniform(0.0, 3.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        chain = advection_chain(
            n, c, lambda y: big_k * math.cos(theta * y + phase), big_k, r=10.0
        )
        x = rng.uniform(-1.0, 1.0, size=n)
        nrm = float(np.linalg.norm(x))
        if nrm > 0:
            x *= rng.uniform(0.1, 10.0) / nrm
        reached = False
        for k in range(cap):
            x = partitioned_step(chain, x, 10.0 * (1.0 - rng.random()))
            sup = float(np.max(np.abs(x)))  # NaN or inf if any entry is
            if not math.isfinite(sup):
                break
            if sup < target:
                reached = True
                worst = max(worst, k + 1)
                break
        fails += 0 if reached else 1
    return fails, worst


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), c=st.floats(0.1, 5.0),
       k_frac=st.floats(0.0, 0.95), theta=st.floats(0.0, 3.0),
       capped=st.booleans(), seed=st.integers(0, 2**32 - 1),
       n_steps=st.integers(0, 60), log_h=st.floats(-3.0, 1.0))
def test_advance_chain_matches_the_hand_loop(n, c, k_frac, theta, capped,
                                             seed, n_steps, log_h):
    big_k = k_frac * c * n
    chain = advection_chain(n, c, lambda y: big_k * math.cos(theta * y),
                            big_k, r=10.0 if capped else None)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-5.0, 5.0, size=n)
    steps = np.minimum(10.0 ** log_h * (1.0 - rng.random(n_steps)), 10.0)
    run = advance_chain(chain, x0, steps)
    ref = _advance_chain_loop(chain, x0, steps)
    for got, want in ((run.tau, ref.tau), (run.states, ref.states),
                      (run.steps, ref.steps)):
        assert np.array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3),
       cap=st.integers(1, 300), log_target=st.floats(-9.0, -2.0))
def test_chain_decay_trials_match_the_hand_loop(seed, runs, cap, log_target):
    # Every initial sup is at least 0.1 / sqrt(20) > 1e-2, above any target
    # drawn here: the hand loop stepped before its first test, advance tests
    # the initial state too.
    target = 10.0 ** log_target
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (chain_decay_trials(rng, runs, cap, target)
            == _chain_decay_trials_loop(ref_rng, runs, cap, target))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("runs", [-1, 2.0, 1.5])
def test_chain_decay_trials_refuse_a_run_count(runs):
    # runs=-1 returned (0, 0), as if every run had decayed
    with pytest.raises(ConfigurationError, match="runs"):
        chain_decay_trials(np.random.default_rng(0), runs, 10, 1e-6)


@pytest.mark.parametrize("target", [math.nan, 0.0, -1e-6, math.inf])
def test_chain_decay_trials_refuse_a_target(target):
    # target=nan counted every run as failed
    with pytest.raises(ConfigurationError, match="target"):
        chain_decay_trials(np.random.default_rng(0), 1, 10, target)


def _overflowing_chain():
    """x_2 is driven by x_1 squared, which overflows from x_1 = 1e200."""
    return CascadeSystem(n=2, l_bounds=(1.0, 1.0),
                         a_vec=lambda x: np.ones(2),
                         f_vec=lambda x: np.array([0.0, x[0] * x[0]]))


def test_overflowing_chain_raises_naming_tau():
    # |x0| overflows when squared, but x0 is finite and is recorded; the
    # first step makes x_2 infinite
    with np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match=r"tau=1\.0\b"):
        advance_chain(_overflowing_chain(), np.array([1e200, 1.0]),
                      np.ones(3))


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_nonpositive_chain_step_raises_controller_error(bad):
    with pytest.raises(ControllerError, match=r"tau=0\.5\b"):
        advance_chain(unit_chain(3), np.ones(3), [0.5, bad, 0.5])


class TestSigmaConstant:
    def test_unit_arguments(self):
        assert sigma_constant(1.0, 1.0) == pytest.approx(math.log(2.0))

    def test_value_at_ten(self):
        assert sigma_constant(10.0, 1.0) \
            == pytest.approx(math.log(11.0) / 10.0)

    def test_series_branch_is_continuous(self):
        # the Taylor branch takes over below s = 1e-8
        lo = sigma_constant(9.9e-9, 1.0)
        hi = sigma_constant(1.1e-8, 1.0)
        assert lo == pytest.approx(hi, rel=1e-9)
        assert lo < 1.0

    def test_decreases_in_the_product(self):
        vals = [sigma_constant(r, 2.0) for r in (0.1, 1.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("r, big_l", [(math.nan, 1.0), (1.0, math.nan),
                                          (0.0, 1.0), (1.0, -2.0)])
    def test_refuses_what_is_not_positive(self, r, big_l):
        # a NaN passes an `r <= 0` test and used to come back as sigma = NaN
        with pytest.raises(ConfigurationError, match="r and L"):
            sigma_constant(r, big_l)


class TestIssEstimate:
    def test_pure_decay_holds_with_margin(self):
        res = iss_estimate_check(lambda y: 1.0, 1.0, 1.0,
                                 np.full(30, 0.5), np.zeros(30), 2.0)
        assert res.holds
        assert res.margin > 0.0

    def test_constant_input_stays_under_gain(self):
        # From rest the response never exceeds the ISS input gain.
        c = 0.7
        res = iss_estimate_check(lambda y: 2.0, 2.0, 1.0,
                                 np.full(200, 0.25), np.full(200, c), 0.0)
        assert res.holds
        gain = (1.0 + math.e) / (math.e * res.sigma * 2.0)
        assert res.sup_state <= gain * c + 1e-12

    def test_zero_everything(self):
        res = iss_estimate_check(lambda y: 1.0, 1.0, 1.0,
                                 np.full(5, 0.1), np.zeros(5), 0.0)
        assert res.holds
        assert res.sup_state == 0.0

    def test_rate_floor_enforced(self):
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 0.5, 1.0, 1.0,
                               np.full(5, 0.5), np.zeros(5), 1.0)

    def test_step_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 1.0, 1.0, 1.0,
                               np.array([1.5]), np.zeros(1), 1.0)

    def test_derived_rate_survives_where_printed_fails(self):
        # With L = 0.2 the true decay is about rate L, the derived bound
        # decays at sigma*L, but the printed variant claims rate sigma
        # alone and gets overtaken.
        res = iss_estimate_check(lambda y: 0.2, 0.2, 1.0,
                                 np.full(50, 0.5), np.zeros(50), 1.0)
        assert res.holds
        assert res.margin > 0.0
        assert not res.holds_printed

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, bad):
        steps = np.full(10, 0.5)
        steps[3] = bad
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 1.0, 1.0, 1.0, steps,
                               np.zeros(10), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        v = np.zeros(10)
        v[3] = bad
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 1.0, 1.0, 1.0, np.full(10, 0.5),
                               v, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x0_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 1.0, 1.0, 1.0, np.full(10, 0.5),
                               np.zeros(10), bad)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("x0, v", [(1e308, 0.0), (0.0, 1e308)])
    def test_overflowing_estimate_rejected(self, x0, v):
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: 1.0, 1.0, 1.0, np.full(10, 1.0),
                               np.full(10, v), x0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            iss_estimate_check(lambda y: math.nan, 1.0, 1.0,
                               np.full(10, 0.5), np.zeros(10), 1.0)


# The sample-by-sample margin loop that the vectorized margins replaced,
# kept verbatim as the reference they must match bit for bit.
def _scalar_iss_estimate_check(a_func, big_l, r, steps, v, x0):
    steps = np.asarray(steps, dtype=float)
    if steps.size == 0:
        raise ConfigurationError("need at least one step")
    if np.any(steps <= 0) or np.any(steps > r):
        raise ConfigurationError("steps must lie in (0, r]")
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), steps.shape)
    sup_v = float(np.max(np.abs(v_arr)))
    sigma = sigma_constant(r, big_l)
    gain = (1.0 + math.e) / (math.e * sigma * big_l) * sup_v

    xs = np.empty(steps.size + 1)
    xs[0] = float(x0)
    taus = np.empty(steps.size + 1)
    taus[0] = 0.0
    for k, h in enumerate(steps):
        a_val = float(a_func(xs[k]))
        if a_val < big_l - 1e-12:
            raise ConfigurationError(f"a({xs[k]}) = {a_val} undercuts L = {big_l}")
        xs[k + 1] = (xs[k] + h * v_arr[k]) / (1.0 + h * a_val)
        taus[k + 1] = taus[k] + h

    def margins(rate: float, overshoot: float) -> float:
        worst = math.inf
        init = overshoot * abs(x0)
        for k in range(steps.size + 1):
            worst = min(worst,
                        init * math.exp(-rate * taus[k]) + gain - abs(xs[k]))
            if k < steps.size:
                for j in range(1, 9):
                    w = j / 9.0
                    t = taus[k] + w * steps[k]
                    val = abs((1 - w) * xs[k] + w * xs[k + 1])
                    worst = min(worst,
                                init * math.exp(-rate * t) + gain - val)
        return worst

    m_derived = margins(sigma * big_l, math.exp(sigma * big_l * r))
    m_printed = margins(sigma, math.exp(sigma * r))
    slack = 1e-12 * max(1.0, abs(x0), sup_v)
    return IssCheckResult(
        holds=m_derived >= -slack,
        margin=m_derived,
        holds_printed=m_printed >= -slack,
        margin_printed=m_printed,
        sigma=sigma,
        sup_state=float(np.max(np.abs(xs))),
    )


def _saturating_rate(big_l, alpha):
    def a(y, _l=big_l, _al=alpha):
        return _l * (1.0 + _al * y * y / (1.0 + y * y))
    return a


def assert_same_bits(res, ref):
    for name in ("margin", "margin_printed", "sigma", "sup_state"):
        got = getattr(res, name)
        assert type(got) is float, name
        assert got.hex() == float(getattr(ref, name)).hex(), name
    assert type(res.holds) is bool and type(res.holds_printed) is bool
    assert res.holds == ref.holds
    assert res.holds_printed == ref.holds_printed


@st.composite
def iss_cases(draw):
    big_l = draw(st.floats(0.05, 5.0))
    r = draw(st.floats(0.1, 10.0))
    m = draw(st.integers(1, 120))
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m))
    steps = r * np.array(fractions)
    scale = draw(st.floats(0.0, 3.0))
    v = draw(st.one_of(
        st.floats(-scale, scale),
        st.lists(st.floats(-scale, scale), min_size=m, max_size=m)
        .map(np.array)))
    x0 = draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
    alpha = draw(st.floats(0.0, 2.0))
    return _saturating_rate(big_l, alpha), big_l, r, steps, v, x0


@settings(max_examples=50, deadline=None)
@given(iss_cases())
def test_margins_match_scalar_loop_bit_for_bit(case):
    assert_same_bits(iss_estimate_check(*case),
                     _scalar_iss_estimate_check(*case))


def _np_exp_disagreement(a, big_l, r, steps, v, x0):
    """Whether np.exp and math.exp differ at the sample that minimizes the
    derived margin, and np.exp changes that margin."""
    ref = _scalar_iss_estimate_check(a, big_l, r, steps, v, x0)
    rate = ref.sigma * big_l
    init = math.exp(rate * r) * abs(x0)
    gain = ((1.0 + math.e) / (math.e * ref.sigma * big_l)
            * float(np.max(np.abs(v))))
    xs, taus = [x0], [0.0]
    for h, v_k in zip(steps, v):
        xs.append((xs[-1] + h * v_k) / (1.0 + h * a(xs[-1])))
        taus.append(taus[-1] + h)
    samples = [(t, abs(x)) for t, x in zip(taus, xs)]
    for k, h in enumerate(steps):
        for j in range(1, 9):
            w = j / 9.0
            samples.append((taus[k] + w * h,
                            abs((1 - w) * xs[k] + w * xs[k + 1])))
    t, val = np.array(samples).T
    t_min = t[np.argmin(init * np.array([math.exp(-rate * s) for s in t])
                        + gain - val)]
    with_np_exp = float(np.min(init * np.exp(-rate * t) + gain - val))
    return (np.exp(-rate * t_min) != math.exp(-rate * t_min)
            and with_np_exp != ref.margin)


def test_margin_exact_where_np_exp_is_not():
    # With an input the gain term absorbs a last-bit change of the decay
    # factor at the minimizing sample, so search the zero-input trials,
    # where the margin is the decay term against the state alone.
    rng = np.random.default_rng(20240501)
    for _ in range(200):
        big_l = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.1, 10.0))
        m = int(rng.integers(20, 120))
        case = (_saturating_rate(big_l, float(rng.uniform(0.0, 2.0))),
                big_l, r, r * (1.0 - rng.random(m)), np.zeros(m),
                float(rng.uniform(-10.0, 10.0)))
        if _np_exp_disagreement(*case):
            break
    else:
        pytest.fail("no case where np.exp moves the minimizing sample")
    assert_same_bits(iss_estimate_check(*case),
                     _scalar_iss_estimate_check(*case))


class TestAdvectionChain:
    def test_forbids_reaction_beating_transport(self):
        # K dz >= c destroys the small-gain margin
        with pytest.raises(ConfigurationError):
            advection_chain(4, 1.0, lambda y: 4.0, 4.0)

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0])
    def test_speed_must_be_positive_and_finite(self, c):
        # c = inf used to build a chain with l_bounds = inf
        with pytest.raises(ConfigurationError, match="speed c"):
            advection_chain(5, c, lambda y: 0.0, 0.0)

    def test_inflow_boundary_is_zero(self):
        chain = advection_chain(3, 3.0, lambda y: 0.0, 0.0)
        out = partitioned_step(chain, np.array([2.0, 2.0, 2.0]), 0.5)
        # first cell has no upstream neighbor; c/dz = 3 * 3 = 9
        assert out[0] == pytest.approx(2.0 / (1.0 + 0.5 * 9.0))

    def test_transient_flushes_through(self):
        """After time 2/c the inflow-free chain should be essentially empty."""
        n = 200
        c = 1.0
        chain = advection_chain(n, c, lambda y: 0.0, 0.0)
        n_steps = int(round(2.0 / c / 1e-3))
        run = advance_chain(chain, np.ones(n), np.full(n_steps, 1e-3))
        assert run.final_sup < 1e-3

    def test_scalar_and_vector_paths_agree(self):
        rng = np.random.default_rng(13)
        chain = advection_chain(5, 2.0, lambda y: 0.3 * math.cos(y), 0.3)
        x = rng.normal(size=5)
        fast = partitioned_step(chain, x, 0.2)
        slow = np.empty(5)
        dz = 1.0 / 5
        ratio = 2.0 / dz
        for i in range(5):
            up = x[i - 1] if i else 0.0
            a_i = ratio - 0.3 * math.cos(x[i])
            slow[i] = (x[i] + 0.2 * ratio * up) / (1.0 + 0.2 * a_i)
        np.testing.assert_allclose(fast, slow, rtol=1e-14)


class TestCascadeValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CascadeSystem(n=2, l_bounds=(1.0,), a_vec=lambda x: 1.0 + 0.0 * x,
                          f_vec=lambda x: 0.0 * x)
