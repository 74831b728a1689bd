"""Partitioned chain updates, the sigma constant, and ISS estimates."""

import math

import numpy as np
import pytest

from stabstep.core import ConfigurationError
from stabstep.smallgain import (
    CascadeSystem,
    advance_chain,
    advection_chain,
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


class TestAdvectionChain:
    def test_forbids_reaction_beating_transport(self):
        # K dz >= c destroys the small-gain margin
        with pytest.raises(ConfigurationError):
            advection_chain(4, 1.0, lambda y: 4.0, 4.0)

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
