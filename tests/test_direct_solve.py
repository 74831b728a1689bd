"""The small-state step without numpy's Python wrappers, pinned bit for bit.

The stage solve calls LAPACK's solve gufunc directly, the per-state
callables of the worked systems compute on Python floats, and 1-D norms
are sqrt(v . v).  Each is compared byte for byte with the numpy form it
replaced, which is kept here as the reference.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabstep.applications import example_fields
from stabstep.core import (
    IMPLICIT_EULER,
    ConfigurationError,
    StageSolveError,
    VectorField,
    _stage_solve,
    linear_field,
    rk_increment,
)
from stabstep.implicit import implicit_euler_step
from stabstep.smallgain import advection_chain

SYSTEMS = example_fields()


def test_direct_solve_is_numpy_solve_byte_for_byte():
    rng = np.random.default_rng(20261021)
    for _ in range(4000):
        d = int(rng.integers(1, 9))
        jac = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.25:
            jac = np.asfortranarray(jac)
        if rng.random() < 0.25:
            jac[rng.random((d, d)) < 0.3] = 0.0
        h = 10.0 ** rng.uniform(-3.0, 4.0)
        r = rng.standard_normal(d) * 10.0 ** rng.uniform(-12.0, 3.0)
        new = _stage_solve(jac, r, h)
        old = np.linalg.solve(np.eye(d) - h * jac, r)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def test_singular_stage_jacobian_is_a_stage_solve_error():
    # f = x has J = I, so I - hJ is the zero matrix at h = 1
    grow = VectorField(2, lambda x: x, jacobian=lambda x: np.eye(2))
    with pytest.raises(StageSolveError,
                       match=r"^singular stage Jacobian at h=1\.0$") as info:
        rk_increment(IMPLICIT_EULER, grow, np.array([1.0, -2.0]), 1.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_singular_i_minus_ha_is_a_stage_solve_error():
    with pytest.raises(StageSolveError,
                       match=r"^singular stage Jacobian at h=0\.5$"):
        implicit_euler_step(linear_field(2.0 * np.eye(2)),
                            np.array([1.0, 1.0]), 0.5)


@pytest.mark.parametrize("jac", [
    pytest.param(np.eye(3), id="3x3"),
    pytest.param(np.ones(2), id="vector"),
    pytest.param(np.float64(-1.0), id="scalar"),
    pytest.param(np.eye(1), id="1x1")])
def test_a_jacobian_of_another_shape_is_refused(jac):
    # a 3x3 escaped as numpy's broadcast ValueError; the others broadcast
    # into a 2x2 I - hJ and solved a system nobody asked for
    field = VectorField(2, lambda x: -x, jacobian=lambda x: jac)
    message = f"Jacobian of shape {np.shape(jac)} for a state of size 2"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        rk_increment(IMPLICIT_EULER, field, np.array([1.0, 1.0]), 0.5)


def test_a_linear_matrix_of_another_shape_is_refused():
    with pytest.raises(ConfigurationError,
                       match=r"Jacobian of shape \(3, 3\) for a state of "
                             r"size 2"):
        implicit_euler_step(linear_field(-np.eye(3)), np.ones(2), 0.5)


# the numpy-scalar forms the Python-float callables replaced


def old_f2(x):
    s = x.dot(x)
    return np.array([-s * x[0] + x[1], -x[0] - s * x[1]])


def old_f2_jac(x):
    x1, x2 = x
    return np.array([
        [-(3.0 * x1 * x1 + x2 * x2), 1.0 - 2.0 * x1 * x2],
        [-1.0 - 2.0 * x1 * x2, -(x1 * x1 + 3.0 * x2 * x2)],
    ])


def old_f427(x):
    return np.array([-x[0] + x[1] * x[1], -x[1] - x[0] * x[1]])


def old_f427_jac(x):
    return np.array([[-1.0, 2.0 * x[1]], [-x[1], -1.0 - x[0]]])


def old_a_vec(ratio, b_func, x):
    return ratio - np.array([float(b_func(v)) for v in x])


def old_below(x, target):
    return float(np.max(np.abs(x))) < target


# zero of either sign, subnormals, and magnitudes up to 1e150
components = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0, allow_nan=False), st.integers(-320, 150)))


@settings(max_examples=600, deadline=None)
@given(st.lists(components, min_size=2, max_size=2))
def test_planar_callables_on_python_floats(comps):
    x = np.array(comps)
    f2, f427 = SYSTEMS["f2"].field, SYSTEMS["sys427"].field
    with np.errstate(all="ignore"):
        pairs = [(f2.f(x), old_f2(x)), (f2.jacobian(x), old_f2_jac(x)),
                 (f427.f(x), old_f427(x)),
                 (f427.jacobian(x), old_f427_jac(x))]
    for new, old in pairs:
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(components, min_size=1, max_size=20),
       st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.0, 10.0), st.floats(1e-3, 1e3))
def test_chain_callables_on_python_floats(comps, theta, phase, big_k, target):
    # chain_decay_trials' reaction term, its damping vector and stop rule
    x = np.array(comps)
    b_func = lambda y: big_k * math.cos(theta * y + phase)
    chain = advection_chain(x.size, big_k + 1.0, b_func, big_k)
    ratio = (big_k + 1.0) / (1.0 / x.size)
    with np.errstate(all="ignore"):
        new, old = chain.a_vec(x), old_a_vec(ratio, b_func, x)
    assert new.tobytes() == old.tobytes()
    for y in np.linspace(-10.0, 10.0, 41):  # the chain's bound check
        assert b_func(float(y)) == b_func(y)
    assert (np.abs(x).max() < target) == old_below(x, target)


@settings(max_examples=300, deadline=None)
@given(st.lists(components, min_size=1, max_size=40))
def test_one_d_norm_form(comps):
    # reference_solve, defect and nlp_solve's stop rule take this form
    v = np.array(comps)
    with np.errstate(all="ignore"):
        new, old = math.sqrt(v.dot(v)), float(np.linalg.norm(v))
    assert np.float64(new).tobytes() == np.float64(old).tobytes()
