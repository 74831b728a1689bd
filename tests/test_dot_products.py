"""The products on the stepping path are taken with ndarray.dot, which
reaches the matmul operator's BLAS call without its dispatch cost.  These
properties check that each one returns the bytes of the `@` form it
replaced, signed zeros included, for C- and F-ordered matrices in
dimensions 1 to 8.  If a numpy or BLAS release makes the two differ, they
fail here before any golden does."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stabstep.applications import example_fields, nlp_flow
from stabstep.core import ConfigurationError, linear_field
from stabstep.lyapunov import quadratic_lyapunov, state_terms

M1 = np.array([[-1.0, 1.0], [-1.0, -1.0]])
# finite values, from subnormals and signed zeros up to a size at which
# every quantity compared below stays finite
SMALL = st.floats(-1e100, 1e100)
TINY = st.floats(-1e50, 1e50)
EXAMPLES = example_fields()


def same(u, w) -> bool:
    return np.float64(u).tobytes() == np.float64(w).tobytes()


def same_array(u, w) -> bool:
    u, w = np.asarray(u), np.asarray(w)
    return u.shape == w.shape and u.tobytes() == w.tobytes()


@st.composite
def square(draw, dim, elements, symmetric=False):
    """A dim x dim matrix, C- or F-ordered; a symmetric one copies its
    upper triangle, so it is symmetric exactly."""
    m = draw(hnp.arrays(np.float64, (dim, dim), elements=elements))
    if symmetric:
        m = np.triu(m) + np.triu(m, 1).T
    return np.asfortranarray(m) if draw(st.booleans()) else m


def test_one_element_products_keep_the_matmul_zero():
    # dot scales by a one-element operand without the matmul's sum from
    # +0.0, so each of these products is -0.0 unless the code adds + 0.0
    minus = np.array([[-1.0]])
    field = linear_field(minus)
    assert same_array(field(np.array([0.0])), minus @ np.array([0.0]))
    x = np.array([1.0])
    neg_zero = quadratic_lyapunov(np.array([[-0.0]]))
    assert same(neg_zero(x), float(x @ np.array([[-0.0]]) @ x))
    one = np.eye(1)
    assert same_array(quadratic_lyapunov(one).gradient(np.array([-0.0])),
                      2.0 * (one @ np.array([-0.0])))
    # grad V = [+0.0] and f = [-1.0]: grad V . f is -0.0 as a bare product
    assert same(state_terms(neg_zero, field, x)[2], 0.0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_linear_field_and_quadratic_v(data):
    dim = data.draw(st.integers(1, 8))
    a = data.draw(square(dim, SMALL))
    p = data.draw(square(dim, SMALL, symmetric=True))
    x = data.draw(hnp.arrays(np.float64, dim, elements=SMALL))
    assert same_array(linear_field(a)(x), a @ x)
    lyap = quadratic_lyapunov(p)
    assert same(lyap(x), float(x @ p @ x))
    assert same_array(lyap.gradient(x), 2.0 * (p @ x))


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, 2, elements=SMALL))
def test_example_fields_and_their_v(x):
    s = x @ x
    fields = {
        "f1": M1 @ x,
        "f2": np.array([-s * x[0] + x[1], -x[0] - s * x[1]]),
        "f3": (x @ x) * (M1 @ x),
    }
    for name, fx in fields.items():
        assert same_array(EXAMPLES[name].field(x), fx), name
        assert same(EXAMPLES[name].lyap(x), float(x @ x)), name
    assert same_array(EXAMPLES["f3"].field.jacobian(x),
                      (x @ x) * M1 + 2.0 * np.outer(M1 @ x, x))
    assert same(EXAMPLES["sys427"].lyap(x), 0.5 * float(x @ x))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_nlp_flow_field_and_v(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, min(n, 3)))
    q = data.draw(square(n, TINY, symmetric=True))
    # diagonally dominant, hence positive definite
    q = q + (n * float(np.max(np.abs(q))) + 1.0) * np.eye(n)
    if data.draw(st.booleans()):
        q = np.asfortranarray(q)
    a = data.draw(hnp.arrays(np.float64, (m, n), elements=TINY))
    if data.draw(st.booleans()):
        a = np.asfortranarray(a)
    c = data.draw(hnp.arrays(np.float64, n, elements=TINY))
    b = data.draw(hnp.arrays(np.float64, m, elements=TINY))
    w = data.draw(hnp.arrays(np.float64, n + m, elements=TINY))
    try:
        flow = nlp_flow(q, c, a, b)
    except (ConfigurationError, np.linalg.LinAlgError):
        # dependent constraint rows, or a KKT matrix too ill-conditioned
        # for the solve that finds its equilibrium
        assume(False)
    x, z = w[:n], w[n:]
    g, cons = q @ x + c + a.T @ z, a @ x - b
    fvec = np.concatenate([-(q @ g + a.T @ cons), -(a @ g)])
    assert same_array(flow.field(w), fvec)
    assert same(flow.lyap(w), 0.5 * float(g @ g) + 0.5 * float(cons @ cons))
