"""Vector fields, Runge-Kutta tableaus, and hybrid step-sequence trajectories.

The integration model is deliberately simple: a trajectory is a sequence of
nodes (tau_i, x_i) produced by x_{i+1} = x_i + h_i * F(h_i, x_i), where F is
the increment function of a Runge-Kutta scheme and the step h_i comes from a
state-feedback controller, optionally shrunk by a nonnegative input signal
u(tau_i) through h_i = h_base * exp(-u(tau_i)).  Between nodes the state is
interpolated linearly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as _field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

Array = np.ndarray


class StageSolveError(RuntimeError):
    """Implicit stage equations could not be solved (step too large)."""


class OracleError(RuntimeError):
    """Reference solution could not reach the requested accuracy."""


class ControllerError(RuntimeError):
    """A step controller produced no admissible step."""


class ConfigurationError(ValueError):
    """A required bound, flag or setting is missing or inconsistent."""


# ---------------------------------------------------------------------------
# vector fields


@dataclass(frozen=True)
class VectorField:
    """Right-hand side of an autonomous ODE x' = f(x).

    Calling the field calls f as it is, with nothing converted on the way
    in or out.  The contract is that f takes a 1-D float64 ndarray x and
    returns a float64 ndarray of x's shape.  It is checked once, where the
    package first evaluates f at a caller's state: `rk_increment` when it
    evaluates f(x) itself, `lyapunov.state_terms` when it also evaluates
    V, the first row of `lyapunov.certify_trajectory` and the start of
    `reference_solve`.  A scalar, a list, a float32 array or an array of
    another shape is refused there with ConfigurationError; none of them
    is converted or broadcast.  The states the package steps to are not
    checked again.

    Parameters
    ----------
    dim : int
        State dimension.
    f : callable
        Maps a float64 state vector of shape (dim,) to the float64
        derivative vector of the same shape.
    jacobian : callable, optional
        Df(x), of shape (dim, dim), which implicit Euler's Newton stage
        solve needs: `rk_increment` refuses implicit Euler without it.
    linear_matrix : ndarray, optional
        Set when f(x) = A x.  `implicit.implicit_euler_step` then solves
        (I - hA) Y = x directly, and `rk_increment` skips its rebuilt-state
        check; nothing else reads it.
    """

    dim: int
    f: Callable[[Array], Array]
    jacobian: Optional[Callable[[Array], Array]] = None
    linear_matrix: Optional[Array] = None

    def __call__(self, x: Array) -> Array:
        return self.f(x)


_FLOAT64 = np.dtype(float)


def _check_vector(value, shape: Optional[tuple] = None,
                  what: str = "state x") -> None:
    """Refuse a value outside the float64 contract with ConfigurationError.

    A state (shape None) must be a 1-D float64 ndarray, and f(x) or
    grad V(x) a float64 ndarray of the given shape, the state's.  The
    message names the type, dtype and shape that came.
    """
    if (isinstance(value, np.ndarray) and value.dtype == _FLOAT64
            and (value.ndim == 1 if shape is None else value.shape == shape)):
        return
    got = type(value).__name__
    if hasattr(value, "dtype"):
        got += f" of dtype {value.dtype} and shape {np.shape(value)}"
    need = "of one dimension" if shape is None else f"of shape {shape}"
    raise ConfigurationError(
        f"{what} must be a float64 ndarray {need}, got {got}")


def _matvec(m: Array) -> Callable[[Array], Array]:
    """u -> m @ u, bit for bit, computed by m.dot.

    Both reach the same BLAS call, but the matmul operator's dispatch
    outweighs the arithmetic on the few-element arrays of a step.  Given a
    one-element u, dot scales m's column by it without the matmul's sum
    from +0.0, so a product that rounds to -0.0 stays -0.0; for such an m
    the + 0.0 here turns it into the matmul's +0.0.
    """
    if m.shape[1] > 1:
        return m.dot
    return lambda u: m.dot(u) + 0.0


def linear_field(a: Array) -> VectorField:
    """Wrap the linear field f(x) = A x, with its Jacobian and matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("linear field needs a square matrix")
    if not np.isfinite(a).all():
        raise ConfigurationError("linear field matrix a must be finite")
    return VectorField(
        dim=a.shape[0],
        f=_matvec(a),
        jacobian=lambda x: a,
        linear_matrix=a,
    )


# ---------------------------------------------------------------------------
# Runge-Kutta tableaus


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b) with the scheme's classical order.

    The stage equations are Y_i = x + h * sum_j a[i, j] f(Y_j) and the
    increment is F(h, x) = sum_i b[i] f(Y_i).  Construction enforces
    consistency (sum(b) == 1) and refuses every implicit tableau but
    implicit Euler, a = [[1]], the one `rk_increment` solves.  The
    `explicit` flag (strict lower-triangularity of `a`) is computed there
    too, and so is `stage_terms`: for each stage row i >= 1, the pair
    (j, a[i, j]) when no other coefficient of the row is nonzero (j = 0 in
    a row of zeros), else None.  Neither takes part in the constructor,
    repr or equality.
    """

    name: str
    a: Array
    b: Array
    order: int
    explicit: bool = _field(init=False, repr=False, compare=False)
    stage_terms: tuple = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != (b.size, b.size):
            raise ConfigurationError("tableau shapes disagree")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigurationError("tableau coefficients must be finite")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ConfigurationError("tableau weights must sum to 1")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise ConfigurationError(
                f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "explicit", bool(np.all(np.triu(a) == 0.0)))
        if not (self.explicit or np.array_equal(a, [[1.0]])):
            raise ConfigurationError("the one implicit tableau is implicit Euler")
        terms = []
        for i in range(1, b.size):
            (nonzero,) = np.nonzero(a[i, :i])
            j = int(nonzero[0]) if nonzero.size else 0
            terms.append((j, float(a[i, j])) if nonzero.size <= 1 else None)
        object.__setattr__(self, "stage_terms", tuple(terms))

    @property
    def stages(self) -> int:
        return self.b.size


EULER = ButcherTableau("euler", [[0.0]], [1.0], order=1)
IMPLICIT_EULER = ButcherTableau("implicit-euler", [[1.0]], [1.0], order=1)
HEUN = ButcherTableau("heun", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], order=2)
IMPROVED_POLYGON = ButcherTableau(
    "improved-polygon", [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], order=2
)
KUTTA3 = ButcherTableau(
    "kutta3",
    [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    order=3,
)
RK4 = ButcherTableau(
    "rk4",
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    order=4,
)


# ---------------------------------------------------------------------------
# increment function


_STAGE_MAX_ITER = 50
_STAGE_TOL = 1e-12  # relative to 1 + |x|


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> Array:
    """The read-only n x n identity that every Newton matrix starts from."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def rk_increment(
    tableau: ButcherTableau, field: VectorField, x: Array, h: float, *, fx=None
) -> Array:
    """Increment F(h, x) of the scheme, with F(0, x) = f(x).

    Explicit tableaus evaluate the stages sequentially.  A stage row with
    at most one nonzero coefficient a[i, j] (`stage_terms`) forms
    a[i, j] k_j + 0.0 instead of the matmul a[i, :i] @ k[:i], and a
    one-stage tableau with b = [1] returns f(x) + 0.0 instead of b @ k.
    For finite stages both are the matmul bit for bit: a matmul sums its
    products from +0.0, every other product is a zero, and adding zeros to
    a nonzero sum is exact; the + 0.0 turns a -0.0 into the +0.0 the
    matmul returns.  (A non-finite earlier stage times a zero coefficient
    is NaN in the matmul, not in the shortcut; the increment is
    non-finite either way.)  The other rows and b @ k are formed by
    ndarray.dot, the matmul's BLAS call without its dispatch cost; their
    coefficient vectors have two or more elements, where the two agree
    bit for bit (`_matvec`).

    Implicit Euler, the one implicit tableau, solves y = x + h f(y) from
    y = x by Newton iteration with I - h J(y), to a residual of
    1e-12 (1 + |x|), and returns F = f(y); each Newton step is a
    `_stage_solve`, and failure within 50 iterations raises
    StageSolveError.  A field without a Jacobian is refused with
    ConfigurationError, whatever h: a Jacobian-free fixed-point iteration
    converges only while h L < 1, where explicit Euler already contracts
    on f = -L x.
    On a field without `linear_matrix`, the state x + h F rebuilt from the
    converged stage is verified too (`_check_rebuilt_state`).

    x must be a 1-D float64 ndarray.  fx, when given, must be f(x),
    evaluated once by a caller that tests several h at one x.  It is the
    first explicit stage, f of the first implicit iterate and F(0, x), bit
    for bit.  When fx is not given, x and the f(x) evaluated here are
    checked against the `VectorField` contract.
    """
    if not 0.0 <= h < math.inf:
        raise ConfigurationError("step must be nonnegative")
    if not tableau.explicit and field.jacobian is None:
        raise ConfigurationError("implicit Euler needs the field's Jacobian")
    if fx is None:
        _check_vector(x)
        fx = field(x)
        _check_vector(fx, x.shape, "f(x)")
    if h == 0.0:
        return fx
    if tableau.explicit:
        terms = tableau.stage_terms
        if not terms and tableau.b[0] == 1.0:
            return fx + 0.0
        a = tableau.a
        k = np.empty((len(terms) + 1, field.dim))
        k[0] = fx
        for i, term in enumerate(terms, 1):
            if term is None:
                k[i] = field(x + h * a[i, :i].dot(k[:i]))
            else:  # 1.0 * v is v bit for bit, so a 1.0 is not multiplied
                j, aij = term
                k[i] = field(x + h * ((k[j] if aij == 1.0 else aij * k[j])
                                      + 0.0))
        return tableau.b.dot(k)

    # |r| sums the squares in index order: np.linalg.norm of a 1-D array
    # takes a dot product instead, which can round differently; |x| here
    # is that norm, sqrt(x . x) bit for bit, at half its cost
    tol = _STAGE_TOL * (1.0 + math.sqrt(x.dot(x)))
    y, fy = x, fx
    for _ in range(_STAGE_MAX_ITER):
        res = y - x - h * fy
        if math.sqrt(np.add.reduce(res * res)) <= tol:
            break
        y = y - _stage_solve(field.jacobian(y), res, h)
        if not math.isfinite(y.dot(y)) and not np.isfinite(y).all():
            raise StageSolveError(f"stage Newton iteration diverged at h={h}")
        fy = field(y)
    else:
        raise StageSolveError(f"stage Newton iteration stalled at h={h}")

    # f = Ax is exempt: |r| <= tol gives |hAr| <= h|A| tol < 10 tol (1 + h|A|)
    if field.linear_matrix is None:
        _check_rebuilt_state(field, x, h, fy)
    return fy


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _stage_solve(jac: Array, r: Array, h: float) -> Array:
    """(I - h jac)^-1 r, np.linalg.solve's bits: it calls this gufunc under
    this errstate, with checks that cost more than a small solve.  A jac
    that is not an ndarray of shape (d, d), d = r.size, raises
    ConfigurationError, a singular I - h jac StageSolveError."""
    d = r.size
    if not isinstance(jac, np.ndarray) or jac.shape != (d, d):
        raise ConfigurationError(
            f"Jacobian of shape {getattr(jac, 'shape', None)} for a state of "
            f"size {d}, given as {type(jac).__name__}")
    m = _identity(d) - h * jac
    try:
        with np.errstate(call=_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            return _umath_linalg.solve1(m, r, signature="dd->d")
    except np.linalg.LinAlgError as exc:
        raise StageSolveError(f"singular stage Jacobian at h={h}") from exc


def _check_rebuilt_state(
    field: VectorField, x: Array, h: float, incr: Array
) -> None:
    """Verify that z = x + h F solves z = x + h f(z) to 1e-11 (1 + |x|).

    z is rebuilt from the converged implicit Euler stage, so its residual
    is the stage residual multiplied by about h |J|.  A state that misses
    the plain bound is therefore held to the bound times 1 + h |J(z)|_2,
    with J evaluated only then.  A miss raises StageSolveError.
    """
    z = x + h * incr
    r = z - x - h * field(z)
    # sqrt(v . v) is np.linalg.norm of a 1-D array bit for bit, at a third
    # of its cost, as in the stage tolerance of `rk_increment`
    residual = math.sqrt(r.dot(r))
    bound = 10.0 * _STAGE_TOL * (1.0 + math.sqrt(x.dot(x)))
    if residual > bound:
        bound *= 1.0 + h * float(np.linalg.norm(field.jacobian(z), 2))
    if residual > bound:
        raise StageSolveError(
            f"implicit step residual {residual:.3e} exceeds {bound:.3e} at h={h}"
        )


# ---------------------------------------------------------------------------
# trajectories


@dataclass(slots=True)
class DecreaseCertificate:
    """Outcome of one decrease test; `accepted` compares lhs against rhs
    with a relative roundoff slack so exact boundary steps pass.

    x_next is the state x + h F(h, x) whose V is lhs, and tableau and field
    are the scheme it was computed under; `advance` takes x_next as the
    next state when it realizes this very step, and hands the certificate
    back to the controller there.  All three are None when the stage solve
    failed, and none of them shows in repr or equality.
    lyapunov.decrease_test makes x_next read-only, so lhs stays V(x_next).
    """

    x: Array
    h: float
    lhs: float
    rhs: float
    accepted: bool
    halvings: int = 0
    reason: str = ""
    x_next: Optional[Array] = _field(default=None, repr=False, compare=False)
    tableau: Optional[ButcherTableau] = _field(default=None, repr=False,
                                               compare=False)
    field: Optional[VectorField] = _field(default=None, repr=False,
                                          compare=False)


_CERT_COLUMNS = ("h", "lhs", "rhs", "halvings")  # from each certificate


@dataclass(frozen=True)
class HybridTrajectory:
    """Node sequence of a run: times, states, and steps taken.

    tau has shape (N,), finite, states (N, dim), finite, steps (N-1,) with
    tau[i+1] == tau[i] + steps[i] exactly (the times are built by the same
    additions).

    A run whose steps were certified carries four more columns of shape
    (N-1,), copied from each step's decrease certificate: h, the step the
    test accepted (the base step, before an input shrinks it), lhs and rhs,
    the two sides of that test, and halvings.  A run without certificates
    has None in all four.  stop_reason tells how `advance` ended the run:
    "t_end", "stop" (the stop rule, or the norm floor without one) or
    "max_steps"; it is None on a trajectory built otherwise.
    """

    tau: Array
    states: Array
    steps: Array
    h: Optional[Array] = None
    lhs: Optional[Array] = None
    rhs: Optional[Array] = None
    halvings: Optional[Array] = None
    stop_reason: Optional[str] = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        steps = np.asarray(self.steps, dtype=float)
        if states.shape[0] != tau.size or steps.size != tau.size - 1:
            raise ConfigurationError("trajectory arrays have inconsistent lengths")
        if steps.size and not np.all(steps > 0):
            raise ConfigurationError("steps must be positive")
        if not np.array_equal(tau[1:], tau[:-1] + steps):
            raise ConfigurationError("node times must accumulate the steps exactly")
        # nondecreasing from here on, so finite ends make every time finite
        if not (math.isfinite(tau[0]) and math.isfinite(tau[-1])):
            raise ConfigurationError("node times tau must be finite")
        if not np.isfinite(states).all():
            raise ConfigurationError("trajectory states must be finite")
        if self.stop_reason not in (None, "t_end", "stop", "max_steps"):
            raise ConfigurationError(f"unknown stop_reason {self.stop_reason!r}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "steps", steps)
        present = [getattr(self, name) is not None for name in _CERT_COLUMNS]
        if not any(present):
            return
        if not all(present):
            raise ConfigurationError(
                "certificate columns h, lhs, rhs and halvings come together")
        for name in _CERT_COLUMNS:
            col = np.asarray(getattr(self, name),
                             dtype=int if name == "halvings" else float)
            if col.shape != steps.shape:
                raise ConfigurationError(
                    f"certificate column {name} needs one entry per step")
            object.__setattr__(self, name, col)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_time(self) -> float:
        return float(self.tau[-1])

    @property
    def final_state(self) -> Array:
        return self.states[-1]

    @property
    def final_sup(self) -> float:
        return float(np.max(np.abs(self.states[-1])))


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header line and comma-separated rows, creating the file's
    directory first if it is missing.

    Strings are written as they are and numbers as %.17g, which reads back
    bit-exact.  The column formats are taken from the first row.
    """
    rows = iter(rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        fmt = ",".join("%s" if isinstance(v, str) else "%.17g"
                       for v in first) + "\n"
        fh.write(fmt % tuple(first))
        fh.writelines(fmt % tuple(row) for row in rows)


_CHUNK_ROWS = 4096  # rows a writer converts to Python numbers at a time


def _chunked(size: int, rows: Callable[[slice], Iterable[tuple]]):
    """rows(part) chained over consecutive slices of range(size).

    Each slice holds 4,096 rows, so a CSV writer converts its columns to
    Python numbers one slice at a time and writing costs no memory per row.
    """
    for lo in range(0, size, _CHUNK_ROWS):
        yield from rows(slice(lo, lo + _CHUNK_ROWS))


def _node_rows(traj: HybridTrajectory):
    """Rows tau, h, state per node; the final node carries h = 0."""
    tau, steps, states = traj.tau, traj.steps, traj.states
    yield from _chunked(steps.size, lambda part: zip(
        tau[part].tolist(), steps[part].tolist(), *states[part].T.tolist()))
    yield (tau[-1].item(), 0.0, *states[-1].tolist())


def write_trajectory_csv(traj: HybridTrajectory, path) -> None:
    """Rows tau,h,x_0,...,x_{n-1}; the final row carries h = 0."""
    cols = [f"x_{j}" for j in range(traj.dim)]
    write_csv(path, ["tau", "h", *cols], _node_rows(traj))


_NORM_FLOOR = 1e-14  # a state this small counts as the origin


class ConstantController:
    """Always proposes the same base step."""

    def __init__(self, h: float):
        if not (h > 0 and math.isfinite(h)):
            raise ConfigurationError("constant step must be positive and finite")
        self.h = float(h)

    def __call__(self, x: Array, tau: float) -> float:
        return self.h


_FIRST_ROWS = 64  # rows each record buffer starts with; doubled when full


def _doubled(buf: Array, rows: int) -> Array:
    """A buffer of twice buf's length holding buf's first `rows` entries.

    The new rows stay unwritten, so their pages are not resident yet.
    """
    out = np.empty((2 * buf.shape[0], *buf.shape[1:]), dtype=buf.dtype)
    out[:rows] = buf[:rows]
    return out


def advance(
    scheme: ButcherTableau | Callable[[Array, float], Array],
    field: Optional[VectorField],
    controller,
    x0: Array,
    t_end: float,
    u_input: Optional[Callable[[float], float]] = None,
    max_steps: Optional[int] = None,
    stop: Optional[Callable[[Array], bool]] = None,
) -> HybridTrajectory:
    """Run the hybrid stepping loop until t_end, the stop rule, or max_steps.

    The scheme is a ButcherTableau, stepped as x + h * rk_increment(scheme,
    field, x, h), or a callable step(x, h) -> x_next, with field unused.
    x0 must be a nonempty 1-D state vector, of the field's dim under a
    tableau, and max_steps, when given, a nonnegative integer; anything
    else raises ConfigurationError.

    At each node, after checking that the state is finite and tau < t_end,
    stop(x) is asked whether the run is done; without a stop rule the run
    ends once |x| < 1e-14.  Then max_steps is checked, and only then is the
    controller called, as controller(x, tau), or as controller(x, tau,
    last) when x is the `x_next` of the certificate `last` that the
    controller returned at the node before.  It returns either a base step
    or a DecreaseCertificate, whose h is the base step.  An input u_input
    shrinks the realized step to base * exp(-u_input(tau)); a value of u
    that is negative or not finite, and a NaN t_end, raise
    ConfigurationError.  A non-finite state raises FloatingPointError
    rather than ending the run as if it had converged, and a next state of
    another shape than x0 raises ConfigurationError.

    A certificate whose x is not the current state, equal in value if not
    the same object, raises ConfigurationError.  One that carries the
    state it tested (`x_next`, as lyapunov.decrease_test records it) must
    come from this call's tableau and field objects, or
    ConfigurationError is raised too.  Its state is
    taken as the next one, without stepping again, when it tested this
    very step: the same `x` object and the same realized h.  Otherwise,
    for instance when u_input shrinks the step, the scheme steps here and
    the certificate is not handed back.  Both paths compute
    x + h * F(h, x) from the same operands, so the states are
    bit-identical.

    Each certificate's h, lhs, rhs and halvings are copied into the
    trajectory's columns, and no certificate outlives the run.  Either
    every step comes with a certificate or none does: a run that mixes the
    two raises ConfigurationError at the first step that breaks the
    pattern.  The trajectory's stop_reason records which of the three
    checks above ended the run.

    The record is written into column buffers and copied out at the run's
    length when it ends.  It takes 8 (d + 2) bytes per step, 8 (d + 6)
    with certificates.  The buffers start at 64 rows and double when full,
    one column at a time, so a run holds less than three times its record
    at any moment.
    """
    if math.isnan(t_end):
        raise ConfigurationError("t_end must not be NaN")
    if max_steps is not None and not (
            isinstance(max_steps, (int, np.integer)) and max_steps >= 0):
        raise ConfigurationError(
            f"max_steps must be a nonnegative integer, got {max_steps!r}")
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not x.size:
        raise ConfigurationError(
            f"x0 must be a nonempty 1-D state vector, got shape {x.shape}")
    dim = x.size if callable(scheme) else getattr(field, "dim", None)
    if dim != x.size:
        raise ConfigurationError(f"field of dim {dim} for x0 of size {x.size}")
    rows = _FIRST_ROWS
    taus, steps = np.empty(rows), np.empty(rows)
    states = np.empty((rows, x.size))
    certs: list[Array] = []  # the h, lhs, rhs and halvings columns
    tau = 0.0
    taus[0] = tau
    states[0] = x
    n = 0  # steps taken
    last = None  # the certificate whose x_next is x

    while True:
        nx = math.sqrt(x.dot(x))  # numpy's 1-D norm; inf on overflow
        if not math.isfinite(nx) and not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite state at tau={tau}")
        if not tau < t_end:
            stop_reason = "t_end"
            break
        if nx < _NORM_FLOOR if stop is None else stop(x):
            stop_reason = "stop"
            break
        if max_steps is not None and n >= max_steps:
            stop_reason = "max_steps"
            break
        out = controller(x, tau) if last is None else controller(x, tau, last)
        cert = out if isinstance(out, DecreaseCertificate) else None
        h_base = float(out if cert is None else cert.h)
        if not h_base > 0 or not math.isfinite(h_base):
            raise ControllerError(f"controller proposed step {h_base} at tau={tau}")
        if n and (cert is None) == bool(certs):
            raise ConfigurationError(
                f"step at tau={tau} {'lacks' if cert is None else 'has'} a "
                f"certificate, unlike the steps before it")
        if cert is not None:
            if cert.x is not x and not np.array_equal(cert.x, x):
                raise ConfigurationError(
                    f"certificate at tau={tau} tested another state")
        h = h_base
        if u_input is not None:
            u = float(u_input(tau))
            if not 0.0 <= u < math.inf:
                raise ConfigurationError(
                    f"input u={u} at tau={tau} must be nonnegative and finite")
            h = h_base * math.exp(-u)
        x_next = None if cert is None else cert.x_next
        if x_next is not None and (cert.tableau is not scheme
                                   or cert.field is not field):
            raise ConfigurationError(
                f"certificate at tau={tau} was computed under another "
                f"tableau or field")
        reused = x_next is not None and cert.x is x and cert.h == h
        last = cert if reused else None
        if not reused:
            x_next = (scheme(x, h) if callable(scheme)
                      else x + h * rk_increment(scheme, field, x, h))
            if x_next.shape != x.shape:
                raise ConfigurationError(
                    f"step at tau={tau} gave a state of shape "
                    f"{x_next.shape}, not {x.shape}")
        x = x_next
        tau = tau + h
        if n + 1 == rows:  # column by column, each old one freed at once
            taus = _doubled(taus, rows)
            states = _doubled(states, rows)
            steps = _doubled(steps, rows)
            for i in range(len(certs)):
                certs[i] = _doubled(certs[i], rows)
            rows *= 2
        if cert is not None:
            if not n:
                certs = [np.empty(rows), np.empty(rows), np.empty(rows),
                         np.empty(rows, dtype=int)]
            certs[0][n] = cert.h
            certs[1][n] = cert.lhs
            certs[2][n] = cert.rhs
            certs[3][n] = cert.halvings
        steps[n] = h
        n += 1
        taus[n] = tau
        states[n] = x

    # copied out at their length: a run's trajectory keeps no unused rows,
    # and its buffers go back to the allocator whole, for the next run
    taus = taus[:n + 1].copy()
    states = states[:n + 1].copy()
    steps = steps[:n].copy()
    for i in range(len(certs)):
        certs[i] = certs[i][:n].copy()
    return HybridTrajectory(taus, states, steps, *(certs or [None] * 4),
                            stop_reason=stop_reason)


# ---------------------------------------------------------------------------
# reference solutions


def _rk4_end(field: VectorField, x0: Array, t_end: float, n: int,
             check: bool = False) -> Array:
    """n classical RK4 steps from x0 to t_end; check holds f(x0) to the
    `VectorField` contract.  0.5 * h * k is (0.5 * h) * k in Python, so
    the hoisted products change no bit."""
    h = t_end / n
    half, sixth = 0.5 * h, h / 6.0
    x = x0.copy()
    for _ in range(n):
        k1 = field(x)
        if check:
            _check_vector(k1, x.shape, "f(x)")
            check = False
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + h * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def reference_solve(
    field: VectorField, x0: Array, t_end: float, tol: float = 1e-10
) -> Array:
    """The exact-flow state at t_end, by classical fourth-order steps.

    The step count doubles until the Richardson estimate of the end-state
    error, |x_2n - x_n| / 15, drops below tol.  A negative or non-finite
    t_end, a tol that is not positive, a non-finite state and a step count
    that reaches t_end / n < 1e-12 raise OracleError.  An x0 that is not
    a vector, and an f(x0) outside the `VectorField` contract, raise
    ConfigurationError.
    """
    x0 = np.asarray(x0, dtype=float)
    if not 0.0 <= t_end < math.inf:
        raise OracleError("reference solve needs a finite t_end >= 0")
    if not tol > 0:
        raise OracleError("reference solve needs tol > 0")
    _check_vector(x0, what="x0")
    if t_end == 0.0:
        return x0.copy()
    n = max(1, int(math.ceil(t_end / 0.1)))
    coarse = _rk4_end(field, x0, t_end, n, check=True)
    while True:
        fine = _rk4_end(field, x0, t_end, 2 * n)
        if not math.isfinite(fine.dot(fine)) and not np.isfinite(fine).all():
            raise OracleError(
                f"reference solve reached a non-finite state at "
                f"t_end={t_end:g} with n={2 * n} steps"
            )
        diff = fine - coarse  # |diff| as sqrt(diff . diff), numpy's 1-D norm
        if math.sqrt(diff.dot(diff)) / 15.0 < tol:
            return fine
        n *= 2
        coarse = fine
        if t_end / n < 1e-12:
            raise OracleError(
                f"reference step underflow before reaching tol={tol:g}"
            )


def reference_at_times(
    field: VectorField, x0: Array, times: Sequence[float]
) -> Array:
    """Exact-flow states at increasing times, integrated segment by segment.

    The segment tolerances add up to 1e-10.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.empty((0, np.asarray(x0).size))
    if not np.isfinite(times).all():
        raise OracleError("times must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) < 0):
        raise OracleError("times must start at 0 and be nondecreasing")
    seg_tol = 1e-10 / max(1, times.size)
    out = np.empty((times.size, np.asarray(x0).size))
    z = np.asarray(x0, dtype=float).copy()
    out[0] = z
    for i in range(times.size - 1):
        dt = float(times[i + 1] - times[i])
        if dt > 0:
            z = reference_solve(field, z, dt, seg_tol)
        out[i + 1] = z
    return out
