"""The run record in bounded memory: `advance`'s column buffers, the
audit's columns and the chunked CSV writers."""

import math
import tracemalloc

import numpy as np
import pytest

from stabstep import core
from stabstep.applications import write_steps_csv
from stabstep.core import (
    EULER,
    ConstantController,
    HybridTrajectory,
    _CHUNK_ROWS,
    advance,
    linear_field,
    write_csv,
    write_trajectory_csv,
)
from stabstep.applications import example_fields
from stabstep.lyapunov import (HalvingController, certify_trajectory,
                               quadratic_lyapunov, state_terms, within_slack)
from stabstep.smallgain import write_chain_csv, write_grid_csv

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def built_trajectory(nodes: int, dim: int, seed: int = 0) -> HybridTrajectory:
    """A trajectory of random states and steps, built without stepping."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(1e-3, 1e-1, nodes - 1)
    tau = np.concatenate([[0.0], np.cumsum(steps)])
    return HybridTrajectory(tau, rng.standard_normal((nodes, dim)), steps)


def test_a_run_records_a_fixed_number_of_bytes_per_step():
    """The record itself is tau, h and the state, 8 (d + 2) bytes per step.
    4,096 steps is the tightest case: the buffers have just doubled to
    8,192 rows."""
    n, dim = 4096, 2
    peak = traced_peak(advance, EULER, linear_field(ROTATION),
                       ConstantController(1e-3), np.array([1.0, 0.0]),
                       math.inf, None, n)
    assert peak / n <= 3 * 8 * (dim + 2), f"{peak / n:.0f} B per step"


def test_writing_costs_no_memory_per_row(tmp_path, monkeypatch):
    """With chunks of 128 rows, writing 4,000 rows peaks no higher than
    writing 1,000: the same ratio as 80,000 against 20,000 rows with the
    4,096-row chunks, which traced allocations make too slow for the
    test suite."""
    monkeypatch.setattr(core, "_CHUNK_ROWS", 128)

    def write(traj):
        write_trajectory_csv(traj, tmp_path / "t.csv")
        write_steps_csv(traj, tmp_path / "s.csv")

    small, large = (built_trajectory(n, 2) for n in (1_000, 4_000))
    peaks = [traced_peak(write, traj) for traj in (small, large)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_an_audit_holds_columns_not_rows(tmp_path):
    """The audit of a 20,000-step run holds V per node, and the threshold
    and verdict per step, 17 bytes per step; a tuple per row held about
    196.  Writing its CSV converts 4,096 rows at a time."""
    n = 20_000
    f2 = example_fields()["f2"]
    traj = advance(EULER, f2.field, ConstantController(0.2),
                   np.array([1.0, 0.0]), math.inf, max_steps=n)
    tracemalloc.start()
    try:
        report = certify_trajectory(f2.lyap, traj, 0.5, field=f2.field)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report.to_csv(tmp_path / "cert.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps.size == len(report.rows) == n
    assert held / n <= 40, f"{held / n:.0f} B per step"
    assert peak - held <= 2 * 2**20, f"{(peak - held) / 2**20:.2f} MiB"


# the writers' rows as each built them at once, before they wrote in chunks
def one_shot_node_rows(traj):
    return zip(traj.tau.tolist(), traj.steps.tolist() + [0.0],
               *traj.states.T.tolist())


def one_shot_step_rows(traj):
    return zip(range(traj.steps.size), traj.tau.tolist(), traj.steps.tolist())


def one_shot_audit_rows(lyap, traj, lam, field):
    """certify_trajectory's rows as it built them, one tuple per step."""
    v = [lyap(x) for x in traj.states]
    rows = []
    for i, (tau, h) in enumerate(zip(traj.tau.tolist(), traj.steps.tolist())):
        bar = v[i] + lam * h * state_terms(lyap, field, traj.states[i],
                                           v[i])[2]
        rows.append((i, tau, v[i], bar, within_slack(v[i + 1], bar), 0))
    return rows


def one_shot_grid_rows(run):
    n = run.dim
    return zip(np.repeat(run.tau, n).tolist(),
               np.tile(np.arange(1, n + 1), run.tau.size).tolist(),
               run.states.ravel().tolist())


@pytest.mark.parametrize("rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS,
                                  _CHUNK_ROWS + 1])
def test_chunk_boundaries_keep_every_byte(tmp_path, rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    node_header = ["tau", "h", "x_0", "x_1"]
    cases = [
        (write_trajectory_csv, built_trajectory(rows, 2), node_header,
         one_shot_node_rows),
        (write_chain_csv, built_trajectory(rows, 2),
         ["tau", "h", "x_1", "x_2"], one_shot_node_rows),
        (write_steps_csv, built_trajectory(rows + 1, 2), ("k", "tau", "h"),
         one_shot_step_rows),
        (write_grid_csv, built_trajectory(rows, 1),
         ("tau", "z_index", "value"), one_shot_grid_rows),
        # a chunk that ends inside a node's rows
        (write_grid_csv, built_trajectory(rows // 3 + 1, 3),
         ("tau", "z_index", "value"), one_shot_grid_rows),
    ]
    for writer, traj, header, one_shot in cases:
        writer(traj, got)
        write_csv(want, header, one_shot(traj))
        assert got.read_bytes() == want.read_bytes(), writer.__name__
    # the audit: its columns, its rows and its CSV
    f2, traj = example_fields()["f2"], built_trajectory(rows + 1, 2)
    report = certify_trajectory(f2.lyap, traj, 0.5, field=f2.field)
    one_shot = one_shot_audit_rows(f2.lyap, traj, 0.5, f2.field)
    assert report.rows == tuple(one_shot)
    assert report.first_violation == next(
        (row[0] for row in one_shot if not row[4]), None)
    report.to_csv(got)
    write_csv(want, ("i", "tau", "V", "threshold", "accepted", "halvings"),
              one_shot)
    assert got.read_bytes() == want.read_bytes()


def test_columns_across_capacity_doublings():
    """A certified run of 600 steps, past the buffers' 64, 128, 256 and 512
    rows, records what its controller returned; the input shrinks every
    other tenth of a time unit's steps, so both the reused and the
    re-stepped state are recorded."""
    a = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    field = linear_field(a)
    ctrl = HalvingController(quadratic_lyapunov(np.eye(2)), EULER, field,
                             lam=0.5, h_init=0.02)
    seen = []

    def recording(x, tau, *last):
        cert = ctrl(x, tau, *last)
        seen.append((tau, x.copy(), cert.h, cert.lhs, cert.rhs,
                     cert.halvings))
        return cert

    def u(tau):
        return 0.0 if int(10 * tau) % 2 else 0.25

    traj = advance(EULER, field, recording, np.array([1.0, 0.5]), math.inf,
                   u_input=u, max_steps=600, stop=lambda x: False)
    assert traj.steps.size == len(seen) == 600
    tau, states, h, lhs, rhs, halvings = zip(*seen)
    assert traj.tau[:-1].tolist() == list(tau)
    assert traj.states[:-1].tobytes() == np.array(states).tobytes()
    assert traj.h.tolist() == list(h)
    assert traj.lhs.tolist() == list(lhs)
    assert traj.rhs.tolist() == list(rhs)
    assert traj.halvings.tolist() == list(halvings)
    assert traj.steps.tolist() == [hb * math.exp(-u(t))
                                   for hb, t in zip(h, tau)]
    assert set(map(u, tau)) == {0.0, 0.25}
