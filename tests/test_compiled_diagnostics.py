"""The compiled diagnostics fold against the numpy bodies: the same bits.

Where the kernel is loaded, DiagnosticsAccumulator.flush, its one caller,
takes a window's residual, ledger, phi increments, norms, mass, energy
and entropy from one C pass over the window's stacked rows, which sums
each integrand row in numpy's pairwise order; update, record and a
residual passed on by on_fold read that pass.  Every other call, and
every call with operators._KERNEL off, runs the numpy bodies, the
reference.  Each case runs the same fold on both paths and compares every
record field, both residuals and every update mark by .hex() or bytes:
whole runs (consecutive columns, and the non-consecutive due steps of
record_every = 3), audit's snapshot pairs and the lone initial record.
The data has exact vacuum (vacuum-pocket) and a cold cell (theta = 0,
which takes the THETA_FLOOR branch of the ledger).
"""

import tracemalloc

import numpy as np
import pytest

import planar_mhd.diagnostics as diagnostics
import planar_mhd.model as model
import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.diagnostics import (
    NORM_NAMES,
    SCALAR_COLUMNS,
    DiagnosticsAccumulator,
    dissipation_ledger,
    norm_suite,
)
from planar_mhd.initial import InitialData, scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import consistency_residuals, run

pytestmark = pytest.mark.skipif(operators._KERNEL is None,
                                reason="no compiled kernel (no C compiler on PATH)")


def hexed(values):
    return [float(v).hex() for v in np.ravel(values)]


def record_hex(record):
    return ([getattr(record, name).hex() for name in SCALAR_COLUMNS]
            + [record.norms[name].hex() for name in NORM_NAMES])


def mark_hex(mark):
    before, dt, totals, phi = mark
    return (before.time.hex(), float(dt).hex(), hexed(totals), phi.tobytes())


def with_cold_cell(init):
    """init with theta = 0 in its densest cell, whose density stays > 0."""
    theta = init.theta0.copy()
    theta[np.argmax(init.rho0)] = 0.0
    return InitialData(init.rho0, init.u0, init.w0, init.b0, theta)


def on_both_paths(monkeypatch, fold):
    """fold() on the compiled path, then with operators._KERNEL off."""
    kernel = operators._KERNEL
    compiled = fold()
    monkeypatch.setattr(operators, "_KERNEL", None)
    try:
        reference = fold()
    finally:
        monkeypatch.setattr(operators, "_KERNEL", kernel)
    return compiled, reference


def watched_run(monkeypatch, init, grid, params, t_end, record_every, alpha, cfg=None):
    """Every record, residual pair and update mark of one run, as hex."""
    records, residuals, marks = [], [], []
    update = DiagnosticsAccumulator.update

    def kept_marks(self, *args):
        out = update(self, *args)
        marks.extend(mark_hex(m) for m in out)
        return out

    def fold(befores, afters, dts):
        residuals.append([hexed(r) for r in consistency_residuals(befores, afters, dts,
                                                                   grid, params)])

    monkeypatch.setattr(DiagnosticsAccumulator, "update", kept_marks)
    final = run(init, t_end, grid, params, cfg, sink=records.append, record_every=record_every,
                alpha=alpha, on_fold=fold)
    monkeypatch.setattr(DiagnosticsAccumulator, "update", update)
    return [record_hex(r) for r in records], residuals, marks, final.theta.tobytes()


def audited(snaps, grid, params):
    """audit's records of the snapshots, as hex: the first recorded alone,
    then each pair held and flushed by the accumulator's windows."""
    first = snaps[0]
    init = InitialData(first.rho, first.u, first.w, first.b, first.theta)
    acc = DiagnosticsAccumulator(init, grid, params, alpha=0.3)
    records = acc.record([first])
    for before, after in zip(snaps, snaps[1:]):
        records += acc.hold(before, after, after.time - before.time, due=True)
    records += acc.flush()
    return [record_hex(r) for r in records]


RUNS = [  # (scenario, n, q_exp, alpha, t_end, record_every)
    ("vacuum-pocket", 4, 0.5, None, 1.0, 1),
    ("magnetic-pulse", 5, 6.0, 0.3, 1.0, 3),
    ("vacuum-pocket", 128, 1.5, None, 0.06, 3),
    ("gaussian-density", 128, 2.0, 0.3, 0.03, 1),
    ("magnetic-pulse", 128, 6.0, None, 0.03, 3),
    ("vacuum-pocket", 2048, 2.0, 0.3, 0.0015, 1),
    ("gaussian-density", 2048, 0.5, None, 0.001, 3),
]


@pytest.mark.parametrize("cold", [False, True], ids=["plain", "cold-cell"])
@pytest.mark.parametrize("name, n, q_exp, alpha, t_end, record_every", RUNS)
def test_a_run_folds_the_same_bits_on_both_paths(monkeypatch, name, n, q_exp, alpha, t_end,
                                                 record_every, cold):
    grid = Grid.uniform(n)
    params = PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                        kappa_a=0.8, kappa_b=1.7, q_exp=q_exp)
    init = scenario(name, grid)
    if cold:
        init = with_cold_cell(init)
    compiled, reference = on_both_paths(
        monkeypatch, lambda: watched_run(monkeypatch, init, grid, params, t_end,
                                         record_every, alpha))
    records, residuals, marks, _ = compiled
    assert len(records) >= 3 and residuals and marks
    assert compiled == reference
    if cold:
        assert records[0][SCALAR_COLUMNS.index("entropy_fn")] == float("inf").hex()


@pytest.mark.parametrize("n", [4, 128])
def test_audit_pairs_fold_the_same_bits_on_both_paths(monkeypatch, n):
    # audit folds snapshot pairs of unequal dt through hold and flush
    grid = Grid.uniform(n)
    params = PhysParams(q_exp=1.5)
    snaps = []
    run(scenario("magnetic-pulse", grid), 0.02, grid, params,
        snapshot_times=(0.0, 0.003, 0.0071, 0.012, 0.02), snapshot_sink=snaps.append)

    compiled, reference = on_both_paths(monkeypatch, lambda: audited(snaps, grid, params))
    assert len(compiled) == len(snaps)
    assert compiled == reference


@pytest.mark.parametrize("n", [4, 5, 128, 2048])
@pytest.mark.parametrize("q_exp", [0.5, 1.5, 2.0, 6.0])
def test_lone_states_and_picked_columns_give_the_same_bits(n, q_exp):
    grid = Grid.uniform(n)
    params = PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                        kappa_a=0.8, kappa_b=1.7, q_exp=q_exp)
    rng = np.random.default_rng(n)
    base = with_cold_cell(scenario("vacuum-pocket", grid)).to_state()
    states = [State(0.1 * i, base.rho * rng.uniform(0.9, 1.1, n),
                    base.u + 0.05 * rng.standard_normal(n),
                    base.w + 0.05 * rng.standard_normal((n, 2)),
                    base.b + 0.05 * rng.standard_normal((n, 2)),
                    base.theta * rng.uniform(0.9, 1.1, n)) for i in range(5)]
    dts = np.array([0.01, 0.02, 0.005])
    # columns of one stack picked out of order
    stack = diagnostics._Stack(states)
    sa = stack.columns([states[4], states[0], states[2]])
    befores = stack.columns([states[3], states[1], states[0]])
    picked = consistency_residuals(befores, sa, dts, grid, params)
    # a stack's columns give each pair the bits it gets alone
    alone = [consistency_residuals(states[b], states[a], dt, grid, params)
             for b, a, dt in zip((3, 1, 0), (4, 0, 2), dts)]
    assert hexed(picked) == hexed(np.array(alone).T)


def test_the_compiled_residual_computes_no_derived_field(monkeypatch):
    # solver.consistency_residuals.busy_s then times the residual itself,
    # not the stack's lazily computed gradients and face averages: on_fold
    # reads the residual from the pass that flush made
    grid = Grid.uniform(64)
    params = PhysParams(q_exp=1.5)
    calls = []
    for module in (operators, model, solver, diagnostics):
        for name in ("cell_grad", "face_average"):
            if hasattr(module, name):
                original = getattr(operators, name)

                def counted(*args, _original=original, _name=name):
                    calls.append(_name)
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)

    def residual_calls():
        during = []

        def on_fold(befores, afters, dts):
            start = len(calls)
            consistency_residuals(befores, afters, dts, grid, params)
            during.append(calls[start:])

        run(scenario("magnetic-pulse", grid), 0.01, grid, params, sink=lambda *records: None,
            on_fold=on_fold)
        return during

    compiled = residual_calls()
    assert compiled and all(c == [] for c in compiled)
    monkeypatch.setattr(operators, "_KERNEL", None)
    assert all(residual_calls())  # the numpy body does compute them


@pytest.mark.parametrize("n", [4, 5, 127, 128, 129, 1000, 2048, 4099, 100_003])
def test_a_block_sums_each_row_as_its_own_sum(n):
    # the kernels' contract with numpy: block.sum(axis=-1) on a C-contiguous
    # (rows, k, n) block gives each row the bits of its own 1-D .sum()
    rng = np.random.default_rng(n)
    block = rng.standard_normal((3, 2, n)) * np.exp(rng.uniform(-20, 20, (3, 2, n)))
    sums = block.sum(axis=-1)
    assert [[s.hex() for s in row] for row in sums.tolist()] == [
        [float(block[r, j].copy().sum()).hex() for j in range(2)] for r in range(3)]


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 2049])
def test_the_kernel_sums_each_row_in_numpys_pairwise_order(monkeypatch, n):
    # fold_rows sums its integrand rows itself, as numpy does: a plain loop
    # below 8 cells, eight accumulators up to 128, halves split at a
    # multiple of 8 above; n sits on both sides of each edge.  A numpy whose
    # order differs from the port fails here rather than changing the bits.
    grid = Grid.uniform(n)
    params = PhysParams(q_exp=1.5)
    # on 9 and 17 cells the Picard change of vacuum-pocket stalls near 1e-7
    cfg = solver.SchemeConfig(picard_tol=1e-6)
    init = vacuum_and_cold(grid)
    assert (init.rho0 == 0.0).any()
    dt = solver.stable_dt(init.to_state(), grid, params, cfg)
    for record_every in (1, 3):
        compiled, reference = on_both_paths(
            monkeypatch, lambda: watched_run(monkeypatch, init, grid, params, 7.5 * dt,
                                             record_every, None, cfg))
        records, residuals, marks, _ = compiled
        assert len(records) >= 3 and residuals and marks
        assert compiled == reference
        assert records[0][SCALAR_COLUMNS.index("entropy_fn")] == float("inf").hex()
    snaps = []  # audit's pairs, of uneven dts
    times = np.cumsum(dt * np.array([0.3, 1.0, 0.55, 0.8, 0.25]))
    run(init, float(times[-1]), grid, params, cfg, snapshot_times=[0.0, *times],
        snapshot_sink=snaps.append)
    compiled, reference = on_both_paths(monkeypatch, lambda: audited(snaps, grid, params))
    assert len(compiled) == len(snaps) == 6
    assert compiled == reference
    # numpy adds the pairwise sum to an initial 0.0: a density of -0.0 has mass +0.0
    void = State(0.0, np.full(n, -0.0), np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2)),
                 init.theta0)
    compiled, reference = on_both_paths(monkeypatch, lambda: [
        record_hex(r) for r in DiagnosticsAccumulator(init, grid, params).record([void])])
    assert compiled == reference
    assert compiled[0][SCALAR_COLUMNS.index("mass")] == (0.0).hex()


def test_a_flush_allocates_no_block_of_integrand_rows():
    # each integrand row is summed in the kernel's scratch as it is
    # written, so one flush at n = 2048, W = 8, with the residual and every
    # record due, peaks below the size of the (28 W, n) block of rows that
    # numpy would otherwise sum
    n = 2048
    grid, params, cfg = Grid.uniform(n), PhysParams(q_exp=1.5), solver.SchemeConfig()
    init = scenario("vacuum-pocket", grid)
    states = [init.to_state()]
    for _ in range(8):
        s = states[-1]
        states.append(solver.step(s, solver.stable_dt(s, grid, params, cfg), grid, params,
                                  cfg)[0])
    acc = DiagnosticsAccumulator(
        init, grid, params,
        on_fold=lambda b, a, dts: consistency_residuals(b, a, dts, grid, params))
    assert acc.window == 8
    held = [(b, a, a.time - b.time) for b, a in zip(states, states[1:])]
    for before, after, dt in held[:-1]:
        assert acc.hold(before, after, dt, due=True) == []
    tracemalloc.start()
    try:
        records = acc.hold(*held[-1], due=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 8
    assert peak < 28 * 8 * n * 8


class CountedKernel:
    """operators._KERNEL with its fold_rows calls counted."""

    def __init__(self, kernel):
        self.kernel, self.folds = kernel, 0

    def __getattr__(self, name):
        function = getattr(self.kernel, name)
        if name != "fold_rows":
            return function

        def counted(*args):
            self.folds += 1
            return function(*args)

        return counted


@pytest.mark.parametrize("record_every", [1, 3])
def test_a_windowed_run_makes_one_kernel_call_per_window(monkeypatch, record_every):
    # the residual, update and record of a window read the one fold_rows
    # pass that flush made; the initial record, like every call outside a
    # flush, runs the numpy bodies
    grid = Grid.uniform(128)
    params = PhysParams(q_exp=1.5)
    counted = CountedKernel(operators._KERNEL)
    monkeypatch.setattr(operators, "_KERNEL", counted)
    steps, records = [], []
    init = scenario("magnetic-pulse", grid)
    run(init, 0.5, grid, params, sink=records.append,
        record_every=record_every, on_step=lambda *step: steps.append(step),
        on_fold=lambda b, a, dts: consistency_residuals(b, a, dts, grid, params))
    window = diagnostics.window_length(128)
    assert window == 64 and len(steps) > 2 * window and len(steps) % window
    assert counted.folds == -(-len(steps) // window)

    folds = counted.folds
    (before, after, _), dt = steps[-1], steps[-1][2].dt_used
    acc = DiagnosticsAccumulator(init, grid, params)
    acc.record([after])
    acc.update([before], [after], [dt])
    acc.record([after])
    norm_suite(before, after, dt, grid, params)
    dissipation_ledger(after, dt, grid, params, 0.3)
    consistency_residuals(before, after, dt, grid, params)
    assert counted.folds == folds


def test_a_window_of_negative_zero_density_has_mass_plus_zero(monkeypatch):
    # numpy adds the pairwise sum to an initial 0.0, and so does the
    # kernel: a window whose states hold rho = -0.0 records mass +0.0
    n = 16
    grid, params = Grid.uniform(n), PhysParams(q_exp=1.5)
    init = scenario("magnetic-pulse", grid)
    voids = [State(t, np.full(n, -0.0), np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2)),
                   init.theta0) for t in (0.0, 0.01, 0.02)]

    def window():
        acc = DiagnosticsAccumulator(init, grid, params)
        for before, after in zip(voids, voids[1:]):
            acc.hold(before, after, after.time - before.time, due=True)
        return [record_hex(r) for r in acc.flush()]

    counted = CountedKernel(operators._KERNEL)
    monkeypatch.setattr(operators, "_KERNEL", counted)
    compiled, reference = on_both_paths(monkeypatch, window)
    assert counted.folds == 1
    assert compiled == reference
    assert {r[SCALAR_COLUMNS.index("mass")] for r in compiled} == {(0.0).hex()}


def test_studies_without_a_sink_make_no_fold_call(monkeypatch):
    from planar_mhd.verification import continuation_study, mms_convergence

    counted = CountedKernel(operators._KERNEL)
    monkeypatch.setattr(operators, "_KERNEL", counted)
    mms_convergence("smooth-wave", (16, 32), PhysParams(), t_end=0.05)
    grid = Grid.uniform(32)
    continuation_study(scenario("vacuum-pocket", grid), (1e-1, 1e-2), 0.02, grid, PhysParams())
    assert counted.folds == 0


def vacuum_and_cold(grid):
    """vacuum-pocket, whose plateau is exact vacuum, with theta = 0 in its
    densest cell."""
    return with_cold_cell(scenario("vacuum-pocket", grid))


EDGES = [  # (n, t_end, record_every, steps per window or None for the default)
    (128, 0.3, 3, None),  # non-consecutive due columns in windows of 64, the last partial
    (32, 0.1, 1, 1),  # one-step windows
    (32, 0.1, 3, 5),  # windows whose due steps are not the last
]


@pytest.mark.parametrize("q_exp", [0.5, 1.5, 2.0, 6.0])
@pytest.mark.parametrize("n, t_end, record_every, window", EDGES)
def test_the_fused_pass_at_the_window_edges_gives_the_reference_bits(
        monkeypatch, q_exp, n, t_end, record_every, window):
    if window is not None:
        monkeypatch.setattr(diagnostics, "WINDOW_CELLS", window * n)
        monkeypatch.setattr(diagnostics, "MIN_WINDOW", 1)
    grid = Grid.uniform(n)
    params = PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                        kappa_a=0.8, kappa_b=1.7, q_exp=q_exp)
    init = vacuum_and_cold(grid)
    compiled, reference = on_both_paths(
        monkeypatch, lambda: watched_run(monkeypatch, init, grid, params, t_end,
                                         record_every, None))
    records, residuals, marks, _ = compiled
    assert len(records) >= 3 and residuals and marks
    assert compiled == reference


@pytest.mark.parametrize("q_exp", [0.5, 1.5, 2.0, 6.0])
def test_audit_windows_and_the_lone_initial_record_give_the_reference_bits(monkeypatch, q_exp):
    # snapshot pairs of unequal dts in windows of 16, the last one partial,
    # after the first snapshot recorded alone (dt 0, paired with itself)
    monkeypatch.setattr(diagnostics, "WINDOW_CELLS", 16 * 128)
    monkeypatch.setattr(diagnostics, "MIN_WINDOW", 1)
    grid = Grid.uniform(128)
    params = PhysParams(q_exp=q_exp)
    snaps = []
    times = np.cumsum(np.linspace(0.0005, 0.002, 19))
    run(vacuum_and_cold(grid), float(times[-1]), grid, params,
        snapshot_times=[0.0, *times], snapshot_sink=snaps.append)
    assert len(snaps) == 20

    compiled, reference = on_both_paths(monkeypatch, lambda: audited(snaps, grid, params))
    assert len(compiled) == len(snaps)
    assert compiled == reference
    assert compiled[0][SCALAR_COLUMNS.index("entropy_fn")] == float("inf").hex()
