"""Windowed diagnostics: a run that folds up to W accepted steps at a time
must hand its sink the records of the one-step-at-a-time path, bit for bit
and in the same order, for every window length, record stride and grid.
The consistency residual of simulate folds by the same windows and must
give each step pair its own floats."""

import numpy as np
import pytest

import planar_mhd.diagnostics as diagnostics
from planar_mhd.cli import main
from planar_mhd.diagnostics import NORM_NAMES, SCALAR_COLUMNS, DiagnosticsAccumulator
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import (
    Forcing,
    SchemeConfig,
    SimulationError,
    consistency_residuals,
    run,
    stable_dt,
    step,
)

# (scenario, t_end) per grid: about 40 steps each
CASES = {4: ("magnetic-pulse", 2.0), 128: ("vacuum-pocket", 0.15), 2048: ("vacuum-pocket", 0.01)}


def hexed(record):
    return ([getattr(record, name).hex() for name in SCALAR_COLUMNS]
            + [record.norms[name].hex() for name in NORM_NAMES])


def use_window(monkeypatch, steps, n):
    monkeypatch.setattr(diagnostics, "WINDOW_CELLS", steps * n)
    monkeypatch.setattr(diagnostics, "MIN_WINDOW", 1)


def simulate(n, record_every, **kwargs):
    name, t_end = CASES[n]
    grid = Grid.uniform(n)
    records, snaps, steps = [], [], []
    final = run(scenario(name, grid), t_end, grid, PhysParams(q_exp=1.5), sink=records.append,
                record_every=record_every, alpha=0.4,
                snapshot_times=(0.37 * t_end, 0.71 * t_end), snapshot_sink=snaps.append,
                on_step=lambda before, after, report: steps.append(report.dt_used), **kwargs)
    return records, snaps, steps, final


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n", sorted(CASES))
def test_windowed_records_match_one_step_at_a_time(monkeypatch, n, record_every):
    use_window(monkeypatch, 1, n)
    want, want_snaps, steps, final = simulate(n, record_every)
    assert len(steps) > 32
    assert len(want) == 2 + (len(steps) - 1) // record_every
    for window in (2, 7, 32, len(steps) + 5):
        use_window(monkeypatch, window, n)
        got, snaps, _, got_final = simulate(n, record_every)
        assert [hexed(r) for r in got] == [hexed(r) for r in want], window
        assert [s.time for s in snaps] == [s.time for s in want_snaps]
        assert got_final.theta.tobytes() == final.theta.tobytes()


def test_snapshot_times_fall_inside_windows(monkeypatch):
    # the oracle above is only as strong as its windows are long: the
    # snapshot steps must not sit on a window boundary for W = 7 and 32
    use_window(monkeypatch, 1, 128)
    _, snaps, steps, _ = simulate(128, 1)
    times = np.cumsum(steps)
    at = [int(np.argmin(abs(times - s.time))) + 1 for s in snaps]
    for window in (7, 32):
        assert all(k % window for k in at), (at, window)


@pytest.mark.parametrize("record_every", [1, 3])
def test_a_failing_run_delivers_the_held_records_first(monkeypatch, record_every):
    # the drain switches on mid-run, so the step that fails sits inside a
    # window whose earlier records are still held
    grid = Grid.uniform(16)
    drain = Forcing(e=lambda x, t: np.full(x.shape, -2000.0 if t > 0.2 else 0.0))

    def failing():
        records = []
        with pytest.raises(SimulationError, match="step 6 at t"):
            run(scenario("uniform-rest", grid), 0.5, grid, PhysParams(), forcing=drain,
                sink=records.append, record_every=record_every)
        return [hexed(r) for r in records]

    use_window(monkeypatch, 1, 16)
    want = failing()
    assert len(want) == 1 + 6 // record_every
    use_window(monkeypatch, 32, 16)
    assert failing() == want


def test_window_lengths_follow_the_cell_budget():
    lengths = {n: DiagnosticsAccumulator(scenario("magnetic-pulse", Grid.uniform(n)),
                                         Grid.uniform(n), PhysParams()).window
               for n in (4, 128, 256, 512, 1024, 2048)}
    assert lengths == {4: 512, 128: 16, 256: 8, 512: 4, 1024: 1, 2048: 1}


def test_a_stack_records_each_state_as_alone():
    # states with vacuum cells, a cold cell (entropy +inf) and plain ones,
    # recorded together and one at a time
    n = 64
    grid = Grid.uniform(n)
    params = PhysParams(q_exp=0.7)
    init = scenario("vacuum-pocket", grid)
    base = init.to_state()
    cold_theta = base.theta.copy()
    cold_theta[np.argmax(base.rho)] = 0.0
    cold = State(0.5, base.rho, base.u, base.w, base.b, cold_theta)
    states = [base, cold, scenario("magnetic-pulse", grid).to_state()]
    alone = [hexed(DiagnosticsAccumulator(init, grid, params).record(s)) for s in states]
    together = DiagnosticsAccumulator(init, grid, params).record(states)
    assert [hexed(r) for r in together] == alone
    assert together[1].entropy_fn == float("inf")


def test_windowed_residual_gives_the_summary_of_one_step_at_a_time(monkeypatch, tmp_path):
    # simulate folds the consistency residual on the diagnostics' own stack
    # of each window, and neither its max nor the records may depend on how
    # many steps one window holds, nor on which of its steps are due
    n = 128
    name, t_end = CASES[n]
    for record_every in (1, 3):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = {name}\nn_cells = {n}\nt_end = {t_end}\nq_exp = 1.5\n"
                       f"record_every = {record_every}\n")
        outputs = []
        for window in (1, 7, 32):
            use_window(monkeypatch, window, n)
            out = tmp_path / f"r{record_every}w{window}"
            assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
            outputs.append([(out / file).read_bytes()
                            for file in ("run-summary.txt", "diagnostics.csv")])
        summary = outputs[0][0].decode()
        steps = int(dict(line.split(" = ") for line in summary.splitlines())["steps"])
        assert steps % 7 and steps % 32  # the last window is a partial one
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


@pytest.mark.parametrize("record_every", [1, 3])
def test_a_window_stacks_its_states_once(monkeypatch, tmp_path, record_every):
    # the residual, update and record of a window share one stack of its
    # W + 1 chained states (the first before, then each after), so a run
    # builds one stack per window of more than one step and no other
    built = []
    original = diagnostics._Stack.__init__

    def counted(self, states):
        built.append(list(states))
        original(self, states)

    monkeypatch.setattr(diagnostics._Stack, "__init__", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 128\nt_end = 0.2\n"
                   f"record_every = {record_every}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"]) == 0
    summary = (tmp_path / "out" / "run-summary.txt").read_text()
    steps = int(dict(line.split(" = ") for line in summary.splitlines())["steps"])
    window = diagnostics.window_length(128)
    assert steps % window > 1  # the partial last window is stacked too
    assert [len(states) for states in built] == \
        [window + 1] * (steps // window) + [steps % window + 1]
    for first, second in zip(built, built[1:]):
        assert second[0] is first[-1]  # a window starts where the last one ended


def test_pairs_that_are_not_chained_give_the_records_of_one_step_at_a_time(monkeypatch):
    # a window of pairs that do not chain stacks its distinct states once
    # and must still give each pair its own records
    params = PhysParams(q_exp=1.5)
    grid, steps = pairs("vacuum-pocket", 16, params, count=6)
    states = [steps[0][0]] + [a for _, a, _ in steps]
    held = [(states[b], states[a], states[a].time - states[b].time)
            for b, a in ((0, 2), (1, 3), (0, 4), (2, 3), (5, 6), (1, 3))]
    init = scenario("vacuum-pocket", grid)

    def records(window):
        use_window(monkeypatch, window, 16)
        acc = DiagnosticsAccumulator(init, grid, params)
        got = []
        for before, after, dt in held:
            got += acc.hold(before, after, dt, due=True)
        return [hexed(r) for r in got + acc.flush()]

    want = records(1)
    assert len(want) == len(held)
    assert records(4) == want
    assert records(len(held)) == want


def pairs(name, n, params, count=5):
    """(before, after, dt) of the scenario's first steps, as fresh states."""
    grid = Grid.uniform(n)
    cfg = SchemeConfig()
    states = [scenario(name, grid).to_state()]
    for _ in range(count):
        s = states[-1]
        states.append(step(s, stable_dt(s, grid, params, cfg), grid, params, cfg)[0])
    states = [State(s.time, s.rho, s.u, s.w, s.b, s.theta) for s in states]
    return grid, [(b, a, a.time - b.time) for b, a in zip(states, states[1:])]


@pytest.mark.parametrize("q_exp", [0.5, 1.5, 2.0, 6.0])
@pytest.mark.parametrize("n", [4, 5, 128])
@pytest.mark.parametrize("name", ["vacuum-pocket", "magnetic-pulse"])
def test_a_stacked_residual_gives_each_pair_its_own_floats(name, n, q_exp):
    params = PhysParams(q_exp=q_exp)
    grid, steps = pairs(name, n, params)
    alone = [consistency_residuals(b, a, dt, grid, params) for b, a, dt in steps]
    assert all(type(r) is float for pair in alone for r in pair)
    assert any(r > 0.0 for pair in alone for r in pair)
    befores, afters, dts = zip(*steps)
    r_mag, r_pre = consistency_residuals(diagnostics.stack(befores), diagnostics.stack(afters),
                                         np.array(dts), grid, params)
    assert r_mag.shape == r_pre.shape == (len(steps),)
    together = list(zip(r_mag.tolist(), r_pre.tolist()))
    assert [[r.hex() for r in pair] for pair in together] == \
        [[r.hex() for r in pair] for pair in alone]
    with pytest.raises(ValueError, match="dt must be positive"):
        consistency_residuals(diagnostics.stack(befores), diagnostics.stack(afters),
                              np.array(dts[:-1] + (0.0,)), grid, params)
