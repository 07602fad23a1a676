"""Windowed diagnostics: a run that folds up to W accepted steps at a time
must hand its sink the records of the one-step-at-a-time path, bit for bit
and in the same order, for every window length, record stride and grid.
The consistency residual of simulate folds by the same windows and must
give each step pair its own floats."""

import ast
from pathlib import Path

import numpy as np
import pytest

import planar_mhd.diagnostics as diagnostics
from planar_mhd.cli import EXIT_OK, main
from planar_mhd.diagnostics import (
    NORM_NAMES,
    SCALAR_COLUMNS,
    DiagnosticsAccumulator,
    density_bound_monitor,
    entropy_functional,
    initial_phi,
    norm_suite,
    phi_momentum_residual,
    total_energy,
    total_mass,
)
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
from planar_mhd.tables import write_state_table

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
    # n = 2048 folds 8 steps at a time by default; 4 is the next shorter window
    for window in (2, 7, 32, len(steps) + 5) + ((4, 8) if n == 2048 else ()):
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
    assert lengths == {4: 2048, 128: 64, 256: 32, 512: 16, 1024: 8, 2048: 8}


@pytest.mark.parametrize("n", [64, 2048])
def test_a_stack_records_each_state_as_alone(n):
    # states with vacuum cells, a cold cell (entropy +inf) and plain ones,
    # recorded together and one at a time, must give the floats of the
    # public functionals called on each State, as of a fresh accumulator
    grid = Grid.uniform(n)
    params = PhysParams(q_exp=0.7)
    init = scenario("vacuum-pocket", grid)
    base = init.to_state()
    cold_theta = base.theta.copy()
    cold_theta[np.argmax(base.rho)] = 0.0
    cold = State(0.5, base.rho, base.u, base.w, base.b, cold_theta)
    states = [base, cold, scenario("magnetic-pulse", grid).to_state()]
    phi = initial_phi(init, grid)

    def alone(s):
        scalars = dict.fromkeys(SCALAR_COLUMNS, 0.0)  # no step folded yet
        scalars.update(time=s.time, mass=total_mass(s, grid),
                       energy=total_energy(s, grid, params),
                       entropy_fn=entropy_functional(s, grid), max_rho=float(s.rho.max()),
                       min_theta=float(s.theta.min()), max_theta=float(s.theta.max()),
                       rho_F_max=density_bound_monitor(phi, s))
        norms = dict(norm_suite(s, s, 0.0, grid, params), theta_sup_cum=0.0,
                     phi_residual=phi_momentum_residual(phi, s, grid))
        return ([scalars[name].hex() for name in SCALAR_COLUMNS]
                + [norms[name].hex() for name in NORM_NAMES])

    want = [alone(s) for s in states]
    together = DiagnosticsAccumulator(init, grid, params).record(states)
    assert [hexed(r) for r in together] == want
    one_by_one = [DiagnosticsAccumulator(init, grid, params).record([s]) for s in states]
    assert [hexed(r) for [r] in one_by_one] == want
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


def counted_stacks(monkeypatch):
    """The states of every _Stack built from now on, in order."""
    built = []
    original = diagnostics._Stack.__init__

    def counted(self, states):
        built.append(list(states))
        original(self, states)

    monkeypatch.setattr(diagnostics._Stack, "__init__", counted)
    return built


def chained_folds(steps, window):
    """The sizes of one stack per fold of `steps` chained steps: W + 1
    states per full window, then the partial last one."""
    return [window + 1] * (steps // window) + ([steps % window + 1] if steps % window else [])


def assert_chained(built):
    for first, second in zip(built, built[1:]):
        assert second[0] is first[-1]  # a window starts where the last one ended


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n,t_end,last", [(128, 0.26, 4), (128, 0.25, 1), (2048, 0.006, 1),
                                          (2048, 0.01, 2)])
def test_a_window_stacks_its_states_once(monkeypatch, tmp_path, n, t_end, last, record_every):
    # the residual, update and record of a window share one stack of its
    # W + 1 chained states (the first before, then each after), also when
    # the last window holds one step, and the initial record stacks the
    # initial state alone: a run builds no other stack
    built = counted_stacks(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = magnetic-pulse\nn_cells = {n}\nt_end = {t_end}\n"
                   f"record_every = {record_every}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"]) == 0
    summary = (tmp_path / "out" / "run-summary.txt").read_text()
    steps = int(dict(line.split(" = ") for line in summary.splitlines())["steps"])
    window = diagnostics.window_length(n)
    assert steps % window == last
    assert [len(states) for states in built] == [1] + chained_folds(steps, window)
    assert_chained(built)


@pytest.mark.parametrize("n,count", [(128, 66), (2048, 10)])
def test_an_audit_stacks_each_window_once(monkeypatch, tmp_path, n, count):
    # audit folds its snapshot pairs by the same windows, the last of them
    # one pair, after a lone record of the first snapshot
    grid = Grid.uniform(n)
    t_end = 0.04 * 128 / n
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    states = []
    run(scenario("magnetic-pulse", grid), t_end, grid, PhysParams(),
        snapshot_times=np.linspace(0.0, t_end, count), snapshot_sink=states.append)
    assert len(states) == count
    for state in states:
        write_state_table(snaps / f"snapshot_t{state.time:.6f}.dat", grid, state)
    built = counted_stacks(monkeypatch)
    assert main(["--out", str(tmp_path / "audit"), "audit", "--input", str(snaps)]) == EXIT_OK
    window = diagnostics.window_length(n)
    assert (count - 1) % window == 1
    assert [len(states) for states in built] == [1] + chained_folds(count - 1, window)
    assert_chained(built)
    assert [s.time for s in built[0] + built[-1]] == [s.time for s in states[:1] + states[-2:]]


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
    r_mag, r_pre = consistency_residuals(diagnostics._Stack(befores), diagnostics._Stack(afters),
                                         np.array(dts), grid, params)
    assert r_mag.shape == r_pre.shape == (len(steps),)
    together = list(zip(r_mag.tolist(), r_pre.tolist()))
    assert [[r.hex() for r in pair] for pair in together] == \
        [[r.hex() for r in pair] for pair in alone]
    with pytest.raises(ValueError, match="dt must be positive"):
        consistency_residuals(diagnostics._Stack(befores), diagnostics._Stack(afters),
                              np.array(dts[:-1] + (0.0,)), grid, params)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n,t_end", [(32, 3.98), (128, 0.25)])
def test_on_fold_gets_the_values_of_each_windows_residuals(each_path, n, t_end, record_every):
    # on_fold gets two (W,) float64 arrays per window, the last window here
    # one step; together they hold one entry per step, with the bits of
    # that step's pair alone, and no callback receives a _Stack or _Columns
    grid, params = Grid.uniform(n), PhysParams()
    window = diagnostics.window_length(n)
    for _ in each_path():
        steps, folds, received = [], [], []

        def on_step(*args):
            steps.append(args)
            received.extend(args)

        def on_fold(*args):
            folds.append(args)
            received.extend(args)

        run(scenario("magnetic-pulse", grid), t_end, grid, params, sink=received.append,
            record_every=record_every, on_step=on_step, on_fold=on_fold)
        assert len(steps) > window and len(steps) % window == 1
        for r_mag, r_pre in folds:
            assert type(r_mag) is type(r_pre) is np.ndarray
            assert r_mag.dtype == r_pre.dtype == np.float64
            assert r_mag.shape == r_pre.shape == (r_mag.size,)
        assert [r_mag.size for r_mag, _ in folds] == [window] * (len(steps) // window) + [1]
        got = [[m.hex(), p.hex()] for r_mag, r_pre in folds
               for m, p in zip(r_mag.tolist(), r_pre.tolist())]
        alone = [consistency_residuals(before, after, report.dt_used, grid, params)
                 for before, after, report in steps]
        assert got == [[r.hex() for r in pair] for pair in alone]
        assert not any(isinstance(x, (diagnostics._Stack, diagnostics._Columns))
                       for x in received)


WINDOW_PRIVATE = {"_Stack", "_Columns", "_chain", "_fold", "_kept"}


def window_privates(source):
    """The names of WINDOW_PRIVATE that a module's code refers to, as a
    name or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & WINDOW_PRIVATE


def test_no_module_but_diagnostics_refers_to_a_windows_stack_or_fold():
    # a window's stack, its column views and its fold stay in diagnostics,
    # which hands every other module values; _kept is gone
    package = Path(diagnostics.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert window_privates(sources.pop("diagnostics.py")) == WINDOW_PRIVATE - {"_kept"}
    assert {name: window_privates(code) for name, code in sources.items()} == {
        name: set() for name in sources}
    # the scan finds such a reference as a name and as an attribute
    for line, name in (("window = _chain(befores, afters)", "_chain"),
                       ("fold = window._fold", "_fold"),
                       ("diagnostics._kept(before, after, dt, params)", "_kept")):
        assert window_privates(f"{sources['cli.py']}\n{line}\n") == {name}
