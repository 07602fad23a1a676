"""Derived fields kept on a State: the same bits as the operator calls they
stand for, read-only, keyed on the PhysParams object for P and kappa, and
computed only when something reads them.  A diagnostics window's stack
computes the same fields once on its stacked fields, column for column the
bits of each state's own."""

import numpy as np
import pytest

import planar_mhd.cli as cli
import planar_mhd.diagnostics as diagnostics
import planar_mhd.model as model
import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.diagnostics import dissipation_ledger, norm_suite
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State, kappa, pressure
from planar_mhd.operators import EVEN, ODD, cell_grad, dot2, face_average
from planar_mhd.solver import SchemeConfig, consistency_residuals, stable_dt, step
from planar_mhd.verification import continuation_study, mms_convergence

UNIT = PhysParams()
COEFFS = PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                    kappa_a=0.8, kappa_b=1.7, q_exp=1.5)

# each cached field and the operator call it replaces
FIELDS = {
    "u_x": lambda s, grid: cell_grad(s.u, grid.dx, ODD),
    "w_x": lambda s, grid: cell_grad(s.w, grid.dx, ODD),
    "b_x": lambda s, grid: cell_grad(s.b, grid.dx, ODD),
    "theta_x": lambda s, grid: cell_grad(s.theta, grid.dx, EVEN),
    "b_sq": lambda s, grid: dot2(s.b, s.b),
    "u_face": lambda s, grid: face_average(s.u, ODD),
    "b_face": lambda s, grid: face_average(s.b, ODD),
}
UNDER_PARAMS = {
    "pressure": lambda s, params: pressure(s.rho, s.theta, params),
    "kappa": lambda s, params: kappa(s.theta, params),
}


def fresh(s):
    """The same fields in a new State, with nothing computed yet."""
    return State(s.time, s.rho, s.u, s.w, s.b, s.theta)


def trajectory(name, n, params, steps=2):
    """The scenario's initial state and the states of its first steps, so
    every field is active (the scenarios start at rest)."""
    grid = Grid.uniform(n)
    cfg = SchemeConfig()
    states = [scenario(name, grid).to_state()]
    for _ in range(steps):
        s = states[-1]
        states.append(step(fresh(s), stable_dt(s, grid, params, cfg), grid, params, cfg)[0])
    return grid, [fresh(s) for s in states]


CASES = [(name, n, params) for name in ("vacuum-pocket", "magnetic-pulse")
         for n in (4, 128, 2048) for params in (UNIT, COEFFS)]
CASE_IDS = [f"{name}-{n}-{'unit' if params is UNIT else 'coeffs'}"
            for name, n, params in CASES]


@pytest.mark.parametrize("name,n,params", CASES, ids=CASE_IDS)
def test_derived_fields_are_the_operator_calls_bitwise(name, n, params):
    grid, states = trajectory(name, n, params)
    assert any(np.abs(s.u_x).max() > 0.0 for s in states[1:])
    for s in states:
        for field, oracle in FIELDS.items():
            got, want = getattr(s, field), oracle(s, grid)
            assert got.shape == want.shape and got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
            assert not got.flags.writeable, field
            assert getattr(s, field) is got, field  # computed once, then kept
        for method, oracle in UNDER_PARAMS.items():
            got, want = getattr(s, method)(params), oracle(s, params)
            assert got.tobytes() == want.tobytes(), method
            assert not got.flags.writeable, method
            assert getattr(s, method)(params) is got, method


def test_pressure_and_kappa_follow_the_params_they_are_read_under():
    _, states = trajectory("magnetic-pulse", 32, UNIT)
    s = states[-1]
    for method, oracle in UNDER_PARAMS.items():
        read = getattr(s, method)
        unit, coeffs = read(UNIT), read(COEFFS)
        assert unit.tobytes() == oracle(s, UNIT).tobytes()
        assert coeffs.tobytes() == oracle(s, COEFFS).tobytes()
        assert unit.tobytes() != coeffs.tobytes()
        # going back recomputes the first set's values
        assert read(UNIT).tobytes() == unit.tobytes()
        # an equal but distinct params object gets the same values
        assert read(PhysParams()).tobytes() == unit.tobytes()


def test_read_only_derived_fields_refuse_writes():
    _, states = trajectory("magnetic-pulse", 16, UNIT)
    s = states[-1]
    for field in FIELDS:
        with pytest.raises(ValueError):
            getattr(s, field)[0] = 1.0
    with pytest.raises(ValueError):
        s.pressure(UNIT)[0] = 1.0


def fill(s, params):
    for field in FIELDS:
        getattr(s, field)
    s.pressure(params)
    s.kappa(params)
    return s


def as_bytes(values):
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("name,params", [("vacuum-pocket", COEFFS),
                                         ("magnetic-pulse", UNIT)])
def test_consumers_give_the_same_bytes_whether_or_not_the_cache_was_filled(name, params):
    grid, states = trajectory(name, 64, params)
    before, after = states[-2], states[-1]
    dt = after.time - before.time
    other = COEFFS if params is UNIT else UNIT

    def consumers(b, a):
        return (as_bytes(dissipation_ledger(a, dt, grid, params, 0.3))
                + as_bytes(norm_suite(b, a, dt, grid, params).values())
                + as_bytes(consistency_residuals(b, a, dt, grid, params)))

    want = consumers(fresh(before), fresh(after))
    assert consumers(fill(fresh(before), params), fill(fresh(after), params)) == want
    # a cache filled under other params must not leak into these
    assert consumers(fill(fresh(before), other), fill(fresh(after), other)) == want


DIAGNOSTIC_ONLY = ("u_x", "w_x", "b_x", "theta_x", "_kappa")


def test_a_run_without_a_sink_computes_no_diagnostic_only_field(monkeypatch):
    # mms and continuation pay only for what step reads: the face averages,
    # |b|^2 and P of the state it starts from
    made = []
    original = solver.step

    def recording(state, *args, **kwargs):
        new, report = original(state, *args, **kwargs)
        made.extend((state, new))
        return new, report

    monkeypatch.setattr(solver, "step", recording)
    grid = Grid.uniform(32)
    mms_convergence("smooth-wave", (16, 32), UNIT, t_end=0.1)
    continuation_study(scenario("vacuum-pocket", grid), (1e-1, 1e-2), 0.05, grid, UNIT)
    assert len(made) > 20
    filled = sorted({key for s in made for key in vars(s) if key in DIAGNOSTIC_ONLY})
    assert filled == []
    # the check can see a filled field
    made[0].theta_x
    assert "theta_x" in vars(made[0])


@pytest.mark.parametrize("name,n,params", CASES, ids=CASE_IDS)
def test_a_stacks_derived_fields_are_the_per_state_fields_bitwise(name, n, params):
    # a diagnostics window computes its derived fields once on the stacked
    # fields; each column must be the field its state computes alone
    _, states = trajectory(name, n, params, steps=3)
    window = diagnostics._Stack([fresh(s) for s in states])
    for field in FIELDS:
        got = getattr(window, field)
        want = np.stack([getattr(s, field) for s in states], axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
        assert not got.flags.writeable, field
        assert getattr(window, field) is got, field
    for method in UNDER_PARAMS:
        got = getattr(window, method)(params)
        want = np.stack([getattr(s, method)(params) for s in states], axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), method
        assert getattr(window, method)(params) is got, method


def test_a_windowed_simulate_takes_gradients_per_window_not_per_step(monkeypatch, tmp_path):
    # at n = 128 a window holds 64 steps and stacks its 65 states once:
    # u_x, w_x, b_x and theta_x of that stack, the residual's advection and
    # the phi residual make six cell_grad calls per window, and the initial
    # record five (the numpy step takes two of its own per step)
    calls = []
    for module in (model, diagnostics, solver):
        original = module.cell_grad
        monkeypatch.setattr(module, "cell_grad",
                            lambda *args, original=original: calls.append(1) or original(*args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 128\nt_end = 0.5\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"]) == 0
    steps = int(dict(line.split(" = ") for line in
                     (tmp_path / "out" / "run-summary.txt").read_text().splitlines())["steps"])
    windows = -(-steps // diagnostics.window_length(128))
    assert windows >= 3 and steps >= 8 * windows
    per_step = 2 if operators._KERNEL is None else 0
    assert len(calls) <= 6 * windows + 5 + per_step * steps
