"""The compiled step against the numpy step: the same bits and the same
reports.

Where the kernel is loaded, solver.step runs stages 1-4 and the explicit
part of stage 5 as one step_explicit call and the Picard loop in
conduction_solve (one call at q_exp = 2, one per pass otherwise); with
operators._KERNEL off it runs the numpy stages and loop, which stay as the
reference.  Each case steps the same state on both paths and compares the
State bytes and the StepReport, or the class and text (and the residual
of a PicardError) of the error when the step fails.  The states are library scenarios and MMS
data with seeded cell-to-cell noise, so every branch of the stencils sees
data without symmetry.
"""

import sys
import threading

import numpy as np
import pytest

import planar_mhd.model as model
import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.diagnostics import csv_values
from planar_mhd.initial import SCENARIOS, InitialData, scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import (Forcing, NumericalError, PicardError, PositivityError,
                               SchemeConfig, conduction_update, run, stable_dt, step)
from planar_mhd.verification import MMS_CASES

pytestmark = pytest.mark.skipif(operators._KERNEL is None,
                                reason="no compiled kernel (no C compiler on PATH)")

FIELDS = ("rho", "u", "w", "b", "theta")


def outcome(*args, **kwargs):
    """(step(*args, **kwargs) as bytes, or the class and text of its error;
    the new State or None)."""
    try:
        state, report = step(*args, **kwargs)
    except Exception as err:
        return (type(err), str(err)), None
    return (state.time, tuple(getattr(state, f).tobytes() for f in FIELDS), report), state


def assert_paths_agree(monkeypatch, state, dt, grid, params, cfg, forcing=None):
    """One step on each path from state; returns the new State, or None
    when both failed alike."""
    kernel = operators._KERNEL
    compiled, new_state = outcome(state, dt, grid, params, cfg, forcing)
    monkeypatch.setattr(operators, "_KERNEL", None)
    reference, _ = outcome(state, dt, grid, params, cfg, forcing)
    monkeypatch.setattr(operators, "_KERNEL", kernel)
    assert compiled == reference
    return new_state


def seeded(state, seed):
    """state with seeded noise on every field; exact zeros of rho (vacuum)
    stay exactly zero."""
    rng = np.random.default_rng(seed)
    n = state.n_cells
    return State(state.time, state.rho * rng.uniform(0.9, 1.1, n),
                 state.u + 0.05 * rng.standard_normal(n),
                 state.w + 0.05 * rng.standard_normal((n, 2)),
                 state.b + 0.05 * rng.standard_normal((n, 2)),
                 state.theta * rng.uniform(0.9, 1.1, n))


def march(monkeypatch, state, grid, params, cfg, steps, forcing=None):
    for _ in range(steps):
        dt = stable_dt(state, grid, params, cfg)
        state = assert_paths_agree(monkeypatch, state, dt, grid, params, cfg, forcing)
        if state is None:
            break
    return state


def coefficients(q_exp):
    """Every coefficient away from one, so that a product taken in another
    order or a swapped coefficient changes some bit."""
    return PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                      kappa_a=0.8, kappa_b=1.7, q_exp=q_exp)


@pytest.mark.parametrize("q_exp", [0.5, 1.5, 2.0, 6.0])
@pytest.mark.parametrize("n", [4, 5, 128, 2048])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_library_scenarios_step_alike(monkeypatch, name, n, q_exp):
    grid = Grid(n)
    state = seeded(scenario(name, grid).to_state(), seed=n + int(10 * q_exp))
    for params in (PhysParams(q_exp=q_exp), coefficients(q_exp)):
        march(monkeypatch, state, grid, params, SchemeConfig(), 2 if n > 128 else 4)


@pytest.mark.parametrize("n", [4, 5, 128, 2048])
@pytest.mark.parametrize("case", sorted(MMS_CASES))
def test_forced_mms_steps_alike(monkeypatch, case, n):
    params = coefficients(1.5)
    mms = MMS_CASES[case]
    grid = Grid(n)
    march(monkeypatch, mms.initial_data(grid).to_state(), grid, params, SchemeConfig(),
          2 if n > 128 else 4, forcing=mms.forcing(params))


def test_exact_vacuum_is_carried_alike(monkeypatch):
    grid = Grid(64)
    state = march(monkeypatch, scenario("vacuum-pocket", grid).to_state(), grid,
                  PhysParams(), SchemeConfig(), 12)
    assert (state.rho == 0.0).sum() >= 8


@pytest.mark.parametrize("q_exp", [1.5, 2.0])
@pytest.mark.parametrize("at", ["0", "1", "n - 2", "n - 1"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_vacuum_cell_at_the_loop_edges_steps_alike(monkeypatch, n, at, q_exp):
    # The kernels' stencil loops run the interior (2 to 4 cells here) apart
    # from the wall cells, and the solves of stages 2-4 and of conduction
    # compute their couplings inside the factor loop; one vacuum cell at
    # the wall or next to it zeroes a wall face or a first interior face.
    # The flow leaves the vacuum cell, so it stays vacuum through the
    # stages of the first step.
    # q_exp = 1.5 takes kappa from numpy, 2 from the kernel.
    vacuum = {"0": 0, "1": 1, "n - 2": n - 2, "n - 1": n - 1}[at]
    grid = Grid(n)
    x = grid.cell_centers
    rng = np.random.default_rng(n + vacuum)
    rho = rng.uniform(0.6, 1.4, n)
    rho[vacuum] = 0.0
    state = State(0.0, rho, 0.3 * (x - x[vacuum]), 0.1 * rng.standard_normal((n, 2)),
                  0.3 + 0.1 * rng.standard_normal((n, 2)), rng.uniform(0.5, 1.5, n))
    for params in (PhysParams(q_exp=q_exp), coefficients(q_exp)):
        cfg = SchemeConfig()
        first = march(monkeypatch, state, grid, params, cfg, 1)
        assert first.rho[vacuum] == 0.0
        march(monkeypatch, first, grid, params, cfg, 2)


def on_each_path(monkeypatch, *args):
    """Step on the compiled, then the numpy path; for each, the outcome and
    the convected temperature and density (as bytes) that step handed to
    conduction_update."""
    seen = []
    real = solver.conduction_update

    def recorded(theta_tilde, rho, *rest):
        seen.append((theta_tilde.tobytes(), rho.tobytes()))
        return real(theta_tilde, rho, *rest)

    monkeypatch.setattr(solver, "conduction_update", recorded)
    kernel = operators._KERNEL
    results = []
    for value in (kernel, None):
        monkeypatch.setattr(operators, "_KERNEL", value)
        seen.clear()
        results.append((outcome(*args)[0], list(seen)))
    monkeypatch.setattr(operators, "_KERNEL", kernel)
    return results


def test_a_stage_1_roundoff_undershoot_is_clipped_to_plus_zero_alike(monkeypatch):
    # Cell 2 is driven 1e-15 below zero, inside the roundoff band, so the
    # density is clipped; the vacuum cells hold -0.0, which the clip turns
    # into +0.0 as np.maximum(-0.0, 0.0) does.  A clip that keeps -0.0
    # (x < 0 ? 0 : x) changes these bytes.
    n, dt = 16, 1e-3
    rho = np.ones(n)
    rho[6:10] = -0.0
    state = State(0.0, rho, np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n))
    drain = Forcing(rho=lambda x, t: np.where(np.arange(x.size) == 2,
                                              -(1.0 + 1e-15) / dt, -0.0))
    grid = Grid(n)
    (compiled, seen_c), (reference, seen_r) = on_each_path(
        monkeypatch, state, dt, grid, PhysParams(), SchemeConfig(), drain)
    assert compiled == reference and seen_c == seen_r
    new_rho = np.frombuffer(compiled[1][0])
    assert new_rho[2] == 0.0 and not np.signbit(new_rho).any()


def test_a_stage_5_undershoot_within_the_floor_is_clipped_to_plus_zero_alike(monkeypatch):
    # Cold gas at rest: nothing moves or heats, and the drain puts the
    # convected temperature of cell 3 at -5e-9, inside theta_floor_tol =
    # 1e-8, so it is clipped; the vacuum cells carry their incoming -0.0,
    # which the clip turns into +0.0.  Conduction would hide the sign
    # again, so the clipped array is compared where step hands it to
    # conduction_update.
    n, dt = 16, 1e-2
    rho = np.ones(n)
    rho[8:12] = 0.0
    theta = np.zeros(n)
    theta[8:12] = -0.0
    state = State(0.0, rho, np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2)), theta)
    drain = Forcing(e=lambda x, t: np.where(np.arange(x.size) == 3, -5e-9 / dt, 0.0))
    grid = Grid(n)
    (compiled, seen_c), (reference, seen_r) = on_each_path(
        monkeypatch, state, dt, grid, PhysParams(), SchemeConfig(), drain)
    assert compiled == reference and seen_c == seen_r
    assert compiled[2].clipped_cells == 1
    theta_tilde = np.frombuffer(seen_c[0][0])
    assert theta_tilde[3] == 0.0 and not np.signbit(theta_tilde).any()


def call_bytes(call, *args, **kwargs):
    """call(*args, **kwargs) as bytes, or the class, text and residual
    bytes of its error."""
    try:
        result = call(*args, **kwargs)
    except Exception as err:
        residual = getattr(err, "residual", None)
        return type(err), str(err), None if residual is None else np.float64(residual).tobytes()
    if isinstance(result, State):
        return tuple(getattr(result, f).tobytes() for f in FIELDS)
    theta, passes = result
    return theta.tobytes(), passes


def alike_on_both_paths(monkeypatch, call, *args, **kwargs):
    """The outcome of call on the compiled path, after checking that the
    numpy path gives the same."""
    kernel = operators._KERNEL
    with np.errstate(over="ignore", invalid="ignore"):
        compiled = call_bytes(call, *args, **kwargs)
        monkeypatch.setattr(operators, "_KERNEL", None)
        reference = call_bytes(call, *args, **kwargs)
    monkeypatch.setattr(operators, "_KERNEL", kernel)
    assert compiled == reference
    return compiled


def conduction_data(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)


QS = [0.5, 1.5, 2.0, 6.0]


@pytest.mark.parametrize("q_exp", QS)
@pytest.mark.parametrize("max_iters", [1, 2])
def test_conduction_that_does_not_converge_fails_alike(monkeypatch, q_exp, max_iters):
    theta_tilde, rho = conduction_data(64, seed=max_iters)
    cfg = SchemeConfig(picard_tol=1e-16, picard_max_iters=max_iters)
    outcome = alike_on_both_paths(monkeypatch, conduction_update, theta_tilde, rho, 0.01,
                                  Grid(64), coefficients(q_exp), cfg)
    assert outcome[0] is PicardError
    assert f"within {max_iters} passes" in outcome[1]


@pytest.mark.parametrize("q_exp", QS)
def test_conduction_that_overflows_fails_alike(monkeypatch, q_exp):
    # theta_tilde = 1e200 makes theta**2 overflow, so kappa is inf and the
    # first pass gives NaN; at q_exp < 2 the pass stays finite
    theta_tilde, rho = conduction_data(16, seed=7)
    theta_tilde[5] = 1e200
    outcome = alike_on_both_paths(monkeypatch, conduction_update, theta_tilde, rho, 1e-3,
                                  Grid(16), coefficients(q_exp), SchemeConfig())
    if q_exp >= 2.0:
        assert outcome[:2] == (NumericalError, "conduction pass 1 produced a non-finite"
                                               " temperature (change nan)")


@pytest.mark.parametrize("q_exp", QS)
def test_a_nearly_cold_conduction_stops_alike(monkeypatch, q_exp):
    # theta ~ 1e-300: the 1e-30 added to the stop test's scale decides when
    # the iteration stops
    theta_tilde, rho = conduction_data(32, seed=11)
    outcome = alike_on_both_paths(monkeypatch, conduction_update, 1e-300 * theta_tilde, rho,
                                  0.01, Grid(32), coefficients(q_exp), SchemeConfig())
    assert outcome[1] == 1


@pytest.mark.parametrize("q_exp", [0.5, 2.0])
def test_the_stalling_picard_reproducer_fails_alike(monkeypatch, q_exp):
    # ROADMAP direction 1: a cell just above VACUUM_RHO gets a hot spot that
    # sets the stop test's scale for every cell, and step 7 stalls
    grid = Grid(128)
    x = grid.cell_centers
    rho = 1.0 + 0.5 * np.sin(3 * np.pi * x) ** 2
    rho[np.abs(x - 0.5) < 0.2] = 0.0
    b = np.zeros((128, 2))
    b[:, 0] = 0.6 * np.sin(np.pi * x) ** 2
    init = InitialData(rho, 0.4 * np.sin(2 * np.pi * x), np.zeros((128, 2)), b,
                       1.0 + 2.0 * np.exp(-100.0 * (x - 0.4) ** 2))
    outcome = alike_on_both_paths(monkeypatch, run, init, 0.1, grid, PhysParams(q_exp=q_exp))
    assert outcome[0] is PicardError
    assert outcome[1].startswith("step 7 at t = 0.015503799: conduction iteration did not"
                                 " converge within 50 passes")


def stepped_states(q_exp, steps, n=128):
    grid = Grid(n)
    params, cfg = PhysParams(q_exp=q_exp), SchemeConfig()
    state = seeded(scenario("magnetic-pulse", grid).to_state(), seed=3)
    states = [state]
    for _ in range(steps):
        state, _ = step(state, stable_dt(state, grid, params, cfg), grid, params, cfg)
        states.append(state)
    return states


def test_step_states_are_read_only_and_share_no_memory():
    states = stepped_states(2.0, 12)
    first = states[1]
    kept = [getattr(first, f).tobytes() for f in FIELDS]
    for state, later in zip(states[1:], states[2:]):
        arrays = [getattr(state, f) for f in FIELDS]
        for i, arr in enumerate(arrays):
            assert not arr.flags.writeable
            for other in arrays[i + 1:] + [getattr(later, f) for f in FIELDS]:
                assert not np.shares_memory(arr, other)
    # a State's arrays live in its own 6n block and n array, not in the
    # kernel's scratch
    for arr in (getattr(first, f) for f in FIELDS):
        assert (arr if arr.base is None else arr.base).size <= 6 * first.n_cells
    # ten and more steps later the first stepped state still holds its bytes
    assert [getattr(first, f).tobytes() for f in FIELDS] == kept


def count_calls(monkeypatch):
    """Count calls of model.kappa (under every name solver and model use)
    and of State.__post_init__."""
    calls = {"kappa": 0, "post_init": 0}
    real_kappa, real_post_init = model.kappa, State.__post_init__

    def counted_kappa(*args):
        calls["kappa"] += 1
        return real_kappa(*args)

    def counted_post_init(self):
        calls["post_init"] += 1
        return real_post_init(self)

    for module in (model, solver):
        monkeypatch.setattr(module, "kappa", counted_kappa)
    monkeypatch.setattr(State, "__post_init__", counted_post_init)
    return calls


@pytest.mark.parametrize("q_exp", [1.5, 2.0])
def test_a_compiled_step_leaves_kappa_and_the_state_checks_out(monkeypatch, q_exp):
    grid, params, cfg = Grid(128), PhysParams(q_exp=q_exp), SchemeConfig()
    state = seeded(scenario("magnetic-pulse", grid).to_state(), seed=5)
    dt = stable_dt(state, grid, params, cfg)
    calls = count_calls(monkeypatch)
    new_state, report = step(state, dt, grid, params, cfg)
    assert calls["post_init"] == 0
    assert calls["kappa"] == (0 if q_exp == 2.0 else report.picard_iters)
    assert report.picard_iters >= 2
    # the numpy step keeps the public, checking constructor
    monkeypatch.setattr(operators, "_KERNEL", None)
    calls.update(kappa=0, post_init=0)
    reference, _ = step(state, dt, grid, params, cfg)
    assert calls == {"kappa": report.picard_iters, "post_init": 1}
    assert all(getattr(new_state, f).tobytes() == getattr(reference, f).tobytes()
               for f in FIELDS)


# --- the lean step: whole runs, the check after conduction, threads -------


@pytest.mark.parametrize("form", ["float32", "scalar", "row"])
def test_a_forcing_term_of_any_form_steps_as_its_float64_array(monkeypatch, form):
    # a term of another dtype or shape goes to step_explicit as a float64
    # copy broadcast to the step's shape, with the numpy step's bits
    n, dt = 16, 1e-3
    grid, params = Grid(n), PhysParams()
    state = seeded(scenario("magnetic-pulse", grid).to_state(), seed=3)
    values = {"rho": 0.5, "u": -0.25, "w": 0.125, "b": 0.75, "e": 2.0}

    def shaped(name, x):
        value = values[name] * (1.0 + x)
        return value if name in ("rho", "u", "e") else np.stack((value, -value), axis=-1)

    def term(name):
        def f(x, t):
            arr = shaped(name, x)
            if form == "float32":
                arr = arr.astype(np.float32)
            elif form == "scalar":
                arr = values[name]
            elif form == "row":  # (2,) broadcast over the cells of w and b
                arr = arr[0] if arr.ndim == 2 else arr
            return arr
        return f

    forcing = Forcing(**{name: term(name) for name in values})
    new_state = assert_paths_agree(monkeypatch, state, dt, grid, params, SchemeConfig(), forcing)
    assert new_state is not None


def test_a_fitting_forcing_term_goes_to_the_kernel_as_it_is():
    term = np.arange(32.0).reshape(16, 2)
    assert solver._as_kernel_term(term, (16, 2)) is term
    frozen = term.copy()
    frozen.setflags(write=False)
    for other in (frozen, term[::-1], term.astype(np.float32), np.asfortranarray(term)):
        copied = solver._as_kernel_term(other, (16, 2))
        assert copied is not other and copied.dtype == np.float64
        assert copied.flags.c_contiguous and copied.flags.writeable
        assert np.array_equal(copied, other)


def test_a_forcing_term_that_does_not_fit_fails_as_broadcast_to():
    n = 16
    grid = Grid(n)
    state = scenario("magnetic-pulse", grid).to_state()
    forcing = Forcing(w=lambda x, t: np.zeros((n, 3)))
    with pytest.raises(ValueError) as raised:
        step(state, 1e-3, grid, PhysParams(), SchemeConfig(), forcing)
    with pytest.raises(ValueError) as direct:
        np.broadcast_to(np.zeros((n, 3)), (n, 2))
    assert str(raised.value) == str(direct.value)


def field_bytes(state):
    return state.time, tuple(getattr(state, f).tobytes() for f in FIELDS)


def run_record(init, grid, params, steps, **kwargs):
    """A run of about `steps` steps: every State it makes, as bytes, with
    its StepReport, then every snapshot and diagnostics row it delivers."""
    made, snapshots, records = [], [], []
    t_end = steps * stable_dt(init.to_state(), grid, params, SchemeConfig())
    run(init, t_end, grid, params, sink=records.append,
        on_step=lambda before, after, report: made.append((field_bytes(after), report)),
        snapshot_sink=lambda state: snapshots.append(field_bytes(state)), **kwargs)
    rows = [np.array(csv_values(record)).tobytes() for record in records]
    return made, snapshots, rows


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q_exp", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("n", [32, 128, 2048])
def test_runs_make_the_same_states_and_reports_on_both_paths(each_path, n, q_exp, forced):
    # every step after the first reads its input where the step before
    # wrote it; MMS forcing goes in as five more arrays
    grid, params = Grid(n), coefficients(q_exp)
    if forced:
        mms = MMS_CASES["smooth-wave"]
        init, forcing = mms.initial_data(grid), mms.forcing(params)
    else:
        state = seeded(scenario("magnetic-pulse", grid).to_state(), seed=n)
        init = InitialData(state.rho, state.u, state.w, state.b, state.theta)
        forcing = None
    steps = 3 if n > 128 else 6
    compiled, reference = [run_record(init, grid, params, steps, forcing=forcing)
                           for _ in each_path()]
    assert len(compiled[0]) >= steps
    assert compiled == reference


def test_a_run_with_snapshots_is_alike_on_both_paths(each_path):
    grid, params = Grid(128), coefficients(2.0)
    init = scenario("vacuum-pocket", grid)
    dt = stable_dt(init.to_state(), grid, params, SchemeConfig())
    times = (0.0, 2.5 * dt, 7.5 * dt)
    compiled, reference = [run_record(init, grid, params, 10, snapshot_times=times,
                                      record_every=3) for _ in each_path()]
    assert len(compiled[1]) == 3
    assert compiled == reference


def spike(rho, amp, kappa_a, q_exp):
    """Cold gas at rest on 16 cells with one hot cell, and coefficients
    whose conduction grades the faces so steeply that the solve rounds
    some cell below zero."""
    n = len(rho)
    theta = np.zeros(n)
    theta[2] = amp
    state = State(0.0, np.asarray(rho), np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2)), theta)
    return state, Grid(n), PhysParams(kappa_a=kappa_a, kappa_b=1e-300, q_exp=q_exp)


GRADED_RHO = [2e-06, 0.001, 7e-11, 0.1, 7e-06, 4e-05, 2e-06, 0.6, 0.002, 6e-06, 0.6, 0.3,
              9e-09, 0.1, 3e-06, 0.9]


@pytest.mark.parametrize("q_exp", [1.5, 2.0])
def test_a_conduction_undershoot_within_the_roundoff_band_is_clipped_alike(monkeypatch,
                                                                           q_exp):
    # conduction leaves about -7e-15, inside 64 eps max(1, max rho); the
    # compiled step learns it from the kernel's report, the numpy step from
    # its own scan, and both clip to +0.0
    state, grid, params = spike(GRADED_RHO, 1e-3, 3e7, q_exp)
    lowest = []
    real = solver.conduction_update

    def seen(*args):
        theta, passes = real(*args)
        lowest.append(float(theta.min()))
        return theta, passes

    monkeypatch.setattr(solver, "conduction_update", seen)
    new_state = assert_paths_agree(monkeypatch, state, 0.9, grid, params, SchemeConfig())
    assert len(lowest) == 2 and lowest[0] == lowest[1] and -1e-14 < lowest[0] < 0.0
    assert new_state.theta.min() == 0.0 and not np.signbit(new_state.theta).any()


@pytest.mark.parametrize("q_exp", [1.5, 2.0])
def test_a_conduction_undershoot_beyond_the_band_fails_alike(monkeypatch, q_exp):
    state, grid, params = spike(np.full(16, 1e-8), 1e-2, 1e8, q_exp)
    (kind, text), _ = outcome(state, 1.0, grid, params, SchemeConfig())
    assert kind is PositivityError
    assert text.startswith("temperature (post conduction) reached -")
    assert text.endswith("beyond the allowed undershoot 1.42e-14; the step size is too large"
                         " for this data")
    assert assert_paths_agree(monkeypatch, state, 1.0, grid, params, SchemeConfig()) is None


def test_the_kernel_reports_the_lowest_temperature_it_returns(monkeypatch):
    # min(0, theta) of the theta conduction_solve wrote, with numpy's bits,
    # in the workspace that step reads it from: for the convected
    # temperature that undershoots above, and for a warm one
    state, grid, params = spike(GRADED_RHO, 1e-3, 3e7, 2.0)
    cfg, handed = SchemeConfig(), []
    real = solver.conduction_update

    def seen(theta_tilde, rho, *rest):
        handed.append((theta_tilde.copy(), rho.copy()))
        return real(theta_tilde, rho, *rest)

    monkeypatch.setattr(solver, "conduction_update", seen)
    step(state, 0.9, grid, params, cfg)
    theta_tilde, rho = handed[0]
    lows = []
    for theta_tilde in (theta_tilde, np.linspace(0.5, 2.0, 16)):
        workspace = solver._fresh_workspace(grid, params, cfg)
        ws, theta = workspace[1], workspace[2]
        ws[solver._PASSES] = 0.0
        ws[solver._REPORT:solver._REPORT + 32] = np.concatenate((theta_tilde, rho))
        out, code, _, _, _ = solver._compiled_solve(theta_tilde, rho, 0.9, grid, params, cfg,
                                                    workspace)
        assert code == 0 and out is theta
        lows.append(ws[solver._LOWEST])
        assert lows[-1].tobytes() == np.float64(min(0.0, theta.min())).tobytes()
    assert lows[0] < 0.0 == lows[1]


def test_a_non_finite_temperature_after_conduction_fails_alike(monkeypatch):
    real = solver.conduction_update

    def spoiled(*args):
        theta, passes = real(*args)
        theta = theta.copy()
        theta[5] = np.nan
        return theta, passes

    monkeypatch.setattr(solver, "conduction_update", spoiled)
    grid = Grid(32)
    state = scenario("magnetic-pulse", grid).to_state()
    (kind, text), _ = outcome(state, 1e-3, grid, PhysParams(), SchemeConfig())
    assert (kind, text) == (NumericalError, "stage 5 (conduction) produced a non-finite"
                                            " temperature (post conduction)")
    assert_paths_agree(monkeypatch, state, 1e-3, grid, PhysParams(), SchemeConfig())


def test_two_threads_stepping_at_once_give_the_bits_of_one_after_the_other():
    # the kernel calls release the GIL, so both threads are in C at once;
    # each step has its own workspace, into which it copies its input
    cases = [(scenario("magnetic-pulse", Grid(128)), Grid(128), PhysParams()),
             (scenario("smooth-shear", Grid(96)), Grid(96), coefficients(1.5))]
    alone = [run_record(init, grid, params, 40) for init, grid, params in cases]
    together = [None, None]

    def work(i):
        together[i] = run_record(*cases[i], 40)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone


def test_a_workspace_of_the_wrong_size_is_refused_before_the_kernel_runs():
    grid, params, cfg = Grid(16), PhysParams(), SchemeConfig()
    small = solver._fresh_workspace(Grid(8), params, cfg)
    with pytest.raises(ValueError, match=r"a workspace of 16 cells needs 25n \+ 14 and n values"):
        conduction_update(np.linspace(0.5, 2.0, 16), np.ones(16), 1e-3, grid, params, cfg, small)


def numpy_speed(state, params):
    """max_i(|u_i| + sqrt(gas_R theta_i)) of state by numpy."""
    return float((np.abs(state.u) + np.sqrt(params.gas_R * state.theta)).max())


def fresh(state):
    """A copy of state that carries nothing kept."""
    return State(state.time, state.rho, state.u, state.w, state.b, state.theta)


@pytest.mark.parametrize("n", [5, 128, 2048])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_compiled_step_keeps_the_wave_speed_with_the_numpy_bits(name, n):
    # the State of a compiled step keeps the wave speed conduction_solve
    # reports, for the params it was stepped under, and stable_dt reads it
    # (seeded noise stalls vacuum-pocket's Picard loop at n >= 128, so the
    # library data itself steps too)
    grid, cfg = Grid(n), SchemeConfig()
    other = PhysParams(gas_R=2.3)
    library = scenario(name, grid).to_state()
    steps = 0
    for params in (PhysParams(), coefficients(1.5), coefficients(2.0)):
        for state in (library, seeded(library, seed=n)):
            for _ in range(3):
                try:
                    state, _ = step(state, stable_dt(state, grid, params, cfg), grid, params,
                                    cfg)
                except solver.SimulationError:
                    break
                steps += 1
                kept_params, speed = state.__dict__["_speed"]
                assert kept_params is params
                assert speed.hex() == numpy_speed(state, params).hex()
                for under in (params, other, PhysParams(**vars(params))):
                    assert (stable_dt(state, grid, under, cfg).hex()
                            == stable_dt(fresh(state), grid, under, cfg).hex())
    assert steps >= 9


@pytest.mark.parametrize("q_exp", [1.5, 2.0])
def test_a_clipped_temperature_keeps_no_wave_speed(q_exp):
    # the kernel's report is of the theta before the clip, so stable_dt
    # computes on the clipped one
    state, grid, params = spike(GRADED_RHO, 1e-3, 3e7, q_exp)
    cfg = SchemeConfig()
    new_state, _ = step(state, 0.9, grid, params, cfg)
    assert "_speed" not in new_state.__dict__
    assert (stable_dt(new_state, grid, params, cfg).hex()
            == stable_dt(fresh(new_state), grid, params, cfg).hex())


def test_only_the_step_hands_conduction_solve_a_velocity(monkeypatch):
    # a direct conduction_update call, with no workspace, passes no u and
    # the report keeps no wave speed
    grid, params, cfg = Grid(16), PhysParams(), SchemeConfig()
    handed = []
    real = operators._KERNEL.conduction_solve

    def seen(*args):
        handed.append(args[3])
        return real(*args)

    monkeypatch.setattr(operators._KERNEL, "conduction_solve", seen)
    conduction_update(np.linspace(0.5, 2.0, 16), np.ones(16), 1e-3, grid, params, cfg)
    state = seeded(scenario("magnetic-pulse", grid).to_state(), seed=5)
    step(state, 1e-3, grid, params, cfg)
    assert handed[0] is None and isinstance(handed[1], int)
