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

import numpy as np
import pytest

import planar_mhd.model as model
import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.initial import SCENARIOS, InitialData, scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import (Forcing, NumericalError, PicardError, SchemeConfig,
                               conduction_update, run, stable_dt, step)
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
    # ROADMAP direction 6: a cell just above VACUUM_RHO gets a hot spot that
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
