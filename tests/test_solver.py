"""Time stepper: stability bound, splitting stages, invariants, error paths."""

import re

import numpy as np
import pytest

import planar_mhd.cli as cli
import planar_mhd.diagnostics as diagnostics
import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import (
    Forcing,
    NumericalError,
    PicardError,
    PositivityError,
    SchemeConfig,
    SimulationError,
    advect_density,
    conduction_update,
    consistency_residuals,
    run,
    stable_dt,
    step,
)
from planar_mhd.verification import continuation_study, mms_convergence


def uniform_state(n, rho=1.0, u=0.0, theta=1.0):
    return State(0.0, np.full(n, rho), np.full(n, u), np.zeros((n, 2)),
                 np.zeros((n, 2)), np.full(n, theta))


def wavy_state(n):
    """Deliberately asymmetric data with every field active."""
    x = Grid.uniform(n).cell_centers
    rho = 1.0 + 0.3 * np.exp(-100.0 * (x - 0.35) ** 2)
    u = 0.2 * np.sin(2.0 * np.pi * x) * (1.0 + 0.3 * np.cos(np.pi * x))
    w = np.column_stack([0.1 * np.sin(np.pi * x) ** 2,
                         -0.15 * np.sin(2.0 * np.pi * x) ** 2])
    b = np.column_stack([0.2 * np.sin(np.pi * x) ** 2,
                         0.1 * np.sin(2.0 * np.pi * x) ** 2])
    theta = 1.0 + 0.2 * np.cos(np.pi * x)
    return State(0.0, rho, u, w, b, theta)


def test_stable_dt_reference_values():
    # at rest with theta = 1 the signal speed is exactly the unit sound speed
    s = uniform_state(100)
    cfg = SchemeConfig(cfl=0.5, dt_max=1.0)
    assert stable_dt(s, Grid.uniform(100), PhysParams(), cfg) == 0.005

    # cold resting gas: the bound degenerates to min(dt_max, cfl*dx)
    cold = State(0.0, np.ones(10), np.zeros(10), np.zeros((10, 2)),
                 np.zeros((10, 2)), np.zeros(10))
    grid10 = Grid.uniform(10)
    assert stable_dt(cold, grid10, PhysParams(), SchemeConfig(cfl=0.5, dt_max=1.0)) == 0.05
    assert stable_dt(cold, grid10, PhysParams(), SchemeConfig(cfl=0.5, dt_max=1e-4)) == 1e-4

    # fastest signal 4 (theta = 16 at rest), n = 64, cfl = 0.8
    hot = uniform_state(64, theta=16.0)
    cfg = SchemeConfig(cfl=0.8, dt_max=1.0)
    assert stable_dt(hot, Grid.uniform(64), PhysParams(), cfg) == 0.8 / (64.0 * 4.0)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(dt_max=-0.1)
    with pytest.raises(ValueError):
        SchemeConfig(picard_max_iters=0)


def test_equilibrium_is_a_fixed_point_bitwise():
    grid = Grid.uniform(32)
    params = PhysParams()
    cfg = SchemeConfig()
    state = uniform_state(32)
    for _ in range(50):
        new, report = step(state, 0.01, grid, params, cfg)
        assert np.array_equal(new.rho, state.rho)
        assert np.array_equal(new.u, state.u)
        assert np.array_equal(new.w, state.w)
        assert np.array_equal(new.b, state.b)
        assert np.array_equal(new.theta, state.theta)
        assert report.clipped_cells == 0
        state = new
    assert state.time == pytest.approx(0.5, abs=1e-12)


FORCING_SHAPES = {"rho": (), "u": (), "w": (2,), "b": (2,), "e": ()}


def recording_forcing(names, calls):
    """A Forcing whose named entries log (x, t) and return zeros."""
    def entry(name):
        def f(x, t):
            calls.append((name, x, t))
            return np.zeros(x.shape + FORCING_SHAPES[name])
        return f
    return Forcing(**{name: entry(name) for name in names})


@pytest.mark.parametrize("names", [[name] for name in FORCING_SHAPES] + [list(FORCING_SHAPES)],
                         ids=[*FORCING_SHAPES, "all"])
def test_each_forcing_entry_is_called_once_per_step_at_the_new_time(names, each_path):
    grid = Grid.uniform(24)
    state = State(0.3, *(getattr(wavy_state(24), f) for f in ("rho", "u", "w", "b", "theta")))

    def forced_step(dt):
        calls = []
        try:
            return step(state, dt, grid, PhysParams(), SchemeConfig(),
                        recording_forcing(names, calls))[0]
        finally:
            assert sorted(name for name, _, _ in calls) == sorted(names)
            for _, x, t in calls:
                assert np.array_equal(x, grid.cell_centers)
                assert t == state.time + dt

    for _ in each_path():
        forced = forced_step(1e-3)
        # dt = 1 fails at stage 1, before the other stages run, and still
        # calls each entry exactly once
        with pytest.raises(PositivityError, match="density"):
            forced_step(1.0)
        plain, _ = step(state, 1e-3, grid, PhysParams(), SchemeConfig())
        for f in ("rho", "u", "w", "b", "theta"):
            assert np.array_equal(getattr(forced, f), getattr(plain, f))


def test_advection_matches_upwind_oracle():
    n = 64
    grid = Grid.uniform(n)
    rho = np.where(grid.cell_centers < 0.4, 2.0, 0.5)
    u = np.ones(n)
    dt = 0.3 * grid.dx

    out = advect_density(rho, u, dt, grid)

    # independent first-order upwind sweep with averaged face velocities
    # and impermeable walls
    uf = np.zeros(n + 1)
    for j in range(1, n):
        uf[j] = 0.5 * (u[j - 1] + u[j])
    flux = np.zeros(n + 1)
    for j in range(1, n):
        flux[j] = uf[j] * (rho[j - 1] if uf[j] >= 0.0 else rho[j])
    expected = rho - dt / grid.dx * (flux[1:] - flux[:-1])

    assert np.allclose(out, expected, rtol=0.0, atol=1e-15)
    assert np.sum(out) * grid.dx == pytest.approx(np.sum(rho) * grid.dx, abs=1e-14)


def test_small_magnetic_bump_follows_backward_euler_heat_flow():
    # with u = w = 0 and a weak bump the induction stage decouples from the
    # rest of the step up to O(dt^2 * |b|); rho must not move at all
    n = 64
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig()
    amp = 1e-3
    b = np.zeros((n, 2))
    b[:, 0] = amp * np.sin(np.pi * grid.cell_centers) ** 2
    state = State(0.0, np.ones(n), np.zeros(n), np.zeros((n, 2)), b, np.ones(n))

    dt = stable_dt(state, grid, params, cfg)
    new, _ = step(state, dt, grid, params, cfg)

    assert np.array_equal(new.rho, state.rho)

    # dense backward-Euler solve of b_t = nu b_xx with the wall-anchored
    # odd-reflection stencil
    h = 1.0 / (grid.dx * grid.dx)
    a = np.zeros((n, n))
    for i in range(n):
        left = 2.0 * h if i == 0 else h
        right = 2.0 * h if i == n - 1 else h
        a[i, i] = 1.0 / dt + params.nu_mag * (left + right)
        if i > 0:
            a[i, i - 1] = -params.nu_mag * h
        if i < n - 1:
            a[i, i + 1] = -params.nu_mag * h
    oracle = np.linalg.solve(a, b[:, 0] / dt)

    # the transverse stage feeds back at O(dt^2 |b|), about 1% of the
    # diffusive update here; everything tighter is the implicit solve itself
    assert np.max(np.abs(new.b[:, 0] - oracle)) < 20.0 * dt**2 * amp
    assert np.max(np.abs(new.u)) < 10.0 * dt * amp**2
    assert np.max(np.abs(new.theta - 1.0)) < 100.0 * dt * amp**2


@pytest.mark.parametrize("name", ["gaussian-density", "vacuum-pocket"])
def test_mass_is_conserved_to_roundoff(name):
    grid = Grid.uniform(96)
    params = PhysParams()
    cfg = SchemeConfig()
    state = scenario(name, grid).to_state()
    mass0 = float(np.sum(state.rho)) * grid.dx
    for _ in range(25):
        dt = stable_dt(state, grid, params, cfg)
        state, _ = step(state, dt, grid, params, cfg)
    mass1 = float(np.sum(state.rho)) * grid.dx
    assert abs(mass1 - mass0) <= 1e-13


def raises_alike(each_path, error, match, fn, *args, **kwargs):
    """fn(*args, **kwargs) raises error, matching match, on every solver
    path, and with the same text on each."""
    texts = set()
    for _ in each_path():
        with pytest.raises(error, match=match) as info:
            fn(*args, **kwargs)
        texts.add(str(info.value))
    assert len(texts) == 1, texts


def test_density_positivity_failure_is_caught(each_path):
    n = 32
    state = uniform_state(n, u=-5.0)
    grid = Grid.uniform(n)
    raises_alike(each_path, PositivityError, "density",
                 step, state, 0.01, grid, PhysParams(), SchemeConfig())


def test_temperature_positivity_failure_is_caught(each_path):
    n = 16
    state = uniform_state(n)
    grid = Grid.uniform(n)
    drain = Forcing(e=lambda x, t: np.full(x.shape, -2000.0))
    raises_alike(each_path, PositivityError, "temperature",
                 step, state, 0.01, grid, PhysParams(), SchemeConfig(), forcing=drain)


def test_temperature_undershoot_within_floor_is_clipped():
    n = 16
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig(theta_floor_tol=1e-6)
    dt = 0.01
    # drive theta_tilde to exactly -5e-7, inside the clipping band
    target = -5e-7
    rate = (target - 1.0) * params.c_v / dt
    drain = Forcing(e=lambda x, t: np.full(x.shape, rate))
    new, report = step(uniform_state(n), dt, grid, params, cfg, forcing=drain)
    assert report.clipped_cells == n
    assert new.theta.min() == 0.0


def test_step_mirror_symmetry():
    n = 64
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig()
    state = wavy_state(n)

    def mirror(s):
        return State(s.time, s.rho[::-1], -s.u[::-1], s.w[::-1],
                     -s.b[::-1], s.theta[::-1])

    dt = 0.5 * stable_dt(state, grid, params, cfg)
    a, _ = step(state, dt, grid, params, cfg)
    bb, _ = step(mirror(state), dt, grid, params, cfg)
    m = mirror(a)
    assert np.max(np.abs(bb.rho - m.rho)) < 1e-9
    assert np.max(np.abs(bb.u - m.u)) < 1e-9
    assert np.max(np.abs(bb.w - m.w)) < 1e-9
    assert np.max(np.abs(bb.b - m.b)) < 1e-9
    assert np.max(np.abs(bb.theta - m.theta)) < 1e-9


def test_transverse_component_swap_commutes_exactly():
    n = 48
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig()
    state = wavy_state(n)
    swapped = State(state.time, state.rho, state.u, state.w[:, ::-1],
                    state.b[:, ::-1], state.theta)

    dt = 0.5 * stable_dt(state, grid, params, cfg)
    a, _ = step(state, dt, grid, params, cfg)
    c, _ = step(swapped, dt, grid, params, cfg)
    assert np.array_equal(c.w, a.w[:, ::-1])
    assert np.array_equal(c.b, a.b[:, ::-1])
    assert np.array_equal(c.rho, a.rho)
    assert np.array_equal(c.theta, a.theta)


def test_conduction_respects_max_principle():
    rng = np.random.default_rng(23)
    grid = Grid.uniform(40)
    params = PhysParams()
    cfg = SchemeConfig()
    for _ in range(5):
        theta_tilde = rng.uniform(0.5, 2.0, size=40)
        rho = rng.uniform(0.5, 2.0, size=40)
        theta_new, iters = conduction_update(theta_tilde, rho, 0.01, grid, params, cfg)
        assert theta_new.min() >= theta_tilde.min() - 1e-12
        assert theta_new.max() <= theta_tilde.max() + 1e-12
        assert 1 <= iters <= cfg.picard_max_iters


def test_conduction_carries_temperature_through_vacuum():
    # empty cells have no heat capacity; their tilde temperature must pass
    # through the solve unchanged rather than feed the gas
    n = 24
    grid = Grid.uniform(n)
    rho = np.ones(n)
    rho[8:16] = 0.0
    theta_tilde = np.linspace(0.8, 1.2, n)
    theta_new, _ = conduction_update(theta_tilde, rho, 0.01, grid,
                                     PhysParams(), SchemeConfig())
    assert np.array_equal(theta_new[8:16], theta_tilde[8:16])


def test_conduction_fails_fast_on_a_non_finite_temperature(monkeypatch, each_path):
    # kappa(1e60) = 1 + 1e360 overflows, so the first solve is all NaN; the
    # Picard loop must stop there, not after picard_max_iters passes.  A
    # pass is one _implicit call on the numpy path and, at q_exp = 6, one
    # conduction_solve call of the kernel on the compiled path; both are
    # counted.
    n = 16
    theta_tilde = np.ones(n)
    theta_tilde[7] = 1e60
    passes = []

    def counting(real):
        def counted(*args):
            passes.append(1)
            return real(*args)
        return counted

    monkeypatch.setattr(solver, "_implicit", counting(solver._implicit))
    if operators._KERNEL is not None:
        monkeypatch.setattr(operators._KERNEL, "conduction_solve",
                            counting(operators._KERNEL.conduction_solve))
    for _ in each_path():
        passes.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="conduction pass 1 produced a non-finite"):
                conduction_update(theta_tilde, np.ones(n), 1e-3, Grid.uniform(n),
                                  PhysParams(q_exp=6.0), SchemeConfig())
        assert len(passes) == 1
    assert issubclass(NumericalError, SimulationError)  # still exit code 4 in the CLI


def test_consistency_residuals_vanish_at_equilibrium():
    grid = Grid.uniform(32)
    s = uniform_state(32)
    r_mom, r_mag = consistency_residuals(s, s, 0.01, grid, PhysParams())
    assert r_mom == 0.0
    assert r_mag == 0.0


def test_consistency_residuals_shrink_with_resolution():
    params = PhysParams()
    cfg = SchemeConfig()

    def residuals(n, dt):
        grid = Grid.uniform(n)
        state = scenario("magnetic-pulse", grid).to_state()
        new, _ = step(state, dt, grid, params, cfg)
        return consistency_residuals(state, new, dt, grid, params)

    r_coarse = residuals(64, 2e-3)
    r_fine = residuals(256, 5e-4)
    # first order in dt + dx predicts a factor 1/4 here; the momentum
    # residual is still preasymptotic so allow slack above that
    assert r_fine[0] < 0.55 * r_coarse[0]
    assert r_fine[1] < 0.35 * r_coarse[1]
    for (n, dt), r in ((64, 2e-3), r_coarse), ((256, 5e-4), r_fine):
        assert max(r) <= 60.0 * (dt + 1.0 / n)


def test_run_zero_horizon_records_initial_state():
    grid = Grid.uniform(16)
    rows = []
    final = run(scenario("uniform-rest", grid), 0.0, grid, PhysParams(),
                sink=rows.append)
    assert len(rows) == 1
    assert final.time == 0.0
    assert np.array_equal(final.rho, np.ones(16))


@pytest.mark.parametrize("record_every, message", [
    (0, "record_every must be at least 1, got 0"),
    (-1, "record_every must be at least 1, got -1"),
    (2.5, "record_every must be an integer, got 2.5"),
])
def test_run_rejects_a_bad_record_every_before_any_step(monkeypatch, record_every, message):
    grid = Grid.uniform(16)
    steps, rows = [], []
    monkeypatch.setattr(solver, "step", lambda *args, **kwargs: steps.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(scenario("magnetic-pulse", grid), 0.05, grid, PhysParams(), sink=rows.append,
            record_every=record_every)
    assert steps == [] and rows == []


def run_with(name, value):
    """magnetic-pulse run briefly with the whole-number setting name at value."""
    grid = Grid(value if name == "n_cells" else 16)
    cfg = SchemeConfig(picard_max_iters=value) if name == "picard_max_iters" else None
    return run(scenario("magnetic-pulse", grid), 0.01, grid, PhysParams(), cfg,
               sink=lambda *records: None,
               record_every=value if name == "record_every" else 1)


@pytest.mark.parametrize("name, minimum, good", [
    ("n_cells", 4, 16), ("record_every", 1, 3), ("picard_max_iters", 1, 50)])
def test_whole_number_settings_share_one_rule(each_path, name, minimum, good):
    # a numbers.Integral, at least its minimum, checked before either path
    # runs: the kernel's pass count and numpy's range would treat a
    # fraction differently, and a grid of 4.5 cells has no whole centres
    for value, rule in ((minimum + 1.5, "an integer"), (float(good), "an integer"),
                        (minimum - 1, f"at least {minimum}")):
        raises_alike(each_path, ValueError, f"^{name} must be {rule}, got {value!r}$",
                     run_with, name, value)
    # a numpy integer is one, and both paths give the same bits with it
    finals = {run_with(name, np.int64(good)).theta.tobytes() for _ in each_path()}
    assert len(finals) == 1


def test_run_equilibrium_is_unchanged():
    grid = Grid.uniform(24)
    final = run(scenario("uniform-rest", grid), 0.3, grid, PhysParams())
    assert np.array_equal(final.rho, np.ones(24))
    assert np.array_equal(final.theta, np.ones(24))
    assert np.array_equal(final.u, np.zeros(24))
    assert final.time == pytest.approx(0.3, abs=1e-12)


def test_run_hits_snapshot_times_exactly():
    grid = Grid.uniform(32)
    taken = []
    run(scenario("gaussian-density", grid), 0.05, grid, PhysParams(),
        snapshot_times=(0.0, 0.02, 0.05), snapshot_sink=lambda s: taken.append(s.time))
    assert len(taken) == 3
    assert taken[0] == 0.0
    assert abs(taken[1] - 0.02) < 1e-12
    assert abs(taken[2] - 0.05) < 1e-12


def test_on_step_sees_every_step_as_a_chained_state_pair(monkeypatch):
    grid = Grid.uniform(32)
    init = scenario("magnetic-pulse", grid)
    steps = []
    original_step = solver.step

    def counted_step(*args, **kwargs):
        steps.append(args[1])
        return original_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counted_step)
    calls = []
    final = run(init, 0.02, grid, PhysParams(),
                on_step=lambda before, after, report: calls.append((before, after, report)))
    assert len(calls) == len(steps) > 1
    first = calls[0][0]
    assert first.time == 0.0
    for name in ("rho", "u", "w", "b", "theta"):
        assert np.array_equal(getattr(first, name), getattr(init.to_state(), name))
    for (_, prev_after, _), (before, _, _) in zip(calls, calls[1:]):
        assert before is prev_after
    for (before, after, report), dt in zip(calls, steps):
        assert report.dt_used == dt
        assert after.time == before.time + report.dt_used
    assert calls[-1][1] is final


def test_consistency_residuals_run_only_inside_simulate(tmp_path, monkeypatch):
    calls = []
    original = solver.consistency_residuals

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    # every package module that can reach it by name
    for module in (solver, diagnostics):
        monkeypatch.setattr(module, "consistency_residuals", counted)
    grid = Grid.uniform(32)
    params = PhysParams()
    mms_convergence("smooth-wave", (16, 32), params, t_end=0.02)
    continuation_study(scenario("vacuum-pocket", grid), (1e-1, 1e-2), 0.01, grid, params)
    assert calls == []

    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.02\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    summary = dict(line.split(" = ", 1)
                   for line in (out / "run-summary.txt").read_text().splitlines())
    # a call covers a window of steps, one dt per step
    assert sum(np.size(dt) for dt in calls) == int(summary["steps"]) > 1


def test_starved_picard_iteration_raises(each_path):
    grid = Grid.uniform(64)
    cfg = SchemeConfig(picard_tol=1e-14, picard_max_iters=1)
    raises_alike(each_path, PicardError, "did not converge within 1 passes",
                 run, scenario("gaussian-density", grid), 0.05, grid, PhysParams(), cfg=cfg)


def test_step_failures_are_annotated_with_time():
    grid = Grid.uniform(16)
    drain = Forcing(e=lambda x, t: np.full(x.shape, -2000.0))
    with pytest.raises(SimulationError, match="step 0 at t"):
        run(scenario("uniform-rest", grid), 0.05, grid, PhysParams(), forcing=drain)


@pytest.mark.parametrize("name, value, stage, field", [
    ("rho", np.nan, "stage 1 (continuity)", "density"),
    ("u", np.nan, "stage 2 (longitudinal momentum)", "u"),
    ("w", np.inf, "stage 3 (transverse momentum)", "w"),
    ("b", np.nan, "stage 4 (induction)", "b"),
    ("e", np.nan, "stage 5 (internal energy)", "temperature"),
    ("e", np.inf, "stage 5 (internal energy)", "temperature"),
])
def test_a_non_finite_value_is_caught_at_the_stage_that_made_it(name, value, stage, field,
                                                                each_path):
    grid = Grid.uniform(16)
    shape = FORCING_SHAPES[name]
    bad = Forcing(**{name: lambda x, t: np.full(x.shape + shape, value)})
    with np.errstate(invalid="ignore", over="ignore"):
        raises_alike(each_path, NumericalError,
                     rf"step 0 at t = 0: {re.escape(stage)} produced a non-finite {field}$",
                     run, scenario("magnetic-pulse", grid), 0.01, grid, PhysParams(),
                     forcing=bad)


def test_an_infinite_density_is_caught_at_stage_1(each_path):
    # +inf passes a check that looks only at the minimum; it must be named
    # at stage 1, not as the non-finite u that stage 2 makes of it
    n = 16
    grid = Grid.uniform(n)
    flood = Forcing(rho=lambda x, t: np.full(x.size, np.inf))
    with np.errstate(invalid="ignore", over="ignore"):
        raises_alike(each_path, NumericalError,
                     r"^stage 1 \(continuity\) produced a non-finite density$",
                     step, uniform_state(n), 1e-3, grid, PhysParams(), SchemeConfig(), flood)


def coarsen(field):
    if field.ndim == 2:
        return 0.5 * (field[0::2] + field[1::2])
    return 0.5 * (field[0::2] + field[1::2])


def state_distance(coarse, fine):
    """L2 distance after averaging the fine solution onto the coarse grid."""
    n = coarse.rho.shape[0]
    dx = 1.0 / n
    total = 0.0
    for fc, ff in ((coarse.rho, fine.rho), (coarse.u, fine.u),
                   (coarse.b, fine.b), (coarse.theta, fine.theta)):
        diff = fc - coarsen(ff)
        total += float(np.sum(diff * diff) * dx)
    return np.sqrt(total)


def test_magnetic_pulse_self_convergence_is_first_order():
    params = PhysParams()
    cfg = SchemeConfig()
    finals = {}
    for n in (64, 128, 256):
        grid = Grid.uniform(n)
        finals[n] = run(scenario("magnetic-pulse", grid), 0.05, grid, params, cfg=cfg)
    d_coarse = state_distance(finals[64], finals[128])
    d_fine = state_distance(finals[128], finals[256])
    ratio = d_coarse / d_fine
    assert 1.4 <= ratio <= 3.0, f"self-convergence ratio {ratio}"
