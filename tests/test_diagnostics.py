"""Diagnostics: integrals, dissipation ledgers, companion potential, norms."""

import numpy as np
import pytest

from planar_mhd.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsAccumulator,
    NORM_NAMES,
    SCALAR_COLUMNS,
    check_alpha,
    csv_header,
    csv_values,
    default_alpha,
    density_bound_monitor,
    dissipation_ledger,
    entropy_functional,
    initial_phi,
    norm_suite,
    phi_momentum_residual,
    total_energy,
    total_mass,
)
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import SchemeConfig, run, stable_dt, step
from planar_mhd.tables import format_rows


def flat_state(n, rho=1.0, theta=1.0, time=0.0):
    return State(time, np.full(n, rho), np.zeros(n), np.zeros((n, 2)),
                 np.zeros((n, 2)), np.full(n, theta))


def test_total_energy_reference_values():
    n = 10
    grid = Grid.uniform(n)
    params = PhysParams()
    b = np.zeros((n, 2))
    b[:, 0] = 1.0
    s = State(0.0, np.ones(n), np.zeros(n), np.zeros((n, 2)), b, np.ones(n))
    assert total_energy(s, grid, params) == pytest.approx(1.5, abs=1e-14)

    empty = State(0.0, np.zeros(n), np.zeros(n), np.zeros((n, 2)),
                  np.zeros((n, 2)), np.zeros(n))
    assert total_energy(empty, grid, params) == 0.0
    assert total_mass(empty, grid) == 0.0


def test_gaussian_energy_matches_dense_quadrature():
    grid = Grid.uniform(128)
    state = scenario("gaussian-density", grid).to_state()
    value = total_energy(state, grid, PhysParams())

    xs = (np.arange(4096) + 0.5) / 4096
    integrand = (1.0 + 0.5 * np.exp(-200.0 * (xs - 0.5) ** 2)) \
        * (1.0 + 0.2 * np.cos(2.0 * np.pi * xs))
    dense = float(np.sum(integrand) / 4096)
    assert value == pytest.approx(dense, rel=1e-10)


def test_entropy_functional_reference_values():
    n = 8
    grid = Grid.uniform(n)
    assert entropy_functional(flat_state(n), grid) == 0.0

    e = float(np.e)
    assert entropy_functional(flat_state(n, rho=e, theta=e), grid) \
        == pytest.approx(2.0 * e, abs=1e-12)

    empty = State(0.0, np.zeros(n), np.zeros(n), np.zeros((n, 2)),
                  np.zeros((n, 2)), np.zeros(n))
    assert entropy_functional(empty, grid) == 0.0

    cold = State(0.0, np.ones(n), np.zeros(n), np.zeros((n, 2)),
                 np.zeros((n, 2)), np.zeros(n))
    assert entropy_functional(cold, grid) == float("inf")


def test_dissipation_vanishes_at_equilibrium():
    n = 16
    grid = Grid.uniform(n)
    s = flat_state(n)
    ledger = dissipation_ledger(s, 0.01, grid, PhysParams(), 0.5)
    assert ledger[:4] == (0.0, 0.0, 0.0, 0.0)
    assert ledger[5] == 0.0


def test_dissipation_of_tent_profile():
    # u = s*min(x, 1-x) has u_x = +-s everywhere, including through the
    # odd-reflection ghosts, except the two peak cells where the central
    # difference reads s/2; the integral is s^2*(1 - 1.5*dx) exactly
    n = 128
    grid = Grid.uniform(n)
    slope = 0.4
    u = slope * np.minimum(grid.cell_centers, 1.0 - grid.cell_centers)
    s = State(0.0, np.ones(n), u, np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n))
    dt = 0.02
    visc, shear, mag, heat = dissipation_ledger(s, dt, grid, PhysParams(), 0.5)[:4]
    expected = dt * slope**2 * (1.0 - 1.5 * grid.dx)
    assert visc == pytest.approx(expected, rel=1e-12)
    assert visc == pytest.approx(dt * slope**2, rel=2e-2)
    assert shear == 0.0 and mag == 0.0 and heat == 0.0


def test_transverse_energy_balance_is_first_order():
    # magnetic + shear dissipation must account for the decay of the
    # transverse energy; the defect is backward-Euler damping, O(dt + dx)
    params = PhysParams()
    cfg = SchemeConfig()

    def mismatch(n):
        grid = Grid.uniform(n)
        state = scenario("magnetic-pulse", grid).to_state()

        def transverse(s):
            per_cell = 0.5 * np.sum(s.b * s.b, axis=1) \
                + 0.5 * s.rho * np.sum(s.w * s.w, axis=1)
            return float(np.sum(per_cell) * grid.dx)

        e0 = transverse(state)
        diss = 0.0
        while state.time < 0.1 - 1e-14:
            dt = min(stable_dt(state, grid, params, cfg), 0.1 - state.time)
            new, _ = step(state, dt, grid, params, cfg)
            inc = dissipation_ledger(new, dt, grid, params, 0.5)
            diss += inc[1] + inc[2]
            state = new
        drop = e0 - transverse(state)
        assert drop > 0.0
        assert 0.7 <= diss / drop <= 1.1
        return abs(drop - diss) / drop

    coarse = mismatch(96)
    fine = mismatch(192)
    assert coarse < 0.25
    assert fine < 0.75 * coarse


def test_alpha_interval():
    params = PhysParams()  # q_exp = 2 -> admissible interval (0, 1)
    assert default_alpha(params) == 0.5
    assert check_alpha(0.7, params) == 0.7
    for bad in (0.0, 1.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            check_alpha(bad, params)

    shallow = PhysParams(q_exp=0.5)
    assert default_alpha(shallow) == 0.25
    with pytest.raises(ValueError):
        check_alpha(0.5, shallow)


def test_weighted_dissipation_reduces_at_unit_temperature():
    n = 64
    grid = Grid.uniform(n)
    params = PhysParams()
    x = grid.cell_centers
    u = 0.3 * np.sin(2.0 * np.pi * x)
    w = np.column_stack([0.2 * np.sin(np.pi * x) ** 2, np.zeros(n)])
    b = np.column_stack([np.zeros(n), 0.1 * np.sin(2.0 * np.pi * x) ** 2])
    s = State(0.0, np.ones(n), u, w, b, np.ones(n))
    dt = 0.01
    visc, shear, mag, _, weighted, _ = dissipation_ledger(s, dt, grid, params, 0.5)
    assert weighted == pytest.approx(visc + shear + mag, rel=1e-13)


def test_weighted_dissipation_heat_term_against_quadrature():
    n = 96
    grid = Grid.uniform(n)
    params = PhysParams()
    theta = 1.0 + 0.5 * np.cos(np.pi * grid.cell_centers)
    s = State(0.0, np.ones(n), np.zeros(n), np.zeros((n, 2)),
              np.zeros((n, 2)), theta)
    dt = 0.02
    alpha = 0.5
    got = dissipation_ledger(s, dt, grid, params, alpha)[4]

    # independent evaluation with the same ghost convention
    ghosted = np.concatenate([[theta[0]], theta, [theta[-1]]])
    tx = (ghosted[2:] - ghosted[:-2]) / (2.0 * grid.dx)
    integrand = (1.0 + theta**params.q_exp) * tx * tx / theta ** (1.0 + alpha)
    expected = dt * float(np.sum(integrand) * grid.dx)
    assert got == pytest.approx(expected, rel=1e-13)


def test_initial_phi_of_constant_momentum_is_linear():
    n = 64
    grid = Grid.uniform(n)
    c = 0.37
    init = scenario("uniform-rest", grid)
    data = type(init)(init.rho0, np.full(n, c), init.w0, init.b0, init.theta0)
    phi = initial_phi(data, grid)
    assert np.allclose(phi, c * grid.cell_centers, rtol=0.0, atol=1e-15)


def test_initial_phi_matches_antiderivative():
    n = 128
    grid = Grid.uniform(n)
    x = grid.cell_centers
    init = scenario("uniform-rest", grid)
    data = type(init)(init.rho0, np.sin(np.pi * x), init.w0, init.b0, init.theta0)
    phi = initial_phi(data, grid)
    exact = (1.0 - np.cos(np.pi * x)) / np.pi
    assert np.max(np.abs(phi - exact)) < 1e-4


def test_phi_at_equilibrium_tracks_pressure():
    n = 24
    grid = Grid.uniform(n)
    params = PhysParams()
    s = flat_state(n)
    acc = DiagnosticsAccumulator(scenario("uniform-rest", grid), grid, params)
    phi = acc.mark[3]
    assert phi_momentum_residual(phi, s, grid) == 0.0
    assert density_bound_monitor(phi, s) == 1.0

    t = 0.0
    for _ in range(20):
        after = flat_state(n, time=t + 0.01)
        acc.update([s], [after], [0.01])
        s = after
        t += 0.01
    # phi = -P*t with P = 1, so the density bound decays like exp(-t)
    phi = acc.mark[3]
    assert np.allclose(phi, -t, rtol=0.0, atol=1e-14)
    assert density_bound_monitor(phi, s) == pytest.approx(np.exp(-t), rel=1e-12)


def test_density_bound_monitor_overflow_sentinel():
    n = 8
    phi = np.full(n, 1000.0)
    assert density_bound_monitor(phi, flat_state(n)) == float("inf")


def test_phi_residual_shrinks_under_refinement():
    params = PhysParams()
    cfg = SchemeConfig()

    def final_residual(n):
        grid = Grid.uniform(n)
        init = scenario("magnetic-pulse", grid)
        acc = DiagnosticsAccumulator(init, grid, params)
        state = init.to_state()
        while state.time < 0.04 - 1e-14:
            dt = min(stable_dt(state, grid, params, cfg), 0.04 - state.time)
            new, _ = step(state, dt, grid, params, cfg)
            acc.hold(state, new, dt, due=False)
            state = new
        acc.flush()
        return phi_momentum_residual(acc.mark[3], state, grid)

    r = [final_residual(n) for n in (48, 96, 192)]
    assert r[0] > r[1] > r[2]
    assert 1.3 <= r[0] / r[1] <= 4.5
    assert 1.3 <= r[1] / r[2] <= 4.5


def test_norm_suite_equilibrium_values():
    n = 32
    grid = Grid.uniform(n)
    s = flat_state(n)
    norms = norm_suite(s, s, 0.01, grid, PhysParams())
    assert norms["p_l2"] == 1.0
    assert norms["rho_theta_q2"] == pytest.approx(1.0, rel=1e-14)
    for name, value in norms.items():
        if name not in ("p_l2", "rho_theta_q2"):
            assert value == 0.0, name


def test_norm_suite_sine_wave_derivatives():
    n = 256
    grid = Grid.uniform(n)
    u = np.sin(2.0 * np.pi * grid.cell_centers)
    s = State(0.0, np.ones(n), u, np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n))
    norms = norm_suite(s, s, 0.0, grid, PhysParams())
    assert norms["u_x"] == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-3)
    assert norms["u_xx"] == pytest.approx((2.0 * np.pi) ** 2 / np.sqrt(2.0), rel=1e-3)


def test_norm_suite_scales_linearly_in_velocity():
    n = 48
    grid = Grid.uniform(n)
    x = grid.cell_centers
    u = 0.2 * np.sin(2.0 * np.pi * x)
    base = State(0.0, np.ones(n), u, np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n))
    doubled = State(0.0, np.ones(n), 2.0 * u, np.zeros((n, 2)),
                    np.zeros((n, 2)), np.ones(n))
    a = norm_suite(base, base, 0.0, grid, PhysParams())
    c = norm_suite(doubled, doubled, 0.0, grid, PhysParams())
    assert c["u_x"] == 2.0 * a["u_x"]
    assert c["u_xx"] == 2.0 * a["u_xx"]


def test_norm_suite_takes_any_scalar_dt():
    # a float, a numpy scalar and a 0-d array are the same dt to a State
    # pair, and a 0-d zero is the initial record's dt == 0
    grid = Grid.uniform(64)
    params = PhysParams(q_exp=1.5)
    cfg = SchemeConfig()
    before = scenario("magnetic-pulse", grid).to_state()
    dt = stable_dt(before, grid, params, cfg)
    after, _ = step(before, dt, grid, params, cfg)

    def hexed(norms):
        assert all(type(v) is float for v in norms.values())
        return {name: value.hex() for name, value in norms.items()}

    want = hexed(norm_suite(before, after, float(dt), grid, params))
    assert hexed(norm_suite(before, after, np.float64(dt), grid, params)) == want
    assert hexed(norm_suite(before, after, np.array(dt), grid, params)) == want
    zero = hexed(norm_suite(before, after, 0.0, grid, params))
    assert zero["b_t"] == (0.0).hex() and want["b_t"] != zero["b_t"]
    assert hexed(norm_suite(before, after, np.array(0.0), grid, params)) == zero


def test_csv_schema():
    assert csv_header() == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == len(SCALAR_COLUMNS) + len(NORM_NAMES)
    assert tuple(sorted(NORM_NAMES)) == NORM_NAMES
    assert set(SCALAR_COLUMNS).isdisjoint(NORM_NAMES)


def test_csv_values_round_trip_floats():
    grid = Grid.uniform(32)
    init = scenario("gaussian-density", grid)
    acc = DiagnosticsAccumulator(init, grid, PhysParams())
    [rec] = acc.record([init.to_state()])
    row = format_rows(np.array([csv_values(rec)]), ",")
    assert row.endswith("\n") and row.count("\n") == 1
    parts = row[:-1].split(",")
    assert len(parts) == len(CSV_COLUMNS)
    parsed = dict(zip(CSV_COLUMNS, (float(p) for p in parts)))
    assert parsed["mass"] == rec.mass
    assert parsed["energy"] == rec.energy
    assert parsed["max_rho"] == rec.max_rho


def test_record_extrema_are_not_clamped():
    n = 16
    grid = Grid.uniform(n)
    init = scenario("uniform-rest", grid)
    acc = DiagnosticsAccumulator(init, grid, PhysParams())
    s = flat_state(n, rho=2.5, theta=3.5)
    [rec] = acc.record([s])
    assert rec.max_rho == 2.5
    assert rec.min_theta == 3.5
    assert rec.max_theta == 3.5


def test_a_lone_record_after_a_window_is_as_of_the_last_step():
    # a state recorded on its own takes the mark of the last step folded,
    # so recording the last state again repeats the window's last record
    grid = Grid.uniform(64)
    params = PhysParams()
    cfg = SchemeConfig()
    init = scenario("magnetic-pulse", grid)
    acc = DiagnosticsAccumulator(init, grid, params)
    state = init.to_state()
    records = []
    for _ in range(5):
        dt = stable_dt(state, grid, params, cfg)
        new, _ = step(state, dt, grid, params, cfg)
        records += acc.hold(state, new, dt, due=True)
        state = new
    records += acc.flush()
    assert len(records) == 5

    def hexed(record):
        return ([getattr(record, name).hex() for name in SCALAR_COLUMNS]
                + [record.norms[name].hex() for name in NORM_NAMES])

    assert [hexed(r) for r in acc.record([state])] == [hexed(records[-1])]


def test_accumulator_series_are_monotone():
    grid = Grid.uniform(64)
    rows = []
    run(scenario("magnetic-pulse", grid), 0.05, grid, PhysParams(),
        sink=rows.append)
    assert len(rows) > 5
    for name in ("entropy_prod_cum", "diss_visc", "diss_shear", "diss_mag",
                 "diss_heat", "weighted_diss"):
        series = [getattr(r, name) for r in rows]
        assert all(b >= a for a, b in zip(series, series[1:])), name
    sup_series = [r.norms["theta_sup_cum"] for r in rows]
    assert all(b >= a for a, b in zip(sup_series, sup_series[1:]))
    assert sup_series[-1] > 0.0

    masses = [r.mass for r in rows]
    assert max(masses) - min(masses) < 1e-13
