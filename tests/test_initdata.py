"""Initial data: regularization, admissibility residuals, scenario library,
and the state tables they are read from."""

import locale
import math
from pathlib import Path

import numpy as np
import pytest

import planar_mhd.operators as operators
from planar_mhd.diagnostics import total_energy
from planar_mhd.initial import (
    InitialData,
    compatibility_residuals,
    load_initial_table,
    regularize,
    scenario,
    SCENARIOS,
)
from planar_mhd.model import Grid, PhysParams
from planar_mhd.tables import format_rows, read_state_table, write_state_table


def constant_data(n):
    return InitialData(np.ones(n), np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))


def test_regularize_uniform_shift():
    n = 8
    zero = InitialData(np.zeros(n), np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))
    lifted = regularize(zero, 0.1)
    assert np.array_equal(lifted.rho0, np.full(n, 0.1))
    assert lifted.delta == 0.1

    base = InitialData(np.full(n, 0.5), np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))
    assert np.array_equal(regularize(base, 0.01).rho0, np.full(n, 0.51))


def test_regularize_adds_exactly_delta_mass():
    grid = Grid.uniform(48)
    data = scenario("vacuum-pocket", grid)
    lifted = regularize(data, 1e-3)
    mass0 = float(np.sum(data.rho0) * grid.dx)
    mass1 = float(np.sum(lifted.rho0) * grid.dx)
    assert mass1 - mass0 == pytest.approx(1e-3, rel=1e-12)


def test_regularize_rejects_bad_shift():
    data = constant_data(4)
    with pytest.raises(ValueError):
        regularize(data, 0.0)
    with pytest.raises(ValueError):
        regularize(data, -0.5)
    lifted = regularize(data, 0.2)
    with pytest.raises(ValueError):
        regularize(lifted, 0.1)


def test_initial_data_validation():
    n = 6
    with pytest.raises(ValueError):
        InitialData(np.full(n, 0.05), np.zeros(n), np.zeros((n, 2)),
                    np.zeros((n, 2)), np.ones(n), delta=0.1)
    with pytest.raises(ValueError):
        InitialData(np.ones(n), np.zeros(n), np.zeros((n, 2)),
                    np.zeros((n, 2)), -np.ones(n))
    with pytest.raises(ValueError):
        InitialData(np.ones(n), np.zeros(n), np.zeros((n, 3)),
                    np.zeros((n, 2)), np.ones(n))


def test_constant_data_has_zero_residuals():
    grid = Grid.uniform(32)
    report = compatibility_residuals(constant_data(32), grid, PhysParams())
    assert report.g1_norm == 0.0
    assert report.g2_norm == 0.0
    assert report.g3_norm == 0.0
    assert report.worst_vacuum_violation == 0.0
    assert report.passed


def test_velocity_profile_norm_against_dense_quadrature():
    # u0 = sin(pi x) x (1 - x) with flat rho, theta, b: the first residual is
    # just lambda * u0_xx, so its weighted norm must agree with a dense
    # quadrature of the same difference formula at double resolution.
    params = PhysParams(lambda_visc=1.0)

    def profile(x):
        return np.sin(np.pi * x) * x * (1.0 - x)

    def discrete_norm(n):
        dx = 1.0 / n
        x = (np.arange(n) + 0.5) * dx
        u = profile(x)
        ghosted = np.concatenate([[-u[0]], u, [-u[-1]]])
        uxx = (ghosted[2:] - 2.0 * u + ghosted[:-2]) / (dx * dx)
        return float(np.sqrt(np.sum(uxx * uxx) * dx))

    n = 128
    grid = Grid.uniform(n)
    data = InitialData(np.ones(n), profile(grid.cell_centers), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))
    report = compatibility_residuals(data, grid, params)
    assert report.g1_norm == pytest.approx(discrete_norm(n), rel=1e-12)
    assert report.g1_norm == pytest.approx(discrete_norm(2 * n), rel=2e-2)
    # the gap to the dense value shrinks under refinement
    gap_n = abs(discrete_norm(2 * n) - discrete_norm(n))
    gap_2n = abs(discrete_norm(4 * n) - discrete_norm(2 * n))
    assert gap_2n < gap_n
    assert report.g2_norm == 0.0


def test_vacuum_plateau_with_curved_temperature_fails():
    grid = Grid.uniform(96)
    pocket = scenario("vacuum-pocket", grid)
    theta0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.cell_centers)
    bad = InitialData(pocket.rho0, pocket.u0, pocket.w0, pocket.b0, theta0)
    report = compatibility_residuals(bad, grid, PhysParams())
    assert not report.passed
    assert report.worst_vacuum_violation > report.tolerance


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("n", [16, 64, 128])
def test_scenarios_are_admissible(name, n):
    grid = Grid.uniform(n)
    data = scenario(name, grid)
    assert data.n_cells == n
    assert data.delta == 0.0
    report = compatibility_residuals(data, grid, PhysParams())
    assert report.passed, f"{name} at n={n}: worst {report.worst_vacuum_violation}"
    state = data.to_state()
    assert state.time == 0.0


def test_vacuum_pocket_reaches_exact_zero():
    grid = Grid.uniform(128)
    data = scenario("vacuum-pocket", grid)
    assert data.rho0.min() == 0.0
    # the pocket is centered: cells well inside |x - 0.5| < 0.2 are empty
    inside = np.abs(grid.cell_centers - 0.5) < 0.15
    assert np.all(data.rho0[inside] == 0.0)
    assert data.rho0.max() == pytest.approx(1.0, abs=1e-12)


def test_magnetic_pulse_energy_closed_form():
    # rho = theta = 1 and b1 = 0.5 sin^2 on a width-0.4 support, so the total
    # energy is 1 + 0.5 * 0.25 * 0.4 * (3/8) = 1.01875 exactly.
    expected = 1.01875

    def integrand(x):
        val = np.ones_like(x)
        support = (x >= 0.3) & (x <= 0.7)
        bump = 0.5 * np.sin(np.pi * (x[support] - 0.3) / 0.4) ** 2
        val[support] += 0.5 * bump**2
        return val

    xs = (np.arange(8192) + 0.5) / 8192
    dense = float(np.sum(integrand(xs)) / 8192)
    assert dense == pytest.approx(expected, abs=1e-10)

    grid = Grid.uniform(128)
    state = scenario("magnetic-pulse", grid).to_state()
    assert total_energy(state, grid, PhysParams()) == pytest.approx(expected, abs=2e-4)


def test_unknown_scenario_lists_known_names():
    grid = Grid.uniform(16)
    with pytest.raises(KeyError) as err:
        scenario("warp-drive", grid)
    for name in SCENARIOS:
        assert name in str(err.value)


def test_table_round_trip_is_exact(tmp_path):
    grid = Grid.uniform(48)
    data = scenario("gaussian-density", grid)
    state = data.to_state()
    path = tmp_path / "init.dat"
    write_state_table(path, grid, state)
    grid2, loaded = load_initial_table(path)
    assert grid2.n_cells == 48
    assert np.array_equal(loaded.rho0, data.rho0)
    assert np.array_equal(loaded.theta0, data.theta0)
    assert np.array_equal(loaded.w0, data.w0)
    assert np.array_equal(loaded.b0, data.b0)


def test_table_rejects_wrong_centers(tmp_path):
    grid = Grid.uniform(8)
    state = constant_data(8).to_state()
    path = tmp_path / "shifted.dat"
    write_state_table(path, grid, state)
    text = path.read_text().replace("0.0625", "0.07")
    path.write_text(text)
    with pytest.raises(ValueError):
        load_initial_table(path)


def test_table_rejects_short_rows(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("# time = 0\n0.25 1.0 0.0\n")
    with pytest.raises(ValueError):
        load_initial_table(path)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/snapshot_t*.dat")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_snapshots_round_trip_byte_for_byte(tmp_path, path):
    time, grid, state = read_state_table(path)
    copy = tmp_path / path.name
    write_state_table(copy, grid, state)
    assert copy.read_bytes() == path.read_bytes()
    again = read_state_table(copy)[2]
    assert again.time.hex() == state.time.hex() == time.hex()
    for name in ("rho", "u", "w", "b", "theta"):
        assert getattr(again, name).tobytes() == getattr(state, name).tobytes()


@pytest.mark.parametrize("row,message", [
    ("0.0625 1 0 0 0 0 0", "expected 8 columns per row, got 7"),
    ("0.0625 1 0 0 0 0 0 1 2", "expected 8 columns per row, got 9"),
    ("0.0625 1 0 0 0 0 0 x", "could not convert string to float: 'x'"),
    ("0.0625 1 0 0 0 1.5e 0 1", "could not convert string to float: '1.5e'"),
])
def test_a_bad_row_is_named_as_before(tmp_path, row, message):
    # one bad row among good ones, anywhere in the table
    good = [f"{(i + 0.5) / 8!r} 1 0 0 0 0 0 1" for i in range(8)]
    for at in (0, 4, 7):
        path = tmp_path / f"bad{at}.dat"
        path.write_text("# time = 0\n" + "\n".join(good[:at] + [row] + good[at + 1:]) + "\n")
        with pytest.raises(ValueError) as err:
            read_state_table(path)
        assert str(err.value).removeprefix(f"{path}: ") == message


def test_a_table_without_rows_is_refused(tmp_path):
    path = tmp_path / "empty.dat"
    path.write_text("# time = 0\n# columns: x rho u w1 w2 b1 b2 theta\n\n")
    with pytest.raises(ValueError, match="table contains no data rows"):
        read_state_table(path)


def test_only_the_time_key_sets_the_snapshot_time(tmp_path):
    grid = Grid.uniform(8)
    path = tmp_path / "s.dat"
    write_state_table(path, grid, scenario("magnetic-pulse", grid).to_state())
    lines = path.read_text().splitlines(keepends=True)
    # a comment whose key only starts with "time" is a comment like any other
    path.write_text("# timestep = 7\n" + "".join(lines[1:]))
    assert read_state_table(path)[0] == 0.0
    path.write_text("# timestep = 7\n# time = 0.25\n" + "".join(lines[1:]))
    assert read_state_table(path)[0] == 0.25
    path.write_text("# time = 0.25\n# time = 0.5\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match=f"{path}: more than one time header"):
        read_state_table(path)


@pytest.mark.parametrize("header", ["# time = abc0", "# time =", "# time = 1.5 s"])
def test_a_time_header_that_is_not_a_number_is_named(tmp_path, header):
    grid = Grid.uniform(8)
    path = tmp_path / "s.dat"
    write_state_table(path, grid, scenario("magnetic-pulse", grid).to_state())
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "\n" + "".join(lines[1:]))
    message = f"{path}: time header {header!r} is not a number"
    for reader in (read_state_table, load_initial_table):
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == message


# Values whose '%.17g' spelling has a corner: signed zeros and NaNs, the
# infinities, subnormals, the extremes, the switch to exponent notation at
# 1e-4 / 1e-5 and 1e17, and halfway cases at the 17th digit.
FORMAT_CASES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, 1e17, 9.999999999999999e16, 1e-4, 1e-5,
                9.9999999999999991e-5, 0.1, 1.0, -1.0, 100.0, 2251799813685247.25,
                2251799813685247.75, 1152921504606846976.0, 123.456, 1 / 3]


def compiled_and_python_rows(values, sep):
    """format_rows on the compiled kernel, then on Python's %-format."""
    text = format_rows(values, sep)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_KERNEL", None)
        return text, format_rows(values, sep)


@pytest.mark.skipif(operators._KERNEL is None, reason="no compiled kernel")
def test_the_compiled_formatter_writes_what_python_writes():
    rng = np.random.default_rng(17)
    patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    # 16 integer digits and a quarter: the 17th digit is often an exact tie
    quarters = rng.integers(2 ** 50, 2 ** 53, size=1000) / 4.0
    values = np.concatenate((FORMAT_CASES, -np.array(FORMAT_CASES), patterns, quarters))
    assert np.isnan(values).sum() > 2 and np.signbit(values[np.isnan(values)]).any()
    rows = values[:len(values) // 8 * 8].reshape(-1, 8)
    for sep in (",", " "):
        compiled, python = compiled_and_python_rows(rows, sep)
        assert compiled == python
        assert python == "".join(sep.join("%.17g" % v for v in row) + "\n"
                                 for row in rows.tolist())


@pytest.mark.skipif(operators._KERNEL is None, reason="no compiled kernel")
def test_the_compiled_formatter_ignores_the_numeric_locale():
    # outside the exact range its digits come from snprintf, whose radix
    # character follows LC_NUMERIC, and the layout is built in C; a locale
    # with a decimal comma must not show in the rows
    previous = locale.setlocale(locale.LC_NUMERIC)
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "ru_RU.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        try:
            rows = np.array([FORMAT_CASES[:24]]).reshape(3, 8)
            compiled, python = compiled_and_python_rows(rows, ",")
        finally:
            locale.setlocale(locale.LC_NUMERIC, previous)
        assert compiled == python
        return
    pytest.skip("no locale with a decimal comma is installed")
