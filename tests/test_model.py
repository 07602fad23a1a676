"""Constitutive laws and container validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mhd.model import (
    VACUUM_RHO,
    Grid,
    PhysParams,
    State,
    kappa,
    mechanical_heating,
    pressure,
)

finite_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
temps = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


def make_state(n=8, **overrides):
    fields = dict(
        rho=np.ones(n),
        u=np.zeros(n),
        w=np.zeros((n, 2)),
        b=np.zeros((n, 2)),
        theta=np.ones(n),
        time=0.0,
    )
    fields.update(overrides)
    return State(**fields)


def test_kappa_reference_values():
    p = PhysParams()
    assert kappa(0.0, p) == 1.0
    assert kappa(2.0, p) == 5.0
    p_half = PhysParams(q_exp=0.5)
    assert kappa(1.0, p_half) == 2.0


@pytest.mark.parametrize("m", [0, 1])  # cell (n,) and face (n+1,) arrays
def test_mechanical_heating_is_the_written_out_sum_bitwise(m):
    rng = np.random.default_rng(11)
    n = 37 + m
    ux = rng.standard_normal(n) * 3.0
    wx = rng.standard_normal((n, 2)) * 0.7
    bx = rng.standard_normal((n, 2)) * 1.9
    p = PhysParams(lambda_visc=0.3, mu_visc=1.7, nu_mag=0.11)
    expected = (0.3 * ux * ux
                + 1.7 * (wx[:, 0] * wx[:, 0] + wx[:, 1] * wx[:, 1])
                + 0.11 * (bx[:, 0] * bx[:, 0] + bx[:, 1] * bx[:, 1]))
    got = mechanical_heating(ux, wx, bx, p)
    assert got.shape == (n,)
    assert got.tobytes() == expected.tobytes()


def test_pressure_reference_values():
    p = PhysParams(gas_R=1.0)
    assert pressure(np.array([2.0]), np.array([3.0]), p)[0] == 6.0
    assert pressure(0.0, 5.0, p) == 0.0


@given(theta=temps, a=finite_pos, b=finite_pos, q=st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_kappa_two_sided_bound(theta, a, b, q):
    p = PhysParams(kappa_a=a, kappa_b=b, q_exp=q)
    val = kappa(theta, p)
    growth = 1.0 + theta**q
    assert min(a, b) * growth <= val * (1.0 + 1e-12)
    assert val <= max(a, b) * growth * (1.0 + 1e-12)


@given(t1=temps, t2=temps)
@settings(max_examples=200, deadline=None)
def test_kappa_monotone(t1, t2):
    p = PhysParams()
    lo, hi = min(t1, t2), max(t1, t2)
    assert kappa(lo, p) <= kappa(hi, p)


@given(rho=temps, theta=temps, c=st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_pressure_bilinear(rho, theta, c):
    p = PhysParams(gas_R=1.0)
    base = pressure(rho, theta, p)
    assert pressure(c * rho, theta, p) == pytest.approx(c * base, rel=1e-12)
    assert pressure(rho, c * theta, p) == pytest.approx(c * base, rel=1e-12)


def test_kappa_rejects_negative_temperature():
    with pytest.raises(ValueError):
        kappa(-0.5, PhysParams())
    with pytest.raises(ValueError):
        kappa(np.array([1.0, -1e-3]), PhysParams())


def test_pressure_rejects_negative_inputs():
    p = PhysParams()
    with pytest.raises(ValueError):
        pressure(-1.0, 1.0, p)
    with pytest.raises(ValueError):
        pressure(1.0, -1.0, p)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(lambda_visc=0.0)
    with pytest.raises(ValueError):
        PhysParams(q_exp=-1.0)
    with pytest.raises(ValueError):
        PhysParams(gas_R=float("nan"))


def test_grid_uniform():
    g = Grid.uniform(4)
    assert g.n_cells == 4
    assert np.allclose(g.cell_centers, [0.125, 0.375, 0.625, 0.875])
    assert g.dx == 0.25
    with pytest.raises(ValueError):
        Grid.uniform(0)


def test_state_rejects_bad_fields():
    with pytest.raises(ValueError):
        make_state(rho=np.array([1.0] * 7 + [-1e-9]))
    with pytest.raises(ValueError):
        make_state(theta=np.array([1.0] * 7 + [-1.0]))
    with pytest.raises(ValueError):
        make_state(u=np.full(8, np.nan))
    with pytest.raises(ValueError):
        make_state(w=np.zeros((8, 3)))
    with pytest.raises(ValueError):
        make_state(b=np.zeros(8))


def test_state_allows_exact_vacuum():
    s = make_state(rho=np.zeros(8), theta=np.zeros(8))
    assert s.rho.min() == 0.0
    assert s.n_cells == 8


def test_state_arrays_are_read_only():
    s = make_state()
    with pytest.raises(ValueError):
        s.rho[0] = 2.0
    with pytest.raises(ValueError):
        s.b[3, 1] = 1.0


def test_state_copies_inputs():
    rho = np.ones(8)
    s = make_state(rho=rho)
    rho[0] = 99.0
    assert s.rho[0] == 1.0


def test_vacuum_threshold_is_tiny():
    assert 0.0 < VACUUM_RHO <= 1e-12
