"""Manufactured solutions, continuation study, embedding sharpness check."""

import numpy as np
import pytest

from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.operators import l2
from planar_mhd.solver import SchemeConfig
from planar_mhd.verification import (
    EXACT_ERROR,
    MMS_CASES,
    continuation_study,
    embedding_check,
    mms_convergence,
)


def test_case_library_contents():
    assert set(MMS_CASES) == {"smooth-wave", "constant"}
    for case in MMS_CASES.values():
        assert case.t_end > 0.0


def test_forcing_self_check_is_tight():
    # the forcing stencils must reproduce the continuous residuals; an
    # independent evaluation with a doubled differentiation step bounds the
    # truncation error of both
    params = PhysParams()
    assert MMS_CASES["smooth-wave"].self_check(params) <= 1e-8
    assert MMS_CASES["constant"].self_check(params) <= 1e-12


def test_constant_case_is_reproduced_exactly():
    report = mms_convergence("constant", (16, 32), PhysParams(), t_end=0.1)
    for name, errs in report.errors.items():
        assert max(errs) <= EXACT_ERROR, name
    assert all(np.isinf(o) for o in report.orders.values())
    assert "exact" in report.render_text()


def test_ladder_validation():
    params = PhysParams()
    with pytest.raises(ValueError):
        mms_convergence("smooth-wave", (64,), params)
    with pytest.raises(ValueError):
        mms_convergence("smooth-wave", (64, 96, 128), params)
    with pytest.raises(ValueError):
        mms_convergence("smooth-wave", (128, 64), params)


def test_smooth_wave_short_ladder_converges():
    report = mms_convergence("smooth-wave", (32, 64), PhysParams(), t_end=0.1)
    for name, order in report.orders.items():
        assert 0.5 <= order <= 1.6, (name, order)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "field,err_n32,err_n64,order"


def test_errors_insensitive_to_picard_tolerance():
    params = PhysParams()
    tight = mms_convergence("smooth-wave", (32, 64), params,
                            cfg=SchemeConfig(picard_tol=1e-10), t_end=0.1)
    tighter = mms_convergence("smooth-wave", (32, 64), params,
                              cfg=SchemeConfig(picard_tol=5e-11), t_end=0.1)
    for name in tight.errors:
        for e1, e2 in zip(tight.errors[name], tighter.errors[name]):
            assert abs(e1 - e2) <= 0.01 * e1, name


def test_continuation_validates_deltas():
    grid = Grid.uniform(32)
    base = scenario("gaussian-density", grid)
    params = PhysParams()
    with pytest.raises(ValueError):
        continuation_study(base, (0.01, 0.1), 0.01, grid, params)
    with pytest.raises(ValueError):
        continuation_study(base, (0.1, 0.1), 0.01, grid, params)
    with pytest.raises(ValueError):
        continuation_study(base, (0.1, -0.01), 0.01, grid, params)


def test_continuation_single_delta_is_vacuously_monotone():
    grid = Grid.uniform(32)
    report = continuation_study(scenario("gaussian-density", grid), (0.01,),
                                0.01, grid, PhysParams())
    assert report.pairwise_dists == {}
    assert report.monotone
    assert report.failures == {}


def test_continuation_distances_scale_with_delta():
    grid = Grid.uniform(64)
    report = continuation_study(scenario("gaussian-density", grid),
                                (0.1, 0.01, 0.001), 0.02, grid, PhysParams())
    assert report.failures == {}
    assert report.monotone
    dists = list(report.pairwise_dists.values())
    assert len(dists) == 2
    # the final state depends smoothly on delta here, so successive
    # distances shrink roughly tenfold along a tenfold delta ladder
    assert 5.0 <= dists[0] / dists[1] <= 20.0


def test_continuation_is_deterministic():
    grid = Grid.uniform(48)
    base = scenario("vacuum-pocket", grid)
    a = continuation_study(base, (0.1, 0.01), 0.01, grid, PhysParams())
    b = continuation_study(base, (0.1, 0.01), 0.01, grid, PhysParams())
    assert a.pairwise_dists == b.pairwise_dists


def test_embedding_inequality_reference_ratios():
    # replicate the defined quantities for two closed-form test functions:
    # a constant hits ratio 1 exactly, a zero-average linear ramp stays
    # well below one
    n = 64
    grid = Grid.uniform(n)
    rho = np.ones(n)
    mass = float(np.sum(rho) * grid.dx)

    def ratio(v):
        sup = float(np.max(np.abs(v)))
        slope = np.diff(v) / grid.dx
        seminorm = float(np.sqrt(np.sum(slope * slope) * grid.dx))
        average = abs(float(np.sum(rho * v) * grid.dx)) / mass
        return sup / (seminorm + average)

    assert ratio(np.full(n, 2.5)) == 1.0
    ramp = grid.cell_centers - 0.5
    assert ratio(ramp) == pytest.approx(0.5, rel=0.05)


def test_embedding_check_stays_below_discrete_bound():
    params = PhysParams()
    for name in ("gaussian-density", "vacuum-pocket"):
        grid = Grid.uniform(96)
        state = scenario(name, grid).to_state()
        worst = embedding_check(state, grid, trials=100, seed=0)
        assert 0.3 < worst <= 1.0 + 10.0 * grid.dx, name


def test_embedding_check_determinism_and_exponents():
    grid = Grid.uniform(64)
    state = scenario("gaussian-density", grid).to_state()
    a = embedding_check(state, grid, seed=3)
    b = embedding_check(state, grid, seed=3)
    assert a == b
    squared_only = embedding_check(state, grid, seed=3, exponents=(2.0,))
    assert squared_only != a
    assert squared_only <= 1.0 + 10.0 * grid.dx


def embedding_loop_oracle(state, grid, trials, seed, exponents):
    """The check one test function at a time: sequential draws of 17
    coefficients and a running max that skips a vanishing right side."""
    mass = float(np.sum(state.rho) * grid.dx)
    x = grid.cell_centers
    dx = grid.dx
    rng = np.random.default_rng(seed)
    modes = 8
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(2 * modes + 1)
        v = np.full_like(x, coeffs[0])
        for k in range(1, modes + 1):
            v = v + (coeffs[2 * k - 1] * np.cos(k * np.pi * x)
                     + coeffs[2 * k] * np.sin(k * np.pi * x)) / k ** 2
        for r in exponents:
            vr = v if r == 1.0 else np.abs(v) ** r
            sup = float(np.max(np.abs(vr)))
            seminorm = l2(np.diff(vr) / dx, dx)
            average = abs(float(np.sum(state.rho * vr) * dx)) / mass
            denom = seminorm + average
            if denom == 0.0:
                continue
            worst = max(worst, sup / denom)
    return worst


@pytest.mark.parametrize("trials", [0, 1, 100])
@pytest.mark.parametrize("name", ["vacuum-pocket", "smooth-shear"])
@pytest.mark.parametrize("n", [4, 129, 2048, 8193])
def test_embedding_check_matches_loop_oracle_bitwise(n, name, trials):
    grid = Grid.uniform(n)
    state = scenario(name, grid).to_state()
    # |v|**1001 overflows, so some rows have a NaN ratio that both skip
    for exponents in [(1.0,), (1.0, 2.0, 3.5), (6.7,), (1001.0,)]:
        for seed in (0, 23):
            with np.errstate(over="ignore", invalid="ignore"):
                got = embedding_check(state, grid, trials=trials, seed=seed,
                                      exponents=exponents)
                want = embedding_loop_oracle(state, grid, trials, seed, exponents)
            assert got.hex() == want.hex(), (exponents, seed)


def test_embedding_check_requires_mass():
    n = 16
    grid = Grid.uniform(n)
    empty = State(0.0, np.zeros(n), np.zeros(n), np.zeros((n, 2)),
                  np.zeros((n, 2)), np.zeros(n))
    with pytest.raises(ValueError):
        embedding_check(empty, grid)
