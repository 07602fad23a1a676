"""Manufactured solutions, continuation study, embedding sharpness check."""

import dataclasses
import re

import numpy as np
import pytest

import planar_mhd.verification as verification
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State, kappa, mechanical_heating, pressure
from planar_mhd.operators import dot2, l2
from planar_mhd.solver import SchemeConfig, step
from planar_mhd.verification import (
    _H,
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


@pytest.mark.parametrize("t_end", [0.0, -0.1, float("nan")])
def test_mms_rejects_a_horizon_that_is_not_positive(t_end):
    # a zero horizon runs no steps and would report every field as exact
    with pytest.raises(ValueError, match=re.escape(f"t_end must be positive, got {t_end!r}")):
        mms_convergence("constant", (16, 32), PhysParams(), t_end=t_end)


# ---------------------------------------------------------------------------
# the shared residual table against per-entry nested stencils

def _dx(f, x, t, h):
    return (-f(x + 2 * h, t) + 8.0 * f(x + h, t)
            - 8.0 * f(x - h, t) + f(x - 2 * h, t)) / (12.0 * h)


def _dxx(f, x, t, h):
    return (-f(x + 2 * h, t) + 16.0 * f(x + h, t) - 30.0 * f(x, t)
            + 16.0 * f(x - h, t) - f(x - 2 * h, t)) / (12.0 * h * h)


def _dt(f, x, t, h):
    return (-f(x, t + 2 * h) + 8.0 * f(x, t + h)
            - 8.0 * f(x, t - h) + f(x, t - 2 * h)) / (12.0 * h)


def nested_residuals(case, params, h):
    """Each residual by its own nested stencils, one closed-form call per
    stencil point and entry (149 calls for the five at one (x, t))."""
    rho, u, w, b, theta = case.rho, case.u, case.w, case.b, case.theta

    def ptot(x, t):
        bv = b(x, t)
        return pressure(rho(x, t), theta(x, t), params) + 0.5 * dot2(bv, bv)

    def f_rho(x, t):
        return (_dt(rho, x, t, h)
                + _dx(lambda xx, tt: rho(xx, tt) * u(xx, tt), x, t, h))

    def f_m(x, t):
        return (_dt(lambda xx, tt: rho(xx, tt) * u(xx, tt), x, t, h)
                + _dx(lambda xx, tt: rho(xx, tt) * u(xx, tt) ** 2 + ptot(xx, tt), x, t, h)
                - params.lambda_visc * _dxx(u, x, t, h))

    def f_w(x, t):
        return (_dt(lambda xx, tt: rho(xx, tt)[..., None] * w(xx, tt), x, t, h)
                + _dx(lambda xx, tt: (rho(xx, tt) * u(xx, tt))[..., None] * w(xx, tt)
                      - b(xx, tt), x, t, h)
                - params.mu_visc * _dxx(w, x, t, h))

    def f_b(x, t):
        return (_dt(b, x, t, h)
                + _dx(lambda xx, tt: u(xx, tt)[..., None] * b(xx, tt) - w(xx, tt), x, t, h)
                - params.nu_mag * _dxx(b, x, t, h))

    def cond_flux(x, t):
        return kappa(theta(x, t), params) * _dx(theta, x, t, h)

    def f_e(x, t):
        ux = _dx(u, x, t, h)
        heating = (mechanical_heating(ux, _dx(w, x, t, h), _dx(b, x, t, h), params)
                   - pressure(rho(x, t), theta(x, t), params) * ux)
        return (_dt(lambda xx, tt: params.c_v * rho(xx, tt) * theta(xx, tt), x, t, h)
                + _dx(lambda xx, tt: params.c_v * rho(xx, tt) * u(xx, tt) * theta(xx, tt),
                      x, t, h)
                - _dx(cond_flux, x, t, h)
                - heating)

    return {"rho": f_rho, "u": f_m, "w": f_w, "b": f_b, "e": f_e}


ENTRIES = ("rho", "u", "w", "b", "e")
CLOSED_FORMS = ("rho", "u", "w", "b", "theta")
PARAM_SETS = {
    "unit": PhysParams(),
    # the coefficient set of the coeffs.cfg golden run
    "coeffs": PhysParams(lambda_visc=0.7, mu_visc=1.3, nu_mag=0.9, gas_R=0.6, c_v=1.5,
                         kappa_a=0.8, kappa_b=1.7, q_exp=1.5),
    "q0.5": PhysParams(q_exp=0.5),
    "q6": PhysParams(q_exp=6.0),
}


def _literal_smooth_wave():
    # the closed forms written out as full expressions, with no kept profile
    def rho(x, t):
        return 1.0 + 0.25 * np.cos(2.0 * np.pi * x) * np.exp(-t)

    def u(x, t):
        return 0.2 * np.sin(2.0 * np.pi * x) * np.cos(6.0 * t)

    def w(x, t):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        out[..., 0] = 0.15 * np.sin(np.pi * x) * np.cos(5.0 * t)
        out[..., 1] = -0.12 * np.sin(2.0 * np.pi * x) * np.sin(6.0 * t)
        return out

    def b(x, t):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        out[..., 0] = 0.2 * np.sin(np.pi * x) * np.cos(7.0 * t)
        out[..., 1] = 0.15 * np.sin(2.0 * np.pi * x) * np.sin(5.0 * t)
        return out

    def theta(x, t):
        return 1.0 + 0.15 * np.cos(np.pi * x) ** 2 * (1.0 + 0.5 * np.sin(6.0 * t))

    return {"rho": rho, "u": u, "w": w, "b": b, "theta": theta}


def _literal_constant():
    def one(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def zero2(x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2,))

    return {"rho": one, "u": zero, "w": zero2, "b": zero2, "theta": one}


LITERAL_FORMS = {"smooth-wave": _literal_smooth_wave(), "constant": _literal_constant()}
# the cases with their forms replaced by the literal expressions: no kept
# profile anywhere, so their nested residuals are a cache-free evaluation
LITERAL_CASES = {name: dataclasses.replace(MMS_CASES[name], profiles=(), **forms)
                 for name, forms in LITERAL_FORMS.items()}


def _stencils(n):
    """x of the shapes a forced step calls the forms on: the cell centres
    (n,), their x-stencil rows (5, n) and the nested rows (5, 5, n)."""
    x = Grid.uniform(n).cell_centers
    xs = verification._rows(x, _H)
    return x, xs, verification._rows(xs, _H)


@pytest.mark.parametrize("name", sorted(MMS_CASES))
def test_closed_forms_return_the_bytes_of_their_literal_expressions(name):
    case, literal = MMS_CASES[name], LITERAL_FORMS[name]
    for n in (4, 64, 256):
        # every t on every shape in turn, so each kept profile is both
        # recomputed (a new shape or x) and reused (the same x again);
        # t - 2h is negative at t = 0
        for t in (-0.001, 0.0, 0.0123, 0.25):
            for x in _stencils(n):
                for form in CLOSED_FORMS:
                    got, want = getattr(case, form)(x, t), literal[form](x, t)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (n, t, x.shape, form)


@pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS)
@pytest.mark.parametrize("name", sorted(MMS_CASES))
def test_residual_table_matches_nested_stencils_bitwise(name, params):
    case = MMS_CASES[name]
    for h in (_H, 2.0 * _H):
        table, nested = case.residuals(params, h), nested_residuals(case, params, h)
        for n in (4, 5, 64, 256, 2048):
            x = Grid.uniform(n).cell_centers
            for t in (0.0, 0.0123, 0.1731, 0.25):
                for entry in ENTRIES:
                    got, want = table[entry](x, t), nested[entry](x, t)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (h, n, t, entry)


def test_a_forced_step_calls_each_closed_form_five_times(each_path):
    # one call on the stacked x-stencil rows and one at each of the four
    # shifted times, shared by the five forcing entries: 25, where
    # per-entry nested stencils make 149
    case, params, grid = MMS_CASES["smooth-wave"], PhysParams(), Grid.uniform(32)
    state = case.initial_data(grid).to_state()
    counts = dict.fromkeys(CLOSED_FORMS, 0)

    def counted(name):
        form = getattr(case, name)

        def f(x, t):
            counts[name] += 1
            return form(x, t)
        return f

    counting = dataclasses.replace(case, **{name: counted(name) for name in CLOSED_FORMS})
    for _ in each_path():
        forcing = counting.forcing(params)
        counts.update(dict.fromkeys(CLOSED_FORMS, 0))
        forced, _ = step(state, 1e-3, grid, params, SchemeConfig(), forcing)
        assert counts == dict.fromkeys(CLOSED_FORMS, 5)
        plain, _ = step(state, 1e-3, grid, params, SchemeConfig(), case.forcing(params))
        for f in CLOSED_FORMS:
            assert np.array_equal(getattr(forced, f), getattr(plain, f))


def test_residual_table_is_recomputed_whenever_x_or_t_changes():
    case, params = MMS_CASES["smooth-wave"], PhysParams()
    x = Grid.uniform(48).cell_centers.copy()  # writeable, edited in place below

    def fresh(x, t, h=_H):
        # nested stencils of the literal forms: no table, no kept rows or
        # profiles, so nothing a cache could have kept
        entries = nested_residuals(LITERAL_CASES["smooth-wave"], params, h)
        return {entry: entries[entry](x, t).tobytes() for entry in ENTRIES}

    def table(entries, x, t):
        return {entry: entries[entry](x, t).tobytes() for entry in ENTRIES}

    entries = case.residuals(params)
    want = fresh(x, 0.1)
    # any order, with repeats, gives the bytes of a fresh table
    for entry in ("e", "w", "rho", "e", "b", "u", "u", "w"):
        got = entries[entry](x, 0.1)
        assert got.tobytes() == want[entry]
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0

    # a new t recomputes
    later = fresh(x, 0.2)
    assert later["rho"] != want["rho"]
    assert table(entries, x, 0.2) == later

    # so do x of other ranks, alternating with x, whose kept profiles and
    # stencil rows sit in other slots
    wide = np.stack([x * (1.0 - 0.01 * k) for k in range(5)])
    deep = np.stack([wide * (1.0 + 0.02 * k) for k in range(5)])
    by_shape = {y.shape: fresh(y, 0.2) for y in (wide, deep)}
    by_shape[x.shape] = later
    for y in (wide, x, deep, wide, deep, x, deep):
        assert table(entries, y, 0.2) == by_shape[y.shape], y.shape

    # and a change of h with the same x, back and forth
    doubled = case.residuals(params, 2.0 * _H)
    want_2h = fresh(x, 0.2, 2.0 * _H)
    assert want_2h["u"] != later["u"]
    for entries_h, want_h in ((doubled, want_2h), (entries, later), (doubled, want_2h)):
        assert table(entries_h, x, 0.2) == want_h

    # and an x of a new length
    longer = Grid.uniform(49).cell_centers
    assert table(entries, longer, 0.2) == fresh(longer, 0.2)

    # so does an x of the same length with one changed value
    y = x.copy()
    y[7] += 1e-3
    moved = fresh(y, 0.2)
    assert moved["u"] != later["u"]
    assert table(entries, y, 0.2) == moved

    # and an in-place edit of x between two calls
    assert entries["b"](x, 0.2).tobytes() == later["b"]
    x[7] += 1e-3
    assert table(entries, x, 0.2) == moved


def test_kept_profiles_and_stencil_rows_do_not_grow_with_the_ladder():
    # one slot per rank of x, the last x of that rank: after the default
    # ladder only its n = 256 shapes are kept, not one per resolution
    case = MMS_CASES["smooth-wave"]
    assert len(case.profiles) == 5
    for memo in (*case.profiles, verification._stencil):
        memo.slots.clear()  # drop what other tests' x of other ranks left
    mms_convergence(case, (16, 32), PhysParams(), t_end=0.01)
    mms_convergence(case, (64, 128, 256), PhysParams())
    last = {(256,), (5, 256), (5, 5, 256)}
    for memo in case.profiles:
        shapes = [key[0] for key, _ in memo.slots.values()]
        assert len(shapes) == len(set(shapes)) <= 3
        assert set(shapes) <= last, shapes
        assert not any(kept.flags.writeable for _, kept in memo.slots.values())
    assert [key[0] for key, _ in verification._stencil.slots.values()] == [(256,)]


def test_ten_forced_steps_build_the_stencil_rows_once(monkeypatch):
    case, params, grid = MMS_CASES["smooth-wave"], PhysParams(), Grid.uniform(32)
    verification._stencil.slots.clear()
    counts = {"_rows": 0, "stack": 0}
    rows = verification._rows

    def counted_rows(x, h):
        counts["_rows"] += 1
        return rows(x, h)

    class CountingNumpy:
        # numpy as verification sees it, with np.stack counted
        def __getattr__(self, name):
            return getattr(np, name)

        def stack(self, *args, **kwargs):
            counts["stack"] += 1
            return np.stack(*args, **kwargs)

    monkeypatch.setattr(verification, "_rows", counted_rows)
    monkeypatch.setattr(verification, "np", CountingNumpy())
    state, forcing = case.initial_data(grid).to_state(), case.forcing(params)
    state, _ = step(state, 1e-3, grid, params, SchemeConfig(), forcing)
    assert counts["_rows"] == 2  # x-stencil rows and nested rows, one (x, h) key
    first = counts["stack"]
    for _ in range(9):
        state, _ = step(state, 1e-3, grid, params, SchemeConfig(), forcing)
    assert counts == {"_rows": 2, "stack": first}
    assert state.time == pytest.approx(1e-2)
    monkeypatch.undo()
    assert verification.np is np and verification._rows is rows


def test_self_check_step_sets_keep_their_own_tables():
    case, params = MMS_CASES["smooth-wave"], PhysParams()
    x = Grid.uniform(64).cell_centers
    coarse, finer = case.residuals(params), case.residuals(params, h=2.0 * _H)
    nested_coarse = nested_residuals(case, params, _H)
    nested_finer = nested_residuals(case, params, 2.0 * _H)
    for entry in ENTRIES:
        for table, nested in ((coarse, nested_coarse), (finer, nested_finer),
                              (coarse, nested_coarse)):
            assert table[entry](x, 0.05).tobytes() == nested[entry](x, 0.05).tobytes()
        assert coarse[entry](x, 0.05).tobytes() != finer[entry](x, 0.05).tobytes()


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


@pytest.mark.parametrize("t_end", [0.0, -0.1, float("nan")])
def test_continuation_rejects_a_horizon_that_is_not_positive(t_end):
    # a zero horizon runs no steps, so every shift would compare its own
    # regularized data and the study would report on no dynamics at all
    grid = Grid.uniform(16)
    base = scenario("gaussian-density", grid)
    with pytest.raises(ValueError, match=rf"^t_end must be .*, got {re.escape(repr(t_end))}$"):
        continuation_study(base, (0.1, 0.01), t_end, grid, PhysParams())


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


def fresh_embedding_check(*args, **kwargs):
    verification._DRAWN[:] = None, None
    return embedding_check(*args, **kwargs)


def test_embedding_check_draws_its_test_functions_once_per_key(monkeypatch):
    # an audit checks every snapshot against one seeded draw: the test
    # functions are drawn for the first state and reused for the rest
    grid = Grid.uniform(64)
    params = PhysParams()
    states = [scenario("magnetic-pulse", grid).to_state()]
    for _ in range(4):
        s = states[-1]
        states.append(step(s, 1e-3, grid, params, SchemeConfig())[0])
    exponents = (1.0, 2.0, params.q_exp + 1.0)
    want = [fresh_embedding_check(s, grid, trials=50, seed=23, exponents=exponents).hex()
            for s in states]
    draws = []
    original = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or
                        original(seed))
    verification._DRAWN[:] = None, None
    got = [embedding_check(s, grid, trials=50, seed=23, exponents=exponents).hex()
           for s in states]
    assert got == want
    assert draws == [23]


@pytest.mark.parametrize("change", ["grid", "trials", "seed", "exponents"])
def test_embedding_check_redraws_when_its_key_changes(change):
    grid = Grid.uniform(64)
    other = {"grid": Grid.uniform(96), "trials": 20, "seed": 5, "exponents": (3.0,)}
    base = {"grid": grid, "trials": 10, "seed": 4, "exponents": (1.0, 2.0)}
    changed = dict(base, **{change: other[change]})
    states = {n: scenario("vacuum-pocket", Grid.uniform(n)).to_state() for n in (64, 96)}

    def check(args, fresh=False):
        call = fresh_embedding_check if fresh else embedding_check
        return call(states[args["grid"].n_cells], args["grid"], trials=args["trials"],
                    seed=args["seed"], exponents=args["exponents"]).hex()

    want_base, want_changed = check(base, fresh=True), check(changed, fresh=True)
    assert want_base != want_changed
    for args, want in [(base, want_base), (changed, want_changed), (base, want_base),
                       (base, want_base), (changed, want_changed)]:
        assert check(args) == want
