"""End-to-end acceptance gates.

Eleven criteria, one test and one printed PASS/FAIL line each (run with
pytest -s to see them).  Library runs at fixed resolutions are shared
through module-scoped fixtures; regression baselines are frozen from a
reference run of this implementation and guard against drift.
"""

import time

import numpy as np
import pytest

from planar_mhd.cli import EXIT_CONFIG, EXIT_OK, main
from planar_mhd.diagnostics import csv_header, monitor_drift
from planar_mhd.initial import SCENARIOS, scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import SchemeConfig, run, stable_dt, step
from planar_mhd.verification import continuation_study, embedding_check, mms_convergence

SMOOTH_SCENARIOS = ("uniform-rest", "gaussian-density", "magnetic-pulse", "smooth-shear")

# largest entropy-functional value seen per scenario (n = 128, t_end = 0.2)
# in the reference run, with headroom; a regression shows up as an excursion
ENTROPY_BASELINES = {
    "gaussian-density": 0.25,
    "magnetic-pulse": 0.025,
    "smooth-shear": 0.07,
    "uniform-rest": 1e-12,
    "vacuum-pocket": 0.0,
}


def report(num, ok, text):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def library_records(n, t_end):
    out = {}
    params = PhysParams()
    for name in sorted(SCENARIOS):
        grid = Grid.uniform(n)
        rows = []
        t0 = time.perf_counter()
        run(scenario(name, grid), t_end, grid, params, sink=rows.append)
        out[name] = (rows, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def runs_128():
    return library_records(128, 0.2)


@pytest.fixture(scope="module")
def runs_256():
    return library_records(256, 0.2)


def test_criterion_01_mass_conservation(runs_128):
    worst = 0.0
    slowest = 0.0
    for name, (rows, elapsed) in runs_128.items():
        masses = [r.mass for r in rows]
        worst = max(worst, max(abs(m - masses[0]) for m in masses))
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-12 and slowest < 10.0
    report(1, ok, f"mass drift {worst:.3e} <= 1e-12 on all scenarios at n=128, "
                  f"t_end=0.2 (slowest run {slowest:.2f} s)")


def test_criterion_02_energy_conservation(runs_128):
    worst = 0.0
    for name in SMOOTH_SCENARIOS:
        rows, _ = runs_128[name]
        drift = abs(rows[-1].energy - rows[0].energy) / max(abs(rows[0].energy), 1e-300)
        worst = max(worst, drift)

    def pinned_drift(n, dt_max):
        grid = Grid.uniform(n)
        rows = []
        run(scenario("magnetic-pulse", grid), 0.1, grid, PhysParams(),
            cfg=SchemeConfig(dt_max=dt_max), sink=rows.append)
        return abs(rows[-1].energy - rows[0].energy) / rows[0].energy

    coarse = pinned_drift(128, 5e-4)
    fine = pinned_drift(256, 2.5e-4)
    ratio = coarse / fine
    ok = worst <= 1e-2 and ratio >= 1.7
    report(2, ok, f"energy drift {worst:.3e} <= 1e-2 on smooth scenarios; "
                  f"refinement ratio {ratio:.2f} >= 1.7")


def test_criterion_03_equilibrium_fixed_point():
    n = 128
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig()
    init = scenario("uniform-rest", grid).to_state()
    state = init
    t0 = time.perf_counter()
    for _ in range(1000):
        state, _ = step(state, 0.001, grid, params, cfg)
    elapsed = time.perf_counter() - t0
    eps = np.finfo(float).eps
    worst = max(
        np.max(np.abs(state.rho - init.rho)),
        np.max(np.abs(state.u - init.u)),
        np.max(np.abs(state.w - init.w)),
        np.max(np.abs(state.b - init.b)),
        np.max(np.abs(state.theta - init.theta)),
    )
    ok = worst <= 10.0 * eps and elapsed < 5.0
    report(3, ok, f"uniform rest unchanged after 1000 steps: worst delta "
                  f"{worst:.3e} <= {10 * eps:.3e} ({elapsed:.2f} s)")


def test_criterion_04_entropy_structure(runs_128):
    prod_ok = True
    baseline_ok = True
    detail = []
    for name, (rows, _) in runs_128.items():
        series = [r.entropy_prod_cum for r in rows]
        if not all(b >= a for a, b in zip(series, series[1:])):
            prod_ok = False
            detail.append(f"{name}: production decreased")
        peak = max(r.entropy_fn for r in rows)
        if peak > ENTROPY_BASELINES[name]:
            baseline_ok = False
            detail.append(f"{name}: entropy_fn peak {peak:.4f} above baseline")
    ok = prod_ok and baseline_ok
    report(4, ok, "entropy production nondecreasing and entropy functional "
                  "below per-scenario baselines"
                  + (f" ({'; '.join(detail)})" if detail else ""))


def test_criterion_05_density_bound_monitor(runs_128, runs_256):
    worst256 = 0.0
    shrink_ok = True
    for name in sorted(SCENARIOS):
        d128 = monitor_drift(runs_128[name][0])
        d256 = monitor_drift(runs_256[name][0])
        worst256 = max(worst256, d256)
        if d256 > max(d128, 1e-12):
            shrink_ok = False
    ok = worst256 <= 0.02 and shrink_ok
    report(5, ok, f"rho_F_max relative drift {worst256:.3e} <= 2e-2 at n=256 "
                  f"and does not grow under refinement")


def test_criterion_06_vacuum_robustness():
    n = 128
    grid = Grid.uniform(n)
    params = PhysParams()
    cfg = SchemeConfig()
    state = scenario("vacuum-pocket", grid).to_state()
    assert state.rho.min() == 0.0
    min_rho = float("inf")
    min_theta = float("inf")
    try:
        while state.time < 0.1 - 1e-14:
            dt = min(stable_dt(state, grid, params, cfg), 0.1 - state.time)
            state, _ = step(state, dt, grid, params, cfg)
            min_rho = min(min_rho, float(state.rho.min()))
            min_theta = min(min_theta, float(state.theta.min()))
        failed = False
    except Exception as err:  # noqa: BLE001 - any failure is a criterion failure
        failed = True
        min_rho = min_theta = float("nan")
        print(f"vacuum run failed: {err}")
    ok = (not failed) and min_rho >= 0.0 and min_theta >= 0.0
    report(6, ok, f"vacuum pocket at delta=0 reached t=0.1 with min rho "
                  f"{min_rho:.3e} and min theta {min_theta:.3e}")


def test_criterion_07_delta_continuation():
    grid = Grid.uniform(96)
    t0 = time.perf_counter()
    rep = continuation_study(scenario("vacuum-pocket", grid),
                             (1e-1, 1e-2, 1e-3, 1e-4), 0.05, grid, PhysParams())
    elapsed = time.perf_counter() - t0
    dists = list(rep.pairwise_dists.values())
    ok = (not rep.failures) and rep.monotone and len(dists) == 3 and elapsed < 120.0
    report(7, ok, "continuation distances "
                  + " > ".join(f"{d:.3e}" for d in dists)
                  + f" decrease monotonically ({elapsed:.2f} s)")


def test_criterion_08_mms_convergence():
    t0 = time.perf_counter()
    rep = mms_convergence("smooth-wave", (64, 128, 256), PhysParams())
    elapsed = time.perf_counter() - t0
    ok = all(0.8 <= rep.orders[f] <= 1.3 for f in rep.orders) and elapsed < 120.0
    shown = ", ".join(f"{f}={rep.orders[f]:.3f}" for f in sorted(rep.orders))
    report(8, ok, f"manufactured-solution orders in [0.8, 1.3]: {shown} "
                  f"({elapsed:.2f} s)")


def test_criterion_09_embedding_inequality():
    worst_text = []
    ok = True
    for name in ("gaussian-density", "vacuum-pocket"):
        grid = Grid.uniform(96)
        state = scenario(name, grid).to_state()
        worst = embedding_check(state, grid, trials=100, seed=0,
                                exponents=(1.0, 2.0, 3.0))
        bound = 1.0 + 10.0 * grid.dx
        ok = ok and worst <= bound
        worst_text.append(f"{name} {worst:.4f}<={bound:.4f}")
    report(9, ok, "embedding ratios " + ", ".join(worst_text))


def test_criterion_10_hypothesis_enforcement(tmp_path, capsys):
    bad_q = tmp_path / "bad_q.cfg"
    bad_q.write_text("q_exp = 0\n")
    code_q = main(["--config", str(bad_q), "--out", str(tmp_path / "o1"), "simulate"])
    err_q = capsys.readouterr().err

    bad_a = tmp_path / "bad_alpha.cfg"
    bad_a.write_text("alpha = 0.9\nq_exp = 0.5\n")
    code_a = main(["--config", str(bad_a), "--out", str(tmp_path / "o2"), "simulate"])
    err_a = capsys.readouterr().err

    ok = (code_q == EXIT_CONFIG and "q_exp must be > 0" in err_q
          and code_a == EXIT_CONFIG and "open interval" in err_a)
    report(10, ok, "q <= 0 and alpha outside (0, min(1, q)) are rejected "
                   "with exit code 2 and constraint-naming messages")


def test_criterion_11_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = vacuum-pocket\nn_cells = 128\nt_end = 0.05\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["--config", str(cfg), "--out", str(out1), "simulate"])
    code2 = main(["--config", str(cfg), "--out", str(out2), "simulate"])
    capsys.readouterr()
    a = (out1 / "diagnostics.csv").read_bytes()
    b = (out2 / "diagnostics.csv").read_bytes()
    header_ok = a.decode().splitlines()[0] == csv_header()
    ok = code1 == EXIT_OK and code2 == EXIT_OK and a == b and header_ok
    report(11, ok, f"two identical simulate runs wrote byte-identical "
                   f"diagnostics.csv ({len(a)} bytes)")
