"""Verification instruments: manufactured solutions, vacuum-regularization
continuation, and the density-weighted embedding inequality check.

Manufactured-solution forcing is not derived by hand: each equation residual
is evaluated by fourth-order numerical differentiation of the closed-form
fields on a dense auxiliary stencil, which keeps the forcing in lockstep
with the closed forms by construction.  The five residuals at one (x, t) are
one table built from 25 closed-form calls, shared by the five entries; per
step it evaluates only time factors of kept spatial profiles (_kept) on kept
stencil rows (_stencil), and each time derivative reads four time rows.
The arithmetic after those calls runs as one mms_table call of the compiled
kernel where it is loaded (operators._KERNEL), and as the numpy body of
MMSCase._table, its bitwise reference, otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .diagnostics import total_mass
from .initial import InitialData, regularize
from .model import Grid, kappa, mechanical_heating, pressure
from .operators import dot2, l2
from .solver import Forcing, SimulationError, run

_H = 5e-4  # differentiation step for the forcing stencils


def _rows(x, h):
    """The stencil rows x+2h, x+h, x, x-h, x-2h, stacked on a new first axis."""
    return np.stack((x + 2 * h, x + h, x, x - h, x - 2 * h))


def _kept(f):
    """f(x, *args), read-only, kept per rank of x for the last x and args of
    that rank, by their exact bits.  A forced step's x of each rank (cell
    centres, x-stencil rows, nested rows) is fixed for a run, so a run keeps
    at most three `.slots`."""
    slots = {}

    def kept(x, *args):
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes(), args)
        if slots.get(x.ndim, (None,))[0] != key:
            slots[x.ndim] = key, f(x, *args)
            slots[x.ndim][1].setflags(write=False)
        return slots[x.ndim][1]

    kept.slots = slots
    return kept


# the nested stencil rows of x ([j, k]: x-stencil row k + offset j, so [2] is
# the x-stencil rows themselves), which do not depend on t
_stencil = _kept(lambda x, h: _rows(_rows(x, h), h))


def _d1(f, h):
    """Fourth-order first derivative from the four off-centre rows f[0], f[1],
    f[-2], f[-1] of a stencil: five stacked x rows or four time rows."""
    return (-f[0] + 8.0 * f[1] - 8.0 * f[-2] + f[-1]) / (12.0 * h)


def _d2(f, h):
    """Fourth-order second derivative from five stencil rows f[0..4]."""
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)


_MMS_SCALARS = 7  # n, h and five coefficients open the workspace (layout in _pivot.c)


def _compiled_table(kernel, params, h, x, forms):
    """The residuals of MMSCase._table by one mms_table call on its 25
    closed-form results `forms`, packed in that order after the scalars
    into one workspace by one np.concatenate, and kappa of theta on the
    x-stencil rows (forms[0][2]) by numpy, from its copy in the workspace.
    The five arrays are read-only views of one fresh 7n block.  None, for
    the numpy body to decide, when the results are not float64 of the
    shapes MMSCase documents or when a rho or theta is negative."""
    n, pairs = x.size, x.shape + (2,)
    rows, row_pairs = (5,) + x.shape, (5,) + pairs
    if tuple(getattr(f, "shape", None) for f in forms) != (
            ((5,) + rows, rows, rows, row_pairs, row_pairs)
            + (x.shape,) * 8 + (pairs,) * 8 + (x.shape,) * 4):
        return None
    # the results take 83n: 25n nested theta, 30n x-stencil rows, 28n time rows
    ws = np.empty(_MMS_SCALARS + 83 * n)
    try:
        np.concatenate(((n, h, params.lambda_visc, params.mu_visc, params.nu_mag,
                         params.gas_R, params.c_v), *forms),
                       axis=None, out=ws, casting="no")
        kap = kappa(ws[_MMS_SCALARS + 10 * n:_MMS_SCALARS + 15 * n], params)
    except (TypeError, ValueError):
        return None
    out = np.empty(7 * n)
    if kernel.mms_table(operators.address(ws), operators.address(kap), operators.address(out)):
        return None
    out.setflags(write=False)  # before the views, which inherit it
    return {"rho": out[:n].reshape(x.shape), "u": out[n:2 * n].reshape(x.shape),
            "w": out[2 * n:4 * n].reshape(pairs), "b": out[4 * n:6 * n].reshape(pairs),
            "e": out[6 * n:].reshape(x.shape)}


@dataclass(frozen=True)
class MMSCase:
    """A manufactured solution: closed-form fields obeying the wall
    conditions for all time, elementwise in an x array of any shape and a
    float t.  w and b return x.shape + (2,) arrays.

    Each form is a spatial profile times a time factor; `profiles` holds the
    profile memos (_kept), so a form called again on the same x evaluates
    only its time factor.  The constant case needs none."""

    name: str
    rho: callable
    u: callable
    w: callable
    b: callable
    theta: callable
    t_end: float = 0.25
    profiles: tuple = ()

    def initial_data(self, grid):
        x = grid.cell_centers
        return InitialData(self.rho(x, 0.0), self.u(x, 0.0), self.w(x, 0.0),
                           self.b(x, 0.0), self.theta(x, 0.0))

    def residuals(self, params, h=_H):
        """Continuous-equation residual callables; the forcing equals these
        evaluated at the exact fields.  The five share one table (_table),
        kept for the last (x, t) by the exact bits of both, so a step builds
        it once.  The arrays returned are read-only."""
        kept = [None, None]  # key, table

        def entry(name):
            def f(x, t):
                key = (x.shape, x.tobytes(), float(t).hex())
                if kept[0] != key:
                    kept[:] = key, self._table(params, h, x, t)
                return kept[1][name]
            return f

        return {name: entry(name) for name in ("rho", "u", "w", "b", "e")}

    def _table(self, params, h, x, t):
        """The five residuals at (x, t) from 25 closed-form calls: each field
        once on the x-stencil rows (theta on the 5x5 rows of the nested
        conduction-flux stencil), kept per (x, h) by _stencil, and once at
        each of t+-h, t+-2h, four unstacked rows that _d1 reads as they are.

        The arithmetic after the calls is one mms_table call where the
        compiled kernel is loaded (_compiled_table), and the numpy body
        below otherwise, with the same bits.  The body also runs when the
        kernel declines a table, so a negative rho or theta raises the
        ValueError of model.pressure on both paths."""
        xss = _stencil(x, h)
        xs = xss[2]
        nested = self.theta(xss, t)  # [j, k]: theta at xs[k] + offset j
        forms = (self.rho, self.u, self.w, self.b, self.theta)
        rho, u, w, b = (f(xs, t) for f in forms[:4])
        theta = nested[2]
        # the same fields on the time rows t+2h, t+h, t-h, t-2h
        times = (t + 2 * h, t + h, t - h, t - 2 * h)
        rho_t, u_t, w_t, b_t, theta_t = ([f(x, s) for s in times] for f in forms)
        kernel = operators._KERNEL
        if kernel is not None:
            table = _compiled_table(kernel, params, h, x, (
                nested, rho, u, w, b, *rho_t, *u_t, *w_t, *b_t, *theta_t))
            if table is not None:
                return table
        m = rho * u
        ux = _d1(u, h)
        heating = (mechanical_heating(ux, _d1(w, h), _d1(b, h), params)
                   - pressure(rho[2], theta[2], params) * ux)
        ptot = pressure(rho, theta, params) + 0.5 * dot2(b, b)
        cond_flux = kappa(theta, params) * _d1(nested, h)
        table = {
            "rho": _d1(rho_t, h) + _d1(m, h),
            "u": (_d1([r * v for r, v in zip(rho_t, u_t)], h) + _d1(rho * u ** 2 + ptot, h)
                  - params.lambda_visc * _d2(u, h)),
            "w": (_d1([r[..., None] * v for r, v in zip(rho_t, w_t)], h)
                  + _d1(m[..., None] * w - b, h) - params.mu_visc * _d2(w, h)),
            "b": _d1(b_t, h) + _d1(u[..., None] * b - w, h) - params.nu_mag * _d2(b, h),
            "e": (_d1([params.c_v * r * th for r, th in zip(rho_t, theta_t)], h)
                  + _d1(params.c_v * rho * u * theta, h) - _d1(cond_flux, h) - heating),
        }
        for arr in table.values():
            arr.setflags(write=False)
        return table

    def forcing(self, params):
        return Forcing(**self.residuals(params))

    def self_check(self, params, n_dense=2048, times=(0.05, 0.15)):
        """Largest mismatch between the forcing and an independent residual
        evaluation with a different differentiation step."""
        coarse = self.residuals(params)
        finer = self.residuals(params, h=2.0 * _H)
        x = (np.arange(n_dense) + 0.5) / n_dense
        worst = 0.0
        for t in times:
            for name in coarse:
                diff = np.abs(coarse[name](x, t) - finer[name](x, t))
                worst = max(worst, float(diff.max()))
        return worst


def _smooth_wave_case():
    # time rates are deliberately brisk: the backward-Euler O(dt) error must
    # dominate the O(dx^2) central-diffusion error on the documented ladder
    # (n = 64..256), or the diffusive fields would measure at order two and
    # hide a botched time discretization
    rho_x = _kept(lambda x: 0.25 * np.cos(2.0 * np.pi * x))
    u_x = _kept(lambda x: 0.2 * np.sin(2.0 * np.pi * x))
    w_x = _kept(lambda x: np.stack(
        (0.15 * np.sin(np.pi * x), -0.12 * np.sin(2.0 * np.pi * x)), axis=-1))
    b_x = _kept(lambda x: np.stack(
        (0.2 * np.sin(np.pi * x), 0.15 * np.sin(2.0 * np.pi * x)), axis=-1))
    theta_x = _kept(lambda x: 0.15 * np.cos(np.pi * x) ** 2)

    # each time factor multiplies its profile in the order of the full
    # expression, e.g. 1.0 + 0.25 * cos(2 pi x) * exp(-t), which keeps its bits
    def rho(x, t):
        return 1.0 + rho_x(x) * np.exp(-t)

    def u(x, t):
        return u_x(x) * np.cos(6.0 * t)

    def w(x, t):
        return w_x(x) * np.array((np.cos(5.0 * t), np.sin(6.0 * t)))

    def b(x, t):
        return b_x(x) * np.array((np.cos(7.0 * t), np.sin(5.0 * t)))

    def theta(x, t):
        return 1.0 + theta_x(x) * (1.0 + 0.5 * np.sin(6.0 * t))

    return MMSCase("smooth-wave", rho, u, w, b, theta,
                   profiles=(rho_x, u_x, w_x, b_x, theta_x))


def _constant_case():
    def rho(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def zero2(x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2,))

    def theta(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    return MMSCase("constant", rho, zero, zero2, zero2, theta)


MMS_CASES = {case.name: case for case in (_smooth_wave_case(), _constant_case())}

_MMS_FIELDS = ("rho", "u", "w", "b", "theta")

# errors below this scale count as exact reproduction, not convergence data
EXACT_ERROR = 1e-11


@dataclass
class MMSReport:
    case: str
    resolutions: tuple
    errors: dict          # field -> list of L2 errors, one per resolution
    orders: dict          # field -> observed order (inf means exact)
    t_end: float

    def render_text(self):
        lines = [f"manufactured-solution convergence: {self.case} (t_end = {self.t_end:g})"]
        header = f"{'field':>7} " + " ".join(f"{f'n={n}':>13}" for n in self.resolutions)
        lines.append(header + f" {'order':>9}")
        for name in _MMS_FIELDS:
            errs = " ".join(f"{e:13.6e}" for e in self.errors[name])
            order = self.orders[name]
            shown = "exact" if np.isinf(order) else f"{order:.3f}"
            lines.append(f"{name:>7} {errs} {shown:>9}")
        return "\n".join(lines) + "\n"

    def to_csv(self):
        lines = ["field," + ",".join(f"err_n{n}" for n in self.resolutions) + ",order"]
        for name in _MMS_FIELDS:
            errs = ",".join(f"{e:.17g}" for e in self.errors[name])
            lines.append(f"{name},{errs},{self.orders[name]:.17g}")
        return "\n".join(lines) + "\n"


def _field_error(state, case, grid, t):
    x = grid.cell_centers
    exact = {
        "rho": case.rho(x, t), "u": case.u(x, t), "w": case.w(x, t),
        "b": case.b(x, t), "theta": case.theta(x, t),
    }
    return {name: l2(getattr(state, name) - exact[name], grid.dx) for name in _MMS_FIELDS}


def mms_convergence(case, resolutions, params, cfg=None, t_end=None):
    """Run the forced solver on a geometric resolution ladder and report the
    observed per-field L2 convergence order."""
    if isinstance(case, str):
        case = MMS_CASES[case]
    resolutions = tuple(int(n) for n in resolutions)
    if len(resolutions) < 2 or any(n <= 0 for n in resolutions):
        raise ValueError("need at least two positive resolutions")
    ratios = [resolutions[i + 1] / resolutions[i] for i in range(len(resolutions) - 1)]
    if any(r <= 1.0 for r in ratios) or any(abs(r - ratios[0]) > 1e-12 for r in ratios):
        raise ValueError("resolutions must form an increasing geometric sequence")
    if t_end is None:
        t_end = case.t_end
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")

    forcing = case.forcing(params)
    errors = {name: [] for name in _MMS_FIELDS}
    for n in resolutions:
        grid = Grid.uniform(n)
        final = run(case.initial_data(grid), t_end, grid, params, cfg, forcing=forcing)
        for name, err in _field_error(final, case, grid, t_end).items():
            errors[name].append(err)

    orders = {}
    for name in _MMS_FIELDS:
        errs = errors[name]
        if max(errs) <= EXACT_ERROR:
            orders[name] = float("inf")
            continue
        pairs = [np.log(errs[i] / errs[i + 1]) / np.log(ratios[0])
                 for i in range(len(errs) - 1)]
        orders[name] = float(np.mean(pairs))
    return MMSReport(case.name, resolutions, errors, orders, t_end)


# ---------------------------------------------------------------------------
# vacuum-regularization continuation

@dataclass
class ContinuationReport:
    deltas: tuple
    pairwise_dists: dict   # (delta_k, delta_k+1) -> L2 distance of final states
    monotone: bool
    failures: dict         # delta -> error text for runs that did not finish

    def render_text(self):
        lines = ["vacuum-regularization continuation"]
        lines.append(f"{'delta':>12} {'status':>10}")
        for d in self.deltas:
            status = "failed" if d in self.failures else "ok"
            lines.append(f"{d:12.3e} {status:>10}")
        lines.append(f"{'pair':>27} {'distance':>13}")
        for (d1, d2), dist in self.pairwise_dists.items():
            lines.append(f"{d1:12.3e} {d2:12.3e} {dist:13.6e}")
        lines.append(f"monotone decreasing: {'yes' if self.monotone else 'no'}")
        for d, msg in self.failures.items():
            lines.append(f"failure at delta={d:g}: {msg}")
        return "\n".join(lines) + "\n"

    def to_csv(self):
        lines = ["delta_coarse,delta_fine,distance"]
        for (d1, d2), dist in self.pairwise_dists.items():
            lines.append(f"{d1:.17g},{d2:.17g},{dist:.17g}")
        return "\n".join(lines) + "\n"


def _conserved_distance(s1, s2, grid, params):
    """L2 distance in the conserved variables (rho, rho*u, b, rho*e);
    both states must share the grid."""
    pieces = [
        s1.rho - s2.rho,
        s1.rho * s1.u - s2.rho * s2.u,
        params.c_v * (s1.rho * s1.theta - s2.rho * s2.theta),
    ]
    total = sum(float((p * p).sum()) for p in pieces)
    db = s1.b - s2.b
    total += float((db * db).sum())
    return float(np.sqrt(total * grid.dx))


def continuation_study(base, deltas, t_end, grid, params, cfg=None):
    """Run the regularized problem for each delta and compare final states.

    deltas must be strictly decreasing and positive, and t_end positive.
    Individual run failures are recorded and the study continues; pairs
    touching a failed run are skipped.
    """
    if t_end <= 0.0:  # nan and inf fail run's own check, which names them too
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    deltas = tuple(float(d) for d in deltas)
    if any(d <= 0.0 for d in deltas):
        raise ValueError("all regularization shifts must be positive")
    if any(deltas[i + 1] >= deltas[i] for i in range(len(deltas) - 1)):
        raise ValueError("regularization shifts must be strictly decreasing")

    finals = {}
    failures = {}
    for d in deltas:
        data = regularize(base, d)
        try:
            finals[d] = run(data, t_end, grid, params, cfg)
        except SimulationError as err:
            failures[d] = str(err)

    pairwise = {}
    for d1, d2 in zip(deltas, deltas[1:]):
        if d1 in finals and d2 in finals:
            pairwise[(d1, d2)] = _conserved_distance(finals[d1], finals[d2], grid, params)
    dists = list(pairwise.values())
    monotone = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    return ContinuationReport(deltas, pairwise, monotone, failures)


# ---------------------------------------------------------------------------
# embedding inequality check

def embedding_check(state, grid, trials=100, seed=0, exponents=(1.0,)):
    """Sampled sharpness check of the density-weighted sup-norm bound

        ||v||_inf <= (K/M) ||v_x||_L2 + (1/M) |integral rho v|

    with M = K = total mass of the state.  The test functions are low-order
    Fourier series with decaying coefficients from one seeded draw, built as
    one (trials, n) array; each is also raised to the given powers (|v|**r
    for r != 1).  Returns the worst ratio of left to right side over rows
    with a nonzero right side, which the inequality keeps <= 1 up to rounding.
    The draw (an integer seed) depends on no state and is kept for the last
    (n_cells, trials, seed, exponents); per state only the mass and the
    rho-weighted averages are computed.
    """
    mass = total_mass(state, grid)
    if mass <= 0.0:
        raise ValueError("embedding check needs strictly positive total mass")
    worst = 0.0
    for vr, sup, seminorm in _test_functions(grid, trials, seed, tuple(exponents)):
        average = np.abs((state.rho * vr).sum(axis=1) * grid.dx) / mass
        denom = seminorm + average
        nonzero = denom != 0.0
        # fmax skips NaN ratios, as a running Python max does
        worst = float(np.fmax.reduce(sup[nonzero] / denom[nonzero], initial=worst))
    return worst


_DRAWN = [None, None]  # key, the test functions of the last draw


def _test_functions(grid, trials, seed, exponents):
    """(|v|**r, its sup, its slope's L2 seminorm) per exponent r of the seeded
    draw, kept for the last key, so an audit draws once for all its
    snapshots."""
    key = (grid.n_cells, trials, seed, exponents)
    if _DRAWN[0] != key:
        x, dx = grid.cell_centers, grid.dx
        modes = 8
        coeffs = np.random.default_rng(seed).standard_normal((trials, 2 * modes + 1))
        v = coeffs[:, :1]
        for k in range(1, modes + 1):
            v = v + (coeffs[:, 2 * k - 1, None] * np.cos(k * np.pi * x)
                     + coeffs[:, 2 * k, None] * np.sin(k * np.pi * x)) / k ** 2
        functions = []
        for r in exponents:
            vr = v if r == 1.0 else np.abs(v) ** r
            slope = np.diff(vr, axis=1) / dx
            functions.append((vr, np.abs(vr).max(axis=1),
                              np.sqrt((slope * slope).sum(axis=1) * dx)))
        _DRAWN[:] = key, functions
    return _DRAWN[1]
