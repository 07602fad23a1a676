"""Conservation, entropy, dissipation, and norm diagnostics.

All functionals are midpoint-rule integrals over cell centers.  Temperature
divisions are regularized with a documented floor of 1e-30 so vacuum and
cold cells produce large-but-finite entries instead of NaNs.

The companion potential phi tracks the time integral of the effective
pressure ptilde = lambda*u_x - rho*u^2 - P - |b|^2/2 with phi_x = rho*u at
t = 0, so that max_i rho_i * exp(phi_i) is a computable upper-bound monitor
for the density: along exact dynamics d/dt(rho e^phi) <= 0.  phi is a
read-only (n,) array; DiagnosticsAccumulator's fold is its one advance.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields

import numpy as np

from . import operators
from .model import DerivedFields
from .operators import EVEN, cell_grad, column_sums, dot2, l2_columns, second_diff_onesided

# floor used in every division by theta
THETA_FLOOR = 1e-30

# A run folds WINDOW_CELLS // n_cells accepted steps at a time, and never
# fewer than MIN_WINDOW: the diagnostics accumulator and the consistency
# residual of simulate alike.  Measured per step against one step at a
# time: 16 steps at n = 128 take 0.34 of the time, 8 at n = 256 0.44 and 4
# at n = 512 0.77.  At n = 2048 a window of 4 steps costs about what
# per-step diagnostics did, one of 1 step 1.1-1.2 times that (each state's
# derived fields are computed twice, as an after and as the next before),
# and one of 8 steps is faster but peaks about 3.3 MiB higher than 4.
WINDOW_CELLS = 2048
MIN_WINDOW = 4


def window_length(n_cells):
    """The number of accepted steps folded at a time on n_cells cells."""
    return max(MIN_WINDOW, WINDOW_CELLS // n_cells)


# Every functional below takes a State, whose fields are (n,) and (n, 2)
# arrays, and gives floats, or k columns of a _Stack, whose fields are
# (n, k) and (n, k, 2), and gives (k,) arrays.  Every operation is
# elementwise or acts along the cell axis 0, and the sums go through
# column_sums, so a state gets the same bits alone as in a stack.
#
# Where the compiled kernel is loaded (operators._KERNEL), the residual, the
# norm suite and the ledger (with the mass, energy and phi defect of a
# record and the phi increments of an update) take their integrands from
# one C pass over the stack's rows (_kernel_block), with P, kappa and every
# pow from numpy, and numpy sums each integrand row as column_sums does:
# the same bits as the numpy bodies, which stay as the reference.


class _Stack(DerivedFields):
    """The fields of k states side by side along a new axis 1: rho, u, w, b
    and theta are the states' fields as (n, k) or (n, k, 2) arrays, built as
    (k, n) rows so every state's values stay contiguous, and the derived
    fields are computed once on those, not per state."""

    def __init__(self, states):
        self.n_cells = states[0].n_cells
        self._states = tuple(states)  # alive while their ids index the columns
        self._index = {id(s): i for i, s in enumerate(states)}
        for name in ("rho", "u", "w", "b", "theta"):
            setattr(self, name, _columns([getattr(s, name) for s in states]))

    def columns(self, states):
        """The columns of states, which this stack holds, as one argument;
        a slice of the stack when they are consecutive."""
        cols = [self._index[id(s)] for s in states]
        first = cols[0]
        consecutive = cols == [*range(first, first + len(cols))]
        return _Columns(self, slice(first, first + len(cols)) if consecutive else cols)


class _Columns:
    """Some columns of a _Stack: each field and derived field is the whole
    stack's, computed once there, taken at these columns."""

    def __init__(self, whole, picks):
        self._whole, self._picks = whole, picks
        self.n_cells = whole.n_cells

    def __getattr__(self, name):  # the fields and the cached derived fields
        if name.startswith("_"):
            raise AttributeError(name)
        value = self.__dict__[name] = getattr(self._whole, name)[:, self._picks]
        return value

    def pressure(self, params):
        return self._whole.pressure(params)[:, self._picks]

    def kappa(self, params):
        return self._whole.kappa(params)[:, self._picks]


def _columns(arrays):
    return np.array(arrays).swapaxes(0, 1)


def _held(x):
    """The _Stack that holds x (a State, a _Stack or _Columns of one) and
    the indices of x's columns in it; a State is stacked alone."""
    if isinstance(x, _Columns):
        return x._whole, np.arange(len(x._whole._states))[x._picks]
    if not isinstance(x, _Stack):
        x = _Stack([x])
    return x, np.arange(len(x._states))


def _per_state(values, like):
    """(rows, k) kernel sums as like's functional gives them: a State's
    (rows,) floats, columns' (rows, k) arrays."""
    return values if isinstance(like, (_Stack, _Columns)) else values[:, 0]


def _kernel_block(entry, rows, coefficients, before, after, dt, params, factors):
    """The (rows, k, n) integrand block that kernel `entry` writes for the
    k columns of after and before, each (stack, columns) of _held, with
    their (k,) dts (a scalar dt is every column's) and the numpy factors,
    (K, n) arrays on after's stack or None."""
    (sb, cols_b), (sa, cols_a) = before, after
    n, k = sa.n_cells, len(cols_a)
    dts = np.ascontiguousarray(np.broadcast_to(np.asarray(dt, dtype=float), (k,)))
    block = np.empty((rows, k, n))
    bef, aft = _kernel_rows(sb, params), _kernel_rows(sa, params)
    getattr(operators._KERNEL, entry)(
        n, k, 1.0 / n, *coefficients, ctypes.addressof(bef), cols_b.ctypes.data,
        ctypes.addressof(aft), cols_a.ctypes.data, dts.ctypes.data,
        *(None if f is None else f.ctypes.data for f in factors), block.ctypes.data)
    return block


def _kernel_rows(stack, params):
    """The kernels' struct rows of a stack under params: its fields as
    (K, n) and (K, n, 2) rows, and its P and kappa from numpy; kept for
    the last params, as P and kappa are."""
    kept = stack.__dict__.get("_kernel_rows")
    if kept is None or kept[0] is not params:
        arrays = [np.ascontiguousarray(getattr(stack, name).swapaxes(0, 1))
                  for name in ("rho", "u", "w", "b", "theta")]
        arrays += [np.ascontiguousarray(stack.pressure(params).T),
                   np.ascontiguousarray(stack.kappa(params).T)]
        rows = operators._Rows(*(a.ctypes.data for a in arrays))
        rows.arrays = arrays  # alive as long as the pointers
        kept = stack.__dict__["_kernel_rows"] = (params, rows)
    return kept[1]


def _chain(befores, afters):
    """One stack of the distinct states of some step pairs, once each and in
    order: for a chain of W steps its first before, then each after."""
    return _Stack(list({id(s): s for pair in zip(befores, afters) for s in pair}.values()))


def _value(result):
    """A State's result as a float; a stack's (k,) array as it is."""
    return float(result) if result.ndim == 0 else result


def total_energy(state, grid, params):
    """Integral of rho*(c_v*theta + (u^2 + |w|^2)/2) + |b|^2/2."""
    kinetic = 0.5 * (state.u * state.u + dot2(state.w, state.w))
    density_part = state.rho * (params.c_v * state.theta + kinetic)
    magnetic = 0.5 * state.b_sq
    return _value(column_sums(density_part + magnetic) * grid.dx)


def total_mass(state, grid):
    return _value(column_sums(state.rho) * grid.dx)


def entropy_functional(state, grid):
    """Integral of rho*ln(rho) + rho*|ln(theta)|, skipping vacuum cells.

    rho*ln(rho) extends continuously to zero at vacuum.  A positive-density
    cell at exactly zero temperature makes the functional +inf.
    """
    rho, theta = state.rho, state.theta
    pos = rho > 0.0
    live = pos & (theta > 0.0)
    cold = (pos & ~live).any(axis=0)
    if not live.all():  # the other cells then add 1 * (ln 1 + |ln 1|) = 0
        rho, theta = np.where(live, rho, 1.0), np.where(live, theta, 1.0)
    out = rho * (np.log(rho) + np.abs(np.log(theta)))
    return _value(np.where(cold, np.inf, column_sums(out) * grid.dx))


def default_alpha(params):
    """Midpoint of the admissible weight interval (0, min(1, q_exp))."""
    return 0.5 * min(1.0, params.q_exp)


def check_alpha(alpha, params):
    upper = min(1.0, params.q_exp)
    if not 0.0 < alpha < upper:
        raise ValueError(
            f"alpha must lie in the open interval (0, min(1, q_exp)) = (0, {upper:g}),"
            f" got {alpha!r}")
    return float(alpha)


def dissipation_ledger(state, dt, grid, params, alpha):
    """dt-weighted dissipation family at one state, in one pass.

    Returns (viscous, shear, magnetic, heat, weighted, entropy_production):

    - the dissipation integrals of lambda*u_x^2, mu*|w_x|^2, nu*|b_x|^2 and
      kappa(theta) * (theta_x / theta)^2;
    - the degenerate dissipation for a weight exponent alpha in
      (0, min(1, q_exp)),

        (lambda u_x^2 + mu |w_x|^2 + nu |b_x|^2) / theta^alpha
            + (1 + theta^q) theta_x^2 / theta^(1+alpha);

    - the entropy production: the mechanical dissipation divided by theta
      plus the conductive part.  Nonnegative by construction.
    """
    alpha = check_alpha(alpha, params)
    if operators._KERNEL is not None:
        sums = _ledger_block(state, state, dt, params, alpha)[:6].sum(axis=-1)
        return _ledger_totals(_per_state(sums, state), dt, grid.dx, params)
    ux, wx, bx, tx = state.u_x, state.w_x, state.b_x, state.theta_x
    ux2, wx2, bx2 = ux * ux, dot2(wx, wx), dot2(bx, bx)
    theta_safe = np.maximum(state.theta, THETA_FLOOR)
    ratio = tx / theta_safe
    heat = state.kappa(params) * ratio * ratio
    mech = params.lambda_visc * ux2 + params.mu_visc * wx2 + params.nu_mag * bx2
    weighted = (mech / theta_safe ** alpha
                + (1.0 + theta_safe ** params.q_exp) * tx * tx / theta_safe ** (1.0 + alpha))
    integrands = (ux2, wx2, bx2, heat, weighted, mech / theta_safe + heat)
    return _ledger_totals([column_sums(f) for f in integrands], dt, grid.dx, params)


def _ledger_totals(sums, dt, dx, params):
    visc, shear, mag, heat, weighted, production = sums
    return tuple(_value(dt * integral) for integral in (
        params.lambda_visc * visc * dx, params.mu_visc * shear * dx,
        params.nu_mag * mag * dx, heat * dx, weighted * dx, production * dx))


def _ledger_block(before, after, dt, params, alpha):
    """ledger_rows' block: rows 0-5 the ledger's integrands at after's
    columns, row 6 the phi increments ptilde * dt of before's."""
    held = _held(after)
    theta_safe = np.maximum(held[0].theta.T, THETA_FLOOR)
    factors = (theta_safe, theta_safe ** alpha, theta_safe ** params.q_exp,
               theta_safe ** (1.0 + alpha))
    return _kernel_block("ledger_rows", 7, (params.lambda_visc, params.mu_visc, params.nu_mag),
                         _held(before), held, dt, params, factors)


# ---------------------------------------------------------------------------
# the companion potential and the density-bound monitor

def initial_phi(init, grid):
    """phi(x, 0) = integral of rho0*u0 from 0 to x (midpoint cumulative)."""
    integrand = init.rho0 * init.u0
    phi = grid.dx * (np.cumsum(integrand) - 0.5 * integrand)
    phi.setflags(write=False)
    return phi


def _ptilde(s, params):
    return (params.lambda_visc * s.u_x
            - s.rho * s.u * s.u
            - s.pressure(params)
            - 0.5 * s.b_sq)


def phi_momentum_residual(phi, state, grid):
    """L2 defect of the defining relation phi_x = rho*u."""
    defect = cell_grad(phi, grid.dx, EVEN) - state.rho * state.u
    return _value(l2_columns(defect, grid.dx))


def density_bound_monitor(phi, state):
    """max_i rho_i * exp(phi_i); +inf sentinel on overflow."""
    with np.errstate(over="ignore"):
        vals = state.rho * np.exp(phi)
    return _value(vals.max(axis=0, initial=0.0))


def monitor_drift(records):
    """Largest relative rise of rho_F_max above its running minimum over a
    run's records; +inf once the monitor has overflowed."""
    drift = 0.0
    running = float("inf")
    for r in records:
        if r.rho_F_max < running:
            running = r.rho_F_max
        if running > 0.0 and np.isfinite(r.rho_F_max):
            drift = max(drift, r.rho_F_max / running - 1.0)
        elif not np.isfinite(r.rho_F_max):
            drift = float("inf")
    return drift


# ---------------------------------------------------------------------------
# norm suite

def norm_suite(state_before, state_after, dt, grid, params):
    """Discrete norms of the quantities the a-priori theory controls.

    First derivatives of u, w, b, theta use the solver's reflecting-ghost
    central stencils; rho_x uses one-sided differences at the walls (density
    carries no boundary condition).  Second derivatives use the 3-point
    stencil with one-sided copies at the walls.  Time-difference norms use
    the given state pair and are zero when dt == 0 (initial record).  The k
    columns of two stacks take the (k,) dts of their pairs, none of them 0.
    """
    dx = grid.dx
    sa, sb = state_after, state_before
    if np.ndim(dt) == 0 and dt == 0.0:
        sb, dt = sa, 1.0  # zero differences over a unit step
    if operators._KERNEL is not None:
        sums = _norm_block(sb, sa, dt, params).sum(axis=-1)
        return {name: _value(value) for name, value in _norms(_per_state(sums, sa), dx).items()}
    # a stack's (n, k, 2) fields take their column's dt along axis 1
    dt2 = dt[:, None] if np.ndim(dt) else dt
    sqrt_rho = np.sqrt(sa.rho)

    def length(v):
        return np.sqrt(dot2(v, v))

    norms = {
        "b_t": l2_columns(length((sa.b - sb.b) / dt2), dx),
        "b_x": l2_columns(length(sa.b_x), dx),
        "b_xx": l2_columns(length(second_diff_onesided(sa.b, dx)), dx),
        "kappa_theta_x": l2_columns(sa.kappa(params) * sa.theta_x, dx),
        "p_l2": l2_columns(sa.pressure(params), dx),
        "rho_t": l2_columns((sa.rho - sb.rho) / dt, dx),
        "rho_theta_q2": column_sums(sa.rho * sa.theta ** (params.q_exp + 2.0)) * dx,
        "rho_x": l2_columns(np.gradient(sa.rho, dx, axis=0), dx),
        "sqrt_rho_theta_t": l2_columns(sqrt_rho * ((sa.theta - sb.theta) / dt), dx),
        "sqrt_rho_u_t": l2_columns(sqrt_rho * ((sa.u - sb.u) / dt), dx),
        "sqrt_rho_w_t": l2_columns(length(sqrt_rho[..., None] * ((sa.w - sb.w) / dt2)), dx),
        "theta_xx": l2_columns(second_diff_onesided(sa.theta, dx), dx),
        "u_x": l2_columns(sa.u_x, dx),
        "u_xx": l2_columns(second_diff_onesided(sa.u, dx), dx),
        "w_x": l2_columns(length(sa.w_x), dx),
        "w_xx": l2_columns(length(second_diff_onesided(sa.w, dx)), dx),
    }
    return {name: _value(value) for name, value in norms.items()}


def _norms(sums, dx):
    """norm_suite's dict from the sixteen sums of norm_rows' integrands:
    l2_columns' sqrt(sum * dx), but the plain integral rho_theta_q2."""
    integrals = sums * dx
    return {name: value if name == "rho_theta_q2" else np.sqrt(value)
            for name, value in zip(_SUITE_NAMES, integrals)}


def _norm_block(before, after, dt, params, phi=None):
    """norm_rows' block at after's columns against before's with their dts;
    with phi, the (k, n) potentials of the columns, 19 rows: norm_suite's,
    then the integrands of total_mass, total_energy and the phi defect."""
    held = _held(after)
    theta_q2 = held[0].theta.T ** (params.q_exp + 2.0)
    return _kernel_block("norm_rows", 16 if phi is None else 19, (params.c_v,), _held(before),
                         held, dt, params, (theta_q2, phi))


# ---------------------------------------------------------------------------
# records and their CSV schema

@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    mass: float
    energy: float
    entropy_fn: float
    entropy_prod_cum: float
    diss_visc: float
    diss_shear: float
    diss_mag: float
    diss_heat: float
    weighted_diss: float
    max_rho: float
    min_theta: float
    max_theta: float
    rho_F_max: float
    norms: dict


# every record field but the norms dict, in declaration order
SCALAR_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord) if f.name != "norms")

# alphabetical; norm_suite entries plus the two accumulator-owned series
NORM_NAMES = (
    "b_t", "b_x", "b_xx", "kappa_theta_x", "p_l2", "phi_residual",
    "rho_t", "rho_theta_q2", "rho_x", "sqrt_rho_theta_t", "sqrt_rho_u_t",
    "sqrt_rho_w_t", "theta_sup_cum", "theta_xx", "u_x", "u_xx", "w_x", "w_xx",
)

CSV_COLUMNS = SCALAR_COLUMNS + NORM_NAMES

# norm_suite's entries, in the order of its dict and of norm_rows' rows
_SUITE_NAMES = tuple(name for name in NORM_NAMES if name not in ("phi_residual", "theta_sup_cum"))


def csv_header():
    return ",".join(CSV_COLUMNS)


# every value as tables.format_float writes it, one %-format per row
_CSV_TEMPLATE = ",".join(["%.17g"] * len(CSV_COLUMNS))


def csv_row(record):
    values = [getattr(record, name) for name in SCALAR_COLUMNS]
    values += [record.norms[name] for name in NORM_NAMES]
    return _CSV_TEMPLATE % tuple(values)


class DiagnosticsAccumulator:
    """Stateful companion of a run, kept as one mark: (before, dt, totals,
    phi) of the last step folded, where totals are the seven cumulative
    columns in record order (entropy_prod_cum, the four diss_* columns,
    weighted_diss, theta_sup_cum).  Before any step the mark is (None, 0.0,
    zeros, initial phi).

    update(befores, afters, dts) folds consecutive accepted steps as one
    stacked pass, in step order, and returns the mark of each step.
    record(states) gives the list of DiagnosticsRecords of a sequence of
    states, each as of its mark in `marks` or else of the current mark; a
    state whose mark has no before is paired with itself.  hold() takes
    each accepted step and whether its record is due and, once `window`
    steps are held, folds them and records the due ones with their marks;
    flush() does the same for whatever is held.  Either way the records
    have the bits of one update() and record() per step.

    Every fold, of one step or of `window`, stacks the window's distinct
    states once, in order (the W + 1 states of a chain of steps: its first
    before, then each after), and hands on_fold(befores, afters, dts),
    update and record their columns of that one stack and the (W,) array
    of the dts, so each derived field is computed once per window.  An
    update or record called on its own stacks its own distinct states.
    """

    def __init__(self, init, grid, params, alpha=None, on_fold=None):
        self.grid = grid
        self.params = params
        self.alpha = default_alpha(params) if alpha is None else check_alpha(alpha, params)
        self.mark = (None, 0.0, (0.0,) * 7, initial_phi(init, grid))
        self.window = window_length(grid.n_cells)
        self.on_fold = on_fold
        self._held = []

    def hold(self, state_before, state_after, dt, due):
        self._held.append((state_before, state_after, dt, due))
        return self.flush() if len(self._held) >= self.window else []

    def flush(self):
        if not self._held:
            return []
        befores, afters, dts, dues = zip(*self._held)
        self._held = []
        window = _chain(befores, afters)
        if self.on_fold is not None:
            self.on_fold(window.columns(befores), window.columns(afters),
                         np.array(dts, dtype=float))
        marks = self.update(befores, afters, dts, window)
        due = [(after, mark) for after, mark, d in zip(afters, marks, dues) if d]
        return self.record(*zip(*due), window) if due else []

    def update(self, befores, afters, dts, window=None):
        window = window or _chain(befores, afters)
        dt = np.array(dts, dtype=float)
        sa, sb = window.columns(afters), window.columns(befores)
        if operators._KERNEL is None:
            ledger = dissipation_ledger(sa, dt, self.grid, self.params, self.alpha)
            increments = (_ptilde(sb, self.params) * dt).T
        else:
            block = _ledger_block(sb, sa, dt, self.params, self.alpha)
            ledger = _ledger_totals(block[:6].sum(axis=-1), dt, self.grid.dx, self.params)
            increments = block[6]
        # the six ledger totals in record order, then the steps' theta sup
        rows = np.array((ledger[5], *ledger[:5], sa.theta.max(axis=0, initial=0.0))).T.tolist()
        power = self.params.q_exp - self.alpha + 1.0
        totals, phi = self.mark[2:]
        marks = []
        for before, step_dt, row, increment in zip(befores, dts, rows, increments):
            totals = (*(t + r for t, r in zip(totals, row[:6])),
                      totals[6] + step_dt * row[6] ** power)
            phi = phi + increment
            phi.setflags(write=False)
            marks.append((before, step_dt, totals, phi))
        self.mark = marks[-1]
        return marks

    def record(self, states, marks=None, window=None):
        marks = marks or [self.mark] * len(states)
        grid, params = self.grid, self.params
        befores = [s if m[0] is None else m[0] for s, m in zip(states, marks)]
        window = window or _chain(befores, states)
        sa, sb = window.columns(states), window.columns(befores)
        phi_rows = np.array([m[3] for m in marks])
        phis = phi_rows.swapaxes(0, 1)
        # a record before any step pairs its state with itself, so dt = 1 is exact
        dts = np.array([m[1] or 1.0 for m in marks])
        if operators._KERNEL is None:
            norms = norm_suite(sb, sa, dts, grid, params)
            norms["phi_residual"] = phi_momentum_residual(phis, sa, grid)
            mass, energy = total_mass(sa, grid), total_energy(sa, grid, params)
        else:
            sums = _norm_block(sb, sa, dts, params, phi_rows).sum(axis=-1)
            norms = _norms(sums[:16], grid.dx)
            mass, energy = sums[16] * grid.dx, sums[17] * grid.dx
            norms["phi_residual"] = np.sqrt(sums[18] * grid.dx)
        scalars = (mass, energy, entropy_functional(sa, grid),
                   sa.rho.max(axis=0), sa.theta.min(axis=0), sa.theta.max(axis=0),
                   density_bound_monitor(phis, sa))
        names = list(norms)
        records = []
        for s, m, row in zip(states, marks, np.array([*scalars, *norms.values()]).T.tolist()):
            mass, energy, entropy_fn, max_rho, min_theta, max_theta, rho_F_max = row[:7]
            norms = dict(zip(names, row[7:]), theta_sup_cum=m[2][6])
            records.append(DiagnosticsRecord(s.time, mass, energy, entropy_fn, *m[2][:6],
                                             max_rho, min_theta, max_theta, rho_F_max,
                                             norms=norms))
        return records
