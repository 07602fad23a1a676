"""Conservation, entropy, dissipation, and norm diagnostics.

All functionals are midpoint-rule integrals over cell centers.  Temperature
divisions are regularized with a documented floor of 1e-30 so vacuum and
cold cells produce large-but-finite entries instead of NaNs.

The companion potential phi tracks the time integral of the effective
pressure ptilde = lambda*u_x - rho*u^2 - P - |b|^2/2 with phi_x = rho*u at
t = 0, so that max_i rho_i * exp(phi_i) is a computable upper-bound monitor
for the density: along exact dynamics d/dt(rho e^phi) <= 0.  phi is a
read-only (n,) array; DiagnosticsAccumulator's fold is its one advance.

DiagnosticsAccumulator.flush is the one caller of the compiled fold
(fold_rows, where operators._KERNEL is loaded); every other call runs the
numpy bodies below, which give the same bits.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import numpy as np

from . import operators
from .model import DerivedFields
from .operators import EVEN, cell_grad, column_sums, dot2, l2_columns, second_diff_onesided

# floor used in every division by theta
THETA_FLOOR = 1e-30

# A run folds WINDOW_CELLS // n_cells accepted steps at a time, and never
# fewer than MIN_WINDOW: the diagnostics accumulator and the consistency
# residual of simulate alike.  Measured per step (flush) against one step
# at a time: 64 steps at n = 128 take 0.13 of the time, 32 at n = 256 0.21,
# 16 at n = 512 0.30, 8 at n = 1024 0.45 and 8 at n = 2048 0.49 (0.86 of 4
# steps).  The kernel sums each row as it writes it, so no window holds
# its (28 W, n) integrands: 8 steps at n = 2048 peak below 4 before that.
WINDOW_CELLS = 8192
MIN_WINDOW = 8


def window_length(n_cells):
    """The number of accepted steps folded at a time on n_cells cells."""
    return max(MIN_WINDOW, WINDOW_CELLS // n_cells)


# Every functional below takes a State, whose fields are (n,) and (n, 2)
# arrays, and gives floats, or k columns of a _Stack, whose fields are
# (n, k) and (n, k, 2), and gives (k,) arrays.  Every operation is
# elementwise or acts along the cell axis 0, and the sums go through
# column_sums, so a state gets the same bits alone as in a stack.
#
# DiagnosticsAccumulator.flush is the one caller of the compiled kernel
# here (operators._KERNEL): where it is loaded, a window's residual, ledger,
# potentials, norms and record scalars come from one fold_rows pass over its
# stack's rows (_fold), which sums each integrand row as column_sums does,
# with P, kappa, every pow, the entropy's logs and the monitor's exp from
# numpy.  flush keeps the pass on the window's stack and hands that stack to
# update and record, which read it; consistency_residuals reads its residual
# when on_fold passes the window's own columns and dts (_kept).  Every other
# call runs the numpy bodies, which give the same bits: the reference, and
# the path without a C compiler.


class _Stack(DerivedFields):
    """The fields of k states side by side along a new axis 1: rho, u, w, b
    and theta are the states' fields as (n, k) or (n, k, 2) arrays, built as
    (k, n) rows so every state's values stay contiguous, and the derived
    fields are computed once on those, not per state.  _fold is flush's
    fold_rows pass over the stack, or None."""

    def __init__(self, states):
        self.n_cells = states[0].n_cells
        self._states = tuple(states)  # alive while their ids index the columns
        self._index = {id(s): i for i, s in enumerate(states)}
        self._fold = None
        for name in ("rho", "u", "w", "b", "theta"):
            setattr(self, name, np.array([getattr(s, name) for s in states]).swapaxes(0, 1))

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
        self._cols = np.arange(len(whole._states))[picks]
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


def _at(rows, due):
    """The rows of the steps due, increasing indices: all of them as they are."""
    return rows if len(due) == len(rows) else rows[due]


def _fold(before, after, dts, params, alpha, phi0, due, residual):
    """flush's fold_rows pass over one window: the pairs of the columns
    before and after of its stack with their (W,) dts.  It sums the
    ledger's integrands under alpha, the records of the steps `due`
    (increasing indices) and, with residual, the residual's integrands;
    it writes each step's potential from phi0 (the one before the first
    step) and the extrema of every after column.  Returns the parts as a
    SimpleNamespace."""
    whole, picks = after._whole, after._picks
    n, k = whole.n_cells, len(dts)
    ends = list(accumulate((2 * k * residual, 6 * k, 20 * len(due))))
    sums, extrema, scratch = np.empty(ends[2]), np.empty((3, k)), np.empty(8 * n + 2)
    theta = whole.theta.T[picks]
    kappa = params.kappa_a + params.kappa_b * theta ** params.q_exp
    address = operators.address
    rows = _kernel_rows(whole)
    safe = np.maximum(theta, THETA_FLOOR)
    powers = (safe, safe ** alpha, safe ** params.q_exp, safe ** (1.0 + alpha))
    f = operators._Fold(n, k, len(due), 1.0 / n, params.lambda_visc, params.mu_visc,
                        params.nu_mag, params.gas_R, params.c_v, ctypes.addressof(rows),
                        address(before._cols), address(after._cols),
                        address(due) if len(due) else None, address(dts), address(kappa),
                        *map(address, powers), phi0=phi0.ctypes.data,
                        residual=address(sums) if residual else None, scratch=address(scratch),
                        ledger=address(sums[ends[0]:]), extrema=address(extrema))
    if len(due):
        theta_due = _at(theta, due)
        with np.errstate(divide="ignore", invalid="ignore"):  # vacuum and cold cells
            factors = (theta_due ** (params.q_exp + 2.0), np.log(_at(whole.rho.T[picks], due)),
                       np.log(theta_due))
        f.theta_q2, f.log_rho, f.log_theta = map(address, factors)
        f.record = address(sums[ends[1]:])
    # phi outlives the call (the marks keep its rows), so it comes last, above
    # the transient rows on the heap: allocated first, it let glibc trim and
    # refault the heap every window (sim-large: 7,506 against 757 minor
    # faults in the flushes of one run)
    phi = np.empty((k, n))
    f.phi = address(phi)
    operators._KERNEL.fold_rows(ctypes.byref(f))
    phi.setflags(write=False)  # each row may become a mark's potential
    return SimpleNamespace(
        cols_b=before._cols, cols_a=after._cols, dts=dts, due=due, params=params,
        extrema=extrema, phi=phi, residual=sums[:ends[0]].reshape(2, k) if residual else None,
        ledger=sums[ends[0]:ends[1]].reshape(6, k), record=sums[ends[1]:].reshape(20, -1))


def _kept(before, after, dt, params):
    """The (2, k) residual sums of the pass that flush made on the window
    whose columns before and after are, if it made them under params for
    exactly these pairs and dts; else None.  on_fold, a public hook, may
    pass on other columns or dts than the window's."""
    if not (isinstance(before, _Columns) and isinstance(after, _Columns)):
        return None
    fold = after._whole._fold
    if (fold is None or fold.residual is None or before._whole is not after._whole
            or fold.params is not params):
        return None
    pairs = zip((before._cols, after._cols, np.asarray(dt, dtype=float)),
                (fold.cols_b, fold.cols_a, fold.dts))
    return fold.residual if all(got.tobytes() == want.tobytes() for got, want in pairs) else None


def _kernel_rows(stack):
    """The kernel's struct rows of a stack: its fields as (K, n) and
    (K, n, 2) rows."""
    arrays = [getattr(stack, name).swapaxes(0, 1) for name in ("rho", "u", "w", "b", "theta")]
    rows = operators._Rows(*map(operators.address, arrays))
    rows.arrays = arrays  # alive as long as the pointers
    return rows


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
    ux, wx, bx, tx = state.u_x, state.w_x, state.b_x, state.theta_x
    ux2, wx2, bx2 = ux * ux, dot2(wx, wx), dot2(bx, bx)
    theta_safe = np.maximum(state.theta, THETA_FLOOR)
    ratio = tx / theta_safe
    heat = state.kappa(params) * ratio * ratio
    mech = params.lambda_visc * ux2 + params.mu_visc * wx2 + params.nu_mag * bx2
    weighted = (mech / theta_safe ** alpha
                + (1.0 + theta_safe ** params.q_exp) * tx * tx / theta_safe ** (1.0 + alpha))
    integrands = (ux2, wx2, bx2, heat, weighted, mech / theta_safe + heat)
    return tuple(map(_value, _ledger_totals([column_sums(f) for f in integrands], dt, grid.dx,
                                            params)))


def _ledger_totals(sums, dt, dx, params):
    """dt times the six integrals of the ledger's integrand sums, the first
    three times their coefficients (1.0 * x is x), as one array."""
    sums = np.asarray(sums)
    coefficients = np.array((params.lambda_visc, params.mu_visc, params.nu_mag, 1.0, 1.0, 1.0))
    return dt * (coefficients.reshape((6,) + (1,) * (sums.ndim - 1)) * sums * dx)


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
    """max_i rho_i * exp(phi_i); +inf sentinel on overflow.  A vacuum cell
    (rho = 0) adds 0, also where exp(phi_i) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = state.rho * np.exp(phi)
    vals[state.rho == 0.0] = 0.0
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

    @classmethod
    def _trusted(cls, *scalars, norms):
        """Built as State._trusted builds a State, by filling __dict__."""
        record = cls.__new__(cls)
        record.__dict__.update(zip(SCALAR_COLUMNS, scalars), norms=norms)
        return record


# every record field but the norms dict, in declaration order
SCALAR_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord) if f.name != "norms")

# alphabetical; norm_suite entries plus the two accumulator-owned series
NORM_NAMES = (
    "b_t", "b_x", "b_xx", "kappa_theta_x", "p_l2", "phi_residual",
    "rho_t", "rho_theta_q2", "rho_x", "sqrt_rho_theta_t", "sqrt_rho_u_t",
    "sqrt_rho_w_t", "theta_sup_cum", "theta_xx", "u_x", "u_xx", "w_x", "w_xx",
)

CSV_COLUMNS = SCALAR_COLUMNS + NORM_NAMES

# norm_suite's entries, in the order of its dict and of a fold's record rows
_SUITE_NAMES = tuple(name for name in NORM_NAMES if name not in ("phi_residual", "theta_sup_cum"))


def csv_header():
    return ",".join(CSV_COLUMNS)


_SCALARS, _NORMS = attrgetter(*SCALAR_COLUMNS), itemgetter(*NORM_NAMES)


def csv_values(record):
    """The values of a record's diagnostics.csv row, in CSV_COLUMNS order,
    for tables.format_rows."""
    return _SCALARS(record) + _NORMS(record.norms)


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
    of the dts, so each derived field is computed once per window.  Where
    the kernel is loaded, flush makes the window's one fold_rows pass
    (_fold) first and keeps it on the stack, which it hands update and
    record as _window; they read the pass from it.  An update or record
    called on its own stacks its own distinct states and runs the numpy
    bodies, as every call does without the kernel.
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
        sb, sa, dt = window.columns(befores), window.columns(afters), np.array(dts, dtype=float)
        if operators._KERNEL is not None:
            window._fold = _fold(sb, sa, dt, self.params, self.alpha, self.mark[3],
                                 np.flatnonzero(dues), self.on_fold is not None)
        if self.on_fold is not None:
            self.on_fold(sb, sa, dt)
        marks = self.update(befores, afters, dts, window)
        due = [(after, mark) for after, mark, d in zip(afters, marks, dues) if d]
        return self.record(*zip(*due), window) if due else []

    def update(self, befores, afters, dts, _window=None):
        window = _window or _chain(befores, afters)
        dt = np.array(dts, dtype=float)
        totals, phi = self.mark[2:]
        fold = window._fold
        if fold is None:
            sa, sb = window.columns(afters), window.columns(befores)
            ledger = np.array(dissipation_ledger(sa, dt, self.grid, self.params, self.alpha))
            tops = sa.theta.max(axis=0, initial=0.0)
            phis = np.cumsum(np.vstack((phi, (_ptilde(sb, self.params) * dt).T)), axis=0)[1:]
            phis.setflags(write=False)
        else:
            ledger = _ledger_totals(fold.ledger, dt, self.grid.dx, self.params)
            tops = np.maximum(fold.extrema[2], 0.0)  # theta.max(initial=0.0), NaN kept
            phis = fold.phi
        # the steps' six ledger totals in record order and theta sup terms,
        # summed in step order onto the mark's totals
        power = self.params.q_exp - self.alpha + 1.0
        steps = np.empty((len(dts) + 1, 7))
        steps[0] = totals
        steps[1:, :6] = ledger[[5, 0, 1, 2, 3, 4]].T
        steps[1:, 6] = [step_dt * top ** power for step_dt, top in zip(dts, tops.tolist())]
        marks = [(before, step_dt, tuple(row), phi) for before, step_dt, row, phi
                 in zip(befores, dts, np.cumsum(steps, axis=0)[1:].tolist(), phis)]
        self.mark = marks[-1]
        return marks

    def record(self, states, marks=None, _window=None):
        marks = marks or [self.mark] * len(states)
        grid, params = self.grid, self.params
        befores = [s if m[0] is None else m[0] for s, m in zip(states, marks)]
        window = _window or _chain(befores, states)
        sa, fold = window.columns(states), window._fold
        if fold is None:
            # a record before any step pairs its state with itself, so dt = 1 is exact
            dts = np.array([m[1] or 1.0 for m in marks])
            phis = np.array([m[3] for m in marks]).swapaxes(0, 1)
            norms = norm_suite(window.columns(befores), sa, dts, grid, params)
            norms["phi_residual"] = phi_momentum_residual(phis, sa, grid)
            scalars = (total_mass(sa, grid), total_energy(sa, grid, params),
                       entropy_functional(sa, grid), sa.rho.max(axis=0), sa.theta.min(axis=0),
                       sa.theta.max(axis=0))
        else:
            integrals = fold.record * grid.dx
            roots = np.sqrt(integrals[:17])
            # l2_columns' sqrt(sum * dx), but the plain integral rho_theta_q2
            norms = {name: integrals[6] if name == "rho_theta_q2" else root
                     for name, root in zip(_SUITE_NAMES, roots)}
            norms["phi_residual"] = roots[16]
            phis = _at(fold.phi, fold.due).T
            extrema = _at(fold.extrema.T, fold.due).T
            if not extrema.all():  # the sign of a zero is numpy's order of reduction
                extrema = sa.rho.max(axis=0), sa.theta.min(axis=0), sa.theta.max(axis=0)
            scalars = (*integrals[17:], *extrema)
        scalars += (density_bound_monitor(phis, sa),)
        # each row: mass, energy, entropy_fn, the three extrema, rho_F_max, the norms
        rows = np.array([*scalars, *norms.values()]).T.tolist()
        return [DiagnosticsRecord._trusted(s.time, *row[:3], *m[2][:6], *row[3:7],
                                           norms=dict(zip(norms, row[7:]), theta_sup_cum=m[2][6]))
                for s, m, row in zip(states, marks, rows)]
