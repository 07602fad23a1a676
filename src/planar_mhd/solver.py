"""Semi-implicit operator-split time stepper.

One step advances the system through five stages on the shared collocated
grid, in this order:

  1. conservative upwind continuity update (exact mass conservation),
  2. longitudinal momentum: upwind convection, central gradient of the
     total pressure P + |b|^2/2, backward-Euler longitudinal viscosity,
  3. transverse momentum: upwind convection of rho*w with the magnetic flux
     -b folded into the same conservative flux, backward-Euler shear
     viscosity,
  4. induction: central discretization of (u b - w)_x with the freshest
     velocities, backward-Euler magnetic diffusion,
  5. internal energy: upwind convection of rho*e, explicit heating
     lambda*u_x^2 + mu*|w_x|^2 + nu*|b_x|^2 - P*u_x at the freshest fields,
     and implicit nonlinear heat conduction solved by Picard iteration with
     frozen conductivity.

All implicit solves are written in increment form so that spatially constant
states produce exactly zero corrections: equilibria are bitwise fixed points.
Cells with density at or below the vacuum threshold carry zero velocity and
an unchanged temperature, and the faces between gas and vacuum transmit
nothing: no viscous stress, no heat.  Massless cells cannot push on the gas
or store dissipation, so insulating those faces (and pinning the vacuum rows
of every density-weighted solve) is the discrete version of that statement.
Magnetic diffusion is the one exception; b stays meaningful in vacuum.

Where the compiled kernel is loaded (operators._KERNEL), stages 1-4 and the
explicit part of stage 5 run as one step_explicit call, the Picard loop as
one conduction_solve call (one per pass unless q_exp = 2, with kappa from
numpy), and the new State takes the kernel's output unchecked
(State._trusted); otherwise numpy calls (_explicit_stages, _numpy_solve)
and the checking State constructor, the bitwise reference, do it all.  The
two calls share one fresh workspace and read the scalars of (grid, params,
cfg) from one block packed once.  The kernel makes the checks: scale_tol,
the density, finiteness and temperature checks of the stages, and min(0,
theta) of the temperature it returns (NaN if not finite), so step scans
theta only when that says there is a clip or an error to make.  The
forcing callables and every error message stay in Python on both paths.
The numpy stages solve with operators.solve_flux_system, the Python loop
that the compiled solves match; consistency_residuals runs numpy too,
unless run's on_fold hands it a window whose residual the accumulator's
compiled fold has already summed.
run calls step, and step conduction_update, once per step by module name,
because perfbench's step counter, its tracer and the tests wrap them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import operators
from .diagnostics import DiagnosticsAccumulator, _kept, _value
from .model import State, VACUUM_RHO, check_record_every, kappa, mechanical_heating, pressure
from .operators import (
    EVEN,
    ODD,
    cell_grad,
    div_faces,
    dot2,
    face_average,
    face_couplings,
    face_diff,
    flux_laplacian,
    l2_columns,
    solve_flux_system,
    upwind_face_flux,
)


class SimulationError(Exception):
    """Base class for failures while advancing the system."""


class PositivityError(SimulationError):
    """Density or temperature left its admissible range."""


class PicardError(SimulationError):
    """The nonlinear conduction iteration failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericalError(SimulationError):
    """A linear solve or array operation produced garbage."""


@dataclass(frozen=True)
class SchemeConfig:
    """Tunables of the time stepper."""

    cfl: float = 0.5
    dt_max: float = 0.05
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    theta_floor_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        for name in ("dt_max", "picard_tol"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be at least 1")
        if not 0.0 <= self.theta_floor_tol < np.inf:
            raise ValueError(
                f"theta_floor_tol must be nonnegative and finite, got {self.theta_floor_tol!r}")


@dataclass(frozen=True)
class StepReport:
    """One step: dt_used is its size, picard_iters its conduction passes, and
    clipped_cells the cells whose convected temperature was clipped to zero."""

    dt_used: float
    picard_iters: int
    clipped_cells: int


@dataclass(frozen=True)
class Forcing:
    """External source terms f(x, t) added to the five equations.

    Each entry is a callable of (cell centers, time) returning per-cell
    values ((n,) for scalar equations, (n, 2) for w and b); None means no
    forcing for that equation.  A step calls each entry once, at the cell
    centers and the new time t + dt.  For rho, u, w and b it adds dt * f
    after the explicit update (to rho, rho*u, rho*w and b); for e it adds
    f to the heating-minus-work source of the energy update.  Used by the
    manufactured-solution harness.
    """

    rho: Callable | None = None
    u: Callable | None = None
    w: Callable | None = None
    b: Callable | None = None
    e: Callable | None = None


def stable_dt(state, grid, params, cfg):
    """Advective step-size bound min(dt_max, cfl*dx / max_i(|u_i| + c_i)).

    The sound speed is c = sqrt(gas_R * theta).  The max is floored at unit
    reference speed, so a fully at-rest cold field gets the plain advective
    step cfl*dx instead of a division by zero.
    """
    speed = np.abs(state.u) + np.sqrt(params.gas_R * state.theta)
    fastest = max(float(speed.max()), 1.0)
    return min(cfg.dt_max, cfg.cfl * grid.dx / fastest)


def advect_density(rho, u, dt, grid):
    """Stage 1: conservative first-order upwind continuity update."""
    uf = face_average(u, ODD)
    return rho - dt * div_faces(upwind_face_flux(uf, rho), grid.dx)


def _require_nonnegative(arr, floor_tol, what, stage):
    """Clip roundoff-level undershoots to zero; fail on genuine ones and on
    NaN or inf, naming the stage that produced it."""
    low = float(arr.min(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(arr.max(initial=0.0))):
        raise NumericalError(f"{stage} produced a non-finite {what}")
    if low < -floor_tol:
        raise PositivityError(f"{what} reached {low:.6g}, beyond the allowed undershoot"
                              f" {floor_tol:.3g}; the step size is too large for this data")
    if low < 0.0:
        arr = np.maximum(arr, 0.0)
    return arr


def _require_finite(u1, w1, b1):
    """Fail on a NaN or inf in the fields of stages 2-4.  One sum carries it
    to a non-finite total; only then is the first such field looked for."""
    if math.isfinite(u1.sum() + w1.sum() + b1.sum()):
        return
    for name, field, stage in (("u", u1, "stage 2 (longitudinal momentum)"),
                               ("w", w1, "stage 3 (transverse momentum)"),
                               ("b", b1, "stage 4 (induction)")):
        if not np.isfinite(field).all():
            raise NumericalError(f"{stage} produced a non-finite {name}")


def _vacuum_faces(vac):
    """Faces touching a vacuum cell: stress-free and insulated."""
    faces = np.zeros(vac.shape[0] + 1, dtype=bool)
    faces[:-1] |= vac
    faces[1:] |= vac
    return faces


def _forcing_terms(forcing, x, t, dt):
    """The forcing terms of one step in field order (rho, u, w, b, e): dt *
    f(x, t) for the first four and f(x, t) for e, which enters the energy
    source; None where there is no such entry.  Each entry is called once."""
    if forcing is None:
        return (None,) * 5
    return tuple(None if f is None else scale * f(x, t)
                 for f, scale in ((forcing.rho, dt), (forcing.u, dt), (forcing.w, dt),
                                  (forcing.b, dt), (forcing.e, 1.0)))


def _plus(value, term):
    """value + term, or value as is when there is no term."""
    return value if term is None else value + term


def _implicit(cap, off, tilde):
    """Increment-form backward Euler: tilde + (diag(cap) - L)^-1 L tilde."""
    return tilde + solve_flux_system(cap, off, flux_laplacian(off, tilde))


_CONVERGED, _NOT_CONVERGED, _NON_FINITE, _ZERO_PIVOT = range(4)  # conduction_solve's codes


def _numpy_solve(theta_tilde, rho, dt, grid, params, cfg):
    """The Picard loop of conduction_update as numpy calls, the reference
    that conduction_solve of the compiled kernel matches bit for bit.
    Returns (theta, code, passes, change, scale): the last iterate, one of
    the codes above, the passes run, and the last pass's max|theta_next -
    theta_k| and max|theta_k| + 1e-30, the scale of the stop test."""
    dx = grid.dx
    vac = rho <= VACUUM_RHO
    face_insulated = _vacuum_faces(vac)
    face_insulated[[0, -1]] = True  # insulated walls
    cap = np.where(vac, 1.0, params.c_v * rho / dt)
    theta_k = theta_tilde
    for passes in range(1, cfg.picard_max_iters + 1):
        kf = face_average(kappa(np.maximum(theta_k, 0.0), params), EVEN)
        off = kf / (dx * dx)
        off[face_insulated] = 0.0
        try:
            theta_next = _implicit(cap, off, theta_tilde)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return theta_k, _ZERO_PIVOT, passes, math.nan, math.nan
        change = float(np.abs(theta_next - theta_k).max())
        scale = float(np.abs(theta_k).max()) + 1e-30
        theta_k = theta_next
        if not math.isfinite(change):
            return theta_k, _NON_FINITE, passes, change, scale
        if change <= cfg.picard_tol * scale:
            return theta_k, _CONVERGED, passes, change, scale
    return theta_k, _NOT_CONVERGED, passes, change, scale


_REPORT = 5  # the report slots that open a workspace (layout in _pivot.c)
_PASSES, _CHANGE, _SCALE, _LOWEST, _SCALE_TOL = range(_REPORT)
_BOUND = (None,) * 4  # the last (grid, params, cfg) bound, and its constants


def _constants(grid, params, cfg):
    """The scalars both kernels read, packed once into a read-only block in
    _pivot.c's order and kept for the last (grid, params, cfg): (block, its
    address).  The caller holds the pair while the kernel reads it."""
    global _BOUND
    kept = _BOUND
    if not (kept[0] is grid and kept[1] is params and kept[2] is cfg):
        block = np.array([grid.n_cells, grid.dx, params.lambda_visc, params.mu_visc,
                          params.nu_mag, params.gas_R, params.c_v, VACUUM_RHO,
                          cfg.theta_floor_tol, params.kappa_a, params.kappa_b, cfg.picard_tol,
                          cfg.picard_max_iters], dtype=np.float64)
        kept = _BOUND = (grid, params, cfg, (block, operators.address(block)))
        block.setflags(write=False)
    return kept[3]


def _fresh_workspace(grid, params, cfg):
    """One step's workspace (layout in _pivot.c) and the theta array that
    conduction_solve writes: (_constants, ws, theta, and the addresses of
    ws and theta)."""
    n = grid.n_cells
    ws, theta = np.empty(25 * n + 13), np.empty(n)
    return (_constants(grid, params, cfg), ws, theta, operators.address(ws),
            operators.address(theta))


def _compiled_solve(theta_tilde, rho, dt, grid, params, cfg, workspace=None):
    """_numpy_solve in the compiled kernel: one conduction_solve call at
    q_exp = 2, where the kernel evaluates kappa as numpy evaluates theta **
    2.0, and one call per pass on kappa by numpy otherwise.  workspace is
    step's _fresh_workspace, whose ws holds theta_tilde and rho already;
    without it both go into a new one.  The kernel writes the returned
    theta, an array of its own."""
    kernel, n = operators._KERNEL, grid.n_cells
    if workspace is None:
        workspace = _fresh_workspace(grid, params, cfg)
        workspace[1][_PASSES] = 0.0
        np.concatenate((theta_tilde, rho), out=workspace[1][_REPORT:_REPORT + 2 * n])
    consts, ws, theta, address, theta_at = workspace
    if ws.size != 25 * n + 13 or theta.size != n:
        raise ValueError(f"a workspace of {n} cells needs 25n + 13 and n values")
    if params.q_exp == 2.0:
        code = kernel.conduction_solve(consts[1], dt, None, address, theta_at)
    else:
        theta_k = theta_tilde
        for _ in range(cfg.picard_max_iters):
            kap = kappa(np.maximum(theta_k, 0.0), params)  # held while the kernel reads it
            code = kernel.conduction_solve(consts[1], dt, operators.address(kap), address,
                                           theta_at)
            theta_k = theta
            if code != _NOT_CONVERGED:
                break
    passes, change, scale = ws[_PASSES:_SCALE + 1].tolist()
    return theta, code, int(passes), change, scale


def conduction_update(theta_tilde, rho, dt, grid, params, cfg, _workspace=None):
    """Stage-5 implicit conduction solve (exposed for direct testing).

    Picard iteration on (c_v rho/dt)(theta - theta_tilde) = (kappa(theta)
    theta_x)_x with conductivity frozen at the previous iterate.  Wall faces
    carry zero flux (insulated); faces touching vacuum cells are likewise
    insulated and vacuum cells are pinned at their incoming value, which is
    how "temperature is carried through vacuum" is realized.  Each linear
    pass solves a symmetric M-matrix system for the increment x and returns
    theta_tilde + x, which keeps the discrete maximum principle only up to
    the rounding of that sum: where the capacity c_v rho / dt is far below
    the face couplings, it can cancel a cell's heat outright.  The loop runs
    in the compiled kernel when it is loaded (operators._KERNEL), which
    evaluates kappa too at q_exp = 2, and as numpy calls otherwise.
    _workspace is for step alone, passed by position so that wrappers pass
    it on: the compiled step's workspace, whose ws holds theta_tilde and
    rho already and whose addresses the kernel trusts (_compiled_solve).

    Returns (theta_new, picard_iterations).
    """
    args = theta_tilde, rho, dt, grid, params, cfg
    theta, code, passes, change, scale = (_numpy_solve(*args) if operators._KERNEL is None
                                          else _compiled_solve(*args, _workspace))
    if code == _CONVERGED:
        return theta, passes
    if code == _ZERO_PIVOT:  # pragma: no cover - defensive
        raise NumericalError("conduction solve failed: flux system has a zero pivot")
    if code == _NON_FINITE:
        raise NumericalError(f"conduction pass {passes} produced a non-finite"
                             f" temperature (change {change})")
    raise PicardError(
        f"conduction iteration did not converge within {cfg.picard_max_iters} passes"
        f" (last relative change {change / scale:.3g})",
        residual=change / scale,
    )


def _explicit_stages(state, dt, grid, params, cfg, terms, scale_tol):
    """Stages 1-4 and stage 5 up to theta_tilde as numpy calls: the
    reference that step_explicit of the compiled kernel matches bit for bit.

    Returns (rho1, u1, w1, b1, theta_tilde, clipped_cells)."""
    dx = grid.dx
    rho0, u0, w0, b0, th0 = state.rho, state.u, state.w, state.b, state.theta
    f_rho, f_u, f_w, f_b, f_e = terms
    uf = state.u_face
    bf = state.b_face

    # stage 1: continuity
    rho1 = _require_nonnegative(_plus(advect_density(rho0, u0, dt, grid), f_rho), scale_tol,
                                "density", "stage 1 (continuity)")
    vac = rho1 <= VACUUM_RHO
    rho_safe = np.maximum(rho1, VACUUM_RHO)
    vac_face = _vacuum_faces(vac)
    cap_gas = np.where(vac, 1.0, rho1 / dt)

    # stage 2: longitudinal momentum
    ptot = state.pressure(params) + 0.5 * state.b_sq
    m_star = (rho0 * u0
              - dt * div_faces(upwind_face_flux(uf, rho0 * u0), dx)
              - dt * cell_grad(ptot, dx, EVEN))
    u_tilde = np.where(vac, 0.0, _plus(m_star, f_u) / rho_safe)
    off_u = face_couplings(grid.n_cells, params.lambda_visc, dx, ODD)
    off_u[vac_face] = 0.0
    u1 = _implicit(cap_gas, off_u, u_tilde)

    # stage 3: transverse momentum (the -b part rides in the same flux)
    flux_w = upwind_face_flux(uf, rho0[:, None] * w0) - bf
    mw_star = _plus(rho0[:, None] * w0 - dt * div_faces(flux_w, dx), f_w)
    w_tilde = np.where(vac[:, None], 0.0, mw_star / rho_safe[:, None])
    off_w = face_couplings(grid.n_cells, params.mu_visc, dx, ODD)
    off_w[vac_face] = 0.0
    w1 = _implicit(cap_gas, off_w, w_tilde)

    # stage 4: induction, with the freshest velocities (valid in vacuum too)
    uf1 = face_average(u1, ODD)
    flux_b = uf1[:, None] * bf - face_average(w1, ODD)
    b_star = _plus(b0 - dt * div_faces(flux_b, dx), f_b)
    off_b = face_couplings(grid.n_cells, params.nu_mag, dx, ODD)
    cap_b = np.full(grid.n_cells, 1.0 / dt)
    b1 = _implicit(cap_b, off_b, b_star)
    _require_finite(u1, w1, b1)

    # stage 5: internal energy, up to the convected temperature
    energy0 = params.c_v * rho0 * th0
    du_f = face_diff(u1, dx, ODD)
    dw_f = face_diff(w1, dx, ODD)
    du_f[vac_face] = 0.0
    dw_f[vac_face] = 0.0
    db_f = face_diff(b1, dx, ODD)
    heat_f = mechanical_heating(du_f, dw_f, db_f, params)
    heating = 0.5 * (heat_f[:-1] + heat_f[1:])
    work = pressure(rho1, th0, params) * cell_grad(u1, dx, ODD)
    source = _plus(heating - work, f_e)
    energy_star = (energy0
                   - dt * div_faces(upwind_face_flux(uf, energy0), dx)
                   + dt * source)
    theta_tilde = np.where(vac, th0, energy_star / (params.c_v * rho_safe))
    clipped = int(np.count_nonzero(theta_tilde < 0.0))
    theta_tilde = _require_nonnegative(theta_tilde, cfg.theta_floor_tol, "temperature",
                                       "stage 5 (internal energy)")
    return rho1, u1, w1, b1, theta_tilde, clipped


def _as_kernel_term(term, shape):
    """A forcing term as step_explicit reads it, a writable C-contiguous
    float64 array of the step's shape: the term itself when it is one,
    which a forced MMS step's terms are, else a fresh copy of it broadcast
    to that shape (raising as np.broadcast_to does when it does not fit)."""
    if (type(term) is np.ndarray and term.shape == shape and term.dtype == np.float64
            and term.flags.c_contiguous and term.flags.writeable):
        return term
    return np.array(np.broadcast_to(term, shape), dtype=np.float64, order="C")


def _compiled_step(kernel, state, dt, grid, params, cfg, terms):
    """step as one step_explicit call and one conduction_update in one
    fresh workspace, into which the incoming State is copied.  The new
    State owns the block step_explicit writes (rho, u, w, b) and the theta
    conduction_solve writes.  When a check fails in step_explicit, the
    numpy stages run again on the same terms, so the error is raised, and
    worded, where they raise it."""
    n = grid.n_cells
    workspace = _fresh_workspace(grid, params, cfg)
    consts, ws, theta, address, _ = workspace
    block = np.empty(6 * n)
    np.concatenate((state.rho, state.u, state.w.ravel(), state.b.ravel(), state.theta),
                   out=ws[_REPORT + 2 * n:_REPORT + 9 * n])
    forced = [None if term is None else _as_kernel_term(term, shape)
              for term, shape in zip(terms, ((n,), (n,), (n, 2), (n, 2), (n,)))]
    clipped = kernel.step_explicit(consts[1], dt, *(None if f is None else operators.address(f)
                                                    for f in forced),
                                   address, operators.address(block))
    if clipped < 0:
        _explicit_stages(state, dt, grid, params, cfg, terms, float(ws[_SCALE_TOL]))
        raise RuntimeError("the compiled step failed a check that the numpy step passes")
    block.setflags(write=False)  # and so every view of it
    theta1, iters = conduction_update(ws[_REPORT:_REPORT + n], block[:n], dt, grid, params, cfg,
                                      workspace)
    # the kernel reports min(0, theta), NaN if not finite, for the theta it wrote
    if theta1 is not theta or not ws[_LOWEST] == 0.0:
        theta1 = _require_nonnegative(theta1, float(ws[_SCALE_TOL]),
                                      "temperature (post conduction)", "stage 5 (conduction)")
    theta1.setflags(write=False)
    pairs = block.reshape(3, n, 2)  # [1] and [2] are w and b
    new = State._trusted(state.time + dt, block[:n], block[n:2 * n], pairs[1], pairs[2], theta1)
    report = StepReport.__new__(StepReport)  # its __dict__ filled, as State._trusted fills one
    report.__dict__.update(dt_used=dt, picard_iters=iters, clipped_cells=clipped)
    return new, report


def step(state, dt, grid, params, cfg, forcing=None):
    """Advance one operator-split step of size dt.

    Returns (new_state, StepReport).  dt is trusted to satisfy the stable_dt
    bound; violating it surfaces as a positivity failure, not silent damage.
    Each forcing entry is called once, before the stages run.  The step is
    _compiled_step where the compiled kernel is loaded (operators._KERNEL),
    numpy calls otherwise; both give the same bits.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    terms = _forcing_terms(forcing, grid.cell_centers, state.time + dt, dt)
    kernel = operators._KERNEL
    if kernel is not None:
        return _compiled_step(kernel, state, dt, grid, params, cfg, terms)
    scale_tol = 64.0 * np.finfo(float).eps * max(1.0, float(state.rho.max(initial=0.0)))
    rho1, u1, w1, b1, theta_tilde, clipped = _explicit_stages(state, dt, grid, params, cfg, terms,
                                                              scale_tol)
    theta1, iters = conduction_update(theta_tilde, rho1, dt, grid, params, cfg)
    theta1 = _require_nonnegative(theta1, scale_tol, "temperature (post conduction)",
                                  "stage 5 (conduction)")
    return State(state.time + dt, rho1, u1, w1, b1, theta1), StepReport(dt, iters, clipped)


def consistency_residuals(state_before, state_after, dt, grid, params):
    """Discrete residuals of the two balances the state should inherit.

    The evolved fields satisfy, up to discretization error, a magnetic
    energy balance

        (|b|^2/2)_t + b.(u b - w)_x = nu (b.b_x)_x - nu |b_x|^2

    and an effective pressure balance

        P_t + (u P)_x - (gas_R/c_v)(kappa theta_x)_x
            = (gas_R/c_v)(lambda u_x^2 + mu |w_x|^2 + nu |b_x|^2 - P u_x).

    Returns the discrete L2 norms (r_mag, r_pressure), with time derivatives
    from the state pair and spatial terms at state_after.  The k columns of
    a diagnostics window's stack (DiagnosticsAccumulator) take the (k,) dts
    of their pairs and give two (k,) arrays, each entry with the bits of its
    pair alone.  Called through run's on_fold with a window's own columns
    and dts, it reads the two integrand sums from the fold_rows pass that
    the accumulator's flush made, where the compiled kernel is loaded, with
    the same bits; every other call runs the numpy body below.
    """
    if not (np.asarray(dt) > 0.0).all():
        raise ValueError(f"dt must be positive, got {dt!r}")
    dx = grid.dx
    kept = _kept(state_before, state_after, dt, params)
    if kept is not None:
        r_mag, r_pre = np.sqrt(kept * dx)
        return r_mag, r_pre
    sa, sb = state_after, state_before
    nu = params.nu_mag
    r_over_cv = params.gas_R / params.c_v

    u, w, b, th = sa.u, sa.w, sa.b, sa.theta
    ux, bx = sa.u_x, sa.b_x

    de_mag = 0.5 * (sa.b_sq - sb.b_sq) / dt
    advect = dot2(b, cell_grad(u[..., None] * b - w, dx, ODD))
    bbx_face = dot2(sa.b_face, face_diff(b, dx, ODD))
    r_mag = de_mag + advect - nu * div_faces(bbx_face, dx) + nu * dot2(bx, bx)

    p_after = sa.pressure(params)
    p_before = sb.pressure(params)
    cond_face = face_average(sa.kappa(params), EVEN) * face_diff(th, dx, EVEN)
    flux = sa.u_face * face_average(p_after, EVEN) - r_over_cv * cond_face
    src = r_over_cv * (mechanical_heating(ux, sa.w_x, bx, params) - p_after * ux)
    r_pre = (p_after - p_before) / dt + div_faces(flux, dx) - src
    return _value(l2_columns(r_mag, dx)), _value(l2_columns(r_pre, dx))


def run(init, t_end, grid, params, cfg=None, sink=None, *, record_every=1,
        alpha=None, forcing=None, snapshot_times=(), snapshot_sink=None,
        on_step=None, on_fold=None):
    """March the system from the initial data to t_end.

    The step size follows stable_dt, truncated to land exactly on t_end and
    on every requested snapshot time.  When a sink is given, a full
    diagnostics record is produced for the initial state, every
    record_every-th step (a whole number, at least 1, checked with t_end
    before any step), and the final state.  The accumulator folds the
    accepted steps a window at a time (DiagnosticsAccumulator.window, at
    most that many steps held), so the sink gets the same records in the
    same order, but delivered at each window end, at t_end, and before an
    exception leaves the loop.  Step failures are re-raised annotated with
    the step index and time.  The initial data is not checked for
    admissibility; callers that want the check run
    initial.compatibility_residuals first.

    After each accepted step, on_step(before, after, report) gets the state
    the step started from (the previous call's after), the state it made and
    its StepReport, with after.time == before.time + report.dt_used.  With
    a sink, on_fold(befores, afters, dts) gets each window as the
    accumulator folds it: its befores and afters as columns of the window's
    one stack and the (W,) array of their dts, also for a window of one
    step (DiagnosticsAccumulator).
    """
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end!r}")
    check_record_every(record_every)
    if cfg is None:
        cfg = SchemeConfig()
    state = init.to_state()
    acc = (DiagnosticsAccumulator(init, grid, params, alpha=alpha, on_fold=on_fold)
           if sink is not None else None)
    if sink is not None:
        sink(*acc.record([state]))

    snaps = []
    if snapshot_sink is not None:
        snaps = sorted({float(t) for t in snapshot_times if 0.0 <= t <= t_end})
        if snaps and snaps[0] == 0.0:
            snapshot_sink(state)
            snaps.pop(0)

    eps_end = 1e-14 * max(1.0, t_end)
    step_idx = 0
    try:
        while state.time < t_end - eps_end:
            dt = min(stable_dt(state, grid, params, cfg), t_end - state.time)
            if snaps:
                dt = min(dt, snaps[0] - state.time)
            try:
                new_state, report = step(state, dt, grid, params, cfg, forcing)
            except SimulationError as err:
                err.args = (f"step {step_idx} at t = {state.time:.8g}: {err}",)
                raise
            step_idx += 1
            if on_step is not None:
                on_step(state, new_state, report)
            before, state = state, new_state
            if snaps and state.time >= snaps[0] - 1e-12 * max(1.0, snaps[0]):
                snapshot_sink(state)
                snaps.pop(0)
            if acc is not None:
                due = step_idx % record_every == 0 or state.time >= t_end - eps_end
                for record in acc.hold(before, state, dt, due):
                    sink(record)
    finally:
        if acc is not None:
            for record in acc.flush():
                sink(record)
    return state
