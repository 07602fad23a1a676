"""Conservation, entropy, dissipation, and norm diagnostics.

All functionals are midpoint-rule integrals over cell centers.  Temperature
divisions are regularized with a documented floor of 1e-30 so vacuum and
cold cells produce large-but-finite entries instead of NaNs.

The companion potential phi tracks the time integral of the effective
pressure ptilde = lambda*u_x - rho*u^2 - P - |b|^2/2 with phi_x = rho*u at
t = 0, so that max_i rho_i * exp(phi_i) is a computable upper-bound monitor
for the density: along exact dynamics d/dt(rho e^phi) <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .operators import EVEN, cell_grad, dot2, l2, second_diff_onesided

# floor used in every division by theta
THETA_FLOOR = 1e-30


def total_energy(state, grid, params):
    """Integral of rho*(c_v*theta + (u^2 + |w|^2)/2) + |b|^2/2."""
    kinetic = 0.5 * (state.u * state.u + dot2(state.w, state.w))
    density_part = state.rho * (params.c_v * state.theta + kinetic)
    magnetic = 0.5 * state.b_sq
    return float((density_part + magnetic).sum() * grid.dx)


def total_mass(state, grid):
    return float(state.rho.sum() * grid.dx)


def entropy_functional(state, grid):
    """Integral of rho*ln(rho) + rho*|ln(theta)|, skipping vacuum cells.

    rho*ln(rho) extends continuously to zero at vacuum.  A positive-density
    cell at exactly zero temperature makes the functional +inf.
    """
    rho, theta = state.rho, state.theta
    pos = rho > 0.0
    if (pos & (theta == 0.0)).any():
        return float("inf")
    out = np.zeros_like(rho)
    out[pos] = rho[pos] * (np.log(rho[pos]) + np.abs(np.log(theta[pos])))
    return float(out.sum() * grid.dx)


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
    dx = grid.dx
    ux, wx, bx, tx = state.u_x, state.w_x, state.b_x, state.theta_x
    ux2, wx2, bx2 = ux * ux, dot2(wx, wx), dot2(bx, bx)
    theta_safe = np.maximum(state.theta, THETA_FLOOR)
    ratio = tx / theta_safe
    heat = state.kappa(params) * ratio * ratio
    mech = params.lambda_visc * ux2 + params.mu_visc * wx2 + params.nu_mag * bx2
    weighted = (mech / theta_safe ** alpha
                + (1.0 + theta_safe ** params.q_exp) * tx * tx / theta_safe ** (1.0 + alpha))
    return (dt * float(params.lambda_visc * ux2.sum() * dx),
            dt * float(params.mu_visc * wx2.sum() * dx),
            dt * float(params.nu_mag * bx2.sum() * dx),
            dt * float(heat.sum() * dx),
            dt * float(weighted.sum() * dx),
            dt * float((mech / theta_safe + heat).sum() * dx))


# ---------------------------------------------------------------------------
# the companion potential and the density-bound monitor

@dataclass(frozen=True)
class PhiField:
    phi: np.ndarray
    time: float


def initial_phi(init, grid):
    """phi(x, 0) = integral of rho0*u0 from 0 to x (midpoint cumulative)."""
    integrand = init.rho0 * init.u0
    phi = grid.dx * (np.cumsum(integrand) - 0.5 * integrand)
    phi.setflags(write=False)
    return PhiField(phi, 0.0)


def update_phi(phi, state_before, state_after, dt, grid, params):
    """Advance phi by dt times the effective pressure of state_before."""
    s = state_before
    ptilde = (params.lambda_visc * s.u_x
              - s.rho * s.u * s.u
              - s.pressure(params)
              - 0.5 * s.b_sq)
    new = phi.phi + dt * ptilde
    new.setflags(write=False)
    return PhiField(new, state_after.time)


def phi_momentum_residual(phi, state, grid):
    """L2 defect of the defining relation phi_x = rho*u."""
    return l2(cell_grad(phi.phi, grid.dx, EVEN) - state.rho * state.u, grid.dx)


def density_bound_monitor(phi, state):
    """max_i rho_i * exp(phi_i); +inf sentinel on overflow."""
    with np.errstate(over="ignore"):
        vals = state.rho * np.exp(phi.phi)
    return float(vals.max(initial=0.0))


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
    the given state pair and are zero when dt == 0 (initial record).
    """
    dx = grid.dx
    sa, sb = state_after, state_before
    sqrt_rho = np.sqrt(sa.rho)

    def d_dt(fa, fb):
        if dt == 0.0:
            return np.zeros_like(fa)
        return (fa - fb) / dt

    norms = {
        "b_t": l2(d_dt(sa.b, sb.b), dx),
        "b_x": l2(sa.b_x, dx),
        "b_xx": l2(second_diff_onesided(sa.b, dx), dx),
        "kappa_theta_x": l2(sa.kappa(params) * sa.theta_x, dx),
        "p_l2": l2(sa.pressure(params), dx),
        "rho_t": l2(d_dt(sa.rho, sb.rho), dx),
        "rho_theta_q2": float((sa.rho * sa.theta ** (params.q_exp + 2.0)).sum() * dx),
        "rho_x": l2(np.gradient(sa.rho, dx), dx),
        "sqrt_rho_theta_t": l2(sqrt_rho * d_dt(sa.theta, sb.theta), dx),
        "sqrt_rho_u_t": l2(sqrt_rho * d_dt(sa.u, sb.u), dx),
        "sqrt_rho_w_t": l2(sqrt_rho[:, None] * d_dt(sa.w, sb.w), dx),
        "theta_xx": l2(second_diff_onesided(sa.theta, dx), dx),
        "u_x": l2(sa.u_x, dx),
        "u_xx": l2(second_diff_onesided(sa.u, dx), dx),
        "w_x": l2(sa.w_x, dx),
        "w_xx": l2(second_diff_onesided(sa.w, dx), dx),
    }
    return norms


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


def csv_header():
    return ",".join(CSV_COLUMNS)


def csv_row(record):
    values = [getattr(record, name) for name in SCALAR_COLUMNS]
    values += [record.norms[name] for name in NORM_NAMES]
    return ",".join(f"{v:.17g}" for v in values)


class DiagnosticsAccumulator:
    """Stateful companion of a run: cumulative integrals plus the phi field.

    update() must be called once per accepted step, record() whenever a
    DiagnosticsRecord for the current state is wanted.
    """

    def __init__(self, init, grid, params, alpha=None):
        self.grid = grid
        self.params = params
        self.alpha = default_alpha(params) if alpha is None else check_alpha(alpha, params)
        self.phi = initial_phi(init, grid)
        self.entropy_prod = 0.0
        self.diss = [0.0, 0.0, 0.0, 0.0]
        self.weighted = 0.0
        self.theta_sup = 0.0
        self._pair = None

    def update(self, state_before, state_after, dt):
        ledger = dissipation_ledger(state_after, dt, self.grid, self.params, self.alpha)
        for i in range(4):
            self.diss[i] += ledger[i]
        self.weighted += ledger[4]
        self.entropy_prod += ledger[5]
        power = self.params.q_exp - self.alpha + 1.0
        self.theta_sup += dt * float(state_after.theta.max(initial=0.0)) ** power
        self.phi = update_phi(self.phi, state_before, state_after, dt, self.grid, self.params)
        self._pair = (state_before, dt)

    def record(self, state):
        before, dt = self._pair if self._pair is not None else (state, 0.0)
        norms = norm_suite(before, state, dt, self.grid, self.params)
        norms["phi_residual"] = phi_momentum_residual(self.phi, state, self.grid)
        norms["theta_sup_cum"] = self.theta_sup
        return DiagnosticsRecord(
            time=state.time,
            mass=total_mass(state, self.grid),
            energy=total_energy(state, self.grid, self.params),
            entropy_fn=entropy_functional(state, self.grid),
            entropy_prod_cum=self.entropy_prod,
            diss_visc=self.diss[0],
            diss_shear=self.diss[1],
            diss_mag=self.diss[2],
            diss_heat=self.diss[3],
            weighted_diss=self.weighted,
            max_rho=float(state.rho.max()),
            min_theta=float(state.theta.min()),
            max_theta=float(state.theta.max()),
            rho_F_max=density_bound_monitor(self.phi, state),
            norms=norms,
        )
