"""Initial data: scenario library, delta-regularization, admissibility checks.

Admissibility follows the natural compatibility requirement for strong
solutions with degenerate (vacuum-touching) density: the initial force
residuals

    f1 = lambda * u0_xx - (P0 + |b0|^2 / 2)_x
    f2 = mu * w0_xx - b0_x
    f3 = (kappa(theta0) theta0_x)_x + lambda*u0_x^2 + mu*|w0_x|^2 + nu*|b0_x|^2

must be expressible as sqrt(rho0) * g with square-integrable g.  On cells
where rho0 is positive we report the L2 norms of g; on vacuum cells the
residuals themselves must vanish, and the largest leftover is reported as
worst_vacuum_violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import State, VACUUM_RHO, _frozen_array, kappa, mechanical_heating, pressure
from .operators import (
    EVEN,
    ODD,
    cell_grad,
    div_faces,
    dot2,
    face_average,
    face_diff,
    second_diff,
)
from .tables import read_state_table


@dataclass(frozen=True)
class InitialData:
    """Initial fields plus the regularization shift they carry."""

    rho0: np.ndarray
    u0: np.ndarray
    w0: np.ndarray
    b0: np.ndarray
    theta0: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.rho0).shape[0]
        for name, shape in (("rho0", (n,)), ("u0", (n,)), ("w0", (n, 2)),
                            ("b0", (n, 2)), ("theta0", (n,))):
            object.__setattr__(self, name, _frozen_array(
                getattr(self, name), shape, name, nonnegative=name == "theta0"))
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta!r}")
        if (self.rho0 < self.delta).any():
            raise ValueError("rho0 must dominate the regularization shift delta")

    @property
    def n_cells(self):
        return self.rho0.shape[0]

    def to_state(self):
        return State(0.0, self.rho0, self.u0, self.w0, self.b0, self.theta0)


def regularize(data, delta):
    """Lift the density uniformly away from vacuum: rho0 -> rho0 + delta."""
    if not delta > 0.0:
        raise ValueError(f"regularization shift must be positive, got {delta!r}")
    if data.delta != 0.0:
        raise ValueError("data is already regularized; start from the delta=0 fields")
    return InitialData(data.rho0 + delta, data.u0, data.w0, data.b0,
                       data.theta0, delta=delta)


@dataclass(frozen=True)
class CompatibilityReport:
    g1_norm: float
    g2_norm: float
    g3_norm: float
    worst_vacuum_violation: float
    passed: bool
    tolerance: float


def compatibility_residuals(data, grid, params, rel_tol=1e-8):
    """Evaluate the admissibility residuals of the initial data.

    Derivatives use the same stencils as the solver (central differences
    with reflecting ghosts).  The vacuum tolerance is rel_tol times the
    overall residual scale, so flat data near vacuum passes and genuinely
    incompatible data does not.
    """
    dx = grid.dx
    rho0, u0, w0, b0, th0 = data.rho0, data.u0, data.w0, data.b0, data.theta0

    ptot = pressure(rho0, th0, params) + 0.5 * dot2(b0, b0)
    f1 = params.lambda_visc * second_diff(u0, dx, ODD) - cell_grad(ptot, dx, EVEN)
    f2 = params.mu_visc * second_diff(w0, dx, ODD) - cell_grad(b0, dx, ODD)

    cond_flux = face_average(kappa(th0, params), EVEN) * face_diff(th0, dx, EVEN)
    f3 = div_faces(cond_flux, dx) + mechanical_heating(
        cell_grad(u0, dx, ODD), cell_grad(w0, dx, ODD), cell_grad(b0, dx, ODD), params)

    vac = rho0 <= VACUUM_RHO
    residual_mag = np.maximum(np.abs(f1), np.maximum(np.abs(f2).max(axis=1), np.abs(f3)))
    scale = 1.0 + float(residual_mag.max(initial=0.0))
    tol = rel_tol * scale
    worst = float(residual_mag[vac].max(initial=0.0))

    def weighted_norm(f):
        mag2 = dot2(f, f) if f.ndim == 2 else f * f
        g2 = np.where(vac, 0.0, mag2 / np.maximum(rho0, VACUUM_RHO))
        return float(np.sqrt(g2.sum() * dx))

    g1_norm = weighted_norm(f1)
    g2_norm = weighted_norm(f2)
    g3_norm = weighted_norm(f3)
    finite = np.isfinite([g1_norm, g2_norm, g3_norm]).all()
    passed = bool(finite and worst <= tol)
    return CompatibilityReport(g1_norm, g2_norm, g3_norm, worst, passed, tol)


# ---------------------------------------------------------------------------
# scenario library

def _smooth_ramp(s):
    # C^4-flat polynomial step: exactly 0 for s <= 0 and exactly 1 for s >= 1,
    # rising like s**10 so discrete gradients at the vacuum edge stay far
    # below the admissibility tolerance.
    s = np.clip(s, 0.0, 1.0)
    p = s ** 10
    return p / (p + (1.0 - s) ** 10)


def _uniform_rest(grid):
    n = grid.n_cells
    return InitialData(np.ones(n), np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))


def _vacuum_pocket(grid):
    # density vanishes identically on a centered plateau and rises smoothly
    # to one near the walls; everything else is flat so the residual
    # numerators vanish on and near the vacuum region
    n = grid.n_cells
    x = grid.cell_centers
    rho0 = _smooth_ramp((np.abs(x - 0.5) - 0.2) / 0.15)
    return InitialData(rho0, np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), np.ones(n))


def _gaussian_density(grid):
    n = grid.n_cells
    x = grid.cell_centers
    rho0 = 1.0 + 0.5 * np.exp(-200.0 * (x - 0.5) ** 2)
    theta0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
    return InitialData(rho0, np.zeros(n), np.zeros((n, 2)),
                       np.zeros((n, 2)), theta0)


def _magnetic_pulse(grid):
    n = grid.n_cells
    x = grid.cell_centers
    b0 = np.zeros((n, 2))
    support = (x >= 0.3) & (x <= 0.7)
    phase = np.pi * (x - 0.3) / 0.4
    b0[support, 0] = 0.5 * np.sin(phase[support]) ** 2
    return InitialData(np.ones(n), np.zeros(n), np.zeros((n, 2)), b0, np.ones(n))


def _smooth_shear(grid):
    n = grid.n_cells
    x = grid.cell_centers
    w0 = np.zeros((n, 2))
    w0[:, 0] = 0.5 * np.sin(np.pi * x) ** 2
    w0[:, 1] = -0.25 * np.sin(2.0 * np.pi * x) ** 2
    return InitialData(np.ones(n), np.zeros(n), w0, np.zeros((n, 2)), np.ones(n))


SCENARIOS = {
    "uniform-rest": _uniform_rest,
    "vacuum-pocket": _vacuum_pocket,
    "gaussian-density": _gaussian_density,
    "magnetic-pulse": _magnetic_pulse,
    "smooth-shear": _smooth_shear,
}


def scenario(name, grid):
    """Build a library scenario on the given grid."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return builder(grid)


def load_initial_table(path):
    """Import initial data from a plain-text state table (see read_state_table)."""
    _, grid, state = read_state_table(path)
    return grid, InitialData(state.rho, state.u, state.w, state.b, state.theta)
