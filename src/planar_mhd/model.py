"""Core value types and algebraic closures.

State vector on (0, 1): density rho >= 0, longitudinal velocity u,
transverse velocity w in R^2, transverse magnetic field b in R^2, and
absolute temperature theta >= 0.  Closures: ideal-gas pressure
P = gas_R * rho * theta, internal energy e = c_v * theta, and a
temperature-dependent heat conductivity kappa(theta) = kappa_a +
kappa_b * theta**q_exp with growth exponent q_exp > 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .operators import EVEN, ODD, cell_grad, dot2, face_average

# Below this density a cell is treated as vacuum: primitive velocities are
# zeroed there and the temperature is carried unchanged.
VACUUM_RHO = 1e-12


@dataclass(frozen=True)
class PhysParams:
    """Physical constants.  Defaults normalize everything to one except the
    conductivity growth exponent."""

    lambda_visc: float = 1.0  # longitudinal viscosity
    mu_visc: float = 1.0      # shear viscosity
    nu_mag: float = 1.0       # magnetic diffusivity
    gas_R: float = 1.0        # specific gas constant
    c_v: float = 1.0          # heat capacity at constant volume
    kappa_a: float = 1.0      # constant part of kappa(theta)
    kappa_b: float = 1.0      # coefficient of theta**q_exp in kappa(theta)
    q_exp: float = 2.0        # conductivity growth exponent, must be > 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < np.inf:
                rule = ("> 0 and finite (conductivity growth hypothesis)"
                        if f.name == "q_exp" else "positive and finite")
                raise ValueError(f"{f.name} must be {rule}, got {value!r}")


def check_n_cells(n_cells):
    """Every grid, configured or read from a table, has at least four cells
    (the one-sided wall stencils of the norm suite need three)."""
    if n_cells < 4:
        raise ValueError(f"n_cells must be at least 4, got {n_cells!r}")


def check_record_every(record_every):
    """A run records every record_every-th step: a whole number, at least 1."""
    if not isinstance(record_every, numbers.Integral):
        raise ValueError(f"record_every must be an integer, got {record_every!r}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on (0, 1); n_cells fixes dx and the centers."""

    n_cells: int
    dx: float = field(init=False)
    cell_centers: np.ndarray = field(init=False)

    def __post_init__(self):
        check_n_cells(self.n_cells)
        object.__setattr__(self, "dx", 1.0 / self.n_cells)
        x = (np.arange(self.n_cells) + 0.5) * self.dx
        x.setflags(write=False)
        object.__setattr__(self, "cell_centers", x)

    @classmethod
    def uniform(cls, n_cells):
        return cls(n_cells)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _frozen_array(values, shape, name, nonnegative=False):
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if nonnegative and (arr < 0.0).any():
        raise ValueError(f"{name} must be nonnegative everywhere")
    return _read_only(arr)


class DerivedFields:
    """The one home of the derived fields that the stepper and the
    diagnostics share, computed on first use from the fields rho, u, w, b,
    theta and n_cells and then kept, read-only: the central gradients u_x,
    w_x, b_x (odd reflection) and theta_x (even), |b|^2 as b_sq, the odd
    face averages u_face and b_face, and P and kappa(theta) through
    pressure(params) and kappa(params), kept for the last PhysParams object
    asked for.  Each formula is elementwise or acts along axis 0, so a
    diagnostics window whose fields are k states stacked as (n, k) and
    (n, k, 2) arrays gets, column for column, each state's own bits."""

    @property
    def _dx(self):
        return 1.0 / self.n_cells  # Grid's expression, so the same bits

    @cached_property
    def u_x(self):
        return _read_only(cell_grad(self.u, self._dx, ODD))

    @cached_property
    def w_x(self):
        return _read_only(cell_grad(self.w, self._dx, ODD))

    @cached_property
    def b_x(self):
        return _read_only(cell_grad(self.b, self._dx, ODD))

    @cached_property
    def theta_x(self):
        return _read_only(cell_grad(self.theta, self._dx, EVEN))

    @cached_property
    def b_sq(self):
        return _read_only(dot2(self.b, self.b))

    @cached_property
    def u_face(self):
        return _read_only(face_average(self.u, ODD))

    @cached_property
    def b_face(self):
        return _read_only(face_average(self.b, ODD))

    def _under(self, key, params, compute):
        # one entry per key, replaced when another params object asks
        kept = self.__dict__.get(key)
        if kept is None or kept[0] is not params:
            kept = self.__dict__[key] = (params, _read_only(compute()))
        return kept[1]

    def pressure(self, params):
        """P = gas_R * rho * theta under params, kept for the last params."""
        return self._under("_pressure", params, lambda: pressure(self.rho, self.theta, params))

    def kappa(self, params):
        """kappa(theta) under params, kept for the last params."""
        return self._under("_kappa", params, lambda: kappa(self.theta, params))


@dataclass(frozen=True)
class State(DerivedFields):
    """Immutable field snapshot at one instant, with the DerivedFields of
    its (n,) and (n, 2) arrays, each bit for bit the operator call it stands
    for on a grid of n_cells cells.

    Arrays are copied, checked and marked read-only on construction, so
    states can be shared freely between the stepper, diagnostics, and sinks
    (the compiled step's States come from _trusted, without copy or check).
    """

    time: float
    rho: np.ndarray
    u: np.ndarray
    w: np.ndarray
    b: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.rho).shape[0]
        object.__setattr__(self, "rho", _frozen_array(self.rho, (n,), "rho", nonnegative=True))
        object.__setattr__(self, "u", _frozen_array(self.u, (n,), "u"))
        object.__setattr__(self, "w", _frozen_array(self.w, (n, 2), "w"))
        object.__setattr__(self, "b", _frozen_array(self.b, (n, 2), "b"))
        object.__setattr__(self, "theta", _frozen_array(self.theta, (n,), "theta", nonnegative=True))

    @classmethod
    def _trusted(cls, time, rho, u, w, b, theta):
        """A State of read-only arrays that solver.step's compiled path has
        checked and holds nowhere else, not copied or checked."""
        state = cls.__new__(cls)
        state.__dict__.update(time=time, rho=rho, u=u, w=w, b=b, theta=theta)
        return state

    @property
    def n_cells(self):
        return self.rho.shape[0]


def pressure(rho, theta, params):
    """Ideal-gas pressure P = gas_R * rho * theta."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if (rho < 0.0).any():
        raise ValueError("pressure: rho must be nonnegative")
    if (theta < 0.0).any():
        raise ValueError("pressure: theta must be nonnegative")
    out = params.gas_R * rho * theta
    return float(out) if out.ndim == 0 else out


def kappa(theta, params):
    """Heat conductivity kappa_a + kappa_b * theta**q_exp."""
    theta = np.asarray(theta, dtype=float)
    if (theta < 0.0).any():
        raise ValueError("kappa: theta must be nonnegative")
    out = params.kappa_a + params.kappa_b * theta ** params.q_exp
    return float(out) if out.ndim == 0 else out


def mechanical_heating(ux, wx, bx, params):
    """Mechanical heating lambda*u_x^2 + mu*|w_x|^2 + nu*|b_x|^2, the
    nonnegative dissipation that drives the energy equation."""
    return (params.lambda_visc * ux * ux
            + params.mu_visc * dot2(wx, wx)
            + params.nu_mag * dot2(bx, bx))
