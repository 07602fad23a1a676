"""Finite-difference building blocks on the uniform collocated grid.

All fields live at cell centers of (0, 1).  Wall behavior enters through a
one-cell ghost extension: odd reflection pins the interpolated wall value of
u, w, b to zero, even reflection gives a vanishing one-sided normal
derivative for rho and theta (insulated, non-penetrating walls).

Implicit diffusion is posed in flux form: every solve is described by a
per-cell capacity and a per-face coupling, and the linear systems are
eliminated with a pivot recursion that only ever adds nonnegative terms.
That matters because the conductivity grows like theta^q, so couplings on
neighboring faces can differ by many orders of magnitude near vacuum; a
generic LU loses the tiny capacities to cancellation and reports such
matrices as singular even though they are not.  solve_flux_system runs
the recursion as a Python loop, the reference for its compiled copies.

Those copies live in the compiled step of solver.step (_pivot.c, built once
per checkout into __pycache__ and loaded with ctypes): step_explicit
(stages 1-4 and the explicit part of stage 5) and conduction_solve (the
Picard loop).  The same library holds the diagnostics fold, fold_rows,
whose one caller is DiagnosticsAccumulator.flush, format_rows, the text of
the output tables, parse_rows, their data rows read back, and mms_table,
the arithmetic of a manufactured-solution forcing table, whose one caller
is verification.MMSCase._table.  _KERNEL is that library, or None when it
cannot be built; step, conduction_update, flush, tables.format_rows,
tables.read_state_table and MMSCase._table test it, and each runs its
numpy or Python twin, with the same bits, without it.
"""

from __future__ import annotations

import ctypes
import os
import zlib

import numpy as np

ODD = "odd"
EVEN = "even"


def pad_ghosts(f, bc):
    """Extend a cell array by one ghost cell on each side.

    Works on (n,) scalars and (n, 2) two-component fields.
    """
    first, last = f[:1], f[-1:]
    if bc == ODD:
        return np.concatenate([-first, f, -last], axis=0)
    if bc == EVEN:
        return np.concatenate([first, f, last], axis=0)
    raise ValueError(f"unknown boundary kind: {bc!r}")


def cell_grad(f, dx, bc):
    """Second-order central first derivative at cell centers."""
    g = pad_ghosts(f, bc)
    return (g[2:] - g[:-2]) / (2.0 * dx)


def second_diff(f, dx, bc):
    """Three-point second derivative at cell centers, ghosts included."""
    g = pad_ghosts(f, bc)
    return (g[2:] - 2.0 * f + g[:-2]) / (dx * dx)


def second_diff_onesided(f, dx):
    """Second derivative with one-sided copies at the walls.

    Used by the norm suite; unlike the solver stencils it assumes nothing
    about boundary reflection.
    """
    out = np.empty_like(f, dtype=float)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)
    out[0] = (f[0] - 2.0 * f[1] + f[2]) / (dx * dx)
    out[-1] = (f[-1] - 2.0 * f[-2] + f[-3]) / (dx * dx)
    return out


def face_average(f, bc):
    """Arithmetic face values on the n+1 interfaces."""
    g = pad_ghosts(f, bc)
    return 0.5 * (g[:-1] + g[1:])


def face_diff(f, dx, bc):
    """Two-point gradient on the n+1 interfaces."""
    g = pad_ghosts(f, bc)
    return (g[1:] - g[:-1]) / dx


def div_faces(flux, dx):
    """Flux difference back to cell centers."""
    return (flux[1:] - flux[:-1]) / dx


def dot2(a, b):
    """Pointwise product a . b of two-component fields (..., 2)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def column_sums(values):
    """Sum of an (n,) array, or of each column of an (n, k) array as a (k,)
    array.  Each column is summed as a contiguous row, so it gets the bits
    of its own 1D .sum()."""
    if values.ndim == 1:
        return values.sum()
    return np.ascontiguousarray(values.T).sum(axis=1)


def l2_columns(values, dx):
    """Discrete L2 norm of an (n,) array, or of each column of an (n, k)
    one; a two-component field enters as its pointwise Euclidean length
    np.sqrt(dot2(v, v))."""
    return np.sqrt(column_sums(values * values) * dx)


def l2(values, dx):
    """Discrete L2 norm; (n, 2) fields use the pointwise Euclidean length."""
    if values.ndim == 2:
        values = np.sqrt(dot2(values, values))
    return float(l2_columns(values, dx))


def upwind_face_flux(vel_face, q):
    """First-order upwind flux of cell quantity q through each interface.

    vel_face has n+1 entries; wall fluxes are forced to exactly zero, which
    is what makes the conservative updates mass-tight in floating point.
    """
    qg = pad_ghosts(q, EVEN)
    take_left = vel_face >= 0.0
    if q.ndim == 2:
        take_left = take_left[:, None]
        vel_face = vel_face[:, None]
    flux = vel_face * np.where(take_left, qg[:-1], qg[1:])
    flux[0] = 0.0
    flux[-1] = 0.0
    return flux


def face_couplings(n, coeff, dx, bc):
    """Per-face coupling array off (n+1,) for a diffusion solve.

    Interior face j couples cells j-1 and j with weight coeff/dx^2.  Faces
    0 and n are the walls: an odd-reflected field is anchored to the zero
    wall value (ghost = -edge doubles the wall weight), an even-reflected
    one sees an insulated wall.
    """
    off = np.full(n + 1, coeff / (dx * dx))
    if bc == ODD:
        off[0] *= 2.0
        off[-1] *= 2.0
    else:
        off[0] = 0.0
        off[-1] = 0.0
    return off


def flux_laplacian(off, q):
    """Apply the flux-form diffusion operator L q.

    (L q)_i = off[i+1] (q_{i+1} - q_i) - off[i] (q_i - q_{i-1}) with
    exterior values q_{-1} = q_n = 0, so a zero face coupling insulates
    and a positive wall coupling anchors the field to zero there.  q may
    be (n,) or (n, k).
    """
    pad = np.zeros((1,) + q.shape[1:])
    ext = np.concatenate([pad, q, pad], axis=0)
    jump = ext[1:] - ext[:-1]
    flux = off.reshape((-1,) + (1,) * (q.ndim - 1)) * jump
    return flux[1:] - flux[:-1]


def solve_flux_system(cap, off, rhs):
    """Solve (diag(cap) - L) x = rhs with L the operator of flux_laplacian.

    cap >= 0 per cell and off >= 0 per face make the matrix a weakly
    diagonally dominant M-matrix.  The elimination carries the
    anchored part of each pivot (e) separately, so every pivot is a sum of
    nonnegative products and no subtraction ever occurs.  That is the
    point: conduction couplings scale like theta^q and can exceed a
    near-vacuum cell's heat capacity by far more than one ulp, which makes
    a generic banded LU cancel the capacity away and report a singular
    matrix.  Here the capacity survives in e no matter how extreme the
    grading.  rhs may be (n,) or (n, k).  Raises numpy.linalg.LinAlgError
    on a zero pivot (an insulated block with no capacity anywhere, which
    is genuinely singular).
    """
    n = cap.shape[0]
    if not (cap.ndim == 1 and n > 0 and off.shape == (n + 1,)
            and rhs.ndim in (1, 2) and rhs.shape[0] == n):
        raise ValueError(f"flux system shapes do not fit: cap {cap.shape},"
                         f" off {off.shape}, rhs {rhs.shape}")
    return _solve_flux_system_py(cap, off, rhs)


def _solve_flux_system_py(cap, off, rhs):
    """The pivot recursion of solve_flux_system as a Python loop: the
    reference that the solves of the compiled step (_pivot.c) match bit for
    bit."""
    n = cap.shape[0]
    rhs2 = rhs if rhs.ndim == 2 else rhs[:, None]
    capl = cap.tolist()
    offl = off.tolist()
    g = [0.0] * n
    p = [0.0] * n
    e = capl[0] + offl[0]
    p[0] = e + offl[1]
    for i in range(1, n):
        if p[i - 1] <= 0.0:
            raise np.linalg.LinAlgError("flux system has a zero pivot")
        gi = offl[i] / p[i - 1]
        g[i] = gi
        e = capl[i] + gi * e
        p[i] = e + offl[i + 1]
    if p[n - 1] <= 0.0:
        raise np.linalg.LinAlgError("flux system has a zero pivot")
    x = np.empty_like(rhs2, dtype=np.float64)
    for j in range(rhs2.shape[1]):
        y = rhs2[:, j].tolist()
        for i in range(1, n):
            y[i] += g[i] * y[i - 1]
        xi = y[n - 1] / p[n - 1]
        x[n - 1, j] = xi
        for i in range(n - 2, -1, -1):
            xi = (y[i] + offl[i + 1] * xi) / p[i]
            x[i, j] = xi
    return x if rhs.ndim == 2 else x[:, 0]


_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_SIZE, _DOUBLE, _POINTER = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {  # name: (argument types, result type), as declared in _pivot.c
    # the constants block, dt, then the arrays (the workspace is solver.step's)
    "step_explicit": ([_POINTER, _DOUBLE] + [_POINTER] * 7, _SIZE),
    "conduction_solve": ([_POINTER, _DOUBLE] + [_POINTER] * 4, ctypes.c_int),
    # the struct fold of a diagnostics window (_Fold)
    "fold_rows": ([_POINTER], None),
    # values, rows, columns, the separator and the text buffer
    "format_rows": ([_POINTER, _SIZE, _SIZE, _SIZE, _POINTER], _SIZE),
    # the text and its size, columns, the most rows, the values
    "parse_rows": ([ctypes.c_char_p, _SIZE, _SIZE, _SIZE, _POINTER], _SIZE),
    # the scalars and closed forms of an MMS table, its kappa, the residuals
    "mms_table": ([_POINTER] * 3, ctypes.c_int),
}


def address(arr):
    """The address of the first element of a writable array, for a pointer
    argument of the kernel; the caller keeps arr alive through the call.
    Cheaper than arr.ctypes.data, which builds an object per call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


class _Rows(ctypes.Structure):
    """struct rows of _pivot.c: the (K, n) rows of the fields of K stacked
    states."""

    _fields_ = [(name, _POINTER) for name in ("rho", "u", "w", "b", "theta")]


class _Fold(ctypes.Structure):
    """struct fold of _pivot.c: the arguments of one fold_rows call
    (diagnostics._fold).  The residual is NULL when the accumulator has no
    on_fold, and otherwise diagnostics.consistency_residuals reads its sums."""

    _fields_ = ([(name, _SIZE) for name in ("n", "steps", "records")]
                + [(name, _DOUBLE) for name in ("dx", "lambda_", "mu", "nu", "gas_R", "c_v")]
                + [(name, _POINTER) for name in (
                    "rows cols_b cols_a due dts kappa theta_safe pow_alpha pow_q pow_1_alpha"
                    " theta_q2 log_rho log_theta phi0 phi residual scratch ledger record extrema"
                ).split()])


def _load_kernel():
    """Load the compiled kernels, building them first if this source and
    these flags have not been built yet.  None when no C compiler is
    present or the build fails; solver.step then runs the numpy stages,
    the diagnostics their numpy bodies and tables Python's %-format.

    The library is named by a checksum of source and flags and moved into
    place in one step, so concurrent builds never load a partial file."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_pivot.c")
    try:
        with open(source, "rb") as fh:
            tag = zlib.crc32(fh.read() + " ".join(_CFLAGS).encode())
        lib = os.path.join(here, "__pycache__", f"_pivot-{tag:08x}.so")
        if not os.path.exists(lib):
            import subprocess
            import tempfile

            os.makedirs(os.path.dirname(lib), exist_ok=True)
            try:
                with tempfile.TemporaryDirectory(dir=os.path.dirname(lib)) as tmp:
                    built = os.path.join(tmp, "_pivot.so")
                    subprocess.run(["cc", *_CFLAGS, "-o", built, source], check=True,
                                   stdin=subprocess.DEVNULL, capture_output=True)
                    os.replace(built, lib)
            except subprocess.CalledProcessError:
                return None
        kernel = ctypes.CDLL(lib)
    except OSError:
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(kernel, name)
        function.argtypes = argtypes
        function.restype = restype
    return kernel


_KERNEL = _load_kernel()
