"""Plain-text state tables.

One row per cell, eight columns: x, rho, u, w1, w2, b1, b2, theta.  Values
are written with 17 significant digits so a write/read round trip is exact.
Lines starting with '#' are comments; one '# time = <t>' header (the
exact key time) carries the snapshot instant, 0 without one.
"""

from __future__ import annotations

import numpy as np

from . import operators
from .model import Grid, State

COLUMNS = ("x", "rho", "u", "w1", "w2", "b1", "b2", "theta")

# the bytes of the longest value format_float writes, and a separator
_FIELD = len(f"{-2.2250738585072014e-308:.17g}") + 1


def format_float(v):
    return f"{v:.17g}"


def format_rows(values, sep):
    """The rows of a 2-D array as text: each value as format_float writes
    it, joined by sep, each row ended by a newline.  The compiled kernel
    does it when loaded (operators._KERNEL), Python's %-format otherwise;
    the bytes are the same."""
    rows, cols = values.shape
    kernel = operators._KERNEL
    if kernel is None:
        template = sep.join(["%.17g"] * cols) + "\n"
        return "".join([template % tuple(row) for row in values.tolist()])
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = np.empty(rows * (cols * _FIELD + 1), dtype=np.uint8)
    size = kernel.format_rows(values.ctypes.data, rows, cols, ord(sep), operators.address(text))
    return text[:size].tobytes().decode("ascii")


def write_state_table(path, grid, state):
    cols = np.column_stack([
        grid.cell_centers,
        state.rho,
        state.u,
        state.w[:, 0],
        state.w[:, 1],
        state.b[:, 0],
        state.b[:, 1],
        state.theta,
    ])
    with open(path, "w") as fh:
        fh.write(f"# time = {format_float(state.time)}\n")
        fh.write("# columns: " + " ".join(COLUMNS) + "\n")
        fh.write(format_rows(cols, " "))


def read_state_table(path):
    """Read a state table; returns (time, grid, state).

    The row count fixes the grid (at least four rows); the x column must
    match the uniform cell centers of (0, 1), and the time must be finite.
    """
    time = None
    rows = []
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                key, equals, value = stripped[1:].partition("=")
                if equals and key.strip() == "time":
                    if time is not None:
                        raise ValueError(f"{path}: more than one time header")
                    try:
                        time = float(value)
                    except ValueError:
                        raise ValueError(f"{path}: time header {stripped!r} is not a"
                                         " number") from None
                    if not np.isfinite(time):
                        raise ValueError(f"{path}: time header must be finite, got {time!r}")
                continue
            parts = stripped.split()
            if len(parts) != len(COLUMNS):
                raise ValueError(
                    f"{path}: expected {len(COLUMNS)} columns per row, got {len(parts)}"
                )
            rows.append(parts)
    if not rows:
        raise ValueError(f"{path}: table contains no data rows")
    data = np.array(rows, dtype=float)
    n = data.shape[0]
    grid = Grid.uniform(n)
    if not np.allclose(data[:, 0], grid.cell_centers, rtol=0.0, atol=1e-9 * grid.dx):
        raise ValueError(f"{path}: x column does not match uniform cell centers for n={n}")
    time = 0.0 if time is None else time
    state = State(time, data[:, 1], data[:, 2], data[:, 3:5], data[:, 5:7], data[:, 7])
    return time, grid, state
