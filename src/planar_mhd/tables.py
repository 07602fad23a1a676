"""Plain-text state tables.

One row per cell, eight columns: x, rho, u, w1, w2, b1, b2, theta.  Values
are written with 17 significant digits so a write/read round trip is exact.
Lines starting with '#' are comments; one '# time = <t>' header (the
exact key time) carries the snapshot instant, 0 without one.
"""

from __future__ import annotations

import numpy as np

from .model import Grid, State

COLUMNS = ("x", "rho", "u", "w1", "w2", "b1", "b2", "theta")

# a row of values as format_float writes them, formatted by one %-format
_ROW = " ".join(["%.17g"] * len(COLUMNS)) + "\n"


def format_float(v):
    return f"{v:.17g}"


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
        fh.write("".join([_ROW % tuple(row) for row in cols.tolist()]))


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
                    time = float(value)
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
