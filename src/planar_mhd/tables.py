"""Plain-text state tables.

One row per cell, eight columns: x, rho, u, w1, w2, b1, b2, theta.  Values
are written with 17 significant digits so a write/read round trip is exact.
Lines starting with '#' are comments; one '# time = <t>' header (the
exact key time) carries the snapshot instant, 0 without one.  Where the
compiled kernel is loaded (operators._KERNEL), format_rows writes the text
and parse_rows reads the data rows back, each with the bits of its Python
twin, which is the reference and the path without the kernel.
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


def _header(stripped, time, path):
    """The time after the comment line stripped: a '# time = <t>' header
    sets it, once, to a finite number; any other comment leaves it."""
    key, equals, value = stripped[1:].partition("=")
    if not (equals and key.strip() == "time"):
        return time
    if time is not None:
        raise ValueError(f"{path}: more than one time header")
    try:
        time = float(value)
    except ValueError:
        raise ValueError(f"{path}: time header {stripped!r} is not a number") from None
    if not np.isfinite(time):
        raise ValueError(f"{path}: time header must be finite, got {time!r}")
    return time


def _parse_text(path):
    """(time, data) of the table at path, line by line in Python."""
    time = None
    rows = []
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                time = _header(stripped, time, path)
                continue
            parts = stripped.split()
            if len(parts) != len(COLUMNS):
                raise ValueError(
                    f"{path}: expected {len(COLUMNS)} columns per row, got {len(parts)}"
                )
            rows.append(parts)
    if not rows:
        raise ValueError(f"{path}: table contains no data rows")
    return time, np.array(rows, dtype=float)


def _parse_compiled(kernel, raw, path):
    """(time, data) of the table whose bytes are raw: the header lines in
    Python, as _parse_text reads and refuses them, and the data block after
    them in one parse_rows call.  None when the text is not ASCII or holds
    a carriage return (its lines would not be those of text mode; checked
    before any header is read), when it has no data line, or when the
    kernel declines the block; _parse_text then reads the table."""
    if not raw.isascii() or b"\r" in raw:
        return None
    time, start = None, 0
    while start < len(raw):
        end = raw.find(b"\n", start) + 1 or len(raw)
        stripped = raw[start:end].decode("ascii").strip()
        if stripped and not stripped.startswith("#"):
            break
        if stripped:
            time = _header(stripped, time, path)
        start = end
    block = raw[start:]
    data = np.empty((block.count(b"\n") + 1, len(COLUMNS)))
    rows = kernel.parse_rows(block, len(block), len(COLUMNS), data.shape[0],
                             operators.address(data))
    return None if rows <= 0 else (time, data[:rows])


def read_state_table(path):
    """Read a state table; returns (time, grid, state).

    The row count fixes the grid (at least four rows); the x column must
    match the uniform cell centers of (0, 1), and the time must be finite.
    Where the compiled kernel is loaded (operators._KERNEL), its parse_rows
    reads the data rows that format_float writes, with float()'s bits; any
    other table, and every table without the kernel, is read line by line
    in Python, which raises the errors.
    """
    kernel, parsed = operators._KERNEL, None
    if kernel is not None:
        with open(path, "rb") as fh:
            parsed = _parse_compiled(kernel, fh.read(), path)
    time, data = _parse_text(path) if parsed is None else parsed
    n = data.shape[0]
    grid = Grid.uniform(n)
    if not (np.abs(data[:, 0] - grid.cell_centers) <= 1e-9 * grid.dx).all():
        raise ValueError(f"{path}: x column does not match uniform cell centers for n={n}")
    time = 0.0 if time is None else time
    state = State(time, data[:, 1], data[:, 2], data[:, 3:5], data[:, 5:7], data[:, 7])
    return time, grid, state
