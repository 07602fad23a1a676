"""Seeded initial-state tables for the benchmark workloads.

Each table is a library scenario of planar_mhd times a smooth, low-mode
factor 1 + amp * s(x), where s mixes the cosines cos(k pi x + phase_k),
k = 1..3, with seeded weights and phases and is scaled so |s| <= 1.  The
factor is multiplicative, so a field that is exactly zero in the scenario
(the vacuum plateau of vacuum-pocket, the field outside the magnetic pulse)
stays exactly zero.  The amplitudes are small on purpose: they change the
data, and therefore the output digests, from seed to seed while keeping the
step count and the Picard pass count close to those of the base scenario,
so the timings of different seeds are comparable.

The manufactured-solution case of the studies workload is closed form and
takes no seed.
"""

from __future__ import annotations

import zlib

import numpy as np

from planar_mhd.initial import scenario
from planar_mhd.model import Grid
from planar_mhd.tables import COLUMNS, format_float

# relative amplitude of the seeded factor, per field
AMPLITUDES = {"rho": 0.05, "theta": 0.02, "b": 0.05}
MODES = 3


def _factor(rng, x, amp):
    k = np.arange(1, MODES + 1)
    weights = rng.uniform(0.5, 1.0, MODES) / k
    phases = rng.uniform(0.0, 2.0 * np.pi, MODES)
    s = np.cos(np.pi * np.outer(x, k) + phases) @ weights
    return 1.0 + amp * s / np.max(np.abs(s))


def perturbed_scenario(name, n_cells, seed):
    """Return (grid, rho, u, w, b, theta) for the seeded perturbation of a
    library scenario.  The stream depends on the seed and the scenario
    name, so two workloads with one seed get unrelated perturbations."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    grid = Grid.uniform(n_cells)
    base = scenario(name, grid)
    x = grid.cell_centers
    rho = base.rho0 * _factor(rng, x, AMPLITUDES["rho"])
    theta = base.theta0 * _factor(rng, x, AMPLITUDES["theta"])
    b = base.b0 * _factor(rng, x, AMPLITUDES["b"])[:, None]
    return grid, rho, base.u0, base.w0, b, theta


def write_input_table(path, name, n_cells, seed):
    """Write the seeded table in the state-table format that
    `scenario = <path>` reads; the seed is kept in a comment line."""
    grid, rho, u, w, b, theta = perturbed_scenario(name, n_cells, seed)
    cols = np.column_stack([grid.cell_centers, rho, u, w[:, 0], w[:, 1],
                            b[:, 0], b[:, 1], theta])
    with open(path, "w", newline="\n") as fh:
        fh.write("# time = 0\n")
        fh.write(f"# perfbench input: scenario {name}, n_cells {n_cells}, seed {seed}\n")
        fh.write("# columns: " + " ".join(COLUMNS) + "\n")
        for row in cols:
            fh.write(" ".join(format_float(v) for v in row) + "\n")
