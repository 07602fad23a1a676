"""The benchmark workloads: seeded inputs plus a closed-loop sequence of
planar-mhd CLI commands, issued one after another from one process.

Why these three:

- sim-large: simulate at n = 2048 is bound by the flux-system solve
  (about 70% of self time) and the Picard loop around it, so a faster
  solve or fewer Picard passes shows here.
- sim-small-audit: simulate at n = 128 for about 1560 steps with 40
  snapshots, then audit of those snapshots.  Bound by per-call numpy
  overhead, diagnostics and table I/O; the solve is a minor share, so it is
  the bypass case for a faster solve.
- studies: mms (closed form, no seed) and continuation on vacuum-pocket at
  n = 512.  No diagnostics sink, forcing callables on every step, exact
  vacuum, regularized density: changes to diagnostics or tables only
  should leave it unchanged.
"""

from __future__ import annotations

import os

from inputs import write_input_table

SNAPSHOT_TIMES = ",".join(f"{6.0 * (i + 1) / 40:g}" for i in range(40))

NAMES = ("sim-large", "sim-small-audit", "studies")


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def prepare(name, inputs_dir, out, seed):
    """Write the seeded inputs of a workload into inputs_dir and return its
    command sequence as a list of (label, argv).  The label is the
    subcommand, and each command writes into <out>/<label>."""
    if name == "sim-large":
        table = os.path.join(inputs_dir, "gaussian-density-2048.dat")
        write_input_table(table, "gaussian-density", 2048, seed)
        config = os.path.join(inputs_dir, "sim-large.cfg")
        _write(config, f"scenario = {table}\nt_end = 0.06\nrecord_every = 1\n")
        return [
            ("simulate", ["--config", config, "--out", os.path.join(out, "simulate"),
                          "simulate"]),
        ]
    if name == "sim-small-audit":
        table = os.path.join(inputs_dir, "magnetic-pulse-128.dat")
        write_input_table(table, "magnetic-pulse", 128, seed)
        config = os.path.join(inputs_dir, "sim-small-audit.cfg")
        _write(config, f"scenario = {table}\nt_end = 6\nrecord_every = 1\n"
                       f"snapshot_times = {SNAPSHOT_TIMES}\n")
        return [
            ("simulate", ["--config", config, "--out", os.path.join(out, "simulate"),
                          "simulate"]),
            ("audit", ["--out", os.path.join(out, "audit"), "--seed", str(seed),
                       "audit", "--input", os.path.join(out, "simulate")]),
        ]
    if name == "studies":
        table = os.path.join(inputs_dir, "vacuum-pocket-512.dat")
        write_input_table(table, "vacuum-pocket", 512, seed)
        return [
            ("mms", ["--out", os.path.join(out, "mms"), "mms"]),
            ("continuation", ["--out", os.path.join(out, "continuation"), "continuation",
                              "--scenario", table, "--t-end", "0.1"]),
        ]
    raise KeyError(name)
