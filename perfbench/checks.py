"""Output checks, with the thresholds of the acceptance criteria.

Every check is one operation of the benchmark; a failed one counts in
`failed` and is never retried away.
"""

from __future__ import annotations

import csv
import hashlib
import os

MASS_DRIFT_MAX = 1e-12
ENERGY_DRIFT_MAX = 1e-2
MMS_ORDER_RANGE = (0.8, 1.3)
CONTINUATION_DELTAS = 4  # the CLI's default --deltas


def read_summary(path):
    """key = value lines of run-summary.txt / audit-summary.txt."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def _simulate(outdir, cmd):
    s = read_summary(os.path.join(outdir, "run-summary.txt"))
    return [
        ("mass_drift_max <= 1e-12", float(s["mass_drift_max"]) <= MASS_DRIFT_MAX),
        ("energy_drift_rel <= 1e-2", float(s["energy_drift_rel"]) <= ENERGY_DRIFT_MAX),
        ("entropy_prod_nondecreasing", s["entropy_prod_nondecreasing"] == "yes"),
        ("run-summary steps equal the solver.step calls", int(s["steps"]) == cmd["steps"]),
    ]


def _audit(outdir, cmd):
    s = read_summary(os.path.join(outdir, "audit-summary.txt"))
    return [("embedding_pass", s["embedding_pass"] == "yes")]


def _mms(outdir, cmd):
    lo, hi = MMS_ORDER_RANGE
    with open(os.path.join(outdir, "mms-report.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return [(f"mms order {row['field']} in [0.8, 1.3]", lo <= float(row["order"]) <= hi)
            for row in rows]


def _continuation(outdir, cmd):
    with open(os.path.join(outdir, "continuation-report.txt")) as fh:
        lines = fh.read().splitlines()
    rows = [line.split() for line in lines]
    status = [row for row in rows if len(row) == 2 and row[1] in ("ok", "failed")]
    results = [(f"continuation delta {delta} finished", state == "ok")
               for delta, state in status]
    results.append((f"continuation ran {CONTINUATION_DELTAS} deltas",
                    len(status) == CONTINUATION_DELTAS))
    results.append(("continuation monotone decreasing", "monotone decreasing: yes" in lines))
    return results


_CHECKS = {"simulate": _simulate, "audit": _audit, "mms": _mms,
           "continuation": _continuation}


def check_command(cmd, outdir):
    """[(check name, passed)] for the outputs of one command, given the
    child's record of it (label, exit code, steps); a missing or unreadable
    output is a failed check."""
    try:
        return _CHECKS[cmd["label"]](outdir, cmd)
    except (OSError, KeyError, ValueError) as err:
        return [(f"{cmd['label']} outputs readable ({type(err).__name__}: {err})", False)]


def digests(root):
    """sha256 of every file under root, by relative path."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))
