"""Command line driver: simulate, continuation, mms, audit.

Exit codes: 0 success, 2 configuration or usage error, 3 compatibility
failure under --strict-compat, 4 solver failure.  The output directory is
resolved as --out flag, then the PLANAR_MHD_OUT environment variable, then
the config output_dir.  Everything the driver computes is also written to
run.log in that directory.
"""

from __future__ import annotations

import argparse
import glob
import logging
import os
import sys

import numpy as np

from . import diagnostics
from .config import ConfigError, RunConfig, load_config_file
from .initial import (
    InitialData,
    SCENARIOS,
    compatibility_residuals,
    load_initial_table,
    regularize,
    scenario,
)
from .model import Grid
from .solver import SimulationError, consistency_residuals, run
from .tables import format_float, format_rows, read_state_table, write_state_table
from .verification import MMS_CASES, continuation_study, embedding_check, mms_convergence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_SOLVER = 4


def _seed(text):
    """A --seed value: numpy's default_rng takes nonnegative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="planar-mhd",
        description="Planar magnetohydrodynamic channel flow: batch simulation, "
                    "verification studies, and trajectory audits.")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides PLANAR_MHD_OUT and the config)")
    parser.add_argument("--strict-compat", action="store_true",
                        help="exit 3 when the initial-data compatibility check fails, "
                             "instead of warning and continuing")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="seed for the random embedding test functions (audit only); "
                             "the solver itself is deterministic")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("simulate", help="run one scenario and write the diagnostics suite")

    cont = sub.add_parser("continuation", help="vacuum-regularization continuation study")
    cont.add_argument("--scenario", help="override the config scenario")
    cont.add_argument("--deltas", default="1e-1,1e-2,1e-3,1e-4",
                      help="comma-separated strictly decreasing density shifts")
    cont.add_argument("--t-end", type=float, default=None, help="override the config t_end")

    mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    mms.add_argument("--case", default="smooth-wave", help="manufactured case name")
    mms.add_argument("--resolutions", default="64,128,256",
                     help="comma-separated increasing geometric resolution ladder")
    mms.add_argument("--t-end", type=float, default=None, help="override the case horizon")

    audit = sub.add_parser("audit", help="recompute the diagnostics suite from stored snapshots")
    audit.add_argument("--input", required=True, metavar="DIR",
                       help="directory holding snapshot_t*.dat state tables")
    return parser


def _open_logger(outdir):
    # fixed name, handlers rebuilt per invocation so repeated in-process
    # calls do not stack writers; no timestamps, so logs are reproducible
    logger = logging.getLogger("planar_mhd.cli")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    _close_logger(logger)
    handler = logging.FileHandler(os.path.join(outdir, "run.log"), mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.addHandler(handler)
    return logger


def _close_logger(logger):
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
        handler.close()


def _warn_replacing(outdir, names, logger, earlier_log):
    """Name the earlier outputs among names that this command is about to
    replace in outdir, and the earlier run.log it has replaced already when
    earlier_log is set, on stderr and in run.log; the command goes ahead."""
    replaced = [name for name in names if os.path.exists(os.path.join(outdir, name))]
    if earlier_log:
        replaced.append("run.log")
    if replaced:
        msg = f"output directory {outdir!r} already holds {', '.join(replaced)}; replacing them"
        logger.warning("%s", msg)
        print(f"warning: {msg}", file=sys.stderr)


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


_CSV_CHUNK = 64  # rows formatted at once: about 64 KiB of text, never the whole file


def _write_records(path, records):
    with open(path, "w", newline="\n") as fh:
        fh.write(diagnostics.csv_header() + "\n")
        for start in range(0, len(records), _CSV_CHUNK):
            chunk = records[start:start + _CSV_CHUNK]
            fh.write(format_rows(np.array([diagnostics.csv_values(rec) for rec in chunk]), ","))


def _parse_list(text, what, kind=float):
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {what} list {text!r}") from None


def _snapshot_name(time):
    return f"snapshot_t{time:.6f}.dat"


def _resolve_scenario(name, n_cells):
    """Library scenario name or path to a state table -> (grid, initial data)."""
    if name in SCENARIOS:
        grid = Grid.uniform(n_cells)
        return grid, scenario(name, grid)
    if os.path.exists(name):
        try:
            return load_initial_table(name)
        except ValueError as err:
            raise ConfigError(f"cannot load initial table {name!r}: {err}") from None
    known = ", ".join(sorted(SCENARIOS))
    raise ConfigError(
        f"unknown scenario {name!r}; known scenarios: {known}, or a path to a state table")


def _ledger_drifts(records):
    """(largest mass drift, relative energy drift, whether the cumulative
    entropy production never decreases) over a run's records."""
    first, last = records[0], records[-1]
    mass_drift = max(abs(r.mass - first.mass) for r in records)
    energy_drift = abs(last.energy - first.energy) / max(abs(first.energy), 1e-300)
    entropy_ok = all(b.entropy_prod_cum >= a.entropy_prod_cum
                     for a, b in zip(records, records[1:]))
    return mass_drift, energy_drift, entropy_ok


def _write_summary(path, cfg, grid, records, totals, compat):
    first, last = records[0], records[-1]
    mass_drift, energy_drift, entropy_ok = _ledger_drifts(records)
    monitor_drift = diagnostics.monitor_drift(records)
    lines = [
        f"scenario = {cfg.scenario}",
        f"n_cells = {grid.n_cells}",
        f"dx = {format_float(grid.dx)}",
        f"t_end = {format_float(cfg.t_end)}",
        f"final_time = {format_float(last.time)}",
        f"steps = {totals['steps']}",
        f"records = {len(records)}",
        f"picard_total = {totals['picard_total']}",
        f"picard_max = {totals['picard_max']}",
        f"clipped_total = {totals['clipped_total']}",
        f"max_div_residual = {format_float(totals['max_div_residual'])}",
        f"compat_passed = {'yes' if compat.passed else 'no'}",
        f"compat_worst_vacuum_violation = {format_float(compat.worst_vacuum_violation)}",
        f"mass_initial = {format_float(first.mass)}",
        f"mass_final = {format_float(last.mass)}",
        f"mass_drift_max = {format_float(mass_drift)}",
        f"energy_initial = {format_float(first.energy)}",
        f"energy_final = {format_float(last.energy)}",
        f"energy_drift_rel = {format_float(energy_drift)}",
        f"entropy_fn_final = {format_float(last.entropy_fn)}",
        f"entropy_prod_cum = {format_float(last.entropy_prod_cum)}",
        f"entropy_prod_nondecreasing = {'yes' if entropy_ok else 'no'}",
        f"min_theta_final = {format_float(last.min_theta)}",
        f"max_rho_final = {format_float(last.max_rho)}",
        f"rho_F_max_initial = {format_float(first.rho_F_max)}",
        f"rho_F_max_final = {format_float(last.rho_F_max)}",
        f"monitor_drift = {format_float(monitor_drift)}",
        f"monitor_nonincreasing_2pct = {'yes' if monitor_drift <= 0.02 else 'no'}",
    ]
    for name in diagnostics.NORM_NAMES:
        lines.append(f"norm_{name} = {format_float(last.norms[name])}")
    _write(path, "\n".join(lines) + "\n")
    return mass_drift, energy_drift, monitor_drift


def _simulate(cfg, args, outdir, logger):
    grid, init = _resolve_scenario(cfg.scenario, cfg.n_cells)
    # distinct snapshot times must not share a file name
    named = {}
    for t in sorted({float(t) for t in cfg.snapshot_times if t <= cfg.t_end}):
        first = named.setdefault(_snapshot_name(t), t)
        if first != t:
            raise ConfigError(f"snapshot_times {first!r} and {t!r} would both be written"
                              f" to {_snapshot_name(t)}")
    # audit reads every snapshot table in a directory, so tables of an earlier
    # run must not sit next to this run's
    stale = sorted(set(glob.glob("snapshot_t*.dat", root_dir=outdir)) - named.keys())
    if stale:
        raise ConfigError(f"output directory {outdir!r} holds snapshot tables this run"
                          f" would not write: {', '.join(stale)}; use another --out or"
                          " remove them")
    _warn_replacing(outdir, ("diagnostics.csv", "run-summary.txt", *named), logger,
                    args.earlier_log)
    params = cfg.phys
    if cfg.delta > 0.0:
        init = regularize(init, cfg.delta)
    logger.info("simulate scenario=%s n_cells=%d t_end=%s delta=%s",
                cfg.scenario, grid.n_cells, format_float(cfg.t_end), format_float(cfg.delta))

    compat = compatibility_residuals(init, grid, params)
    if not compat.passed:
        msg = ("compatibility check failed: worst vacuum violation "
               f"{compat.worst_vacuum_violation:.3g} exceeds tolerance {compat.tolerance:.3g}")
        if args.strict_compat:
            logger.error("%s", msg)
            print(f"error: {msg}", file=sys.stderr)
            return EXIT_COMPAT
        logger.warning("%s (continuing; --strict-compat turns this into a failure)", msg)

    records = []
    totals = {"steps": 0, "picard_total": 0, "picard_max": 0,
              "clipped_total": 0, "max_div_residual": 0.0}

    def fold(befores, afters, dt):
        # a window of steps is one stacked residual pass on the diagnostics' stack
        residuals = consistency_residuals(befores, afters, dt, grid, params)
        totals["max_div_residual"] = max(totals["max_div_residual"],
                                         *np.ravel(residuals).tolist())

    def on_step(before, after, report):
        totals["steps"] += 1
        totals["picard_total"] += report.picard_iters
        totals["picard_max"] = max(totals["picard_max"], report.picard_iters)
        totals["clipped_total"] += report.clipped_cells

    def snapshot_sink(state):
        path = os.path.join(outdir, _snapshot_name(state.time))
        write_state_table(path, grid, state)
        logger.info("wrote %s", path)

    run(init, cfg.t_end, grid, params, cfg.scheme, sink=records.append,
        record_every=cfg.record_every, alpha=cfg.alpha,
        snapshot_times=cfg.snapshot_times,
        snapshot_sink=snapshot_sink, on_step=on_step, on_fold=fold)

    csv_path = os.path.join(outdir, "diagnostics.csv")
    _write_records(csv_path, records)

    summary_path = os.path.join(outdir, "run-summary.txt")
    mass_drift, energy_drift, monitor_drift = _write_summary(
        summary_path, cfg, grid, records, totals, compat)
    logger.info("finished: %d steps, %d diagnostic rows", totals["steps"], len(records))
    print(f"simulate {cfg.scenario}: {totals['steps']} steps, "
          f"mass drift {mass_drift:.3e}, energy drift {energy_drift:.3e}, "
          f"monitor drift {monitor_drift:.3e}")
    print(f"wrote {csv_path} and {summary_path}")
    return EXIT_OK


def _continuation(cfg, args, outdir, logger):
    name = args.scenario or cfg.scenario
    grid, base = _resolve_scenario(name, cfg.n_cells)
    deltas = _parse_list(args.deltas, "--deltas")
    t_end = cfg.t_end if args.t_end is None else args.t_end
    logger.info("continuation scenario=%s deltas=%s t_end=%s",
                name, args.deltas, format_float(t_end))
    try:
        report = continuation_study(base, deltas, t_end, grid, cfg.phys, cfg.scheme)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    text = report.render_text()
    _warn_replacing(outdir, ("continuation-report.txt", "continuation-report.csv"), logger,
                    args.earlier_log)
    _write(os.path.join(outdir, "continuation-report.txt"), text)
    _write(os.path.join(outdir, "continuation-report.csv"), report.to_csv())
    logger.info("continuation monotone=%s failures=%d", report.monotone, len(report.failures))
    print(text, end="")
    return EXIT_OK


def _mms(cfg, args, outdir, logger):
    if args.case not in MMS_CASES:
        known = ", ".join(sorted(MMS_CASES))
        raise ConfigError(f"unknown manufactured case {args.case!r}; known cases: {known}")
    resolutions = _parse_list(args.resolutions, "--resolutions", kind=int)
    logger.info("mms case=%s resolutions=%s", args.case, args.resolutions)
    try:
        report = mms_convergence(args.case, resolutions, cfg.phys, cfg.scheme,
                                 t_end=args.t_end)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    text = report.render_text()
    _warn_replacing(outdir, ("mms-report.txt", "mms-report.csv"), logger, args.earlier_log)
    _write(os.path.join(outdir, "mms-report.txt"), text)
    _write(os.path.join(outdir, "mms-report.csv"), report.to_csv())
    logger.info("mms orders: %s", " ".join(
        f"{name}={report.orders[name]:.3f}" for name in sorted(report.orders)))
    print(text, end="")
    return EXIT_OK


def _audit(cfg, args, outdir, logger):
    indir = args.input
    if not os.path.isdir(indir):
        raise ConfigError(f"--input {indir!r} is not a directory")
    paths = sorted(glob.glob(os.path.join(indir, "snapshot_t*.dat")))
    if not paths:
        raise ConfigError(f"no snapshot_t*.dat tables found in {indir!r}")

    grid = None
    snaps = []
    for path in paths:
        try:
            _, g, state = read_state_table(path)
        except ValueError as err:
            raise ConfigError(f"cannot read snapshot {path}: {err}") from None
        if grid is None:
            grid = g
        elif g.n_cells != grid.n_cells:
            raise ConfigError("snapshots mix different grid resolutions")
        snaps.append(state)
    snaps.sort(key=lambda s: s.time)
    times = [s.time for s in snaps]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ConfigError("snapshot times must be strictly increasing")
    logger.info("audit: %d snapshots from %s, t in [%s, %s]",
                len(snaps), indir, format_float(times[0]), format_float(times[-1]))

    params = cfg.phys
    first = snaps[0]
    init = InitialData(first.rho, first.u, first.w, first.b, first.theta)
    acc = diagnostics.DiagnosticsAccumulator(init, grid, params, alpha=cfg.alpha)
    records = acc.record([first])
    for before, after in zip(snaps, snaps[1:]):
        records += acc.hold(before, after, after.time - before.time, due=True)
    records += acc.flush()

    exponents = (1.0, 2.0, params.q_exp + 1.0)
    trials = 100
    ratios = [embedding_check(state, grid, trials=trials, seed=args.seed, exponents=exponents)
              for state in snaps]

    _warn_replacing(outdir, ("audit.csv", "audit-summary.txt"), logger, args.earlier_log)
    csv_path = os.path.join(outdir, "audit.csv")
    _write_records(csv_path, records)

    bound = 1.0 + 10.0 * grid.dx
    worst = max(ratios)
    mass_drift, energy_drift, entropy_ok = _ledger_drifts(records)
    lines = [
        "# cumulative columns are re-integrated snapshot to snapshot (coarse)",
        f"snapshots = {len(snaps)}",
        f"n_cells = {grid.n_cells}",
        f"t_first = {format_float(times[0])}",
        f"t_last = {format_float(times[-1])}",
        f"mass_drift_max = {format_float(mass_drift)}",
        f"energy_drift_rel = {format_float(energy_drift)}",
        f"entropy_prod_nondecreasing = {'yes' if entropy_ok else 'no'}",
        f"embedding_trials = {trials}",
        f"embedding_seed = {args.seed}",
        f"embedding_bound = {format_float(bound)}",
        f"embedding_worst = {format_float(worst)}",
        f"embedding_pass = {'yes' if worst <= bound else 'no'}",
    ]
    for i, (t, ratio) in enumerate(zip(times, ratios)):
        lines.append(f"snapshot_{i}_time = {format_float(t)}")
        lines.append(f"snapshot_{i}_embedding = {format_float(ratio)}")
    summary_path = os.path.join(outdir, "audit-summary.txt")
    _write(summary_path, "\n".join(lines) + "\n")
    logger.info("audit: embedding worst %s against bound %s",
                format_float(worst), format_float(bound))
    print(f"audit {indir}: {len(snaps)} snapshots, embedding worst {worst:.6g} "
          f"(bound {bound:.6g})")
    print(f"wrote {csv_path} and {summary_path}")
    return EXIT_OK


_COMMANDS = {"simulate": _simulate, "continuation": _continuation,
             "mms": _mms, "audit": _audit}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        if err.code is None:
            return EXIT_OK
        return err.code if isinstance(err.code, int) else EXIT_CONFIG

    try:
        cfg = load_config_file(args.config) if args.config is not None else RunConfig()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = args.out or os.environ.get("PLANAR_MHD_OUT") or cfg.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory {outdir!r}: {err}", file=sys.stderr)
        return EXIT_CONFIG

    # the logger truncates run.log, so look for an earlier one first
    args.earlier_log = os.path.exists(os.path.join(outdir, "run.log"))
    logger = _open_logger(outdir)
    try:
        return _COMMANDS[args.command](cfg, args, outdir, logger)
    except ConfigError as err:
        logger.error("%s", err)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as err:
        logger.error("%s", err)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        _close_logger(logger)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
