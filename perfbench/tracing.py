"""Call-site wrappers for planar_mhd: spans for the traced run, plus the two
timestamp/counter shims the untraced run needs.

planar_mhd's modules import each other's functions by name (for example
`from .operators import solve_flux_system` in solver), so wrapping a
function on its home module alone would miss those callers.  `substitute`
therefore rebinds every module-level name in the package that refers to the
original object.  Methods are wrapped on their classes.  Nothing under src/
is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import sys
import time

PACKAGE = "planar_mhd"


def substitute(original, replacement):
    """Rebind every planar_mhd module attribute that is `original`."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise LookupError(f"no planar_mhd module refers to {original!r}")


class SetupReached(BaseException):
    """Raised by a setup probe at the first entry into solver.run.

    A BaseException, so the CLI's ConfigError/SimulationError handlers let
    it through unchanged."""


class RunEntryClock:
    """Timestamp of the first entry into solver.run, taken by a shim on the
    names that cli and verification call it by."""

    def __init__(self, stop_at_entry=False):
        self.first_ns = None
        self.stop_at_entry = stop_at_entry

    def install(self):
        import planar_mhd.solver as solver

        original = solver.run

        @functools.wraps(original)
        def run(*args, **kwargs):
            if self.first_ns is None:
                self.first_ns = time.monotonic_ns()
                if self.stop_at_entry:
                    raise SetupReached
            return original(*args, **kwargs)

        substitute(original, run)


class StepCounter:
    """Counts calls of solver.step (one per accepted or failed step)."""

    def __init__(self):
        self.steps = 0

    def install(self):
        import planar_mhd.solver as solver

        original = solver.step

        @functools.wraps(original)
        def step(*args, **kwargs):
            self.steps += 1
            return original(*args, **kwargs)

        substitute(original, step)


class Tracer:
    """In-memory span recorder.

    A span is [name, parent index, start ns, end ns, error class or None];
    its index in `spans` is its id.  Calls are synchronous and
    single-threaded, so a stack gives each span its parent.  `work` holds
    counts recorded at the same boundaries (cells solved, bytes, passes).
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.work = {}
        self.names = []

    def add_work(self, key, amount):
        self.work[key] = self.work.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; after(tracer, args, result) records
        work once the call has returned."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        if name not in self.names:
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap the package's public functions at their call sites."""
        import planar_mhd.cli as cli
        import planar_mhd.config as config
        import planar_mhd.diagnostics as diagnostics
        import planar_mhd.initial as initial
        import planar_mhd.model as model
        import planar_mhd.operators as operators
        import planar_mhd.solver as solver
        import planar_mhd.tables as tables
        import planar_mhd.verification as verification

        def solved_cells(tracer, args, result):
            tracer.add_work("solve_cells", args[2].size)

        def picard_passes(tracer, args, result):
            passes = result[1]
            tracer.add_work("picard_passes", passes)
            tracer.work["picard_passes_max"] = max(tracer.work.get("picard_passes_max", 0),
                                                   passes)

        def written_bytes(tracer, args, result):
            tracer.add_work("write_bytes", os.path.getsize(args[0]))

        def read_bytes(tracer, args, result):
            tracer.add_work("read_bytes", os.path.getsize(args[0]))

        functions = [
            ("operators.solve_flux_system", operators.solve_flux_system, solved_cells),
            ("solver.conduction_update", solver.conduction_update, picard_passes),
            ("solver.step", solver.step, None),
            ("solver.consistency_residuals", solver.consistency_residuals, None),
            ("solver.run", solver.run, None),
            ("model.pressure", model.pressure, None),
            ("model.kappa", model.kappa, None),
            ("verification.mms_convergence", verification.mms_convergence, None),
            ("verification.continuation_study", verification.continuation_study, None),
            ("verification.embedding_check", verification.embedding_check, None),
            ("tables.write_state_table", tables.write_state_table, written_bytes),
            ("tables.read_state_table", tables.read_state_table, read_bytes),
            ("initial.compatibility_residuals", initial.compatibility_residuals, None),
            ("initial.load_initial_table", initial.load_initial_table, None),
            ("initial.regularize", initial.regularize, None),
            ("config.load_config_file", config.load_config_file, None),
            ("cli.main", cli.main, None),
        ]
        for name, fn, after in functions:
            substitute(fn, self.wrap(name, fn, after))

        # State construction cost is its validating copy in __post_init__
        model.State.__post_init__ = self.wrap("model.State", model.State.__post_init__)
        acc = diagnostics.DiagnosticsAccumulator
        acc.update = self.wrap("diagnostics.update", acc.update)
        acc.record = self.wrap("diagnostics.record", acc.record)

        forcing = verification.MMSCase.forcing
        tracer = self

        @functools.wraps(forcing)
        def traced_forcing(case, params):
            plain = forcing(case, params)
            wrapped = {f.name: tracer.wrap("verification.forcing", getattr(plain, f.name))
                       for f in dataclasses.fields(plain) if getattr(plain, f.name) is not None}
            return dataclasses.replace(plain, **wrapped)

        verification.MMSCase.forcing = traced_forcing
        self.names.append("verification.forcing")  # wrapped only once forcing() runs

    def write_spans(self, path):
        """Write the spans as CSV (id, parent, name, start, end, error)."""
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# run_id = {self.run_id}\n")
            fh.write("id,parent,name,start_ns,end_ns,error\n")
            for sid, (name, parent, start, end, error) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end},{error or ''}\n")

    def layer_metrics(self):
        """Fold the spans into the per-layer metrics (without
        trace.overhead_s, which needs an untraced run).

        Every wrapped layer gets calls, busy_s (summed span duration) and
        self_s (busy_s minus the time covered by its direct child spans;
        calls are synchronous, so children never overlap), plus the
        layer-specific counts and splits below."""
        spans = self.spans
        busy, self_ns, calls = {}, {}, {}
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        solve_ns = {}  # solve time by calling layer
        step_ms = []
        errors = 0
        for sid, (name, parent, start, end, error) in enumerate(spans):
            busy[name] = busy.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[sid]
            calls[name] = calls.get(name, 0) + 1
            if name == "operators.solve_flux_system" and parent >= 0:
                caller = spans[parent][0]
                solve_ns[caller] = solve_ns.get(caller, 0) + end - start
            elif name == "solver.step":
                step_ms.append((end - start) / 1e6)
                if error is not None:
                    errors += 1
        q = statistics.quantiles(step_ms, n=100, method="inclusive")
        cells = self.work.get("solve_cells", 0)
        passes = self.work.get("picard_passes", 0)
        solve_self = self_ns.get("operators.solve_flux_system", 0)

        metrics = {
            "operators.solve_flux_system.cells": cells,
            "operators.solve_flux_system.ns_per_cell": solve_self / max(cells, 1),
            "operators.solve_flux_system.picard_s":
                solve_ns.get("solver.conduction_update", 0) / 1e9,
            "operators.solve_flux_system.viscous_s": solve_ns.get("solver.step", 0) / 1e9,
            "solver.picard_passes": passes,
            "solver.picard_passes_per_step":
                passes / max(calls.get("solver.conduction_update", 0), 1),
            "solver.picard_passes_max": self.work.get("picard_passes_max", 0),
            "solver.step.p50_ms": q[49],
            "solver.step.p95_ms": q[94],
            "solver.errors": errors,
            "tables.write_state_table.bytes": self.work.get("write_bytes", 0),
            "tables.read_state_table.bytes": self.work.get("read_bytes", 0),
        }
        for name in self.names:
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.busy_s"] = busy.get(name, 0) / 1e9
            metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        return metrics
