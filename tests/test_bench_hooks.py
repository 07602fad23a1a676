"""The benchmark's call-site hooks (perfbench/tracing.py) must keep finding
the package functions they wrap.

`substitute` raises LookupError when a wrapped name no longer exists, so a
refactor under src/ that renames or inlines one of them would otherwise
surface only when the benchmark runs.  The hooks rebind module attributes
and patch classes for the life of the process, so the run happens in a
child process.  Nothing under perfbench/ is edited.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from planar_mhd.diagnostics import window_length

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
import planar_mhd.cli as cli
import planar_mhd.operators as operators
from tracing import RunEntryClock, StepCounter, Tracer

if sys.argv[2] == "numpy":
    operators._KERNEL = None  # the numpy step and the Python pivot loop

tracer = Tracer("hooks")
tracer.install()
clock = RunEntryClock()
clock.install()
counter = StepCounter()
counter.install()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
json.dump({"exits": codes, "steps": counter.steps, "entered_run": clock.first_ns is not None,
           "compiled": operators._KERNEL is not None, "layers": tracer.layer_metrics()},
          sys.stdout)
"""


def run_hooked(tmp_path, *commands, path="default"):
    """Run the CLI commands in one child process with the hooks installed,
    as a benchmark workload does, and return what the child reports.  With
    path="numpy" the child runs with the compiled kernel switched off."""
    env = dict(os.environ)
    env.pop("PLANAR_MHD_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands), path],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exits"] == [0] * len(commands)
    return result


def test_benchmark_hooks_install_and_count_a_small_simulate(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.02\n"
                   "snapshot_times = 0.01\n")
    for path in ("default", "numpy"):
        out = tmp_path / path
        result = run_hooked(tmp_path, ["--config", str(cfg), "--out", str(out), "simulate"],
                            path=path)
        assert result["entered_run"]
        steps = result["steps"]
        layers = result["layers"]
        assert steps > 1
        assert layers["solver.step.calls"] == steps
        # one residual call per diagnostics window of steps
        window = window_length(32)
        assert layers["solver.consistency_residuals.calls"] == math.ceil(steps / window)
        assert layers["solver.errors"] == 0
        # step calls conduction_update by name on both paths, so the Picard
        # metrics count every step's passes
        assert layers["solver.conduction_update.calls"] == steps
        assert layers["solver.picard_passes"] >= steps
        if not result["compiled"]:
            # without the kernel every solve goes through the Python entry
            # point, so the per-layer solve metrics count them
            assert layers["operators.solve_flux_system.calls"] > 0
            assert layers["operators.solve_flux_system.cells"] > 0
        # the diagnostics fold several steps at a time, inside the two spans
        # the per-layer metrics attribute them to
        for name in ("diagnostics.update", "diagnostics.record"):
            assert layers[f"{name}.calls"] > 0
            assert layers[f"{name}.busy_s"] > 0.0
    assert not result["compiled"]


def test_each_state_computes_its_pressure_and_kappa_once(tmp_path):
    # P and kappa of an accepted state are shared by the next step, the
    # ledger, the residual and the norm suite.  Per step that leaves one P
    # of the new state, one P(rho_new, theta_old) for the pressure work and
    # one kappa of the new state plus one per Picard pass; the +2 are the
    # admissibility check and the initial record.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.1\n"
                   "snapshot_times = 0.01\n")
    result = run_hooked(tmp_path, ["--config", str(cfg), "--out", str(tmp_path / "out"),
                                   "simulate"])
    steps, layers = result["steps"], result["layers"]
    assert steps > 5
    assert layers["model.pressure.calls"] <= 2 * steps + 2
    assert layers["model.kappa.calls"] <= layers["solver.picard_passes"] + steps + 2


def test_benchmark_hooks_count_one_embedding_check_per_audited_table(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.02\n"
                   "snapshot_times = 0.0,0.01,0.02\n")
    sim, audit = tmp_path / "simulate", tmp_path / "audit"
    layers = run_hooked(
        tmp_path, ["--config", str(cfg), "--out", str(sim), "simulate"],
        ["--seed", "23", "--out", str(audit), "audit", "--input", str(sim)])["layers"]
    tables = len(list(sim.glob("snapshot_t*.dat")))
    assert tables == 3
    assert layers["verification.embedding_check.calls"] == tables
    assert layers["tables.read_state_table.calls"] == tables
