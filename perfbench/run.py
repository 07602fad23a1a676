"""planar-mhd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: sim-large, sim-small-audit,
studies (see workloads.py).  Each iteration runs the workload's command
sequence through planar_mhd.cli.main in a fresh single-threaded child
process (child.py) against src/ as it is, then checks the outputs
(checks.py).  Iterations repeat until S seconds have passed, at least
MIN_ROUNDS times.

--trace 0 reports the end-to-end metrics, medians over the iterations:
wall_s, setup_s (also sampled by setup probes that stop at the first entry
into solver.run), ms_per_step and peak_rss_mb.  --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (medians), tracing overhead, and checks that every traced
iteration wrote byte-identical files to the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else (run context, samples,
digests, the prediction table) goes to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
MIN_ROUNDS = 3
SETUP_PROBES_PER_ROUND = 3
RUN_LIMIT_S = 170  # a whole run, children included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ms_per_step": "ms", "peak_rss_mb": "MiB"}


class Bench:
    """One benchmark run of one workload: child processes, checks and the
    operation tally."""

    def __init__(self, workload, seed, work, commands, out):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = out
        self.commands_file = os.path.join(work, "commands.json")
        with open(self.commands_file, "w") as fh:
            json.dump(commands, fh)
        self.env = dict(os.environ, PYTHONPATH="src", **{v: "1" for v in THREAD_VARS})
        self.attempted = 0
        self.failures = []
        self.reference_digests = None
        self.children = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def op(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def child(self, mode, out_dir):
        """Run child.py once; return its result dict, or None if it failed."""
        self.children += 1
        result_path = os.path.join(self.work, f"child-{self.children}.json")
        spans_path = os.path.join(self.work, "spans.csv")
        run_id = f"{self.workload}-seed{self.seed}-{self.children}"
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--mode", mode,
                "--commands", self.commands_file, "--result", result_path,
                "--spans", spans_path, "--run-id", run_id]
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(os.path.join(self.work, "child.log"), "w") as log:
            t0 = time.monotonic_ns()
            try:
                proc = subprocess.run(argv + ["--t0-ns", str(t0)], env=self.env,
                                      stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(self.deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired:
                self.op(f"{mode} child finished within the {RUN_LIMIT_S} s run limit", False)
                return None
        if not self.op(f"{mode} child exit code 0", proc.returncode == 0):
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result

    def setup_probe(self):
        result = self.child("setup", os.path.join(self.work, "probe"))
        if result is not None and self.op("setup probe reached solver.run", "setup_s" in result):
            return result["setup_s"]
        return None

    def iteration(self, mode):
        """One full run of the command sequence, its output checks, and the
        byte comparison against the first iteration of this benchmark run.
        Returns the child's result, also when a check failed (the failure
        is counted, the timing kept); None when the child itself failed."""
        result = self.child(mode, self.out)
        if result is None:
            return None
        for cmd in result["commands"]:
            label = cmd["label"]
            self.op(f"{label} exit code 0", cmd["exit"] == 0)
            for name, passed in checks.check_command(cmd, os.path.join(self.out, label)):
                self.op(name, passed)
        digests = checks.digests(self.out)
        if self.reference_digests is None:
            self.reference_digests = digests
        else:
            what = "traced outputs" if mode == "traced" else "outputs"
            self.op(f"{what} byte-identical to the first untraced iteration",
                    digests == self.reference_digests)
        return result


def wall(result):
    return sum(cmd["wall_s"] for cmd in result["commands"])


def ms_per_step(result):
    """simulate wall over its steps; for the studies, the whole sequence
    over all solver steps."""
    cmds = [c for c in result["commands"] if c["label"] == "simulate"] or result["commands"]
    return 1e3 * sum(c["wall_s"] for c in cmds) / sum(c["steps"] for c in cmds)


def median(values):
    return statistics.median(values) if values else float("nan")


def run_context(root):
    import numpy

    context = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "commit": None,
        "src_lines": 0,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    context["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(caches)):
            if index.startswith("index"):
                fields = []
                for key in ("level", "type", "size"):
                    with open(os.path.join(caches, index, key)) as fh:
                        fields.append(fh.read().strip())
                context["caches"][f"L{fields[0]} {fields[1]}"] = fields[2]
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        context["commit"] = head
    except OSError:
        pass  # not a git checkout, or a packed ref
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    context["src_lines"] += sum(1 for _ in fh)
    return context


def main(argv=None):
    parser = argparse.ArgumentParser(description="planar-mhd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planar_mhd", "__init__.py")):
        print("error: run from the repository root; src/planar_mhd is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2

    work = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "iter")
    os.makedirs(inputs)
    commands = workloads.prepare(args.workload, inputs, out, args.seed)
    bench = Bench(args.workload, args.seed, work, commands, out)
    with open(os.path.join(BENCH_DIR, "predictions.json")) as fh:
        layers = json.load(fh)["layers"]

    start = time.monotonic()
    rounds = 0
    samples = {"wall_s": [], "setup_s": [], "ms_per_step": [], "peak_rss_mb": []}
    traced = []
    while ((rounds < MIN_ROUNDS or time.monotonic() - start < args.seconds)
           and time.monotonic() < bench.deadline):
        rounds += 1
        if args.trace:
            plain = bench.iteration("plain")
            if plain is not None:
                samples["wall_s"].append(wall(plain))
            result = bench.iteration("traced")
            if result is not None:
                traced.append(result)
            continue
        for _ in range(SETUP_PROBES_PER_ROUND):
            setup = bench.setup_probe()
            if setup is not None:
                samples["setup_s"].append(setup)
        result = bench.iteration("plain")
        if result is not None:
            samples["wall_s"].append(wall(result))
            samples["setup_s"].append(result["setup_s"])
            samples["ms_per_step"].append(ms_per_step(result))
            samples["peak_rss_mb"].append(result["peak_rss_mb"])

    if args.trace:
        metrics = {}
        for layer in layers:
            name = layer["name"]
            if name == "trace.overhead_s":
                value = median([wall(r) for r in traced]) - median(samples["wall_s"])
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": layer["unit"]}
    else:
        metrics = {name: {"value": median(values), "unit": END_TO_END_UNITS[name]}
                   for name, values in samples.items()}
    failed = len(bench.failures)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "context": run_context(root),
        "metrics": metrics,
        "samples": samples,
        "failed_ratio": failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "error_classes": sorted({c for r in traced for c in r.get("error_classes", [])}),
        "output_sha256": bench.reference_digests,
        "predictions": layers if args.trace else None,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    for name in sorted(bench.failures):
        print(f"FAILED: {name}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds"
          f" ({'traced' if args.trace else 'untraced'}); details in {work}/result.json")
    for name, metric in metrics.items():
        n = len(traced) if args.trace else len(samples[name])
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']:6s} (median of {n})")
    print(f"  {'failed_ratio':45s} {report['failed_ratio']:14.6g} {'1':6s}"
          f" ({failed} of {bench.attempted} operations)")
    try:
        line = json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                           "failed": failed, "metrics": metrics}, allow_nan=False)
    except ValueError:
        print("error: no iteration finished, so there is no metric to report",
              file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
