"""One iteration of a workload in a fresh process.

    python3 perfbench/child.py --mode plain|traced|setup --t0-ns NS \
        --commands FILE --result FILE [--spans FILE] [--run-id ID]

The parent passes the monotonic clock reading it took just before starting
this process; setup_s runs from there to the first entry into solver.run,
so it covers interpreter start, the numpy and planar_mhd imports, config
parsing, reading the input table and the compatibility check.

plain: untraced; only the solver.run entry clock and a step counter are
installed.  traced: every layer boundary gets a span.  setup: stops at the
first entry into solver.run (a setup probe).
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--commands", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    with open(args.commands) as fh:
        commands = json.load(fh)

    import planar_mhd.cli as cli
    from tracing import RunEntryClock, SetupReached, StepCounter, Tracer

    result = {"commands": []}
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(args.run_id)
        tracer.install()
    clock = RunEntryClock(stop_at_entry=args.mode == "setup")
    clock.install()
    counter = StepCounter()
    counter.install()

    try:
        for label, argv in commands:
            steps_before = counter.steps
            start = time.perf_counter_ns()
            code = cli.main(argv)
            elapsed = time.perf_counter_ns() - start
            result["commands"].append({"label": label, "exit": code, "wall_s": elapsed / 1e9,
                                       "steps": counter.steps - steps_before})
    except SetupReached:
        pass

    if clock.first_ns is not None:
        result["setup_s"] = (clock.first_ns - args.t0_ns) / 1e9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["error_classes"] = sorted({span[4] for span in tracer.spans if span[4]})
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
