"""One workload run in a fresh process, so that RUSAGE_SELF is the workload's.

Started by run.py; not meant to be run by hand. Set-up (importing cbolab and
generating the inputs from the seed) is timed first. With --setup-only the
worker stops there. Otherwise it runs untraced passes while time remains
(half the time with --trace 1) and, with --trace 1, exactly one traced pass,
so that the trace's counts depend on the seed alone. Results go to the JSON
file named by --result; spans, when traced, to --spans.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time


def _median_of(records, kind):
    times = [r.seconds for r in records if r.kind == kind]
    return statistics.median(times) if times else None


def main() -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import cbolab

    if not os.path.abspath(cbolab.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"cbolab was imported from {cbolab.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    import random

    import workloads

    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), args.workdir)
    result = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        return _write(args.result, result)

    import proc
    import tracing

    runner = workloads.Runner()
    api = tracing.plain_api()
    budget = args.seconds / 2 if args.trace else args.seconds
    pass_s = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        workload.run_pass(api, runner)
        pass_s.append(time.perf_counter() - p0)
        runner.pass_index += 1
        if time.perf_counter() - start + statistics.median(pass_s) > budget:
            break
    result.update(
        pass_s=pass_s,
        ops=[[r.kind, r.seconds, r.ok, r.detail, r.pass_index] for r in runner.records],
        child_rss_mb=getattr(workload, "child_rss_mb", []),
        cross_check=workload.cross_check(runner.records),
    )
    j1, j2 = (_median_of(runner.records, f"sweep-n --jobs {j}") for j in (1, 2))

    if args.trace:
        layers = {"cli.process_start_s": 0.0, "analysis.parallel_speedup": 0.0}
        if j1 and j2:
            layers["analysis.parallel_speedup"] = j1 / j2
        if args.workload == "cli-artifacts":
            env = dict(os.environ, PYTHONPATH=args.src)
            out = os.path.join(args.workdir, "start.txt")
            starts = [
                proc.run([sys.executable, "-c", "import cbolab.cli"], env, out, out).seconds
                for _ in range(3)
            ]
            layers["cli.process_start_s"] = statistics.median(starts)
        tracer = tracing.Tracer()
        traced_runner = workloads.Runner(tracer)
        traced_api, undo = tracing.instrument(tracer)
        try:
            p0 = time.perf_counter()
            workload.run_pass(traced_api, traced_runner)
            traced_s = time.perf_counter() - p0
        finally:
            undo()
        layers.update(tracing.layer_metrics(tracer))
        untraced_s = statistics.median(pass_s)
        layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        result["traced"] = {
            "pass_s": traced_s,
            "layers": layers,
            "ops": [[r.kind, r.seconds, r.ok, r.detail, "traced"] for r in traced_runner.records],
        }
        with open(args.spans, "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")
    return _write(args.result, result)


def _write(path, result) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
