"""cbolab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pair-stiff --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all       # every workload, seed 1

Run from the root of a checkout; the benchmark uses the cbolab sources in
src/ and the standard library only. It prints a human-readable report and,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json, measured untraced; with --trace 1 they are the per-layer
metrics, measured from one traced pass (plus the untraced passes they are
compared with). perfbench/manifest.json records each metric's layer and the
end-to-end metric and workload it should move, and each workload's bypassed
layers. Full reports (provenance included) and the spans of traced runs are
written to .perfbench_out/.

End-to-end metrics:
  run_s        median over passes of one pass's wall time, first op start
               to last op end: the time to a verified run of the experiment
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with at least ten ops
               beyond it; with fewer than 100 ops (so below p90), the
               slowest op
  setup_s      median over five fresh processes of importing cbolab and
               generating the inputs from the seed (INI files included)
  peak_rss_mb  peak resident memory of the worker process, or for
               cli-artifacts of the largest single `cbolab` child
  fail_frac    failed ops / attempted ops (printed; also the failed and
               attempted fields of the JSON line, as it is 0 when all is well)
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import proc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def _provenance(seed: int) -> dict:
    git_sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "seed": seed,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _tail(latencies):
    """(value, percentile): highest percentile with >= 10 samples beyond it.

    Below 100 samples that percentile would be under p90, so the slowest
    sample is reported instead (as p100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n


def _worker(args, workdir, result_path, extra, deadline):
    log = os.path.join(workdir, os.path.basename(result_path) + ".log")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--src", SRC, "--workdir", workdir, "--result", result_path, *extra]
    child = proc.run_with_deadline(argv, dict(os.environ), log, log, deadline - time.perf_counter())
    if child.code != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with code {child.code}")
    with open(result_path) as fh:
        return json.load(fh), child


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "manifest.json")) as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cbolab", "__init__.py")):
        print(f"error: no cbolab sources under {SRC}", file=sys.stderr)
        return 2
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        run_workload(args, bench, manifest)
    return 0


def run_workload(args, bench, manifest) -> None:
    """Run one workload and print its report, ending with the JSON result line."""
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(outdir, f"{tag}-spans.jsonl")
    try:
        setups = []
        for k in range(SETUP_REPEATS - 1):
            probe_dir = os.path.join(workdir, f"setup{k}")
            os.makedirs(probe_dir)
            res, _ = _worker(args, probe_dir, os.path.join(probe_dir, "setup.json"),
                             ["--setup-only"], deadline)
            setups.append(res["setup_s"])
        res, worker = _worker(args, workdir, os.path.join(workdir, "result.json"),
                              ["--spans", spans_path], deadline)
        setups.append(res["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["ops"]
    traced = res.get("traced")
    every_op = ops + (traced["ops"] if traced else [])
    failed = [op for op in every_op if not op[2]]
    latencies = [op[1] for op in ops]
    tail, tail_pct = _tail(latencies)
    rss_source = "largest cbolab child" if res["child_rss_mb"] else "worker process"
    e2e = {
        "run_s": statistics.median(res["pass_s"]),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setups),
        "fail_frac": len(failed) / len(every_op),
        "peak_rss_mb": max(res["child_rss_mb"]) if res["child_rss_mb"] else worker.maxrss_mb,
    }
    notes = {
        "run_s": f"median of {len(res['pass_s'])} passes",
        "op_p50_ms": f"n={len(latencies)} ops",
        "op_tail_ms": f"p{tail_pct:.1f}, n={len(latencies)} ops"
        + (" (fewer than 100 ops: slowest)" if tail_pct == 100.0 else ""),
        "setup_s": f"median of {len(setups)} set-ups",
        "fail_frac": f"{len(failed)} failed / {len(every_op)} attempted",
        "peak_rss_mb": rss_source,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["fail_frac"] = manifest["metrics"]["fail_frac"]["unit"]

    prov = _provenance(args.seed)
    print(f"perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"why: {manifest['workloads'][args.workload]['why']}")
    print(f"bypasses: {', '.join(manifest['workloads'][args.workload]['bypasses']) or 'none'}")
    print("end-to-end (untraced):")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]} ({notes[name]})")
    print("baseline cross-check (ROADMAP figures were measured by hand on another run):")
    for name, value in res["cross_check"].items():
        roadmap = manifest["roadmap_baseline"].get(name)
        print(f"  {name} = {value:.4g}" + (f" (ROADMAP: {roadmap})" if roadmap else ""))
    layers = {}
    if traced:
        layers = traced["layers"]
        print(f"per-layer (one traced pass, {traced['pass_s']:.3f} s):")
        for m in bench["per_layer"]:
            info = manifest["metrics"][m["name"]]
            print(f"  {m['name']} = {layers[m['name']]:.6g} {m['unit']} "
                  f"[{info['layer']}; moves {', '.join(info['moves']) or 'nothing'} on {info['on']}]")
        if args.workload == "cli-artifacts":
            print("  note: spans inside --jobs 2 pool workers are not collected; that sweep's "
                  "time shows only as analysis.sweep_s (and its self time). The traced pass "
                  "calls cbolab.cli.main in-process, so it also skips each op's interpreter "
                  "start: trace.overhead_frac here is the net of both")
        print(f"  spans: {spans_path}")
    for op in failed[:20]:
        print(f"FAILED {op[0]} (pass {op[4]}): {op[3]}")
    if len(failed) > 20:
        print(f"... and {len(failed) - 20} more failed ops (all are in the report file)")

    report = {"provenance": prov, "workload": args.workload, "trace": args.trace,
              "end_to_end": e2e, "notes": notes, "per_layer": layers,
              "cross_check": res["cross_check"], "pass_s": res["pass_s"], "ops": every_op,
              "setup_s": setups}
    with open(os.path.join(outdir, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    chosen = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every_op),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))


if __name__ == "__main__":
    sys.exit(main())
