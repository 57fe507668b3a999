"""Spans and counts at the module boundaries of cbolab, recorded from outside.

Nothing in the package is traced from the inside. `instrument` swaps the
public functions for recording wrappers at the points where one module calls
the next (the names `analysis`, `cli` and `dynamics` bind) and returns the
API the workloads call, plus an undo function. Spans stay in memory and are
written out once, when the run ends.

softmax_weights runs ~10^5 times per simulate call, so it is not given a
span of its own: its calls and time are added to the innermost open span
(always a `dynamics.simulate`), which is enough to derive self times.
"""
from __future__ import annotations

import dataclasses
import os
import time
from types import SimpleNamespace

import cbolab
import cbolab.analysis as analysis
import cbolab.cli as cli
import cbolab.dynamics as dynamics

_now = time.perf_counter


class CountingEval:
    """Objective.eval substitute that adds one to a shared counter per call."""

    __slots__ = ("fn", "counter")

    def __init__(self, fn, counter):
        self.fn = fn
        self.counter = counter

    def __call__(self, x):
        self.counter[0] += 1
        return self.fn(x)


class Tracer:
    """In-memory span recorder; a span's id is its index in `spans`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.evals = [0]  # shared by every CountingEval this tracer hands out
        self.op = None  # id of the op being run, set by the workload runner

    def objective(self, obj):
        return dataclasses.replace(obj, eval=CountingEval(obj.eval, self.evals))

    def span(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "start": _now(),
                "end": None,
                "evals": self.evals[0],
                "leaf_calls": 0,
                "leaf_s": 0.0,
            }
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = _now()
                rec["evals"] = self.evals[0] - rec["evals"]
                self._open.pop()
            if annotate is not None:
                rec.update(annotate(args, result))
            return result

        return traced

    def leaf(self, fn):
        def timed(*args):
            t0 = _now()
            result = fn(*args)
            rec = self.spans[self._open[-1]]
            rec["leaf_s"] += _now() - t0
            rec["leaf_calls"] += 1
            return result

        return timed


def plain_api():
    """The workloads' view of cbolab with tracing off: the public functions."""
    return SimpleNamespace(
        in_process=False,
        objective=lambda obj: obj,
        certify_calyx=cbolab.certify_calyx,
        reduced_two_particle=cbolab.reduced_two_particle,
        sweep_alpha=cbolab.sweep_alpha,
        sweep_n=cbolab.sweep_n,
    )


def _simulate_attrs(args, out):
    rows = len(out.trajectory.times) if out.trajectory is not None else 0
    return {"particles": len(args[1].initial_positions), "steps": out.n_steps, "rows": rows}


def _reduced_attrs(args, out):
    return {"steps": out.n_steps}


def _written_attrs(args, out):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer: Tracer):
    """Patch the module boundaries to record into tracer; return (api, undo)."""
    simulate = tracer.span("dynamics.simulate", dynamics.simulate, _simulate_attrs)
    reduced = tracer.span("dynamics.reduced", dynamics.reduced_two_particle, _reduced_attrs)
    certify = tracer.span("analysis.certify", analysis.certify_calyx)
    sweep_alpha = tracer.span("analysis.sweep", analysis.sweep_alpha)
    sweep_n = tracer.span("analysis.sweep", analysis.sweep_n)
    parse_config = cli.parse_config
    build_objective = analysis.builtin_objective

    def parse_counting(path, command):
        cfg = parse_config(path, command)
        if cfg.objective is not None:
            cfg.objective = tracer.objective(cfg.objective)
        return cfg

    patches = [
        (dynamics, "softmax_weights", tracer.leaf(dynamics.softmax_weights)),
        (analysis, "simulate", simulate),
        (analysis, "reduced_two_particle", reduced),
        (analysis, "builtin_objective", lambda *a: tracer.objective(build_objective(*a))),
        (cli, "simulate", simulate),
        (cli, "certify_calyx", certify),
        (cli, "sweep_alpha", sweep_alpha),
        (cli, "sweep_n", sweep_n),
        (cli, "verify_invariants", tracer.span("analysis.verify", analysis.verify_invariants)),
        (cli, "parse_config", tracer.span("cli.parse", parse_counting)),
        (cli, "trajectory_csv", tracer.span("cli.format", cli.trajectory_csv)),
        (cli, "sweep_csv", tracer.span("cli.format", cli.sweep_csv)),
        (cli, "write_text_atomic", tracer.span("cli.write", cli.write_text_atomic, _written_attrs)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)

    def undo():
        for module, name, original in saved:
            setattr(module, name, original)

    api = SimpleNamespace(
        in_process=True,
        objective=tracer.objective,
        certify_calyx=certify,
        reduced_two_particle=reduced,
        sweep_alpha=sweep_alpha,
        sweep_n=sweep_n,
        cli_main=cli.main,
    )
    return api, undo


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times; self time excludes child spans and leaf calls."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]

    def of(name):
        return [(s, s["end"] - s["start"], i) for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(d for _, d, _ in of(name))

    def self_time(name):
        return sum(d - child_s[i] - s["leaf_s"] for s, d, i in of(name))

    reduced = of("dynamics.reduced")
    reduced_steps = sum(s["steps"] for s, _, _ in reduced)
    sims = of("dynamics.simulate")
    particle_steps = sum(s["steps"] * s["particles"] for s, _, _ in sims)
    simulate_s = total("dynamics.simulate")
    return {
        "objective.eval_calls": tracer.evals[0],
        "objective.softmax_calls": sum(s["leaf_calls"] for s in spans),
        "objective.softmax_s": sum(s["leaf_s"] for s in spans),
        "dynamics.reduced_calls": len(reduced),
        "dynamics.reduced_s": total("dynamics.reduced"),
        "dynamics.reduced_steps": reduced_steps,
        "dynamics.reduced_evals_per_step": (
            sum(s["evals"] for s, _, _ in reduced) / reduced_steps if reduced_steps else 0.0
        ),
        "dynamics.simulate_calls": len(sims),
        "dynamics.simulate_s": simulate_s,
        "dynamics.simulate_self_s": self_time("dynamics.simulate"),
        "dynamics.simulate_steps": sum(s["steps"] for s, _, _ in sims),
        "dynamics.us_per_particle_step": (
            1e6 * simulate_s / particle_steps if particle_steps else 0.0
        ),
        "dynamics.trajectory_rows": sum(s["rows"] for s, _, _ in sims),
        "analysis.certify_s": total("analysis.certify"),
        "analysis.sweep_s": total("analysis.sweep"),
        "analysis.sweep_self_s": self_time("analysis.sweep"),
        "analysis.verify_s": total("analysis.verify"),
        "analysis.verify_self_s": self_time("analysis.verify"),
        "cli.parse_s": total("cli.parse"),
        "cli.format_s": total("cli.format"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": sum(s["bytes"] for s, _, _ in of("cli.write")),
    }
