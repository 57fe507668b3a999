"""Command-line front end.

Subcommands: simulate, sweep-alpha, sweep-n, certify, verify. Each reads an
INI-style config file (sections [objective], [sim], and one per command) and
writes CSV artifacts plus a short human summary. Two tables declare the
interface: `_KEYS` holds every config section's keys and the reader of each
(any other key is an error), and `_COMMANDS` every subcommand's function and
flags (declared in `_FLAGS`). Exit codes: 0 success, 1 configuration or
validation error, 2 the run completed but did not reach its goal (timeout,
undefined slope, failed checks), 3 certification rejected for lack of
curvature at the minimizer.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace

from ._files import open_text_atomic, write_text_atomic
from .analysis import (
    CurvatureError,
    certify_calyx,
    sweep_alpha,
    sweep_csv,
    sweep_n,
    verify_invariants,
)
from .dynamics import IntegrationError, SimConfig, simulate, trajectory_writer
from .dynamics import trajectory_csv  # unused; perfbench's tracer patches it
from .objective import Objective, builtin_objective, load_table_csv


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    objective: Objective | None = None
    sim: SimConfig | None = None
    alphas: tuple[float, ...] = ()       # sweep-alpha grid
    counts: tuple[int, ...] = ()         # sweep-n grid
    n_alpha: float | None = None         # sweep-n sharpness
    width: float | None = None           # sweep-n interval width
    j: int = 1
    grid_n: int = 10_000
    certify_alphas: tuple[float, ...] = ()


def _floats(raw: str, field: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{field}: expected numbers, got {raw!r}") from None


def _ints(raw: str, field: str) -> tuple[int, ...]:
    vals = _floats(raw, field)
    if not all(v.is_integer() for v in vals):  # nor is inf or nan
        raise ConfigError(f"{field} takes integers, got {raw!r}")
    return tuple(int(v) for v in vals)


def _exactly(count: int, reader, what: str):
    """The reader of `count` values of `reader`; a single value comes unwrapped."""
    def read(raw: str, field: str):
        vals = reader(raw, field)
        if len(vals) != count:
            raise ConfigError(f"{field}: expected {what}, got {raw!r}")
        return vals[0] if count == 1 else vals
    return read


def _text(raw: str, field: str) -> str:
    return raw


_float = _exactly(1, _floats, "one number")
_int = _exactly(1, _ints, "one number")

# Every config section and its keys, each with the reader of its value. The
# README's config reference documents this table, and a test holds them equal.
_KEYS = {
    "objective": {
        "name": _text, "domain": _exactly(2, _floats, "two numbers"),
        "params": _floats, "table": _text,
    },
    "sim": {
        "lambda": _float, "alpha": _float, "positions": _floats, "integrator": _text,
        "dt": _float, "gap_tol": _float, "t_max": _float, "sample_stride": _int,
    },
    "sweep-alpha": {"alphas": _floats},
    "sweep-n": {"alpha": _float, "width": _float, "ns": _ints, "j": _int},
    "certify": {"grid_n": _int, "alphas": _floats},
}

# keys whose value goes to a SimConfig or ExperimentConfig field of another name
_FIELDS = {
    "sim.lambda": "lam", "sim.positions": "initial_positions",
    "sweep-n.alpha": "n_alpha", "sweep-n.ns": "counts", "certify.alphas": "certify_alphas",
}


def _section(cp: configparser.ConfigParser, name: str, required: tuple[str, ...] = ()) -> dict:
    """Read section `name` through `_KEYS` into values keyed by field name. Required
    keys are checked first; keys copied in from [DEFAULT] are never unknown."""
    keys = _KEYS[name]
    if not cp.has_section(name):
        if required:
            raise ConfigError(f"missing [{name}] section: {name}.{required[0]} is required")
        return {}
    sec = cp[name]
    for key in required:
        if key not in sec:
            raise ConfigError(f"{name}.{key} is required")
    for key in sec:
        if key not in keys and key not in cp.defaults():
            known = ", ".join(keys)
            raise ConfigError(f"{name}.{key} is not a config key; [{name}] takes {known}")
    return {
        _FIELDS.get(f"{name}.{key}", key): read(sec[key], f"{name}.{key}")
        for key, read in keys.items()
        if key in sec
    }


def _objective(sec: dict) -> Objective:
    name = sec["name"]
    if "table" in sec:
        if name != "custom-table":
            raise ConfigError("objective.table is only valid with name = custom-table")
        for key in ("domain", "params"):
            if key in sec:
                raise ConfigError(f"objective.{key} is not valid with objective.table")
        if not os.path.exists(sec["table"]):
            raise ConfigError(f"objective.table: file not found: {sec['table']}")
        return load_table_csv(sec["table"])
    lo, hi = sec.get("domain", (None, None))
    try:
        return builtin_objective(name, lo, hi, sec.get("params", ()))
    except ValueError as exc:
        raise ConfigError(f"objective: {exc}") from None


def _sim(fields: dict) -> SimConfig:
    try:
        return SimConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from None


def parse_config(path: str, command: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    if command == "sweep-n":
        return ExperimentConfig(**_section(cp, "sweep-n", ("alpha", "width", "ns")))
    obj = _objective(_section(cp, "objective", ("name",)))
    if command == "certify":
        return ExperimentConfig(objective=obj, **_section(cp, "certify"))
    if command == "sweep-alpha":
        alphas = _section(cp, "sweep-alpha", ("alphas",))["alphas"]
        sim = _section(cp, "sim", ("lambda", "positions"))
        if not sim.get("alpha"):  # the grid seeds an unset or zero alpha
            sim["alpha"] = alphas[0] if alphas else 0.0
        return ExperimentConfig(objective=obj, sim=_sim(sim), alphas=alphas)
    sim = _section(cp, "sim", ("lambda", "positions", "alpha"))
    return ExperimentConfig(objective=obj, sim=_sim(sim))


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write_text_atomic(path, text)
    print(f"wrote {path}")


def _csv(header: str, rows) -> str:
    """A two-column CSV of (a, b) number pairs at full precision."""
    return "".join([header + "\n"] + [f"{a:.17g},{b:.17g}\n" for a, b in rows])


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    sim = cfg.sim
    if args.trajectory:
        sim = replace(sim, sample_stride=1)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    with open_text_atomic(path) as fh:  # rows stream out as they are sampled
        on_sample = trajectory_writer(fh.write, len(sim.initial_positions))
        out = simulate(cfg.objective, sim, record_trajectory=False, on_sample=on_sample)
    print(f"x_inf_estimate = {out.x_inf_estimate:.6g}")
    if out.error_to_minimizer is not None:
        print(f"error_to_minimizer = {out.error_to_minimizer:.6g}")
    print(f"stop_reason = {out.stop_reason}")
    print(f"final_gap = {out.final_gap:.6g}")
    print(f"t_final = {out.t_final:.6g}")
    print(f"n_steps = {out.n_steps}")
    print(f"wrote {path}")
    return 0 if out.stop_reason == "gap_converged" else 2


def _print_fit(report) -> int:
    if report.fitted_slope is None:
        print("fitted_slope = undefined")
        return 2
    print(f"fitted_slope = {report.fitted_slope:.6g}")
    print(f"slope_stderr = {report.slope_stderr:.6g}")
    return 0


def cmd_sweep_alpha(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = sweep_alpha(cfg.objective, cfg.sim, cfg.alphas, jobs=args.jobs)
    _write(args.out, "sweep_alpha.csv", sweep_csv(report))
    if args.emit_plot_data:
        rows = [(math.log10(r.param_value), math.log10(r.abs_error))
                for r in report.rows if r.abs_error > 0.0]
        _write(args.out, "sweep_alpha_loglog.csv", _csv("log10_alpha,log10_abs_error", rows))
    return _print_fit(report)


def cmd_sweep_n(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = sweep_n(cfg.n_alpha, cfg.width, cfg.counts, j=cfg.j, jobs=args.jobs)
    _write(args.out, "sweep_n.csv", sweep_csv(report))
    mismatch = max(abs(r.abs_error - r.bound_upper) for r in report.rows)
    print(f"max_oracle_mismatch = {mismatch:.6g}")
    if args.emit_plot_data:
        rows = [(math.log(r.param_value), r.abs_error) for r in report.rows]
        _write(args.out, "sweep_n_plot.csv", _csv("ln_n,abs_error", rows))
    return _print_fit(report)


def cmd_certify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    cert = certify_calyx(cfg.objective, grid_n=cfg.grid_n)
    for name in ("r1", "c1", "C1", "f_star", "f1", "delta", "r2", "c2", "alpha0"):
        print(f"{name} = {getattr(cert, name):.6g}")
    print(
        "note: the bound holds strictly above alpha0; alpha0 is the threshold "
        "this construction yields, not necessarily the smallest valid one"
    )
    print("note: B is the bound for a particle pair; swarms of more particles can exceed it")
    rows = []
    for a in cfg.certify_alphas:
        if a > cert.alpha0:
            bound = cert.error_bound(a)
            print(f"B({a:.6g}) = {bound:.6g}")
            rows.append((a, bound))
        else:
            print(f"B({a:.6g}) = n/a (alpha <= alpha0)")
    if args.emit_plot_data and rows:
        _write(args.out, "certificate_bound.csv", _csv("alpha,bound", rows))
    return 0


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = verify_invariants(cfg.objective, cfg.sim)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = (
            f"{check.name}: {status} residual={check.residual:.6g} "
            f"tolerance={check.tolerance:.6g}"
        )
        if check.detail:
            line += f" ({check.detail})"
        print(line)
    return 0 if report.all_passed else 2


def _positive_int(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return n


# Every flag, with its argparse settings. The README's flag table documents
# this table and _COMMANDS, and a test holds them equal.
_FLAGS = {
    "--config": dict(required=True, help="path to the INI config file"),
    "--out": dict(default=".", help="output directory for CSV artifacts"),
    "--jobs": dict(type=_positive_int, default=os.cpu_count() or 1,
                   help="max parallel runs for sweeps"),
    "--emit-plot-data": dict(action="store_true", help="also write two-column plot files"),
    "--trajectory": dict(
        action="store_true",
        help="record the trajectory at every step instead of the configured stride",
    ),
}

# Every subcommand: the function that runs it on the parsed config and
# arguments, and the flags it accepts.
_COMMANDS = {
    "simulate": (cmd_simulate, ("--config", "--out", "--trajectory")),
    "sweep-alpha": (cmd_sweep_alpha, ("--config", "--out", "--jobs", "--emit-plot-data")),
    "sweep-n": (cmd_sweep_n, ("--config", "--out", "--jobs", "--emit-plot-data")),
    "certify": (cmd_certify, ("--config", "--out", "--emit-plot-data")),
    "verify": (cmd_verify, ("--config",)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cbolab",
        description="Consensus-based optimization lab: simulate, sweep, certify, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.command)
        return _COMMANDS[args.command][0](cfg, args)
    except CurvatureError as exc:
        print(f"error: certification rejected: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
