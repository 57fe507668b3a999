"""Command-line front end.

Subcommands: simulate, sweep-alpha, sweep-n, certify, verify. Each reads an
INI-style config file (sections [objective], [sim], and one per command) and
writes CSV artifacts plus a short human summary. Exit codes: 0 success,
1 configuration or validation error, 2 the run completed but did not reach
its goal (timeout, undefined slope, failed checks), 3 certification rejected
for lack of curvature at the minimizer.
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


def _float(raw: str, field: str) -> float:
    vals = _floats(raw, field)
    if len(vals) != 1:
        raise ConfigError(f"{field}: expected one number, got {raw!r}")
    return vals[0]


def _int(raw: str, field: str) -> int:
    v = _float(raw, field)
    if not v.is_integer():  # nor is inf or nan
        raise ConfigError(f"{field} takes integers, got {raw!r}")
    return int(v)


def _parse_objective(cp: configparser.ConfigParser) -> Objective:
    if not cp.has_section("objective"):
        raise ConfigError("missing [objective] section")
    sec = cp["objective"]
    name = sec.get("name")
    if not name:
        raise ConfigError("objective.name is required")
    table = sec.get("table")
    if table is not None:
        if name != "custom-table":
            raise ConfigError("objective.table is only valid with name = custom-table")
        for key in ("domain", "params"):
            if key in sec:
                raise ConfigError(f"objective.{key} is not valid with objective.table")
        if not os.path.exists(table):
            raise ConfigError(f"objective.table: file not found: {table}")
        return load_table_csv(table)
    lo = hi = None
    if "domain" in sec:
        dom = _floats(sec["domain"], "objective.domain")
        if len(dom) != 2:
            raise ConfigError(f"objective.domain: expected two numbers, got {sec['domain']!r}")
        lo, hi = dom
    params = _floats(sec.get("params", ""), "objective.params")
    try:
        return builtin_objective(name, lo, hi, params)
    except ValueError as exc:
        raise ConfigError(f"objective: {exc}") from None


def _parse_sim(cp: configparser.ConfigParser, require_alpha: bool = True) -> SimConfig:
    if not cp.has_section("sim"):
        raise ConfigError("missing [sim] section")
    sec = cp["sim"]
    if "lambda" not in sec:
        raise ConfigError("sim.lambda is required")
    if "positions" not in sec:
        raise ConfigError("sim.positions is required")
    alpha = 0.0
    if "alpha" in sec:
        alpha = _float(sec["alpha"], "sim.alpha")
    elif require_alpha:
        raise ConfigError("sim.alpha is required")
    kwargs = {}
    if "integrator" in sec:
        kwargs["integrator"] = sec["integrator"].strip()
    if "dt" in sec:
        kwargs["dt"] = _float(sec["dt"], "sim.dt")
    if "gap_tol" in sec:
        kwargs["gap_tol"] = _float(sec["gap_tol"], "sim.gap_tol")
    if "t_max" in sec:
        kwargs["t_max"] = _float(sec["t_max"], "sim.t_max")
    if "sample_stride" in sec:
        kwargs["sample_stride"] = _int(sec["sample_stride"], "sim.sample_stride")
    try:
        return SimConfig(
            lam=_float(sec["lambda"], "sim.lambda"),
            alpha=alpha,
            initial_positions=_floats(sec["positions"], "sim.positions"),
            **kwargs,
        )
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

    out = ExperimentConfig()
    if command == "sweep-n":
        if not cp.has_section("sweep-n"):
            raise ConfigError("missing [sweep-n] section")
        sec = cp["sweep-n"]
        for key in ("alpha", "width", "ns"):
            if key not in sec:
                raise ConfigError(f"sweep-n.{key} is required")
        out.n_alpha = _float(sec["alpha"], "sweep-n.alpha")
        out.width = _float(sec["width"], "sweep-n.width")
        out.counts = tuple(_int(v, "sweep-n.ns") for v in sec["ns"].replace(",", " ").split())
        if "j" in sec:
            out.j = _int(sec["j"], "sweep-n.j")
        return out

    out.objective = _parse_objective(cp)
    if command == "simulate" or command == "verify":
        out.sim = _parse_sim(cp)
    elif command == "sweep-alpha":
        if not cp.has_section("sweep-alpha") or "alphas" not in cp["sweep-alpha"]:
            raise ConfigError("sweep-alpha.alphas is required")
        out.alphas = _floats(cp["sweep-alpha"]["alphas"], "sweep-alpha.alphas")
        out.sim = _parse_sim(cp, require_alpha=False)
        if out.sim.alpha == 0.0 and out.alphas:
            out.sim = out.sim.with_alpha(out.alphas[0])
    elif command == "certify":
        if cp.has_section("certify"):
            sec = cp["certify"]
            if "grid_n" in sec:
                out.grid_n = _int(sec["grid_n"], "certify.grid_n")
                if out.grid_n < 10:
                    raise ConfigError(f"certify.grid_n must be an integer >= 10, got {sec['grid_n']!r}")
            if "alphas" in sec:
                out.certify_alphas = _floats(sec["alphas"], "certify.alphas")
    return out


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, full_trajectory: bool) -> int:
    sim = cfg.sim
    if full_trajectory:
        sim = replace(sim, sample_stride=1)
    path = _out_path(out_dir, "trajectory.csv")
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


def cmd_sweep(cfg: ExperimentConfig, command: str, out_dir: str, jobs: int, emit_plot: bool) -> int:
    if command == "sweep-alpha":
        report = sweep_alpha(cfg.objective, cfg.sim, cfg.alphas, jobs=jobs)
        path = _out_path(out_dir, "sweep_alpha.csv")
    else:
        report = sweep_n(cfg.n_alpha, cfg.width, cfg.counts, j=cfg.j, jobs=jobs)
        path = _out_path(out_dir, "sweep_n.csv")
    write_text_atomic(path, sweep_csv(report))
    print(f"wrote {path}")
    if command == "sweep-n":
        mismatch = max(abs(r.abs_error - r.bound_upper) for r in report.rows)
        print(f"max_oracle_mismatch = {mismatch:.6g}")
    if emit_plot:
        if command == "sweep-alpha":
            plot_path = _out_path(out_dir, "sweep_alpha_loglog.csv")
            lines = ["log10_alpha,log10_abs_error"]
            for r in report.rows:
                if r.abs_error > 0.0:
                    lines.append(
                        f"{math.log10(r.param_value):.17g},{math.log10(r.abs_error):.17g}"
                    )
        else:
            plot_path = _out_path(out_dir, "sweep_n_plot.csv")
            lines = ["ln_n,abs_error"]
            for r in report.rows:
                lines.append(f"{math.log(r.param_value):.17g},{r.abs_error:.17g}")
        write_text_atomic(plot_path, "\n".join(lines) + "\n")
        print(f"wrote {plot_path}")
    if report.fitted_slope is None:
        print("fitted_slope = undefined")
        return 2
    print(f"fitted_slope = {report.fitted_slope:.6g}")
    print(f"slope_stderr = {report.slope_stderr:.6g}")
    return 0


def cmd_certify(cfg: ExperimentConfig, out_dir: str, emit_plot: bool) -> int:
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
    if emit_plot and rows:
        path = _out_path(out_dir, "certificate_bound.csv")
        lines = ["alpha,bound"] + [f"{a:.17g},{b:.17g}" for a, b in rows]
        write_text_atomic(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cbolab",
        description="Consensus-based optimization lab: simulate, sweep, certify, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep-alpha", "sweep-n", "certify", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        if name != "verify":
            p.add_argument("--out", default=".", help="output directory for CSV artifacts")
        if name in ("sweep-alpha", "sweep-n"):
            p.add_argument(
                "--jobs",
                type=int,
                default=os.cpu_count() or 1,
                help="max parallel runs for sweeps",
            )
        if name in ("sweep-alpha", "sweep-n", "certify"):
            p.add_argument(
                "--emit-plot-data",
                action="store_true",
                help="also write two-column plot files",
            )
        if name == "simulate":
            p.add_argument(
                "--trajectory",
                action="store_true",
                help="record the trajectory at every step instead of the configured stride",
            )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.command)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.trajectory)
        if args.command in ("sweep-alpha", "sweep-n"):
            return cmd_sweep(cfg, args.command, args.out, args.jobs, args.emit_plot_data)
        if args.command == "certify":
            return cmd_certify(cfg, args.out, args.emit_plot_data)
        return cmd_verify(cfg)
    except CurvatureError as exc:
        print(f"error: certification rejected: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
