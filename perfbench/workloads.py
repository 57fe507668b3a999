"""The three workloads: inputs drawn from the seed, ops, and per-op checks.

A pass runs every op of the workload once, in order. The worker repeats
passes over the same inputs while time remains. Each op is one call into a
public cbolab function or one `cbolab` invocation; every op's result is
checked against a closed-form oracle, the certificate, or the CLI's
determinism guarantee. Package defaults are used for dt, t_max and gap_tol.

The seed changes the values the program sees (sharpness, widths, positions,
cluster splits, which objective gets which particle count), not the amount
of work: op sizes come from fixed classes (a count grid has a fixed total,
each verify objective has its own particle count, initial spreads are
near 1), so the figures of two seeds
can be compared directly.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

from cbolab import (
    SimConfig,
    builtin_objective,
    oracle_linear_error,
    oracle_nparticle_linear_error,
    oracle_quadratic_bounds,
)

import proc


@dataclass(frozen=True)
class OpRecord:
    kind: str
    seconds: float
    ok: bool
    detail: str
    pass_index: int


class Runner:
    """Times ops and records a pass/fail verdict for each.

    An op fails when its call raises, exits non-zero or fails its check. A
    failure is recorded and never aborts the run.
    """

    def __init__(self, tracer=None):
        self.records: list[OpRecord] = []
        self.tracer = tracer
        self.pass_index = 0

    def op(self, kind, call, check):
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed op, the run goes on
            problem = f"raised {type(exc).__name__}: {exc}"
            result = None
        else:
            problem = None
        seconds = time.perf_counter() - t0
        if problem is None:
            try:
                problem = check(result)
            except Exception as exc:  # a malformed result is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
        self.records.append(OpRecord(kind, seconds, problem is None, problem or "", self.pass_index))
        return result if problem is None else None


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gap0(rng):
    """An initial spread near 1: simulate runs 1000 ln(gap0 / gap_tol) steps."""
    return rng.uniform(0.8, 1.25)


def _close(got, want, tol, what):
    if abs(got - want) > tol:
        return f"{what}: |{got!r} - {want!r}| > {tol:g}"
    return None


# --- pair-stiff ----------------------------------------------------------------


class PairStiff:
    """reduced_two_particle solves; each pass starts with one certify_calyx."""

    name = "pair-stiff"
    per_kind = 6

    def __init__(self, rng, workdir):
        self.double_well = builtin_objective("double-well")
        x_star = self.double_well.known_minimizer
        lo, hi = self.double_well.domain_lo, self.double_well.domain_hi
        self.solves = []
        for _ in range(self.per_kind):
            # straddling pair; alpha = alpha0 * 100**u lands in (alpha0, 100 alpha0]
            pair = (rng.uniform(lo + 0.01, x_star - 0.01), rng.uniform(x_star + 0.01, hi - 0.01))
            self.solves.append(("double-well", pair, 1.0 - rng.random()))
        for _ in range(self.per_kind):
            width = rng.uniform(0.5, 2.0)
            obj = builtin_objective("linear", 0.0, width)
            cfg = SimConfig(lam=_log_uniform(rng, 0.5, 2.0), alpha=_log_uniform(rng, 1.0, 1e4),
                            initial_positions=self._oriented(rng, 0.0, width))
            self.solves.append(("linear", obj, cfg))
        for _ in range(self.per_kind):
            b = rng.uniform(0.5, 1.5)
            obj = builtin_objective("quadratic", 0.0, b)
            cfg = SimConfig(lam=_log_uniform(rng, 0.5, 2.0), alpha=_log_uniform(rng, 100.0, 1e4),
                            initial_positions=self._oriented(rng, 0.0, b))
            self.solves.append(("quadratic", obj, cfg))
        rng.shuffle(self.solves)

    @staticmethod
    def _oriented(rng, a, b):
        return (a, b) if rng.random() < 0.5 else (b, a)

    def run_pass(self, api, runner):
        def check_cert(cert):
            if not cert.r2 <= cert.r1:
                return "certificate has r2 > r1"
            return _close(cert.alpha0 * cert.r2 * cert.c2, 1.0, 1e-12, "alpha0*r2*c2")

        cert = runner.op("certify_calyx",
                         lambda: api.certify_calyx(api.objective(self.double_well)), check_cert)
        for kind, a, b in self.solves:
            if kind == "double-well":
                if cert is None:
                    runner.op("reduced double-well", _no_certificate, None)
                    continue
                alpha = cert.alpha0 * 100.0 ** b
                obj, cfg = self.double_well, SimConfig(lam=1.0, alpha=alpha, initial_positions=a)
                bound = cert.error_bound(alpha)

                def check(out, bound=bound):
                    if not out.error_to_minimizer <= bound:
                        return f"error {out.error_to_minimizer!r} > certified bound {bound!r}"
                    return None
            elif kind == "linear":
                obj, cfg = a, b
                want = oracle_linear_error(cfg.alpha, obj.width)

                def check(out, want=want):
                    return _close(out.x_inf_estimate, want, 1e-6, "linear error vs oracle")
            else:
                obj, cfg = a, b
                lower, upper = oracle_quadratic_bounds(cfg.alpha, obj.width)

                def check(out, lower=lower, upper=upper):
                    if not lower <= out.error_to_minimizer <= upper:
                        return f"quadratic error {out.error_to_minimizer!r} outside [{lower!r}, {upper!r}]"
                    return None

            runner.op(f"reduced {kind}",
                      lambda obj=obj, cfg=cfg: api.reduced_two_particle(api.objective(obj), cfg),
                      check)

    def cross_check(self, records):
        solves = {}
        for r in records:
            if r.kind.startswith("reduced "):
                solves.setdefault(r.kind, []).append(r.seconds)
        every = [t for times in solves.values() for t in times]
        return {
            "reduced_two_particle ms/call": 1e3 * statistics.median(every),
            **{f"{kind} ms/call": 1e3 * statistics.median(t) for kind, t in sorted(solves.items())},
        }


def _no_certificate():
    raise RuntimeError("no certificate: the pass's certify_calyx op failed")


# --- swarm-sweep ---------------------------------------------------------------


def _check_linear_rows(report, expected, j, width):
    """Every row against the exact N-particle linear oracle."""
    if len(report.rows) != len(expected):
        return f"{len(report.rows)} rows, expected {len(expected)}"
    for row, (alpha, n) in zip(report.rows, expected):
        want = oracle_nparticle_linear_error(alpha, n, j, width)
        problem = _close(row.abs_error, want, 1e-6, f"row alpha={alpha:g} N={n}")
        if problem:
            return problem
    return None


class SwarmSweep:
    """Serial sweep_n and sweep_alpha calls on clustered linear ensembles."""

    name = "swarm-sweep"
    grid_total = 34  # sweep_n grids are (a, 34 - a): 2..16 paired with 18..32
    # particle counts of the sweep_alpha ops; two ops of one size keep the
    # median op inside one cost class
    alpha_sizes = (8, 8)

    def __init__(self, rng, workdir):
        a = rng.randint(2, self.grid_total // 2 - 1)
        self.sweep_n = {
            "alpha": _log_uniform(rng, 1.0, 100.0),
            "width": _gap0(rng),
            "counts": (a, self.grid_total - a),
            "j": rng.randint(1, a - 1),
        }
        self.sweep_alpha = []
        for n in self.alpha_sizes:
            width = _gap0(rng)
            j = rng.randint(1, n - 1)
            alphas = sorted(_log_uniform(rng, 1.0, 100.0) for _ in range(2))
            cfg = SimConfig(lam=_log_uniform(rng, 0.5, 2.0), alpha=alphas[0],
                            initial_positions=(0.0,) * j + (width,) * (n - j))
            self.sweep_alpha.append((builtin_objective("linear", 0.0, width), cfg, alphas, j))

    def run_pass(self, api, runner):
        p = self.sweep_n
        expected = [(p["alpha"], n) for n in p["counts"]]
        runner.op(
            "sweep_n",
            lambda: api.sweep_n(p["alpha"], p["width"], p["counts"], j=p["j"], jobs=1),
            lambda rep: _check_linear_rows(rep, expected, p["j"], p["width"]),
        )
        for obj, cfg, alphas, j in self.sweep_alpha:
            n = len(cfg.initial_positions)
            runner.op(
                f"sweep_alpha N={n}",
                lambda obj=obj, cfg=cfg, alphas=alphas: api.sweep_alpha(
                    api.objective(obj), cfg, alphas, jobs=1),
                lambda rep, alphas=alphas, n=n, j=j, w=obj.width: _check_linear_rows(
                    rep, [(a, n) for a in alphas], j, w),
            )

    def cross_check(self, records):
        """simulate seconds per call at N = 2, 8, 32 from a fit over the ops.

        Every op is a few simulate calls; the fit is op time = a * calls +
        b * (particles summed over the calls), by least squares.
        """
        shapes = {"sweep_n": (2, self.grid_total)}
        shapes.update({f"sweep_alpha N={n}": (2, 2 * n) for n in self.alpha_sizes})
        rows = [(*shapes[r.kind], r.seconds) for r in records]
        scc = sum(c * c for c, _, _ in rows)
        scp = sum(c * p for c, p, _ in rows)
        spp = sum(p * p for _, p, _ in rows)
        sct = sum(c * t for c, _, t in rows)
        spt = sum(p * t for _, p, t in rows)
        det = scc * spp - scp * scp
        a = (sct * spp - scp * spt) / det
        b = (scc * spt - scp * sct) / det
        return {f"simulate s/call N={n}": a + b * n for n in (2, 8, 32)}


# --- cli-artifacts -------------------------------------------------------------


def _ini(path, sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _nums(values):
    return " ".join(repr(float(v)) for v in values)


def _positions(rng, lo, hi, n):
    """n sorted positions spanning 90% of [lo, hi], at least 1% of it apart."""
    margin = 0.05 * (hi - lo)
    while True:
        inner = [rng.uniform(lo + margin, hi - margin) for _ in range(n - 2)]
        xs = sorted([lo + margin, hi - margin, *inner])
        if all(b - a > 0.01 * (hi - lo) for a, b in zip(xs, xs[1:])):
            return xs


def _stdout_values(text):
    """`name = value` lines of a CLI summary as a dict of strings."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name.strip()] = value.strip()
    return out


def _last_line(path):
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        return fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


@dataclass(frozen=True)
class Invocation:
    code: int
    stdout: str


class CliArtifacts:
    """INI configs run through `cbolab`, one child process per op.

    With tracing on, the same argv goes to cbolab.cli.main in-process so that
    its spans can be recorded.
    """

    name = "cli-artifacts"
    sweep_counts = (4, 8)

    def __init__(self, rng, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            sys.modules["cbolab"].__file__)))
        self.child_rss_mb: list[float] = []
        self.jobs = min(2, os.cpu_count() or 1)
        path = lambda name: os.path.join(workdir, name)

        # simulate --trajectory: N = 3 clustered linear ensemble, ~3 MB of CSV
        width = _gap0(rng)
        j = rng.randint(1, 2)
        alpha = _log_uniform(rng, 1.0, 100.0)
        _ini(path("simulate.ini"), {
            "objective": {"name": "linear", "domain": _nums((0.0, width))},
            "sim": {"lambda": repr(_log_uniform(rng, 0.5, 2.0)), "alpha": repr(alpha),
                    "positions": _nums((0.0,) * j + (width,) * (3 - j))},
        })
        self.trajectory_want = oracle_nparticle_linear_error(alpha, 3, j, width)

        # verify: three objectives with 8, 5 and 3 particles
        half = 0.5 * _gap0(rng)
        knots = [0.0, *sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(4, 8))), 1.0]
        with open(path("table.csv"), "w") as fh:
            fh.write("x,f\n" + "".join(f"{x!r},{rng.uniform(0.0, 1.0)!r}\n" for x in knots))
        objectives = [
            ("rastrigin1d", 8, {"name": "rastrigin1d", "domain": _nums((-half, half)),
                                "params": _nums((0.0, rng.uniform(0.5, 2.0)))}, (-half, half)),
            ("double-well", 5, {"name": "double-well", "domain": "0 1"}, (0.0, 1.0)),
            ("custom-table", 3, {"name": "custom-table", "table": path("table.csv")}, (0.0, 1.0)),
        ]
        self.verify = []
        for label, n, section, (lo, hi) in objectives:
            ini = path(f"verify-{label}.ini")
            _ini(ini, {"objective": section, "sim": {
                "lambda": repr(_log_uniform(rng, 0.5, 2.0)),
                "alpha": repr(_log_uniform(rng, 1.0, 50.0)),
                "positions": _nums(_positions(rng, lo, hi, n)),
            }})
            self.verify.append((f"verify {label} N={n}", ini))

        # sweep-n at --jobs 1 and --jobs 2 on one config
        self.sweep = {"alpha": _log_uniform(rng, 1.0, 100.0), "width": _gap0(rng),
                      "j": rng.randint(1, self.sweep_counts[0] - 1)}
        _ini(path("sweep-n.ini"), {"sweep-n": {
            "alpha": repr(self.sweep["alpha"]), "width": repr(self.sweep["width"]),
            "ns": " ".join(str(n) for n in self.sweep_counts), "j": str(self.sweep["j"]),
        }})

        # certify a tilted double-well; every requested alpha is far above alpha0
        params = (rng.uniform(0.15, 0.35), rng.uniform(0.65, 0.85), rng.uniform(0.005, 0.02))
        _ini(path("certify.ini"), {
            "objective": {"name": "double-well", "domain": "0 1", "params": _nums(params)},
            "certify": {"alphas": _nums(sorted(_log_uniform(rng, 1e7, 1e8) for _ in range(3)))},
        })

    def cross_check(self, records):
        return {
            f"CLI sweep-n --jobs {jobs} s": statistics.median(
                r.seconds for r in records if r.kind == f"sweep-n --jobs {jobs}")
            for jobs in sorted({1, self.jobs})
        }

    def _invoke(self, api, args):
        if api.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = api.cli_main(list(args))
            return Invocation(code, buf.getvalue())
        out, err = os.path.join(self.workdir, "stdout.txt"), os.path.join(self.workdir, "stderr.txt")
        child = proc.run([sys.executable, "-m", "cbolab.cli", *args], self.env, out, err)
        self.child_rss_mb.append(child.maxrss_mb)
        with open(out) as fh:
            return Invocation(child.code, fh.read())

    def _cli_op(self, api, runner, kind, args, check, outputs=()):
        for path in outputs:  # a stale artifact must not pass a check
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

        def checked(inv):
            if inv.code != 0:
                return f"exit code {inv.code}"
            return check(inv)

        return runner.op(kind, lambda: self._invoke(api, args), checked)

    def run_pass(self, api, runner):
        path = lambda *parts: os.path.join(self.workdir, *parts)

        csv_path = path("out-simulate", "trajectory.csv")

        def check_trajectory(inv):
            row = _last_line(csv_path).split(",")
            m, gap = float(row[-2]), float(row[-1])
            if not gap < 1e-10:
                return f"last trajectory row has gap {gap!r} >= gap_tol"
            return _close(m, self.trajectory_want, 1e-6, "trajectory m vs oracle")

        self._cli_op(api, runner, "simulate --trajectory",
                     ("simulate", "--config", path("simulate.ini"), "--out", path("out-simulate"),
                      "--trajectory"), check_trajectory, [csv_path])

        def check_verify(inv):
            lines = inv.stdout.splitlines()
            if len(lines) != 5 or not all(": PASS " in line for line in lines):
                return f"verify did not print five PASS lines: {inv.stdout!r}"
            return None

        for kind, ini in self.verify:
            self._cli_op(api, runner, kind, ("verify", "--config", ini), check_verify)

        sweeps = {}
        for jobs in (1, self.jobs):
            out_dir = path(f"out-sweep-jobs{jobs}")
            csv_file = os.path.join(out_dir, "sweep_n.csv")

            def check_sweep(inv, csv_file=csv_file, jobs=jobs):
                mismatch = float(_stdout_values(inv.stdout)["max_oracle_mismatch"])
                if not mismatch <= 1e-6:
                    return f"max_oracle_mismatch {mismatch!r} > 1e-6"
                with open(csv_file, "rb") as fh:
                    sweeps[jobs] = fh.read()
                rows = [line.split(",") for line in sweeps[jobs].decode().splitlines()[1:-1]]
                expected = [(self.sweep["alpha"], n) for n in self.sweep_counts]
                if len(rows) != len(expected):
                    return f"{len(rows)} CSV rows, expected {len(expected)}"
                for row, (alpha, n) in zip(rows, expected):
                    want = oracle_nparticle_linear_error(alpha, n, self.sweep["j"], self.sweep["width"])
                    problem = _close(float(row[2]), want, 1e-6, f"CSV row N={n}")
                    if problem:
                        return problem
                if jobs != 1 and sweeps[jobs] != sweeps.get(1):
                    return f"--jobs {jobs} CSV differs from the --jobs 1 CSV"
                return None

            self._cli_op(api, runner, f"sweep-n --jobs {jobs}",
                         ("sweep-n", "--config", path("sweep-n.ini"), "--out", out_dir,
                          "--jobs", str(jobs)), check_sweep, [csv_file])

        cert_csv = path("out-certify", "certificate_bound.csv")

        def check_certify(inv):
            v = {k: float(x) for k, x in _stdout_values(inv.stdout).items() if not k.startswith("B(")}
            # the summary prints 6 significant digits, so the identity holds to ~1e-6
            problem = _close(v["alpha0"] * v["r2"] * v["c2"], 1.0, 1e-5, "alpha0*r2*c2")
            if problem:
                return problem
            with open(cert_csv) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            if len(rows) != 3:
                return f"{len(rows)} bound rows, expected 3"
            for alpha, bound in ((float(a), float(b)) for a, b in rows):
                want = math.log(2.0) / (alpha * v["c2"]) + math.sqrt(math.log(2.0) / (alpha * v["c1"]))
                if abs(bound - want) > 1e-5 * want:
                    return f"B({alpha:g}) = {bound!r}, expected {want!r} from the printed c1, c2"
            return None

        self._cli_op(api, runner, "certify --emit-plot-data",
                     ("certify", "--config", path("certify.ini"), "--out", path("out-certify"),
                      "--emit-plot-data"), check_certify, [cert_csv])


WORKLOADS = {w.name: w for w in (PairStiff, SwarmSweep, CliArtifacts)}
