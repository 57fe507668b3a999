"""Quantitative analysis: closed-form oracles, certificates, sweeps, checks.

The linear and quadratic objectives admit closed-form consensus errors, used
as oracles throughout the test suite. For general smooth objectives with an
interior minimizer, `certify_calyx` constructs an explicit error bound B(alpha)
from finite-difference curvature and a grid separation level; the bound is
valid for a particle pair at every sharpness above the certificate's alpha0
threshold. Its ln 2 is the pair's; swarms of more particles can exceed it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .dynamics import (
    INVARIANT_NAMES,
    IntegrationError,
    SimConfig,
    invariant_tolerances,
    reduced_solve,
    reduced_two_particle,  # unused here; perfbench/tracing.py patches this name
    simulate,
)
from .objective import Objective, builtin_objective

__all__ = [
    "CurvatureError",
    "oracle_linear_error",
    "oracle_nparticle_linear_error",
    "oracle_quadratic_bounds",
    "lipschitz_separation_bound",
    "CalyxCertificate",
    "certify_calyx",
    "SweepRow",
    "SweepReport",
    "sweep_alpha",
    "sweep_n",
    "sweep_csv",
    "InvariantCheck",
    "VerifyReport",
    "verify_invariants",
]

_LN2 = math.log(2.0)


class CurvatureError(ValueError):
    """The objective is not detectably strictly convex at its minimizer."""


# --- closed-form oracles -----------------------------------------------------

def oracle_linear_error(alpha: float, width: float) -> float:
    """Exact consensus error for f(x) = x on [0, width], particles at 0 and width.

    Equals (1/alpha) * (ln 2 - ln(1 + e^(-alpha*width))). Approaches width/2
    as alpha*width -> 0 (plain averaging) and ln2/alpha as alpha*width -> inf.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    return (_LN2 - math.log1p(math.exp(-alpha * width))) / alpha


def oracle_nparticle_linear_error(alpha: float, n: int, j: int, width: float) -> float:
    """Exact consensus error for f(x) = x with j particles at 0 and n-j at width.

    Equals (1/alpha) * ln(n / (j + (n-j) e^(-alpha*width))); grows like
    ln(n)/alpha for j = 1 and large alpha*width. Reduces to
    oracle_linear_error for n = 2, j = 1.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if int(j) != j or not 1 <= j <= n - 1:
        raise ValueError(f"j must be an integer in [1, {n - 1}], got {j}")
    return math.log(n / (j + (n - j) * math.exp(-alpha * width))) / alpha


def oracle_quadratic_bounds(alpha: float, b: float) -> tuple[float, float]:
    """(lower, upper) bounds on the consensus error for f(x) = x^2 on [0, b].

    Particles start at 0 (the minimizer) and b. Upper bound sqrt(ln2/(2 alpha))
    uses the curvature constant 2; the lower bound
    (1/(4 sqrt(alpha))) (sqrt(pi)/2 - e^(-alpha b^2)/(sqrt(alpha) b))
    may be negative when sqrt(alpha)*b is tiny and is returned as-is.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    upper = math.sqrt(_LN2 / (2.0 * alpha))
    sq = math.sqrt(alpha)
    lower = (0.5 * math.sqrt(math.pi) - math.exp(-alpha * b * b) / (sq * b)) / (4.0 * sq)
    return lower, upper


def lipschitz_separation_bound(alpha: float, c_f: float) -> float:
    """Consensus error bound ln2/(alpha*c_f) when f separates the particles.

    c_f is the separation rate: |f(x) - f(y)| >= c_f |x - y| between the set
    holding the best particle and the set holding the rest.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not c_f > 0.0:
        raise ValueError(f"c_f must be positive, got {c_f}")
    return _LN2 / (alpha * c_f)


# --- calyx certificate -------------------------------------------------------

@dataclass(frozen=True)
class CalyxCertificate:
    """Explicit error-bound certificate for a strictly convex neighborhood.

    r1 is the radius around the minimizer on which the finite-difference
    second derivative stays pinched between c1 and C1. f1 is the smallest
    objective value found outside that window and delta = f1 - f_star the
    separation level. r2 and c2 are the derived radius and separation rate;
    the bound B(alpha) = ln2/(alpha*c2) + sqrt(ln2/(alpha*c1)) holds for
    every alpha > alpha0 = 1/(r2*c2).

    B is a pair bound: its ln 2 is the log of the particle count N = 2. The
    error of N particles grows like ln(N)/alpha (`oracle_nparticle_linear_error`),
    and swarms of more than two particles can exceed B, e.g. 1.4 B for six
    particles on shifted-quadratic at alpha = 1.078e4.
    """

    r1: float
    c1: float
    C1: float
    f_star: float
    f1: float
    delta: float
    r2: float
    c2: float
    alpha0: float

    def error_bound(self, alpha: float) -> float:
        """B(alpha), the certified bound on |x_inf - x_star| for a particle
        pair; needs alpha > alpha0. Larger swarms can exceed it."""
        if not alpha > self.alpha0:
            raise ValueError(
                f"bound is only valid for alpha > alpha0 = {self.alpha0}, got {alpha}"
            )
        return _LN2 / (alpha * self.c2) + math.sqrt(_LN2 / (alpha * self.c1))


def _fdd(f, x: float, h: float) -> float:
    return (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)


def _segment_min(f, lo: float, hi: float, n: int) -> float:
    step = (hi - lo) / (n - 1)
    return min(f(lo + i * step) for i in range(n))


def certify_calyx(obj: Objective, grid_n: int = 10_000) -> CalyxCertificate:
    """Construct an error-bound certificate for obj around its known minimizer.

    Curvature is probed by central second differences with h = width/1e6.
    Starting from the minimizer, a symmetric window is grown over a half-grid
    of grid_n//2 radii while the probed curvature stays at or above half its
    value at the minimizer; c1 and C1 are the extremes over the final window.
    f1 is the grid minimum of f over the closed complement of the open window
    (grid_n points split between the two flanks in proportion to length).
    When a Lipschitz hint is available, delta is shrunk by hint*width/grid_n
    to cover the gap between the grid minimum and the true infimum.

    Raises CurvatureError when no strictly positive curvature is detectable at
    the minimizer (or no window at all passes the test), and ValueError for a
    missing or boundary minimizer or a non-positive separation level.
    """
    if not (grid_n >= 10 and grid_n % 1 == 0):  # inf % 1 is nan
        raise ValueError(f"grid_n must be an integer >= 10, got {grid_n}")
    if obj.known_minimizer is None:
        raise ValueError("certification needs an objective with a known minimizer")
    a, b = obj.domain_lo, obj.domain_hi
    x_star = obj.known_minimizer
    if not a < x_star < b:
        raise ValueError(
            "minimizer sits on the domain boundary; only interior minimizers are supported"
        )
    f = obj.eval
    h = (b - a) / 1e6
    r_max = min(b - x_star, x_star - a) - h
    if r_max <= 0.0:
        raise ValueError(
            "minimizer is within one finite-difference step of the boundary"
        )

    fdd0 = _fdd(f, x_star, h)
    if not fdd0 > 1e-6:
        raise CurvatureError(
            f"second difference at the minimizer is {fdd0:.3e}; "
            "a strictly positive curvature is required"
        )

    half = grid_n // 2
    step = r_max / half
    floor = 0.5 * fdd0
    c1 = fdd0
    C1 = fdd0
    k_good = 0
    for k in range(1, half + 1):
        r = k * step
        lo_val = _fdd(f, x_star - r, h)
        hi_val = _fdd(f, x_star + r, h)
        if lo_val < floor or hi_val < floor:
            break
        c1 = min(c1, lo_val, hi_val)
        C1 = max(C1, lo_val, hi_val)
        k_good = k
    if k_good == 0:
        raise CurvatureError(
            "no symmetric window around the minimizer passes the curvature "
            "test at this grid resolution"
        )
    r1 = k_good * step

    f_star = f(x_star)
    left_len = (x_star - r1) - a
    right_len = b - (x_star + r1)
    total = left_len + right_len
    n_left = max(2, round(grid_n * left_len / total))
    n_right = max(2, grid_n - n_left)
    f1 = min(
        _segment_min(f, a, x_star - r1, n_left),
        _segment_min(f, x_star + r1, b, n_right),
    )
    delta = f1 - f_star
    if obj.lipschitz_hint is not None:
        delta -= obj.lipschitz_hint * (b - a) / grid_n
    if not delta > 0.0:
        raise ValueError(
            f"separation level {delta:.3e} is not positive; "
            "the minimizer is not isolated at this grid resolution"
        )

    r2 = min(math.sqrt(delta / C1), r1)
    c2 = min(delta / (2.0 * max(b - x_star, x_star - a)), 0.5 * c1 * r2)
    alpha0 = 1.0 / (r2 * c2)
    return CalyxCertificate(
        r1=r1,
        c1=c1,
        C1=C1,
        f_star=f_star,
        f1=f1,
        delta=delta,
        r2=r2,
        c2=c2,
        alpha0=alpha0,
    )


# --- sweeps ------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    param_value: float
    x_inf: float
    abs_error: float
    bound_lower: float | None = None
    bound_upper: float | None = None


@dataclass(frozen=True)
class SweepReport:
    param_name: str  # "alpha" or "N"
    rows: tuple[SweepRow, ...]
    fitted_slope: float | None
    slope_stderr: float | None


def _least_squares_slope(us, vs):
    """Slope and its standard error for vs against us; (None, None) if n < 2."""
    n = len(us)
    if n < 2:
        return None, None
    u_mean = math.fsum(us) / n
    v_mean = math.fsum(vs) / n
    suu = math.fsum((u - u_mean) ** 2 for u in us)
    suv = math.fsum((u - u_mean) * (v - v_mean) for u, v in zip(us, vs))
    if suu == 0.0:
        return None, None
    slope = suv / suu
    if n == 2:
        return slope, 0.0
    intercept = v_mean - slope * u_mean
    ss_res = math.fsum((v - (intercept + slope * u)) ** 2 for u, v in zip(us, vs))
    stderr = math.sqrt(ss_res / (n - 2) / suu)
    return slope, stderr


def _run_parallel(task, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [task(item) for item in items]
    import pickle  # imported here, as the pool is: serial runs never use it
    try:
        pickle.dumps(task)
    except Exception:
        return [task(item) for item in items]
    # imported here: it loads ~2 MB of multiprocessing that serial runs never use
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(task, items))


def _alpha_bounds(obj: Objective, cfg: SimConfig, alpha: float):
    """Oracle bound columns for recognized builtin setups, else (None, None).

    Bounds are only attached when the initial pair matches the setup the
    closed forms describe: two particles, the lower one at the minimizer.
    """
    if len(cfg.initial_positions) != 2:
        return None, None
    lo0 = min(cfg.initial_positions)
    hi0 = max(cfg.initial_positions)
    if obj.family == "linear" and lo0 == obj.domain_lo and hi0 > lo0:
        slope = obj.params[0]
        return None, lipschitz_separation_bound(alpha, slope)
    if obj.family in ("quadratic", "shifted-quadratic"):
        center = obj.params[0]
        if lo0 == center and hi0 > center:
            return oracle_quadratic_bounds(alpha, hi0 - center)
    return None, None


def _sweep(param_name, obj, cfgs, params, bounds, jobs, *, log_error, noise=-math.inf):
    """The core of both sweeps: solve each config by `reduced_solve`, attach
    the bound columns bounds(param) to its row, and fit the rows whose
    abs_error exceeds noise: least squares of ln(abs_error), or abs_error,
    against ln(param)."""
    results = _run_parallel(partial(reduced_solve, obj), cfgs, jobs)
    rows = tuple(
        SweepRow(float(p), out.x_inf_estimate, out.error_to_minimizer, *bounds(p))
        for p, out in zip(params, results)
    )
    fit_rows = [r for r in rows if r.abs_error > noise]
    slope, stderr = _least_squares_slope(
        [math.log(r.param_value) for r in fit_rows],
        [math.log(r.abs_error) if log_error else r.abs_error for r in fit_rows],
    )
    return SweepReport(param_name, rows, slope, stderr)


def sweep_alpha(
    obj: Objective, base_cfg: SimConfig, alphas, jobs: int = 1
) -> SweepReport:
    """Consensus error across a grid of sharpness values, with a log-log fit.

    Each alpha is solved from base_cfg's initial state by `reduced_solve`,
    which computes the limit itself: base_cfg's dt, integrator, t_max and
    sample_stride do not apply to sweeps. The fitted slope is least squares of
    ln(abs_error) against ln(alpha) over rows with abs_error > 10*gap_tol;
    rows at or below that level are solver noise and are excluded. Oracle
    bound columns are attached for recognized builtin setups.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    if not all(a > 0.0 for a in alphas):
        raise ValueError("alphas must be positive")
    if obj.known_minimizer is None:
        raise ValueError("sweep_alpha needs an objective with a known minimizer")
    return _sweep(
        "alpha", obj, [base_cfg.with_alpha(a) for a in alphas], alphas,
        partial(_alpha_bounds, obj, base_cfg), jobs,
        log_error=True, noise=10.0 * base_cfg.gap_tol,
    )


def sweep_n(alpha: float, width: float, counts, j: int = 1, jobs: int = 1) -> SweepReport:
    """Consensus error of the linear ensemble as the particle count grows.

    j particles start at the minimizer 0 of f(x) = x on [0, width] and n - j
    at width; each count is solved at lam = 1 by `reduced_solve`, as in
    `sweep_alpha`. The closed-form value is attached to both bound columns
    (it is exact, a two-sided bound). The fitted slope is least squares of
    abs_error against ln(n): the error grows logarithmically in n, with slope
    approaching 1/alpha for large alpha*width.
    """
    counts = [int(n) if n % 1 == 0 else None for n in counts]  # inf % 1 is nan
    if None in counts:
        raise ValueError("counts must be integers")
    if not counts:
        raise ValueError("counts must be nonempty")
    if any(n2 <= n1 for n1, n2 in zip(counts, counts[1:])):
        raise ValueError("counts must be strictly increasing")
    if counts[0] < 2:
        raise ValueError("every count must be at least 2")
    if not (1 <= j <= counts[0] - 1 and j % 1 == 0):
        raise ValueError(f"j must be an integer in [1, {counts[0] - 1}], got {j}")
    j = int(j)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    cfgs = [
        SimConfig(lam=1.0, alpha=alpha, initial_positions=(0.0,) * j + (width,) * (n - j))
        for n in counts
    ]
    return _sweep(
        "N", builtin_objective("linear", 0.0, width, (1.0,)), cfgs, counts,
        lambda n: (oracle_nparticle_linear_error(alpha, n, j, width),) * 2, jobs,
        log_error=False,
    )


def sweep_csv(report: SweepReport) -> str:
    """CSV text for a sweep: fixed header, 17 significant digits, slope footer."""

    def cell(v: float | None) -> str:
        return "nan" if v is None else f"{v:.17g}"

    lines = ["param,x_inf,abs_error,bound_lower,bound_upper"]
    for r in report.rows:
        lines.append(
            ",".join(
                (
                    f"{r.param_value:.17g}",
                    f"{r.x_inf:.17g}",
                    f"{r.abs_error:.17g}",
                    cell(r.bound_lower),
                    cell(r.bound_upper),
                )
            )
        )
    lines.append(
        f"# fitted_slope={cell(report.fitted_slope)} slope_stderr={cell(report.slope_stderr)}"
    )
    return "\n".join(lines) + "\n"


# --- invariant verification --------------------------------------------------

@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[InvariantCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_invariants(obj: Objective, cfg: SimConfig) -> VerifyReport:
    """Run one simulation and report the largest residual of each invariant.

    The invariants are those `simulate` measures (dynamics.INVARIANT_NAMES):
    exact gap decay, order preservation, hull containment of the consensus
    point, the running bound on the ensemble average, and uniform boundedness
    of every particle, each checked against `invariant_tolerances(cfg)`.
    Failures are reported in the returned checks, never raised; an aborted
    integration is itself reported as a failed check.
    """
    try:
        out = simulate(obj, cfg, record_trajectory=False)
    except IntegrationError as exc:
        return VerifyReport(
            checks=(
                InvariantCheck(
                    name="integration",
                    passed=False,
                    residual=math.inf,
                    tolerance=0.0,
                    detail=str(exc),
                ),
            )
        )
    return VerifyReport(
        checks=tuple(
            InvariantCheck(name, res <= tol, res, tol)
            for name, res, tol in zip(
                INVARIANT_NAMES, out.invariant_residuals, invariant_tolerances(cfg)
            )
        )
    )
