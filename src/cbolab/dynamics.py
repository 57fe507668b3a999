"""Deterministic particle dynamics driven toward the softmax consensus point.

Each of N particles moves by dx_i/dt = -lam * (x_i - m) where m is the
weighted average of all positions under softmax weights of sharpness alpha.
Two solvers are provided for any N: `simulate`, a fixed-step explicit
integrator in physical time, and `reduced_solve`, which uses the exact
e^(-lam t) decay of every pairwise gap to reduce the system to one scalar ODE
in the gap scale and integrates it under error control to the limit
(`reduced_two_particle` is its N = 2 entry point). They are independent
routes to the same limit and are cross-checked in the tests.

The five dynamical invariants of the exact flow (INVARIANT_NAMES) and their
tolerances (`invariant_tolerances`) are defined here, once. `simulate`
measures them at every sample, aborts when one breaks past its abort limit,
and returns the largest residual of each on its outcome.

Both solvers take every consensus point from one kernel, `_pull_of`: one
stable pass over the particles that never exponentiates a positive number.
One stepping routine, `_advance`, takes `simulate`'s steps. It starts from
the consensus point the caller has taken, so `simulate` takes each state's
consensus point once, for its sample and the step that leaves it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .objective import Objective, softmax_weights  # unused; perfbench's tracer patches it

__all__ = [
    "SimConfig",
    "Trajectory",
    "SimOutcome",
    "IntegrationError",
    "INVARIANT_NAMES",
    "invariant_tolerances",
    "simulate",
    "reduced_solve",
    "reduced_two_particle",
    "analytic_gap",
    "gap_decay_tolerance",
    "trajectory_writer",
    "trajectory_csv",
]

# Explicit steps can leave the objective's domain by rounding-level amounts;
# anything larger signals an unstable dt or a bug and aborts the run.
_DOMAIN_SLACK = 1e-9

# reduced_solve's step floors, as step counts over the s range (or the ln s
# range): the field-sample budget, the stiffness floor, and the coarser
# floor that a stiff stretch takes once it has held _STIFF_HOLD steps; and
# the run of budget-floor steps over tolerance that counts as stiff
_SAMPLE_BUDGET = 400_000
_STIFF_STEPS = 2500
_STIFF_STEPS_HELD = 1000
_STIFF_HOLD = 10
_CHATTER_STEPS = 50


class IntegrationError(RuntimeError):
    """A run produced a non-finite state or broke a dynamical invariant."""


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one integration run.

    lam is the drift rate toward the consensus point (the paper-facing config
    key is spelled `lambda`; that is a keyword here). dt defaults to 1e-3/lam
    and t_max to 80/lam so that the default run always reaches gap_tol from
    any order-one initial gap.
    """

    lam: float
    alpha: float
    initial_positions: tuple[float, ...]
    integrator: str = "rk4"
    dt: float | None = None
    gap_tol: float = 1e-10
    t_max: float | None = None
    sample_stride: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        pos = tuple(float(x) for x in self.initial_positions)
        object.__setattr__(self, "initial_positions", pos)
        if len(pos) < 2:
            raise ValueError("initial_positions needs at least two particles")
        if not all(math.isfinite(x) for x in pos):
            raise ValueError("initial_positions must all be finite")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"integrator must be 'euler' or 'rk4', got {self.integrator!r}")
        if self.dt is not None:
            if not (math.isfinite(self.dt) and self.dt > 0.0):
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.dt * self.lam >= 1.0:
                raise ValueError(
                    f"dt*lambda = {self.dt * self.lam} violates the stability guard dt*lambda < 1"
                )
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0.0):
            raise ValueError(f"gap_tol must be positive, got {self.gap_tol}")
        if self.t_max is not None and not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not math.isfinite(self.t_max_value / self.dt_value):
            raise ValueError(f"dt = {self.dt_value} is too small: t_max/dt overflows")
        if not (self.sample_stride >= 1 and self.sample_stride % 1 == 0):  # inf % 1 is nan
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")

    @property
    def dt_value(self) -> float:
        return self.dt if self.dt is not None else 1e-3 / self.lam

    @property
    def t_max_value(self) -> float:
        return self.t_max if self.t_max is not None else 80.0 / self.lam

    def with_alpha(self, alpha: float) -> "SimConfig":
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one run: times, positions per time, consensus per time."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    consensus_values: tuple[float, ...]


@dataclass(frozen=True)
class SimOutcome:
    x_inf_estimate: float
    final_gap: float
    stop_reason: str  # "gap_converged" or "t_max_reached"
    error_to_minimizer: float | None = None
    trajectory: Trajectory | None = None
    final_positions: tuple[float, ...] = ()
    t_final: float = 0.0
    n_steps: int = 0
    n_floor_steps: int = 0
    # largest residual of each invariant, in INVARIANT_NAMES order (simulate)
    invariant_residuals: tuple[float, ...] = ()


def _pull_of(f, alpha: float, ds):
    """The consensus kernel: pull(scale, base) is the mean of ds under softmax
    weights of f at the points base + scale * d. One pass, seeded by the first
    point, keeps the best f, the weight sum and the weighted sum, rescaled when
    the best changes, so no exponent exceeds 0 (Milakov & Gimelshein,
    arXiv:1805.02867). Objective values are taken as-is: stages can sit a
    rounding error outside the domain, and a NaN value makes the mean NaN."""
    exp = math.exp
    d0, rest = ds[0], ds[1:]

    def pull(scale: float, base: float) -> float:
        best = f(base + scale * d0)
        sw = 1.0
        swd = d0
        for d in rest:
            v = f(base + scale * d)
            if v < best:
                r = exp(alpha * (v - best))
                sw = sw * r + 1.0
                swd = swd * r + d
                best = v
            else:
                e = exp(alpha * (best - v))
                sw += e
                swd += e * d
        return swd / sw

    return pull


def _advance(pull, xs: list[float], m: float, c: float, rk4: bool) -> list[float]:
    """One explicit step, c = dt * lam, from state xs, whose kernel pull and
    consensus point m the caller has taken: classical RK4, or Euler as its
    one-stage case. Every stage velocity is lam * (m_y - y), so every stage
    is y = x + a * (mu - x) for scalars a and mu, pull(1 - a, a * mu) is the
    mean of xs under that stage's weights, and the whole step is again
    x + c * (m - x), with m a convex combination of the stage means."""
    if rk4:
        a2 = 0.5 * c
        m2 = pull(1.0 - a2, a2 * m)
        a3 = a2 * (1.0 - a2)
        m3 = pull(1.0 - a3, a3 * m2)
        a4 = c * (1.0 - a3)
        m4 = pull(1.0 - a4, a4 * m3)
        p2, p3, p4 = 2.0 * (1.0 - a2), 2.0 * (1.0 - a3), 1.0 - a4
        w = 1.0 + p2 + p3 + p4
        m += (p2 * (m2 - m) + p3 * (m3 - m) + p4 * (m4 - m)) / w
        c *= w / 6.0
    return [x + c * (m - x) for x in xs]


def _check_start(obj: Objective, cfg: SimConfig) -> list[float]:
    """cfg's initial positions, after checking that each lies in obj's domain."""
    xs = list(cfg.initial_positions)
    for x in xs:
        if not obj.contains(x):
            raise ValueError(
                f"initial position {x} outside domain [{obj.domain_lo}, {obj.domain_hi}]"
            )
    return xs


def _police_domain(obj: Objective, xs: list[float]) -> list[float]:
    """Clamp rounding-level domain excursions; abort on anything larger."""
    lo, hi = obj.domain_lo, obj.domain_hi
    for x in xs:
        if lo - x > _DOMAIN_SLACK:
            raise IntegrationError(f"particle left the domain: {x} < {lo} by {lo - x:.3e}")
        if x - hi > _DOMAIN_SLACK:
            raise IntegrationError(f"particle left the domain: {x} > {hi} by {x - hi:.3e}")
    return [lo if x < lo else hi if x > hi else x for x in xs]


def analytic_gap(x0_gap: float, lam: float, t: float) -> float:
    """Exact pairwise gap at time t: every gap decays by the factor e^(-lam t)."""
    return x0_gap * math.exp(-lam * t)


def gap_decay_tolerance(integrator: str, gap0: float, lam: float, dt: float) -> float:
    """Acceptance threshold on |gap(t) - gap0 e^(-lam t)| for a given scheme.

    The discrete schemes contract every gap by the same scalar factor per step,
    so the residual is pure one-dimensional truncation error: O((lam dt)^4) per
    unit time for RK4 and O(lam dt) for Euler, with a floor of 1e-8 for
    accumulated rounding on long runs.
    """
    if integrator == "rk4":
        return max(1e-8, 40.0 * gap0 * (lam * dt) ** 4)
    return max(1e-8, 0.5 * gap0 * lam * dt)


# Identities of the exact flow, in report order. Each residual is a violation
# amount, 0 when the identity holds exactly:
#   gap_decay              |gap(t) - gap0 e^(-lam t)|
#   order_preservation     how far a particle fell below one that started below it
#   consensus_containment  distance of the consensus point outside the hull
#   average_bound          |mean(t)| - (|mean0| + gap0 (1 - e^(-lam t)))
#   uniform_bound          max |x_i(t)| - (|mean0| + gap0)
INVARIANT_NAMES = (
    "gap_decay",
    "order_preservation",
    "consensus_containment",
    "average_bound",
    "uniform_bound",
)
# simulate aborts on a residual past this multiple of its tolerance (never
# for the average bound), and on any non-finite residual
_ABORT_FACTORS = (10.0, 1.0, 1.0, math.inf, 1.0)


def invariant_tolerances(cfg: SimConfig) -> tuple[float, ...]:
    """Tolerance of each invariant for a run of cfg, in INVARIANT_NAMES order.

    Gap decay allows the scheme's truncation error and the uniform bound a
    margin of 10 dt; the other identities hold up to rounding.
    """
    xs = cfg.initial_positions
    gap0 = max(xs) - min(xs)
    dt = cfg.dt_value
    return (
        gap_decay_tolerance(cfg.integrator, gap0, cfg.lam, dt),
        1e-12 * max(1.0, gap0),
        1e-12,
        1e-8,
        10.0 * dt,
    )


def simulate(
    obj: Objective, cfg: SimConfig, record_trajectory: bool = True, *, on_sample=None
) -> SimOutcome:
    """Integrate the N-particle system until the max gap falls below gap_tol.

    Returns the consensus point of the final state as x_inf_estimate (any
    convex combination of the final positions is within gap_tol of the true
    limit once the ensemble has collapsed that far). The five invariants of
    INVARIANT_NAMES are measured at t = 0, at every sample_stride-th step and
    at the final state, and the largest residual of each is returned as
    invariant_residuals. A residual past its abort limit raises
    IntegrationError: 10x its tolerance for gap decay, 1x for order, hull
    containment and the uniform bound, never for the average bound, and
    always when it is not finite, as for a NaN state.

    on_sample(t, xs, m) is called at each sample once its invariants pass;
    xs is the state list, not to be kept or modified. record_trajectory keeps
    the samples on the outcome through the same hook.

    Each state's consensus point is one kernel pass and serves both its
    sample and the first stage of the step that leaves it, so n_steps RK4
    steps make N * (4 * n_steps + 1) objective evaluations and Euler steps
    N * (n_steps + 1), at any sample_stride.
    """
    xs = _check_start(obj, cfg)

    dt = cfg.dt_value
    t_max = cfg.t_max_value
    lam = cfg.lam
    rk4 = cfg.integrator == "rk4"

    n = len(xs)
    abs_mean0 = abs(math.fsum(xs) / n)
    gap0 = max(xs) - min(xs)
    order0 = sorted(range(n), key=xs.__getitem__)
    limits = [f * tol for f, tol in zip(_ABORT_FACTORS, invariant_tolerances(cfg))]
    residuals = [0.0] * len(INVARIANT_NAMES)

    samples = []
    if record_trajectory:
        hook = on_sample

        def on_sample(t, xs, m):
            samples.append((t, tuple(xs), m))
            if hook is not None:
                hook(t, xs, m)

    max_steps = math.ceil(t_max / dt)
    k = 0
    while True:
        t = k * dt
        lo, hi = min(xs), max(xs)
        if not (obj.domain_lo <= lo and hi <= obj.domain_hi):  # NaN takes this path
            xs = _police_domain(obj, xs)
            lo, hi = min(xs), max(xs)
        pull = _pull_of(obj.eval, cfg.alpha, xs)
        # clamped into the hull against rounding; a NaN m stays NaN
        m = min(max(pull(1.0, 0.0), lo), hi)
        converged = hi - lo < cfg.gap_tol
        final = converged or k >= max_steps or t >= t_max
        if final or k % cfg.sample_stride == 0:
            order = 0.0
            prev = -math.inf
            for i in order0:
                if xs[i] < prev:
                    order = max(order, prev - xs[i])
                prev = max(prev, xs[i])
            sample = (
                abs(hi - lo - analytic_gap(gap0, lam, t)),
                order,
                max(lo - m, m - hi, 0.0),
                abs(math.fsum(xs) / n) - (abs_mean0 + gap0 * (1.0 - math.exp(-lam * t))),
                max(abs(lo), abs(hi)) - (abs_mean0 + gap0),
            )
            for i, r in enumerate(sample):
                if r > limits[i] or not math.isfinite(r):
                    raise IntegrationError(
                        f"{INVARIANT_NAMES[i]} broken at t={t}: residual {r:.6g}, "
                        f"limit {limits[i]:.6g}"
                    )
                if r > residuals[i]:
                    residuals[i] = r
            if on_sample is not None:
                on_sample(t, xs, m)
        if final:
            break
        xs = _advance(pull, xs, m, dt * lam, rk4)
        k += 1

    return SimOutcome(
        x_inf_estimate=m,
        final_gap=hi - lo,
        stop_reason="gap_converged" if converged else "t_max_reached",
        error_to_minimizer=None if obj.known_minimizer is None else abs(m - obj.known_minimizer),
        trajectory=Trajectory(*map(tuple, zip(*samples))) if record_trajectory else None,
        final_positions=tuple(xs),
        t_final=t,
        n_steps=k,
        invariant_residuals=tuple(residuals),
    )


def reduced_solve(obj: Objective, cfg: SimConfig, *, rtol: float = 1e-10) -> SimOutcome:
    """Limit of the N-particle system from one scalar ODE in the gap scale s.

    Every pairwise gap decays as e^(-lam t): with s = e^(-lam t) and offsets
    d_i = x_i(0) - min x(0), x_i = y + s d_i and dy/ds = -sum_j w_j(y + s d) d_j.
    lam cancels (the answer is bitwise invariant under it) and only maps s
    to time, t = ln(1/s)/lam. The field is one pass of the consensus kernel
    that `simulate` uses, bound once per solve to the sorted offsets. y is
    integrated from s = 1 to gap_tol/gap0 by Dormand-Prince 5(4) steps held
    to a local error of rtol * gap0, taken as the larger of the embedded
    estimate and the midpoint defect of the dense output (one more field
    sample), since across a kink of f the embedded estimate alone reads some
    30 times low.

    Steps never exceed 0.01, so particles move at most 1% of gap0 between
    field samples even where underflowed weights make the field exactly 0.
    The weights switch near s ~ 1/(alpha * gap0 * slope of f), over a span
    even in ln s, so steps follow ln s late in the solve. No step takes s
    below half while the field is over tol/s from its value mean(d) at s = 0,
    unless over the last step its distance from mean(d) shrank like s (to at
    most 1.2 * s_new/s of what it was), as it does past the switch: a longer
    step can cross the switch unseen by its error estimate.
    No step is smaller than a budget floor, its share of 400 000 field
    samples (7 per step), nor, where the field pulls solutions together so
    hard that a step at the stiffness floor is unstable, than that floor:
    the pull damps the error made there, so a stiff solve's cost stops
    growing with alpha. While s is above 50 stiffness floors, 2% of the s
    range, the floors are 7/400 000 and 1/2500 of the s range; below that
    they are the same shares of the ln s range, times the step's end s_new,
    as floors absolute in s would step over the switch at large alpha. A
    switch too sharp for the stiffness test to see counts as stiff once 50
    budget-floor steps in a row end over tolerance. A stiff stretch ends at
    the first step longer than its floor that comes within tolerance and
    reads the field no longer stiff; once it has held for 10 steps while s
    is above 2% of the range, its floor coarsens to 1/1000 of the s range.
    Brief stiff spells, where a kinked f hands the lead from one particle
    to another, and mildly stiff stretches keep the fine floor and
    error-controlled steps: a 6-knot table with N = 5 at alpha = 9.0e6 ends
    8.8e-6 * gap0 off when every early floor and the stiffness test are
    1/1000 of the s range. Against a reference with 100 times finer floors,
    1 090 random and benchmark solves (alpha 1 to 1e9) have as many answers
    over 1e-9 * gap0 as with the fine floor alone and fewer over 1e-10, for
    47% fewer objective evaluations. A step at a floor is accepted even
    over tolerance and counted in n_floor_steps.
    x_inf_estimate is the final consensus point; final_positions keep the
    input order. No trajectory is kept: the outcome's trajectory is None.
    """
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    xs = _check_start(obj, cfg)
    y = min(xs)
    gap0 = max(xs) - y
    offsets = [x - y for x in xs]
    # pull(s, y) = -dy/ds; the lowest particle seeds the kernel, and sorting
    # the rest keeps the answer independent of the input order
    pull = _pull_of(obj.eval, cfg.alpha, sorted(offsets))

    if gap0 < cfg.gap_tol:
        s_end, final_gap, t_final = 1.0, gap0, 0.0
    else:
        s_end, final_gap = cfg.gap_tol / gap0, cfg.gap_tol
        t_final = math.log(gap0 / cfg.gap_tol) / cfg.lam

    h_min = 7 * (1.0 - s_end) / _SAMPLE_BUDGET
    h_stiff = (1.0 - s_end) / _STIFF_STEPS
    h_held = (1.0 - s_end) / _STIFF_STEPS_HELD
    # the same budgets spread over ln s, for the floors late in the solve
    k_min = 7 * math.log(1.0 / s_end) / _SAMPLE_BUDGET
    k_stiff = math.log(1.0 / s_end) / _STIFF_STEPS
    stiff = False
    held = 0  # steps accepted in the current stiff stretch
    chatter = 0  # budget-floor steps accepted over tolerance in a row
    floor = 0.0
    h = h_max = 0.01
    d_mean = math.fsum(offsets) / len(offsets)  # the field at s = 0
    tail = False
    tol = rtol * gap0
    s = 1.0
    k1 = pull(s, y)
    n_steps = n_floor_steps = 0
    while s > s_end:
        last = h >= s - s_end
        if last:
            h = s - s_end
        k2 = pull(s - 0.2 * h, y + h * 0.2 * k1)
        k3 = pull(s - 0.3 * h, y + h * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = pull(s - 0.8 * h, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = pull(s - 8 / 9 * h, y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                          + 64448 / 6561 * k3 - 212 / 729 * k4))
        y6 = y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                      + 49 / 176 * k4 - 5103 / 18656 * k5)
        k6 = pull(s - h, y6)
        y_new = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                         - 2187 / 6784 * k5 + 11 / 84 * k6)
        s_new = s_end if last else s - h
        k7 = pull(s_new, y_new)
        y_mid = y + h * (6025192743 / 60171106304 * k1 + 51252292925 / 130801643196 * k3
                         - 2691868925 / 90256659456 * k4 + 187940372067 / 3189068634112 * k5
                         - 1776094331 / 39487288512 * k6 + 11237099 / 470086768 * k7)
        hermite_slope = 1.5 * (y_new - y) - 0.25 * h * (k1 + k7)
        err = max(
            abs(h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                     - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)),
            abs(hermite_slope - h * pull(s - 0.5 * h, y_mid)),
        )
        if not err < math.inf:  # NaN too
            raise IntegrationError(f"reduced solver produced a non-finite state at s={s}")
        # dF/dy at s_new is (k6 - k7) / (y_new - y6), and DP5 is unstable past
        # h dF/dy = 3.3; only a step within tolerance and longer than the
        # floor may clear `stiff`: an unstable step's samples can straddle the
        # pull and read it low, and a floor step whose samples all find the
        # pull saturated on one side of its switch comes out within tolerance
        # and reads it flat
        early = s > 50 * h_stiff
        h_test = h_stiff if early else k_stiff * s_new
        dy = y_new - y6
        if err <= tol and h > floor or not stiff:
            stiff = h_test * (k6 - k7) * dy > 3.3 * dy * dy
        if stiff:
            floor = h_held if early and held >= _STIFF_HOLD else h_test
        else:
            held = 0
            floor = h_min if early else k_min * s_new
        if err <= tol or h <= floor:
            n_floor_steps += err > tol
            held += stiff
            # a switch too sharp for the stiffness test's two samples to
            # straddle lets the steps chatter across it at the budget floor
            chatter = chatter + 1 if err > tol and not stiff else 0
            if chatter >= _CHATTER_STEPS:
                stiff, chatter = True, 0
            # past the switch the field closes on d_mean like s
            tail = s * abs(k7 - d_mean) <= 1.2 * s_new * abs(k1 - d_mean)
            s, y, k1 = s_new, y_new, k7
            n_steps += 1
            grow = 5.0
        else:
            grow = 1.0
        if err > 0.0:
            grow = min(grow, max(0.2, 0.9 * (tol / err) ** 0.2))
        h_top = h_max if tail or s * abs(k1 - d_mean) <= tol else min(h_max, 0.5 * s)
        h = min(max(h * grow, floor), h_top)

    m = min(y + s * k1, y + s * gap0)
    return SimOutcome(
        x_inf_estimate=m,
        final_gap=final_gap,
        stop_reason="gap_converged",
        error_to_minimizer=None if obj.known_minimizer is None else abs(m - obj.known_minimizer),
        final_positions=tuple(y + s * d for d in offsets),
        t_final=t_final,
        n_steps=n_steps,
        n_floor_steps=n_floor_steps,
    )


def reduced_two_particle(obj: Objective, cfg: SimConfig, *, rtol: float = 1e-10) -> SimOutcome:
    """`reduced_solve` for a particle pair; rejects any other count."""
    if len(cfg.initial_positions) != 2:
        raise ValueError("reduced_two_particle needs exactly two initial positions")
    return reduced_solve(obj, cfg, rtol=rtol)


def trajectory_writer(write, n: int):
    """Write the CSV header t, x_1..x_n, m, gap_max and return the on_sample
    hook that writes each sample's row, at 17 significant digits."""
    write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",m,gap_max\n")
    row = ",".join(["%.17g"] * (n + 3)) + "\n"
    return lambda t, xs, m: write(row % (t, *xs, m, max(xs) - min(xs)))


def trajectory_csv(traj: Trajectory) -> str:
    """The CSV text that `trajectory_writer` streams, for a recorded trajectory."""
    parts: list[str] = []
    row = trajectory_writer(parts.append, len(traj.states[0]) if traj.states else 0)
    for sample in zip(traj.times, traj.states, traj.consensus_values):
        row(*sample)
    return "".join(parts)
