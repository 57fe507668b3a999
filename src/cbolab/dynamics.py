"""Deterministic particle dynamics driven toward the softmax consensus point.

Each of N particles moves by dx_i/dt = -lam * (x_i - m) where m is the
weighted average of all positions under softmax weights of sharpness alpha.
Two solvers are provided for any N: `simulate`, a fixed-step explicit
integrator in physical time, and `reduced_solve`, which uses the exact
e^(-lam t) decay of every pairwise gap to reduce the system to one scalar ODE
in the gap scale and integrates it under error control to the limit
(`reduced_two_particle` is its N = 2 entry point). They are independent
routes to the same limit and are cross-checked in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .objective import Objective, softmax_weights

__all__ = [
    "SimConfig",
    "Trajectory",
    "SimOutcome",
    "IntegrationError",
    "step",
    "simulate",
    "reduced_solve",
    "reduced_two_particle",
    "analytic_gap",
    "gap_decay_tolerance",
    "first_crossing_time",
    "trajectory_csv",
]

# Explicit steps can leave the objective's domain by rounding-level amounts;
# anything larger signals an unstable dt or a bug and aborts the run.
_DOMAIN_SLACK = 1e-9


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
        if int(self.sample_stride) != self.sample_stride or self.sample_stride < 1:
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

    def max_gaps(self) -> tuple[float, ...]:
        return tuple(max(s) - min(s) for s in self.states)


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


def _drift(obj: Objective, alpha: float, xs: list[float], lam: float):
    """Velocities -lam*(x_i - m) and the consensus point m at state xs.

    Objective values are taken as-is (no domain check): integrator stages can
    sit a rounding error outside the domain and every builtin evaluates fine
    there. The consensus point is clamped into the hull of xs so that rounding
    in the weighted sum can never push it outside.
    """
    fvals = [obj.eval(x) for x in xs]
    w = softmax_weights(fvals, alpha)
    m = math.fsum(wi * xi for wi, xi in zip(w, xs))
    lo = min(xs)
    hi = max(xs)
    if m < lo:
        m = lo
    elif m > hi:
        m = hi
    return [lam * (m - x) for x in xs], m


def _euler_step(obj: Objective, alpha: float, lam: float, xs: list[float], dt: float):
    k1, m = _drift(obj, alpha, xs, lam)
    return [x + dt * v for x, v in zip(xs, k1)], m


def _rk4_step(obj: Objective, alpha: float, lam: float, xs: list[float], dt: float):
    k1, m = _drift(obj, alpha, xs, lam)
    y = [x + 0.5 * dt * v for x, v in zip(xs, k1)]
    k2, _ = _drift(obj, alpha, y, lam)
    y = [x + 0.5 * dt * v for x, v in zip(xs, k2)]
    k3, _ = _drift(obj, alpha, y, lam)
    y = [x + dt * v for x, v in zip(xs, k3)]
    k4, _ = _drift(obj, alpha, y, lam)
    xs = [
        x + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
        for x, a, b, c, d in zip(xs, k1, k2, k3, k4)
    ]
    return xs, m


def step(obj: Objective, cfg: SimConfig, positions) -> list[float]:
    """One explicit integrator step of size cfg.dt_value from the given state."""
    xs = [float(x) for x in positions]
    for x in xs:
        if not obj.contains(x, slack=_DOMAIN_SLACK):
            raise ValueError(f"position {x} outside domain [{obj.domain_lo}, {obj.domain_hi}]")
    stepper = _rk4_step if cfg.integrator == "rk4" else _euler_step
    new, _ = stepper(obj, cfg.alpha, cfg.lam, xs, cfg.dt_value)
    return _police_domain(obj, new)


def _police_domain(obj: Objective, xs: list[float]) -> list[float]:
    """Clamp rounding-level domain excursions; abort on anything larger."""
    lo, hi = obj.domain_lo, obj.domain_hi
    out = []
    for x in xs:
        if x < lo:
            if lo - x > _DOMAIN_SLACK:
                raise IntegrationError(
                    f"particle left the domain: {x} < {lo} by {lo - x:.3e}"
                )
            x = lo
        elif x > hi:
            if x - hi > _DOMAIN_SLACK:
                raise IntegrationError(
                    f"particle left the domain: {x} > {hi} by {x - hi:.3e}"
                )
            x = hi
        out.append(x)
    return out


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


def simulate(obj: Objective, cfg: SimConfig, record_trajectory: bool = True) -> SimOutcome:
    """Integrate the N-particle system until the max gap falls below gap_tol.

    Returns the consensus point of the final state as x_inf_estimate (any
    convex combination of the final positions is within gap_tol of the true
    limit once the ensemble has collapsed that far). Dynamical identities
    (exact gap decay, order preservation, uniform bounds, hull containment)
    are asserted at every sampled time; a violation beyond the integrator's
    tolerance raises IntegrationError.
    """
    xs = [float(x) for x in cfg.initial_positions]
    for x in xs:
        if not obj.contains(x):
            raise ValueError(
                f"initial position {x} outside domain [{obj.domain_lo}, {obj.domain_hi}]"
            )

    dt = cfg.dt_value
    t_max = cfg.t_max_value
    lam = cfg.lam
    alpha = cfg.alpha
    stepper = _rk4_step if cfg.integrator == "rk4" else _euler_step

    n = len(xs)
    mean0 = math.fsum(xs) / n
    gap0 = max(xs) - min(xs)
    # |x_i(t)| <= |mean0| + gap0 for the exact flow; 10*dt covers scheme error
    hard_bound = abs(mean0) + gap0 + 10.0 * dt
    gap_tol_decay = 10.0 * gap_decay_tolerance(cfg.integrator, gap0, lam, dt)
    order0 = sorted(range(n), key=xs.__getitem__)
    order_tol = 1e-12 * max(1.0, gap0)

    times: list[float] = []
    states: list[tuple[float, ...]] = []
    consensus: list[float] = []

    def consensus_of(state: list[float]) -> float:
        _, m = _drift(obj, alpha, state, lam)
        return m

    def check_sample(t: float, state: list[float], m: float) -> None:
        for x in state:
            if not (-hard_bound <= x <= hard_bound):  # catches NaN too
                raise IntegrationError(
                    f"uniform bound broken at t={t}: |{x}| > {hard_bound}"
                )
        gap = max(state) - min(state)
        if abs(gap - analytic_gap(gap0, lam, t)) > gap_tol_decay:
            raise IntegrationError(
                f"gap decay broken at t={t}: gap={gap}, "
                f"expected {analytic_gap(gap0, lam, t)}"
            )
        prev = -math.inf
        for i in order0:
            if state[i] < prev - order_tol:
                raise IntegrationError(f"particle order changed at t={t}")
            prev = max(prev, state[i])
        if not min(state) <= m <= max(state):
            raise IntegrationError(f"consensus point left the hull at t={t}")

    def record(t: float, state: list[float], m: float) -> None:
        check_sample(t, state, m)
        if record_trajectory:
            times.append(t)
            states.append(tuple(state))
            consensus.append(m)

    m = consensus_of(xs)
    record(0.0, xs, m)

    k = 0
    gap = gap0
    stop_reason = "t_max_reached"
    if gap < cfg.gap_tol:
        stop_reason = "gap_converged"
    else:
        max_steps = int(math.ceil(t_max / dt))
        while k < max_steps:
            xs, _ = stepper(obj, alpha, lam, xs, dt)
            xs = _police_domain(obj, xs)
            k += 1
            t = k * dt
            sampled = k % cfg.sample_stride == 0
            gap = max(xs) - min(xs)
            if gap < cfg.gap_tol:
                stop_reason = "gap_converged"
                break
            if sampled:
                record(t, xs, consensus_of(xs))
            if t >= t_max:
                break

    t_final = k * dt
    m_final = consensus_of(xs)
    # final state is always recorded (once)
    if not times or times[-1] != t_final:
        record(t_final, xs, m_final)
    else:
        check_sample(t_final, xs, m_final)

    err = None
    if obj.known_minimizer is not None:
        err = abs(m_final - obj.known_minimizer)
    traj = None
    if record_trajectory:
        traj = Trajectory(tuple(times), tuple(states), tuple(consensus))
    return SimOutcome(
        x_inf_estimate=m_final,
        final_gap=max(xs) - min(xs),
        stop_reason=stop_reason,
        error_to_minimizer=err,
        trajectory=traj,
        final_positions=tuple(xs),
        t_final=t_final,
        n_steps=k,
    )


def reduced_solve(
    obj: Objective,
    cfg: SimConfig,
    *,
    rtol: float = 1e-10,
    record_trajectory: bool = False,
) -> SimOutcome:
    """Limit of the N-particle system from one scalar ODE in the gap scale s.

    Every pairwise gap decays as e^(-lam t): with s = e^(-lam t) and offsets
    d_i = x_i(0) - min x(0), x_i = y + s d_i and dy/ds = -sum_j w_j(y + s d) d_j.
    lam cancels (the answer is bitwise invariant under it) and only maps s
    to time, t = ln(1/s)/lam. y is integrated from s = 1 to gap_tol/gap0 by
    Dormand-Prince 5(4) steps held to a local error of rtol * gap0, taken as
    the larger of the embedded estimate and the midpoint defect of the dense
    output (one more field sample), since across a kink of f the embedded
    estimate alone reads some 30 times low.

    Steps never exceed 0.01, so particles move at most 1% of gap0 between
    field samples even where underflowed weights make the field exactly 0.
    No step is smaller than its share of 400 000 field samples, nor, where
    the field pulls solutions together so hard that a step of 1/2500 of the
    s range is unstable, than that step while s is above 50 of them: the pull
    damps the error made there, so a stiff solve's cost stops growing with
    alpha. A step at a floor is accepted even over tolerance and counted in
    n_floor_steps.
    x_inf_estimate is the final consensus point; final_positions keep the
    input order.
    """
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    xs = cfg.initial_positions
    for x in xs:
        if not obj.contains(x):
            raise ValueError(
                f"initial position {x} outside domain [{obj.domain_lo}, {obj.domain_hi}]"
            )
    y = min(xs)
    gap0 = max(xs) - y
    offsets = [x - y for x in xs]
    # the lowest particle seeds the fold below; sorting the rest keeps the
    # answer independent of the input order
    upper = sorted(offsets)[1:]
    f = obj.eval
    alpha = cfg.alpha
    exp = math.exp

    def field(s: float, y: float) -> float:
        """dy/ds in one pass over (best f, sum w, sum w d), weights relative to
        the best so far and rescaled when it changes: no exponent exceeds 0."""
        best = f(y)
        sw = 1.0
        swd = 0.0
        for d in upper:
            v = f(y + s * d)
            if v < best:
                r = exp(alpha * (v - best))
                sw = sw * r + 1.0
                swd = swd * r + d
                best = v
            else:
                e = exp(alpha * (best - v))
                sw += e
                swd += e * d
        return -swd / sw

    if gap0 < cfg.gap_tol:
        s_end, final_gap, t_final = 1.0, gap0, 0.0
    else:
        s_end, final_gap = cfg.gap_tol / gap0, cfg.gap_tol
        t_final = math.log(gap0 / cfg.gap_tol) / cfg.lam
    times: list[float] = []
    states: list[tuple[float, ...]] = []
    consensus: list[float] = []

    def record(s: float, y: float, k: float) -> None:
        times.append(t_final if s == s_end else math.log(1.0 / s) / cfg.lam)
        states.append(tuple(y + s * d for d in offsets))
        consensus.append(min(y - s * k, y + s * gap0))

    h_min = 7 * (1.0 - s_end) / 400_000
    h_stiff = (1.0 - s_end) / 2500
    stiff = False
    h = h_max = 0.01
    tol = rtol * gap0
    s = 1.0
    k1 = field(s, y)
    if record_trajectory:
        record(s, y, k1)
    n_steps = n_floor_steps = 0
    while s > s_end:
        last = h >= s - s_end
        if last:
            h = s - s_end
        k2 = field(s - 0.2 * h, y - h * 0.2 * k1)
        k3 = field(s - 0.3 * h, y - h * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = field(s - 0.8 * h, y - h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = field(s - 8 / 9 * h, y - h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                           + 64448 / 6561 * k3 - 212 / 729 * k4))
        y6 = y - h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                      + 49 / 176 * k4 - 5103 / 18656 * k5)
        k6 = field(s - h, y6)
        y_new = y - h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                         - 2187 / 6784 * k5 + 11 / 84 * k6)
        s_new = s_end if last else s - h
        k7 = field(s_new, y_new)
        y_mid = y - h * (6025192743 / 60171106304 * k1 + 51252292925 / 130801643196 * k3
                         - 2691868925 / 90256659456 * k4 + 187940372067 / 3189068634112 * k5
                         - 1776094331 / 39487288512 * k6 + 11237099 / 470086768 * k7)
        hermite_slope = 1.5 * (y_new - y) + 0.25 * h * (k1 + k7)
        err = max(
            abs(h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                     - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)),
            abs(hermite_slope + h * field(s - 0.5 * h, y_mid)),
        )
        if not err < math.inf:  # NaN too
            raise IntegrationError(f"reduced solver produced a non-finite state at s={s}")
        # dF/dy at s_new is (k7 - k6) / (y_new - y6), and DP5 is unstable past
        # h dF/dy = 3.3; only a step within tolerance may clear `stiff`, as an
        # unstable step's samples can straddle the pull and read it low
        dy = y_new - y6
        if err <= tol or not stiff:
            stiff = h_stiff * (k7 - k6) * dy > 3.3 * dy * dy
        floor = h_stiff if stiff and s > 50 * h_stiff else h_min
        if err <= tol or h <= floor:
            n_floor_steps += err > tol
            s, y, k1 = s_new, y_new, k7
            n_steps += 1
            if record_trajectory and (n_steps % cfg.sample_stride == 0 or s == s_end):
                record(s, y, k1)
            grow = 5.0
        else:
            grow = 1.0
        if err > 0.0:
            grow = min(grow, max(0.2, 0.9 * (tol / err) ** 0.2))
        h = min(max(h * grow, floor), h_max)

    m = min(y - s * k1, y + s * gap0)
    return SimOutcome(
        x_inf_estimate=m,
        final_gap=final_gap,
        stop_reason="gap_converged",
        error_to_minimizer=None if obj.known_minimizer is None else abs(m - obj.known_minimizer),
        trajectory=Trajectory(tuple(times), tuple(states), tuple(consensus))
        if record_trajectory
        else None,
        final_positions=tuple(y + s * d for d in offsets),
        t_final=t_final,
        n_steps=n_steps,
        n_floor_steps=n_floor_steps,
    )


def reduced_two_particle(
    obj: Objective,
    cfg: SimConfig,
    *,
    rtol: float = 1e-10,
    record_trajectory: bool = False,
) -> SimOutcome:
    """`reduced_solve` for a particle pair."""
    if len(cfg.initial_positions) != 2:
        raise ValueError("reduced_two_particle needs exactly two initial positions")
    return reduced_solve(obj, cfg, rtol=rtol, record_trajectory=record_trajectory)


def first_crossing_time(traj: Trajectory, x_star: float, tol: float = 1e-12) -> float | None:
    """First sampled time at which any particle sits strictly past x_star.

    A particle crosses when it started on one side of x_star and a sample puts
    it on the other side by more than tol. Returns None if no sample crosses.
    """
    if not traj.states:
        return None
    start = traj.states[0]
    for t, state in zip(traj.times, traj.states):
        for x0, x in zip(start, state):
            if x0 < x_star and x > x_star + tol:
                return t
            if x0 > x_star and x < x_star - tol:
                return t
    return None


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text with columns t, x_1..x_N, m, gap_max at 17 significant digits."""
    n = len(traj.states[0]) if traj.states else 0
    header = "t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",m,gap_max"
    lines = [header]
    for t, state, m in zip(traj.times, traj.states, traj.consensus_values):
        gap = max(state) - min(state)
        cells = [f"{t:.17g}"] + [f"{x:.17g}" for x in state] + [f"{m:.17g}", f"{gap:.17g}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
