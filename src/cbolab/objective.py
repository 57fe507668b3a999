"""Scalar objectives on a closed interval and softmax particle weights.

An objective is a nonnegative function f on [domain_lo, domain_hi] together
with optional metadata (its unique global minimizer when known, and an upper
bound on its Lipschitz constant). The weight of a particle at position x is
proportional to exp(-alpha * f(x)); alpha = 0 gives uniform weights and
alpha -> infinity concentrates all weight on the best particle.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

__all__ = [
    "Objective",
    "BUILTIN_NAMES",
    "builtin_objective",
    "table_objective",
    "load_table_csv",
    "softmax_weights",
    "weights",
    "consensus_point",
]

_TWO_PI = 2.0 * math.pi

BUILTIN_NAMES = (
    "linear",
    "quadratic",
    "shifted-quadratic",
    "double-well",
    "rastrigin1d",
    "custom-table",
)


@dataclass(frozen=True)
class Objective:
    """A nonnegative scalar function on the closed interval [domain_lo, domain_hi].

    eval must accept a float and return a finite nonnegative float anywhere in
    the domain (evaluation slightly outside the domain may occur inside
    integrator stages and must not blow up for the builtin families).
    known_minimizer, when set, is the unique global minimizer on the domain.
    lipschitz_hint, when set, is an upper bound on the Lipschitz constant of
    eval over the domain.
    """

    domain_lo: float
    domain_hi: float
    eval: Callable[[float], float]
    known_minimizer: float | None = None
    lipschitz_hint: float | None = None
    family: str = "custom"
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.domain_lo, self.domain_hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("objective domain bounds must be finite")
        if not lo < hi:
            raise ValueError(f"objective domain is empty: [{lo}, {hi}]")
        if self.known_minimizer is not None and not lo <= self.known_minimizer <= hi:
            raise ValueError(
                f"known_minimizer {self.known_minimizer} lies outside [{lo}, {hi}]"
            )
        if self.lipschitz_hint is not None and not self.lipschitz_hint >= 0.0:
            raise ValueError("lipschitz_hint must be nonnegative")

    @property
    def width(self) -> float:
        return self.domain_hi - self.domain_lo

    def contains(self, x: float) -> bool:
        return self.domain_lo <= x <= self.domain_hi


# --- builtin families ------------------------------------------------------
#
# Family evaluators take their parameters first so that functools.partial can
# pre-bind them positionally; the resulting callables pickle cleanly, which
# keeps process-pool sweeps possible.

def _linear_eval(lo: float, slope: float, x: float) -> float:
    return slope * (x - lo)


def _quadratic_eval(center: float, x: float) -> float:
    d = x - center
    return d * d


def _shifted_quadratic_eval(center: float, offset: float, x: float) -> float:
    d = x - center
    return d * d + offset


def _double_well_eval(side: float, bottom: float, tilt: float, x: float) -> float:
    u = x - side
    v = x - bottom
    return u * u * v * v + tilt * v * v


def _rastrigin_eval(center: float, amplitude: float, x: float) -> float:
    d = x - center
    return d * d + amplitude * (1.0 - math.cos(_TWO_PI * d))


def _table_eval(knots: tuple[float, ...], values: tuple[float, ...], x: float) -> float:
    # piecewise-linear interpolation, clamped to the end values outside the knots
    if x <= knots[0]:
        return values[0]
    if x >= knots[-1]:
        return values[-1]
    i = bisect_right(knots, x)
    x0, x1 = knots[i - 1], knots[i]
    y0, y1 = values[i - 1], values[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _resolve_domain(
    name: str,
    domain_lo: float | None,
    domain_hi: float | None,
    default: tuple[float, float],
) -> tuple[float, float]:
    lo = default[0] if domain_lo is None else float(domain_lo)
    hi = default[1] if domain_hi is None else float(domain_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"{name}: invalid domain [{lo}, {hi}]")
    return lo, hi


def builtin_objective(
    name: str,
    domain_lo: float | None = None,
    domain_hi: float | None = None,
    params: Sequence[float] = (),
) -> Objective:
    """Construct one of the builtin objective families by name.

    Positional family parameters (all optional, defaults in parentheses):

      linear            slope (1.0); f(x) = slope * (x - lo), minimizer at lo
      quadratic         center (0.0); f(x) = (x - center)^2
      shifted-quadratic center (domain midpoint), offset (1.0);
                        f(x) = (x - center)^2 + offset
      double-well       side well (0.25), global well (0.75), tilt (0.01);
                        f(x) = (x - side)^2 (x - bottom)^2 + tilt (x - bottom)^2,
                        unique global minimum at the second well
      rastrigin1d       center (0.0), amplitude (1.0);
                        f(x) = (x - center)^2 + amplitude (1 - cos 2 pi (x - center))
      custom-table      flattened knot/value pairs x0 f0 x1 f1 ...

    Every builtin has f >= 0 on its domain, a populated known_minimizer, and
    raises ValueError for parameters that put the minimizer outside the domain.
    """
    params = tuple(float(p) for p in params)

    if name == "linear":
        lo, hi = _resolve_domain(name, domain_lo, domain_hi, (0.0, 1.0))
        slope = params[0] if params else 1.0
        if len(params) > 1:
            raise ValueError("linear takes at most one parameter (slope)")
        if not slope > 0.0:
            raise ValueError(f"linear: slope must be positive, got {slope}")
        return Objective(
            domain_lo=lo,
            domain_hi=hi,
            eval=partial(_linear_eval, lo, slope),
            known_minimizer=lo,
            lipschitz_hint=slope,
            family="linear",
            params=(slope,),
        )

    if name == "quadratic":
        lo, hi = _resolve_domain(name, domain_lo, domain_hi, (0.0, 1.0))
        center = params[0] if params else 0.0
        if len(params) > 1:
            raise ValueError("quadratic takes at most one parameter (center)")
        if not lo <= center <= hi:
            raise ValueError(f"quadratic: center {center} outside [{lo}, {hi}]")
        return Objective(
            domain_lo=lo,
            domain_hi=hi,
            eval=partial(_quadratic_eval, center),
            known_minimizer=center,
            family="quadratic",
            params=(center,),
        )

    if name == "shifted-quadratic":
        lo, hi = _resolve_domain(name, domain_lo, domain_hi, (0.0, 1.0))
        center = params[0] if len(params) >= 1 else 0.5 * (lo + hi)
        offset = params[1] if len(params) >= 2 else 1.0
        if len(params) > 2:
            raise ValueError("shifted-quadratic takes at most center and offset")
        if not lo <= center <= hi:
            raise ValueError(f"shifted-quadratic: center {center} outside [{lo}, {hi}]")
        if not offset >= 0.0:
            raise ValueError("shifted-quadratic: offset must be nonnegative")
        return Objective(
            domain_lo=lo,
            domain_hi=hi,
            eval=partial(_shifted_quadratic_eval, center, offset),
            known_minimizer=center,
            family="shifted-quadratic",
            params=(center, offset),
        )

    if name == "double-well":
        lo, hi = _resolve_domain(name, domain_lo, domain_hi, (0.0, 1.0))
        side = params[0] if len(params) >= 1 else 0.25
        bottom = params[1] if len(params) >= 2 else 0.75
        tilt = params[2] if len(params) >= 3 else 0.01
        if len(params) > 3:
            raise ValueError("double-well takes at most side, bottom, tilt")
        for label, w in (("side well", side), ("global well", bottom)):
            if not lo <= w <= hi:
                raise ValueError(f"double-well: {label} {w} outside [{lo}, {hi}]")
        if side != bottom and not tilt > 0.0:
            # tilt = 0 with distinct wells would leave two global minima
            raise ValueError("double-well: tilt must be positive for distinct wells")
        if side == bottom and not tilt >= 0.0:
            raise ValueError("double-well: tilt must be nonnegative")
        return Objective(
            domain_lo=lo,
            domain_hi=hi,
            eval=partial(_double_well_eval, side, bottom, tilt),
            known_minimizer=bottom,
            family="double-well",
            params=(side, bottom, tilt),
        )

    if name == "rastrigin1d":
        lo, hi = _resolve_domain(name, domain_lo, domain_hi, (-5.12, 5.12))
        center = params[0] if len(params) >= 1 else 0.0
        amplitude = params[1] if len(params) >= 2 else 1.0
        if len(params) > 2:
            raise ValueError("rastrigin1d takes at most center and amplitude")
        if not lo <= center <= hi:
            raise ValueError(f"rastrigin1d: center {center} outside [{lo}, {hi}]")
        if not amplitude >= 0.0:
            raise ValueError("rastrigin1d: amplitude must be nonnegative")
        return Objective(
            domain_lo=lo,
            domain_hi=hi,
            eval=partial(_rastrigin_eval, center, amplitude),
            known_minimizer=center,
            family="rastrigin1d",
            params=(center, amplitude),
        )

    if name == "custom-table":
        if len(params) < 4 or len(params) % 2 != 0:
            raise ValueError(
                "custom-table expects flattened pairs x0 f0 x1 f1 ... (at least two)"
            )
        knots = params[0::2]
        values = params[1::2]
        if domain_lo is not None or domain_hi is not None:
            raise ValueError("custom-table derives its domain from the knots")
        return table_objective(knots, values)

    raise ValueError(f"unknown builtin objective {name!r}; choose from {BUILTIN_NAMES}")


def table_objective(knots: Sequence[float], values: Sequence[float]) -> Objective:
    """Piecewise-linear objective through (knot, value) pairs.

    Knots must be finite and strictly increasing; values are shifted by a
    constant so that the minimum is exactly zero (weights are insensitive to
    constant shifts, so this loses nothing). The minimizer reported is the
    first knot attaining the minimum value.
    """
    knots = tuple(float(x) for x in knots)
    values = tuple(float(v) for v in values)
    if len(knots) != len(values) or len(knots) < 2:
        raise ValueError("table needs at least two (x, f) pairs of equal length")
    if not all(math.isfinite(x) for x in knots) or not all(
        math.isfinite(v) for v in values
    ):
        raise ValueError("table entries must be finite")
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise ValueError("table x values must be strictly increasing")
    floor = min(values)
    shifted = tuple(v - floor for v in values)
    arg = shifted.index(0.0)
    max_slope = max(
        abs(f1 - f0) / (x1 - x0)
        for x0, x1, f0, f1 in zip(knots, knots[1:], shifted, shifted[1:])
    )
    return Objective(
        domain_lo=knots[0],
        domain_hi=knots[-1],
        eval=partial(_table_eval, knots, shifted),
        known_minimizer=knots[arg],
        lipschitz_hint=max_slope,
        family="custom-table",
        params=tuple(v for pair in zip(knots, shifted) for v in pair),
    )


def load_table_csv(path: str) -> Objective:
    """Load a two-column (x, f) CSV into a piecewise-linear objective.

    A single header row is allowed and detected by failing to parse as floats.
    """
    import csv  # imported here: only table objectives read a CSV

    knots: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: expected two columns, got {row!r}")
            try:
                x, v = float(row[0]), float(row[1])
            except ValueError:
                if not knots:  # header row
                    continue
                raise ValueError(f"{path}: non-numeric row {row!r}") from None
            knots.append(x)
            values.append(v)
    if len(knots) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return table_objective(knots, values)


# --- weights ---------------------------------------------------------------

def softmax_weights(fvalues: Sequence[float], alpha: float) -> list[float]:
    """Softmax of -alpha * fvalues, shifted by the best value for stability.

    The shift makes every exponent nonpositive, so nothing overflows no matter
    how large alpha * f gets; far-from-best entries underflow harmlessly to
    zero. alpha = 0 returns exactly uniform weights.
    """
    best = min(fvalues)
    exps = [math.exp(-alpha * (v - best)) for v in fvalues]
    total = sum(exps)
    return [e / total for e in exps]


def weights(obj: Objective, alpha: float, positions: Sequence[float]) -> tuple[float, ...]:
    """Softmax weights of particles at the given positions under obj.

    Entries are in [0, 1] and sum to 1. Raises ValueError for an empty ensemble, a negative or non-finite alpha,
    positions outside the domain, or non-finite objective values.
    """
    if len(positions) == 0:
        raise ValueError("weights: need at least one position")
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"weights: alpha must be finite and nonnegative, got {alpha}")
    fvals = []
    for x in positions:
        if not obj.contains(x):
            raise ValueError(
                f"weights: position {x} outside domain [{obj.domain_lo}, {obj.domain_hi}]"
            )
        v = obj.eval(x)
        if not math.isfinite(v):
            raise ValueError(f"weights: objective value at {x} is not finite")
        fvals.append(v)
    return tuple(softmax_weights(fvals, alpha))


def consensus_point(positions: Sequence[float], w: Sequence[float]) -> float:
    """Weighted average of positions; always lies in their closed hull."""
    if len(positions) != len(w):
        raise ValueError(
            f"consensus_point: {len(positions)} positions vs {len(w)} weights"
        )
    m = math.fsum(p * x for p, x in zip(w, positions))
    # guard against the last-bit rounding that could park m outside the hull
    lo, hi = min(positions), max(positions)
    return min(max(m, lo), hi)
