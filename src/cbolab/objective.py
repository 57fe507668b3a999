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


def _inside(family: str, label: str, v: float, lo: float, hi: float) -> None:
    if not lo <= v <= hi:
        raise ValueError(f"{family}: {label} {v} outside [{lo}, {hi}]")


def _nonnegative(family: str, label: str, v: float) -> None:
    if not v >= 0.0:
        raise ValueError(f"{family}: {label} must be nonnegative, got {v}")


# Each builder takes the resolved domain and the family's parameters, checks
# the family's own rules, and returns the Objective fields it sets.

def _linear(lo: float, hi: float, slope: float) -> dict:
    if not slope > 0.0:
        raise ValueError(f"linear: slope must be positive, got {slope}")
    return dict(eval=partial(_linear_eval, lo, slope), known_minimizer=lo, lipschitz_hint=slope)


def _quadratic(lo: float, hi: float, center: float) -> dict:
    _inside("quadratic", "center", center, lo, hi)
    return dict(eval=partial(_quadratic_eval, center), known_minimizer=center)


def _shifted_quadratic(lo: float, hi: float, center: float, offset: float) -> dict:
    _inside("shifted-quadratic", "center", center, lo, hi)
    _nonnegative("shifted-quadratic", "offset", offset)
    return dict(eval=partial(_shifted_quadratic_eval, center, offset), known_minimizer=center)


def _double_well(lo: float, hi: float, side: float, bottom: float, tilt: float) -> dict:
    _inside("double-well", "side", side, lo, hi)
    _inside("double-well", "bottom", bottom, lo, hi)
    if side != bottom and not tilt > 0.0:
        # tilt = 0 with distinct wells would leave two global minima
        raise ValueError("double-well: tilt must be positive for distinct wells")
    _nonnegative("double-well", "tilt", tilt)
    return dict(eval=partial(_double_well_eval, side, bottom, tilt), known_minimizer=bottom)


def _rastrigin(lo: float, hi: float, center: float, amplitude: float) -> dict:
    _inside("rastrigin1d", "center", center, lo, hi)
    _nonnegative("rastrigin1d", "amplitude", amplitude)
    return dict(eval=partial(_rastrigin_eval, center, amplitude), known_minimizer=center)


# name -> (default domain, parameter names, their defaults, builder); a
# default of None stands for the domain midpoint
_FAMILIES = {
    "linear": ((0.0, 1.0), ("slope",), (1.0,), _linear),
    "quadratic": ((0.0, 1.0), ("center",), (0.0,), _quadratic),
    "shifted-quadratic": ((0.0, 1.0), ("center", "offset"), (None, 1.0), _shifted_quadratic),
    "double-well": ((0.0, 1.0), ("side", "bottom", "tilt"), (0.25, 0.75, 0.01), _double_well),
    "rastrigin1d": ((-5.12, 5.12), ("center", "amplitude"), (0.0, 1.0), _rastrigin),
}

BUILTIN_NAMES = (*_FAMILIES, "custom-table")


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
      double-well       side (0.25), bottom (0.75), tilt (0.01);
                        f(x) = (x - side)^2 (x - bottom)^2 + tilt (x - bottom)^2,
                        unique global minimum at the bottom well
      rastrigin1d       center (0.0), amplitude (1.0);
                        f(x) = (x - center)^2 + amplitude (1 - cos 2 pi (x - center))
      custom-table      flattened knot/value pairs x0 f0 x1 f1 ...

    Every builtin has f >= 0 on its domain, a populated known_minimizer, and
    raises ValueError for parameters that put the minimizer outside the domain,
    and for a domain at either end of which f is not a finite number.
    """
    params = tuple(float(p) for p in params)
    if name == "custom-table":
        if len(params) < 4 or len(params) % 2 != 0:
            raise ValueError("custom-table expects flattened pairs x0 f0 x1 f1 ... (at least two)")
        if domain_lo is not None or domain_hi is not None:
            raise ValueError("custom-table derives its domain from the knots")
        return table_objective(params[0::2], params[1::2])
    if name not in _FAMILIES:
        raise ValueError(f"unknown builtin objective {name!r}; choose from {BUILTIN_NAMES}")
    (default_lo, default_hi), names, defaults, build = _FAMILIES[name]
    lo = default_lo if domain_lo is None else float(domain_lo)
    hi = default_hi if domain_hi is None else float(domain_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"{name}: invalid domain [{lo}, {hi}]")
    if len(params) > len(names):
        raise ValueError(f"{name} takes at most {len(names)} parameter(s): {', '.join(names)}")
    params += tuple(0.5 * (lo + hi) if d is None else d for d in defaults[len(params):])
    fields = build(lo, hi, *params)
    for x in (lo, hi):  # an Objective is finite on its domain, so at both ends
        try:
            finite = math.isfinite(fields["eval"](x))
        except (ValueError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"{name}: f({x}) is not finite on the domain [{lo}, {hi}]")
    return Objective(domain_lo=lo, domain_hi=hi, family=name, params=params, **fields)


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


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_table_csv(path: str) -> Objective:
    """Load a two-column (x, f) CSV into a piecewise-linear objective.

    One header row is allowed: a first row whose two fields are both
    non-numeric. Any other row that does not parse as two floats raises.
    """
    import csv  # imported here: only table objectives read a CSV

    knots: list[float] = []
    values: list[float] = []
    rows = 0
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows += 1
            if len(row) < 2:
                raise ValueError(f"{path}: expected two columns, got {row!r}")
            try:
                x, v = float(row[0]), float(row[1])
            except ValueError:
                if rows == 1 and not any(map(_is_number, row[:2])):
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
