"""One-dimensional consensus-based optimization laboratory.

Particles drift toward a softmax-weighted average of their positions; as the
weight sharpness alpha grows, that average locks onto the best particle and
the common limit approaches the objective's global minimizer. This package
provides the deterministic particle solvers, the closed-form error oracles,
convergence-rate sweeps, an error-bound certifier for smooth objectives, and
a CLI wrapping all of it.
"""

from . import analysis, dynamics, objective
from .analysis import *
from .dynamics import *
from .objective import *

__version__ = "0.1.0"

__all__ = sorted({*analysis.__all__, *dynamics.__all__, *objective.__all__})
