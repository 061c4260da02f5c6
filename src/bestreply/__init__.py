"""Particle best-reply solver for mean-field games with absorbing boundaries.

The package simulates a population of weighted particles whose controls are
re-optimized by randomized sequential best-reply sweeps until no particle
wants to deviate, with mass removed when trajectories hit the boundary.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .controls import ControlGrid
from .engine import SweepOptions, run_to_equilibrium, run_two_phase
from .kernels import ShapeKernel, lambert_w0
from .models import evacuation_model, refinancing_model
from .outputs import write_outputs

__all__ = [
    "ControlGrid",
    "RunConfig",
    "ShapeKernel",
    "SweepOptions",
    "evacuation_model",
    "lambert_w0",
    "parse_config",
    "refinancing_model",
    "run_to_equilibrium",
    "run_two_phase",
    "write_outputs",
    "__version__",
]
