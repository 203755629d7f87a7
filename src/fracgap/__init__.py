"""Numerical toolkit for the killed isotropic stable process on bounded domains.

Discretizes the Dirichlet fractional Laplacian on 1D/2D grids, computes low
eigenpairs and expected exit times, simulates the process directly, and
verifies the closed-form spectral inequalities at desk scale.
"""

from .constants import (
    StableParams,
    BoundConstants,
    bound_constants,
    gamma,
    norm_constant,
    ground_state_sup_constant,
    gap_bound_constant,
    gap_lower_bound,
    lambda1_upper_ball,
    ball_exit_time_exact,
)
from .geometry import (
    Ball,
    BallUnion,
    Box,
    Grid,
    IntervalUnion,
    RasterMask,
    interval,
    rasterize,
)
from .operator import KilledOperator, assemble, exit_time, sup_exit_time
from .spectra import EigenSolution, eigenpairs, spectral_gap
from .bounds import BoundReport, build_report, run_suite, two_ball_experiment
from .montecarlo import StableSamplerConfig, estimate_exit

__version__ = "0.1.0"

__all__ = [
    "StableParams",
    "BoundConstants",
    "bound_constants",
    "gamma",
    "norm_constant",
    "ground_state_sup_constant",
    "gap_bound_constant",
    "gap_lower_bound",
    "lambda1_upper_ball",
    "ball_exit_time_exact",
    "Ball",
    "BallUnion",
    "Box",
    "Grid",
    "IntervalUnion",
    "RasterMask",
    "interval",
    "rasterize",
    "KilledOperator",
    "assemble",
    "exit_time",
    "sup_exit_time",
    "EigenSolution",
    "eigenpairs",
    "spectral_gap",
    "BoundReport",
    "build_report",
    "run_suite",
    "two_ball_experiment",
    "StableSamplerConfig",
    "estimate_exit",
    "__version__",
]
