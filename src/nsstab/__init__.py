"""Stabilization of time-dependent flows on a truncated spectral model.

Builds interval-wise minimal-norm null-projection controls, numerical
observability constants, exponentially weighted LQ feedback laws, and the
nonlinear closed loop with a contraction-map verification, all on a
Galerkin truncation of the 2D incompressible flow equations over the torus.
"""

__version__ = "0.1.0"

from .dynamics import (
    ReferenceTrajectory,
    Trajectory,
    bilinear_b,
    taylor_green_reference,
    zero_reference,
)
from .feedback import FeedbackLaw, riccati_solve
from .null_control import ControlSignal, ReachabilityBundle, build_reachability, min_norm_control
from .observability import ObservabilityForms, build_forms, select_m1, truncated_constant
from .spectral import Actuator, ChiMask, SpectralSpace, build_actuator, build_space
from .stabilizer import CutoffSearch, StabilizationRun, stabilize
from .nonlinear import contraction_probe, simulate_closed_loop, zlambda_norm

__all__ = [
    "__version__",
    "Actuator", "ChiMask", "ControlSignal", "CutoffSearch", "FeedbackLaw",
    "ObservabilityForms", "ReachabilityBundle", "ReferenceTrajectory",
    "SpectralSpace", "StabilizationRun", "Trajectory",
    "bilinear_b", "build_actuator", "build_forms", "build_reachability",
    "build_space", "contraction_probe", "min_norm_control", "riccati_solve",
    "select_m1", "simulate_closed_loop", "stabilize", "taylor_green_reference",
    "truncated_constant", "zero_reference", "zlambda_norm",
]
