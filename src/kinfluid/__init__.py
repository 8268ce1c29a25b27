"""kinfluid: a 1-D slab simulator for a kinetic particle phase with velocity
diffusion and alignment, coupled to a compressible viscous gas through drag,
together with its relaxed two-phase (isothermal gas / isentropic gas) limit
system and the entropy diagnostics that certify runs."""

from .core import (
    CFLError,
    ConfigError,
    FluidState,
    KineticState,
    PhaseGrid,
    PositivityError,
    SolverError,
    TwoPhaseState,
    VacuumError,
    l1_distance,
    l2_distance,
    phase_mass,
    quad_v,
    quad_x,
)
from .moments import MomentSet, compute_moments, maxwellian

__version__ = "0.1.0"

__all__ = [
    "CFLError",
    "ConfigError",
    "FluidState",
    "KineticState",
    "MomentSet",
    "PhaseGrid",
    "PositivityError",
    "SolverError",
    "TwoPhaseState",
    "VacuumError",
    "compute_moments",
    "l1_distance",
    "l2_distance",
    "maxwellian",
    "phase_mass",
    "quad_v",
    "quad_x",
    "__version__",
]
