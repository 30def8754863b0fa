"""holonomy-lab: geometric phases of driven finite-dimensional quantum systems.

Numerics for adiabatic, cyclic non-adiabatic, and non-cyclic geometric
phases, built on moving orthonormal frames and their gauge structure, with a
norm-preserving Schroedinger propagator and an exactly solvable rotating
spin-1/2 benchmark.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NormalizationDriftError,
    NotCyclicError,
    OrthogonalEndpointsError,
)
from .evolution import HamiltonianSchedule, TimeGrid, Trajectory, expand_in_frame, fidelity, propagate
from .frames import (
    MovingFrame,
    connection,
    eff_hamiltonian_matrix,
    finite_difference_frame,
    gauge_transform,
    holonomy,
    parallel_transport_fix,
    random_periodic_gauge,
)
from .hilbert import expi_hermitian, inner, unitarity_defect
from .phases import (
    PhaseReport,
    adiabatic_berry_phase,
    circular_distance,
    cyclic_geometric_phase,
    cyclic_phase_from_connection,
    dynamical_phase,
    noncyclic_geometric_phase,
)
from .spin_model import ModelParams, exact_solution, geometric_phase_exact, tilt_angle, tilted_frame
from .tolerances import DEFAULT as DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionMismatchError",
    "NonHermitianError",
    "NormalizationDriftError",
    "NotCyclicError",
    "OrthogonalEndpointsError",
    "HamiltonianSchedule",
    "TimeGrid",
    "Trajectory",
    "expand_in_frame",
    "fidelity",
    "propagate",
    "MovingFrame",
    "connection",
    "eff_hamiltonian_matrix",
    "finite_difference_frame",
    "gauge_transform",
    "holonomy",
    "parallel_transport_fix",
    "random_periodic_gauge",
    "expi_hermitian",
    "inner",
    "unitarity_defect",
    "PhaseReport",
    "adiabatic_berry_phase",
    "circular_distance",
    "cyclic_geometric_phase",
    "cyclic_phase_from_connection",
    "dynamical_phase",
    "noncyclic_geometric_phase",
    "ModelParams",
    "exact_solution",
    "geometric_phase_exact",
    "tilt_angle",
    "tilted_frame",
    "DEFAULT_TOLERANCES",
    "Tolerances",
]
