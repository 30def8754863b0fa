"""Central tolerance record shared by every validation and acceptance check."""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the library.

    Every comparison references one instance of this record, so a single
    config override (``tol.<field> = value``) reaches all checks consistently.
    Relative tolerances state their scale in the comment.
    """

    hermiticity: float = 1e-12        # vs max(1, max|H|)
    unitarity: float = 1e-12          # max|U^H U - I|
    normalized_state: float = 1e-12   # | ||psi|| - 1 |
    orthonormality: float = 1e-10     # frame Gram defect at grid nodes
    connection_drift: float = 1e-9    # imaginary part of <v| i dv/dt>
    norm_preservation: float = 1e-10  # trajectory norm drift
    cyclicity: float = 1e-8           # | |<psi(0)|psi(T)>| - 1 |
    overlap_floor: float = 1e-6       # endpoint overlap below this: no Pancharatnam phase
    two_route: float = 2 * math.pi * 1e-8   # cyclic phase: decomposition vs connection route
    gauge_invariance: float = 1e-10
    holonomy_modulus: float = 1e-10
    diagonality: float = 1e-10        # vs mu*hbar*B + hbar*omega
    parallel_transport: float = 1e-8  # vs omega scale
    tilt_residual: float = 1e-12      # vs max(2 mu hbar B, hbar omega)
    sweep_deviation: float = 1e-5     # per-row bound on |geom - exact|, drives step refinement
    max_dim: int = 64

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT = Tolerances()
