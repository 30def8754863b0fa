"""Central tolerance record shared by the library's numerical checks."""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances read by the library's own checks.

    Each field is read by `hilbert`, `frames`, `phases` or `sweep`, and one
    config override (``tol.<field> = value``) reaches every check that reads
    it. The verification suite's pass lines are fixed, not fields here.
    Relative tolerances state their scale in the comment.
    """

    hermiticity: float = 1e-12        # vs max(1, max|H|)
    normalized_state: float = 1e-12   # | ||psi|| - 1 |
    connection_drift: float = 1e-9    # imaginary part of <v| i dv/dt>
    cyclicity: float = 1e-8           # | |<psi(0)|psi(T)>| - 1 |
    overlap_floor: float = 1e-6       # endpoint overlap below this: no Pancharatnam phase
    two_route: float = 2 * math.pi * 1e-8   # cyclic phase: decomposition vs connection route
    sweep_deviation: float = 1e-5     # per-row bound on |geom - exact|, drives step refinement
    max_dim: int = 64

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT = Tolerances()
