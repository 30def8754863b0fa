"""Extraction of total, dynamical, and geometric phases from trajectories.

Conventions, fixed once for the whole library:

* the state evolves as exp(-i * dynamical + i * geometric) overall, so the
  geometric phase is total + dynamical;
* `total` is the principal argument of the endpoint overlap, in (-pi, pi];
* reported geometric phases live in [0, 2 pi); the unreduced sum is kept
  alongside, differing by an exact multiple of 2 pi;
* quadrature is the composite trapezoid rule on the propagation grid,
  order-matched to the midpoint integrator.

For a cyclic trajectory the geometric phase is computed twice: from the
total + dynamical decomposition, and directly as the connection integral of
the phase-stripped loop v(t) = e^{-i phi(t)} psi(t), accumulated from
nearest-neighbor overlap arguments with one Richardson step. The two routes
share no integrand (one needs H, the other only state overlaps), so their
agreement is a real consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, NotCyclicError, OrthogonalEndpointsError
from .evolution import HamiltonianSchedule, Trajectory
from .frames import adiabatic_berry_phase
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "PhaseReport",
    "mod_two_pi",
    "circular_distance",
    "total_phase",
    "dynamical_phase",
    "cyclic_geometric_phase",
    "cyclic_phase_from_connection",
    "noncyclic_geometric_phase",
    "adiabatic_berry_phase",
]

TWO_PI = 2.0 * math.pi


def mod_two_pi(x: float) -> float:
    """Reduce to [0, 2 pi)."""
    r = float(x) % TWO_PI
    return r if r < TWO_PI else 0.0


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class PhaseReport:
    """Phase decomposition of one trajectory.

    `geometric` is total + dynamical reduced to [0, 2 pi); `geometric_raw`
    is the same sum unreduced. `route_agreement` (cyclic reports only) is the
    circular distance to the independently computed connection-route value.
    """

    total: float
    dynamical: float
    geometric: float
    geometric_raw: float
    endpoint_overlap_modulus: float
    cyclic: bool
    cyclic_tol: float
    route_agreement: float | None = None


def _endpoint_overlap(traj: Trajectory) -> complex:
    return complex(np.vdot(traj.states[0], traj.states[-1]))


def total_phase(traj: Trajectory, tol: Tolerances = DEFAULT) -> float:
    """Principal argument of <psi(0)|psi(T)>, in (-pi, pi].

    Undefined (raises) when the endpoints are orthogonal within tol.overlap_floor.
    """
    ov = _endpoint_overlap(traj)
    if abs(ov) <= tol.overlap_floor:
        raise OrthogonalEndpointsError(
            f"orthogonal endpoints: Pancharatnam phase undefined "
            f"(|overlap| = {abs(ov):.3e} <= {tol.overlap_floor:.3e})"
        )
    return float(np.angle(ov))


def _node_hamiltonians(traj: Trajectory, schedule: HamiltonianSchedule | np.ndarray) -> np.ndarray:
    """H on the trajectory's grid nodes: sampled from a schedule, or given as
    a (steps+1, dim, dim) stack of those samples, whose shape is checked."""
    if isinstance(schedule, HamiltonianSchedule):
        return schedule.sample(traj.grid.nodes())
    hams = np.asarray(schedule, dtype=complex)
    expected = (traj.grid.steps + 1, traj.dim, traj.dim)
    if hams.shape != expected:
        raise DimensionMismatchError(
            f"node Hamiltonians must have shape {expected} for this trajectory, got {hams.shape}"
        )
    return hams


def dynamical_phase(
    traj: Trajectory, schedule: HamiltonianSchedule | np.ndarray, hbar: float = 1.0
) -> float:
    """(1/hbar) * Int <psi(t)|H(t)|psi(t)> dt by the trapezoid rule on the grid.

    `schedule` is the HamiltonianSchedule, or its samples on the grid nodes
    as a (steps+1, dim, dim) stack, so that trajectories on one grid can
    share a single sampling; both give the same bits.
    """
    hams = _node_hamiltonians(traj, schedule)
    energies = np.einsum("ki,kij,kj->k", traj.states.conj(), hams, traj.states).real
    return float(np.trapezoid(energies, dx=traj.grid.dt) / hbar)


def cyclic_phase_from_connection(traj: Trajectory, tol: Tolerances = DEFAULT) -> float:
    """Geometric phase of a cyclic trajectory from the connection of the
    phase-stripped loop, in [0, 2 pi).

    Equals arg<psi_0|psi_M> minus the accumulated arguments of neighboring
    state overlaps (the discrete connection integral). Sums at strides 1 and
    2 are Richardson-combined, lifting the quadrature to fourth order; no
    Hamiltonian evaluation is involved.
    """
    steps = traj.grid.steps
    base = total_phase(traj, tol=tol)

    def chain(stride: int) -> float:
        seg = traj.states[::stride]
        ov = np.einsum("ki,ki->k", seg[:-1].conj(), seg[1:])
        return float(np.sum(np.angle(ov)))

    r1 = base - chain(1)
    if steps >= 4 and steps % 2 == 0:
        r2 = base - chain(2)
        return mod_two_pi(r1 + (r1 - r2) / 3.0)
    return mod_two_pi(r1)


def noncyclic_geometric_phase(
    traj: Trajectory,
    schedule: HamiltonianSchedule | np.ndarray,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> PhaseReport:
    """Pancharatnam geometric phase for a not-necessarily-cyclic trajectory.

    arg<psi(0)|psi(T)> + dynamical, mod 2 pi; defined whenever the endpoint
    overlap clears tol.overlap_floor. On a cyclic trajectory it is the
    Aharonov-Anandan phase, which cyclic_geometric_phase builds on.
    `schedule` may be the node samples, as in dynamical_phase.
    """
    total = total_phase(traj, tol=tol)
    ov = _endpoint_overlap(traj)
    dyn = dynamical_phase(traj, schedule, hbar=hbar)
    raw = total + dyn
    return PhaseReport(
        total=total,
        dynamical=dyn,
        geometric=mod_two_pi(raw),
        geometric_raw=raw,
        endpoint_overlap_modulus=min(abs(ov), 1.0),
        cyclic=bool(abs(abs(ov) - 1.0) <= tol.cyclicity),
        cyclic_tol=tol.cyclicity,
    )


def cyclic_geometric_phase(
    traj: Trajectory,
    schedule: HamiltonianSchedule | np.ndarray,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> PhaseReport:
    """Geometric phase of a cyclic trajectory (total + dynamical, mod 2 pi).

    Cyclicity requires | |<psi(0)|psi(T)>| - 1 | <= tol.cyclicity; the phase
    is then the noncyclic (Pancharatnam) one. It is cross-checked against the
    connection-route value; a disagreement beyond tol.two_route raises, since
    it signals an under-resolved trajectory. Pass
    tol.replace(two_route=math.inf) to record the gap without enforcing it.
    `schedule` may be the node samples, as in dynamical_phase.
    """
    defect = abs(abs(_endpoint_overlap(traj)) - 1.0)
    if defect > tol.cyclicity:
        raise NotCyclicError(
            f"not cyclic at tolerance {tol.cyclicity:.3e}: | |overlap| - 1 | = {defect:.3e}"
        )
    report = noncyclic_geometric_phase(traj, schedule, hbar=hbar, tol=tol)
    direct = cyclic_phase_from_connection(traj, tol=tol)
    gap = circular_distance(report.geometric, direct)
    if gap > tol.two_route:
        raise ValueError(
            f"geometric-phase routes disagree by {gap:.3e} rad (allowed {tol.two_route:.3e}); "
            f"decomposition gave {report.geometric:.9f}, connection route gave {direct:.9f}"
        )
    return replace(report, route_agreement=gap)
