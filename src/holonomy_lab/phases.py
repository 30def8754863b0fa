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

from . import hilbert
from .errors import DimensionMismatchError, NonHermitianError, NotCyclicError, OrthogonalEndpointsError
from .evolution import HamiltonianSchedule, Trajectory, _block_steps
from .frames import adiabatic_berry_phase
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "PhaseReport",
    "circular_distance",
    "dynamical_phase",
    "cyclic_geometric_phase",
    "cyclic_phase_from_connection",
    "noncyclic_geometric_phase",
    "adiabatic_berry_phase",
]

TWO_PI = 2.0 * math.pi


def _mod_two_pi(x: float) -> float:
    """Reduce to [0, 2 pi); NaN stays NaN."""
    r = float(x) % TWO_PI
    return 0.0 if r >= TWO_PI else r


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


def _total_phase(traj: Trajectory, tol: Tolerances = DEFAULT) -> float:
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


def _node_energies(trajs: tuple[Trajectory, ...], schedule: HamiltonianSchedule) -> list[np.ndarray]:
    """<psi_k|H(t_k)|psi_k> on the nodes of the trajectories' shared grid:
    one complex (steps+1,) array per trajectory.

    `schedule` is sampled once per block of nodes cut by propagate's rule (see
    evolution._block_steps), so no full node stack is held, and every
    trajectory's energies are formed from that block by the same einsum, so
    they are the bits the trajectory gives alone. The arrays are separate
    because one (m, steps+1) stack of two 4096-step rows passes malloc's
    128 KiB mmap threshold, and its pages were faulted in anew on every row.
    """
    if not isinstance(schedule, HamiltonianSchedule):
        raise TypeError(f"schedule must be a HamiltonianSchedule, got {type(schedule).__name__}")
    grid, dim = trajs[0].grid, trajs[0].dim
    if schedule.dim != dim:
        raise DimensionMismatchError(
            f"trajectory dimension {dim} does not match schedule dimension {schedule.dim}"
        )
    ts = grid.nodes()
    energies = [np.empty(ts.size, dtype=complex) for _ in trajs]
    block = _block_steps(dim)
    for lo in range(0, ts.size, block):
        hi = lo + block
        hams = schedule.sample(ts[lo:hi])
        for traj, out in zip(trajs, energies):
            psi = traj.states[lo:hi]
            np.einsum("ki,kij,kj->k", psi.conj(), hams, psi, out=out[lo:hi])
    return energies


def _dynamical(traj: Trajectory, energies: np.ndarray, hbar: float) -> float:
    """The trapezoid rule over one trajectory's node energies, over hbar;
    NonHermitianError names the first node whose energy is not finite."""
    energies = energies.real
    phase = float(np.trapezoid(energies, dx=traj.grid.dt) / hbar)
    if not math.isfinite(phase):
        # a non-finite energy makes the sum non-finite, so only then are the
        # nodes searched; finite energies whose sum overflows are not refused
        bad = np.flatnonzero(~np.isfinite(energies))
        if bad.size:
            k = int(bad[0])
            raise NonHermitianError(
                f"energy <psi|H|psi> not finite at t = {float(traj.grid.nodes()[k])!r}: {energies[k]}"
            )
    return phase


def dynamical_phase(traj: Trajectory, schedule: HamiltonianSchedule, hbar: float = 1.0) -> float:
    """(1/hbar) * Int <psi(t)|H(t)|psi(t)> dt by the trapezoid rule on the grid.

    The schedule is sampled on the grid nodes in blocks, as propagate samples
    its midpoints. Raises ValueError unless hbar is a positive finite real
    number, TypeError unless `schedule` is a HamiltonianSchedule, and
    DimensionMismatchError when its dim is not the trajectory's, each before
    any sampling, and NonHermitianError naming the first node whose energy is
    not finite.
    """
    hilbert._require_hbar(hbar)
    return _dynamical(traj, _node_energies((traj,), schedule)[0], hbar)


def cyclic_phase_from_connection(traj: Trajectory, tol: Tolerances = DEFAULT) -> float:
    """Geometric phase of a cyclic trajectory from the connection of the
    phase-stripped loop, in [0, 2 pi).

    Equals arg<psi_0|psi_M> minus the accumulated arguments of neighboring
    state overlaps (the discrete connection integral). Sums at strides 1 and
    2 are Richardson-combined, lifting the quadrature to fourth order; no
    Hamiltonian evaluation is involved. Each sum is right only mod 2 pi, so
    their difference is taken in (-pi, pi] when it lies outside [-pi, pi].
    """
    steps = traj.grid.steps
    base = _total_phase(traj, tol)

    def chain(stride: int) -> float:
        seg = traj.states[::stride]
        ov = np.einsum("ki,ki->k", seg[:-1].conj(), seg[1:])
        return float(np.sum(np.angle(ov)))

    r1 = base - chain(1)
    if steps >= 4 and steps % 2 == 0:
        diff = r1 - (base - chain(2))
        if abs(diff) > math.pi:
            # a stride-2 overlap argument wrapped past pi
            diff = math.pi - (math.pi - diff) % TWO_PI
        return _mod_two_pi(r1 + diff / 3.0)
    return _mod_two_pi(r1)


def _pancharatnam(traj: Trajectory, total: float, dynamical: float, tol: Tolerances) -> PhaseReport:
    """The report of a trajectory's total and dynamical phases."""
    ov = _endpoint_overlap(traj)
    raw = total + dynamical
    return PhaseReport(
        total=total,
        dynamical=dynamical,
        geometric=_mod_two_pi(raw),
        geometric_raw=raw,
        endpoint_overlap_modulus=min(abs(ov), 1.0),
        cyclic=bool(abs(abs(ov) - 1.0) <= tol.cyclicity),
        cyclic_tol=tol.cyclicity,
    )


def noncyclic_geometric_phase(
    traj: Trajectory,
    schedule: HamiltonianSchedule,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> PhaseReport:
    """Pancharatnam geometric phase for a not-necessarily-cyclic trajectory.

    arg<psi(0)|psi(T)> + dynamical, mod 2 pi; defined whenever the endpoint
    overlap clears tol.overlap_floor (OrthogonalEndpointsError otherwise). On
    a cyclic trajectory it is the Aharonov-Anandan phase, which
    cyclic_geometric_phase builds on.
    """
    total = _total_phase(traj, tol)
    return _pancharatnam(traj, total, dynamical_phase(traj, schedule, hbar=hbar), tol)


def cyclic_geometric_phase(
    traj: Trajectory,
    schedule: HamiltonianSchedule,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> PhaseReport:
    """Geometric phase of a cyclic trajectory (total + dynamical, mod 2 pi).

    Cyclicity requires | |<psi(0)|psi(T)>| - 1 | <= tol.cyclicity; the phase
    is then the noncyclic (Pancharatnam) one. It is cross-checked against the
    connection-route value; a disagreement beyond tol.two_route raises, since
    it signals an under-resolved trajectory. Pass
    tol.replace(two_route=math.inf) to record the gap without enforcing it.
    """
    [(report, direct)] = _cyclic_routes((traj,), schedule, hbar, tol)
    _require_routes_agree(report, direct, tol)
    return report


def _cyclic_routes(
    trajs: tuple[Trajectory, ...], schedule: HamiltonianSchedule, hbar: float, tol: Tolerances
) -> list[tuple[PhaseReport, float]]:
    """For each of trajectories on one grid, cyclic_geometric_phase's report
    without the route check, and the connection-route value that the check
    compares it with.

    Each trajectory is checked in turn: cyclicity, the overlap floor, then a
    non-finite energy. The schedule's node blocks are sampled once for all of
    them, after the first trajectory's first two checks.
    """
    routes = []
    for k, traj in enumerate(trajs):
        defect = abs(abs(_endpoint_overlap(traj)) - 1.0)
        if defect > tol.cyclicity:
            raise NotCyclicError(
                f"not cyclic at tolerance {tol.cyclicity:.3e}: | |overlap| - 1 | = {defect:.3e}"
            )
        total = _total_phase(traj, tol)
        if k == 0:
            hilbert._require_hbar(hbar)
            energies = _node_energies(trajs, schedule)
        report = _pancharatnam(traj, total, _dynamical(traj, energies[k], hbar), tol)
        direct = cyclic_phase_from_connection(traj, tol=tol)
        routes.append((replace(report, route_agreement=circular_distance(report.geometric, direct)), direct))
    return routes


def _require_routes_agree(report: PhaseReport, direct: float, tol: Tolerances) -> None:
    """Raise ValueError when the two routes of a _cyclic_routes report
    disagree by more than tol.two_route."""
    gap = report.route_agreement
    if gap > tol.two_route:
        raise ValueError(
            f"geometric-phase routes disagree by {gap:.3e} rad (allowed {tol.two_route:.3e}); "
            f"decomposition gave {report.geometric:.9f}, connection route gave {direct:.9f}"
        )
