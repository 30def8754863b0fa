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
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import DimensionMismatchError, NonHermitianError, NotCyclicError, OrthogonalEndpointsError
from .evolution import HamiltonianSchedule, Trajectory, _require_schedule, _sampled_blocks
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


def _overlap_argument(ov: complex, tol: Tolerances) -> float:
    """arg ov, or OrthogonalEndpointsError when |ov| <= tol.overlap_floor."""
    if abs(ov) <= tol.overlap_floor:
        raise OrthogonalEndpointsError(
            f"orthogonal endpoints: Pancharatnam phase undefined "
            f"(|overlap| = {abs(ov):.3e} <= {tol.overlap_floor:.3e})"
        )
    return float(np.angle(ov))


def _node_energies(trajs: tuple[Trajectory, ...], schedule: HamiltonianSchedule) -> list[np.ndarray]:
    """<psi_k|H(t_k)|psi_k> on the nodes of the trajectories' shared grid:
    one complex (steps+1,) array per trajectory.

    `schedule` is sampled once per block of nodes by propagate's walker (see
    evolution._sampled_blocks), unscreened, so no more than one block's stack
    is held. Every trajectory's energies are formed from that block by the
    same einsum, so they are the bits the trajectory gives alone. The arrays
    are separate because one (m, steps+1) stack of two 4096-step rows passes
    malloc's 128 KiB mmap threshold, and its pages were faulted in anew on
    every row.
    """
    _require_schedule(schedule)
    grid, dim = trajs[0].grid, trajs[0].dim
    if schedule.dim != dim:
        raise DimensionMismatchError(
            f"trajectory dimension {dim} does not match schedule dimension {schedule.dim}"
        )
    ts = grid.nodes()
    energies = [np.empty(ts.size, dtype=complex) for _ in trajs]
    for lo, times, hams in _sampled_blocks(schedule, ts):
        hi = lo + len(times)
        for traj, out in zip(trajs, energies):
            psi = traj.states[lo:hi]
            np.einsum("ki,kij,kj->k", psi.conj(), hams, psi, out=out[lo:hi])
        del times, hams
    return energies


def _dynamical(traj: Trajectory, energies: np.ndarray, hbar: float) -> float:
    """The trapezoid rule over one trajectory's node energies, over hbar.
    NonHermitianError names the first node whose energy is not finite, or,
    when finite energies overflow the phase, the node of the largest."""
    energies = energies.real
    with np.errstate(over="ignore", invalid="ignore"):  # a phase that is not finite is refused below
        phase = float(np.trapezoid(energies, dx=traj.grid.dt) / hbar)
    if not math.isfinite(phase):  # only then are the nodes searched
        bad = np.flatnonzero(~np.isfinite(energies))
        k = int(bad[0]) if bad.size else int(np.argmax(np.abs(energies)))
        what = "not finite" if bad.size else "too large for the dynamical phase"
        raise NonHermitianError(
            f"energy <psi|H|psi> {what} at t = {float(traj.grid.nodes()[k])!r}: {energies[k]}"
        )
    return phase


def dynamical_phase(traj: Trajectory, schedule: HamiltonianSchedule, hbar: float = 1.0) -> float:
    """(1/hbar) * Int <psi(t)|H(t)|psi(t)> dt by the trapezoid rule on the grid.

    The schedule is sampled on the grid nodes by propagate's block walker
    (evolution._sampled_blocks). Raises ValueError unless hbar is a positive
    finite real number, TypeError unless `schedule` is a HamiltonianSchedule, and
    DimensionMismatchError when its dim is not the trajectory's, each before
    any sampling, and NonHermitianError naming the first node whose energy is
    not finite, or the largest energy when the phase overflows.
    """
    hbar = hilbert._real("hbar", hbar, positive=True)
    return _dynamical(traj, _node_energies((traj,), schedule)[0], hbar)


def cyclic_phase_from_connection(traj: Trajectory, tol: Tolerances = DEFAULT) -> float:
    """Geometric phase of a cyclic trajectory from the connection of the
    phase-stripped loop, in [0, 2 pi).

    Equals arg<psi_0|psi_M> minus the accumulated arguments of neighboring
    state overlaps (the discrete connection integral). Sums at strides 1 and
    2 are Richardson-combined, lifting the quadrature to fourth order; no
    Hamiltonian evaluation is involved. Each sum is right only mod 2 pi, so
    their difference is taken in (-pi, pi] when it lies outside [-pi, pi].
    Raises OrthogonalEndpointsError when |<psi_0|psi_M>| <= tol.overlap_floor.
    """
    total = _overlap_argument(complex(np.vdot(traj.states[0], traj.states[-1])), tol)
    return _connection_route(traj, total)


def _connection_route(traj: Trajectory, total: float) -> float:
    """cyclic_phase_from_connection of a trajectory whose total phase is `total`."""
    def chain(stride: int) -> float:
        seg = traj.states[::stride]
        ov = np.einsum("ki,ki->k", seg[:-1].conj(), seg[1:])
        return float(np.sum(np.angle(ov)))

    r1 = total - chain(1)
    if traj.grid.steps >= 4 and traj.grid.steps % 2 == 0:
        diff = r1 - (total - chain(2))
        if abs(diff) > math.pi:
            # a stride-2 overlap argument wrapped past pi
            diff = math.pi - (math.pi - diff) % TWO_PI
        return _mod_two_pi(r1 + diff / 3.0)
    return _mod_two_pi(r1)


def _phase_reports(
    trajs: tuple[Trajectory, ...], schedule: HamiltonianSchedule, hbar: float, tol: Tolerances, cyclic: bool
) -> list[PhaseReport]:
    """Reports of trajectories on one grid: noncyclic_geometric_phase's, or,
    when `cyclic`, cyclic_geometric_phase's before its route check.

    Each trajectory is checked in turn: cyclicity (only when `cyclic`), the
    overlap floor, then a non-finite energy. The schedule's node blocks are
    sampled once for all of them, after the first trajectory's checks.
    """
    reports = []
    for k, traj in enumerate(trajs):
        ov = complex(np.vdot(traj.states[0], traj.states[-1]))
        defect = abs(abs(ov) - 1.0)
        if cyclic and defect > tol.cyclicity:
            raise NotCyclicError(
                f"not cyclic at tolerance {tol.cyclicity:.3e}: | |overlap| - 1 | = {defect:.3e}"
            )
        total = _overlap_argument(ov, tol)
        if k == 0:
            hbar = hilbert._real("hbar", hbar, positive=True)
            energies = _node_energies(trajs, schedule)
        dynamical = _dynamical(traj, energies[k], hbar)
        raw = total + dynamical
        geometric = _mod_two_pi(raw)
        gap = circular_distance(geometric, _connection_route(traj, total)) if cyclic else None
        reports.append(PhaseReport(total, dynamical, geometric, raw, min(abs(ov), 1.0),
                                   bool(defect <= tol.cyclicity), tol.cyclicity, gap))
    return reports


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
    return _phase_reports((traj,), schedule, hbar, tol, cyclic=False)[0]


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
    [report] = _phase_reports((traj,), schedule, hbar, tol, cyclic=True)
    _require_routes_agree(report, traj, tol)
    return report


def _require_routes_agree(report: PhaseReport, traj: Trajectory, tol: Tolerances) -> None:
    """Raise ValueError when the two routes of traj's cyclic report disagree
    by more than tol.two_route."""
    gap = report.route_agreement
    if gap > tol.two_route:
        direct = _connection_route(traj, report.total)
        raise ValueError(
            f"geometric-phase routes disagree by {gap:.3e} rad (allowed {tol.two_route:.3e}); "
            f"decomposition gave {report.geometric:.9f}, connection route gave {direct:.9f}"
        )
