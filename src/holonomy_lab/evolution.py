"""Norm-preserving propagation of the time-dependent Schroedinger equation.

The propagator is the exponential-midpoint rule: each step applies the exact
unitary of the Hamiltonian frozen at the step midpoint. Second order accurate
and exactly unitary per step, which phase observables require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hilbert
from .errors import DimensionMismatchError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "TimeGrid",
    "HamiltonianSchedule",
    "Trajectory",
    "TrajectoryBlock",
    "propagate",
    "expand_in_frame",
    "fidelity",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with `steps` intervals."""

    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")

    @property
    def dt(self) -> float:
        return self.t_end / self.steps

    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.steps) + 0.5) * self.dt


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Map t -> Hermitian matrix, with optional vectorized evaluation.

    `evaluate_many`, when given, takes an array of times and returns the
    stacked matrices (len(ts), dim, dim); it must agree with `evaluate`.
    """

    evaluate: Callable[[float], np.ndarray]
    dim: int
    evaluate_many: Callable[[np.ndarray], np.ndarray] | None = None

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """H at each of the times ts, as a (len(ts), dim, dim) complex stack.

        Raises DimensionMismatchError when the callbacks return matrices of
        another shape than (dim, dim).
        """
        ts = np.asarray(ts)
        if self.evaluate_many is not None:
            hams = np.asarray(self.evaluate_many(ts.astype(float, copy=False)), dtype=complex)
        else:
            hams = np.stack([np.asarray(self.evaluate(t), dtype=complex) for t in ts])
        if hams.shape != (len(ts), self.dim, self.dim):
            raise DimensionMismatchError(
                f"schedule of dimension {self.dim} returned samples of shape {hams.shape} "
                f"for {len(ts)} times"
            )
        return hams


@dataclass(frozen=True)
class Trajectory:
    """States on the nodes of a time grid; states[k] is psi(t_k)."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 2 or s.shape[0] != self.grid.steps + 1:
            raise DimensionMismatchError(
                f"states must have shape (steps+1, dim), got {s.shape} for steps={self.grid.steps}"
            )
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def norm_drift(self) -> float:
        norms = np.linalg.norm(self.states, axis=1)
        return float(np.max(np.abs(norms - norms[0])))


class TrajectoryBlock(tuple):
    """Trajectories of a block of initial states on one shared grid, in row order.

    Exposes the shared `grid` and `dim` like a single Trajectory does.
    """

    __slots__ = ()

    @property
    def grid(self) -> TimeGrid:
        return self[0].grid

    @property
    def dim(self) -> int:
        return self[0].dim


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks of square matrices; at dim 2 the four entries are
    formed elementwise into a complex component-major stack
    (hilbert._empty_2x2), which avoids matmul's per-matrix overhead and
    strided writes."""
    if a.shape[-1] != 2:
        return np.matmul(a, b)
    out = hilbert._empty_2x2(np.broadcast_shapes(a.shape, b.shape)[:-2])
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _prefix_products(u: np.ndarray) -> np.ndarray:
    """p[k] = u[k] @ u[k-1] @ ... @ u[0], for a stack of square matrices.

    Work-efficient recursive scan (about 2n batched products) instead of a
    Python loop. The balanced re-association keeps unitary round-off growth
    logarithmic in the step count.
    """
    n = u.shape[0]
    if n <= 1:
        return u.copy()
    m = n // 2
    scanned = _prefix_products(_matmul(u[1 : 2 * m : 2], u[0 : 2 * m : 2]))
    out = np.empty_like(u)
    out[0] = u[0]
    out[1 : 2 * m : 2] = scanned
    out[2 : 2 * m : 2] = _matmul(u[2 : 2 * m : 2], scanned[:-1])
    if n % 2:
        out[-1:] = _matmul(u[-1:], scanned[-1:])
    return out


# steps per scan block, scaled down with dimension to bound peak memory
_SCAN_BLOCK_ELEMENTS = 1 << 21


def propagate(
    schedule: HamiltonianSchedule,
    psi0,
    grid: TimeGrid,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> Trajectory | TrajectoryBlock:
    """Propagate psi0 over the grid: states[k+1] = exp(-i H(t_k + dt/2) dt / hbar) states[k].

    A 1-d psi0 gives one Trajectory. A block of initial states, shape
    (m, dim), gives a TrajectoryBlock with one Trajectory per row: the
    Hamiltonian samples, step unitaries and their prefix products are shared
    by all rows, and each row equals the single-state propagation of that
    row exactly. Global error is O(dt^2) against the exact flow; each step is
    exactly unitary, so the norm is preserved to round-off. Raises
    NonHermitianError naming the offending midpoint if the schedule is not
    Hermitian or not finite there.
    """
    psis = np.asarray(psi0, dtype=complex)
    if psis.ndim not in (1, 2) or psis.size == 0:
        raise DimensionMismatchError(
            f"initial state must be a vector or a non-empty (m, dim) block, got shape {psis.shape}"
        )
    rows = [hilbert.check_normalized(psi, tol=tol) for psi in np.atleast_2d(psis)]
    dim = rows[0].size
    if dim != schedule.dim:
        raise DimensionMismatchError(
            f"state dimension {dim} does not match schedule dimension {schedule.dim}"
        )
    mids = grid.midpoints()
    states = np.empty((len(rows), grid.steps + 1, dim), dtype=complex)
    states[:, 0] = rows
    block = max(16, _SCAN_BLOCK_ELEMENTS // (dim * dim))
    pos = 0
    while pos < grid.steps:
        take = min(block, grid.steps - pos)
        hams = schedule.sample(mids[pos : pos + take])
        hilbert._require_hermitian(hams, tol, times=mids[pos : pos + take])
        prefixes = _prefix_products(hilbert._step_unitaries(hams, grid.dt, hbar))
        for row in states:
            np.einsum("kij,j->ki", prefixes, row[pos], out=row[pos + 1 : pos + take + 1])
        pos += take
    trajs = [Trajectory(grid=grid, states=row) for row in states]
    return trajs[0] if psis.ndim == 1 else TrajectoryBlock(trajs)


def expand_in_frame(traj: Trajectory, frame) -> np.ndarray:
    """Coefficients b[k, n] = <v_n(t_k) | psi(t_k)> of the trajectory over a moving frame."""
    if frame.dim != traj.dim:
        raise DimensionMismatchError(
            f"frame dimension {frame.dim} does not match trajectory dimension {traj.dim}"
        )
    ts = traj.grid.nodes()
    coeffs = np.empty((ts.size, frame.count), dtype=complex)
    for n in range(frame.count):
        coeffs[:, n] = np.einsum("ki,ki->k", frame.value(n, ts).conj(), traj.states)
    return coeffs


def fidelity(a: Trajectory, b: Trajectory) -> float:
    """min over nodes of |<a_k|b_k>|^2; 1 means the rays coincide everywhere."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    overlaps = np.einsum("ki,ki->k", a.states.conj(), b.states)
    return float(np.min(np.abs(overlaps) ** 2))
