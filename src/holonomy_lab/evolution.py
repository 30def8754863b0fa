"""Norm-preserving propagation of the time-dependent Schroedinger equation.

The propagator is the exponential-midpoint rule: each step applies the
exponential of the Hamiltonian frozen at the step midpoint. Second order
accurate and unitary per step to round-off, which phase observables require:
below dim 8 the step exponential is a unitary from its eigendecomposition
(or closed form). From dim 8 up a step whose generator -i H dt / hbar has
Frobenius norm at most 1 is applied to the state by a Taylor series accurate
to 2^-53, and any other step by its unitary.

The grid is walked in sampled blocks of steps (see _sampled_blocks). At dim 2
the states come from a prefix scan of the step unitaries of a 65,536-step
scan block, filled by its four sampled blocks in turn, whose round-off grows
logarithmically in its steps; across scan blocks, and above dim 2 where steps
apply to the state in turn, round-off grows linearly. The states depend on
the scan block, not on the sampled block.
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
    "propagate",
    "expand_in_frame",
    "fidelity",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with `steps` intervals, steps in [1, 2^53]."""

    t_end: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "steps", hilbert._count("steps", self.steps, 1))
        object.__setattr__(self, "t_end", hilbert._real("t_end", self.t_end, positive=True))

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


def _require_schedule(schedule) -> None:
    """TypeError unless `schedule` is a HamiltonianSchedule, the one form in
    which propagate, the phases and frames.eff_hamiltonian_matrix take H."""
    if not isinstance(schedule, HamiltonianSchedule):
        raise TypeError(f"schedule must be a HamiltonianSchedule, got {type(schedule).__name__}")


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


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """out = a @ b over two equal-length stacks of 2x2 complex matrices.

    The four entries are formed elementwise, which avoids matmul's
    per-matrix overhead. A row's four products go into `work`, a (4, >= len)
    complex scratch buffer, before its two sums are written, so `out` may be
    `a` itself; it defaults to a new component-major stack
    (hilbert._empty_2x2).
    """
    count = a.shape[0]
    if out is None:
        out = hilbert._empty_2x2((count,))
    if work is None:
        work = np.empty((4, count), dtype=complex)
    p00, p10, p01, p11 = work[:, :count]
    for i in range(2):
        np.multiply(a[:, i, 0], b[:, 0, 0], out=p00)
        np.multiply(a[:, i, 1], b[:, 1, 0], out=p10)
        np.multiply(a[:, i, 0], b[:, 0, 1], out=p01)
        np.multiply(a[:, i, 1], b[:, 1, 1], out=p11)
        np.add(p00, p10, out=out[:, i, 0])
        np.add(p01, p11, out=out[:, i, 1])
    return out


def _prefix_products(u: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """p[k] = u[k] @ u[k-1] @ ... @ u[0], for a stack of 2x2 matrices,
    written over u in place; returns u.

    Work-efficient recursive scan (about 2n batched products) instead of a
    Python loop: the pair products u[2i+1] @ u[2i] are written over the odd
    entries, which are scanned in place, and every even entry from u[2] on
    then takes its product with the odd one before it. The balanced
    re-association keeps unitary round-off growth logarithmic in the step
    count, and the elementwise products (see _matmul) make the 2n products
    cheaper than n steps in turn. Every level shares one scratch buffer of
    2n entries.
    """
    n = u.shape[0]
    if n <= 1:
        return u
    if work is None:
        work = np.empty((4, n // 2), dtype=complex)
    odd = u[1::2]
    _matmul(odd, u[0 : n - 1 : 2], out=odd, work=work)
    _prefix_products(odd, work)
    _matmul(u[2::2], odd[: (n - 1) // 2], out=u[2::2], work=work)
    return u


# steps per scan block at dim 2 (a 4 MiB stack of unitaries): the block sets
# the association of the prefix scan, so the dim-2 states depend on it. It ran
# faster than 524,288 steps from 187k steps up (15-39% less median time over
# 187k to 2.1M)
_SCAN_BLOCK_STEPS = 1 << 16
# complex elements per stack of a sampled block above dim 2 (256 KiB), where
# the states do not depend on the block size: steps per block scale as
# 1 / dim^2. A block lives in about five such stacks at once (the callback's
# temporaries, the screen's H^H and difference, the series generators and
# their transpose), which at 1 MiB each overflowed a 2 MiB L2 cache and, past
# malloc's mmap threshold, were faulted in anew on every block: a dense-driven
# pass took 10,699 minor page faults with 1 MiB stacks and 545 with 256 KiB
# ones, and a dim-64 step's sampling 66 us against 22 us, its screen 19 us
# against 13 us and its series plan 29 us against 24 us
_STEP_BLOCK_ELEMENTS = 1 << 14
# from this dim up a step's exponential is applied to the state by its Taylor
# series (hilbert._step_series): from dim 8 it took less time than eigh on
# 1,024 and 10^5 steps, below dim 8 not always (README has the timings)
_SERIES_MIN_DIM = 8


def _block_steps(dim: int) -> int:
    """Grid points per sampled block at this dim: a quarter of the scan block
    at dim 2 (16,384), which fills its unitaries in turn; above dim 2,
    _STEP_BLOCK_ELEMENTS / dim^2, at least 1."""
    if dim == 2:
        # 4,096-step blocks made the 200-row sweep slower in 4 of 4 paired runs
        return _SCAN_BLOCK_STEPS // 4
    return max(1, _STEP_BLOCK_ELEMENTS // (dim * dim))


def _sampled_blocks(schedule: HamiltonianSchedule, times: np.ndarray, tol: Tolerances | None = None):
    """Yield (lo, block_times, hams): `times` cut into blocks of
    _block_steps(schedule.dim) points, in order, block_times being
    times[lo : lo + len(block_times)] and hams its samples; with `tol`, each
    block is screened by hilbert._require_hermitian before it is yielded.

    The walker drops a block before it samples the next; a caller deletes its
    own loop variables, and what it made of them, at the end of its loop
    body, so that no more than one block is held at once.
    """
    block = _block_steps(schedule.dim)
    for lo in range(0, len(times), block):
        block_times = times[lo : lo + block]
        hams = schedule.sample(block_times)
        if tol is not None:
            hilbert._require_hermitian(hams, tol, times=block_times)
        yield lo, block_times, hams
        del block_times, hams


def propagate(
    schedule: HamiltonianSchedule,
    psi0,
    grid: TimeGrid,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> Trajectory | tuple[Trajectory, ...]:
    """Propagate psi0 over the grid: states[k+1] = exp(-i H(t_k + dt/2) dt / hbar) states[k].

    A 1-d psi0 gives one Trajectory. A block of initial states, shape
    (m, dim), gives a tuple of one Trajectory per row, in row order: the
    Hamiltonian samples and step exponentials are shared by all rows, and
    each row equals the single-state propagation of that row exactly. Global
    error is O(dt^2) against the exact flow; each step is unitary to
    round-off, so the norm is preserved to round-off.

    The midpoints are sampled and screened block by block (see
    _sampled_blocks), each block then exponentiated. At dim 2 the step
    unitaries of a scan block of _SCAN_BLOCK_STEPS midpoints are written, one
    sampled block after another, into one buffer, prefix-scanned there, and the
    products applied to each row's scan-block start, so round-off grows
    logarithmically in the steps of a scan block and linearly across them.
    Above dim 2 each row applies the block's step plans one after another
    (hilbert._apply_step), so round-off grows linearly in the steps and the
    states do not depend on the block size. Below _SERIES_MIN_DIM the plans
    are the steps' unitaries from eigh, each one matrix-vector product. From
    there up a step whose generator A = -i H dt / hbar has ||A||_F <= 1 is
    the Taylor series of A applied to the state, at most 18 matrix-vector
    products, with the degree from that step's own norm; any other step
    takes its unitary from eigh (see hilbert._step_series).

    Raises ValueError before any sampling unless hbar passes README's numeric
    boundary (hbar > 0), TypeError unless `schedule` is a HamiltonianSchedule
    (after the initial state's checks), and NonHermitianError naming the
    offending midpoint if the schedule is not Hermitian or not finite there,
    or its step exponential overflows (see hilbert._step_unitaries). The
    sampled blocks are checked in grid order, each screened before its
    exponentials, so the error names a midpoint of the first block that fails.
    """
    hbar = hilbert._real("hbar", hbar, positive=True)
    psis = np.asarray(psi0, dtype=complex)
    if psis.ndim not in (1, 2) or psis.size == 0:
        raise DimensionMismatchError(
            f"initial state must be a vector or a non-empty (m, dim) block, got shape {psis.shape}"
        )
    rows = [hilbert._check_normalized(psi, tol=tol) for psi in np.atleast_2d(psis)]
    dim = rows[0].size
    _require_schedule(schedule)
    if dim != schedule.dim:
        raise DimensionMismatchError(
            f"state dimension {dim} does not match schedule dimension {schedule.dim}"
        )
    mids = grid.midpoints()
    states = np.empty((len(rows), grid.steps + 1, dim), dtype=complex)
    states[:, 0] = rows
    if dim == 2:
        for pos in range(0, grid.steps, _SCAN_BLOCK_STEPS):
            take = min(_SCAN_BLOCK_STEPS, grid.steps - pos)
            # the scan runs in the unitaries' buffer, which each sampled block fills
            prefixes = hilbert._empty_2x2((take,))
            for lo, times, hams in _sampled_blocks(schedule, mids[pos : pos + take], tol):
                hilbert._step_unitaries(hams, grid.dt, hbar, times, prefixes[lo : lo + len(times)], stack=take)
                del times, hams
            _prefix_products(prefixes)
            for row in states:
                np.einsum("kij,j->ki", prefixes, row[pos], out=row[pos + 1 : pos + take + 1])
    else:
        gens = work = None  # a unitary plan reads no series scratch
        if dim >= _SERIES_MIN_DIM:
            gens = np.empty((min(_block_steps(dim), grid.steps), dim, dim + 1), dtype=complex)
            work = hilbert._series_work(dim)
        for pos, times, hams in _sampled_blocks(schedule, mids, tol):
            if gens is None:
                plans, gen_rows = hilbert._step_unitaries(hams, grid.dt, hbar, times), [None] * len(times)
            else:
                plans, gen_rows = hilbert._step_series(hams, grid.dt, hbar, gens, times), gens
            for row in states:
                for k, (plan, gen) in enumerate(zip(plans, gen_rows)):
                    hilbert._apply_step(plan, gen, row[pos + k], row[pos + k + 1], work)
            # the last plan, a view of the block's unitary stack, would keep it alive
            del times, hams, plans, plan, gen
    trajs = tuple(Trajectory(grid=grid, states=row) for row in states)
    return trajs[0] if psis.ndim == 1 else trajs


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
