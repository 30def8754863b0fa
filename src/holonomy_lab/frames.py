"""Moving orthonormal frames, local gauge transformations, and holonomy.

A moving frame is a time-parametrized orthonormal set {v_n(t)}. The physics
lives in three derived objects:

* the connection A_n(t) = <v_n | i d/dt v_n>, a real angular velocity;
* the holonomy of a periodic frame, v_n(0)^H v_n(T) * exp(i Int_0^T A_n dt),
  a gauge-invariant complex number whose argument is the geometric phase;
* the effective Hamiltonian matrix over the frame,
  <v_n|H|v_m> - <v_n| i hbar d/dt |v_m>, whose diagonalization yields exact
  phases.

Multiplying v_n by a smooth phase e^{i alpha_n(t)} (a local gauge transform)
shifts the connection by -d(alpha_n)/dt and leaves the holonomy unchanged.
A gauge is a plain callable gauge(n, t) -> (alpha_n(t), d/dt alpha_n(t)).
Parallel transport is the gauge choice that zeroes the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NormalizationDriftError
from .evolution import HamiltonianSchedule, TimeGrid, _require_schedule
from .hilbert import _count, _real, _require_hermitian, _require_operator_dim, _shown, inner
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MovingFrame",
    "finite_difference_frame",
    "gauge_transform",
    "connection",
    "parallel_transport_fix",
    "holonomy",
    "adiabatic_berry_phase",
    "eff_hamiltonian_matrix",
    "orthonormality_defect",
    "random_periodic_gauge",
]


def _shaped(vectors, shape: tuple) -> np.ndarray:
    """The callback's complex array itself when it already has `shape`;
    anything else (a constant, a (dim,) vector at array t) converted and
    broadcast to it."""
    if type(vectors) is np.ndarray and vectors.dtype == complex and vectors.shape == shape:
        return vectors
    return np.broadcast_to(np.asarray(vectors, dtype=complex), shape)


@dataclass(frozen=True)
class MovingFrame:
    """Time-parametrized orthonormal set of `count` vectors in dimension `dim`.

    Vectors are sampled lazily through `fn(n, t)`, which takes a frame index
    n and a scalar or 1-d array of times t and returns the pair
    (v_n, d/dt v_n), each broadcasting to shape(t) + (dim,); no grid is baked
    in, so one frame serves many grids. `dim` and `count` are counts with
    1 <= count <= dim (DimensionMismatchError when out of order); `period`
    is the frame's period T, or None for an aperiodic frame. For a frame
    known by its values alone, see finite_difference_frame.

    Each frame object keeps its connection integrals over one period, one
    per (n, steps, tol), for adiabatic_berry_phase (and holonomy through it);
    so fn must be a function of (n, t) alone. A race between threads can
    only compute one integral twice. Nothing else is cached.
    """

    dim: int
    count: int
    fn: Callable[[int, np.ndarray], tuple]
    period: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        object.__setattr__(self, "count", _count("count", self.count, 1))
        if self.count > self.dim:
            raise DimensionMismatchError(f"need 1 <= count <= dim, got count={self.count}, dim={self.dim}")
        object.__setattr__(self, "period", _real("period", self.period, positive=True, optional=True))
        object.__setattr__(self, "_integrals", {})

    def _require_index(self, n) -> None:
        """IndexError unless n is a count in [0, count)."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n < self.count:
            raise IndexError(f"frame index {_shown(n)} out of range [0, {self.count})")

    def value_and_derivative(self, n: int, t) -> tuple[np.ndarray, np.ndarray]:
        """(v_n, d/dt v_n) at scalar or array t, each of shape shape(t) + (dim,),
        from one call of fn; IndexError unless n is a count in [0, count)."""
        self._require_index(n)
        t = np.asarray(t, dtype=float)
        shape = t.shape + (self.dim,)
        vec, deriv = self.fn(n, t)
        return _shaped(vec, shape), _shaped(deriv, shape)

    def value(self, n: int, t) -> np.ndarray:
        """v_n at scalar or array t, shape shape(t) + (dim,)."""
        return self.value_and_derivative(n, t)[0]


def finite_difference_frame(dim: int, count: int, value_fn: Callable[[int, np.ndarray], np.ndarray],
                            period: float | None = None, fd_step: float | None = None) -> MovingFrame:
    """MovingFrame from its values alone: value_fn(n, t) returns v_n, and the
    derivative is the symmetric difference (v_n(t + h) - v_n(t - h)) / (2 h)
    with h = fd_step (default 1e-6 times the period, or 1e-6 for an aperiodic
    frame). Each evaluation calls value_fn three times. `period` and
    `fd_step` are each None or coerced as MovingFrame's `period` is.
    """
    fd_step = _real("fd_step", fd_step, positive=True, optional=True)
    period = _real("period", period, positive=True, optional=True)
    h = fd_step if fd_step is not None else 1e-6 * (period or 1.0)

    def fn(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vec = value_fn(n, t)
        shape = t.shape + (dim,)
        return vec, (_shaped(value_fn(n, t + h), shape) - _shaped(value_fn(n, t - h), shape)) / (2.0 * h)

    return MovingFrame(dim, count, fn, period)


def _sum_modes(terms: np.ndarray) -> np.ndarray:
    """np.sum(terms, axis=-1) over a trailing axis of four modes, bit for bit:
    numpy adds them in order onto +0.0 (so four -0.0 sum to +0.0), and so do
    these adds, without the cost of a reduction over a short axis."""
    return 0.0 + terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def random_periodic_gauge(period: float, rng: np.random.Generator) -> Callable[[int, np.ndarray], tuple]:
    """Random smooth gauge(n, t) -> (alpha, d alpha/dt), periodic mod 2 pi: an
    offset uniform in [-pi, pi), four Fourier modes with coefficients uniform
    in [-1, 1), and an integer winding in [-2, 2], the same for every n.
    `period` must be positive and finite (ValueError otherwise, None too)."""
    period = _real("period", period, positive=True)
    a = rng.uniform(-1.0, 1.0, size=4)
    b = rng.uniform(-1.0, 1.0, size=4)
    a0 = rng.uniform(-np.pi, np.pi)
    winding = int(rng.integers(-2, 3))
    w = 2.0 * np.pi / period  # inf, not a numpy overflow, for a subnormal period
    kw = np.arange(1, a.size + 1) * w

    def gauge(n: int, t) -> tuple[np.ndarray, np.ndarray]:
        kwt = np.multiply.outer(t, kw)
        cos_kwt, sin_kwt = np.cos(kwt), np.sin(kwt)
        angle = a0 + winding * w * t + _sum_modes(a * cos_kwt + b * sin_kwt)
        rate = winding * w + _sum_modes(kw * (-a * sin_kwt + b * cos_kwt))
        return angle, rate

    return gauge


def gauge_transform(frame: MovingFrame, gauge: Callable[[int, np.ndarray], tuple]) -> MovingFrame:
    """Frame with v_n replaced by e^{i alpha_n(t)} v_n; orthonormality is preserved exactly.

    `gauge(n, t)` takes a frame index and a scalar or 1-d array t and returns
    the pair (alpha_n(t), d/dt alpha_n(t)), each broadcasting to shape(t).
    The derivative is the product rule e^{i alpha_n} (i d(alpha_n)/dt v_n + d/dt v_n),
    with d/dt v_n from the original frame. Each call evaluates one angle and
    rate, one phase and the original frame once.
    """

    def fn(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        alpha, rate = gauge(n, t)
        phase = np.exp(1j * np.asarray(alpha))[..., None]
        vec, deriv = frame.value_and_derivative(n, t)
        with np.errstate(invalid="ignore"):  # a non-finite frame is named by connection
            return phase * vec, phase * (1j * np.asarray(rate)[..., None] * vec + deriv)

    return MovingFrame(frame.dim, frame.count, fn, frame.period)


def connection(frame: MovingFrame, n: int, t, tol: Tolerances = DEFAULT):
    """Connection A_n(t) = Re <v_n | i d/dt v_n>, an angular velocity in rad/time.

    A scalar t gives a float, an array t an array of the same shape. For a
    norm-preserving frame the inner product is purely real; its imaginary
    part measures norm drift and is rejected above tolerance, naming the
    first offending time. A non-finite frame value or derivative is rejected
    the same way (NormalizationDriftError).
    """
    t = np.asarray(t, dtype=float)
    vec, deriv = frame.value_and_derivative(n, t)
    with np.errstate(invalid="ignore"):  # a non-finite frame is named below, by its time
        val = np.einsum("...i,...i->...", vec.conj(), 1j * deriv)
    rate, drift = val.real, val.imag
    ok = (np.abs(drift) <= tol.connection_drift * np.maximum(1.0, np.abs(rate))) & np.isfinite(rate)
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = int(bad[0])
        what = "norm drifts" if np.isfinite(val.flat[k]) else "is not finite"
        raise NormalizationDriftError(
            f"frame vector {n} {what} at t={float(t.flat[k])!r}: "
            f"Im<v|i dv/dt> = {float(drift.flat[k]):.3e}"
        )
    return float(rate) if t.ndim == 0 else rate


def _quadrature_nodes(grid: TimeGrid) -> np.ndarray:
    """grid.steps + 1 uniform nodes on [0, grid.t_end]."""
    return np.linspace(0.0, grid.t_end, grid.steps + 1)


def parallel_transport_fix(
    frame: MovingFrame,
    n: int,
    steps: int = 4096,
    t_end: float | None = None,
    tol: Tolerances = DEFAULT,
) -> MovingFrame:
    """Re-phase vector n so its connection vanishes: v -> exp(i Int_0^t A) v.

    The accumulated phase is tabulated by the composite trapezoid rule on a
    uniform grid over [0, t_end] (default: one period) and completed by a
    local trapezoid segment at off-node times. The returned frame's
    derivative uses the exact rate A(t), so its connection is zero to
    round-off everywhere, not just at the nodes. steps and t_end are checked
    as in adiabatic_berry_phase.
    """
    if t_end is None:
        t_end = frame.period
    if t_end is None:
        raise ValueError("parallel transport needs t_end for an aperiodic frame")
    ts = _quadrature_nodes(TimeGrid(t_end=t_end, steps=steps))
    rates = connection(frame, n, ts, tol=tol)
    dt = ts[1] - ts[0]
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * dt)])

    def gauge(m: int, t: np.ndarray):
        if m != n:
            return 0.0, 0.0
        rate = connection(frame, n, t, tol=tol)
        k = np.clip(np.floor(t / dt), 0, steps - 1).astype(int)
        return cumulative[k] + 0.5 * (t - ts[k]) * (rates[k] + rate), rate

    return gauge_transform(frame, gauge)


def adiabatic_berry_phase(frame: MovingFrame, n: int, steps: int = 2048,
                          tol: Tolerances = DEFAULT) -> float:
    """Connection integral of frame vector n over one period (trapezoid rule).

    Returned unreduced: windings carry physical content here. For smooth
    periodic frames the rule is spectrally accurate. Requires a periodic
    frame. Raises ValueError before sampling the frame unless steps is an
    integer >= 1 (not a bool), as TimeGrid requires. The frame keeps the
    result for its (n, steps, tol), checked first, and returns it on a
    repeated call without sampling; an integral that raises is not kept.
    """
    if frame.period is None:
        raise ValueError("the connection integral over one period requires a periodic frame")
    grid = TimeGrid(t_end=frame.period, steps=steps)
    frame._require_index(n)
    key = (int(n), grid.steps, tol)
    integral = frame._integrals.get(key)
    if integral is None:
        ts = _quadrature_nodes(grid)
        integral = float(np.trapezoid(connection(frame, n, ts, tol=tol), dx=ts[1] - ts[0]))
        frame._integrals[key] = integral
    return integral


def holonomy(frame: MovingFrame, n: int, steps: int = 4096, tol: Tolerances = DEFAULT) -> complex:
    """Gauge-invariant holonomy of vector n over one period.

    Returns v_n(0)^H v_n(T) * exp(i * adiabatic_berry_phase). The modulus
    never exceeds 1 (up to round-off). Requires a periodic frame; steps is
    checked as in adiabatic_berry_phase.
    """
    integral = adiabatic_berry_phase(frame, n, steps=steps, tol=tol)
    ends = frame.value(n, np.array([0.0, frame.period]))
    return inner(ends[0], ends[1]) * np.exp(1j * integral)


def eff_hamiltonian_matrix(
    frame: MovingFrame,
    schedule: HamiltonianSchedule,
    t: float,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Effective Hamiltonian over the frame: <v_n|H(t)|v_m> - <v_n| i hbar d/dt |v_m>,
    with H(t) = schedule.evaluate(t).

    Finite Hermitian input is required (NonHermitianError names t otherwise);
    the output is Hermitian whenever the frame is orthonormal and its
    derivatives are consistent. Raises ValueError unless t and hbar pass
    README's numeric boundary (hbar > 0), then TypeError unless `schedule` is
    a HamiltonianSchedule, each before evaluating H or the frame.
    """
    t = _real("t", t)
    hbar = _real("hbar", hbar, positive=True)
    _require_schedule(schedule)
    h_t = np.asarray(schedule.evaluate(t), dtype=complex)
    # the screen rejects a non-square or non-finite H, naming t
    _require_hermitian(h_t[None], tol, times=[t])
    _require_operator_dim(h_t.shape[0], frame.dim, tol)
    vecs = np.empty((frame.count, frame.dim), dtype=complex)
    derivs = np.empty_like(vecs)
    for n in range(frame.count):
        vecs[n], derivs[n] = frame.value_and_derivative(n, t)
    bras = vecs.conj()
    return bras @ h_t @ vecs.T - 1j * hbar * (bras @ derivs.T)


def orthonormality_defect(frame: MovingFrame, ts) -> float:
    """max over sampled times of max|V^H V - I| for the frame matrix V."""
    ts = np.asarray(ts, dtype=float)
    vecs = np.stack([frame.value(n, ts) for n in range(frame.count)], axis=-1)
    gram = vecs.conj().swapaxes(-1, -2) @ vecs
    return float(np.max(np.abs(gram - np.eye(frame.count)), initial=0.0))
