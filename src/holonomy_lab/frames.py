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
Parallel transport is the gauge choice that zeroes the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NormalizationDriftError
from .evolution import TimeGrid
from .hilbert import _finite_real, _is_integer, _require_hermitian, _require_operator_dim, inner
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MovingFrame",
    "GaugeFunction",
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
    in, so one frame serves many grids. `dim` and `count` are integers with
    1 <= count <= dim (DimensionMismatchError when out of order, ValueError
    when not integers). `period` is the frame's period T, or None for
    aperiodic frames; it must be None or positive and finite (ValueError
    otherwise). For a frame known by its values alone, see
    finite_difference_frame.
    """

    dim: int
    count: int
    fn: Callable[[int, np.ndarray], tuple]
    period: float | None = None

    def __post_init__(self):
        if not (_is_integer(self.dim) and _is_integer(self.count)):
            raise ValueError(f"dim and count must be integers, got dim={self.dim!r}, count={self.count!r}")
        if not (1 <= self.count <= self.dim):
            raise DimensionMismatchError(
                f"need 1 <= count <= dim, got count={self.count}, dim={self.dim}"
            )
        _require_positive_or_none("period", self.period)

    def value_and_derivative(self, n: int, t) -> tuple[np.ndarray, np.ndarray]:
        """(v_n, d/dt v_n) at scalar or array t, each of shape shape(t) + (dim,),
        from one call of fn."""
        if not (0 <= n < self.count):
            raise IndexError(f"frame index {n} out of range [0, {self.count})")
        t = np.asarray(t, dtype=float)
        shape = t.shape + (self.dim,)
        vec, deriv = self.fn(n, t)
        return _shaped(vec, shape), _shaped(deriv, shape)

    def value(self, n: int, t) -> np.ndarray:
        """v_n at scalar or array t, shape shape(t) + (dim,)."""
        return self.value_and_derivative(n, t)[0]

    def derivative(self, n: int, t) -> np.ndarray:
        """d/dt v_n at scalar or array t, shape shape(t) + (dim,)."""
        return self.value_and_derivative(n, t)[1]


def _require_positive_or_none(name: str, value) -> None:
    if value is not None and not (_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be None or positive and finite, got {value!r}")


def finite_difference_frame(dim: int, count: int, value_fn: Callable[[int, np.ndarray], np.ndarray],
                            period: float | None = None, fd_step: float | None = None) -> MovingFrame:
    """MovingFrame from its values alone: value_fn(n, t) returns v_n, and the
    derivative is the symmetric difference (v_n(t + h) - v_n(t - h)) / (2 h)
    with h = fd_step (default 1e-6 times the period, or 1e-6 for an aperiodic
    frame). Each evaluation calls value_fn three times. `period` and
    `fd_step` must each be None or positive and finite (ValueError otherwise).
    """
    _require_positive_or_none("fd_step", fd_step)
    _require_positive_or_none("period", period)
    h = fd_step if fd_step is not None else 1e-6 * (period or 1.0)

    def fn(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vec = value_fn(n, t)
        shape = t.shape + (dim,)
        return vec, (_shaped(value_fn(n, t + h), shape) - _shaped(value_fn(n, t - h), shape)) / (2.0 * h)

    return MovingFrame(dim, count, fn, period)


@dataclass(frozen=True)
class GaugeFunction:
    """Smooth per-index phase angles and their rate: fn(n, t) returns the pair
    (alpha_n(t), d/dt alpha_n(t)) for a scalar or 1-d array t, each
    broadcasting to shape(t)."""

    fn: Callable[[int, np.ndarray], tuple]


def _sum_modes(terms: np.ndarray) -> np.ndarray:
    """np.sum(terms, axis=-1) over a trailing axis of four modes, bit for bit:
    numpy adds them in order onto +0.0 (so four -0.0 sum to +0.0), and so do
    these adds, without the cost of a reduction over a short axis."""
    return 0.0 + terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def random_periodic_gauge(period: float, rng: np.random.Generator) -> GaugeFunction:
    """Random smooth gauge, periodic mod 2 pi: an offset uniform in [-pi, pi),
    four Fourier modes with coefficients uniform in [-1, 1), and an integer
    winding in [-2, 2]. A period that is not positive and finite raises ValueError."""
    if period is None:
        raise ValueError("a random periodic gauge needs a period, got None")
    _require_positive_or_none("period", period)
    a = rng.uniform(-1.0, 1.0, size=4)
    b = rng.uniform(-1.0, 1.0, size=4)
    a0 = rng.uniform(-np.pi, np.pi)
    winding = int(rng.integers(-2, 3))
    w = 2.0 * np.pi / float(period)  # inf, not a numpy overflow, for a subnormal period
    kw = np.arange(1, a.size + 1) * w

    def fn(n: int, t) -> tuple[np.ndarray, np.ndarray]:
        kwt = np.multiply.outer(t, kw)
        cos_kwt, sin_kwt = np.cos(kwt), np.sin(kwt)
        angle = a0 + winding * w * t + _sum_modes(a * cos_kwt + b * sin_kwt)
        rate = winding * w + _sum_modes(kw * (-a * sin_kwt + b * cos_kwt))
        return angle, rate

    return GaugeFunction(fn)


def gauge_transform(frame: MovingFrame, gauge: GaugeFunction) -> MovingFrame:
    """Frame with v_n replaced by e^{i alpha_n(t)} v_n; orthonormality is preserved exactly.

    The derivative is the product rule e^{i alpha_n} (i d(alpha_n)/dt v_n + d/dt v_n),
    with d/dt v_n from the original frame. Each call evaluates one angle and
    rate, one phase and the original frame once.
    """

    def fn(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        alpha, rate = gauge.fn(n, t)
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


def _quadrature_nodes(t_end: float, steps: int) -> np.ndarray:
    """steps + 1 uniform nodes on [0, t_end]. Raises ValueError, by TimeGrid's
    rule, unless steps is an integer >= 1 and t_end positive and finite."""
    TimeGrid(t_end=t_end, steps=steps)
    return np.linspace(0.0, t_end, steps + 1)


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
    ts = _quadrature_nodes(t_end, steps)
    rates = connection(frame, n, ts, tol=tol)
    dt = ts[1] - ts[0]
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * dt)])

    def fn(m: int, t: np.ndarray):
        if m != n:
            return 0.0, 0.0
        rate = connection(frame, n, t, tol=tol)
        k = np.clip(np.floor(t / dt), 0, steps - 1).astype(int)
        return cumulative[k] + 0.5 * (t - ts[k]) * (rates[k] + rate), rate

    return gauge_transform(frame, GaugeFunction(fn))


def adiabatic_berry_phase(frame: MovingFrame, n: int, steps: int = 2048,
                          tol: Tolerances = DEFAULT) -> float:
    """Connection integral of frame vector n over one period (trapezoid rule).

    Returned unreduced: windings carry physical content here. For smooth
    periodic frames the rule is spectrally accurate. Requires a periodic
    frame. Raises ValueError before sampling the frame unless steps is an
    integer >= 1 (not a bool), as TimeGrid requires.
    """
    if frame.period is None:
        raise ValueError("the connection integral over one period requires a periodic frame")
    ts = _quadrature_nodes(frame.period, steps)
    return float(np.trapezoid(connection(frame, n, ts, tol=tol), dx=ts[1] - ts[0]))


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
    hamiltonian,
    t: float,
    hbar: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Effective Hamiltonian over the frame: <v_n|H(t)|v_m> - <v_n| i hbar d/dt |v_m>.

    `hamiltonian` may be a schedule object (anything with .evaluate), a
    callable t -> matrix, or a static matrix. Finite Hermitian input is
    required (NonHermitianError names t otherwise); the output is Hermitian
    whenever the frame is orthonormal and its derivatives are consistent.
    Raises ValueError, before evaluating H or the frame, unless t is a real
    finite scalar.
    """
    if not _finite_real(t):
        raise ValueError(f"t must be a real finite scalar, got {t!r}")
    if hasattr(hamiltonian, "evaluate"):
        h_t = hamiltonian.evaluate(t)
    elif callable(hamiltonian):
        h_t = hamiltonian(t)
    else:
        h_t = hamiltonian
    h_t = np.asarray(h_t, dtype=complex)
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
