"""Spin-1/2 in a rotating magnetic field: the exactly solvable benchmark.

H(t) = -mu hbar B (sin(theta) cos(wt), sin(theta) sin(wt), cos(theta)) . sigma

The model is solved in closed form by tilting the instantaneous eigenbasis by
a constant angle alpha, fixed by

    tan(alpha) = eta sin(theta) / (1 + eta cos(theta)),   eta = omega / (2 mu B),

equivalently 2 mu hbar B sin(alpha) = hbar omega sin(theta - alpha). In the
tilted basis the moving-frame effective Hamiltonian is diagonal and constant,
so the exact states are the tilted basis vectors times a phase linear in t.
The cyclic geometric phase of the +/- branch over one period is
pi (1 +/- cos(theta - alpha)): it interpolates smoothly between the adiabatic
value pi (1 +/- cos(theta)) as eta -> 0 and the trivial value 0 mod 2 pi as
eta -> infinity. Everything else in the library is validated against this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .evolution import HamiltonianSchedule, TimeGrid, Trajectory
from .frames import MovingFrame
from .hilbert import _finite_real

__all__ = [
    "ModelParams",
    "tilt_angle",
    "tilt_identity_residual",
    "hamiltonian",
    "schedule",
    "tilted_frame",
    "exact_solution",
    "exact_trajectory",
    "geometric_phase_exact",
    "berry_limit_phase",
    "midpoint_phase_error_estimate",
    "steps_for_phase_tolerance",
]


@dataclass(frozen=True)
class ModelParams:
    """Rotating-field parameters. theta in [0, pi]; mu, B, omega and hbar
    positive and finite, and omega large enough for a finite period."""

    mu: float
    b_field: float
    omega: float
    theta: float
    hbar: float = 1.0

    def __post_init__(self):
        if not all(_finite_real(p) and p > 0 for p in (self.mu, self.b_field, self.omega, self.hbar)):
            raise ValueError(
                f"mu, b_field, omega, hbar must be positive and finite, got "
                f"mu={self.mu}, b_field={self.b_field}, omega={self.omega}, hbar={self.hbar}"
            )
        if not (_finite_real(self.theta) and 0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if 2.0 * np.pi / float(self.omega) == np.inf:
            raise ValueError(f"omega = {self.omega} gives a period 2 pi / omega past the float range")

    @classmethod
    def from_eta(
        cls,
        theta: float,
        eta: float,
        mu: float = 1.0,
        b_field: float = 1.0,
        hbar: float = 1.0,
    ) -> "ModelParams":
        """Parameters with the adiabaticity ratio eta = omega / (2 mu B) given directly."""
        return cls(mu=mu, b_field=b_field, omega=2.0 * mu * b_field * eta, theta=theta, hbar=hbar)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def eta(self) -> float:
        return self.omega / (2.0 * self.mu * self.b_field)

    @property
    def magnetic_energy(self) -> float:
        return self.mu * self.hbar * self.b_field


@dataclass(frozen=True)
class _TiltAngle:
    """Tilt alpha in [0, pi); `denominator_negative` flags the regime where
    2 mu B + omega cos(theta) < 0 (theta > pi/2 at large omega), where the
    branch is fixed by the two-argument arctangent rather than by tan alone."""

    alpha: float
    denominator_negative: bool


def tilt_angle(params: ModelParams) -> _TiltAngle:
    """Tilt angle from atan2(omega sin(theta), 2 mu B + omega cos(theta)).

    This branch is continuous in omega, with alpha -> 0 as omega -> 0 and
    alpha -> theta as omega -> infinity.
    """
    num = params.omega * np.sin(params.theta)
    den = 2.0 * params.mu * params.b_field + params.omega * np.cos(params.theta)
    return _TiltAngle(alpha=float(np.arctan2(num, den)), denominator_negative=bool(den < 0.0))


def tilt_identity_residual(params: ModelParams) -> float:
    """|2 mu hbar B sin(alpha) - hbar omega sin(theta - alpha)|, the defining identity."""
    a = tilt_angle(params).alpha
    lhs = 2.0 * params.mu * params.hbar * params.b_field * np.sin(a)
    rhs = params.hbar * params.omega * np.sin(params.theta - a)
    return float(abs(lhs - rhs))


def hamiltonian(params: ModelParams, t) -> np.ndarray:
    """-mu hbar B n(t).sigma with n(t) on the cone of polar angle theta.

    A scalar t gives one (2, 2) matrix, an array of times a stack of shape
    shape(t) + (2, 2).
    """
    st, ct = np.sin(params.theta), np.cos(params.theta)
    phi = params.omega * np.asarray(t, dtype=float)
    scale = -params.mu * params.hbar * params.b_field
    out = np.empty(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = scale * ct
    out[..., 1, 1] = -scale * ct
    lower = scale * st * np.exp(1j * phi)
    out[..., 1, 0] = lower
    out[..., 0, 1] = lower.conj()
    return out


def schedule(params: ModelParams) -> HamiltonianSchedule:
    h = partial(hamiltonian, params)
    return HamiltonianSchedule(evaluate=h, evaluate_many=h, dim=2)


def _basis_value_and_derivative(theta: float, alpha: float, omega: float, branch: int, t):
    """(w, d/dt w) for the tilted basis column w of branch +1/-1 at time(s) t,
    from one exp(-i omega t); the frames and exact_solution both read it.

    Each is written into one (..., 2) array; the constant lower entry and its
    zero derivative are written as they are, which is what lower * 1 and 0
    give in complex arithmetic."""
    half = 0.5 * (theta - alpha)
    phase = np.exp(-1j * omega * np.asarray(t, dtype=float))
    if branch == +1:
        amp, lower = np.cos(half), np.sin(half)
    elif branch == -1:
        amp, lower = np.sin(half), -np.cos(half)
    else:
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    vec = np.empty(np.shape(phase) + (2,), dtype=complex)
    deriv = np.empty_like(vec)
    vec[..., 0] = amp * phase
    vec[..., 1] = lower
    deriv[..., 0] = amp * (-1j * omega * phase)
    deriv[..., 1] = 0.0
    return vec, deriv


def tilted_frame(params: ModelParams) -> MovingFrame:
    """Periodic frame (index 0: branch +, index 1: branch -) that diagonalizes
    the moving-frame effective Hamiltonian; analytic derivative supplied."""
    alpha = tilt_angle(params).alpha
    branches = (+1, -1)

    def fn(n, t):
        return _basis_value_and_derivative(params.theta, alpha, params.omega, branches[n], t)

    return MovingFrame(2, 2, fn, params.period)


def _energy_expectation(params: ModelParams, branch: int) -> float:
    """<w_branch | H | w_branch> = -branch * mu hbar B cos(alpha), constant in t."""
    a = tilt_angle(params).alpha
    return -branch * params.magnetic_energy * float(np.cos(a))


def _connection_rate(params: ModelParams, branch: int) -> float:
    """<w_branch | i d/dt w_branch> = (omega/2)(1 + branch cos(theta - alpha)), constant."""
    a = tilt_angle(params).alpha
    return 0.5 * params.omega * (1.0 + branch * float(np.cos(params.theta - a)))


def exact_solution(params: ModelParams, branch: int, t) -> np.ndarray:
    """Closed-form solution psi_branch(t) of i hbar d/dt psi = H(t) psi.

    psi(t) = w(t) * exp(-i/hbar * (E - hbar A) * t) with constant energy
    expectation E and connection rate A of the tilted basis vector w.
    Accepts scalar or array t.
    """
    a = tilt_angle(params).alpha
    rate = -_energy_expectation(params, branch) / params.hbar + _connection_rate(params, branch)
    w = _basis_value_and_derivative(params.theta, a, params.omega, branch, t)[0]
    phase = np.exp(1j * rate * np.asarray(t, dtype=float))
    return w * phase[..., None] if np.ndim(t) else w * phase


def exact_trajectory(params: ModelParams, branch: int, grid: TimeGrid) -> Trajectory:
    ts = grid.nodes()
    return Trajectory(grid=grid, states=exact_solution(params, branch, ts))


def geometric_phase_exact(params: ModelParams, branch: int, n_periods: int = 1) -> float:
    """n_periods * pi (1 + branch cos(theta - alpha)), reduced mod 2 pi.

    The phase accrues at a constant rate, so n periods carry n times the
    one-period phase.
    """
    a = tilt_angle(params).alpha
    return float((n_periods * np.pi * (1.0 + branch * np.cos(params.theta - a))) % (2.0 * np.pi))


def berry_limit_phase(theta: float, branch: int) -> float:
    """Adiabatic-limit value pi (1 + branch cos(theta)), reduced mod 2 pi."""
    return float((np.pi * (1.0 + branch * np.cos(theta))) % (2.0 * np.pi))


# The exponential-midpoint propagator picks up a secular phase error from the
# leading Magnus remainder. For this model the error per period evaluates to
# mu B omega^2 |sin(theta) sin(theta - alpha)| T dt^2 / 24; measured phase
# deviations track that estimate to within a factor ~3, which is folded in.
_SECULAR_ERROR_CALIBRATION = 3.0


def midpoint_phase_error_estimate(params: ModelParams, steps: int, n_periods: int = 1) -> float:
    """Calibrated estimate of the propagated geometric-phase error at `steps`;
    inf where dt^2 is past the float range (tiny eta), unless the geometric
    factor makes it 0."""
    a = tilt_angle(params).alpha
    total_t = n_periods * params.period
    dt = total_t / steps
    mu_b = params.mu * params.b_field
    geometry = abs(np.sin(params.theta) * np.sin(params.theta - a))
    lead = mu_b * params.omega**2 * geometry
    try:
        return _SECULAR_ERROR_CALIBRATION * lead * total_t * dt**2 / 24.0
    except OverflowError:
        return np.inf if geometry else 0.0


# Fewest and most steps of a propagation grid, for the sweep's step
# refinement and for configured runs alike.
_MIN_STEPS = 16
_MAX_STEPS = 1 << 21


def steps_for_phase_tolerance(params: ModelParams, phase_tol: float, n_periods: int = 1) -> int:
    """Smallest even step count in [_MIN_STEPS, _MAX_STEPS] whose estimated
    phase error stays below phase_tol."""
    if phase_tol <= 0:
        raise ValueError(f"phase_tol must be positive, got {phase_tol}")
    coeff = midpoint_phase_error_estimate(params, steps=1, n_periods=n_periods)
    needed = int(min(np.ceil(np.sqrt(coeff / phase_tol)), _MAX_STEPS)) if coeff > 0 else _MIN_STEPS
    needed += needed % 2
    return int(np.clip(needed, _MIN_STEPS, _MAX_STEPS))
