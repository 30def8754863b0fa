import dataclasses
import hashlib
import sys
import threading
import warnings

import numpy as np
import pytest

from holonomy_lab import spin_model
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError, NormalizationDriftError
from holonomy_lab.evolution import HamiltonianSchedule
from holonomy_lab.frames import (
    MovingFrame,
    _sum_modes,
    adiabatic_berry_phase,
    connection,
    eff_hamiltonian_matrix,
    finite_difference_frame,
    gauge_transform,
    holonomy,
    orthonormality_defect,
    parallel_transport_fix,
    random_periodic_gauge,
)
from holonomy_lab.phases import circular_distance
from holonomy_lab.tolerances import DEFAULT

PARAMS = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
DELTA = PARAMS.theta - spin_model.tilt_angle(PARAMS).alpha


def constant_gauge(c):
    return lambda n, t: (c, 0.0)


def linear_gauge(rate):
    return lambda n, t: (rate * t, rate)


def phase_winding_frame(rate, period=None):
    """Single fixed direction with winding phase: v(t) = e^{-i rate t} e_0."""
    u = np.array([1.0, 0.0], dtype=complex)
    return MovingFrame(
        dim=2,
        count=1,
        fn=lambda n, t: (np.exp(-1j * rate * t)[..., None] * u, -1j * rate * np.exp(-1j * rate * t)[..., None] * u),
        period=period,
    )


def constant_frame():
    vecs = np.eye(3, dtype=complex)
    return MovingFrame(dim=3, count=3, fn=lambda n, t: (vecs[n], 0.0), period=1.0)


def test_model_frame_orthonormal():
    frame = spin_model.tilted_frame(PARAMS)
    ts = np.linspace(0.0, PARAMS.period, 33)
    assert orthonormality_defect(frame, ts) <= 1e-10


def test_fd_derivative_consistent_at_second_order():
    frame = spin_model.tilted_frame(PARAMS)
    t = 0.37 * PARAMS.period
    exact = frame.value_and_derivative(0, t)[1]
    errs = []
    for h in (1e-3, 5e-4):
        fd = (frame.value(0, t + h) - frame.value(0, t - h)) / (2 * h)
        errs.append(np.linalg.norm(fd - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # halving h cuts the error ~4x


def test_connection_of_static_frame_is_zero():
    frame = constant_frame()
    assert connection(frame, 1, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_connection_of_winding_phase():
    lam = 1.7
    frame = phase_winding_frame(lam)
    assert connection(frame, 0, 0.9) == pytest.approx(lam, rel=1e-12)


def test_connection_of_model_frame_matches_closed_form():
    # derivative of the tilted basis vector gives (omega/2)(1 + cos(theta - alpha))
    frame = spin_model.tilted_frame(PARAMS)
    expected = 0.5 * PARAMS.omega * (1 + np.cos(DELTA))
    for t in (0.0, 0.2, 1.1):
        assert connection(frame, 0, t) == pytest.approx(expected, rel=1e-12)
    # cross-check against a finite-difference frame with no analytic callback
    fd_frame = finite_difference_frame(2, 2, frame.value, period=frame.period, fd_step=1e-5)
    assert connection(fd_frame, 0, 0.7) == pytest.approx(expected, rel=1e-8)


def test_connection_rejects_norm_drift():
    frame = MovingFrame(
        dim=2,
        count=1,
        fn=lambda n, t: ((1.0 + t) * np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)),
        period=1.0,
    )
    with pytest.raises(NormalizationDriftError):
        connection(frame, 0, 0.5)


def test_identity_gauge_leaves_frame_unchanged():
    frame = spin_model.tilted_frame(PARAMS)
    gauged = gauge_transform(frame, constant_gauge(0.0))
    t = 0.3
    assert np.allclose(gauged.value(0, t), frame.value(0, t), atol=1e-15)
    assert np.allclose(gauged.value_and_derivative(0, t)[1], frame.value_and_derivative(0, t)[1], atol=1e-15)


def test_constant_gauge_preserves_holonomy():
    frame = spin_model.tilted_frame(PARAMS)
    gauged = gauge_transform(frame, constant_gauge(0.83))
    assert holonomy(gauged, 0, steps=512) == pytest.approx(holonomy(frame, 0, steps=512), abs=1e-12)


def test_linear_gauge_shifts_connection_by_rate():
    frame = spin_model.tilted_frame(PARAMS)
    gauged = gauge_transform(frame, linear_gauge(PARAMS.omega))
    for t in (0.0, 0.4, 1.3):
        shift = connection(gauged, 0, t) - connection(frame, 0, t)
        assert shift == pytest.approx(-PARAMS.omega, rel=1e-12)
    # numerical cross-check: same shift from pure finite differences
    fd_frame = finite_difference_frame(2, 2, frame.value, period=frame.period, fd_step=1e-5)
    fd_gauged = gauge_transform(fd_frame, linear_gauge(PARAMS.omega))
    shift = connection(fd_gauged, 0, 0.4) - connection(fd_frame, 0, 0.4)
    assert shift == pytest.approx(-PARAMS.omega, rel=1e-8)


def test_gauge_transform_preserves_orthonormality():
    frame = spin_model.tilted_frame(PARAMS)
    rng = np.random.default_rng(7)
    gauged = gauge_transform(frame, random_periodic_gauge(PARAMS.period, rng))
    ts = np.linspace(0.0, PARAMS.period, 17)
    assert orthonormality_defect(gauged, ts) <= 1e-10


def test_parallel_transport_of_winding_phase_gives_constant_vector():
    lam = 2.3
    frame = phase_winding_frame(lam, period=2 * np.pi / lam)
    fixed = parallel_transport_fix(frame, 0, steps=256)
    u = np.array([1.0, 0.0])
    for t in np.linspace(0.0, frame.period, 9):
        assert np.allclose(fixed.value(0, t), u, atol=1e-10)


def test_parallel_transport_already_parallel_frame_unchanged():
    frame = constant_frame()
    fixed = parallel_transport_fix(frame, 0, steps=64, t_end=1.0)
    assert np.allclose(fixed.value(0, 0.7), frame.value(0, 0.7), atol=1e-12)


def test_parallel_transport_model_frame_endpoint_phase():
    # transported vector returns rotated by the geometric phase after a period
    frame = spin_model.tilted_frame(PARAMS)
    fixed = parallel_transport_fix(frame, 0, steps=2048)
    expected = np.exp(1j * np.pi * (1 + np.cos(DELTA))) * frame.value(0, 0.0)
    assert np.allclose(fixed.value(0, PARAMS.period), expected, atol=1e-9)


def test_parallel_transport_zeroes_connection():
    frame = spin_model.tilted_frame(PARAMS)
    fixed = parallel_transport_fix(frame, 0, steps=512)
    interior = np.linspace(0.0, PARAMS.period, 513)[1:-1]
    rates = connection(fixed, 0, interior)
    assert np.max(np.abs(rates)) <= 1e-8 * PARAMS.omega


def test_parallel_transport_needs_domain():
    frame = phase_winding_frame(1.0, period=None)
    with pytest.raises(ValueError):
        parallel_transport_fix(frame, 0)


def counting_frame(period):
    """phase_winding_frame(1.0, period) that records each sampling call."""
    frame = phase_winding_frame(1.0, period=period)
    calls = []

    def fn(n, t):
        calls.append(t)
        return frame.fn(n, t)

    return MovingFrame(dim=2, count=1, fn=fn, period=period), calls


@pytest.mark.parametrize(
    "steps, match",
    [(0, "steps must be an integer in"), (-3, "steps must be an integer in"),
     (2.5, "steps must be an integer"), (True, "steps must be an integer")],
)
def test_quadratures_refuse_bad_steps_before_sampling(steps, match):
    frame, calls = counting_frame(period=1.0)
    for quadrature in (holonomy, adiabatic_berry_phase, parallel_transport_fix):
        with pytest.raises(ValueError, match=match):
            quadrature(frame, 0, steps=steps)
    assert calls == []


@pytest.mark.parametrize("n", [True, False, 0.0, 1.0, np.float64(0.0), "0", None, -1, 1, np.int64(1),
                               pytest.param(10**5000, id="10**5000")])
def test_frame_index_that_is_not_a_count_below_count_is_index_error(n):
    frame, calls = counting_frame(period=1.0)
    for method in (frame.value, frame.value_and_derivative):
        with pytest.raises(IndexError, match=r"^frame index .* out of range \[0, 1\)$"):
            method(n, 0.5)
    assert calls == []
    for n in (0, np.int64(0), np.uint8(0)):
        assert frame.value(n, 0.5).shape == (2,)


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
def test_parallel_transport_refuses_bad_t_end_before_sampling(t_end):
    frame, calls = counting_frame(period=None)
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        parallel_transport_fix(frame, 0, steps=16, t_end=t_end)
    assert calls == []


def test_holonomy_of_constant_frame_is_one():
    assert holonomy(constant_frame(), 2, steps=64) == pytest.approx(1.0, abs=1e-13)


def test_holonomy_of_model_frame():
    frame = spin_model.tilted_frame(PARAMS)
    expected = np.exp(1j * np.pi * (1 + np.cos(DELTA)))
    hol = holonomy(frame, 0, steps=1024)
    assert abs(hol) <= 1 + 1e-10
    assert hol == pytest.approx(expected, abs=1e-12)


def test_holonomy_without_analytic_derivative():
    # finite differences (default fd_step) reproduce the closed form
    frame = spin_model.tilted_frame(PARAMS)
    fd_frame = finite_difference_frame(2, 2, frame.value, period=frame.period)
    expected = np.exp(1j * np.pi * (1 + np.cos(DELTA)))
    assert holonomy(fd_frame, 0, steps=1024) == pytest.approx(expected, abs=1e-5)


def test_holonomy_gauge_invariant(rng):
    frame = spin_model.tilted_frame(PARAMS)
    base = holonomy(frame, 0, steps=1024)
    for _ in range(10):
        gauged = gauge_transform(frame, random_periodic_gauge(PARAMS.period, rng))
        assert abs(holonomy(gauged, 0, steps=1024) - base) <= 1e-10


def test_holonomy_requires_period():
    with pytest.raises(ValueError):
        holonomy(phase_winding_frame(1.0, period=None), 0)


def test_heff_identity_frame_returns_raw_hamiltonian():
    vecs = np.eye(2, dtype=complex)
    identity = MovingFrame(dim=2, count=2, fn=lambda n, t: (vecs[n], 0.0), period=1.0)
    sched = spin_model.schedule(PARAMS)
    t = 0.42
    m = eff_hamiltonian_matrix(identity, sched, t)
    assert np.allclose(m, sched.evaluate(t), atol=1e-12)


def test_heff_static_eigenbasis_is_diagonal(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    evals, evecs = np.linalg.eigh(h)
    frame = MovingFrame(dim=4, count=4, fn=lambda n, t: (evecs[:, n], 0.0), period=1.0)
    m = eff_hamiltonian_matrix(frame, HamiltonianSchedule(lambda t: h, 4), 0.0)
    assert np.allclose(m, np.diag(evals), atol=1e-10)


def test_heff_model_frame_diagonal_values():
    frame = spin_model.tilted_frame(PARAMS)
    sched = spin_model.schedule(PARAMS)
    alpha = spin_model.tilt_angle(PARAMS).alpha
    mu_hb = PARAMS.magnetic_energy
    for t in (0.0, 0.5, 2.0):
        m = eff_hamiltonian_matrix(frame, sched, t, hbar=PARAMS.hbar)
        for i, branch in enumerate((+1, -1)):
            expected = (-branch * mu_hb * np.cos(alpha)
                        - 0.5 * PARAMS.hbar * PARAMS.omega * (1 + branch * np.cos(DELTA)))
            assert m[i, i].real == pytest.approx(expected, rel=1e-12)
        assert abs(m[0, 1]) <= 1e-12 * (mu_hb + PARAMS.hbar * PARAMS.omega)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-9 * np.max(np.abs(m))


def test_heff_rejects_non_hermitian_hamiltonian():
    frame = spin_model.tilted_frame(PARAMS)
    with pytest.raises(NonHermitianError):
        eff_hamiltonian_matrix(frame, HamiltonianSchedule(lambda t: np.array([[0, 1], [0, 0]], dtype=complex), 2),
                               0.0)
    for value in (np.nan, np.inf):
        with pytest.raises(NonHermitianError, match=r"not finite at t = 0\.25:"):
            eff_hamiltonian_matrix(frame, HamiltonianSchedule(lambda t: np.diag([value, 1.0]), 2), 0.25)


@pytest.mark.parametrize("h, match", [(np.eye(3), r"^expected dimension 2, got 3$"),
                                      (np.eye(65), r"^dimension 65 exceeds configured cap 64$"),
                                      (np.ones((2, 3)),
                                       r"^Hamiltonians must be square, got shape \(2, 3\)$")],
                         ids=["other-dim", "over-cap", "non-square"])
def test_heff_refuses_a_hamiltonian_of_the_wrong_size(h, match):
    with pytest.raises(DimensionMismatchError, match=match):
        eff_hamiltonian_matrix(spin_model.tilted_frame(PARAMS), HamiltonianSchedule(lambda t: h, h.shape[0]), 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, np.array([0.1, 0.2]), 1j], ids=["nan", "inf", "array", "complex"])
@pytest.mark.parametrize("kind", ["static", "callable", "schedule"])
def test_heff_refuses_a_time_that_is_not_a_real_finite_scalar(kind, t):
    # refused by expi_hermitian's rule for dt, before H or the frame is
    # evaluated, and before a static or callable H is refused as not a schedule
    calls = []
    h = spin_model.hamiltonian(PARAMS, 0.0)
    hamiltonian = {
        "static": h,
        "callable": counted(calls, "H", lambda t: h),
        "schedule": HamiltonianSchedule(evaluate=counted(calls, "H", lambda t: h), dim=2),
    }[kind]
    tilted = spin_model.tilted_frame(PARAMS)
    frame = MovingFrame(dim=2, count=2, fn=counted(calls, "frame", tilted.fn), period=PARAMS.period)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t must be a real finite scalar, got "):
            eff_hamiltonian_matrix(frame, hamiltonian, t)
    assert calls == []
    if kind == "schedule":
        assert eff_hamiltonian_matrix(frame, hamiltonian, 0.3).shape == (2, 2)


@pytest.mark.parametrize("form", ["ndarray", "callable", "None", "str"])
def test_heff_refuses_a_hamiltonian_that_is_not_a_schedule(form):
    # H is taken as a HamiltonianSchedule only: any other form is a TypeError
    # before H or the frame is evaluated
    calls = []
    h = spin_model.hamiltonian(PARAMS, 0.0)
    hamiltonian = {"ndarray": h, "callable": counted(calls, "H", lambda t: h), "None": None, "str": "H"}[form]
    tilted = spin_model.tilted_frame(PARAMS)
    frame = MovingFrame(dim=2, count=2, fn=counted(calls, "frame", tilted.fn), period=PARAMS.period)
    kind = {"ndarray": "ndarray", "callable": "function", "None": "NoneType", "str": "str"}[form]
    with pytest.raises(TypeError, match=f"^schedule must be a HamiltonianSchedule, got {kind}$"):
        eff_hamiltonian_matrix(frame, hamiltonian, 0.3)
    assert calls == []


def test_heff_gauge_covariance():
    # diagonal entries shift by hbar d(alpha)/dt, off-diagonal moduli untouched
    frame = spin_model.tilted_frame(PARAMS)
    sched = spin_model.schedule(PARAMS)
    w = 2 * np.pi / PARAMS.period

    def gauge(n, t):
        return (0.4 * np.sin(w * t), 0.4 * w * np.cos(w * t)) if n == 0 else (-0.2 * t, -0.2)

    gauged = gauge_transform(frame, gauge)
    for t in (0.1, 0.9, 2.7):
        m0 = eff_hamiltonian_matrix(frame, sched, t)
        m1 = eff_hamiltonian_matrix(gauged, sched, t)
        for n in range(2):
            assert (m1[n, n] - m0[n, n]).real == pytest.approx(gauge(n, t)[1], abs=1e-12)
        assert abs(m1[0, 1]) == pytest.approx(abs(m0[0, 1]), abs=1e-10)


def test_random_gauge_is_periodic_mod_two_pi(rng):
    period = 3.7
    for _ in range(8):
        gauge = random_periodic_gauge(period, rng)
        for n in range(2):
            jump = gauge(n, period)[0] - gauge(n, 0.0)[0]
            assert abs(jump - 2.0 * np.pi * round(jump / (2.0 * np.pi))) <= 1e-12


@pytest.mark.parametrize("field, value", [("fd_step", 0.0), ("fd_step", -1e-6), ("fd_step", np.nan),
                                          ("fd_step", np.inf), ("period", -1.0), ("period", 0.0),
                                          ("period", np.nan), ("period", np.inf)])
def test_frame_refuses_bad_fd_step_or_period(field, value):
    match = f"{field} must be None or positive and finite"
    with pytest.raises(ValueError, match=match):
        finite_difference_frame(2, 1, lambda n, t: np.array([1.0, 0.0]), **{field: value})
    if field == "period":
        with pytest.raises(ValueError, match=match):
            MovingFrame(dim=2, count=1, fn=lambda n, t: (np.array([1.0, 0.0]), 0.0), period=value)


@pytest.mark.parametrize("period", [-1.0, 0.0, np.nan, np.inf, None])
def test_random_gauge_refuses_bad_period(rng, period):
    with pytest.raises(ValueError, match=r"^period must be positive and finite, got "):
        random_periodic_gauge(period, rng)


def frame_bad_after_one(bad, where):
    """e_0 with zero derivative, but `bad` in the value or the derivative past t = 1."""

    def fill(good, is_bad):
        def fn(n, t):
            out = np.zeros(np.shape(t) + (2,), dtype=complex)
            out[..., 0] = np.where(np.asarray(t) > 1.0, bad, good) if is_bad else good
            return out
        return fn

    value, derivative = fill(1.0, where == "value"), fill(0.0, where == "derivative")
    return MovingFrame(dim=2, count=1, fn=lambda n, t: (value(n, t), derivative(n, t)), period=4.0)


@pytest.mark.parametrize("where", ["value", "derivative"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-infj"])
def test_connection_refuses_non_finite_frame(bad, where):
    frame = frame_bad_after_one(bad, where)
    assert np.all(connection(frame, 0, [0.0, 0.5, 1.0]) == 0.0)
    match = r"frame vector 0 is not finite at t=1\.5:"
    with pytest.raises(NormalizationDriftError, match=match):
        connection(frame, 0, [0.5, 1.5, 2.5])
    # on the 8-step grid of [0, 4] the first node past t = 1 is t = 1.5
    for quadrature in (adiabatic_berry_phase, holonomy):
        with pytest.raises(NormalizationDriftError, match=match):
            quadrature(frame, 0, steps=8)


@pytest.mark.parametrize("where", ["value", "derivative"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-infj"])
def test_gauged_non_finite_frame_is_named_without_a_warning(rng, bad, where):
    # the product rule meets inf * 0 and inf - inf past t = 1; connection names
    # the first bad time, and no RuntimeWarning comes first
    frame = gauge_transform(frame_bad_after_one(bad, where), random_periodic_gauge(4.0, rng))
    match = r"frame vector 0 is not finite at t=1\.5:"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(connection(frame, 0, [0.0, 0.5, 1.0])))
        with pytest.raises(NormalizationDriftError, match=match):
            connection(frame, 0, [0.5, 1.5, 2.5])
        for quadrature in (adiabatic_berry_phase, holonomy):
            with pytest.raises(NormalizationDriftError, match=match):
                quadrature(frame, 0, steps=8)


# --- beyond the analytic spin-1/2 frame ----------------------------------------


def fd_tilted_frame():
    frame = spin_model.tilted_frame(PARAMS)
    return finite_difference_frame(2, 2, frame.value, period=frame.period)


def test_gauged_fd_frame_holonomy_matches_closed_form(rng):
    # gauge and parallel transport of a frame with no analytic derivative
    fd_frame = fd_tilted_frame()
    exact = np.pi * (1 + np.cos(DELTA))
    fixed = parallel_transport_fix(fd_frame, 0, steps=2048)
    assert abs(holonomy(fixed, 0, steps=2048) - np.exp(1j * exact)) <= 1e-9
    for _ in range(8):
        gauged = gauge_transform(fd_frame, random_periodic_gauge(PARAMS.period, rng))
        assert abs(holonomy(gauged, 0, steps=2048) - np.exp(1j * exact)) <= 1e-9
        assert circular_distance(adiabatic_berry_phase(gauged, 0, steps=2048), exact) <= 1e-9


@pytest.mark.parametrize("period, fd_step", [(PARAMS.period, None), (None, None), (PARAMS.period, 1e-5)],
                         ids=["default-step", "aperiodic", "given-step"])
def test_finite_difference_frame_keeps_the_symmetric_difference_bits(period, fd_step):
    # the symmetric difference of a frame without a derivative callback: both
    # samples shaped as value shapes them, then subtracted and divided by 2h
    tilted = spin_model.tilted_frame(PARAMS)

    def value_fn(n, t):  # a real list at scalar t, as a user's callback may give
        vec = tilted.value(n, t)
        return vec.real.tolist() if vec.ndim == 1 else vec

    frame = finite_difference_frame(2, 2, value_fn, period=period, fd_step=fd_step)
    h = fd_step if fd_step is not None else 1e-6 * (period or 1.0)
    for t in (np.asarray(0.41), np.linspace(-0.2, 1.3 * PARAMS.period, 29)):
        for n in range(2):
            def shaped(s):
                return np.broadcast_to(np.asarray(value_fn(n, s), dtype=complex), t.shape + (2,))

            want = (shaped(t + h) - shaped(t - h)) / (2.0 * h)
            value, derivative = frame.value_and_derivative(n, t)
            assert bits(derivative) == bits(want)
            assert bits(value) == bits(shaped(t)) and bits(frame.value(n, t)) == bits(shaped(t))


def test_holonomy_of_a_gauged_fd_frame_samples_its_base_six_times(rng):
    # three value_fn calls (the value and two difference samples) for the
    # connection on the quadrature grid, and three for both endpoints at once
    calls = []
    base = spin_model.tilted_frame(PARAMS)
    fd_frame = finite_difference_frame(2, 2, counted(calls, "value", base.value), period=PARAMS.period)
    gauged = gauge_transform(fd_frame, random_periodic_gauge(PARAMS.period, rng))
    holonomy(gauged, 0, steps=64)
    assert calls == ["value"] * 6


def unitary_flow_frame(rng, dim, period=1.0):
    """Columns of V(t) = exp(-i K t) U0 for random Hermitian K and unitary U0,
    with the analytic derivative -i K V."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k_evals, w = np.linalg.eigh(a + a.conj().T)
    u0 = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    coeffs = w.conj().T @ u0  # column n of U0 in the eigenbasis of K

    def fn(n, t):
        phases = np.exp(-1j * np.multiply.outer(t, k_evals))
        return (phases * coeffs[:, n]) @ w.T, (-1j * k_evals * phases * coeffs[:, n]) @ w.T

    frame = MovingFrame(dim=dim, count=dim, fn=fn, period=period)
    return frame, (a + a.conj().T), u0


@pytest.mark.parametrize("dim", range(3, 9))
def test_unitary_flow_frame_holonomy_gauge_invariant(dim):
    rng = np.random.default_rng(100 + dim)
    frame, k, u0 = unitary_flow_frame(rng, dim)
    assert orthonormality_defect(frame, np.linspace(0.0, 1.0, 9)) <= 1e-12
    n = dim - 1
    # A_n = <v_n|K|v_n> is constant along the flow, so the Berry phase is T (U0^H K U0)_nn
    berry = adiabatic_berry_phase(frame, n, steps=256)
    assert berry == pytest.approx((u0.conj().T @ k @ u0)[n, n].real, rel=1e-12)
    base = holonomy(frame, n, steps=256)
    for _ in range(5):
        gauged = gauge_transform(frame, random_periodic_gauge(frame.period, rng))
        assert abs(holonomy(gauged, n, steps=256) - base) <= 1e-10
        assert circular_distance(adiabatic_berry_phase(gauged, n, steps=256), berry) <= 1e-10


@pytest.mark.parametrize("analytic", [True, False])
def test_array_calls_equal_stacked_scalar_calls(rng, analytic):
    frame = spin_model.tilted_frame(PARAMS) if analytic else fd_tilted_frame()
    gauged = gauge_transform(frame, random_periodic_gauge(PARAMS.period, rng))
    ts = np.linspace(-0.3, 1.7 * PARAMS.period, 23)

    def derivative(n, t):
        return gauged.value_and_derivative(n, t)[1]

    for n in range(2):
        for method in (gauged.value, derivative):
            stacked = np.stack([method(n, t) for t in ts])
            assert method(n, ts).shape == (ts.size, 2)
            assert np.allclose(method(n, ts), stacked, rtol=0, atol=1e-12)
        stacked = np.array([connection(gauged, n, t) for t in ts])
        assert np.allclose(connection(gauged, n, ts), stacked, rtol=0, atol=1e-12)


def test_connection_drift_names_first_bad_time():
    frame = MovingFrame(
        dim=2,
        count=1,
        fn=lambda n, t: (np.maximum(1.0, t)[..., None] * np.array([1.0, 0.0], dtype=complex),
                         (t > 1.0)[..., None] * np.array([1.0, 0.0], dtype=complex)),
        period=4.0,
    )
    assert np.all(connection(frame, 0, [0.0, 0.5]) == 0.0)
    with pytest.raises(NormalizationDriftError, match=r"t=1\.5:"):
        connection(frame, 0, [0.5, 1.5, 2.5])


# --- the joint value-and-derivative evaluation ---------------------------------


def eigenframe(params):
    """Instantaneous eigenframe of H(t): the tilted frame with alpha = 0."""
    def fn(n, t):
        return spin_model._basis_value_and_derivative(params.theta, 0.0, params.omega, (+1, -1)[n], t)
    return MovingFrame(2, 2, fn, params.period)


def joint_evaluation_frames():
    """(id, frame) for every kind of frame the package builds."""
    rng = np.random.default_rng(2024)
    tilted = spin_model.tilted_frame(PARAMS)
    gauged = gauge_transform(tilted, random_periodic_gauge(PARAMS.period, rng))
    frames = [("tilted", tilted), ("eigenframe", eigenframe(PARAMS))]
    frames += [(f"random-gauge-{k}", gauge_transform(tilted, random_periodic_gauge(PARAMS.period, rng)))
               for k in range(8)]
    frames += [
        ("constant-gauge", gauge_transform(tilted, constant_gauge(0.83))),
        ("linear-gauge", gauge_transform(tilted, linear_gauge(PARAMS.omega))),
        ("gauge-of-gauged", gauge_transform(gauged, random_periodic_gauge(PARAMS.period, rng))),
        ("transported", parallel_transport_fix(gauged, 0, steps=256)),
        ("finite-difference", fd_tilted_frame()),
        ("gauged-finite-difference", gauge_transform(fd_tilted_frame(), random_periodic_gauge(PARAMS.period, rng))),
    ]
    return frames


JOINT_EVALUATION_FRAMES = joint_evaluation_frames()


def bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("name, frame", JOINT_EVALUATION_FRAMES, ids=[n for n, _ in JOINT_EVALUATION_FRAMES])
def test_joint_evaluation_keeps_every_bit(name, frame):
    # value_and_derivative gives what separate value and derivative calls give
    reference = MovingFrame(dim=frame.dim, count=frame.count, period=frame.period,
                            fn=lambda n, t: (frame.value(n, t), frame.value_and_derivative(n, t)[1]))
    sched = spin_model.schedule(PARAMS)
    ts = np.linspace(0.0, 1.3 * PARAMS.period, 37)
    for n in range(frame.count):
        for got, want in zip(frame.value_and_derivative(n, ts), reference.value_and_derivative(n, ts)):
            assert bits(got) == bits(want)
        assert bits(connection(frame, n, ts)) == bits(connection(reference, n, ts))
        assert bits(connection(frame, n, 0.41)) == bits(connection(reference, n, 0.41))
        assert bits(adiabatic_berry_phase(frame, n, steps=64)) == bits(adiabatic_berry_phase(reference, n, steps=64))
        assert bits(holonomy(frame, n, steps=64)) == bits(holonomy(reference, n, steps=64))
    for t in (0.0, 0.7, 2.9):
        got = eff_hamiltonian_matrix(frame, sched, t, hbar=PARAMS.hbar)
        assert bits(got) == bits(eff_hamiltonian_matrix(reference, sched, t, hbar=PARAMS.hbar))


def separate_gauge_transform(frame, gauge):
    """gauge_transform with the value and the product rule written apart,
    each evaluating its own angle and phase: the reference for its one callback."""

    def phase(n, t):
        return np.exp(1j * np.asarray(gauge(n, t)[0]))[..., None]

    def fn(n, t):
        rate = np.asarray(gauge(n, t)[1])[..., None]
        return (phase(n, t) * frame.value(n, t),
                phase(n, t) * (1j * rate * frame.value(n, t) + frame.value_and_derivative(n, t)[1]))

    return MovingFrame(dim=frame.dim, count=frame.count, fn=fn, period=frame.period)


def spin_basis_derivative(n, t):
    """d/dt of the tilted basis vector n, written on its own."""
    half = 0.5 * DELTA
    phase = -1j * PARAMS.omega * np.exp(-1j * PARAMS.omega * np.asarray(t, dtype=float))
    amp = np.cos(half) if n == 0 else np.sin(half)
    return np.stack([amp * phase, np.zeros_like(phase)], axis=-1)


def test_joint_paths_equal_the_separate_formulas(rng):
    tilted = spin_model.tilted_frame(PARAMS)
    ts = np.linspace(0.0, 1.3 * PARAMS.period, 37)
    for n in range(2):
        for t in (ts, 0.41):
            assert bits(tilted.value_and_derivative(n, t)[1]) == bits(spin_basis_derivative(n, t))
    for base in (tilted, fd_tilted_frame()):
        for gauge in [random_periodic_gauge(PARAMS.period, rng) for _ in range(4)] + [linear_gauge(0.7)]:
            gauged = gauge_transform(base, gauge)
            reference = separate_gauge_transform(base, gauge)
            for n in range(2):
                for got, want in zip(gauged.value_and_derivative(n, ts), reference.value_and_derivative(n, ts)):
                    assert bits(got) == bits(want)


def counted(calls, name, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)
    return wrapper


def test_gauged_frame_evaluates_its_gauge_once_per_connection(rng, monkeypatch):
    calls = []
    # the gauge and the model frame as built, with each callback counted
    drawn = random_periodic_gauge(PARAMS.period, rng)
    gauge = counted(calls, "gauge", drawn)
    tilted = spin_model.tilted_frame(PARAMS)
    base = MovingFrame(dim=2, count=2, fn=counted(calls, "frame", tilted.fn), period=tilted.period)
    gauged = gauge_transform(base, gauge)
    for t in (0.3, np.linspace(0.0, PARAMS.period, 9)):
        calls.clear()
        connection(gauged, 0, t)
        assert calls == ["gauge", "frame"]
    calls.clear()
    eff_hamiltonian_matrix(gauged, spin_model.schedule(PARAMS), 0.3)
    assert calls == ["gauge", "frame"] * 2
    # every public call of a frame is one call of its callback: the gauged
    # frame's is one call of its gauge and one of its base frame
    for frame, one_call in ((gauged, ["gauge", "frame"]), (base, ["frame"])):
        for method in (frame.value, frame.value_and_derivative):
            calls.clear()
            method(0, 0.3)
            assert calls == one_call
    # the spin model's own frames call their basis fill once per call too
    fill = spin_model._basis_value_and_derivative
    monkeypatch.setattr(spin_model, "_basis_value_and_derivative", counted(calls, "fill", fill))
    model = spin_model.tilted_frame(PARAMS)
    for method in (model.value, model.value_and_derivative):
        calls.clear()
        method(1, 0.3)
        assert calls == ["fill"]


def test_replace_copy_of_a_package_frame_makes_one_call_per_evaluation(rng, monkeypatch):
    # dataclasses.replace copies the one callback, so a copy evaluates as the original does
    calls = []
    fill = spin_model._basis_value_and_derivative
    monkeypatch.setattr(spin_model, "_basis_value_and_derivative", counted(calls, "fill", fill))
    tilted = spin_model.tilted_frame(PARAMS)
    gauged = gauge_transform(tilted, random_periodic_gauge(PARAMS.period, rng))
    transported = parallel_transport_fix(tilted, 0, steps=64)
    for frame, fills in ((tilted, 1), (gauged, 1), (transported, 2)):
        copy = dataclasses.replace(frame)
        for method in (copy.value, copy.value_and_derivative):
            calls.clear()
            method(0, 0.3)
            assert calls == ["fill"] * fills
        assert bits(copy.value_and_derivative(0, 0.3)) == bits(frame.value_and_derivative(0, 0.3))


def test_transported_frame_evaluates_the_base_connection_once():
    calls = []
    base = phase_winding_frame(2.3, period=2 * np.pi / 2.3)
    counting = MovingFrame(dim=2, count=1, fn=counted(calls, "frame", base.fn), period=base.period)
    fixed = parallel_transport_fix(counting, 0, steps=64)
    calls.clear()
    connection(fixed, 0, 0.4)
    # one call for the base connection inside the gauge, one for the product rule
    assert calls == ["frame", "frame"]


# --- callback shapes, the mode sum and the benchmark's frames outputs ----------


E0 = np.array([1.0, 0.0], dtype=complex)


@pytest.mark.parametrize("value, derivative", [
    (lambda n, t: E0, lambda n, t: 0.0),
    (lambda n, t: [1.0, 0.0], lambda n, t: np.zeros(2)),
    (lambda n, t: np.exp(-1j * np.asarray(t))[..., None] * E0, lambda n, t: 0),
], ids=["vector-and-scalar", "list-and-real-vector", "array-and-int"])
@pytest.mark.parametrize("copied", [False, True])
def test_frame_calls_keep_their_shapes(value, derivative, copied):
    # constants and (dim,) vectors broadcast to shape(t) + (dim,) at scalar and
    # array t, in a frame and in its dataclasses.replace copy
    frame = MovingFrame(dim=2, count=1, fn=lambda n, t: (value(n, t), derivative(n, t)), period=1.0)
    if copied:
        frame = dataclasses.replace(frame)
    for t in (0.3, np.linspace(0.0, 1.0, 5), np.array([0.5])):
        shape = np.shape(t) + (2,)
        got = [frame.value(0, t), *frame.value_and_derivative(0, t)]
        for x in got:
            assert x.shape == shape and x.dtype == complex
        assert bits(got[0]) == bits(got[1])
        assert bits(got[0]) == bits(np.broadcast_to(np.asarray(value(0, np.asarray(t)), dtype=complex), shape))
        assert not np.any(got[2])


def test_frame_returns_a_callback_array_of_its_shape_as_it_is():
    own = {}

    def fn(n, t):
        own["value"] = np.exp(-1j * t)[..., None] * E0
        return own["value"], np.zeros(2)

    frame = MovingFrame(dim=2, count=1, fn=fn, period=1.0)
    for t in (0.3, np.linspace(0.0, 1.0, 5)):
        assert frame.value(0, t) is own["value"]
    # a real array of the right shape is converted, not returned
    real = MovingFrame(dim=2, count=1, fn=lambda n, t: (own.setdefault("real", np.ones(2)), 0.0), period=1.0)
    assert real.value(0, 0.3) is not own["real"] and real.value(0, 0.3).dtype == complex


def mode_terms(rng, lead):
    """Mode terms of shape lead + (4,) over twenty decades, with signed zeros."""
    terms = rng.standard_normal(lead + (4,)) * 10.0 ** rng.integers(-10, 11, lead + (4,))
    terms[rng.random(terms.shape) < 0.2] = 0.0
    terms[rng.random(terms.shape) < 0.2] = -0.0
    return terms


@pytest.mark.parametrize("lead", [(), (1,), (7,), (2049,)])
def test_mode_sum_equals_numpy_sum(rng, lead):
    cases = [mode_terms(rng, lead) for _ in range(200 if lead == () else 5)]
    cases += [np.full(lead + (4,), -0.0), np.full(lead + (4,), 0.0)]
    if lead:
        with_row = mode_terms(rng, lead)
        with_row[-1] = -0.0
        cases.append(with_row)
    for terms in cases:
        got, want = _sum_modes(terms), np.sum(terms, axis=-1)
        assert np.shape(got) == np.shape(want) and bits(got) == bits(want)
    # four -0.0 sum to +0.0, as in numpy
    assert not np.signbit(_sum_modes(np.full(4, -0.0)))


def numpy_sum_gauge(period, rng):
    """random_periodic_gauge's angle and rate with the modes summed by np.sum."""
    a, b = rng.uniform(-1.0, 1.0, size=4), rng.uniform(-1.0, 1.0, size=4)
    a0, winding = rng.uniform(-np.pi, np.pi), int(rng.integers(-2, 3))
    w = 2.0 * np.pi / period
    kw = np.arange(1, 5) * w

    def joint(n, t):
        kwt = np.multiply.outer(t, kw)
        cos_kwt, sin_kwt = np.cos(kwt), np.sin(kwt)
        return (a0 + winding * w * t + np.sum(a * cos_kwt + b * sin_kwt, axis=-1),
                winding * w + np.sum(kw * (-a * sin_kwt + b * cos_kwt), axis=-1))

    return joint


def test_random_gauge_sums_its_modes_as_numpy_does():
    ts = np.concatenate([np.linspace(-1.0, 2.0 * PARAMS.period, 2049), [0.0, -0.0]])
    for seed in range(8):
        gauge = random_periodic_gauge(PARAMS.period, np.random.default_rng(seed))
        reference = numpy_sum_gauge(PARAMS.period, np.random.default_rng(seed))
        for t in (ts, np.asarray(0.0), np.asarray(-0.0), np.asarray(1.3)):
            want = reference(0, t)
            assert bits(gauge(0, t)) == bits(want)


def test_frames_outputs_of_the_benchmark_are_pinned():
    # SHA-256 over the float bytes of the seed-0 gauge-holonomy benchmark
    # workload's frames outputs: holonomy and Berry phase of 8 random gauges,
    # the transported holonomy and 64 effective Hamiltonians. Like the sweep
    # digests, it depends on numpy's floating-point build
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(params)
    rng = np.random.default_rng(0)
    gauges = [random_periodic_gauge(params.period, rng) for _ in range(8)]
    digest = hashlib.sha256()
    for gauge in gauges:
        gauged = gauge_transform(frame, gauge)
        digest.update(np.complex128(holonomy(gauged, 0, steps=2048)).tobytes())
        digest.update(np.float64(adiabatic_berry_phase(gauged, 0, steps=2048)).tobytes())
    transported = parallel_transport_fix(frame, 0, steps=2048)
    digest.update(np.complex128(holonomy(transported, 0, steps=2048)).tobytes())
    sched = spin_model.schedule(params)
    for t in np.linspace(0.0, params.period, 64, endpoint=False):
        digest.update(eff_hamiltonian_matrix(frame, sched, t, hbar=params.hbar).tobytes())
    assert digest.hexdigest() == "87407fd55014734fd71c1b5c09a0fca52534e4638c5f8ca478e6845966ef7048"


# --- each frame object keeps its connection integrals ---------------------------


def recording_tilted_frame(params=PARAMS, gauge_seed=7):
    """A gauged tilted frame of two vectors whose callback records (n, number of times)."""
    gauged = gauge_transform(spin_model.tilted_frame(params),
                             random_periodic_gauge(params.period, np.random.default_rng(gauge_seed)))
    calls = []

    def fn(n, t):
        calls.append((int(n), np.size(t)))
        return gauged.fn(n, t)

    return MovingFrame(dim=2, count=2, fn=fn, period=params.period), calls


def test_holonomy_then_berry_phase_sample_the_grid_once():
    frame, calls = recording_tilted_frame()
    fresh, _ = recording_tilted_frame()
    hol = holonomy(frame, 0, steps=64)
    assert calls == [(0, 65), (0, 2)]
    berry = adiabatic_berry_phase(frame, 0, steps=64)
    assert calls == [(0, 65), (0, 2)]
    assert bits(berry) == bits(adiabatic_berry_phase(fresh, 0, steps=64))
    assert bits(holonomy(frame, 0, steps=64)) == bits(hol)
    assert calls == [(0, 65), (0, 2), (0, 2)]


def test_a_new_index_steps_or_tol_computes_a_new_integral():
    frame, calls = recording_tilted_frame()
    lenient = DEFAULT.replace(connection_drift=1e-8)
    keys = [(0, 64, DEFAULT), (1, 64, DEFAULT), (0, 32, DEFAULT), (0, 64, lenient)]
    for n, steps, tol in keys:
        fresh, _ = recording_tilted_frame()
        want = adiabatic_berry_phase(fresh, n, steps=steps, tol=tol)
        assert bits(adiabatic_berry_phase(frame, n, steps=steps, tol=tol)) == bits(want)
    assert calls == [(0, 65), (1, 65), (0, 33), (0, 65)]
    # the same keys, named by equal values of other types, sample nothing
    for n, steps, tol in [(np.int64(0), np.uint16(64), DEFAULT.replace()), (np.uint8(1), 64, DEFAULT),
                          (0, np.int32(32), DEFAULT), (0, 64, DEFAULT.replace(connection_drift=1e-8))]:
        adiabatic_berry_phase(frame, n, steps=steps, tol=tol)
    assert len(calls) == 4


def drifting_frame(rate):
    """e_0 scaled by 1 + rate * t: Im<v|i dv/dt> = rate * (1 + rate * t)."""
    return MovingFrame(dim=2, count=1, period=1.0, fn=lambda n, t: (
        np.multiply.outer((1.0 + rate * t) * np.exp(-1j * t), [1.0, 0.0]),
        np.multiply.outer((rate - 1j * (1.0 + rate * t)) * np.exp(-1j * t), [1.0, 0.0])))


def test_a_stricter_tol_after_a_lenient_one_still_raises():
    frame = drifting_frame(1e-7)
    lenient = DEFAULT.replace(connection_drift=1e-6)
    assert np.isfinite(adiabatic_berry_phase(frame, 0, steps=64, tol=lenient))
    assert np.isfinite(holonomy(frame, 0, steps=64, tol=lenient))
    for quadrature in (adiabatic_berry_phase, holonomy):
        with pytest.raises(NormalizationDriftError, match="frame vector 0 norm drifts at t=0.0:"):
            quadrature(frame, 0, steps=64)


@pytest.mark.parametrize("n, steps, error", [
    (True, 64, IndexError), (np.float64(1.0), 64, IndexError), (2, 64, IndexError),
    (1, 64.0, ValueError), (1, True, ValueError), (1, np.float64(1.0), ValueError),
], ids=["index-True", "index-float", "index-2", "steps-float", "steps-True", "steps-np-float"])
def test_a_kept_integral_does_not_let_a_refused_input_through(n, steps, error):
    # True and 1.0 hash like 1, which is a kept index, and 64.0 like 64
    frame, calls = recording_tilted_frame()
    for quadrature in (adiabatic_berry_phase, holonomy):
        quadrature(frame, 1, steps=64)
        quadrature(frame, 1, steps=1)
    del calls[:]
    for quadrature in (adiabatic_berry_phase, holonomy):
        with pytest.raises(error):
            quadrature(frame, n, steps=steps)
    with pytest.raises(ValueError, match="requires a periodic frame"):
        adiabatic_berry_phase(dataclasses.replace(frame, period=None), 1, steps=64)
    assert calls == []


def test_an_integral_that_raises_is_not_kept():
    frame, calls = recording_tilted_frame()
    fresh, _ = recording_tilted_frame()
    failures = [RuntimeError("the first call fails")]

    def flaky(n, t):
        if failures:
            raise failures.pop()
        return frame.fn(n, t)

    flaky_frame = MovingFrame(dim=2, count=2, fn=flaky, period=frame.period)
    with pytest.raises(RuntimeError, match="the first call fails"):
        adiabatic_berry_phase(flaky_frame, 0, steps=64)
    assert bits(adiabatic_berry_phase(flaky_frame, 0, steps=64)) == bits(adiabatic_berry_phase(fresh, 0, steps=64))
    assert calls == [(0, 65)]
    # a drift refused once is refused again: nothing was kept in its place
    drifting = drifting_frame(1e-7)
    for _ in range(2):
        with pytest.raises(NormalizationDriftError):
            holonomy(drifting, 0, steps=64)


def test_a_replaced_frame_keeps_its_own_integrals():
    frame, calls = recording_tilted_frame()
    berry = adiabatic_berry_phase(frame, 0, steps=64)
    copy = dataclasses.replace(frame)
    assert bits(adiabatic_berry_phase(copy, 0, steps=64)) == bits(berry)
    assert calls == [(0, 65), (0, 65)]
    adiabatic_berry_phase(frame, 0, steps=64)
    adiabatic_berry_phase(copy, 0, steps=64)
    assert len(calls) == 2
    # a copy with another period integrates over its own period
    longer = dataclasses.replace(frame, period=2.0 * frame.period)
    fresh, _ = recording_tilted_frame()
    want = adiabatic_berry_phase(dataclasses.replace(fresh, period=2.0 * frame.period), 0, steps=64)
    assert bits(adiabatic_berry_phase(longer, 0, steps=64)) == bits(want)
    assert len(calls) == 3


def test_threads_sharing_one_frame_get_the_one_thread_results():
    keys = [(n, steps) for n in (0, 1) for steps in (16, 32, 64, 128)]
    reference, _ = recording_tilted_frame()
    want = {key: (bits(holonomy(reference, *key)), bits(adiabatic_berry_phase(reference, *key))) for key in keys}
    frame, _ = recording_tilted_frame()
    got, errors = [], []

    def work(order):
        try:
            for _ in range(3):
                for key in order:
                    got.append((key, bits(adiabatic_berry_phase(frame, *key)), bits(holonomy(frame, *key))))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    orders = [keys, keys[::-1], keys[1::2] + keys[::2], keys[::2] + keys[1::2]]
    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 3 * len(keys) * len(threads)
    for key, berry, hol in got:
        assert (hol, berry) == want[key]
