import numpy as np
import pytest

from holonomy_lab import spin_model
from holonomy_lab.evolution import TimeGrid, fidelity, propagate
from holonomy_lab.phases import circular_distance
from holonomy_lab.spin_model import ModelParams
from holonomy_lab.tolerances import DEFAULT

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mu=1, b_field=-1, omega=1, theta=0.5)
    with pytest.raises(ValueError):
        ModelParams(mu=1, b_field=1, omega=0, theta=0.5)
    with pytest.raises(ValueError):
        ModelParams(mu=1, b_field=1, omega=1, theta=4.0)


def test_from_eta_roundtrip():
    p = ModelParams.from_eta(theta=1.0, eta=0.25, mu=2.0, b_field=3.0)
    assert p.eta == pytest.approx(0.25)
    assert p.omega == pytest.approx(2 * 2.0 * 3.0 * 0.25)
    assert p.period == pytest.approx(2 * np.pi / p.omega)


def test_hamiltonian_polar_axis():
    p = ModelParams(mu=1.2, b_field=0.7, omega=1.0, theta=0.0)
    for t in (0.0, 0.3):
        assert np.allclose(spin_model.hamiltonian(p, t), -1.2 * 0.7 * _SIGMA_Z, atol=1e-15)


def test_hamiltonian_equator_at_t_zero():
    p = ModelParams(mu=1.0, b_field=1.0, omega=1.0, theta=np.pi / 2)
    assert np.allclose(spin_model.hamiltonian(p, 0.0), -_SIGMA_X, atol=1e-15)


def test_hamiltonian_trace_det_and_batch():
    p = ModelParams.from_eta(theta=2 * np.pi / 3, eta=0.7, mu=1.1, b_field=0.9)
    scale = p.mu * p.hbar * p.b_field
    ts = np.linspace(0.0, p.period, 7)
    batch = spin_model.schedule(p).sample(ts)
    assert np.array_equal(batch, spin_model.hamiltonian(p, ts))  # array t: one stacked call
    # one exponential serves both off-diagonal entries: the upper is the exact
    # conjugate of the lower, and both equal the two-exponential form
    assert np.array_equal(batch[:, 0, 1], batch[:, 1, 0].conj())
    amplitude = -p.mu * p.hbar * p.b_field * np.sin(p.theta)
    assert np.array_equal(batch[:, 1, 0], amplitude * np.exp(1j * p.omega * ts))
    assert np.array_equal(batch[:, 0, 1], amplitude * np.exp(-1j * p.omega * ts))
    for t, h in zip(ts, batch):
        assert np.array_equal(h, spin_model.hamiltonian(p, t))
        assert np.trace(h) == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.det(h) == pytest.approx(-(scale**2), rel=1e-12)
        evals = np.linalg.eigvalsh(h)
        assert np.allclose(evals, [-scale, scale], atol=1e-12)


def test_tilt_angle_polar_axis_is_zero():
    p = ModelParams.from_eta(theta=0.0, eta=3.0)
    assert spin_model.tilt_angle(p).alpha == 0.0


def test_tilt_angle_equator_eta_one():
    # tan(alpha) = 1 here, evaluated by hand
    p = ModelParams.from_eta(theta=np.pi / 2, eta=1.0)
    assert spin_model.tilt_angle(p).alpha == pytest.approx(np.pi / 4, rel=1e-14)


def test_tilt_angle_adiabatic_first_order():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1e-3)
    expected = 1e-3 * np.sin(np.pi / 3)
    assert spin_model.tilt_angle(p).alpha == pytest.approx(expected, rel=2e-3)


def test_tilt_angle_limits_and_branch():
    theta = np.pi / 3
    assert spin_model.tilt_angle(ModelParams.from_eta(theta=theta, eta=1e-9)).alpha == pytest.approx(0.0, abs=1e-8)
    assert spin_model.tilt_angle(ModelParams.from_eta(theta=theta, eta=1e9)).alpha == pytest.approx(theta, abs=1e-8)
    etas = np.logspace(-6, 6, 200)
    alphas = [spin_model.tilt_angle(ModelParams.from_eta(theta=theta, eta=e)).alpha for e in etas]
    assert all(0.0 <= a < np.pi for a in alphas)
    assert np.all(np.diff(alphas) > 0)  # continuous monotone branch


def test_tilt_denominator_flag_past_equator():
    # theta > pi/2 at large eta flips the denominator sign
    p = ModelParams.from_eta(theta=2 * np.pi / 3, eta=50.0)
    tilt = spin_model.tilt_angle(p)
    assert tilt.denominator_negative
    assert np.pi / 2 < tilt.alpha < np.pi
    assert not spin_model.tilt_angle(ModelParams.from_eta(theta=np.pi / 3, eta=50.0)).denominator_negative


def test_tilt_identity_across_regimes():
    for eta in np.logspace(-6, 6, 50):
        p = ModelParams.from_eta(theta=np.pi / 3, eta=eta)
        scale = max(2 * p.mu * p.hbar * p.b_field, p.hbar * p.omega)
        assert spin_model.tilt_identity_residual(p) <= 1e-12 * scale


def test_frame_expectations_match_closed_forms():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1.0, mu=1.3, b_field=0.8)
    alpha = spin_model.tilt_angle(p).alpha
    frame = spin_model.tilted_frame(p)
    for t in (0.0, 0.4 * p.period):
        h = spin_model.hamiltonian(p, t)
        for n, branch in ((0, +1), (1, -1)):
            v = frame.value(n, t)
            dv = frame.value_and_derivative(n, t)[1]
            energy = np.vdot(v, h @ v).real
            conn = np.vdot(v, 1j * p.hbar * dv).real
            assert energy == pytest.approx(-branch * p.magnetic_energy * np.cos(alpha), rel=1e-12)
            assert conn == pytest.approx(
                0.5 * p.hbar * p.omega * (1 + branch * np.cos(p.theta - alpha)), rel=1e-12
            )
            assert energy == pytest.approx(spin_model._energy_expectation(p, branch), rel=1e-12)
            assert conn / p.hbar == pytest.approx(spin_model._connection_rate(p, branch), rel=1e-12)


def test_frame_periodicity():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(p)
    for n in range(2):
        assert np.allclose(frame.value(n, 0.0), frame.value(n, p.period), atol=1e-12)


def test_fully_tilted_basis_structure():
    # alpha -> theta: upper component carries the whole rotation
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1e9)
    frame = spin_model.tilted_frame(p)
    t = 0.3 * p.period
    w_plus = frame.value(0, t)
    w_minus = frame.value(1, t)
    assert w_plus[0] == pytest.approx(np.exp(-1j * p.omega * t), abs=1e-8)
    assert abs(w_plus[1]) <= 1e-8
    assert abs(w_minus[0]) <= 1e-8
    assert w_minus[1] == pytest.approx(-1.0, abs=1e-8)


def test_exact_solution_starts_on_frame_vector():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=0.6)
    frame = spin_model.tilted_frame(p)
    for branch, n in ((+1, 0), (-1, 1)):
        assert np.allclose(spin_model.exact_solution(p, branch, 0.0), frame.value(n, 0.0), atol=1e-15)


@pytest.mark.parametrize("theta,eta", [(np.pi / 3, 1.0), (np.pi / 2, 1e-2), (2 * np.pi / 3, 10.0)])
@pytest.mark.parametrize("branch", [+1, -1])
def test_exact_solution_satisfies_schrodinger_equation(theta, eta, branch):
    # independent residual check by symmetric finite differences; the step
    # follows the fastest timescale (the state rotates at ~mu B even when the
    # field period is long)
    p = ModelParams.from_eta(theta=theta, eta=eta)
    h_step = 1e-6 * min(p.period, 1.0 / (p.mu * p.b_field))
    for t in (0.13 * p.period, 0.71 * p.period):
        lhs = (
            1j
            * p.hbar
            * (spin_model.exact_solution(p, branch, t + h_step) - spin_model.exact_solution(p, branch, t - h_step))
            / (2 * h_step)
        )
        rhs = spin_model.hamiltonian(p, t) @ spin_model.exact_solution(p, branch, t)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def stacked_basis_vector(theta, alpha, omega, branch, t):
    """The tilted basis column built as a stack of its two entries, the
    constant lower one times ones_like(phase): the reference for the fill."""
    half = 0.5 * (theta - alpha)
    phase = np.exp(-1j * omega * np.asarray(t, dtype=float))
    if branch == +1:
        upper, lower = np.cos(half) * phase, np.sin(half) * np.ones_like(phase)
    else:
        upper, lower = np.sin(half) * phase, -np.cos(half) * np.ones_like(phase)
    return np.stack([upper, lower], axis=-1)


def stacked_exact_solution(p, branch, t):
    a = spin_model.tilt_angle(p).alpha
    rate = -spin_model._energy_expectation(p, branch) / p.hbar + spin_model._connection_rate(p, branch)
    w = stacked_basis_vector(p.theta, a, p.omega, branch, t)
    phase = np.exp(1j * rate * np.asarray(t, dtype=float))
    return w * phase[..., None] if np.ndim(t) else w * phase


@pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2, np.pi])
def test_exact_solution_keeps_the_bits_of_the_stacked_basis_vector(theta):
    for eta in np.logspace(-6, 6):
        p = ModelParams.from_eta(theta=theta, eta=eta)
        nodes = np.linspace(0.0, 1.3 * p.period, 12)
        for t in (0.37 * p.period, nodes, nodes.reshape(3, 4)):
            for branch in (+1, -1):
                got = spin_model.exact_solution(p, branch, t)
                want = stacked_exact_solution(p, branch, t)
                assert got.shape == want.shape == np.shape(t) + (2,)
                assert got.tobytes() == want.tobytes()


def test_exact_solution_period_endpoint_phase():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    alpha = spin_model.tilt_angle(p).alpha
    for branch in (+1, -1):
        theta_total = branch * np.cos(alpha) * p.period + np.pi * (1 + branch * np.cos(p.theta - alpha))
        expected = np.exp(1j * theta_total) * spin_model.exact_solution(p, branch, 0.0)
        assert np.allclose(spin_model.exact_solution(p, branch, p.period), expected, atol=1e-12)


def test_geometric_phase_exact_limits():
    theta = np.pi / 3
    # adiabatic limit: alpha -> 0 gives pi (1 + cos(theta)) = 3 pi / 2
    adiabatic = spin_model.geometric_phase_exact(ModelParams.from_eta(theta=theta, eta=1e-8), +1)
    assert adiabatic == pytest.approx(3 * np.pi / 2, abs=1e-7)
    # fast limit: alpha -> theta gives 2 pi, i.e. trivial
    fast = spin_model.geometric_phase_exact(ModelParams.from_eta(theta=theta, eta=1e8), +1)
    assert circular_distance(fast, 0.0) <= 1e-7


def test_geometric_phase_exact_hand_value():
    # theta = pi/2, eta = 1: alpha = pi/4, so the phase is pi (1 + cos(pi/4))
    p = ModelParams.from_eta(theta=np.pi / 2, eta=1.0)
    assert spin_model.geometric_phase_exact(p, +1) == pytest.approx(np.pi * (1 + np.cos(np.pi / 4)), rel=1e-14)
    assert spin_model.geometric_phase_exact(p, +1) == pytest.approx(5.363034122668976, abs=1e-12)


def test_geometric_phase_exact_multiple_periods():
    # the phase accrues at a constant rate: n periods carry n times the one-period phase
    p = ModelParams.from_eta(theta=np.pi / 3, eta=0.5)
    for branch in (+1, -1):
        one = spin_model.geometric_phase_exact(p, branch)
        for n in (2, 3):
            assert circular_distance(spin_model.geometric_phase_exact(p, branch, n), n * one) <= 1e-12


def test_geometric_phase_exact_continuity():
    etas = np.logspace(-3, 3, 200)
    values = [
        spin_model.geometric_phase_exact(ModelParams.from_eta(theta=np.pi / 3, eta=e), +1) for e in etas
    ]
    assert np.max(np.abs(np.diff(values))) <= 0.1
    assert np.all(np.diff(values) > 0)


def test_propagation_reproduces_exact_phase_at_sample_points():
    # oracle identity at a couple of parameter points (the full grid runs in acceptance)
    from holonomy_lab.phases import cyclic_geometric_phase

    for theta, eta in ((np.pi / 3, 1.0), (np.pi / 2, 10.0)):
        p = ModelParams.from_eta(theta=theta, eta=eta)
        grid = TimeGrid(t_end=p.period, steps=4096)
        sched = spin_model.schedule(p)
        for branch in (+1, -1):
            traj = propagate(sched, spin_model.exact_solution(p, branch, 0.0), grid)
            report = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=np.inf))
            assert circular_distance(report.geometric, spin_model.geometric_phase_exact(p, branch)) <= 1e-6
            assert fidelity(traj, spin_model.exact_trajectory(p, branch, grid)) >= 1 - 1e-8


def test_step_heuristic_tracks_measured_error():
    # the calibrated estimate bounds the measured deviation without huge slack
    from holonomy_lab.phases import cyclic_geometric_phase

    p = ModelParams.from_eta(theta=np.pi / 3, eta=1e-2)
    for steps in (2048, 8192):
        grid = TimeGrid(t_end=p.period, steps=steps)
        sched = spin_model.schedule(p)
        traj = propagate(sched, spin_model.exact_solution(p, +1, 0.0), grid)
        report = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=np.inf))
        measured = circular_distance(report.geometric, spin_model.geometric_phase_exact(p, +1))
        estimate = spin_model.midpoint_phase_error_estimate(p, steps)
        assert measured <= estimate
        assert measured >= estimate / 30.0


def test_steps_for_phase_tolerance_inverts_estimate():
    p = ModelParams.from_eta(theta=np.pi / 3, eta=1e-3)
    steps = spin_model.steps_for_phase_tolerance(p, 1e-6)
    assert steps % 2 == 0
    assert spin_model.midpoint_phase_error_estimate(p, steps) <= 1e-6
    assert spin_model.midpoint_phase_error_estimate(p, steps - 64) > 1e-6  # tight, not padded


@pytest.mark.parametrize("eta", [1e-200, 1e-300])
def test_estimate_saturates_where_dt_squared_overflows(eta):
    # dt^2 is past the float range at any step count: the estimate is inf, not
    # an OverflowError, and the step count is the cap, as at eta = 1e-150
    p = ModelParams.from_eta(theta=np.pi / 3, eta=eta)
    for steps in (1, spin_model._MAX_STEPS):
        assert spin_model.midpoint_phase_error_estimate(p, steps) == np.inf
    for eta_used in (eta, 1e-150):
        p = ModelParams.from_eta(theta=np.pi / 3, eta=eta_used)
        assert spin_model.steps_for_phase_tolerance(p, 1e-6) == spin_model._MAX_STEPS
        # on the polar axis the estimate is 0 and the step count the floor
        p = ModelParams.from_eta(theta=0.0, eta=eta_used)
        assert spin_model.midpoint_phase_error_estimate(p, 1) == 0.0
        assert spin_model.steps_for_phase_tolerance(p, 1e-6) == spin_model._MIN_STEPS


@pytest.mark.parametrize("mu", [1e150, 1e160])
@pytest.mark.parametrize("eta", [1e-3, 1.0])
def test_estimate_where_omega_squared_overflows_is_that_of_the_unit_field(eta, mu):
    # mu B omega^2 is past the float range at mu B = 1e150 and omega^2 itself
    # at 1e160, while omega dt = 2 pi / steps is not; the estimate, a pure
    # number, is the one at mu B = 1
    big = ModelParams.from_eta(theta=np.pi / 3, eta=eta, mu=mu)
    unit = ModelParams.from_eta(theta=np.pi / 3, eta=eta)
    for steps in (1, 4096):
        got = spin_model.midpoint_phase_error_estimate(big, steps)
        assert got == pytest.approx(spin_model.midpoint_phase_error_estimate(unit, steps), rel=1e-12)
    assert spin_model.steps_for_phase_tolerance(big, 1e-6) == spin_model.steps_for_phase_tolerance(unit, 1e-6)


PARAMS = ModelParams.from_eta(theta=1.0, eta=1.0)


@pytest.mark.parametrize("steps", [0, -1, 2.5, True, 2**53 + 1])
def test_error_estimate_refuses_a_step_count_that_is_not_a_count(steps):
    with pytest.raises(ValueError, match=r"^steps must be an integer in \[1, "):
        spin_model.midpoint_phase_error_estimate(PARAMS, steps)


@pytest.mark.parametrize("n_periods", [0.5, 2.5, 0, -1, True])
def test_period_count_that_is_not_a_count_is_refused(n_periods):
    calls = [
        lambda: spin_model.geometric_phase_exact(PARAMS, 1, n_periods),
        lambda: spin_model.midpoint_phase_error_estimate(PARAMS, 16, n_periods),
        lambda: spin_model.steps_for_phase_tolerance(PARAMS, 1e-6, n_periods),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^n_periods must be an integer in \[1, "):
            call()


@pytest.mark.parametrize("phase_tol", [np.nan, np.inf, 0.0, -1e-6, 1j, "1e-6", None, 10**400])
def test_step_count_refuses_a_phase_tolerance_that_is_not_positive_and_finite(phase_tol):
    with pytest.raises(ValueError, match="^phase_tol must be positive and finite, got "):
        spin_model.steps_for_phase_tolerance(PARAMS, phase_tol)


@pytest.mark.parametrize("name, value", [("eta", -1.0), ("eta", 0.0), ("eta", np.inf), ("mu", -1.0), ("b_field", 0.0)])
def test_from_eta_names_the_input_that_is_bad(name, value):
    # not the omega = 2 mu b_field eta that the bad input would make
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        ModelParams.from_eta(theta=1.0, **{"eta": 1.0, name: value})


@pytest.mark.parametrize("branch", [0, 2, -2, 0.5])
def test_exact_solution_refuses_a_branch_other_than_plus_or_minus_one(branch):
    with pytest.raises(ValueError, match=f"^branch must be \\+1 or -1, got {branch}$"):
        spin_model.exact_solution(PARAMS, branch, 0.0)
