import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holonomy_lab import evolution, phases, spin_model
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError, NotCyclicError, OrthogonalEndpointsError
from holonomy_lab.evolution import HamiltonianSchedule, TimeGrid, Trajectory, propagate
from holonomy_lab.phases import (
    _mod_two_pi,
    _total_phase,
    adiabatic_berry_phase,
    circular_distance,
    cyclic_geometric_phase,
    cyclic_phase_from_connection,
    dynamical_phase,
    noncyclic_geometric_phase,
)
from holonomy_lab.frames import MovingFrame
from holonomy_lab.tolerances import DEFAULT

_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Half-period Pancharatnam phase of the + branch at theta=pi/3, eta=1,
# frozen from an independent dense-grid oracle (closed-form states sampled on
# 2^16 + 1 nodes; arg of the endpoint overlap plus the trapezoid dynamical
# integral). See oracle_half_period_phase below, which regenerates it.
HALF_PERIOD_GEOMETRIC = 6.072738503560353
HALF_PERIOD_OVERLAP_MODULUS = 0.8660254037844387


def oracle_half_period_phase(samples=2**16):
    theta, eta = np.pi / 3, 1.0
    omega = 2.0 * eta
    alpha = np.arctan2(eta * np.sin(theta), 1 + eta * np.cos(theta))
    t_half = np.pi / omega
    energy = -np.cos(alpha)
    conn = 0.5 * omega * (1 + np.cos(theta - alpha))
    ts = np.linspace(0.0, t_half, samples + 1)
    half = 0.5 * (theta - alpha)
    states = np.stack(
        [np.cos(half) * np.exp(-1j * omega * ts), np.sin(half) * np.ones_like(ts)], axis=-1
    ) * np.exp(1j * (-energy + conn) * ts)[:, None]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    st, ct = np.sin(theta), np.cos(theta)
    energies = [
        np.vdot(s, (-(st * np.cos(omega * t) * sx + st * np.sin(omega * t) * sy + ct * sz)) @ s).real
        for t, s in zip(ts, states)
    ]
    arg = np.angle(np.vdot(states[0], states[-1]))
    dyn = np.trapezoid(energies, dx=ts[1] - ts[0])
    return (arg + dyn) % (2 * np.pi)


def constant_phase_trajectory(phase, steps=8):
    grid = TimeGrid(t_end=1.0, steps=steps)
    base = np.array([1.0, 0.0], dtype=complex)
    states = np.tile(base, (steps + 1, 1))
    states = states * np.exp(1j * np.linspace(0.0, phase, steps + 1))[:, None]
    return Trajectory(grid=grid, states=states)


def model_run(theta=np.pi / 3, eta=1.0, steps=4096, branch=+1, n_periods=1):
    params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=n_periods * params.period, steps=steps)
    traj = propagate(sched, spin_model.exact_solution(params, branch, 0.0), grid)
    return params, sched, grid, traj


def test_mod_two_pi_range():
    for x in (-7.0, -1e-18, 0.0, 3.0, 2 * np.pi, 12.0):
        r = _mod_two_pi(x)
        assert 0.0 <= r < 2 * np.pi
        # unreduced and reduced values differ by an exact multiple of 2 pi
        k = round((x - r) / (2 * np.pi))
        assert abs((x - r) - 2 * np.pi * k) <= 1e-12


def test_mod_two_pi_keeps_nan():
    assert math.isnan(_mod_two_pi(math.nan))


def test_total_phase_of_constructed_trajectory():
    traj = constant_phase_trajectory(np.pi / 3)
    assert _total_phase(traj) == pytest.approx(np.pi / 3, abs=1e-12)


def test_total_phase_orthogonal_endpoints_rejected():
    grid = TimeGrid(t_end=1.0, steps=2)
    states = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    with pytest.raises(OrthogonalEndpointsError, match="Pancharatnam"):
        _total_phase(Trajectory(grid=grid, states=states))


def test_total_phase_of_exact_model_solution():
    # exponent rate is mu B cos(alpha) + (omega/2)(1 + cos(theta - alpha))
    params, _, grid, _ = model_run()
    traj = spin_model.exact_trajectory(params, +1, grid)
    alpha = spin_model.tilt_angle(params).alpha
    delta = params.theta - alpha
    expected_raw = (np.cos(alpha) + 0.5 * params.omega * (1 + np.cos(delta))) * params.period
    got = _total_phase(traj)
    assert -np.pi < got <= np.pi
    assert circular_distance(got, expected_raw) <= 1e-10


def test_dynamical_phase_zero_hamiltonian():
    sched = HamiltonianSchedule(evaluate=lambda t: np.zeros((2, 2)), dim=2)
    traj = constant_phase_trajectory(0.0)
    assert dynamical_phase(traj, sched) == 0.0


def test_dynamical_phase_static_eigenstate():
    eps = -1.3  # eigenvalue of -1.3 sigma_z on spin-up
    sched = HamiltonianSchedule(evaluate=lambda t: 1.3 * _SIGMA_Z * -1.0, dim=2)
    grid = TimeGrid(t_end=2.0, steps=128)
    traj = propagate(sched, np.array([1.0, 0.0]), grid)
    assert dynamical_phase(traj, sched) == pytest.approx(eps * 2.0, rel=1e-12)


def test_dynamical_phase_of_exact_model_solution():
    params, sched, grid, _ = model_run()
    traj = spin_model.exact_trajectory(params, +1, grid)
    alpha = spin_model.tilt_angle(params).alpha
    expected = -np.cos(alpha) * params.period  # mu = B = hbar = 1
    assert dynamical_phase(traj, sched) == pytest.approx(expected, rel=1e-10)


def test_cyclic_phase_static_eigenstate_vanishes():
    sched = HamiltonianSchedule(evaluate=lambda t: -0.9 * _SIGMA_Z, dim=2)
    grid = TimeGrid(t_end=3.0, steps=256)
    traj = propagate(sched, np.array([1.0, 0.0]), grid)
    report = cyclic_geometric_phase(traj, sched)
    assert circular_distance(report.geometric, 0.0) <= 1e-10
    assert report.cyclic


@pytest.mark.parametrize("branch", [+1, -1])
def test_cyclic_phase_of_model_both_branches(branch):
    params, sched, _, traj = model_run(branch=branch)
    report = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=math.inf))
    delta = params.theta - spin_model.tilt_angle(params).alpha
    expected = _mod_two_pi(np.pi * (1 + branch * np.cos(delta)))
    assert circular_distance(report.geometric, expected) <= 1e-5
    assert report.geometric == pytest.approx(spin_model.geometric_phase_exact(params, branch), abs=1e-5)
    assert 0.0 <= report.geometric < 2 * np.pi
    assert abs(report.geometric_raw - report.total - report.dynamical) <= 1e-12


def test_cyclic_phase_invariant_under_constant_ray_phase():
    params, sched, grid, traj = model_run(steps=2048)
    base = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=math.inf))
    shifted_traj = propagate(
        sched, np.exp(1j * 0.9) * spin_model.exact_solution(params, +1, 0.0), grid
    )
    shifted = cyclic_geometric_phase(shifted_traj, sched, tol=DEFAULT.replace(two_route=math.inf))
    assert circular_distance(shifted.geometric, base.geometric) <= 1e-10
    assert circular_distance(shifted.total, base.total) <= 1e-10
    assert abs(shifted.dynamical - base.dynamical) <= 1e-10


def test_cyclic_rejects_half_period():
    params, sched, _, _ = model_run()
    grid = TimeGrid(t_end=params.period / 2, steps=512)
    traj = propagate(sched, spin_model.exact_solution(params, +1, 0.0), grid)
    with pytest.raises(NotCyclicError, match="not cyclic at tolerance"):
        cyclic_geometric_phase(traj, sched)


def test_two_routes_agree_on_well_resolved_run():
    params, sched, _, traj = model_run(steps=8192, eta=1.0)
    report = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=math.inf))
    direct = cyclic_phase_from_connection(traj)
    assert circular_distance(report.geometric, direct) == pytest.approx(report.route_agreement)
    assert report.route_agreement <= 4e-8  # secular error at 8192 steps, well under 2pi*1e-8 at 16k
    # enforcing path: the check passes at the matching tolerance
    cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=1e-7))


def test_connection_route_without_richardson_falls_at_order_two():
    # odd step counts take the stride-1 chain alone; on closed-form states its
    # error falls at order 2, while an even count's Richardson sum is far below
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-2)
    exact = spin_model.geometric_phase_exact(params, +1)

    def error(steps):
        traj = spin_model.exact_trajectory(params, +1, TimeGrid(t_end=params.period, steps=steps))
        return circular_distance(cyclic_phase_from_connection(traj), exact)

    odd = (1025, 2049, 4097)
    errors = [error(steps) for steps in odd]
    for k in range(2):
        order = math.log(errors[k] / errors[k + 1]) / math.log(odd[k + 1] / odd[k])
        assert order == pytest.approx(2.0, abs=0.01)
    assert error(4096) <= 1e-3 * errors[-1]


def test_route_mismatch_raises_on_coarse_run():
    # cyclic within tolerance at these settings, but the routes differ at the
    # integrator's secular error, far above the demanded agreement
    params, sched, _, traj = model_run(steps=256, eta=1.0)
    with pytest.raises(ValueError, match="routes disagree"):
        cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=1e-12))


def test_noncyclic_matches_cyclic_on_cyclic_input():
    _, sched, _, traj = model_run(steps=2048)
    cyc = cyclic_geometric_phase(traj, sched, tol=DEFAULT.replace(two_route=math.inf))
    non = noncyclic_geometric_phase(traj, sched)
    assert abs(non.geometric - cyc.geometric) <= 1e-10
    assert non.cyclic


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), ray=st.floats(-np.pi, np.pi))
def test_cyclic_is_noncyclic_on_random_cyclic_trajectories(dim, seed, ray):
    # H(t) = H0 + H1 cos t + H2 sin t; an eigenvector of the one-period
    # propagator U(T) starts a cyclic trajectory
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    h0, h1, h2 = (a + a.conj().swapaxes(-1, -2)) / (2 * np.sqrt(dim))

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(ts)

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)
    grid = TimeGrid(t_end=2 * np.pi, steps=128)
    u_end = np.stack([traj.states[-1] for traj in propagate(sched, np.eye(dim), grid)], axis=1)
    psi0 = np.linalg.eig(u_end)[1][:, 0]
    record_gap = DEFAULT.replace(two_route=math.inf)
    reports = []
    for c in (0.0, ray):
        traj = propagate(sched, np.exp(1j * c) * psi0, grid)
        cyc = cyclic_geometric_phase(traj, sched, tol=record_gap)
        assert replace(cyc, route_agreement=None) == noncyclic_geometric_phase(traj, sched)
        reports.append(cyc)
    base, shifted = reports
    assert circular_distance(shifted.geometric, base.geometric) <= 1e-10
    assert circular_distance(shifted.total, base.total) <= 1e-10
    assert abs(shifted.dynamical - base.dynamical) <= 1e-10


def test_node_sample_stack_is_refused_as_a_schedule():
    # the phases take the schedule only; its node samples are refused with a
    # TypeError before anything is sampled
    calls = []

    def many(ts):
        calls.append(len(ts))
        return np.broadcast_to(-_SIGMA_Z, (len(ts), 2, 2))

    sched = HamiltonianSchedule(evaluate=None, evaluate_many=many, dim=2)
    grid = TimeGrid(t_end=1.0, steps=8)
    traj = propagate(sched, np.array([1.0, 0.0]), grid)
    node_hams = sched.sample(grid.nodes())
    calls.clear()
    for phase in (dynamical_phase, noncyclic_geometric_phase, cyclic_geometric_phase):
        with pytest.raises(TypeError, match="schedule must be a HamiltonianSchedule, got ndarray"):
            phase(traj, node_hams)
    assert calls == []


@pytest.mark.parametrize("steps", [8, 10])
@pytest.mark.parametrize("energy_dt", [1.6, 2.0, 3.0])
def test_connection_route_survives_wrapped_stride_two_overlaps(steps, energy_dt):
    # a static eigenstate has geometric phase 0; past E dt = pi/2 each stride-2
    # overlap argument, -2 E dt, wraps past -pi, which used to alias the
    # Richardson step by a multiple of 2 pi / 3
    h = np.diag([1.0, -1.0])
    sched = HamiltonianSchedule(evaluate=lambda t: h, dim=2)
    traj = propagate(sched, np.array([1.0, 0.0]), TimeGrid(t_end=energy_dt * steps, steps=steps))
    assert circular_distance(cyclic_phase_from_connection(traj), 0.0) <= 1e-12
    assert cyclic_geometric_phase(traj, sched).route_agreement <= 1e-12


@pytest.mark.parametrize("dim", [2, 4, 17])
def test_dynamical_phase_sampled_in_blocks_equals_node_stack(rng, monkeypatch, dim):
    # 16-node blocks over 49 nodes (at dim 2 a quarter of a 64-step scan
    # block): three full blocks and a one-node tail
    monkeypatch.setattr(evolution, "_SCAN_BLOCK_STEPS", 64)
    monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", 16 * dim * dim)
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    h0, h1, h2 = a + a.conj().swapaxes(-1, -2)
    calls = []

    def many(ts):
        calls.append(len(ts))
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(ts)

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)
    grid = TimeGrid(t_end=2.0, steps=48)
    psis = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    trajs = propagate(sched, psis / np.linalg.norm(psis, axis=1)[:, None], grid)
    node_hams = sched.sample(grid.nodes())
    traj = trajs[0]
    calls.clear()
    for hbar in (1.0, 0.7):
        # the trapezoid sum of the energies of the whole node stack at once
        energies = np.einsum("ki,kij,kj->k", traj.states.conj(), node_hams, traj.states).real
        assert dynamical_phase(traj, sched, hbar=hbar) == float(np.trapezoid(energies, dx=grid.dt) / hbar)
    assert calls == [16, 16, 16, 1] * 2
    # two trajectories on one grid: each block is sampled once for both, and
    # each row is the bits of that trajectory's energies alone
    calls.clear()
    joint = phases._node_energies(trajs, sched)
    assert calls == [16, 16, 16, 1]
    for row, one in zip(joint, trajs):
        assert row.tobytes() == phases._node_energies((one,), sched)[0].tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_node_energy_raises_naming_its_time(dim):
    # midpoints never reach t = 0, so the run propagates; its phases must not
    h = np.diag(np.arange(dim, dtype=float))
    sched = HamiltonianSchedule(evaluate=lambda t: h * math.nan if t == 0.0 else h, dim=dim)
    grid = TimeGrid(t_end=1.0, steps=16)
    traj = propagate(sched, np.eye(dim)[0], grid)
    match = r"not finite at t = 0\.0:"
    for phase in (dynamical_phase, cyclic_geometric_phase, noncyclic_geometric_phase):
        with pytest.raises(NonHermitianError, match=match):
            phase(traj, sched)


@pytest.mark.parametrize("traj_dim, sched_dim", [(2, 3), (3, 2), (4, 17)])
def test_schedule_of_another_dim_is_refused_before_sampling(traj_dim, sched_dim):
    # as propagate refuses a state whose dim is not the schedule's, so do the
    # phases, naming both dims, before the schedule is sampled
    calls = []

    def many(ts):
        calls.append(len(ts))
        return np.zeros((len(ts), sched_dim, sched_dim))

    sched = HamiltonianSchedule(evaluate=None, evaluate_many=many, dim=sched_dim)
    grid = TimeGrid(t_end=1.0, steps=8)
    traj = Trajectory(grid=grid, states=np.tile(np.eye(traj_dim)[0], (grid.steps + 1, 1)))
    match = f"trajectory dimension {traj_dim} does not match schedule dimension {sched_dim}"
    for phase in (dynamical_phase, noncyclic_geometric_phase, cyclic_geometric_phase):
        with pytest.raises(DimensionMismatchError, match=match):
            phase(traj, sched)
    assert calls == []


def test_noncyclic_short_duration_limit():
    params, sched, _, _ = model_run()
    grid = TimeGrid(t_end=1e-6 * params.period, steps=16)
    traj = propagate(sched, spin_model.exact_solution(params, +1, 0.0), grid)
    report = noncyclic_geometric_phase(traj, sched)
    assert circular_distance(report.geometric, 0.0) <= 1e-6


def test_noncyclic_half_period_against_frozen_oracle():
    assert oracle_half_period_phase(2**12) == pytest.approx(HALF_PERIOD_GEOMETRIC, abs=1e-10)
    params, sched, _, _ = model_run()
    grid = TimeGrid(t_end=params.period / 2, steps=4096)
    # exact states sampled on the propagation grid: tight agreement
    exact = spin_model.exact_trajectory(params, +1, grid)
    report = noncyclic_geometric_phase(exact, sched)
    assert report.geometric == pytest.approx(HALF_PERIOD_GEOMETRIC, abs=1e-9)
    assert report.endpoint_overlap_modulus == pytest.approx(HALF_PERIOD_OVERLAP_MODULUS, abs=1e-12)
    assert not report.cyclic
    # propagated states: agreement within the integrator's phase error
    traj = propagate(sched, spin_model.exact_solution(params, +1, 0.0), grid)
    assert noncyclic_geometric_phase(traj, sched).geometric == pytest.approx(
        HALF_PERIOD_GEOMETRIC, abs=1e-6
    )


def eigenframe(params):
    """Instantaneous eigenframe of H(t): the tilted frame with alpha = 0."""
    def fn(n, t):
        return spin_model._basis_value_and_derivative(params.theta, 0.0, params.omega, (+1, -1)[n], t)
    return MovingFrame(2, 2, fn, params.period)


def test_berry_phase_of_eigenframe():
    for theta in (np.pi / 6, np.pi / 3, 2 * np.pi / 3):
        params = spin_model.ModelParams.from_eta(theta=theta, eta=1.0)
        frame = eigenframe(params)
        assert adiabatic_berry_phase(frame, 0) == pytest.approx(np.pi * (1 + np.cos(theta)), rel=1e-10)
        assert adiabatic_berry_phase(frame, 1) == pytest.approx(np.pi * (1 - np.cos(theta)), rel=1e-10)


def test_berry_phase_theta_zero_full_winding():
    params = spin_model.ModelParams.from_eta(theta=0.0, eta=1.0)
    raw = adiabatic_berry_phase(eigenframe(params), 0)
    assert raw == pytest.approx(2 * np.pi, rel=1e-12)
    assert circular_distance(raw, 0.0) <= 1e-10


def test_berry_phase_constant_frame_zero():
    vecs = np.eye(2, dtype=complex)
    frame = MovingFrame(dim=2, count=2, fn=lambda n, t: (vecs[n], 0.0), period=1.0)
    assert adiabatic_berry_phase(frame, 0) == pytest.approx(0.0, abs=1e-13)


def test_berry_phase_requires_periodic_frame():
    vecs = np.eye(2, dtype=complex)
    frame = MovingFrame(dim=2, count=2, fn=lambda n, t: (vecs[n], 0.0), period=None)
    with pytest.raises(ValueError, match="periodic"):
        adiabatic_berry_phase(frame, 0)
