import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holonomy_lab import spin_model
from holonomy_lab.errors import DimensionMismatchError, NotCyclicError, OrthogonalEndpointsError
from holonomy_lab.evolution import HamiltonianSchedule, TimeGrid, Trajectory, propagate
from holonomy_lab.phases import (
    adiabatic_berry_phase,
    circular_distance,
    cyclic_geometric_phase,
    cyclic_phase_from_connection,
    dynamical_phase,
    mod_two_pi,
    noncyclic_geometric_phase,
    total_phase,
)
from holonomy_lab.spin_model import SIGMA_Z
from holonomy_lab.tolerances import DEFAULT

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
        r = mod_two_pi(x)
        assert 0.0 <= r < 2 * np.pi
        # unreduced and reduced values differ by an exact multiple of 2 pi
        k = round((x - r) / (2 * np.pi))
        assert abs((x - r) - 2 * np.pi * k) <= 1e-12


def test_total_phase_of_constructed_trajectory():
    traj = constant_phase_trajectory(np.pi / 3)
    assert total_phase(traj) == pytest.approx(np.pi / 3, abs=1e-12)


def test_total_phase_orthogonal_endpoints_rejected():
    grid = TimeGrid(t_end=1.0, steps=2)
    states = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    with pytest.raises(OrthogonalEndpointsError, match="Pancharatnam"):
        total_phase(Trajectory(grid=grid, states=states))


def test_total_phase_of_exact_model_solution():
    # exponent rate is mu B cos(alpha) + (omega/2)(1 + cos(theta - alpha))
    params, _, grid, _ = model_run()
    traj = spin_model.exact_trajectory(params, +1, grid)
    alpha = spin_model.tilt_angle(params).alpha
    delta = params.theta - alpha
    expected_raw = (np.cos(alpha) + 0.5 * params.omega * (1 + np.cos(delta))) * params.period
    got = total_phase(traj)
    assert -np.pi < got <= np.pi
    assert circular_distance(got, expected_raw) <= 1e-10


def test_dynamical_phase_zero_hamiltonian():
    sched = HamiltonianSchedule(evaluate=lambda t: np.zeros((2, 2)), dim=2)
    traj = constant_phase_trajectory(0.0)
    assert dynamical_phase(traj, sched) == 0.0


def test_dynamical_phase_static_eigenstate():
    eps = -1.3  # eigenvalue of -1.3 sigma_z on spin-up
    sched = HamiltonianSchedule(evaluate=lambda t: 1.3 * SIGMA_Z * -1.0, dim=2)
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
    sched = HamiltonianSchedule(evaluate=lambda t: -0.9 * SIGMA_Z, dim=2)
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
    expected = mod_two_pi(np.pi * (1 + branch * np.cos(delta)))
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


def test_phases_from_node_samples_equal_schedule_path(rng):
    # spin model, both branches as one block, cyclic and noncyclic reports
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=0.2)
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=params.period, steps=2048)
    psi0 = np.stack([spin_model.exact_solution(params, b, 0.0) for b in (+1, -1)])
    node_hams = sched.sample(grid.nodes())
    record_gap = DEFAULT.replace(two_route=math.inf)
    for traj in propagate(sched, psi0, grid):
        assert dynamical_phase(traj, node_hams) == dynamical_phase(traj, sched)
        assert noncyclic_geometric_phase(traj, node_hams) == noncyclic_geometric_phase(traj, sched)
        assert cyclic_geometric_phase(traj, node_hams, tol=record_gap) == cyclic_geometric_phase(
            traj, sched, tol=record_gap
        )
    # random dim-4 schedule from a generic (noncyclic) start, hbar != 1
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    h0, h1, h2 = (a + a.conj().swapaxes(-1, -2)) / 4

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(2 * ts)

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=4)
    grid = TimeGrid(t_end=1.5, steps=300)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    traj = propagate(sched, psi / np.linalg.norm(psi), grid, hbar=0.7)
    node_hams = sched.sample(grid.nodes())
    assert dynamical_phase(traj, node_hams, hbar=0.7) == dynamical_phase(traj, sched, hbar=0.7)
    assert noncyclic_geometric_phase(traj, node_hams, hbar=0.7) == noncyclic_geometric_phase(
        traj, sched, hbar=0.7
    )
    # a stack that is not (steps+1, dim, dim) is refused
    for bad in (node_hams[:-1], node_hams[:, :3, :3], node_hams[0]):
        with pytest.raises(DimensionMismatchError, match="node Hamiltonians must have shape"):
            dynamical_phase(traj, bad)
        with pytest.raises(DimensionMismatchError):
            noncyclic_geometric_phase(traj, bad)


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


def test_berry_phase_of_eigenframe():
    for theta in (np.pi / 6, np.pi / 3, 2 * np.pi / 3):
        params = spin_model.ModelParams.from_eta(theta=theta, eta=1.0)
        frame = spin_model.eigenframe(params)
        assert adiabatic_berry_phase(frame, 0) == pytest.approx(np.pi * (1 + np.cos(theta)), rel=1e-10)
        assert adiabatic_berry_phase(frame, 1) == pytest.approx(np.pi * (1 - np.cos(theta)), rel=1e-10)


def test_berry_phase_theta_zero_full_winding():
    params = spin_model.ModelParams.from_eta(theta=0.0, eta=1.0)
    raw = adiabatic_berry_phase(spin_model.eigenframe(params), 0)
    assert raw == pytest.approx(2 * np.pi, rel=1e-12)
    assert circular_distance(raw, 0.0) <= 1e-10


def test_berry_phase_constant_frame_zero():
    from holonomy_lab.frames import MovingFrame

    vecs = np.eye(2, dtype=complex)
    frame = MovingFrame(dim=2, count=2, value_fn=lambda n, t: vecs[n], period=1.0)
    assert adiabatic_berry_phase(frame, 0) == pytest.approx(0.0, abs=1e-13)


def test_berry_phase_requires_periodic_frame():
    from holonomy_lab.frames import MovingFrame

    vecs = np.eye(2, dtype=complex)
    frame = MovingFrame(dim=2, count=2, value_fn=lambda n, t: vecs[n], period=None)
    with pytest.raises(ValueError, match="periodic"):
        adiabatic_berry_phase(frame, 0)
