import math

import numpy as np
import pytest

from holonomy_lab import evolution, hilbert, spin_model
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError
from holonomy_lab.evolution import (
    HamiltonianSchedule,
    TimeGrid,
    Trajectory,
    TrajectoryBlock,
    expand_in_frame,
    fidelity,
    propagate,
)
from holonomy_lab.frames import gauge_transform, linear_gauge
from holonomy_lab.phases import dynamical_phase
from holonomy_lab.spin_model import SIGMA_Z
from holonomy_lab.tolerances import DEFAULT


def static_schedule(h):
    h = np.asarray(h, dtype=complex)
    return HamiltonianSchedule(evaluate=lambda t: h, dim=h.shape[0])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, steps=0)
    with pytest.raises(ValueError):
        TimeGrid(t_end=-1.0, steps=4)
    grid = TimeGrid(t_end=2.0, steps=8)
    assert grid.dt == 0.25
    assert grid.nodes().shape == (9,)
    assert grid.midpoints()[0] == pytest.approx(0.125)


def test_zero_hamiltonian_freezes_state():
    grid = TimeGrid(t_end=3.0, steps=32)
    psi0 = np.array([0.6, 0.8j])
    traj = propagate(static_schedule(np.zeros((2, 2))), psi0, grid)
    assert np.allclose(traj.states, psi0, atol=1e-15)


def test_static_eigenstate_accumulates_pure_phase():
    # H = -mu hbar B sigma_z on spin-up: psi(t) = e^{+i mu B t} |up>
    mu_b = 1.3
    grid = TimeGrid(t_end=2.0, steps=64)
    traj = propagate(static_schedule(-mu_b * SIGMA_Z), np.array([1.0, 0.0]), grid)
    expected = np.exp(1j * mu_b * grid.nodes())
    assert np.allclose(traj.states[:, 0], expected, atol=1e-12)
    assert np.allclose(traj.states[:, 1], 0.0, atol=1e-15)


def test_propagate_requires_normalized_state():
    grid = TimeGrid(t_end=1.0, steps=16)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(static_schedule(SIGMA_Z), np.array([1.0, 1.0]), grid)


def test_propagate_aborts_on_non_hermitian_with_offending_time():
    grid = TimeGrid(t_end=1.0, steps=16)
    bad = HamiltonianSchedule(evaluate=lambda t: np.array([[0, 1], [0, 0]]), dim=2)
    with pytest.raises(NonHermitianError, match="t = "):
        propagate(bad, np.array([1.0, 0.0]), grid)


@pytest.mark.parametrize(
    "dim, entry, value",
    [(2, (0, 0), np.nan), (2, (1, 0), np.inf), (2, (0, 1), complex(0.0, -np.inf)), (3, (2, 2), np.nan)],
    ids=["nan-diagonal", "inf-lower", "inf-upper", "nan-dim3"],
)
def test_propagate_rejects_non_finite_hamiltonian(dim, entry, value):
    # NaN fails every comparison, so a screen built on comparisons alone lets it through
    good = np.diag(np.arange(1.0, dim + 1)).astype(complex)
    bad = good.copy()
    bad[entry] = value
    sched = HamiltonianSchedule(evaluate=lambda t: good if t < 0.5 else bad, dim=dim)
    psi0 = np.eye(dim)[0]
    with pytest.raises(NonHermitianError, match=r"not finite at t = 0\.53125:"):
        propagate(sched, psi0, TimeGrid(t_end=1.0, steps=16))


def test_propagated_matches_exact_solution():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=4096)
    psi0 = spin_model.exact_solution(params, +1, 0.0)
    traj = propagate(spin_model.schedule(params), psi0, grid)
    exact = spin_model.exact_trajectory(params, +1, grid)
    assert fidelity(traj, exact) >= 1 - 1e-8


def test_norm_preserved_over_many_steps():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    for steps in (10000, 1 << 20):
        grid = TimeGrid(t_end=params.period, steps=steps)
        traj = propagate(spin_model.schedule(params), spin_model.exact_solution(params, +1, 0.0), grid)
        assert traj.norm_drift() <= DEFAULT.norm_preservation


def test_second_order_convergence():
    # angular error sqrt(1 - fidelity) falls by ~4x per step doubling
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-2)
    errors = []
    for steps in (256, 512, 1024):
        grid = TimeGrid(t_end=params.period, steps=steps)
        traj = propagate(spin_model.schedule(params), spin_model.exact_solution(params, +1, 0.0), grid)
        errors.append(math.sqrt(max(1 - fidelity(traj, spin_model.exact_trajectory(params, +1, grid)), 1e-300)))
    for a, b in zip(errors, errors[1:]):
        assert 1.8 <= math.log2(a / b) <= 2.2


def test_fidelity_trivial_cases():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=128)
    traj = propagate(spin_model.schedule(params), spin_model.exact_solution(params, +1, 0.0), grid)
    assert fidelity(traj, traj) == pytest.approx(1.0, abs=1e-12)
    rephased = Trajectory(grid=grid, states=np.exp(1j * np.pi / 5) * traj.states)
    assert fidelity(traj, rephased) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_grid_mismatch():
    grid_a = TimeGrid(t_end=1.0, steps=16)
    grid_b = TimeGrid(t_end=1.0, steps=32)
    states_a = np.tile([1.0 + 0j, 0.0], (17, 1))
    states_b = np.tile([1.0 + 0j, 0.0], (33, 1))
    with pytest.raises(ValueError, match="grid mismatch"):
        fidelity(Trajectory(grid_a, states_a), Trajectory(grid_b, states_b))


def test_expand_in_canonical_basis_returns_raw_amplitudes():
    from holonomy_lab.frames import MovingFrame

    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=64)
    traj = propagate(spin_model.schedule(params), spin_model.exact_solution(params, +1, 0.0), grid)
    vecs = np.eye(2, dtype=complex)
    canonical = MovingFrame(dim=2, count=2, value_fn=lambda n, t: vecs[n], period=params.period)
    coeffs = expand_in_frame(traj, canonical)
    assert np.allclose(coeffs, traj.states, atol=1e-15)


def test_exact_state_is_single_branch_in_model_frame():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=256)
    traj = spin_model.exact_trajectory(params, +1, grid)
    coeffs = expand_in_frame(traj, spin_model.tilted_frame(params))
    assert np.all(np.abs(np.abs(coeffs[:, 0]) - 1.0) <= 1e-12)
    assert np.all(np.abs(coeffs[:, 1]) <= 1e-8)
    # completeness: sum_n |b_n|^2 equals the squared norm on every node
    assert np.allclose(np.sum(np.abs(coeffs) ** 2, axis=1), 1.0, atol=1e-9)


def test_gauged_frame_rotates_coefficients():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=128)
    traj = spin_model.exact_trajectory(params, +1, grid)
    frame = spin_model.tilted_frame(params)
    rate = 0.77
    gauged = gauge_transform(frame, linear_gauge(rate, period=params.period))
    base = expand_in_frame(traj, frame)
    rotated = expand_in_frame(traj, gauged)
    expected = base * np.exp(-1j * rate * grid.nodes())[:, None]
    assert np.max(np.abs(rotated - expected)) <= 1e-10


def test_expand_dimension_mismatch():
    from holonomy_lab.frames import MovingFrame

    grid = TimeGrid(t_end=1.0, steps=4)
    traj = Trajectory(grid=grid, states=np.tile([1.0 + 0j, 0.0], (5, 1)))
    vecs = np.eye(3, dtype=complex)
    frame = MovingFrame(dim=3, count=3, value_fn=lambda n, t: vecs[n])
    with pytest.raises(DimensionMismatchError):
        expand_in_frame(traj, frame)


def random_unitaries(rng, n, dim):
    return np.linalg.qr(rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))[0]


def test_dim2_product_matches_matmul(rng):
    a, b = random_unitaries(rng, 1000, 2), random_unitaries(rng, 1000, 2)
    assert np.max(np.abs(evolution._matmul(a, b) - np.matmul(a, b))) <= 1e-15
    a, b = random_unitaries(rng, 10, 3), random_unitaries(rng, 10, 3)
    assert np.array_equal(evolution._matmul(a, b), np.matmul(a, b))


def test_dim2_stacks_are_component_major(rng):
    # each of the four entries is contiguous over the stack, and the scan keeps that
    a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    u = hilbert._step_unitaries(a + a.conj().swapaxes(-1, -2), 0.1, 1.0)
    for stack in (u, evolution._matmul(u, u), evolution._prefix_products(u)):
        assert stack.shape == (50, 2, 2)
        assert all(stack[:, i, j].flags.c_contiguous for i in range(2) for j in range(2))


@pytest.mark.parametrize("dim", [2, 3])
def test_prefix_products_match_sequential_products(rng, dim):
    for n in (1, 2, 3, 7, 100):
        u = random_unitaries(rng, n, dim)
        expected = [u[0]]
        for k in range(1, n):
            expected.append(u[k] @ expected[-1])
        assert np.max(np.abs(evolution._prefix_products(u) - expected)) <= 1e-13


# --- block propagation --------------------------------------------------------


def random_periodic_schedule(rng, dim):
    h0, h1, h2 = (a + a.conj().T for a in rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim)))

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(ts)

    return HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)


def assert_block_equals_single_calls(sched, psis, grid):
    block = propagate(sched, psis, grid)
    assert isinstance(block, TrajectoryBlock) and len(block) == len(psis)
    assert block.grid == grid and block.dim == sched.dim
    for psi, traj in zip(psis, block):
        assert np.array_equal(traj.states, propagate(sched, psi, grid).states)


def test_block_matches_single_state_calls_on_spin_model():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-2)
    grid = TimeGrid(t_end=params.period, steps=4096)
    psis = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in (+1, -1)])
    assert_block_equals_single_calls(spin_model.schedule(params), psis, grid)


@pytest.mark.parametrize("scan_elements", [None, 8 * 8 * 20], ids=["one-scan-block", "three-scan-blocks"])
def test_block_matches_single_state_calls_on_random_schedule(rng, monkeypatch, scan_elements):
    if scan_elements is not None:
        monkeypatch.setattr(evolution, "_SCAN_BLOCK_ELEMENTS", scan_elements)
    psis = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    assert_block_equals_single_calls(random_periodic_schedule(rng, 8), psis, TimeGrid(t_end=2 * np.pi, steps=50))


def test_block_rows_may_be_strided(rng):
    sched = random_periodic_schedule(rng, 4)
    psis = np.linalg.eigh(sched.evaluate(0.0))[1].T  # rows are eigenvector columns
    assert not psis[0].flags.contiguous
    assert_block_equals_single_calls(sched, psis, TimeGrid(t_end=1.0, steps=32))


def test_block_non_hermitian_names_first_bad_midpoint():
    grid = TimeGrid(t_end=1.0, steps=16)
    bad = HamiltonianSchedule(evaluate=lambda t: SIGMA_Z if t < 0.5 else np.array([[0, 1], [0, 0]]), dim=2)
    with pytest.raises(NonHermitianError, match=r"at t = 0\.53125:"):
        propagate(bad, np.eye(2), grid)


def test_block_input_errors():
    grid = TimeGrid(t_end=1.0, steps=16)
    sched = static_schedule(SIGMA_Z)
    with pytest.raises(DimensionMismatchError, match="schedule dimension"):
        propagate(sched, np.eye(3), grid)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(sched, np.array([[1.0, 0.0], [1.0, 1.0]]), grid)
    for shape in ((0, 2), (1, 2, 2)):
        with pytest.raises(DimensionMismatchError, match="block"):
            propagate(sched, np.ones(shape), grid)


@pytest.mark.parametrize(
    "dim, returned",
    [(2, np.eye(3)), (3, np.eye(2)), (2, np.ones((2, 2, 2)))],
    ids=["dim2-returns-3x3", "dim3-returns-2x2", "dim2-returns-a-stack-per-time"],
)
@pytest.mark.parametrize("vectorized", [False, True], ids=["evaluate", "evaluate_many"])
def test_sample_shape_mismatch_names_schedule_dim(dim, returned, vectorized):
    h = np.asarray(returned, dtype=complex)
    sched = HamiltonianSchedule(
        evaluate=lambda t: h,
        dim=dim,
        evaluate_many=(lambda ts: np.broadcast_to(h, (len(ts),) + h.shape)) if vectorized else None,
    )
    grid = TimeGrid(t_end=1.0, steps=8)
    psi0 = np.eye(dim)[0]
    match = f"schedule of dimension {dim} returned samples of shape"
    with pytest.raises(DimensionMismatchError, match=match):
        propagate(sched, psi0, grid)
    traj = Trajectory(grid=grid, states=np.tile(psi0, (grid.steps + 1, 1)))
    with pytest.raises(DimensionMismatchError, match=match):
        dynamical_phase(traj, sched)
