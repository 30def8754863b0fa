import concurrent.futures
import math
import multiprocessing
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from holonomy_lab import evolution, hilbert, phases, spin_model, sweep
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError
from holonomy_lab.evolution import (
    HamiltonianSchedule,
    TimeGrid,
    Trajectory,
    expand_in_frame,
    fidelity,
    propagate,
)
from holonomy_lab.frames import MovingFrame, gauge_transform
from holonomy_lab.phases import dynamical_phase
from holonomy_lab.tolerances import DEFAULT

_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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


@pytest.mark.parametrize("t_end", [1j, "2"])
def test_grid_rejects_t_end_that_is_not_a_real_number(t_end):
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        TimeGrid(t_end=t_end, steps=4)


@pytest.mark.parametrize("steps", [2.5, 4.0, True, "4"])
def test_grid_rejects_non_integer_steps(steps):
    with pytest.raises(ValueError, match="integer"):
        TimeGrid(t_end=1.0, steps=steps)


def test_grid_accepts_numpy_integer_steps():
    grid = TimeGrid(t_end=1.0, steps=np.int64(4))
    assert grid.nodes()[-1] == 1.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, 1j, np.complex128(1.0), "a", None])
def test_bad_hbar_rejected_by_propagate_and_dynamical_phase(dim, hbar):
    sched = static_schedule(np.diag(np.arange(dim, dtype=float)))
    grid = TimeGrid(t_end=1.0, steps=8)
    psi0 = np.eye(dim)[0]
    with pytest.raises(ValueError, match="hbar"):
        propagate(sched, psi0, grid, hbar=hbar)
    traj = propagate(sched, psi0, grid)
    with pytest.raises(ValueError, match="hbar"):
        dynamical_phase(traj, sched, hbar=hbar)


@pytest.mark.parametrize("hbar", [np.nan, 0.0])
def test_propagate_checks_hbar_before_sampling(hbar):
    calls = []

    def many(ts):
        calls.append(len(ts))
        return np.broadcast_to(_SIGMA_Z, (len(ts), 2, 2))

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], dim=2, evaluate_many=many)
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        propagate(sched, np.eye(2)[0], TimeGrid(t_end=1.0, steps=2**21), hbar=hbar)
    assert calls == []


def test_zero_hamiltonian_freezes_state():
    grid = TimeGrid(t_end=3.0, steps=32)
    psi0 = np.array([0.6, 0.8j])
    traj = propagate(static_schedule(np.zeros((2, 2))), psi0, grid)
    assert np.allclose(traj.states, psi0, atol=1e-15)


def test_static_eigenstate_accumulates_pure_phase():
    # H = -mu hbar B sigma_z on spin-up: psi(t) = e^{+i mu B t} |up>
    mu_b = 1.3
    grid = TimeGrid(t_end=2.0, steps=64)
    traj = propagate(static_schedule(-mu_b * _SIGMA_Z), np.array([1.0, 0.0]), grid)
    expected = np.exp(1j * mu_b * grid.nodes())
    assert np.allclose(traj.states[:, 0], expected, atol=1e-12)
    assert np.allclose(traj.states[:, 1], 0.0, atol=1e-15)


def test_propagate_requires_normalized_state():
    grid = TimeGrid(t_end=1.0, steps=16)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(static_schedule(_SIGMA_Z), np.array([1.0, 1.0]), grid)


@pytest.mark.parametrize("form", ["callable", "ndarray"])
def test_propagate_refuses_a_schedule_of_another_form(form):
    # H is taken as a HamiltonianSchedule only, refused after the state's checks
    h = _SIGMA_Z
    schedule = {"callable": lambda t: h, "ndarray": h}[form]
    kind = {"callable": "function", "ndarray": "ndarray"}[form]
    grid = TimeGrid(t_end=1.0, steps=16)
    with pytest.raises(TypeError, match=f"^schedule must be a HamiltonianSchedule, got {kind}$"):
        propagate(schedule, np.array([1.0, 0.0]), grid)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(schedule, np.array([1.0, 1.0]), grid)


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
        assert traj.norm_drift() <= 1e-10


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


def test_fidelity_dimension_mismatch():
    grid = TimeGrid(t_end=1.0, steps=4)
    a, b = (Trajectory(grid, np.tile(np.eye(dim)[0], (5, 1))) for dim in (2, 3))
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: 2 vs 3$"):
        fidelity(a, b)


@pytest.mark.parametrize("shape", [(5,), (4, 2), (5, 2, 1)], ids=["1-d", "one-node-short", "3-d"])
def test_trajectory_refuses_states_of_another_shape(shape):
    with pytest.raises(DimensionMismatchError, match=r"^states must have shape \(steps\+1, dim\), got "):
        Trajectory(TimeGrid(t_end=1.0, steps=4), np.ones(shape))


def test_expand_in_canonical_basis_returns_raw_amplitudes():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    grid = TimeGrid(t_end=params.period, steps=64)
    traj = propagate(spin_model.schedule(params), spin_model.exact_solution(params, +1, 0.0), grid)
    vecs = np.eye(2, dtype=complex)
    canonical = MovingFrame(dim=2, count=2, fn=lambda n, t: (vecs[n], 0.0), period=params.period)
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
    gauged = gauge_transform(frame, lambda n, t: (rate * t, rate))
    base = expand_in_frame(traj, frame)
    rotated = expand_in_frame(traj, gauged)
    expected = base * np.exp(-1j * rate * grid.nodes())[:, None]
    assert np.max(np.abs(rotated - expected)) <= 1e-10


def test_expand_dimension_mismatch():
    grid = TimeGrid(t_end=1.0, steps=4)
    traj = Trajectory(grid=grid, states=np.tile([1.0 + 0j, 0.0], (5, 1)))
    vecs = np.eye(3, dtype=complex)
    frame = MovingFrame(dim=3, count=3, fn=lambda n, t: (vecs[n], 0.0))
    with pytest.raises(DimensionMismatchError):
        expand_in_frame(traj, frame)


def random_unitaries(rng, n, dim):
    return np.linalg.qr(rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))[0]


def test_dim2_product_matches_matmul(rng):
    a, b = random_unitaries(rng, 1000, 2), random_unitaries(rng, 1000, 2)
    assert np.max(np.abs(evolution._matmul(a, b) - np.matmul(a, b))) <= 1e-15


def test_dim2_stacks_are_component_major(rng):
    # each of the four entries is contiguous over the stack, and the scan keeps that
    a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    u = hilbert._step_unitaries(a + a.conj().swapaxes(-1, -2), 0.1, 1.0)
    for stack in (u, evolution._matmul(u, u), evolution._prefix_products(u)):
        assert stack.shape == (50, 2, 2)
        assert all(stack[:, i, j].flags.c_contiguous for i in range(2) for j in range(2))


def test_prefix_products_match_sequential_products(rng):
    for n in (1, 2, 3, 7, 100):
        u = random_unitaries(rng, n, 2)
        expected = [u[0]]
        for k in range(1, n):
            expected.append(u[k] @ expected[-1])
        assert np.max(np.abs(evolution._prefix_products(u) - expected)) <= 1e-13


def test_prefix_products_scan_in_place_and_products_may_write_over_a(rng):
    u = random_unitaries(rng, 37, 2)
    expected = np.stack([np.linalg.multi_dot(u[k::-1]) if k else u[0] for k in range(37)])
    assert evolution._prefix_products(u) is u
    assert np.max(np.abs(u - expected)) <= 1e-13
    a, b = random_unitaries(rng, 5, 2), random_unitaries(rng, 5, 2)
    product = np.matmul(a, b)
    assert evolution._matmul(a, b, out=a) is a
    assert np.max(np.abs(a - product)) <= 1e-15


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def component_major_unitaries(rng, n):
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return hilbert._step_unitaries(a + a.conj().swapaxes(-1, -2), 0.1, 1.0)


def test_matmul_sums_its_products_formed_one_by_one(rng):
    # each entry is the sum of its two products, each product formed on its
    # own, also when the result is written over a
    for n in (1, 2, 7, 4099):
        for a, b in ((random_unitaries(rng, n, 2), random_unitaries(rng, n, 2)),
                     (component_major_unitaries(rng, n), component_major_unitaries(rng, n))):
            expected = np.empty((n, 2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    first = np.multiply(a[:, i, 0], b[:, 0, j])
                    second = np.multiply(a[:, i, 1], b[:, 1, j])
                    expected[:, i, j] = np.add(first, second)
            assert same_bits(evolution._matmul(a, b), expected)
            assert evolution._matmul(a, b, out=a) is a
            assert same_bits(a, expected)


def scan_with_odd_tail(u, work):
    """The scan's recursion with the last entry of an odd-length level taken
    as a product of its own, as the scan was first written."""
    n = u.shape[0]
    if n <= 1:
        return u
    m = n // 2
    odd = u[1 : 2 * m : 2]
    evolution._matmul(odd, u[0 : 2 * m : 2], out=odd, work=work)
    scan_with_odd_tail(odd, work)
    evolution._matmul(u[2 : 2 * m : 2], odd[:-1], out=u[2 : 2 * m : 2], work=work)
    if n % 2:
        evolution._matmul(u[-1:], odd[-1:], out=u[-1:], work=work)
    return u


@pytest.mark.parametrize("lengths", [range(1, 301), [2**14 - 1, 2**14 + 1, 59_048, 65_536]],
                         ids=["1-300", "long"])
def test_prefix_products_keep_the_bits_of_the_odd_tail_scan(rng, lengths):
    for n in lengths:
        u = component_major_unitaries(rng, n)
        expected = scan_with_odd_tail(u.copy(), np.empty((4, max(1, n // 2)), dtype=complex))
        assert same_bits(evolution._prefix_products(u), expected), n


def test_dim2_propagation_memory_guard():
    # both spin branches over the longest row of the default sweep grid: the
    # peak, 9.5 MiB traced, holds two 3.6 MiB stacks, the states and the scan
    # block's unitaries, beside the midpoints and one 16,384-step block's
    # samples and exponential temporaries, about 1 MiB each
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-3)
    steps = spin_model.steps_for_phase_tolerance(params, DEFAULT.sweep_deviation / 3.0, 1)
    assert steps == 59_048
    psi0 = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in (+1, -1)])
    grid = TimeGrid(t_end=params.period, steps=steps)
    tracemalloc.start()
    try:
        propagate(spin_model.schedule(params), psi0, grid, hbar=params.hbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- block propagation --------------------------------------------------------


def random_periodic_schedule(rng, dim, scale=1.0):
    """h0 + cos(t) h1 + sin(t) h2 for random Hermitian h0, h1 and h2, with h0 times `scale`."""
    h0, h1, h2 = (a + a.conj().T for a in rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim)))
    h0 = scale * h0

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(ts)

    return HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)


def assert_block_equals_single_calls(sched, psis, grid):
    block = propagate(sched, psis, grid)
    assert type(block) is tuple and len(block) == len(psis)
    assert all(traj.grid is grid and traj.dim == sched.dim for traj in block)
    for psi, traj in zip(psis, block):
        assert np.array_equal(traj.states, propagate(sched, psi, grid).states)


def all_states(result):
    trajs = result if isinstance(result, tuple) else [result]
    return np.stack([traj.states for traj in trajs])


@pytest.mark.parametrize("dim", [3, evolution._SERIES_MIN_DIM - 1])
def test_unitary_steps_match_step_by_step_matmul(rng, monkeypatch, dim):
    # below the series dim a step is its eigh unitary times the state; 16-step
    # blocks, so the grid spans several
    monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", 16 * dim * dim)
    sched = random_periodic_schedule(rng, dim)
    grid = TimeGrid(t_end=2.0, steps=100)
    psis = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    unitaries = hilbert._step_unitaries(sched.sample(grid.midpoints()), grid.dt, 1.0)
    expected = np.empty((2, grid.steps + 1, dim), dtype=complex)
    expected[:, 0] = psis
    for row in expected:
        for k in range(grid.steps):
            np.matmul(unitaries[k], row[k], out=row[k + 1])
    assert same_bits(propagate(sched, psis[1], grid).states, expected[1])
    assert same_bits(all_states(propagate(sched, psis, grid)), expected)


def test_block_matches_single_state_calls_on_spin_model():
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-2)
    grid = TimeGrid(t_end=params.period, steps=4096)
    psis = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in (+1, -1)])
    assert_block_equals_single_calls(spin_model.schedule(params), psis, grid)


def test_spin_model_over_several_dim2_blocks_matches_one_block(monkeypatch):
    # the sweep's step count at eta = 1e-4: three scan blocks.
    # Each block's scan starts from the state its predecessor ended on, so
    # the states differ from one scan over the whole grid by round-off only
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-4)
    grid = TimeGrid(t_end=params.period, steps=186_764)
    assert grid.steps > 2 * evolution._SCAN_BLOCK_STEPS
    psis = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in (+1, -1)])
    sched = spin_model.schedule(params)
    blocks = propagate(sched, psis, grid)
    monkeypatch.setattr(evolution, "_SCAN_BLOCK_STEPS", grid.steps)
    whole = propagate(sched, psis, grid)
    assert np.max(np.abs(all_states(blocks) - all_states(whole))) <= 1e-12
    for traj in blocks:
        assert traj.norm_drift() <= 1e-10


@pytest.mark.parametrize("scan_elements", [None, 8 * 8 * 20], ids=["one-scan-block", "three-scan-blocks"])
def test_block_matches_single_state_calls_on_random_schedule(rng, monkeypatch, scan_elements):
    if scan_elements is not None:
        monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", scan_elements)
    psis = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    assert_block_equals_single_calls(random_periodic_schedule(rng, 8), psis, TimeGrid(t_end=2 * np.pi, steps=50))


@pytest.mark.parametrize("dim", [3, 8, 17, 64])
def test_states_above_dim2_do_not_depend_on_block_size(rng, monkeypatch, dim):
    # steps apply in turn above dim 2, so 16-step blocks, the default size and
    # one block for the whole grid give the same bits, for one state and a
    # block. From dim 16 up, steps over 2 pi take their eigh unitary and steps
    # over 8 / dim the series
    sched = random_periodic_schedule(rng, dim)
    psis = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    for t_end in (2 * np.pi, 8 / dim):
        grid = TimeGrid(t_end=t_end, steps=100)
        results = []
        for elements in (dim * dim * 16, evolution._STEP_BLOCK_ELEMENTS, dim * dim * grid.steps):
            monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", elements)
            results.append((all_states(propagate(sched, psis[0], grid)), all_states(propagate(sched, psis, grid))))
        for single, block in results[1:]:
            assert np.array_equal(single, results[0][0]), t_end
            assert np.array_equal(block, results[0][1]), t_end


def test_block_rule():
    # at dim 2 whole blocks fill the scan block the states depend on; above
    # dim 2 a block is the most steps whose 256 KiB stack fits the budget, at
    # least one
    assert evolution._block_steps(2) == 16_384
    assert evolution._SCAN_BLOCK_STEPS % evolution._block_steps(2) == 0
    assert evolution._STEP_BLOCK_ELEMENTS == 1 << 14
    for dim in range(3, 257):
        steps = evolution._block_steps(dim)
        assert steps >= 1, dim
        assert steps * dim * dim <= evolution._STEP_BLOCK_ELEMENTS or steps == 1, dim
        assert (steps + 1) * dim * dim > evolution._STEP_BLOCK_ELEMENTS, dim


def test_dense_propagation_memory_guard(rng):
    # dim 64 over 1,024 steps, every step a series: beside the states, one
    # 4-step block's samples, screen and generators, 256 KiB stacks each;
    # 1.3 MiB traced, 4.3 MiB with the 1 MiB stacks of 16-step blocks
    dim = 64
    sched = random_periodic_schedule(rng, dim)
    psi = np.linalg.eigh(sched.evaluate(0.0))[1][:, 0]
    grid = TimeGrid(t_end=8 / dim, steps=1024)
    tracemalloc.start()
    try:
        states = propagate(sched, psi, grid).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - states.nbytes
    assert extra <= 2 * 2**20, f"peak {extra / 2**20:.1f} MiB beside the states"


def traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc traced during it."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("dim", [5, 64])
def test_each_sampled_block_is_released_before_the_next(rng, dim):
    # six blocks take no more memory beside the states than one: each block's
    # samples and step plans are let go before the next block is sampled
    # (keeping them held about 256 KiB more on six). At dim 64 h0 is scaled
    # so that every step takes its unitary from eigh
    sched = random_periodic_schedule(rng, dim, scale=4.0)
    psi = np.eye(dim)[0]
    block = evolution._block_steps(dim)
    dt = 0.05
    peaks = {}
    for blocks in (1, 6):
        grid = TimeGrid(t_end=blocks * block * dt, steps=blocks * block)
        if dim >= evolution._SERIES_MIN_DIM:
            gens = np.empty((grid.steps, dim, dim + 1), dtype=complex)
            plans = hilbert._step_series(sched.sample(grid.midpoints()), grid.dt, 1.0, gens)
            assert all(isinstance(plan, np.ndarray) for plan in plans)
        traj, peak = traced_peak(lambda: propagate(sched, psi, grid))
        _, node_peak = traced_peak(lambda: dynamical_phase(traj, sched))
        peaks[blocks] = (peak - traj.states.nbytes, node_peak)
    grown = [f"{call}: {six / 2**10:.0f} KiB on six blocks, {one / 2**10:.0f} KiB on one"
             for one, six, call in zip(peaks[1], peaks[6], ("propagate", "dynamical_phase"))
             if six > one + 128 * 2**10]
    assert not grown, "; ".join(grown)


def cut(count, block):
    """Lengths of the pieces of `count` grid points cut into blocks of `block`."""
    return [min(block, count - pos) for pos in range(0, count, block)]


@pytest.mark.parametrize("dim, steps", [(2, 70_000), (3, 16_000), (17, 452), (64, 40)])
def test_node_energies_cut_nodes_as_propagate_cuts_midpoints(rng, dim, steps):
    # several blocks at each dim's default size; at dim 64 the midpoints fill
    # ten blocks exactly and the last node is a block of its own
    calls = []
    many = random_periodic_schedule(rng, dim).evaluate_many

    def recorded(ts):
        calls.append(len(ts))
        return many(ts)

    recording = HamiltonianSchedule(evaluate=None, evaluate_many=recorded, dim=dim)
    grid = TimeGrid(t_end=2 * np.pi, steps=steps)
    traj = propagate(recording, np.eye(dim)[0], grid)
    block = evolution._block_steps(dim)
    assert calls == cut(steps, block) and len(calls) >= 2
    calls.clear()
    dynamical_phase(traj, recording)
    assert calls == cut(steps + 1, block)


@pytest.mark.parametrize("dim, steps", [(3, 10**5), (8, 5 * 10**4), (16, 2 * 10**4), (64, 4096)])
def test_norm_drift_above_dim2_over_long_grids(rng, dim, steps):
    # round-off grows linearly in the steps when they apply in turn
    sched = random_periodic_schedule(rng, dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    traj = propagate(sched, psi / np.linalg.norm(psi), TimeGrid(t_end=2 * np.pi, steps=steps))
    assert traj.norm_drift() <= 1e-10


def eigh_path_states(hams, psi, dt):
    """States from each step's unitary (hilbert._step_unitaries) applied in turn."""
    states = [psi]
    for u in hilbert._step_unitaries(hams, dt, 1.0):
        states.append(np.matmul(u, states[-1]))
    return np.array(states)


def test_steps_past_the_series_break_even_take_their_unitary(rng):
    # ||H||_F dt is about 3e4, far above the series' norm of 1
    h = random_periodic_schedule(rng, 16).evaluate(0.3)
    psi = np.linalg.eigh(h)[1][:, 0]
    grid = TimeGrid(t_end=1e4, steps=16)
    start = time.perf_counter()
    states = propagate(static_schedule(h), psi, grid).states
    assert time.perf_counter() - start < 0.5
    assert np.array_equal(states, eigh_path_states(np.broadcast_to(h, (16, 16, 16)), psi, grid.dt))


def test_series_and_unitary_steps_mix_in_one_block(rng, monkeypatch):
    # a pulse whose generator norm ||H||_F dt goes from 0.5 through 1 to about
    # 200 mid-grid: each step takes its own kernel, so the states do not
    # depend on where the blocks cut the grid
    dim = 16
    grid = TimeGrid(t_end=2.0, steps=64)
    h = random_periodic_schedule(rng, dim).evaluate(0.0)
    h *= 0.5 / (np.linalg.norm(h) * grid.dt)
    scale = lambda ts: 1.0 + 400.0 * np.exp(-((ts - 1.0) / 0.2) ** 2)
    sched = HamiltonianSchedule(evaluate=None, evaluate_many=lambda ts: scale(ts)[:, None, None] * h, dim=dim)
    hams = sched.sample(grid.midpoints())
    gens = np.empty((grid.steps, dim, dim + 1), dtype=complex)
    kinds = [type(plan) for plan in hilbert._step_series(hams, grid.dt, 1.0, out=gens)]
    assert kinds.count(int) >= 16 and kinds.count(np.ndarray) >= 16
    psi = np.linalg.eigh(h)[1][:, 0]
    results = []
    for elements in (dim * dim * 16, dim * dim * grid.steps):
        monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", elements)
        results.append(propagate(sched, psi, grid).states)
    assert np.array_equal(results[0], results[1])
    exact = eigh_path_states(hams, psi, grid.dt)
    assert np.max(np.abs(results[0] - exact)) <= 1e-12


def matmul_step(plan, gen, psi, out, work):
    """out = exp(A) psi for one plan of _step_series by np.matmul: a unitary
    in one product, a degree m by the Horner recursion over [A | psi] and
    `work`'s rows [z_j, 1 / (j-1)!], sliced at every term."""
    if isinstance(plan, np.ndarray):
        np.matmul(plan, psi, out=out)
        return
    dim = psi.size
    gen[:, dim] = psi
    np.multiply(psi, hilbert._INV_FACTORIALS[plan], out=work[plan, :dim])
    for j in range(plan, 1, -1):
        np.matmul(gen, work[j], out=work[j - 1, :dim])
    np.matmul(gen, work[1], out=out)


def matmul_states(sched, psis, grid):
    """States of propagate's plans over the whole grid, at hbar 1, each
    applied by matmul_step, and the plans."""
    dim = sched.dim
    hams = sched.sample(grid.midpoints())
    if dim < evolution._SERIES_MIN_DIM:
        plans, gens = hilbert._step_unitaries(hams, grid.dt, 1.0), [None] * grid.steps
    else:
        gens = np.empty((grid.steps, dim, dim + 1), dtype=complex)
        plans = hilbert._step_series(hams, grid.dt, 1.0, out=gens)
    work = np.zeros((hilbert._SERIES_MAX_DEGREE + 1, dim + 1), dtype=complex)
    work[1:, dim] = hilbert._INV_FACTORIALS[: hilbert._SERIES_MAX_DEGREE]
    states = np.empty((len(psis), grid.steps + 1, dim), dtype=complex)
    states[:, 0] = psis
    for row in states:
        for k in range(grid.steps):
            matmul_step(plans[k], gens[k], row[k], row[k + 1], work)
    return states, plans


@pytest.mark.parametrize(
    "dim, spike",
    [(dim, False) for dim in (3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 32, 33, 48, 64)]
    + [(dim, True) for dim in (8, 9, 16, 33, 64)],
)
def test_propagate_states_equal_the_matmul_horner_kernel(dim, spike):
    # propagate applies its plans by np.dot on fixed views; its states equal
    # those of np.matmul on sliced rows bit for bit, for two rows over 256
    # steps of a schedule like dense-driven's (H0 + H1 cos t + H2 sin t,
    # spectral norms 1, 0.5, 0.5, over 2 pi): unitary plans below dim 8, series
    # plans from there, and with `spike` one midpoint's H scaled by 100, so
    # that from dim 8 its plan is a unitary among series plans
    rng = np.random.default_rng(dim)
    parts = [a + a.conj().T for a in rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))]
    h0, h1, h2 = (h * (norm / np.linalg.norm(h, 2)) for h, norm in zip(parts, (1.0, 0.5, 0.5)))
    grid = TimeGrid(t_end=2 * np.pi, steps=256)
    spiked = grid.midpoints()[100]

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        hams = h0 + h1 * np.cos(ts) + h2 * np.sin(ts)
        return hams * np.where(spike & (ts == spiked), 100.0, 1.0)

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)
    psis = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    expected, plans = matmul_states(sched, psis, grid)
    unitary = [k for k, plan in enumerate(plans) if isinstance(plan, np.ndarray)]
    if dim < evolution._SERIES_MIN_DIM:
        assert len(unitary) == grid.steps
    else:
        assert unitary == ([100] if spike else [])
    assert same_bits(all_states(propagate(sched, psis, grid)), expected)
    assert same_bits(propagate(sched, psis[1], grid).states, expected[1])


# --- dim-2 sampled blocks within a scan block -------------------------------


def one_stack_unitaries(hams, tau):
    """The dim-2 closed form of hilbert._exponentials, with its upper
    off-diagonal entry as one expression, rot * conj(h10), whose temporary
    numpy elides from 2^14 matrices up."""
    h00, h11, h10 = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
    out = hilbert._empty_2x2(hams.shape[:1])
    e00, e01, e10, e11 = out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1]
    hz, r, r_tau, sinc = np.empty((4, hams.shape[0]))
    np.multiply(0.5, np.subtract(h00, h11, out=hz), out=hz)
    np.hypot(hz, np.abs(h10, out=r), out=r)
    np.multiply(r, tau, out=r_tau)
    np.divide(np.sin(r_tau, out=sinc), r, out=sinc, where=r_tau != 0.0)
    sinc[r_tau == 0.0] = tau
    phase = np.exp(np.multiply(-0.5j * tau, np.add(h00, h11, out=r), out=e01), out=e00)
    diag = np.multiply(phase, np.cos(r_tau, out=r_tau), out=e11)
    rot = np.multiply(np.multiply(-1j, sinc, out=e10), phase, out=e01)
    rot_hz = np.multiply(rot, hz, out=e10)
    np.add(diag, rot_hz, out=e00)
    np.subtract(diag, rot_hz, out=e11)
    np.multiply(rot, h10, out=e10)
    out[:, 0, 1] = rot * h10.conj()
    return out


@pytest.mark.parametrize("count", [5_000, 20_000])
def test_dim2_unitaries_of_pieces_keep_the_bits_of_one_stack(count):
    # pieces of a block's stack, written into its buffer with the block's
    # count as `stack`, give the bits of one_stack_unitaries over the whole
    # block, on both sides of 2^14 matrices. One-matrix pieces are the case
    # to watch: numpy takes another loop for a one-element product in place,
    # which moved the upper off-diagonal entry's last bit in about a third
    # of these matrices when the elided order was formed in place
    rng = np.random.default_rng(count)
    a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    hams = a + a.conj().swapaxes(-1, -2)
    expected = one_stack_unitaries(hams, 0.1)
    for piece in (1, 3, 16_384):
        got = hilbert._empty_2x2((count,))
        for lo in range(0, count, piece):
            hilbert._step_unitaries(hams[lo : lo + piece], 0.1, 1.0, None, got[lo : lo + piece], stack=count)
        assert same_bits(got, expected), piece


def one_stack_states(sched, psis, grid, hbar):
    """Dim-2 states with each scan block sampled as one stack, its unitaries
    from one_stack_unitaries, then scanned and applied as propagate does."""
    states = np.empty((len(psis), grid.steps + 1, 2), dtype=complex)
    states[:, 0] = psis
    mids = grid.midpoints()
    for pos in range(0, grid.steps, evolution._SCAN_BLOCK_STEPS):
        take = min(evolution._SCAN_BLOCK_STEPS, grid.steps - pos)
        prefixes = evolution._prefix_products(one_stack_unitaries(sched.sample(mids[pos : pos + take]), grid.dt / hbar))
        for row in states:
            np.einsum("kij,j->ki", prefixes, row[pos], out=row[pos + 1 : pos + take + 1])
    return states


def report_bits(report):
    return [repr(getattr(report, name)) for name in report.__dataclass_fields__]


@pytest.mark.parametrize("steps", [16_383, 16_384, 16_385, 59_048, 65_536, 65_537, 131_073])
def test_dim2_sampled_blocks_keep_the_bits_of_one_stack_per_scan_block(rng, monkeypatch, steps):
    # the block edges: one sampled block and its one-step tail, the longest
    # sweep row, a full scan block, and one and two of them with a one-step
    # tail; both spin branches as one block, and a random dim-2 schedule
    # from a complex start. The noncyclic reports of the one-stack states are
    # taken with nodes cut as the scan block is
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-3)
    spin = spin_model.schedule(params)
    branches = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in (+1, -1)])
    start = rng.normal(size=2) + 1j * rng.normal(size=2)
    cases = [
        (spin, branches, TimeGrid(t_end=params.period, steps=steps), params.hbar),
        (random_periodic_schedule(rng, 2), start[None] / np.linalg.norm(start), TimeGrid(t_end=2 * np.pi, steps=steps), 1.0),
    ]
    results = []
    for sched, psis, grid, hbar in cases:
        trajs = propagate(sched, psis, grid, hbar=hbar)
        single = propagate(sched, psis[-1], grid, hbar=hbar)
        reports = [report_bits(phases.noncyclic_geometric_phase(traj, sched, hbar=hbar)) for traj in trajs]
        results.append((all_states(trajs), single.states, reports))
    monkeypatch.setattr(phases, "_block_steps", lambda dim: evolution._SCAN_BLOCK_STEPS)
    for (sched, psis, grid, hbar), (states, single, reports) in zip(cases, results):
        expected = one_stack_states(sched, psis, grid, hbar)
        assert same_bits(states, expected)
        assert same_bits(single, expected[-1])
        assert reports == [
            report_bits(phases.noncyclic_geometric_phase(Trajectory(grid=grid, states=row), sched, hbar=hbar))
            for row in expected
        ]


def test_no_dim2_sample_exceeds_one_block_in_a_sweep_row(monkeypatch):
    # a sweep row at eta = 1e-4 (186,764 steps: two full scan blocks and a
    # third of 55,692), through propagate and the node pass of its phases
    sample = HamiltonianSchedule.sample
    calls = []

    def counted(self, ts):
        calls.append((self.dim, len(ts)))
        return sample(self, ts)

    monkeypatch.setattr(HamiltonianSchedule, "sample", counted)
    row = sweep.run_point(np.pi / 3, 1e-4)
    assert row.steps_used == 186_764
    block = evolution._block_steps(2)
    assert {dim for dim, _ in calls} == {2}
    assert max(count for _, count in calls) == block
    # every midpoint and every node is sampled once
    assert sum(count for _, count in calls) == 2 * row.steps_used + 1


def overflow_and_defect_schedule(overflow_at, defect_at):
    """A dim-2 schedule on midpoints k + 1/2 whose exponential overflows at
    midpoint `overflow_at` (a finite H whose trace overflows), and that is
    not Hermitian at midpoint `defect_at`."""
    def many(ts):
        ts = np.asarray(ts, dtype=float)
        hams = np.zeros((ts.size, 2, 2), dtype=complex)
        hams[:, 0, 0], hams[:, 1, 1] = 1.0, -1.0
        hams[ts == overflow_at + 0.5] = np.diag([1e308, 1e308])
        hams[ts == defect_at + 0.5, 0, 1] = 1.0
        return hams

    return HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=2)


@pytest.mark.parametrize(
    "overflow_at, defect_at, message",
    [
        (100, 20_000, r"too large for its step at t = 100\.5:"),
        (20_000, 100, r"not Hermitian at t = 100\.5:"),
        (100, 200, r"not Hermitian at t = 200\.5:"),
    ],
    ids=["overflow-in-an-earlier-block", "defect-in-an-earlier-block", "one-block"],
)
def test_dim2_error_names_a_midpoint_of_the_first_failing_block(overflow_at, defect_at, message):
    # 40,000 steps of dt = 1, in one scan block of three sampled blocks: the
    # blocks are checked in grid order, each screened before its exponentials
    assert evolution._block_steps(2) < 20_000 < evolution._SCAN_BLOCK_STEPS
    sched = overflow_and_defect_schedule(overflow_at, defect_at)
    with pytest.raises(NonHermitianError, match=message):
        propagate(sched, np.array([1.0, 0.0]), TimeGrid(t_end=40_000.0, steps=40_000))


def test_block_rows_may_be_strided(rng):
    sched = random_periodic_schedule(rng, 4)
    psis = np.linalg.eigh(sched.evaluate(0.0))[1].T  # rows are eigenvector columns
    assert not psis[0].flags.contiguous
    assert_block_equals_single_calls(sched, psis, TimeGrid(t_end=1.0, steps=32))


def test_block_non_hermitian_names_first_bad_midpoint():
    grid = TimeGrid(t_end=1.0, steps=16)
    bad = HamiltonianSchedule(evaluate=lambda t: _SIGMA_Z if t < 0.5 else np.array([[0, 1], [0, 0]]), dim=2)
    with pytest.raises(NonHermitianError, match=r"at t = 0\.53125:"):
        propagate(bad, np.eye(2), grid)


def test_block_input_errors():
    grid = TimeGrid(t_end=1.0, steps=16)
    sched = static_schedule(_SIGMA_Z)
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


# --- callers on a thread pool -------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3, None], ids=["2", "3", "this-machine"])
@pytest.mark.parametrize("dim", [3, 8, 17, 64])
def test_propagation_does_not_depend_on_calling_thread(rng, monkeypatch, workers, dim):
    # propagate keeps nothing between calls: the same call made at once from
    # every thread of a caller's pool (None: one thread per CPU of this
    # machine), with a short switch interval so that they interleave, gives
    # each thread the bits of one call on this thread
    workers = workers or os.cpu_count() or 1
    sched = random_periodic_schedule(rng, dim)
    psis = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    # steps 1, 2 and workers + 1 give stacks of that many matrices; 50 steps
    # with a 20-step block give three blocks. Over 2 pi, every step from dim
    # 16 up has ||H||_F dt above 1 and takes its unitary; over 8 / dim, every
    # step is a series
    cases = [(psis[0], 1, None, 2 * np.pi), (psis, 2, None, 2 * np.pi), (psis[1], workers + 1, None, 2 * np.pi),
             (psis, 50, None, 2 * np.pi), (psis, 50, None, 8 / dim),
             (psis, 50, dim * dim * 20, 2 * np.pi), (psis, 50, dim * dim * 20, 8 / dim)]
    interval = sys.getswitchinterval()
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for psi, steps, scan_elements, t_end in cases:
            if scan_elements is not None:
                monkeypatch.setattr(evolution, "_STEP_BLOCK_ELEMENTS", scan_elements)
            grid = TimeGrid(t_end=t_end, steps=steps)
            expected = all_states(propagate(sched, psi, grid))
            sys.setswitchinterval(1e-5)
            try:
                pooled = list(pool.map(lambda _: all_states(propagate(sched, psi, grid)), range(workers)))
            finally:
                sys.setswitchinterval(interval)
            for states in pooled:
                assert np.array_equal(states, expected), (steps, scan_elements, t_end)


def propagate_in_child(sched, psi, grid, expected):
    if not np.array_equal(propagate(sched, psi, grid).states, expected):
        raise SystemExit(3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_propagation_does_not_depend_on_fork(rng):
    # the parent propagates on a thread pool whose threads are still alive at
    # the fork; the child, which has none of them, propagates to the same bits
    # through the eigh unitaries (dim 8) and the step series (dim 17 over 8 / 17)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for dim, t_end in ((8, 2 * np.pi), (17, 8 / 17)):
            sched = random_periodic_schedule(rng, dim)
            psi = np.eye(dim)[0]
            grid = TimeGrid(t_end=t_end, steps=64)
            expected = pool.submit(lambda: propagate(sched, psi, grid).states).result()
            child = multiprocessing.get_context("fork").Process(
                target=propagate_in_child, args=(sched, psi, grid, expected)
            )
            child.start()
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
                pytest.fail(f"forked child hung at dim {dim}")
            assert child.exitcode == 0, dim
