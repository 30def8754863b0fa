import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holonomy_lab import evolution, hilbert
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError
from holonomy_lab.tolerances import DEFAULT

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([np.eye(2, dtype=complex), _SIGMA_X, _SIGMA_Y, _SIGMA_Z])


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_inner_orthogonal_basis_vectors():
    assert hilbert.inner([1, 0], [0, 1]) == 0


def test_inner_self_overlap():
    assert hilbert.inner([1, 0], [1, 0]) == 1


def test_inner_linear_in_second_slot(rng):
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    assert hilbert.inner(a, 1j * a) == pytest.approx(1j, abs=1e-14)


def test_inner_conjugate_linear_in_first_slot(rng):
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    c = 0.3 - 1.1j
    assert hilbert.inner(c * a, b) == pytest.approx(np.conj(c) * hilbert.inner(a, b), abs=1e-12)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hilbert.inner([1, 0], [1, 0, 0])


def test_expi_zero_hamiltonian_gives_identity():
    u = hilbert.expi_hermitian(np.zeros((3, 3)), dt=0.7)
    assert np.allclose(u, np.eye(3), atol=1e-15)


def test_expi_sigma_z_half_turn():
    u = hilbert.expi_hermitian(_SIGMA_Z, dt=np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-14)


def test_expi_sigma_x_quarter_turn():
    u = hilbert.expi_hermitian(_SIGMA_X, dt=np.pi / 2)
    assert np.allclose(u, -1j * _SIGMA_X, atol=1e-14)


def test_expi_rejects_non_hermitian():
    with pytest.raises(NonHermitianError, match="not Hermitian"):
        hilbert.expi_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), dt=0.1)


def test_expi_rejects_non_finite_dt():
    with pytest.raises(ValueError):
        hilbert.expi_hermitian(_SIGMA_Z, dt=np.inf)


@pytest.mark.parametrize("dt", [1j, np.complex128(0.1), "0.1"])
def test_expi_rejects_dt_that_is_not_a_real_scalar(dt):
    # np.isfinite(1j) is true: a complex dt used to give a non-unitary matrix
    with pytest.raises(ValueError, match="dt must be a real finite scalar"):
        hilbert.expi_hermitian(np.diag([1.0, 2.0, 3.0]), dt)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    coeffs=arrays(np.float64, (6, 4), elements=st.floats(-1.0, 1.0)),
    kind=st.sampled_from(["general", "diagonal", "scalar"]),
    log_scale=st.floats(-3.0, 3.0),
    log_norm_tau=st.floats(-6.0, 3.0),
    sign=st.sampled_from([1.0, -1.0]),
    hbar=st.floats(0.1, 10.0),
)
def test_dim2_step_unitaries_match_eigh(coeffs, kind, log_scale, log_norm_tau, sign, hbar):
    # H = h0 I + h.sigma; diagonal means hx = hy = 0, scalar means H = h0 I (r = 0)
    if kind != "general":
        coeffs[:, 1:3] = 0.0
    if kind == "scalar":
        coeffs[:, 3] = 0.0
    hams = 10.0**log_scale * np.einsum("ka,aij->kij", coeffs, PAULI)
    norms = np.linalg.norm(hams, ord=2, axis=(-2, -1))
    dt = sign * hbar * 10.0**log_norm_tau / (norms.max() or 1.0)  # max ||H|| |tau| up to 1e3
    u = hilbert._step_unitaries(hams, dt, hbar)
    tau = dt / hbar
    evals, evecs = np.linalg.eigh(hams)
    expected = evecs @ (np.exp(-1j * evals * tau)[:, :, None] * evecs.conj().swapaxes(-1, -2))
    errors = np.max(np.abs(u - expected), axis=(-2, -1))
    assert np.all(errors <= 1e-14 * np.maximum(1.0, norms * abs(tau)))


def einsum_step_unitaries(hams, dt, hbar):
    """V diag(exp(-i lambda dt / hbar)) V^H as one three-operand einsum, the
    assembly that dims other than 2 used before the batched matmul."""
    evals, evecs = np.linalg.eigh(hams)
    phases = np.exp(-1j * evals * (dt / hbar))
    return np.einsum("kij,kj,klj->kil", evecs, phases, evecs.conj())


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    dim=st.integers(3, 8),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    log_norm_tau=st.floats(-6.0, 3.0),
    sign=st.sampled_from([1.0, -1.0]),
    hbar=st.floats(0.1, 10.0),
)
@example(dim=32, count=4, seed=7, log_scale=0.5, log_norm_tau=3.0, sign=-1.0, hbar=0.1)
def test_step_unitaries_match_einsum_assembly(dim, count, seed, log_scale, log_norm_tau, sign, hbar):
    rng = np.random.default_rng(seed)
    hams = 10.0**log_scale * np.stack([random_hermitian(rng, dim) for _ in range(count)])
    before = hams.copy()
    norms = np.linalg.norm(hams, ord=2, axis=(-2, -1))
    dt = sign * hbar * 10.0**log_norm_tau / norms.max()  # max ||H|| |tau| up to 1e3
    u = hilbert._step_unitaries(hams, dt, hbar)
    assert np.array_equal(hams, before)
    # measured at most 3.5 eps over 3000 draws (dim 32 included); 16 eps leaves headroom
    errors = np.max(np.abs(u - einsum_step_unitaries(hams, dt, hbar)), axis=(-2, -1))
    assert np.all(errors <= 16 * np.finfo(float).eps * np.maximum(1.0, norms * abs(dt / hbar)))
    assert max(hilbert.unitarity_defect(m) for m in u) <= 1e-13


def series_action(hams, dt, hbar, psis):
    """Plans of _step_series and exp(-i H_k dt / hbar) psis[k] from _apply_step."""
    count, dim = hams.shape[:2]
    gens = np.empty((count, dim, dim + 1), dtype=complex)
    plans = hilbert._step_series(hams, dt, hbar, out=gens)
    work = hilbert._series_work(dim)
    out = np.empty_like(psis)
    for k, plan in enumerate(plans):
        hilbert._apply_step(plan, gens[k], psis[k], out[k], work)
    return plans, out


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    dim=st.integers(evolution._SERIES_MIN_DIM, 64),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    log_norm=st.floats(-6.0, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
    hbar=st.floats(0.1, 10.0),
)
@example(dim=16, count=2, seed=1, log_scale=0.0, log_norm=1.0, sign=-1.0, hbar=0.1)
@example(dim=64, count=3, seed=2, log_scale=0.0, log_norm=0.0, sign=1.0, hbar=1.0)
def test_series_action_matches_eigh_exponential(dim, count, seed, log_scale, log_norm, sign, hbar):
    rng = np.random.default_rng(seed)
    hams = 10.0**log_scale * np.stack([random_hermitian(rng, dim) for _ in range(count)])
    dt = sign * hbar * 10.0**log_norm / np.linalg.norm(hams, axis=(-2, -1)).max()  # max ||A_k||_F up to 10
    psis = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    # an upper triangle and imaginary diagonal off by a quarter of the
    # screen's tolerance; hams is their exactly Hermitian lower-triangle completion
    noise = np.triu(rng.normal(size=hams.shape) + 1j * rng.normal(size=hams.shape), 1)
    noise += 1j * rng.normal(size=(count, dim))[:, :, None] * np.eye(dim)
    allowed = DEFAULT.hermiticity * max(1.0, np.abs(hams).max())
    skewed = hams + 0.25 * allowed * noise / np.abs(noise).max()
    hilbert._require_hermitian(skewed, DEFAULT)
    before = skewed.copy()
    plans, got = series_action(skewed, dt, hbar, psis)
    assert np.array_equal(got, series_action(hams, dt, hbar, psis)[1])
    assert np.array_equal(skewed, before)
    tau = dt / hbar
    # the rule: the series while ||A_k||_F <= 1 (away from 1, where the
    # test's norm and the library's may round apart), else the eigh unitary
    nus = np.linalg.norm(hams, axis=(-2, -1)) * abs(tau)
    series = np.array([isinstance(plan, int) for plan in plans])
    clear = np.abs(nus - 1.0) > 1e-9
    assert np.array_equal(series[clear], nus[clear] <= 1.0)
    for k in np.flatnonzero(~series):
        assert np.array_equal(got[k], np.matmul(hilbert._step_unitaries(hams[k : k + 1], dt, hbar)[0], psis[k]))
    evals, evecs = np.linalg.eigh(hams[series])
    expected = np.einsum("kij,kj,klj,kl->ki", evecs, np.exp(-1j * evals * tau), evecs.conj(), psis[series])
    # measured at most 16 eps over 2000 draws, most of it the eigh reference's
    # own (against scipy's expm the series stayed within 6 eps); 32 eps leaves
    # headroom. Series steps have ||H|| |tau| <= ||A||_F <= 1
    errors = np.linalg.norm(got[series] - expected, axis=1)
    assert np.all(errors <= 32 * np.finfo(float).eps)


@pytest.mark.parametrize("dim", [16, 64])
def test_series_plans_follow_the_norm_rule(rng, dim):
    # ||A_k||_F from 0 to 4.95 over the steps, each step planned on its own:
    # the degree of the series up to 1, the eigh unitary above
    dt, hbar = 0.7, 1.3
    target = np.concatenate([[0.0], np.logspace(-8.0, np.log10(1.0 - 1e-9), 24), np.linspace(1.05, 4.95, 14)])
    hams = np.stack([random_hermitian(rng, dim) for _ in range(target.size)])
    hams *= (target * (hbar / dt) / np.linalg.norm(hams, axis=(-2, -1)))[:, None, None]
    plans = hilbert._step_series(hams, dt, hbar, out=np.empty((target.size, dim, dim + 1), dtype=complex))
    unitaries = hilbert._step_unitaries(hams, dt, hbar)
    for h, plan, u in zip(hams, plans, unitaries):
        nu = np.linalg.norm(h) * dt / hbar
        if nu > 1.0:
            assert isinstance(plan, np.ndarray) and np.array_equal(plan, u)
            continue
        tail = lambda m: nu ** (m + 1) / math.factorial(m + 1) / (1.0 - nu / (m + 2))
        assert plan == next(m for m in itertools.count(1) if tail(m) < 2.0**-53)
    assert [type(plan) for plan in plans] == [int] * 25 + [np.ndarray] * 14
    assert plans[24] == hilbert._SERIES_MAX_DEGREE == 18
    # a finite H whose generator's norm overflows to inf (its squared entries
    # pass 1e308) takes its unitary, without a RuntimeWarning (which fails a test)
    huge = 1e160 * random_hermitian(rng, dim)[None]
    (plan,) = hilbert._step_series(huge, dt, hbar, out=np.empty((1, dim, dim + 1), dtype=complex))
    assert np.array_equal(plan, hilbert._step_unitaries(huge, dt, hbar)[0])


@pytest.mark.parametrize("dim", [16, 32, 64])
def test_dense_driven_steps_are_all_series(rng, dim):
    # schedules like the dense-driven benchmark's, H0 + H1 cos t + H2 sin t
    # with spectral norms 1, 0.5 and 0.5 over 256 steps of 2 pi, have
    # ||A||_F <= 2 sqrt(dim) dt <= 0.4 up to dim 64, so every step is a series;
    # so is the worst case, a step with every eigenvalue at +-2
    parts = [random_hermitian(rng, dim) for _ in range(3)]
    h0, h1, h2 = (h * (n / np.linalg.norm(h, 2)) for h, n in zip(parts, (1.0, 0.5, 0.5)))
    ts = (np.arange(256) + 0.5) * (2 * np.pi / 256)
    hams = h0 + h1 * np.cos(ts)[:, None, None] + h2 * np.sin(ts)[:, None, None]
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    worst = (q * np.where(np.arange(dim) % 2, 2.0, -2.0)) @ q.conj().T
    hams = np.concatenate([hams, worst[None]])
    plans = hilbert._step_series(hams, 2 * np.pi / 256, 1.0, out=np.empty((257, dim, dim + 1), dtype=complex))
    assert all(isinstance(plan, int) for plan in plans)


@pytest.mark.parametrize("dim", [16, 64])
def test_series_only_block_makes_no_eigh_call(rng, dim, monkeypatch):
    # a block whose steps are all series computes no unitary; its plans and
    # generators are those the same steps get beside a step that takes eigh
    dt, hbar = 0.7, 1.3
    target = np.array([0.0, 1e-6, 0.3, 0.9, 1.0 - 1e-9, 3.0])
    hams = np.stack([random_hermitian(rng, dim) for _ in range(target.size)])
    hams *= (target * (hbar / dt) / np.linalg.norm(hams, axis=(-2, -1)))[:, None, None]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    mixed_gens = np.empty((target.size, dim, dim + 1), dtype=complex)
    mixed = hilbert._step_series(hams, dt, hbar, out=mixed_gens)
    assert calls == [1] and isinstance(mixed[-1], np.ndarray)
    calls.clear()
    gens = np.empty((target.size - 1, dim, dim + 1), dtype=complex)
    plans = hilbert._step_series(hams[:-1], dt, hbar, out=gens)
    assert calls == []
    assert plans == mixed[:-1] and all(type(plan) is int for plan in plans)
    assert gens[:, :, :dim].tobytes() == mixed_gens[:-1, :, :dim].tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, -np.inf, 1j, np.complex128(1.0), "a", None])
def test_expi_rejects_bad_hbar(rng, dim, hbar):
    with pytest.raises(ValueError, match="hbar"):
        hilbert.expi_hermitian(random_hermitian(rng, dim), 0.1, hbar=hbar)


def test_unitarity_defect_requires_square_matrix():
    with pytest.raises(DimensionMismatchError, match="square"):
        hilbert.unitarity_defect([1, 0])
    with pytest.raises(DimensionMismatchError, match="square"):
        hilbert.unitarity_defect(np.zeros((2, 3)))


def hermiticity_defect(m) -> float:
    """max|M - M^H| of one square matrix, by the propagation screen's formula."""
    return float(hilbert._hermiticity_defects(np.asarray(m, dtype=complex)[None])[0][0])


def test_hermiticity_defect_examples():
    assert hermiticity_defect(_SIGMA_Y) == 0
    assert hermiticity_defect(np.array([[0, 1], [0, 0]])) == 1
    # non-finite entries, without a RuntimeWarning: inf - inf on the diagonal is NaN
    assert np.isnan(hermiticity_defect(np.diag([np.inf, 0.0, 0.0])))
    assert hermiticity_defect(np.array([[0, np.inf], [0, 0]])) == np.inf
    assert np.isnan(hermiticity_defect(np.array([[0, np.nan], [0, 0]])))


def test_hermiticity_defect_doubles_antihermitian_part(rng):
    h = random_hermitian(rng, 4)
    eps = 1e-3
    assert hermiticity_defect(h + 1j * eps * np.eye(4)) == pytest.approx(2 * eps, rel=1e-12)


def test_unitarity_of_expi_random(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(rng, dim)
        u = hilbert.expi_hermitian(h, dt=float(rng.uniform(-3, 3)))
        assert hilbert.unitarity_defect(u) <= 1e-12


def test_expi_semigroup(rng):
    for _ in range(10):
        h = random_hermitian(rng, 5)
        dt1, dt2 = rng.uniform(-2, 2, size=2)
        u = hilbert.expi_hermitian(h, dt1) @ hilbert.expi_hermitian(h, dt2)
        assert np.max(np.abs(u - hilbert.expi_hermitian(h, dt1 + dt2))) <= 1e-11


def test_inner_invariant_under_unitary(rng):
    h = random_hermitian(rng, 6)
    u = hilbert.expi_hermitian(h, dt=1.3)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert hilbert.inner(u @ a, u @ b) == pytest.approx(hilbert.inner(a, b), abs=1e-12)


def test_dimension_cap():
    with pytest.raises(DimensionMismatchError, match="cap"):
        hilbert._as_state(np.ones(65))


@pytest.mark.parametrize("shape", [(2, 2), (), (0,)], ids=["2-d", "0-d", "empty"])
def test_state_must_be_a_non_empty_vector(shape):
    with pytest.raises(DimensionMismatchError, match=r"^state must be a 1-d vector, got shape "):
        hilbert._as_state(np.ones(shape))


def test_non_finite_state_rejected():
    with pytest.raises(ValueError):
        hilbert._as_state([1.0, np.nan])


def test_strided_state_and_operator_accepted(rng):
    h = random_hermitian(rng, 4)
    column = np.linalg.eigh(h)[1][:, 0]
    assert not column.flags.contiguous
    assert np.array_equal(hilbert._as_state(column), column)
    assert np.array_equal(hilbert._check_normalized(column), column)
    assert not h.T.flags.c_contiguous
    assert np.array_equal(hilbert._as_operator(h.T), h.T)


def test_non_finite_strided_input_rejected():
    a = np.ones((3, 3), dtype=complex)
    a[1, 0] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        hilbert._as_state(a[:, 0])
    with pytest.raises(ValueError, match="non-finite"):
        hilbert._as_operator(a.T)


def general_defects(hams):
    """max|H - H^H| and max|H| per matrix by the formula every dim other than 2 takes."""
    with np.errstate(invalid="ignore"):
        defects = np.max(np.abs(hams - hams.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    return defects, np.max(np.abs(hams), axis=(-2, -1), initial=0.0)


def pad_to_dim3(hams):
    """The same matrices bordered by zeros, so the screen takes its general path."""
    out = np.zeros(hams.shape[:-2] + (3, 3), dtype=complex)
    out[..., :2, :2] = hams
    return out


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, 1.0),
              complex(np.nan, 0.0), complex(np.inf, np.nan), complex(-np.inf, -np.inf)]


def dim2_screen_stacks(rng):
    """Random Hermitian and non-Hermitian dim-2 stacks, then stacks with a
    non-finite value in each of the four entries, some behind a non-Hermitian
    matrix."""
    k = 2000
    a = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    a *= 10.0 ** rng.uniform(-300, 300, size=(k, 1, 1))
    hermitian = 0.5 * (a + a.conj().swapaxes(-1, -2))
    yield "hermitian", hermitian
    yield "general", a
    # anti-Hermitian parts straddling tol.hermiticity * max(1, max|H|)
    near = hermitian / np.max(np.abs(hermitian), axis=(-2, -1), keepdims=True)
    near = near + 1j * 1e-12 * rng.uniform(0.0, 2.0, size=(k, 1, 1)) * np.eye(2)
    yield "near-threshold", near
    base = hermitian[:12] / np.max(np.abs(hermitian[:12]), axis=(-2, -1), keepdims=True)
    for i in range(2):
        for j in range(2):
            for bad in NON_FINITE:
                for behind in (False, True):
                    h = base.copy()
                    h[7, i, j] = bad
                    h[9, j, i] = bad
                    if behind:
                        h[4, 0, 1] += 1e-3
                    yield f"H{i}{j}={bad}{'-behind' if behind else ''}", h


def test_dim2_screen_values_equal_general_formula(rng):
    for name, hams in dim2_screen_stacks(rng):
        defects, scale = hilbert._hermiticity_defects(hams)
        expected_defects, expected_scale = general_defects(hams)
        assert np.array_equal(defects, expected_defects, equal_nan=True), name
        assert np.array_equal(scale, expected_scale, equal_nan=True), name


def test_dim2_screen_raises_as_general_screen(rng):
    for name, hams in dim2_screen_stacks(rng):
        times = np.linspace(0.0, 1.0, len(hams))
        outcomes = []
        for stack in (hams, pad_to_dim3(hams)):
            try:
                hilbert._require_hermitian(stack, DEFAULT, times=times)
                outcomes.append(None)
            except NonHermitianError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], name
        if name.startswith("H"):
            first_bad = 4 if name.endswith("-behind") else 7
            assert f"at t = {float(times[first_bad])!r}:" in outcomes[0][1], name


def general_screen(hams, times, tol=DEFAULT):
    """(error class, message) of the screen's rule on general_defects, or
    None; a defect or scale that overflows is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        defects, scale = general_defects(hams)
        allowed = tol.hermiticity * np.maximum(1.0, scale)
    bad = np.flatnonzero(~np.isfinite(scale) | (defects > allowed))
    if not bad.size:
        return None
    k = int(bad[0])
    if not np.isfinite(scale[k]):
        if np.isfinite(hams[k]).all():
            return NonHermitianError, f"Hamiltonian too large at t = {float(times[k])!r}: max|H| overflows"
        return NonHermitianError, f"Hamiltonian not finite at t = {float(times[k])!r}: max|H| = {scale[k]}"
    return NonHermitianError, (
        f"Hamiltonian not Hermitian at t = {float(times[k])!r}: max|H - H^H| = {defects[k]:.3e} "
        f"(allowed {allowed[k]:.3e})"
    )


def screen_outcome(hams, times, tol=DEFAULT):
    try:
        hilbert._require_hermitian(hams, tol, times=times)
    except NonHermitianError as exc:
        return type(exc), str(exc)
    return None


def gather_scatter_generators(hams, dt, hbar):
    """A_k = -i H_k dt / hbar completed from the lower triangle and the real
    diagonal by a triu_indices gather and scatter, in a (k, dim, dim + 1)
    buffer as _step_series writes it."""
    count, dim = hams.shape[:2]
    gens = np.empty((count, dim, dim + 1), dtype=complex)[:, :, :dim]
    np.multiply(hams, -1j * (dt / hbar), out=gens)
    i, j = np.triu_indices(dim, 1)
    gens[:, i, j] = -gens[:, j, i].conj()
    diag = np.arange(dim)
    gens.real[:, diag, diag] = 0.0
    return gens


def same_bits(a, b):
    """Equal as floats, NaN where NaN, and with equal signs, signed zeros included."""
    fa, fb = np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float)
    return np.array_equal(fa, fb, equal_nan=True) and np.array_equal(np.signbit(fa), np.signbit(fb))


def general_screen_stacks(rng, dim):
    """Stacks of 12 matrices at a dim above 2: Hermitian; off the screen's
    tolerance by a quarter either way and right at it, on the diagonal and
    off it, from matrix 5 on; two with signed zeros on the diagonal and in
    both strict triangles, the second real; with a non-finite value in the lower
    triangle, the upper triangle or the diagonal of matrix 7, some behind a
    non-Hermitian matrix 4."""
    k = 12
    hermitian = np.stack([random_hermitian(rng, dim) for _ in range(k)])
    yield "hermitian", hermitian
    # entries below 1/2 and a real 1 at H00, so max|H| = 1 and the allowed defect is tol.hermiticity
    unit = hermitian / (2 * np.max(np.abs(hermitian), axis=(-2, -1), keepdims=True))
    unit[:, 0, 0] = 1.0
    for factor in (0.75, 1.0, 1.25):
        diagonal = unit.copy()
        diagonal.imag[5:, 1, 1] = 0.5 * factor * DEFAULT.hermiticity  # H11 - conj(H11) = 2i Im H11
        yield f"diagonal-defect-{factor}-tol", diagonal
        off = unit.copy()
        off[5:, 2, 1] += factor * DEFAULT.hermiticity * np.exp(1j * rng.uniform(0, 2 * np.pi, size=k - 5))
        yield f"off-diagonal-defect-{factor}-tol", off
    signed = unit.copy()
    lower = np.tril(rng.random((k, dim, dim)) < 0.5, -1)
    zeros = lambda shape: rng.choice([0.0, -0.0], size=shape)
    for part in (signed.real, signed.imag):
        part[lower] = zeros(lower.sum())
        part[lower.swapaxes(-1, -2)] = zeros(lower.sum())
    signed.imag[:, np.arange(dim), np.arange(dim)] = zeros((k, dim))
    yield "signed-zeros", signed
    real = unit.real.astype(complex)
    real.imag[...] = zeros(real.shape)
    yield "real-signed-zeros", real
    for where, entry in (("lower", (2, 1)), ("upper", (1, 2)), ("diagonal", (1, 1))):
        for bad in NON_FINITE:
            for behind in (False, True):
                h = unit.copy()
                h[(7,) + entry] = bad
                if behind:
                    h[4, 0, 1] += 1e-3
                yield f"{where}={bad}{'-behind' if behind else ''}", h


@pytest.mark.parametrize("dim", [3, 16, 17, 64])
def test_general_screen_equals_subtraction_of_transposed_operand(rng, dim):
    # H^H written as its own array gives the defects and scales of
    # H - H.conj().swapaxes(-1, -2) bit for bit, the same error class, first
    # bad t and message, and leaves the samples as they were
    times = np.linspace(0.0, 1.0, 12)
    outcomes = {}
    for name, hams in general_screen_stacks(rng, dim):
        before = hams.copy()
        defects, scale = hilbert._hermiticity_defects(hams)
        expected_defects, expected_scale = general_defects(hams)
        assert same_bits(defects, expected_defects) and same_bits(scale, expected_scale), name
        outcomes[name] = screen_outcome(hams, times)
        assert outcomes[name] == general_screen(hams, times), name
        assert hams.tobytes() == before.tobytes(), name
    # the stacks straddle the threshold, and each error names the first bad matrix
    at = lambda k: f"at t = {float(times[k])!r}:"
    assert outcomes["diagonal-defect-1.0-tol"] is None
    for where in ("diagonal", "off-diagonal"):
        assert outcomes[f"{where}-defect-0.75-tol"] is None
        assert "not Hermitian " + at(5) in outcomes[f"{where}-defect-1.25-tol"][1]
    for name, outcome in outcomes.items():
        if "=" in name:
            assert at(4 if name.endswith("-behind") else 7) in outcome[1], name


@pytest.mark.parametrize("dim", [3, 16, 17, 64])
@pytest.mark.parametrize("dt, hbar", [(0.01, 1.0), (-0.3, 0.7)])
def test_series_generators_equal_gather_scatter_completion(rng, dim, dt, hbar):
    # the upper triangle copied from -A^H written as its own array equals
    # the triu_indices gather and scatter bit for bit, signs of zeros and
    # NaN included, and the samples stay unwritten
    for name, hams in general_screen_stacks(rng, dim):
        before = hams.copy()
        out = np.empty((len(hams), dim, dim + 1), dtype=complex)
        # the screen stops a non-finite stack before propagate plans it; here
        # its steps go to eigh, which may refuse them once the generators are written
        with np.errstate(all="ignore"):
            try:
                hilbert._step_series(hams, dt, hbar, out=out)
            except np.linalg.LinAlgError:
                assert not np.isfinite(hams).all(), name
            expected = gather_scatter_generators(hams, dt, hbar)
        assert same_bits(out[:, :, :dim], expected), name
        assert hams.tobytes() == before.tobytes(), name


def screened(hams, tol, times):
    """screen_outcome, and whether the screen took its exact pass."""
    calls = []
    exact = hilbert._hermiticity_defects
    with mock.patch.object(hilbert, "_hermiticity_defects", lambda *a: calls.append(1) or exact(*a)):
        outcome = screen_outcome(hams, times, tol)
    return outcome, bool(calls)


# defects relative to the allowed tol.hermiticity * max(1, max|H|), and an absolute one
SCREEN_DEFECTS = {"zero": 0.0, "quarter": 0.25, "below": 1.0 - 2.0**-40, "above": 1.0 + 2.0**-40, "1e-170": None}
SCREEN_TOLERANCES = [DEFAULT.hermiticity, 0.0, 1e-200, -1e-12]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    dim=st.integers(3, 16),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.sampled_from([-3.0, -1.0, 0.0, 2.0, 100.0, 154.0, 200.0, 300.0]),
    defect=st.sampled_from(sorted(SCREEN_DEFECTS)),
    diagonal=st.booleans(),
    bad=st.none() | st.sampled_from(NON_FINITE),
    tol=st.sampled_from(SCREEN_TOLERANCES),
)
@example(dim=3, count=2, seed=0, log_scale=0.0, defect="1e-170", diagonal=False, bad=None, tol=1e-200)
@example(dim=3, count=2, seed=0, log_scale=0.0, defect="above", diagonal=True, bad=None, tol=DEFAULT.hermiticity)
@example(dim=5, count=3, seed=1, log_scale=-3.0, defect="above", diagonal=False, bad=None, tol=DEFAULT.hermiticity)
@example(dim=5, count=3, seed=1, log_scale=0.0, defect="below", diagonal=True, bad=None, tol=DEFAULT.hermiticity)
@example(dim=16, count=1, seed=1, log_scale=0.0, defect="quarter", diagonal=True, bad=None, tol=DEFAULT.hermiticity)
def test_frobenius_test_decides_as_the_exact_pass(dim, count, seed, log_scale, defect, diagonal, bad, tol):
    # a stack that passes the Frobenius test would pass the exact pass too, and
    # every other stack gets the exact pass's error class, first bad t and
    # message: a defect in the last matrix, at 0, a quarter of, just below and
    # just above the allowed defect or at 1e-170, on the diagonal or off it,
    # entries scaled from 1e-3 to 1e300, a non-finite entry in the first
    # matrix, and a zero, tiny, negative or default tol.hermiticity
    rng = np.random.default_rng(seed)
    tol = DEFAULT.replace(hermiticity=tol)
    hams = np.stack([random_hermitian(rng, dim) for _ in range(count)])
    hams *= 10.0**log_scale / np.max(np.abs(hams), axis=(-2, -1), keepdims=True)
    size = SCREEN_DEFECTS[defect]
    size = 1e-170 if size is None else size * tol.hermiticity * max(1.0, 10.0**log_scale)
    if diagonal:
        hams[-1, 1, 1] += 0.5j * size  # H11 - conj(H11) = 2i Im H11
    else:
        hams[-1, 2, 0] += size * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if bad is not None:
        hams[0, rng.integers(dim), rng.integers(dim)] = bad
    times = np.linspace(0.0, 1.0, count)
    before = hams.copy()
    outcome, took_exact = screened(hams, tol, times)
    assert outcome == general_screen(hams, times, tol)
    assert hams.tobytes() == before.tobytes()
    # the Frobenius test passes a Hermitian stack of moderate entries, and a
    # defect of a quarter of tol.hermiticity, on its own
    if tol.hermiticity == DEFAULT.hermiticity and bad is None and (
        defect == "zero" and log_scale <= 100.0 or defect == "quarter" and log_scale <= 0.0
    ):
        assert not took_exact


def test_screen_of_a_finite_entry_whose_modulus_overflows_is_the_exact_pass(rng):
    # |1.5e308 (1 + i)| overflows, so the exact pass refuses this Hermitian
    # matrix, whose entries are finite, as too large; the Frobenius test,
    # whose skew part is zero, leaves it to that pass
    for dim in (3, 8):
        hams = np.zeros((2, dim, dim), dtype=complex)
        hams[1, 0, 1] = complex(1.5e308, 1.5e308)
        hams[1, 1, 0] = hams[1, 0, 1].conjugate()
        times = np.array([0.25, 0.5])
        outcome, took_exact = screened(hams, DEFAULT, times)
        assert outcome == general_screen(hams, times) == (
            NonHermitianError, "Hamiltonian too large at t = 0.5: max|H| overflows"
        )
        assert took_exact


@pytest.mark.parametrize("dim", [2, 3])
def test_finite_entry_whose_modulus_overflows_is_too_large(dim):
    # every entry is finite, so the refusal names the overflowing modulus,
    # not a non-finite entry, through expi_hermitian and propagate
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = complex(1.5e308, 1.5e308)
    h[1, 0] = h[0, 1].conjugate()
    message = r"Hamiltonian too large{}: max\|H\| overflows$"
    with pytest.raises(NonHermitianError, match=message.format("")):
        hilbert.expi_hermitian(h, 0.1)
    sched = evolution.HamiltonianSchedule(evaluate=lambda t: h, dim=dim)
    with pytest.raises(NonHermitianError, match=message.format(r" at t = 0\.125")):
        evolution.propagate(sched, np.eye(dim)[0], evolution.TimeGrid(t_end=1.0, steps=4))


OVERFLOWING_SKEW = {
    "dim2-off-diagonal": [[0, 1e308], [-1e308, 0]],
    "dim2-imaginary-diagonal": [[1e308j, 0], [0, 0]],
    "dim3-imaginary-diagonal": np.diag([1e308j, 0, 0]),
}


@pytest.mark.parametrize("h", OVERFLOWING_SKEW.values(), ids=OVERFLOWING_SKEW.keys())
def test_finite_matrix_whose_skew_part_overflows_is_not_hermitian(h):
    # H - H^H overflows to inf on finite entries: a NonHermitianError naming
    # the inf defect, not a RuntimeWarning (an error under the tests' filter)
    h = np.asarray(h, dtype=complex)
    message = r"not Hermitian{}: max\|H - H\^H\| = inf \(allowed 1\.000e\+296\)"
    with pytest.raises(NonHermitianError, match=message.format("")):
        hilbert.expi_hermitian(h, 0.1)
    sched = evolution.HamiltonianSchedule(evaluate=lambda t: h, dim=h.shape[0])
    with pytest.raises(NonHermitianError, match=message.format(r" at t = 0\.125")):
        evolution.propagate(sched, np.eye(h.shape[0])[0], evolution.TimeGrid(t_end=1.0, steps=4))


# --- stack kernels called from a caller's thread pool --------------------------


# propagation at dims 3, 17 and 64 over 2.0 (eigh unitaries) and at dims 17
# and 64 over 8 / dim (the step series), each case on one thread of a pool of
# argv[2] threads, saved to argv[1]
BLAS_CASE = """
import sys
from unittest import mock
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from holonomy_lab.evolution import HamiltonianSchedule, TimeGrid, propagate

CASES = ((3, 2.0), (17, 2.0), (64, 2.0), (17, 8 / 17), (64, 8 / 64))


def states(dim, t_end):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    h0, h1, h2 = a + a.conj().swapaxes(-1, -2)

    def many(ts):
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + h1 * np.cos(ts) + h2 * np.sin(ts)

    sched = HamiltonianSchedule(evaluate=lambda t: many([t])[0], evaluate_many=many, dim=dim)
    block = propagate(sched, np.linalg.eigh(h0)[1].T[:2], TimeGrid(t_end=t_end, steps=40))
    return np.stack([traj.states for traj in block])


with ThreadPoolExecutor(int(sys.argv[2])) as pool:
    np.savez(sys.argv[1], *pool.map(states, *zip(*CASES)))
"""


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
        ({"GOTO_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 2),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 4),
    ],
)
def test_states_do_not_depend_on_blas_threads(tmp_path, env, workers):
    # the library reads no BLAS thread variable, and its states do not depend
    # on one: in a fresh interpreter, where BLAS reads `env`, and on a caller's
    # pool sized as a 4-CPU machine's CPUs over the BLAS threads `env` asks
    # for, the states equal this process's on one thread
    blas_names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    child_env = {name: value for name, value in os.environ.items() if name not in blas_names}
    child_env.update(env)
    out = tmp_path / "states.npz"
    subprocess.run([sys.executable, "-c", BLAS_CASE, str(out), str(workers)], env=child_env, check=True, timeout=120)
    namespace = {}
    exec(BLAS_CASE.split("with ThreadPoolExecutor")[0], namespace)
    with np.load(out) as got:
        assert len(got.files) == len(namespace["CASES"])
        for name, case in zip(got.files, namespace["CASES"]):
            assert np.array_equal(got[name], namespace["states"](*case)), case


def plan_key(plan):
    """A step plan of _step_series as a comparable value: its degree or a unitary's bytes."""
    return plan if isinstance(plan, int) else plan.tobytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("dim", [2, 3, 8, 17, 64])
@pytest.mark.parametrize("piece_rows", [None, 3], ids=["default-pieces", "small-pieces"])
def test_step_unitaries_do_not_depend_on_calling_thread(rng, workers, dim, piece_rows):
    # each step's exponential and, from dim 16 up, its series action do not
    # depend on the stack around it, and concurrent callers get their own
    # results: the stack cut into one piece per worker (default) or into
    # pieces of 3 matrices, the pieces computed at once on a caller's pool,
    # equals the whole stack on one thread
    def unitaries(piece):
        return hilbert._step_unitaries(piece[0], 0.3, 1.0)

    def actions(piece):
        return series_action(piece[0], 0.3, 1.0, piece[1])

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for count in (1, 2, workers + 1, 40):
            hams = np.stack([random_hermitian(rng, dim) for _ in range(count)])
            psis = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
            rows = piece_rows or -(-count // workers)
            pieces = [(hams[i : i + rows], psis[i : i + rows]) for i in range(0, count, rows)]
            expected = hilbert._step_unitaries(hams, 0.3, 1.0)
            assert np.array_equal(np.concatenate(list(pool.map(unitaries, pieces))), expected), count
            if dim >= 16:
                # ||A_k||_F rising to about 12 over the stack (the pieces are
                # views of it), so that steps of both plans mix in it
                hams *= (2.5 * 16 / dim * np.arange(1, count + 1) / count)[:, None, None]
                plans, expected = series_action(hams, 0.3, 1.0, psis)
                if count == 40:
                    assert {type(plan) for plan in plans} == {int, np.ndarray}
                results = list(pool.map(actions, pieces))
                pooled_plans = [plan for piece in results for plan in piece[0]]
                assert list(map(plan_key, pooled_plans)) == list(map(plan_key, plans)), count
                assert np.array_equal(np.concatenate([piece[1] for piece in results]), expected), count


def test_import_leaves_concurrent_futures_unloaded():
    # no module of the library imports concurrent.futures, which would add to
    # every cold start of the CLI
    code = "import sys, holonomy_lab.cli; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0
