import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holonomy_lab import hilbert
from holonomy_lab.errors import DimensionMismatchError, NonHermitianError
from holonomy_lab.spin_model import SIGMA_X, SIGMA_Y, SIGMA_Z

PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])


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
    u = hilbert.expi_hermitian(SIGMA_Z, dt=np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-14)


def test_expi_sigma_x_quarter_turn():
    u = hilbert.expi_hermitian(SIGMA_X, dt=np.pi / 2)
    assert np.allclose(u, -1j * SIGMA_X, atol=1e-14)


def test_expi_rejects_non_hermitian():
    with pytest.raises(NonHermitianError, match="not Hermitian"):
        hilbert.expi_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), dt=0.1)


def test_expi_rejects_non_finite_dt():
    with pytest.raises(ValueError):
        hilbert.expi_hermitian(SIGMA_Z, dt=np.inf)


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


def test_hermiticity_defect_examples():
    assert hilbert.hermiticity_defect(SIGMA_Y) == 0
    assert hilbert.hermiticity_defect(np.array([[0, 1], [0, 0]])) == 1


def test_hermiticity_defect_doubles_antihermitian_part(rng):
    h = random_hermitian(rng, 4)
    eps = 1e-3
    assert hilbert.hermiticity_defect(h + 1j * eps * np.eye(4)) == pytest.approx(2 * eps, rel=1e-12)


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
        hilbert.as_state(np.ones(65))


def test_non_finite_state_rejected():
    with pytest.raises(ValueError):
        hilbert.as_state([1.0, np.nan])


def test_strided_state_and_operator_accepted(rng):
    h = random_hermitian(rng, 4)
    column = np.linalg.eigh(h)[1][:, 0]
    assert not column.flags.contiguous
    assert np.array_equal(hilbert.as_state(column), column)
    assert np.array_equal(hilbert.check_normalized(column), column)
    assert not h.T.flags.c_contiguous
    assert np.array_equal(hilbert.as_operator(h.T), h.T)


def test_non_finite_strided_input_rejected():
    a = np.ones((3, 3), dtype=complex)
    a[1, 0] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        hilbert.as_state(a[:, 0])
    with pytest.raises(ValueError, match="non-finite"):
        hilbert.as_operator(a.T)
