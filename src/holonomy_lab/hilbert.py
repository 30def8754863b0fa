"""Dense complex linear algebra for small Hilbert spaces.

State vectors are 1-d complex numpy arrays, operators are square complex
matrices. Nothing here holds state, and nothing passed in is mutated except
the buffers a private kernel takes to write into. Propagation's step
exponentials come in two forms: the unitaries themselves (_step_unitaries)
and, from dim 8 up, for steps whose generator has Frobenius norm at most 1,
their action on a state by a Taylor series (_step_series, _apply_step).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "inner",
    "unitarity_defect",
    "expi_hermitian",
]


def _as_state(psi, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Coerce to a finite 1-d complex vector of dimension at most tol.max_dim."""
    a = np.asarray(psi, dtype=complex)
    if a.ndim != 1 or a.size < 1:
        raise DimensionMismatchError(f"state must be a 1-d vector, got shape {a.shape}")
    _require_operator_dim(a.size, None, tol)
    if not np.isfinite(a).all():
        raise ValueError("state contains non-finite amplitudes")
    return a


def _as_operator(m, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Coerce to a finite square complex matrix of dimension at most tol.max_dim."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size < 1:
        raise DimensionMismatchError(f"operator must be square and non-empty, got shape {a.shape}")
    _require_operator_dim(a.shape[0], None, tol)
    if not np.isfinite(a).all():
        raise ValueError("operator contains non-finite entries")
    return a


def _require_operator_dim(size: int, dim: int | None, tol: Tolerances) -> None:
    """A state's or square operator's size is at most tol.max_dim, and equal
    to dim when given (DimensionMismatchError otherwise)."""
    if size > tol.max_dim:
        raise DimensionMismatchError(f"dimension {size} exceeds configured cap {tol.max_dim}")
    if dim is not None and size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {size}")


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def _check_normalized(psi, tol: Tolerances = DEFAULT) -> np.ndarray:
    psi = _as_state(psi, tol=tol)
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > tol.normalized_state:
        raise ValueError(f"state not normalized: | ||psi|| - 1 | = {drift:.3e}")
    return psi


def unitarity_defect(u) -> float:
    """max|U^H U - I|."""
    a = np.asarray(u, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {a.shape}")
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def _hermiticity_defects(hams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max|H - H^H| and max|H| for each matrix of a (k, dim, dim) stack.

    At dim 2, when every entry is finite, both come from one pass over the
    four entries: the defect is the largest of |H01 - conj(H10)|, 2|Im H00|
    and 2|Im H11| (|H10 - conj(H01)| equals the first, and the finite real
    parts of the diagonal cancel exactly), the scale the largest |Hij|. Both
    are bit-equal to the general formula, which every other stack takes, a
    dim-2 one with a non-finite entry included: there a non-finite Re Hii
    gives a NaN defect, not 2|Im Hii|. The general formula writes H^H once
    as a C-ordered array and subtracts it from H in place, so no operand is
    read transposed in the subtraction; the samples are never written.
    """
    if hams.shape[1:] == (2, 2):
        h00, h01, h10, h11 = hams[:, 0, 0], hams[:, 0, 1], hams[:, 1, 0], hams[:, 1, 1]
        scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.maximum(np.abs(h10), np.abs(h11)))
        if np.isfinite(scale).all():
            defects = np.abs(h01 - h10.conj())
            np.maximum(defects, 2.0 * np.abs(h00.imag), out=defects)
            np.maximum(defects, 2.0 * np.abs(h11.imag), out=defects)
            return defects, scale
    diff = np.conjugate(hams.swapaxes(-1, -2), order="C")
    with np.errstate(invalid="ignore"):  # inf - inf; the caller's finiteness test reports it
        np.subtract(hams, diff, out=diff)
    defects = np.max(np.abs(diff), axis=(-2, -1), initial=0.0)
    return defects, np.max(np.abs(hams), axis=(-2, -1), initial=0.0)


def _require_hermitian(hams: np.ndarray, tol: Tolerances, times=None) -> None:
    """Raise NonHermitianError on the first matrix of a (k, dim, dim) stack that
    has a non-finite entry or max|H - H^H| > tol.hermiticity * max(1, max|H|),
    naming times[k] when given. Dim-2 stacks are screened in one pass over
    their entries (see _hermiticity_defects)."""
    if hams.ndim != 3 or hams.shape[1] != hams.shape[2]:
        raise DimensionMismatchError(f"Hamiltonians must be square, got shape {hams.shape[1:]}")
    defects, scale = _hermiticity_defects(hams)
    allowed = tol.hermiticity * np.maximum(1.0, scale)
    # NaN fails every comparison, so finiteness is tested on its own
    bad = np.flatnonzero(~np.isfinite(scale) | (defects > allowed))
    if bad.size:
        k = int(bad[0])
        where = "" if times is None else f" at t = {float(times[k])!r}"
        if not np.isfinite(scale[k]):
            raise NonHermitianError(f"Hamiltonian not finite{where}: max|H| = {scale[k]}")
        raise NonHermitianError(
            f"Hamiltonian not Hermitian{where}: max|H - H^H| = {defects[k]:.3e} "
            f"(allowed {allowed[k]:.3e})"
        )


def _empty_2x2(lead: tuple[int, ...]) -> np.ndarray:
    """Uninitialised complex stack of logical shape lead + (2, 2), stored
    component-major: a view of a (2, 2) + lead buffer, so each of the four
    entries is contiguous over the stack and elementwise 2x2 arithmetic reads
    and writes whole runs. np.empty_like keeps the layout."""
    buf = np.empty((2, 2) + tuple(lead), dtype=complex)
    return buf.transpose(tuple(range(2, buf.ndim)) + (0, 1))  # np.moveaxis, without its overhead


def _finite_real(x) -> bool:
    """Whether x is a real number (a numpy one included) that is finite as a
    float; an int past the float range is not."""
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:
        return False


def _is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _require_hbar(hbar) -> None:
    if not (_finite_real(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")


def _step_unitaries(hams: np.ndarray, dt: float, hbar: float, times=None) -> np.ndarray:
    """exp(-i H dt / hbar) for each matrix of a Hermitian (k, dim, dim) stack.

    Like eigh, both branches read only the lower triangle and the real
    diagonal. At dim 2 the closed form of H = h0 I + h.sigma is
    exp(-i h0 tau) [cos(r tau) I - i (sin(r tau) / r) h.sigma] with r = |h|
    and tau = dt / hbar, elementwise over the stack, and the result is a
    component-major stack (see _empty_2x2). Other dims go through eigh,
    H = V diag(lambda) V^H: the eigenvectors scaled by their phases,
    V diag(exp(-i lambda tau)), times V^H in one batched matmul, with the
    conjugate written into eigh's own buffer. Every matrix is computed on its
    own, so its result does not depend on the stack around it, except in
    the last bit of the dim-2 upper off-diagonal entry, which differs
    between stacks of fewer and of at least 2^14 matrices (see below); the
    pinned dim-2 bytes keep that. At dim 2 the result's own entries hold the
    complex temporaries, so beside the samples and the result the kernel
    holds four real values and at most two complex ones per matrix. propagate
    takes this kernel at dims 2 to 7, and from dim 8 up only for the steps
    whose generator has Frobenius norm above 1 (see _step_series). Raises
    ValueError unless hbar is positive and finite, and NonHermitianError,
    naming times[k] when given, for the first matrix whose exponential
    overflows to a non-finite entry: a finite H near the float maximum (the
    closed form adds its diagonal entries), or H dt / hbar past it.
    """
    _require_hbar(hbar)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _exponentials(hams, dt / hbar)
    except FloatingPointError:  # the overflowed matrix is found on a second pass
        with np.errstate(over="ignore", invalid="ignore"):
            tau = dt / hbar
            out = _exponentials(hams, tau)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1)))
    if bad.size:
        k = int(bad[0])
        where = "" if times is None else f" at t = {float(times[k])!r}"
        raise NonHermitianError(
            f"Hamiltonian too large for its step{where}: "
            f"exp(-i H dt / hbar) overflows (dt / hbar = {tau:.3e})"
        )
    return out


def _exponentials(hams: np.ndarray, tau: float) -> np.ndarray:
    """_step_unitaries's exp(-i H tau), with no check of its own."""
    if hams.shape[-2:] != (2, 2):
        evals, evecs = np.linalg.eigh(hams)
        scaled = evecs * np.exp(-1j * evals * tau)[..., None, :]
        return np.matmul(scaled, np.conjugate(evecs, out=evecs).swapaxes(-1, -2))
    # Each entry is formed by the operations, in the order, of an expression
    # over new arrays, into the result's own entries where they are free. No
    # complex product writes over an operand: numpy takes another loop for a
    # one-element product in place, which moves the last bit
    h00, h11, h10 = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
    out = _empty_2x2(hams.shape[:1])
    e00, e01, e10, e11 = out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1]
    hz, r, r_tau, sinc = np.empty((4, hams.shape[0]))
    np.multiply(0.5, np.subtract(h00, h11, out=hz), out=hz)
    np.hypot(hz, np.abs(h10, out=r), out=r)
    np.multiply(r, tau, out=r_tau)
    # sin(r tau) / r, which is tau where r tau is 0
    np.divide(np.sin(r_tau, out=sinc), r, out=sinc, where=r_tau != 0.0)
    sinc[r_tau == 0.0] = tau
    phase = np.exp(np.multiply(-0.5j * tau, np.add(h00, h11, out=r), out=e01), out=e00)
    diag = np.multiply(phase, np.cos(r_tau, out=r_tau), out=e11)
    rot = np.multiply(np.multiply(-1j, sinc, out=e10), phase, out=e01)
    rot_hz = np.multiply(rot, hz, out=e10)
    np.add(diag, rot_hz, out=e00)
    np.subtract(diag, rot_hz, out=e11)
    np.multiply(rot, h10, out=e10)
    # one expression, as numpy elides its temporary: from 2^14 matrices up
    # it forms the product as conj(h10) * rot, whose last bit can differ.
    # The product is complete before it is written over rot
    out[:, 0, 1] = rot * h10.conj()
    return out


# The step series (see _step_series) runs up to degree 18, where the tail
# bound of a generator of norm 1 falls below 2^-53; steps of larger norm take eigh
_SERIES_MAX_DEGREE = 18
_INV_FACTORIALS = np.array([1.0 / math.factorial(j) for j in range(_SERIES_MAX_DEGREE + 2)])


def _step_series(hams: np.ndarray, dt: float, hbar: float, out: np.ndarray, times=None) -> list:
    """Plan exp(A_k), A_k = -i H_k dt / hbar, for each matrix of a Hermitian
    (k, dim, dim) stack; _apply_step applies a plan.

    Writes A_k into out[k, :, :dim], where `out` is a caller's
    (>= k, dim, dim + 1) buffer; the samples are never written. Like eigh,
    A_k is read from the lower triangle and the real diagonal of H_k only:
    its upper triangle is -conj of its lower one, bit for bit, copied from
    -A^H, which is written once as a C-ordered array. A step with
    ||A_k||_F <= 1 is planned as its Taylor series, and its plan is the degree
    m_k: the smallest whose tail bound nu^(m+1) / (m+1)! / (1 - nu / (m+2)),
    nu = ||A_k||_F, is below 2^-53, at most 18. Every other step, one whose
    norm overflowed included, is planned as its unitary from _step_unitaries,
    which names times[k] when given if that unitary overflows. Each plan
    depends on its own step alone, so it does not depend on how a grid is cut
    into stacks.
    """
    count, dim = hams.shape[:2]
    gens = out[:count, :, :dim]
    # an overflowed generator has a norm that is not <= 1, so its step takes
    # _step_unitaries, which refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(hams, -1j * (dt / hbar), out=gens)
        # -A^H, A^T with its real part negated, is formed after the multiply:
        # -i tau conj(H_ji) can differ from -conj(-i tau H_ji) in a zero's sign
        flipped = gens.swapaxes(-1, -2).copy()
        np.negative(flipped.real, out=flipped.real)
        np.copyto(gens, flipped, where=~np.tri(dim, dtype=bool))
        diag = np.arange(dim)
        gens.real[:, diag, diag] = 0.0
        real = gens.view(float)
        norms = np.sqrt(np.einsum("kij,kij->k", real, real))
    unitary = ~(norms <= 1.0)
    nu = np.minimum(norms, 1.0)[:, None]  # a unitary step's degree is never read
    orders = np.arange(1, _SERIES_MAX_DEGREE + 1)
    tails = nu ** (orders + 1) * _INV_FACTORIALS[orders + 1] / (1.0 - nu / (orders + 2))
    plans = (1 + np.argmax(tails < 2.0**-53, axis=1)).tolist()
    if unitary.any():
        steps = np.flatnonzero(unitary)
        unitaries = _step_unitaries(hams[steps], dt, hbar, None if times is None else times[steps])
        for k, u in zip(steps, unitaries):
            plans[k] = u
    return plans


def _series_work(dim: int) -> np.ndarray:
    """Scratch rows for _apply_step at this dim: row j ends in 1 / (j - 1)!."""
    work = np.zeros((_SERIES_MAX_DEGREE + 1, dim + 1), dtype=complex)
    work[1:, dim] = _INV_FACTORIALS[:_SERIES_MAX_DEGREE]
    return work


def _apply_step(plan, gen: np.ndarray, psi: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out = exp(A) psi for one step planned by _step_series, `gen` its row
    of the generator buffer and `work` from _series_work.

    A unitary plan is applied as it is, in one matrix-vector product. A
    degree m applies the Taylor polynomial of A in Horner form:
    z_m = psi / m!, z_(j-1) = A z_j + psi / (j-1)!, down to z_0. Each term
    is one matrix-vector product of [A | psi], with psi written into gen's
    last column, and [z_j, 1 / (j-1)!], so a step takes at most 18.
    """
    if isinstance(plan, np.ndarray):
        np.matmul(plan, psi, out=out)
        return
    dim = psi.size
    gen[:, dim] = psi
    np.multiply(psi, _INV_FACTORIALS[plan], out=work[plan, :dim])
    for j in range(plan, 1, -1):
        np.matmul(gen, work[j], out=work[j - 1, :dim])
    np.matmul(gen, work[1], out=out)


def expi_hermitian(h, dt: float, hbar: float = 1.0, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Unitary exp(-i H dt / hbar) of a finite Hermitian H.

    Dim 2 takes the closed-form SU(2) exponential, other dims the
    eigendecomposition, assembled as the phase-scaled eigenvectors times their
    conjugate transpose in one matmul (see _step_unitaries). Both keep the
    result unitary to round-off, which phase extraction needs. Raises
    ValueError unless dt is a real finite scalar and hbar positive and finite,
    and NonHermitianError when the exponential overflows (see _step_unitaries).
    """
    hams = _as_operator(h, tol=tol)[None]
    if not _finite_real(dt):
        raise ValueError(f"dt must be a real finite scalar, got {dt!r}")
    _require_hermitian(hams, tol)
    return _step_unitaries(hams, dt, hbar)[0]
