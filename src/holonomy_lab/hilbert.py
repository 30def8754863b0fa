"""Dense complex linear algebra for small Hilbert spaces.

State vectors are 1-d complex numpy arrays, operators are square complex
matrices. Everything here is a pure function; nothing is mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "as_state",
    "as_operator",
    "inner",
    "norm",
    "hermiticity_defect",
    "unitarity_defect",
    "expi_hermitian",
    "check_normalized",
]


def as_state(psi, dim: int | None = None, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Coerce to a finite 1-d complex vector, optionally enforcing its dimension."""
    a = np.asarray(psi, dtype=complex)
    if a.ndim != 1 or a.size < 1:
        raise DimensionMismatchError(f"state must be a 1-d vector, got shape {a.shape}")
    if a.size > tol.max_dim:
        raise DimensionMismatchError(f"dimension {a.size} exceeds configured cap {tol.max_dim}")
    if dim is not None and a.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {a.size}")
    if not np.isfinite(a).all():
        raise ValueError("state contains non-finite amplitudes")
    return a


def as_operator(m, dim: int | None = None, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {a.shape}")
    if a.shape[0] > tol.max_dim:
        raise DimensionMismatchError(f"dimension {a.shape[0]} exceeds configured cap {tol.max_dim}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("operator contains non-finite entries")
    return a


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def check_normalized(psi, tol: Tolerances = DEFAULT) -> np.ndarray:
    psi = as_state(psi, tol=tol)
    drift = abs(norm(psi) - 1.0)
    if drift > tol.normalized_state:
        raise ValueError(f"state not normalized: | ||psi|| - 1 | = {drift:.3e}")
    return psi


def hermiticity_defect(m) -> float:
    """max|M - M^H|, zero for exactly Hermitian input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {a.shape}")
    return float(np.max(np.abs(a - a.conj().T)))


def unitarity_defect(u) -> float:
    """max|U^H U - I|."""
    a = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def _hermiticity_defects(hams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max|H - H^H| and max|H| for each matrix of a (k, dim, dim) stack.

    At dim 2, when every entry is finite, both come from one pass over the
    four entries: the defect is the largest of |H01 - conj(H10)|, 2|Im H00|
    and 2|Im H11| (|H10 - conj(H01)| equals the first, and the finite real
    parts of the diagonal cancel exactly), the scale the largest |Hij|. Both
    are bit-equal to the general formula, which every other stack takes, a
    dim-2 one with a non-finite entry included: there a non-finite Re Hii
    gives a NaN defect, not 2|Im Hii|.
    """
    if hams.shape[1:] == (2, 2):
        h00, h01, h10, h11 = hams[:, 0, 0], hams[:, 0, 1], hams[:, 1, 0], hams[:, 1, 1]
        scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.maximum(np.abs(h10), np.abs(h11)))
        if np.isfinite(scale).all():
            defects = np.abs(h01 - h10.conj())
            np.maximum(defects, 2.0 * np.abs(h00.imag), out=defects)
            np.maximum(defects, 2.0 * np.abs(h11.imag), out=defects)
            return defects, scale
    with np.errstate(invalid="ignore"):  # inf - inf; the caller's finiteness test reports it
        defects = np.max(np.abs(hams - hams.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
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


def _step_unitaries(hams: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """exp(-i H dt / hbar) for each matrix of a Hermitian (k, dim, dim) stack.

    Like eigh, both branches read only the lower triangle and the real
    diagonal. At dim 2 the closed form of H = h0 I + h.sigma is
    exp(-i h0 tau) [cos(r tau) I - i (sin(r tau) / r) h.sigma] with r = |h|
    and tau = dt / hbar, elementwise over the stack, and the result is a
    component-major stack (see _empty_2x2); other dims go through eigh.
    """
    if hams.shape[-2:] != (2, 2):
        evals, evecs = np.linalg.eigh(hams)
        phases = np.exp(-1j * evals * (dt / hbar))
        return np.einsum("kij,kj,klj->kil", evecs, phases, evecs.conj())
    tau = dt / hbar
    h00, h11, h10 = hams[..., 0, 0].real, hams[..., 1, 1].real, hams[..., 1, 0]
    hz = 0.5 * (h00 - h11)
    r = np.hypot(hz, np.abs(h10))
    r_tau = r * tau
    # sin(r tau) / r, which is tau where r tau is 0
    sinc = np.full_like(r, tau)
    np.divide(np.sin(r_tau), r, out=sinc, where=r_tau != 0.0)
    phase = np.exp(-0.5j * tau * (h00 + h11))
    diag = phase * np.cos(r_tau)
    rot = -1j * sinc * phase
    out = _empty_2x2(hams.shape[:-2])
    out[..., 0, 0] = diag + rot * hz
    out[..., 1, 1] = diag - rot * hz
    out[..., 1, 0] = rot * h10
    out[..., 0, 1] = rot * h10.conj()
    return out


def expi_hermitian(h, dt: float, hbar: float = 1.0, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Unitary exp(-i H dt / hbar) of a finite Hermitian H.

    Dim 2 takes the closed-form SU(2) exponential, other dims the
    eigendecomposition (see _step_unitaries). Both keep the result unitary to
    round-off, which phase extraction needs.
    """
    hams = as_operator(h, tol=tol)[None]
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    _require_hermitian(hams, tol)
    return _step_unitaries(hams, dt, hbar)[0]
