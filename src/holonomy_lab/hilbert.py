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
import sys

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


def _hermiticity_defects(hams: np.ndarray, diff: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """max|H - H^H| and max|H| for each matrix of a (k, dim, dim) stack.

    At dim 2, when every entry is finite, both come from one pass over the
    four entries: the defect is the largest of |H01 - conj(H10)|, 2|Im H00|
    and 2|Im H11| (|H10 - conj(H01)| equals the first, and the finite real
    parts of the diagonal cancel exactly), the scale the largest |Hij|. Both
    are bit-equal to the general formula, which every other stack takes, a
    dim-2 one with a non-finite entry included: there a non-finite Re Hii
    gives a NaN defect, not 2|Im Hii|. The general formula reads H - H^H
    from `diff` when given, else forms it by _skew_part. A defect or scale
    that overflows is inf, without a warning; the caller's test reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if hams.shape[1:] == (2, 2):
            h00, h01, h10, h11 = hams[:, 0, 0], hams[:, 0, 1], hams[:, 1, 0], hams[:, 1, 1]
            scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.maximum(np.abs(h10), np.abs(h11)))
            if np.isfinite(scale).all():
                defects = np.abs(h01 - h10.conj())
                np.maximum(defects, 2.0 * np.abs(h00.imag), out=defects)
                np.maximum(defects, 2.0 * np.abs(h11.imag), out=defects)
                return defects, scale
        if diff is None:
            diff = _skew_part(hams)
        defects = np.max(np.abs(diff), axis=(-2, -1), initial=0.0)
        return defects, np.max(np.abs(hams), axis=(-2, -1), initial=0.0)


def _skew_part(hams: np.ndarray) -> np.ndarray:
    """H - H^H for each matrix of a (k, dim, dim) stack, as a new array.

    H^H is written once as a C-ordered array and H is subtracted into it, so
    no operand is read transposed in the subtraction; the samples are never
    written. Callers run it under np.errstate: an inf - inf or an overflowed
    difference is left to their own test of the result.
    """
    diff = np.conjugate(hams.swapaxes(-1, -2), order="C")
    return np.subtract(hams, diff, out=diff)


def _require_hermitian(hams: np.ndarray, tol: Tolerances, times=None) -> None:
    """Raise NonHermitianError on the first matrix of a (k, dim, dim) stack that
    has a non-finite entry, an entry whose modulus overflows, or
    max|H - H^H| > tol.hermiticity * max(1, max|H|), naming times[k] when given.

    From dim 3 up a stack passes at once, without either max pass, when the
    squared Frobenius norm of the whole stack is finite and every
    ||H_k - H_k^H||_F^2, summed over the real view, is at most
    (tol.hermiticity / 2)^2. The first makes every entry and every |Hij|
    finite, so the exact pass's scale is finite too; the second keeps
    max|H_k - H_k^H| below tol.hermiticity, the smallest allowed defect, with
    room for the sum's round-off, and as the bound is a normal float no
    square that could decide underflows. Every other stack, and every stack
    when the bound is not a normal float, takes the exact pass, the only one
    that reports; at dim 2 it is one pass over the entries (see
    _hermiticity_defects).
    """
    if hams.ndim != 3 or hams.shape[1] != hams.shape[2]:
        raise DimensionMismatchError(f"Hamiltonians must be square, got shape {hams.shape[1:]}")
    diff = None
    half = 0.5 * tol.hermiticity
    bound = half * half  # inf past the float range, where ** would raise
    if hams.shape[1] > 2 and tol.hermiticity > 0.0 and sys.float_info.min <= bound <= sys.float_info.max:
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(np.vdot(hams, hams).real):
                diff = _skew_part(hams)
                real = diff.view(float)
                if (np.einsum("kij,kij->k", real, real) <= bound).all():
                    return
    defects, scale = _hermiticity_defects(hams, diff)
    with np.errstate(invalid="ignore"):  # a zero tolerance times an infinite scale
        allowed = tol.hermiticity * np.maximum(1.0, scale)
    # NaN fails every comparison, so finiteness is tested on its own
    bad = np.flatnonzero(~np.isfinite(scale) | (defects > allowed))
    if bad.size:
        k = int(bad[0])
        where = "" if times is None else f" at t = {float(times[k])!r}"
        if not np.isfinite(scale[k]):
            # an infinite scale would allow any defect, so a finite entry
            # whose modulus overflows is refused as well, under its own cause
            if np.isfinite(hams[k]).all():
                raise NonHermitianError(f"Hamiltonian too large{where}: max|H| overflows")
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


# Largest count a float64 holds exactly, so that a grid's dt = t_end / steps is finite
_MAX_COUNT = 1 << 53


def _shown(x) -> str:
    """repr(x) for an error message, or, for an int too long for repr
    (sys.get_int_max_str_digits), its sign and count of digits."""
    try:
        return repr(x)
    except ValueError:
        if not isinstance(x, int):
            raise
        size = abs(x)
        digits = int(size.bit_length() * math.log10(2.0))  # too low by at most one
        digits += size >= 10**digits
        return f"{'a negative' if x < 0 else 'an'} int of {digits} digits"


def _real(name: str, x, positive: bool = False, optional: bool = False) -> float | None:
    """x as a Python float, finite (and > 0 when `positive`), or None when
    `optional`; ValueError naming `name` otherwise. See README's numeric boundary."""
    if optional and x is None:
        return None
    try:
        value = float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        value = math.nan
    if math.isfinite(value) and (value > 0.0 or not positive):
        return value
    rule = "positive and finite" if positive else "a real finite scalar"
    raise ValueError(f"{name} must be {'None or ' if optional else ''}{rule}, got {_shown(x)}")


def _count(name: str, x, lo: int, hi: int = _MAX_COUNT) -> int:
    """x, an int or numpy integer but not a bool, as an int in [lo, hi], else ValueError."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= x <= hi:
        return int(x)
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(x)}")


def _step_unitaries(
    hams: np.ndarray, dt: float, hbar: float, times=None, out: np.ndarray | None = None, stack: int | None = None
) -> np.ndarray:
    """exp(-i H dt / hbar) for each matrix of a Hermitian (k, dim, dim) stack.

    Like eigh, both branches read only the lower triangle and the real
    diagonal. At dim 2 the closed form of H = h0 I + h.sigma is
    exp(-i h0 tau) [cos(r tau) I - i (sin(r tau) / r) h.sigma] with r = |h|
    and tau = dt / hbar, elementwise over the stack, and the result is a
    component-major stack (see _empty_2x2), written into `out`, a
    component-major (k, 2, 2) buffer, when given. Other dims go through eigh,
    H = V diag(lambda) V^H: the eigenvectors scaled by their phases,
    V diag(exp(-i lambda tau)), times V^H in one batched matmul, with the
    conjugate written into eigh's own buffer. Every matrix is computed on its
    own, so its result does not depend on the stack around it; only the
    operand order of the dim-2 upper off-diagonal product, which can move
    that entry's last bit, follows `stack` (default k), the count of matrices
    of the scan block the stack belongs to (see _exponentials), as the
    pinned dim-2 bytes require. At dim 2 the kernel's temporaries are the
    result's own entries and four real values per matrix. propagate takes
    this kernel at dims 2 to 7, and from dim 8 up only for the steps whose generator has
    Frobenius norm above 1 (see _step_series). dt and hbar are floats its
    callers have coerced (hbar > 0). Raises NonHermitianError, naming
    times[k] when given, for the first matrix whose exponential overflows to
    a non-finite entry: a finite H near the float maximum (the closed form
    adds its diagonal entries), or H dt / hbar past it.
    """
    stack = hams.shape[0] if stack is None else stack
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _exponentials(hams, dt / hbar, out, stack)
    except FloatingPointError:  # the overflowed matrix is found on a second pass
        with np.errstate(over="ignore", invalid="ignore"):
            tau = dt / hbar
            out = _exponentials(hams, tau, out, stack)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1)))
    if bad.size:
        k = int(bad[0])
        where = "" if times is None else f" at t = {float(times[k])!r}"
        raise NonHermitianError(
            f"Hamiltonian too large for its step{where}: "
            f"exp(-i H dt / hbar) overflows (dt / hbar = {tau:.3e})"
        )
    return out


# numpy elides the temporary of a binary operator over arrays of 256 KiB and
# up (2^14 complex entries) by computing in place into it, which swaps the
# operands of a commutative product; the dim-2 kernel's upper off-diagonal
# entry keeps the operand order such an expression had over a scan block
_ELIDED_MATRICES = 1 << 14


def _exponentials(hams: np.ndarray, tau: float, out: np.ndarray | None, stack: int) -> np.ndarray:
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
    if out is None:
        out = _empty_2x2(hams.shape[:1])
    e00, e01, e10, e11 = out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1]
    real = np.empty((4, hams.shape[0]))
    hz, r, r_tau, sinc = real
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
    # numpy's complex product is not symmetric in its operands' last bit:
    # conj(h10) * rot for a scan block of at least 2^14 matrices, as the
    # elided rot * conj(h10) was, and rot * conj(h10) for a shorter one. The
    # four real rows, read no more, hold conj(h10) and the product, which is
    # not formed in place even where numpy elided, so that a one-matrix piece
    # of a scan block keeps the bits of the whole; it is complete before it
    # is written over rot
    conj, product = real.reshape(2, -1).view(complex)
    np.conjugate(h10, out=conj)
    if stack >= _ELIDED_MATRICES:
        np.multiply(conj, rot, out=product)
    else:
        np.multiply(rot, conj, out=product)
    out[:, 0, 1] = product
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


def _series_work(dim: int) -> tuple[list, list]:
    """Scratch for _apply_step at this dim: the rows of a (19, dim + 1)
    buffer, row j ending in 1 / (j - 1)!, and the first dim entries of each
    row, as views made once, so that no step slices the buffer."""
    work = np.zeros((_SERIES_MAX_DEGREE + 1, dim + 1), dtype=complex)
    work[1:, dim] = _INV_FACTORIALS[:_SERIES_MAX_DEGREE]
    return list(work), [row[:dim] for row in work]


def _apply_step(plan, gen: np.ndarray, psi: np.ndarray, out: np.ndarray, work: tuple[list, list] | None) -> None:
    """out = exp(A) psi for one step planned by _step_series, `gen` its row
    of the generator buffer and `work` from _series_work (a unitary plan
    reads neither, and they may be None).

    A unitary plan is applied as it is, in one matrix-vector product. A
    degree m applies the Taylor polynomial of A in Horner form:
    z_m = psi / m!, z_(j-1) = A z_j + psi / (j-1)!, down to z_0. Each term
    is one matrix-vector product of [A | psi], with psi written into gen's
    last column, and [z_j, 1 / (j-1)!], so a step takes at most 18. Every
    product is an np.dot into a C-contiguous `out`: the BLAS zgemv that
    np.matmul calls for these operands, with the same bits and less
    overhead per call.
    """
    if isinstance(plan, np.ndarray):
        np.dot(plan, psi, out=out)
        return
    rows, heads = work
    gen[:, psi.size] = psi
    np.multiply(psi, _INV_FACTORIALS[plan], out=heads[plan])
    for j in range(plan, 1, -1):
        np.dot(gen, rows[j], out=heads[j - 1])
    np.dot(gen, rows[1], out=out)


def expi_hermitian(h, dt: float, hbar: float = 1.0, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Unitary exp(-i H dt / hbar) of a finite Hermitian H.

    Dim 2 takes the closed-form SU(2) exponential, other dims the
    eigendecomposition, assembled as the phase-scaled eigenvectors times their
    conjugate transpose in one matmul (see _step_unitaries). Both keep the
    result unitary to round-off, which phase extraction needs. Raises
    ValueError unless dt and hbar pass README's numeric boundary (hbar > 0),
    and NonHermitianError when the exponential overflows (see _step_unitaries).
    """
    hams = _as_operator(h, tol=tol)[None]
    dt = _real("dt", dt)
    hbar = _real("hbar", hbar, positive=True)
    _require_hermitian(hams, tol)
    return _step_unitaries(hams, dt, hbar)[0]
