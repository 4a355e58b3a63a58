"""Dense complex linear-algebra kernels.

Everything downstream reduces to four operations on square complex
matrices:

* ``explicit_inverse``        A^-1 by one LU with partial pivoting and one
                              multi-column solve (``solve_factored``)
* ``largest_singular_value``  power iteration on A*A
* ``smallest_singular_value`` 1 / largest_singular_value of the explicit inverse
* ``sv2x2``                   closed-form singular values of a 2x2 block

plus ``jacobi_singular_values``, all singular values of one matrix or of
a stack of them by one-sided Jacobi in round-robin order, and
``norm_below``, the LDL* positivity test of bound^2 I - M*M over a stack.

Every iterative estimate is one ``power_iteration`` on C*C for an explicit
matrix C: deterministic from the all-ones start vector, converged on the
relative change of the Rayleigh quotient, stopped by one stall rule
(``_stalled``: the best step of the last 24 fails to halve the best
before them) or by ITERATION_CAP, and accepted only when ``norm_below``
certifies it to CERTIFY_SLACK.  An estimate that fails falls back to
Jacobi on the explicit matrix, which converges quadratically and is
accurate to roundoff, when its smaller side is at most JACOBI_DIM_LIMIT,
and raises ConvergenceError otherwise.  The block engine calls the same
Jacobi and positivity kernels on stacks of 4x4 blocks.
No LAPACK-style library call appears on any of these paths; numpy is used
for array storage and vectorised arithmetic only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PIVOT_FLOOR = 1e-300
RAYLEIGH_TOL = 1e-12
# a converged sigma is accepted once sigma_max^2 < (1 + CERTIFY_SLACK) sigma^2
CERTIFY_SLACK = 1e-10
ITERATION_CAP = 500
JACOBI_DIM_LIMIT = 512
JACOBI_SWEEP_CAP = 60


class SingularMatrixError(ArithmeticError):
    """Factorisation hit a pivot with magnitude <= 1e-300.

    Callers that compute resolvent norms map this to a norm of +inf; it is
    a signal, not a failure.
    """


class ConvergenceError(ArithmeticError):
    """Iteration stalled or was not certified, and the matrix is too large
    for the Jacobi fallback."""


class DimensionError(ValueError):
    """Input is not a finite square complex matrix of the expected shape."""


@dataclass(frozen=True)
class SingularExtremes:
    """Largest and smallest singular value of one matrix."""

    sigma_max: float
    sigma_min: float

    def __post_init__(self):
        if not (self.sigma_max >= self.sigma_min >= 0.0):
            raise DimensionError(
                f"singular extremes out of order: {self.sigma_max}, {self.sigma_min}"
            )


def as_square_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise DimensionError("matrix entries must be finite")
    return m


def lu_factor(a: np.ndarray):
    """Partial-pivot LU: returns (packed, perm) with A[perm] = L U.

    ``packed`` holds U on and above the diagonal and the unit-lower L
    strictly below it; row k of L U is row ``perm[k]`` of A.  Raises
    SingularMatrixError if any pivot magnitude <= 1e-300.
    """
    lu = np.array(a, dtype=np.complex128, order="C")
    n = lu.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
        pivot = lu[k, k]
        if abs(pivot) <= PIVOT_FLOOR:
            raise SingularMatrixError(f"pivot {abs(pivot):.3e} at step {k}")
        if k + 1 < n:
            lu[k + 1 :, k] /= pivot
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given lu_factor output.  b may be a vector or matrix."""
    n = lu.shape[0]
    x = np.asarray(b, dtype=np.complex128)[perm]
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    for k in range(1, n):  # L y = b[perm], unit diagonal
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # U x = y
        if k + 1 < n:
            x[k] -= lu[k, k + 1 :] @ x[k + 1 :]
        x[k] /= lu[k, k]
    return x[:, 0] if squeeze else x


def lu_solve_adjoint(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A* x = b with the factors of A (A* = U* L* P with P A = A[perm])."""
    n = lu.shape[0]
    x = np.array(b, dtype=np.complex128)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    uh = lu.conj()
    for k in range(n):  # U* w = b, lower triangular with diag conj(u_kk)
        if k > 0:
            x[k] -= uh[:k, k] @ x[:k]
        x[k] /= uh[k, k]
    for k in range(n - 1, -1, -1):  # L* v = w, unit upper triangular
        if k + 1 < n:
            x[k] -= uh[k + 1 :, k] @ x[k + 1 :]
    out = np.empty_like(x)
    out[perm] = x
    return out[:, 0] if squeeze else out


def solve_factored(a, b) -> np.ndarray:
    """Solve A X = B for square A; raises SingularMatrixError on tiny pivots."""
    m = as_square_matrix(a)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionError(f"rhs rows {rhs.shape[0]} != matrix dim {m.shape[0]}")
    lu, piv = lu_factor(m)
    return lu_solve(lu, piv, rhs)


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """Rounds of disjoint column pairs that meet every pair of n columns once.

    Brent & Luk's parallel ordering: column 0 stays in place and the
    others move one seat per round (an odd n gets a ghost column).
    """
    size = n + n % 2
    seats = list(range(size))
    rounds = []
    for _ in range(size - 1):
        facing = zip(seats, seats[: size // 2 - 1 : -1])
        pairs = [(p, q) for p, q in facing if max(p, q) < n]
        if pairs:
            rounds.append(tuple(np.array(pairs).T))
        seats.insert(1, seats.pop())
    return tuple(rounds)


def jacobi_singular_values(a) -> np.ndarray:
    """All singular values of a matrix (m, n) or a stack (b, m, n), descending.

    One-sided Jacobi: the columns of each matrix (its rows if it is wide)
    are orthogonalised pairwise until every off-diagonal Gram entry is
    negligible; the singular values are then their norms.  One numpy step
    rotates one round-robin round, the disjoint pairs of every matrix of
    the stack at once.  A matrix's rotations depend on that matrix alone,
    so its values do not depend on the rest of the stack.
    """
    w = np.asarray(a, dtype=np.complex128)
    if w.ndim not in (2, 3):
        raise DimensionError("jacobi needs a matrix or a stack of matrices")
    # u holds the vectors to orthogonalise as rows
    u = np.array(w if w.shape[-2] < w.shape[-1] else np.swapaxes(w, -1, -2), order="C")
    stack = u.reshape((-1,) + u.shape[-2:])
    rounds = _round_robin(stack.shape[1])
    for _ in range(JACOBI_SWEEP_CAP):
        rotated = False
        for ps, qs in rounds:
            up, uq = stack[:, ps], stack[:, qs]
            hpp = _row_sq_norms(up)
            hqq = _row_sq_norms(uq)
            hpq = np.einsum("bkl,bkl->bk", up.conj(), uq)
            mag = np.abs(hpq)
            rot = (mag > 1e-15 * np.sqrt(hpp * hqq)) & (hpp > 0.0) & (hqq > 0.0)
            if not rot.any():
                continue
            rotated = True
            # identity rotation (c = 1, s = 0, phase = 1) where rot is False
            safe = np.where(rot, mag, 1.0)
            phase = np.where(rot, hpq / safe, 1.0)[..., None]
            tau = (hqq - hpp) / (2.0 * safe)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.where(rot, t, 0.0)
            c = (1.0 / np.hypot(1.0, t))[..., None]
            s = t[..., None] * c
            vq = uq * phase.conj()
            stack[:, ps] = c * up - s * vq
            stack[:, qs] = (s * up + c * vq) * phase
        if not rotated:
            break
    sv = np.sort(np.sqrt(_row_sq_norms(stack)), axis=-1)[:, ::-1]
    return sv.reshape(u.shape[:-1])


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    r = x.view(np.float64)
    return np.einsum("bkl,bkl->bk", r, r)


def _stalled(history: list, tol: float) -> bool:
    # Bail out only on sustained lack of progress: the best increment of the
    # last 24 steps failed to halve the best of the steps before them.  A
    # windowed rate estimate is too jumpy here; decay-rate crossovers in
    # clustered spectra produce short plateaus that look flat locally.
    if len(history) < 48:
        return False
    recent = min(history[-24:])
    if recent <= tol:
        return False
    return recent > 0.5 * min(history[:-24])


def norm_below(mats: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per matrix M of a stack (b, m, n), whether sigma_max(M) < bound.

    The LDL* pivots of the Hermitian bound^2 I - M*M are all positive
    exactly when it is positive definite.  A matrix stops eliminating at
    its first nonpositive pivot, so its entries never grow.
    """
    a = -np.einsum("bki,bkj->bij", mats.conj(), mats)
    d = a.shape[1]
    a[:, range(d), range(d)] += (bound * bound)[:, None]
    ok = np.ones(len(a), dtype=bool)
    for j in range(d):
        pivot = a[:, j, j].real
        ok &= pivot > 0.0
        col = a[:, j + 1 :, j] / np.where(ok, pivot, 1.0)[:, None]
        col[~ok] = 0.0
        a[:, j + 1 :, j + 1 :] -= col[:, :, None] * a[:, j, None, j + 1 :]
    return ok


def power_iteration(c: np.ndarray) -> float | None:
    """sigma_max(C) by power iteration on C*C, or None when it fails.

    C x is ``c @ x`` and C* y is ``conj(conj(y) @ c)``, so no adjoint copy
    of c is made.  The iterate starts at the normalised all-ones vector.
    Converged when the Rayleigh quotient ||C x||^2 of the unit iterate
    changes by at most RAYLEIGH_TOL relative; the estimate sigma is then
    returned only if ``norm_below`` proves sigma_max(C)^2 <
    (1 + CERTIFY_SLACK) sigma^2, tested on C scaled by its largest entry
    modulus.  A zero or non-finite product, ``_stalled``, ITERATION_CAP
    steps or a refused certificate end it with None.  The iteration runs on
    C / 2^e with 2^e the power of two above that modulus, an exact scaling
    that keeps the norms in range.
    """
    top = float(np.max(np.abs(c)))
    _, e = math.frexp(top)
    c = _times_pow2(c, -e)
    top = math.ldexp(top, -e)
    x = np.ones(c.shape[1], dtype=np.complex128) / math.sqrt(c.shape[1])
    prev = None
    increments: list = []
    for _ in range(ITERATION_CAP):
        v = c @ x
        sigma = float(np.linalg.norm(v))
        if not 0.0 < sigma < math.inf:
            return None
        x = ((v / sigma).conj() @ c).conj()
        size = float(np.linalg.norm(x))
        if not 0.0 < size < math.inf:
            return None
        x /= size
        if prev is not None:
            inc = abs((prev / sigma) ** 2 - 1.0)
            if inc <= RAYLEIGH_TOL:
                bound = np.array([sigma / top * math.sqrt(1.0 + CERTIFY_SLACK)])
                if norm_below((c / top)[None], bound)[0]:
                    return _times_pow2(sigma, e)
                return None
            increments.append(inc)
            if _stalled(increments, RAYLEIGH_TOL):
                return None
        prev = sigma
    return None


def _times_pow2(a, e: int):
    """a * 2^e, exact while the results stay normal; inf where they overflow.

    Two factors of about 2^(e/2) keep each factor finite for any exponent
    of a finite double.
    """
    half = e // 2
    return a * math.ldexp(1.0, half) * math.ldexp(1.0, e - half)


def _jacobi_fallback(m: np.ndarray) -> float:
    """sigma_max(m) by Jacobi on m / 2^e, scaled back by 2^e."""
    if min(m.shape) <= JACOBI_DIM_LIMIT:
        _, e = math.frexp(float(np.max(np.abs(m))))
        sigma = float(jacobi_singular_values(_times_pow2(m, -e))[0])
        return _times_pow2(sigma, e)
    raise ConvergenceError(f"power iteration stalled at shape {m.shape}")


def explicit_inverse(a) -> np.ndarray | None:
    """A^-1 of a square matrix by one LU and one multi-column solve.

    None when the factorisation detects singularity or an entry of the
    inverse overflows.
    """
    m = as_square_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            w = solve_factored(m, np.eye(m.shape[0], dtype=np.complex128))
        except SingularMatrixError:
            return None
    return w if np.all(np.isfinite(w.view(np.float64))) else None


def smallest_singular_value(a) -> float:
    """Smallest singular value of a square complex matrix.

    1 / largest_singular_value(W) for the explicit inverse W = A^-1.
    Returns exactly 0.0 when A is singular or W overflows.
    """
    m = as_square_matrix(a)
    if m.shape[0] == 1:
        return abs(complex(m[0, 0]))
    w = explicit_inverse(m)
    return 0.0 if w is None else 1.0 / largest_singular_value(w)


def largest_singular_value(a) -> float:
    """Largest singular value (spectral norm); accepts any 2-d complex array.

    ``power_iteration`` with C = A.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"expected a nonempty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise DimensionError("matrix entries must be finite")
    if not m.any():
        return 0.0
    sigma = power_iteration(m)
    if sigma is None:
        return _jacobi_fallback(m)
    return sigma


def sv2x2(m) -> SingularExtremes:
    """Closed-form singular values of a 2x2 complex matrix (see sv2x2_batch)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape != (2, 2):
        raise DimensionError(f"sv2x2 expects shape (2, 2), got {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise DimensionError("matrix entries must be finite")
    hi, lo = sv2x2_batch(a[0, 0], a[0, 1], a[1, 0], a[1, 1])
    return SingularExtremes(sigma_max=float(hi), sigma_min=min(float(lo), float(hi)))


def sv2x2_batch(m00, m01, m10, m11):
    """Singular values of 2x2 matrices given as aligned arrays of entries.

    Returns (sigma_max, sigma_min) float arrays.  With rows r1, r2 and
    F = |r1|^2 + |r2|^2, sigma_max^2 = (F + sqrt(R)) / 2, where the
    radicand R = F^2 - 4 |det M|^2 is summed from the rows as
    (|r1|^2 - |r2|^2)^2 + 4 |<r1, r2>|^2, so it does not cancel when
    sigma_max is close to sigma_min; sigma_min = |det M| / sigma_max, which
    does not cancel however large sigma_max / sigma_min is.  Used by the
    block-family scans, where millions of 2x2 blocks may be evaluated per
    call.
    """
    a, b = np.asarray(m00, dtype=np.complex128), np.asarray(m01, dtype=np.complex128)
    c, d = np.asarray(m10, dtype=np.complex128), np.asarray(m11, dtype=np.complex128)
    top = np.abs(a) ** 2 + np.abs(b) ** 2
    bottom = np.abs(c) ** 2 + np.abs(d) ** 2
    inner = np.abs(a * c.conj() + b * d.conj())
    det = np.abs(a * d - b * c)
    rad = (top - bottom) ** 2 + 4.0 * inner**2
    hi = np.sqrt((top + bottom + np.sqrt(rad)) / 2.0)
    lo = det / np.where(hi > 0.0, hi, 1.0)
    return hi, lo
