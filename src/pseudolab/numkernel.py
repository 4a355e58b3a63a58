"""Dense complex linear-algebra kernels.

Everything downstream reduces to three operations on stacks of complex
matrices:

* ``explicit_inverses``        A^-1 of each matrix by one LU with partial
                               pivoting (``lu_factor``) and one
                               multi-column solve (``lu_solve``)
* ``largest_singular_values``  sigma_max of each matrix, direct: the Gram
                               matrix, then a closed form or Householder
                               tridiagonalization and Sturm multisection
* ``sv2x2_batch``              closed-form singular values of 2x2 blocks

plus ``jacobi_singular_values``, all singular values of one matrix or of
a stack of them by one-sided Jacobi in round-robin order, which the block
engine calls on stacks of 4x4 blocks.
``batch_square_scaled`` raises a stack to the power 2^n by squarings,
each rescaled exactly by a power of two, for the dense power norms and
power_diff_bound_check, and ``scaled_root`` takes the 2^n-th root of such a
scaled power's norm, rounding the root alone; the multisection's seed
(``_power_estimate``) squares on its own, dropping what would turn
subnormal.
``cmul`` multiplies complex arrays elementwise in real arithmetic, rounded
as Python's complex product whatever the arrays' layout.
``smallest_singular_value``, 1 / sigma_max of the explicit inverse of one
matrix, is the public one-matrix helper; no package path calls it.

sigma_max involves no iteration that has to converge.  A scaled matrix's
2x2 Gram matrix gives lambda_max in closed form; a larger one is reduced to
a real tridiagonal T (Golub & Van Loan, Matrix Computations, 4th ed., 8.3)
whose lambda_max is enclosed by Sturm-count multisection down to two
adjacent doubles (8.4), the first pass around a power estimate when T has
at most SHIFTS rows.  The count is monotone in the shift (Demmel, Dhillon &
Ren, ETNA 3, 1995), so the seed saves passes and changes no bit.

Every step treats each matrix of a stack alike: matrix products run
slice by slice and elementwise operations along the rows of one matrix,
so a matrix's results do not depend on the rest of its stack, bit for
bit.
No LAPACK-style library call appears on any of these paths; numpy is used
for array storage, vectorised arithmetic and matrix products only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

PIVOT_FLOOR = 1e-300
JACOBI_SWEEP_CAP = 60
# columns a blocked LU or tridiagonalization reduces before it updates the
# trailing matrix with one matrix product
PANEL = 32
# Sturm counts per matrix in one bisection pass; a pass shrinks the
# enclosure of lambda_max by the factor SHIFTS + 1
SHIFTS = 255
# a seeded pass's shifts in ulps of its estimate: 0 and +-g, g geometric in [1, 2^44]
SEED_OFFSETS = np.array(sorted([0.0] + [s * 2.0 ** (44 * j / (SHIFTS // 2 - 1))
                                        for s in (-1, 1) for j in range(SHIFTS // 2)]))


class DimensionError(DomainError):
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


def _cabs1(x: np.ndarray) -> np.ndarray:
    """|re| + |im|, the pivot measure of LAPACK's izamax."""
    return np.abs(x.real) + np.abs(x.imag)


def lu_factor(a: np.ndarray):
    """Partial-pivot LU of a matrix (n, n) or of each matrix of a stack (b, n, n).

    Returns (packed, perm) with A[perm] = L U per matrix: ``packed`` holds U
    on and above the diagonal and the unit-lower L strictly below it, and
    row k of L U is row ``perm[k]`` of A.  Pivots are chosen by |re| + |im|.
    A pivot whose measure is at most PIVOT_FLOOR stays on the diagonal of U
    and eliminates nothing (its multipliers are 0), so no entry grows;
    ``explicit_inverses`` treats such a matrix as singular.  Blocked as in
    LAPACK's zgetrf: PANEL columns are eliminated within themselves, then
    the rows of U to their right are solved for and the trailing matrix
    takes their update in one product.
    """
    lu = np.array(a, dtype=np.complex128, order="C")
    stack = lu.reshape((-1,) + lu.shape[-2:])
    count, n = stack.shape[:2]
    perm = np.tile(np.arange(n), (count, 1))
    mats = np.arange(count)
    for start in range(0, n, PANEL):
        end = min(start + PANEL, n)
        for k in range(start, end):
            p = k + np.argmax(_cabs1(stack[:, k:, k]), axis=1)
            row = stack[mats, p]
            stack[mats, p] = stack[:, k]
            stack[:, k] = row
            taken = perm[mats, p]
            perm[mats, p] = perm[:, k]
            perm[:, k] = taken
            pivot = row[:, k]
            live = _cabs1(pivot) > PIVOT_FLOOR
            mult = stack[:, k + 1 :, k]
            mult /= np.where(live, pivot, 1.0)[:, None]
            mult *= live[:, None]
            stack[:, k + 1 :, k + 1 : end] -= mult[:, :, None] * row[:, None, k + 1 : end]
        if end < n:
            for k in range(start + 1, end):
                stack[:, k, end:] -= (stack[:, k, None, start:k] @ stack[:, start:k, end:])[:, 0]
            stack[:, end:, end:] -= stack[:, end:, start:end] @ stack[:, start:end, end:]
    return lu, perm.reshape(lu.shape[:-1])


def lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given lu_factor output, for one matrix or a stack.

    b holds one vector (n,) or matrix (n, k) per factored matrix.
    """
    rhs = np.asarray(b, dtype=np.complex128)
    squeeze = rhs.ndim < lu.ndim
    if squeeze:
        rhs = rhs[..., None]
    x = np.take_along_axis(rhs, perm[..., None], axis=-2)
    n = lu.shape[-1]
    for k in range(1, n):  # L y = b[perm], unit diagonal
        x[..., k, :] -= (lu[..., k, None, :k] @ x[..., :k, :])[..., 0, :]
    for k in range(n - 1, -1, -1):  # U x = y
        if k + 1 < n:
            x[..., k, :] -= (lu[..., k, None, k + 1 :] @ x[..., k + 1 :, :])[..., 0, :]
        x[..., k, :] /= lu[..., k, k, None]
    return x[..., 0] if squeeze else x


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


def explicit_inverses(mats: np.ndarray):
    """A^-1 of each matrix of a stack (b, n, n): one LU and one multi-column solve.

    Returns (inverses, invertible).  A matrix is not invertible when its
    factorisation meets a pivot of measure at most PIVOT_FLOOR or an entry
    of its inverse overflows; its inverse is then all zeros.
    """
    n = mats.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lu, perm = lu_factor(mats)
        w = lu_solve(lu, perm, np.broadcast_to(np.eye(n, dtype=np.complex128), mats.shape))
    ok = (_cabs1(np.diagonal(lu, axis1=1, axis2=2)) > PIVOT_FLOOR).all(axis=1)
    ok &= np.isfinite(w.view(np.float64)).all(axis=(1, 2))
    w[~ok] = 0.0
    return w, ok


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


def largest_singular_values(mats: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix of a stack (b, m, n) of finite complex entries.

    Each matrix is multiplied by the power of two 2^-e that brings its
    largest |re| or |im| into [1/2, 1), exactly; lambda_max of its Gram
    matrix C on the smaller side, (c00 + c11)/2 + hypot((c00 - c11)/2, |c01|)
    on two columns and else by ``_tridiagonal`` and ``_top_eigenvalue``,
    gives sigma_max = sqrt(lambda_max) 2^e.  lambda_max >= 1/4 after the
    scaling; forming C and reducing it move lambda_max by at most O(k u)
    relative, and by a few ulps in practice.  A zero matrix gives 0.
    """
    w = np.asarray(mats, dtype=np.complex128)
    if w.shape[1] < w.shape[2]:
        w = np.swapaxes(w, 1, 2)
    parts = np.ascontiguousarray(w).view(np.float64)
    e = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]  # 0 for a zero matrix
    w = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
    gram = np.conj(np.swapaxes(w, 1, 2)) @ w
    if gram.shape[1] == 2:
        g00, g11 = gram[:, 0, 0].real, gram[:, 1, 1].real
        lam = (g00 + g11) / 2.0 + np.hypot((g00 - g11) / 2.0, np.abs(gram[:, 0, 1]))
    else:
        lam = _top_eigenvalue(*_tridiagonal(gram))
    return np.ldexp(np.sqrt(lam), e)


def _householder(x: np.ndarray, floor: np.ndarray):
    """(v, tau, ||x||) per row x of a stack (b, L), with (I - tau v v*) x = beta e_1.

    beta = -phase(x_0) ||x||, v = x - beta e_1 and tau = 2 / ||v||^2 =
    1 / (||x|| (||x|| + |x_0|)), so v_0 = phase(x_0) (|x_0| + ||x||) does
    not cancel.  tau = 0 (H = I) where x is already a multiple of e_1, and
    where ||x|| <= floor: such an x counts as reduced, its norm the
    off-diagonal.
    """
    flat = x.view(np.float64)
    norm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    lead = x[:, 0]
    mag = np.hypot(lead.real, lead.imag)
    nonzero = mag > 0.0
    grow = (mag + norm) / np.where(nonzero, mag, 1.0)
    v = x.copy()
    v[:, 0] = np.where(nonzero, lead * grow, norm)
    turn = norm > np.maximum(mag, floor)
    tau = turn / np.where(turn, norm * (norm + mag), 1.0)  # 0.0 where not turn
    return v, tau, norm


def _tridiagonal(a: np.ndarray):
    """(diagonal, off-diagonal) of a real symmetric tridiagonal matrix with
    the eigenvalues of each Hermitian matrix of a stack (b, k, k), which it
    overwrites.

    Householder reduction, blocked as in LAPACK's zhetrd: the reflectors
    H_j = I - tau v v* of up to PANEL columns are kept as the update
    A - V W* - W V*, column j of the updated matrix is formed from them,
    and the trailing matrix takes the whole update in one product.
    Reflector j leaves beta_j = -phase ||x|| below the diagonal of column j;
    the diagonal unitary similarity that removes the phases leaves ||x||,
    so the off-diagonal is nonnegative.

    The matrices are Gram matrices, so lambda_max <= trace.  An x with
    ||x||^2 <= 2^-1022 trace is left as it is (tau = 0): it moves lambda_max
    by about 2 ||x|| at most, far below an ulp of lambda_max >= 1/4 as
    largest_singular_values scales it.  Any other x has tau < 2^1022 / trace,
    so (tau/2) v* (tau A v) <= lambda_max tau stays finite.
    """
    count, k = a.shape[:2]
    diag = np.empty((count, k))
    off = np.empty((count, k - 1))
    diag[:, -1] = a[:, -1, -1].real
    floor = np.sqrt(np.trace(a, axis1=1, axis2=2).real) * 2.0**-511
    for start in range(0, k - 1, PANEL):
        width = min(PANEL, k - 1 - start)
        # rows start.. of the reflectors and of W = tau A v - (tau/2)(v* tau A v) v
        vs = np.zeros((count, k - start, width), dtype=np.complex128)
        ws = np.zeros_like(vs)
        for i in range(width):
            j = start + i
            done_v, done_w = vs[:, i:, :i], ws[:, i:, :i]
            col = a[:, j:, j] - (
                done_v @ ws[:, i, :i, None].conj() + done_w @ vs[:, i, :i, None].conj()
            )[..., 0]
            diag[:, j] = col[:, 0].real
            v, tau, off[:, j] = _householder(np.ascontiguousarray(col[:, 1:]), floor)
            if j == k - 2:
                last = done_v[:, -1, None] @ done_w[:, -1, :, None].conj()
                diag[:, -1] = (a[:, -1, -1] - 2.0 * last[:, 0, 0]).real
                break
            vs[:, i + 1 :, i] = v
            prev_v, prev_w = vs[:, i + 1 :, :i], ws[:, i + 1 :, :i]
            col_v = v[:, :, None]
            p = (
                a[:, j + 1 :, j + 1 :] @ col_v
                - prev_v @ (np.conj(np.swapaxes(prev_w, 1, 2)) @ col_v)
                - prev_w @ (np.conj(np.swapaxes(prev_v, 1, 2)) @ col_v)
            )[..., 0] * tau[:, None]
            half = (v.conj()[:, None, :] @ p[:, :, None])[:, 0, 0].real * (0.5 * tau)
            ws[:, i + 1 :, i] = p - half[:, None] * v
        else:
            rest = start + width
            left = np.concatenate([vs[:, width:], ws[:, width:]], axis=2)
            right = np.concatenate([ws[:, width:], vs[:, width:]], axis=2)
            a[:, rest:, rest:] -= left @ np.conj(np.swapaxes(right, 1, 2))
    return diag, off


def _top_eigenvalue(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """lambda_max of each real symmetric tridiagonal matrix of a stack.

    diag is (b, k) and off (b, k - 1), nonnegative.  The enclosure [lo, hi]
    starts at max(diag) (a Rayleigh quotient) and the Gershgorin bound, and
    each pass counts the eigenvalues below SHIFTS points inside it, all
    matrices and points at once (multisection), until no double lies
    strictly between lo and hi.  Returns lo.  The points are evenly spaced,
    but if k <= SHIFTS the first pass takes x + |ulp(x)| SEED_OFFSETS in
    [lo, hi) for a finite estimate x (``_power_estimate``).
    """
    k = diag.shape[1]
    squares = np.maximum(off * off, np.finfo(float).tiny)
    lo = diag.max(axis=1)
    reach = np.zeros((len(diag), k + 1))
    reach[:, 1:-1] = off
    hi = (diag + reach[:, :-1] + reach[:, 1:]).max(axis=1)
    hi += 4.0 * np.finfo(float).eps * np.abs(hi)
    steps = np.arange(1, SHIFTS + 1) / (SHIFTS + 1)
    active = np.flatnonzero(np.nextafter(lo, np.inf) < hi)
    seed = k <= SHIFTS
    while len(active):
        below, above = lo[active], hi[active]
        shifts = below[:, None] + (above - below)[:, None] * steps
        if seed:
            seed, x = False, _power_estimate(diag[active], off[active])
            ok = np.isfinite(x)
            x = x[ok, None] + np.abs(np.spacing(x[ok, None])) * SEED_OFFSETS
            shifts[ok] = np.clip(x, below[ok, None], np.nextafter(above[ok, None], -np.inf))
        # lambda_max >= shift exactly where fewer than k eigenvalues lie below it
        passed = (_count_below(diag[active], squares[active], shifts) < k).sum(axis=1)
        rows = np.arange(len(active))
        lo[active] = np.where(passed > 0, shifts[rows, passed - 1], below)
        upper = shifts[rows, np.minimum(passed, SHIFTS - 1)]
        hi[active] = np.where(passed < SHIFTS, upper, above)
        active = active[np.nextafter(lo[active], np.inf) < hi[active]]
    return lo


def batch_square_scaled(mats: np.ndarray, n: int):
    """A stack (b, d, d) of matrices raised to the power 2^n by repeated squaring.

    Before each square a matrix is scaled exactly by 2^-e, e the frexp
    exponent of its largest entry modulus s (at least -1023, so 2^-e is
    finite), so no power overflows; returns (scaled, exps), power =
    scaled * 2^exps with integer-valued exps.  A zero or non-finite s
    makes that matrix's exponent +inf.
    """
    w, exps = mats, np.zeros(mats.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            s = np.max(np.abs(w), axis=(1, 2))
            e = np.maximum(np.frexp(s)[1], -1023)
            w = w * np.exp2(-e)[:, None, None]
            w = w @ w
            exps = 2.0 * (exps + e)
        if n:
            # a zero or non-finite matrix stays so once squared: the last s
            # flags every matrix that an earlier one would
            exps = np.where((s > 0.0) & (s < np.inf), exps, np.inf)
    return w, exps


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, in real arithmetic rounded as Python's complex product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def scaled_root(sigma, exps, m: int):
    """(sigma * 2^exps)^(1/m) for integer-valued exps; inf where exps is.

    With exps = m q + r, 0 <= r < m, this is (sigma 2^r)^(1/m) 2^q: the
    scalings stay exact and only the root rounds.  Above m = 512, where
    sigma 2^r may overflow, 2^(r/m) is taken on its own.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.floor(exps / m)  # exact: m is a power of two
        r = exps - m * q
        if m <= 512:
            head = (sigma * np.exp2(r)) ** (1.0 / m)
        else:
            head = sigma ** (1.0 / m) * np.exp2(r / m)
        return np.where(np.isinf(exps), np.inf, head * np.exp2(q))


def _power_estimate(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """v^T T v / v^T v per tridiagonal T of a stack (nan for T = 0), v the column
    of T^256 of largest diagonal entry.

    Eight squarings form T^256, each of a power scaled exactly by the power
    of two that brings its largest entry into [1/2, 1), with the entries
    below 2^-511 set to zero: no product of two entries left is subnormal,
    where the arithmetic would slow many times over.  The entries dropped
    lie below 2^-510 of the largest, so the estimate moves by far less than
    its ulp, if at all; it only places the first pass's shifts.
    """
    i = np.arange(diag.shape[1])
    t = np.zeros(diag.shape + i.shape)
    t[:, i, i] = diag
    t[:, i[1:], i[:-1]] = t[:, i[:-1], i[1:]] = off
    power = t
    for _ in range(8):
        scale = np.frexp(np.abs(power).max(axis=(1, 2)))[1]  # 0 for T = 0
        power = np.ldexp(power, -scale[:, None, None])
        power[np.abs(power) < 2.0**-511] = 0.0
        power = power @ power
    pick = np.argmax(np.diagonal(power, axis1=1, axis2=2), axis=1)
    v = power[np.arange(len(diag)), :, pick, None]
    with np.errstate(invalid="ignore"):
        return (v * (t @ v)).sum(axis=(1, 2)) / (v * v).sum(axis=(1, 2))


def _count_below(diag: np.ndarray, squares: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per matrix and shift x, the number of eigenvalues below x (Sturm count).

    It is the number of negative pivots q_i = d_i - x - e_{i-1}^2 / q_{i-1}
    of the LDL^T factorization of T - x I.  squares holds e^2 floored at the
    smallest normal double, so no pivot is 0/0: a zero pivot makes the next
    one infinite with the right sign, and signbit counts -0 as negative.
    The floor lies far below roundoff only when T is scaled as
    largest_singular_values scales it, to lambda_max >= 1/4.  For a T whose
    entries lie below about 1e-154 the floor is not negligible, and the
    count need not reach k at any shift.
    """
    diag, squares = diag.T[:, :, None], squares.T[:, :, None]
    negative = np.empty((len(diag),) + shifts.shape, dtype=bool)
    q = diag[0] - shifts
    ratio = np.empty_like(q)
    np.signbit(q, out=negative[0])
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(diag)):
            np.divide(squares[i - 1], q, out=ratio)
            np.subtract(diag[i], shifts, out=q)
            q -= ratio
            np.signbit(q, out=negative[i])
    return negative.sum(axis=0)


def smallest_singular_value(a) -> float:
    """Smallest singular value of a square complex matrix.

    1 / sigma_max(W) for the explicit inverse W = A^-1; exactly 0.0 when A
    is singular or W overflows.
    """
    w, ok = explicit_inverses(as_square_matrix(a)[None])
    return 1.0 / float(largest_singular_values(w)[0]) if ok[0] else 0.0


def largest_singular_value(a) -> float:
    """Largest singular value (spectral norm) of any nonempty 2-d complex array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"expected a nonempty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise DimensionError("matrix entries must be finite")
    return float(largest_singular_values(m[None])[0])


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
