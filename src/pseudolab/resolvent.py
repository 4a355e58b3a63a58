"""Resolvent norms and resolvent-power norms for all operator models.

resolvent_power_norms evaluates one model at many points z and returns
one columnar ResolventValues; resolvent_power_norm is its one-point call.
These two alone take max_blocks, the tail-scan budget of infinite families.

A dense matrix T is the direct sum of its diagonal blocks
(DenseOperator.blocks), so every dense value is the largest of its blocks'
values (_dense_power_norms): 1/|z - d| for a 1x1 block d, and for a larger
block B sigma_max(W^2^n)^(1/2^n) of W = (B - z)^-1: one stacked LU and
solve per block size, exactly rescaled squares (batch_square_scaled) and
largest_singular_values, closed-form on 2x2 blocks.  The clearance
checks of the dense gnr_defect, expansion_residual and
power_diff_bound_check read sigma_min(T - z) = 1/sigma_max(W) off the
inverse of the whole T they go on to use.  gnr_defect evaluates at the
sequence's own anchor, which its constructor checked against the limit; a
dense defect checks it against the term it evaluates, and a truncation
sequence's defect is the engine's scan of its family past block k.

Block families evaluate sup_k ||(B_k - z)^-m|| ^ (1/m) with one block
engine that takes all points at once.  This module alone scans blocks:
the points walk the block_chunks schedule together, chunks growing from
HEAD_CHUNK blocks to CHUNK_CAP, and each chunk is evaluated for the points
still active in (points x blocks) groups of at most STACK_CAP 4x4
matrices (16 * STACK_CAP 2x2 values).  Truncations take the exact maximum
over their blocks.  Infinite families, or their blocks past a start index,
scan a head until a closed-form certificate for the tail beyond it closes
the gap; a point leaves the active set once its certificate closes, its
value is inf, or the budget ends.  Every point's value starts at the tail
limit, which _tail_limit alone writes down and every certificate reads:

* 2x2 shapes: the symbols 1 + 1/x, 1 - 1/sqrt(x) and x^beta are
  monotone with x f(x) nondecreasing.  For n = 0, exact polynomial algebra
  shows no block of 1 + 1/x or 1 - 1/sqrt(x) beyond the scan point exceeds
  the point's value (_two_stays_below), and a monotone envelope
  (r + x) / (x f(x) - r^2) bounds the tail otherwise; for powers,
  Schur-style bounds on the squared block resolvent give a decreasing
  tail majorant;
* the 4x4 shape: one expansion of the block resolvent power in 1/alpha
  around its nilpotent limit (_four_expansion) proves for n = 0 and 1 that
  every block beyond the scan point stays strictly below the tail limit
  (_four_stays_below_limit; z = 0 has closed forms instead); where that
  fails, and for n >= 2, a majorant read off it, increasing in 1/alpha,
  bounds the tail.  Its polynomial algebra depends on z alone, so a scan
  forms it once per call (_four_terms), and each chunk forms only what
  depends on the weight, at the points still open.

Head values are exact, and both block shapes take powers by one rule: a
block is a weighted cycle with B^d = P I, P = (alpha f)^(d/2), so
(P - z^d)(B - z)^-1 is a polynomial in B of degree < d, and n exactly
rescaled squarings modulo x^d - P raise it to 2^n (_power_coefficients).
A 2x2 head reads sigma_max off sv2x2_batch (n = 0 takes a closed form in
real arithmetic).  A 4x4 head screens its blocks in two stages against
the value their point's scan must beat at the start of the chunk or its
largest column-norm value: a Frobenius pre-screen per group, then at
n = 0, on the survivors pooled in stacks of at most STACK_CAP, a Gram
screen by the smaller bound sigma_max^2 <= ||M* M||_inf.  Each drops only
blocks that lie provably below the threshold, and Jacobi stacks of at
most STACK_CAP, pooled again, evaluate the rest.  Every model takes
n <= POWER_INDEX_LIMIT.

Each point's arithmetic depends on that point alone, so a value does not
depend on the other points of the call.  The certificates are array
functions of the points, NaN where none applies.  numpy's complex
products and powers may round a point differently by its place in the
batch, so powers of z are taken in real arithmetic (_cmul) and |z| by
hypot.  The reported value is max(head maximum, analytic tail limit): a
certified lower bound that is exact whenever the certificates close the
gap to within TAIL_TOL.  The one-sided gap that remains is reported in
the diagnostics, with the value marked uncertified.  The inverse symbol
f(x) = 1/x takes an exact rule of z instead of a scan
(_inverse_family_values).  A block point must lie within BLOCK_Z_LIMIT,
where the certificates' powers of |z| stay finite.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularityError
from .numkernel import (
    SHIFTS,
    batch_square_scaled,
    explicit_inverses,
    jacobi_singular_values,
    largest_singular_value,
    largest_singular_values,
    sv2x2_batch,
)
from .operators import (
    DenseOperator,
    DiagBlockFamily,
    ScaledOperator,
    TruncatedFamily,
    TruncationSequence,
)

TAIL_TOL = 1e-9
SIGN_SLACK = 64 * np.finfo(np.float64).eps  # the 2x2 sign certificate's allowance
MAX_BLOCKS_DEFAULT = 10**6
SPECTRUM_CLEARANCE = 1e-10
# the most 4x4 matrices one stack of the block engine holds, for one point
# or many; a 2x2 stack holds 16 * STACK_CAP values, one per entry of those
# matrices
STACK_CAP = 1 << 10
# a dense stack of points takes at most DENSE_CAP / (count * s * max(s, SHIFTS))
# points for count diagonal blocks of size s >= 2: a point takes s^2 entries
# per block and, from s = 3 on (2x2 blocks take a closed form), s * SHIFTS Sturm
# pivots per multisection pass; 1x1 blocks take DENSE_CAP / count points
DENSE_CAP = 1 << 18

# block scans walk k = 1, 2, ... in chunks growing from HEAD_CHUNK to CHUNK_CAP
HEAD_CHUNK = 16
CHUNK_GROWTH = 4
CHUNK_CAP = 1 << 18

# the largest |z| a block family is evaluated at: the 2x2 certificates and
# the 4x4 blocks form |z|^4, and this limit keeps it at most 1e300; past it
# a point came back as a certified inf or as nan
BLOCK_Z_LIMIT = 1e75
# the largest power index n: 2^n and a power's exponent, about 2^n log2 of
# its scale, stay finite, and the root has met its n -> inf limit long before
POWER_INDEX_LIMIT = 64
FOUR_ROUNDING = 1e-9  # the relative growth of the 4x4 bounds that covers their rounding


@dataclass(frozen=True)
class ResolventValue:
    """An extended-real resolvent(-power) norm with tail diagnostics.

    value is +inf exactly when the point sits on the spectrum (singular
    factorization on the dense path, a block eigenvalue hit or a certified
    divergent sup on the block path).  tail_gap is the achieved one-sided
    distance between the reported value and the certified upper bound for
    the infinite tail (0 when the certificates closed exactly); certified
    says whether that gap is within TAIL_TOL.  k_cutoff is the number of
    blocks examined exactly.
    """

    value: float
    tail_gap: float = 0.0
    certified: bool = True
    k_cutoff: int = 0

    def __post_init__(self):
        if not self.value > 0.0:
            raise DomainError(f"resolvent value must be positive, got {self.value}")


@dataclass(frozen=True)
class ResolventValues:
    """The ResolventValues of one call at many points, as columns.

    value, tail_gap, certified and k_cutoff are arrays with one entry per
    point.  Indexing or iterating gives the per-point ResolventValue.
    """

    value: np.ndarray
    tail_gap: np.ndarray
    certified: np.ndarray
    k_cutoff: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> ResolventValue:
        return ResolventValue(
            float(self.value[i]), float(self.tail_gap[i]),
            bool(self.certified[i]), int(self.k_cutoff[i]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _exact_values(value: np.ndarray, k_cutoff: int) -> ResolventValues:
    """Certified values with no tail gap, every point at the same cutoff."""
    count = len(value)
    gaps, flags = np.zeros(count), np.ones(count, dtype=bool)
    return ResolventValues(value, gaps, flags, np.full(count, k_cutoff))


@dataclass(frozen=True)
class PowerDiffBound:
    lhs: float
    rhs: float
    holds: bool


# ---------------------------------------------------------------- dense path


def _shifted(mats: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack of B - z over the points zs and, within each, the matrices B of mats."""
    stack = np.repeat(mats[None], len(zs), axis=0)
    diag = np.arange(mats.shape[-1])
    stack[..., diag, diag] -= zs[:, None, None]
    return stack.reshape(-1, *mats.shape[-2:])


def _dense_power_norms(matrix: np.ndarray, blocks, zs: np.ndarray, n: int) -> np.ndarray:
    """||(T - z)^-2^n|| ^ (1/2^n) at each z for T, the direct sum of its blocks.

    blocks holds the boundaries of T's diagonal blocks.  The norm of a
    direct sum is the largest of its summands' norms, so each block size
    is one (points x blocks) stack and a point takes its maximum over all
    blocks.  A 1x1 block d is normal, with the value 1/|z - d| at every n;
    a larger block B gives sigma_max(W^2^n) ^ (1/2^n), W = (B - z)^-1, inf
    where W is singular or overflows.
    """
    bounds = np.asarray(blocks)
    starts, sizes = bounds[:-1], np.diff(bounds)
    out = np.zeros(len(zs))
    # not np.unique: its first call imports numpy.ma, about 1 MB of peak RSS
    for size in sorted(set(sizes.tolist())):
        span = starts[sizes == size][:, None] + np.arange(size)
        mats = matrix[span[:, :, None], span[:, None, :]]
        count = len(mats)
        rows = max(1, DENSE_CAP // (count if size == 1 else count * size * max(size, SHIFTS)))
        for i in range(0, len(zs), rows):
            z = zs[i : i + rows]
            if size == 1:
                with np.errstate(divide="ignore"):
                    values = 1.0 / np.abs(z - mats[:, 0, 0, None]).min(axis=0)
            else:
                w, ok = explicit_inverses(_shifted(mats, z))
                powers, exps = batch_square_scaled(w, n)
                sigma = _scaled_root(largest_singular_values(powers), exps, 1 << n)
                values = np.where(ok, sigma, math.inf).reshape(len(z), count).max(axis=1)
            np.maximum(out[i : i + rows], values, out=out[i : i + rows])
    return out


# ------------------------------------------------------ block head values


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, in real arithmetic rounded as Python's complex product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _power_coefficients(d: int, alphas, fs, zs: np.ndarray, n: int):
    """(c, exps, q): (P - z^d)^(2^n) (B_k - z)^-2^n = 2^exps sum_{i<d} c_i B_k^i, q = |P - z^d|.

    B^d = P I, P = (alpha f)^(d/2), so (B - z) N = (P - z^d) I for
    N = sum_i z^(d-1-i) B^i, and n squarings modulo x^d - P raise N to 2^n.
    Before each and after the last, c is scaled exactly by 2^-e, e the
    frexp exponent of its largest real or imaginary part (at least -1023).
    c is (d, points, blocks), exps (inf where a power overflows) and
    q (points, blocks); the products round as _cmul's.
    """
    p = (alphas * fs) ** (d // 2)
    z = zs[:, None]
    z2 = _cmul(z, z)
    powers = [np.ones_like(z), z, z2] + ([_cmul(z, z2), _cmul(z2, z2)] if d == 4 else [])
    q = np.hypot(p - powers[d].real, powers[d].imag)
    c = np.stack(powers[d - 1 :: -1])
    x, y, exps = c.real, c.imag, np.zeros(q.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n + 1):
            s = np.maximum(np.abs(x), np.abs(y)).max(axis=0)
            ok = (s > 0.0) & (s < math.inf)
            e = np.maximum(np.frexp(np.where(ok, s, 1.0))[1], -1023)
            x, y, exps = x * np.exp2(-e), y * np.exp2(-e), np.where(ok, exps + e, math.inf)
            if step < n:
                sq_x, sq_y = np.zeros((2, d) + q.shape)
                for i in range(d):
                    for j in range(i, d):
                        # c_i c_j x^(i+j), twice off the diagonal, and x^d = P
                        w = (1.0 if i == j else 2.0) * (p if i + j >= d else 1.0)
                        sq_x[(i + j) % d] += (x[i] * x[j] - y[i] * y[j]) * w
                        sq_y[(i + j) % d] += (x[i] * y[j] + y[i] * x[j]) * w
                x, y, exps = sq_x, sq_y, 2.0 * exps
    return x + 1j * y, exps, q


def _four_power_stack(family, ks: np.ndarray, zs: np.ndarray, n: int):
    """_power_coefficients' (c, exps, q) with c laid out as a 4x4 matrix, flat and point-major.

    B e0 = alpha e2, B e2 = alpha e1, B e1 = f e3 and B e3 = f e0: c_i goes
    where B^i takes each e_j, i steps along that cycle, times its weights.
    """
    alphas = family.alpha.values(ks)
    fs = family.symbol.values(alphas)
    c, exps, q = _power_coefficients(4, alphas, fs, zs, n)
    mats = np.zeros(q.shape + (4, 4), dtype=np.complex128)
    cycle, weights = (0, 2, 1, 3), (alphas, alphas, fs, fs)
    for t in range(4):
        w = 1.0
        for i in range(4):
            mats[..., cycle[(t + i) % 4], cycle[t]] = c[i] * w
            w = w * weights[(t + i) % 4]
    return mats.reshape(-1, 4, 4), exps.ravel(), q.ravel()


def _two_block_values(family, ks: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    """(points, blocks) values ||(B_k - z)^-2^n||^(1/2^n); inf marks a singular block.

    n = 0 takes real arithmetic, z^2 by _cmul; n >= 1 the matrix
    c0 + c1 B = [[c0, c1 f], [c1 alpha, c0]] of _power_coefficients.
    """
    alphas = family.alpha.values(ks)
    fs = family.symbol.values(alphas)
    z = zs[:, None]
    if n == 0:
        # 1/sigma_min(B - z) = sigma_max / |det| with det = z^2 - alpha f, in
        # real arithmetic.  sigma_max^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2 with
        # F = ||B - z||_F^2; the radicand is summed from the rows (-z, f),
        # (alpha, -z) as (f^2 - alpha^2)^2 + 4 |alpha z + f conj(z)|^2, so it
        # does not cancel when sigma_max is close to sigma_min
        zsq = _cmul(z, z)
        x, y = z.real, z.imag
        big = 2.0 * (x * x + y * y) + alphas * alphas + fs * fs
        det = np.hypot(alphas * fs - zsq.real, zsq.imag)
        rows = (fs - alphas) * (fs + alphas)
        cross = ((alphas + fs) * x) ** 2 + ((alphas - fs) * y) ** 2
        hi = np.sqrt((big + np.sqrt(rows * rows + 4.0 * cross)) / 2.0)
        with np.errstate(divide="ignore"):
            return hi / det
    c, exps, q = _power_coefficients(2, alphas, fs, zs, n)
    hi, _ = sv2x2_batch(c[0], c[1] * fs, c[1] * alphas, c[0])
    with np.errstate(divide="ignore"):
        return _scaled_root(hi, exps, 1 << n) / q


# ------------------------------------------------------- tail certificates


def _tail_limit(family, zs: np.ndarray, n: int) -> np.ndarray:
    """At each z, the tail limit lim_k ||(B_k - z)^-2^n||^(1/2^n) of an infinite family.

    A 2x2 block tends to the antidiagonal [[0, C], [alpha, 0]]: the limit is
    1/C at n = 0, and 0 for n >= 1, where the power norms decay.  The 4x4
    resolvents tend to L, nilpotent plus z times its square, with L^4 = 0
    and ||L^2|| = 1: the limit is c at n = 0, 1 at n = 1 and 0 for n >= 2.
    c^2, the top eigenvalue of L*L, is (t + sqrt(t^2 - 4)) / 2 with
    t = 2 + r^2, r = |z|, taken as 1 + r (r + sqrt(r^2 + 4)) / 2, which does
    not cancel as r -> 0.
    """
    if family.block_dim == 2:
        return np.full(len(zs), 1.0 / family.symbol.tail_limit if n == 0 else 0.0)
    if n == 0:
        r = np.hypot(zs.real, zs.imag)
        return np.sqrt(1.0 + r * (r + np.sqrt(r * r + 4.0)) / 2.0)
    return np.full(len(zs), 1.0 if n == 1 else 0.0)


def _one_minus_re_square(zs: np.ndarray):
    """1 - Re z^2 at each z and a bound on its error, small beside |z|^2.

    Dekker's split gives x^2 = hx + lx and y^2 = hy + ly exactly, and
    Knuth's two-sum hx - hy = s + t, so only sums of the small parts and
    1 - s round.  The splits are exact within BLOCK_Z_LIMIT.
    """

    def square(x):
        c = 134217729.0 * x  # 2^27 + 1
        top = c - (c - x)
        rest = x - top
        hi = x * x
        return hi, ((top * top - hi) + 2.0 * top * rest) + rest * rest

    (hx, lx), (hy, ly) = square(zs.real), square(zs.imag)
    s = hx - hy
    b = s - hx
    small = ((hx - (s - b)) - (hy + b)) + (lx - ly)
    e = (1.0 - s) - small
    err = np.abs(1.0 - s) + np.abs(e) + np.abs(small) + np.abs(lx) + np.abs(ly)
    return e, np.finfo(np.float64).eps * err


def _two_stays_below(family, a: float, zs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """At each z, whether every block with weight >= a has n = 0 value <= t (exact algebra).

    A block's value v solves D v^4 - F v^2 + 1 = 0, D = |z^2 - x f|^2 and
    F = 2|z|^2 + x^2 + f^2, as its larger root; at T = t^2 >= 1 the smaller
    one, 1/sigma_max^2 < 1 (sigma_max >= max(x, f) > 1), lies below T, so
    v <= t exactly when D T^2 - F T + 1 >= 0 (D = 0 makes it negative).
    Times x^2 that is a polynomial p of degree 4 in x for f = 1 + 1/x and
    of degree 6 in y = sqrt(x) for f = 1 - 1/sqrt(x), with top coefficient
    T (T - 1), so T >= 1 is part of the test.  p
    is nonnegative on the tail when every Taylor coefficient at x0 = a (or
    sqrt(a) rounded down) is, each divided by x0^(d - j) so the sums stay
    finite, by at least SIGN_SLACK times the same sum over its terms'
    absolute values, which also carry the error of 1 - Re z^2.  Points
    with t = inf and the other symbols are refused.  t may stack several
    thresholds per point on leading axes, and the answer takes t's shape.
    """
    kind = family.symbol.kind
    if kind not in ("one_plus_inv", "one_minus_inv_sqrt"):
        return np.zeros_like(t, dtype=bool)
    ok = np.isfinite(t)
    z = np.where(ok, zs, 0.0)
    big_t = np.where(ok, t, 1.0) ** 2
    tt = big_t * big_t
    v = _cmul(z, z).imag
    r2 = z.real * z.real + z.imag * z.imag

    def coefficients(e, h, u, v, t1, s):
        """Ascending, in e = 1 - Re z^2 = 1 - u and h = 1 - 2u; with s = 1 and
        the inputs' magnitudes, bounds on the terms."""
        middle = 1.0 + s * big_t * (2.0 * r2 + 1.0)
        if kind == "one_plus_inv":
            return [s * big_t, s * 2.0 * big_t, tt * (e * e + v * v) + middle,
                    2.0 * tt * e, big_t * t1]
        return [s * big_t, 2.0 * big_t, tt * r2 * r2 + middle, 2.0 * tt * u,
                tt * h, s * 2.0 * tt, big_t * t1]

    t1 = big_t - 1.0
    e, de = _one_minus_re_square(z)
    de /= SIGN_SLACK  # so SIGN_SLACK times a magnitude also covers it
    p = np.stack(coefficients(e, 2.0 * e - 1.0, 1.0 - e, v, t1, -1.0), axis=-1)
    mag = np.stack(coefficients(np.abs(e) + de, np.abs(2.0 * e - 1.0) + 2.0 * de,
                                np.abs(1.0 - e) + de, np.abs(v), np.abs(t1), 1.0), axis=-1)
    x0 = a if kind == "one_plus_inv" else np.nextafter(math.sqrt(a), 0.0)
    k = np.arange(p.shape[-1])
    binom = np.array([[math.comb(i, j) for j in k] for i in k], dtype=np.float64)
    shift = binom * x0 ** (k[:, None] - k[-1])
    return ok & np.all(p @ shift >= SIGN_SLACK * (mag @ shift), axis=-1)


def _envelope_sup(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for sup over blocks with weight >= a of the n=0 value.

    Uses ||(B - z)^-1|| <= (r + x) / (x f(x) - r^2), which is monotone on
    the tail for every symbol kind the scan takes, so its sup is max(value
    at the cutoff, tail limit).
    """
    r = np.hypot(zs.real, zs.imag)
    f_a = family.symbol.value(a)
    p_a = a * f_a
    room = np.where((p_a > r * r) & (a >= f_a), p_a - r * r, math.nan)
    return np.maximum((r + a) / room, _tail_limit(family, zs, 0))


def _power_tail_bound(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for sup over the tail of the m-th power block value, m >= 2.

    ||(B - z)^-m||^(1/m) <= ||[(B + z)/q]^2||^(1/2) and the squared norm is
    bounded by (r^2 + p (1 + 2r/f_lb)) / (p - r^2)^2, decreasing in p.
    Every symbol kind is monotone with limit tail_limit and has x f(x)
    nondecreasing, so on the tail f >= f_lb = min(f(a), tail_limit) and
    x f(x) >= p_lb = a f(a).
    """
    r = np.hypot(zs.real, zs.imag)
    f_a = family.symbol.value(a)
    f_lb = min(f_a, family.symbol.tail_limit)
    p_lb = a * f_a
    if not f_lb > 0.0:
        return np.full(len(zs), math.nan)
    room = np.where(p_lb > r * r, p_lb - r * r, math.nan)
    return np.sqrt((r * r + p_lb * (1.0 + 2.0 * r / f_lb)) / room**2)


# -------------------------------------------------------- block-scan engine


def block_chunks(lo: int, hi: int):
    """Block indices lo < k <= hi in chunks growing from HEAD_CHUNK to CHUNK_CAP."""
    size = HEAD_CHUNK
    while lo < hi:
        stop = min(lo + size, hi)
        yield np.arange(lo + 1, stop + 1)
        lo = stop
        size = min(size * CHUNK_GROWTH, CHUNK_CAP)


def _four_survivors(family, ks, zs, n: int, floors: np.ndarray, rows: slice):
    """((mats, exps, q, points, line), keep) of the 4x4 blocks over ks at zs[rows], point-major.

    A block's value is (sigma_max(mats) 2^exps)^(1/m) / q, m = 2^n, and
    sigma_max is at least every column norm and at most the Frobenius norm.
    line is the base-2 log of the point's threshold max(floor, L (1 -
    FOUR_ROUNDING)), L the point's largest column-norm value here.  keep,
    the blocks that may hold a maximum, is False only where the Frobenius
    value lies below the threshold by a further factor 1 - FOUR_ROUNDING,
    both finite (the Frobenius pre-screen); such a block comes nowhere near
    the maximum.  The values are compared in base-2 logs, where 2^exps and
    the root cannot overflow; points indexes zs.  At n = 0
    _gram_survivors screens the survivors again against line.
    """
    mats, exps, q = _four_power_stack(family, ks, zs[rows], n)
    points = np.repeat(np.arange(len(zs))[rows], len(ks))
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.einsum("bij,bij->bj", mats.view(np.float64), mats.view(np.float64))
        cols = np.maximum(np.maximum(sq[:, 0] + sq[:, 1], sq[:, 2] + sq[:, 3]),
                          np.maximum(sq[:, 4] + sq[:, 5], sq[:, 6] + sq[:, 7]))
        # each block's largest column-norm value and its Frobenius value
        low, frob = (0.5 * np.log2([cols, sq.sum(axis=1)]) + exps) / (1 << n) - np.log2(q)
        slack = math.log2(1.0 - FOUR_ROUNDING)
        rise = np.fmax.reduce(low.reshape(-1, len(ks)), axis=1) + slack
        line = np.repeat(np.fmax(np.log2(floors[rows]), rise), len(ks))
        # line + frob is finite exactly where both are
        keep = (frob >= line + slack) | ~np.isfinite(line + frob)
    return (mats, exps, q, points, line), keep


def _gram_survivors(stack):
    """The blocks of a pooled stack of _four_survivors' columns whose Gram value reaches line.

    sigma_max(M)^2 = lambda_max(M* M) <= ||M* M||_inf, the largest absolute
    row sum of the Hermitian Gram matrix, often far below ||M||_F^2 (the
    Gram screen).  A block is kept by the Frobenius pre-screen's rule, on
    this smaller bound: dropped only where its Gram value lies below line by
    the factor 1 - FOUR_ROUNDING, both finite.  Each computed entry G_ij
    lies within 6 sqrt(2) u ||M e_i|| ||M e_j|| of the exact one, u the
    unit roundoff, and ||M e_j||^2 = G_jj <= ||G||_inf, so the computed row
    sums lie within about 40 u of the exact ones relative to ||G||_inf;
    FOUR_ROUNDING covers that more than 10^5 times over.  The values are
    taken at n = 0, m = 1: past it the powers are close to rank one, where
    ||M* M||_inf is close to ||M||_F^2.  On the remark_n1 [-4, 4]^2 survey
    at h = 0.2 the screen passed 3436 of 3460 Frobenius survivors at n = 1
    and 5149 of 5166 at n = 2, at a cost of 1-2 % of the survey's time, so
    the engine takes it at n = 0 alone.
    """
    mats, exps, q, _, line = stack
    gram = np.abs(mats.conj().swapaxes(1, 2) @ mats).sum(axis=2).max(axis=1)
    value = 0.5 * np.log2(gram) + exps - np.log2(q)
    keep = (value >= line + math.log2(1.0 - FOUR_ROUNDING)) | ~np.isfinite(line + value)
    return [a[keep] for a in stack]


def _stacks(parts):
    """A stream of tuples of equal-length arrays, regrouped into tuples of <= STACK_CAP rows."""
    held = None
    for part in parts:
        held = part if held is None else [np.concatenate(a) for a in zip(held, part)]
        while len(held[0]) >= STACK_CAP:
            yield [a[:STACK_CAP] for a in held]
            held = [a[STACK_CAP:] for a in held]
    if held and len(held[0]):
        yield held


def _chunk_maxima(family, ks, zs, n: int, floors: np.ndarray) -> np.ndarray:
    """Per point of zs, max(floor, max of its block values over ks).

    The (points x blocks) pairs are formed in groups of at most STACK_CAP
    4x4 matrices or 16 * STACK_CAP 2x2 values.  4x4 groups are screened
    against the floors the chunk started with by a Frobenius pre-screen per
    group (_four_survivors); the candidates of all groups, pooled in stacks
    of at most STACK_CAP, pass at n = 0 a Gram screen against the same
    thresholds (_gram_survivors), and Jacobi evaluates the rest, pooled
    again.  A point's values depend on that point alone, whatever shares
    its groups and stacks.
    """
    cap = STACK_CAP if family.block_dim == 4 else 16 * STACK_CAP
    width = min(len(ks), cap)
    rows = cap // width
    best = floors.copy()
    groups = ((slice(i, i + rows), ks[j : j + width])
              for i in range(0, len(zs), rows) for j in range(0, len(ks), width))
    if family.block_dim == 2:
        for part, group in groups:
            values = _two_block_values(family, group, zs[part], n).max(axis=1)
            best[part] = np.maximum(best[part], values)
        return best

    parts = (_four_survivors(family, group, zs, n, floors, part) for part, group in groups)
    stacks = _stacks([a[keep] for a in blocks] for blocks, keep in parts if keep.any())
    if n == 0:
        stacks = _stacks(map(_gram_survivors, stacks))
    # the Gram screen runs as the loop pulls its stacks, under this errstate
    with np.errstate(divide="ignore", invalid="ignore"):
        for mats, exps, q, points, _ in stacks:
            sigma = jacobi_singular_values(mats)[:, 0]
            np.maximum.at(best, points, _scaled_root(sigma, exps, 1 << n) / q)
    return best


def _head_maxima(family, n_blocks: int, zs: np.ndarray, n: int) -> np.ndarray:
    """Exact max of the block values over k <= n_blocks at each point.

    inf marks a singular block; such a point leaves the scan.
    """
    best = np.zeros(len(zs))
    active = np.arange(len(zs))
    for ks in block_chunks(0, n_blocks):
        best[active] = _chunk_maxima(family, ks, zs[active], n, best[active])
        active = active[np.isfinite(best[active])]
        if not len(active):
            break
    return best


def _tail_bound(family, a: float, zs: np.ndarray, n: int, values: np.ndarray, terms):
    """At each z, an upper bound for every block value beyond weight a; NaN where none applies.

    A 2x2 point at n = 0 takes the least of the envelope and its value, or
    value + TAIL_TOL rounded toward it, where the sign certificate holds.
    A 4x4 point takes the tail limit c where the sign certificate holds,
    else the majorant (c^m + U ||X1|| + U^2 ||X2|| + U^3 t)^(1/m) of the
    expansion: ||X0|| = c^m, and each term increases with u.  Past n = 3
    it takes the n = 3 majorant: ||R^2m||^(1/2m) <= ||R^m||^(1/m).  terms
    is _four_terms(family, zs, n) for a 4x4 family; a 2x2 one reads none.
    """
    if family.block_dim == 2:
        if n > 0:
            return _power_tail_bound(family, a, zs)
        # both thresholds in one call; the smaller one that holds wins
        t = np.array([values, np.nextafter(values + TAIL_TOL, values)])
        proved = np.where(_two_stays_below(family, a, zs, t), t, math.nan)
        return np.fmin(np.fmin(*proved), _envelope_sup(family, a, zs))
    n = min(n, 3)
    limit = _tail_limit(family, zs, n)
    ok, s, t = expansion = _four_expansion(terms, a, n)
    u, m = 1.0 / a, 1 << n
    with np.errstate(over="ignore"):
        total = limit**m + u * s[1] + u * u * s[2] + u**3 * t
        majorant = np.where(ok, ((1.0 + FOUR_ROUNDING) * total) ** (1.0 / m), math.nan)
    below = n < 2 and _four_stays_below_limit(terms, a, n, expansion)
    return np.where(below, limit, majorant)


def _family_values(
    family, zs: np.ndarray, n: int, max_blocks: int, start: int = 0
) -> ResolventValues:
    """Certified sup over the blocks k > start of an infinite 2x2 or 4x4 family at each point.

    The scan covers at most max_blocks blocks past start, and k_cutoff is
    the absolute index of the last block examined.  The tail-limit seed and
    the 4x4 closed forms at z = 0 hold for the sup over any tail of blocks.
    All points walk the block_chunks schedule together, and each chunk
    updates the active points with array operations.  A point's value
    starts at the tail limit and its head maximum is exact; after each
    chunk its gap is max(0, _tail_bound(next weight) - value), and the
    point leaves the scan once the gap is within TAIL_TOL or its value is
    inf.  Points still open when the budget ends are uncertified and keep
    their smallest gap.
    """
    value = _tail_limit(family, zs, n)
    tail_gap = np.full(len(zs), math.inf)
    certified = np.zeros(len(zs), dtype=bool)
    k_cutoff = np.zeros(len(zs), dtype=np.int64)
    if family.block_dim == 4 and n in (0, 1):
        # closed forms at z = 0: ||B^-1|| = 1/beta_k < 1 and ||B^-2|| =
        # 1/beta_k^2 < 1 for every block, while the tail limit, the seed, is
        # exactly 1
        closed = zs == 0
        tail_gap[closed], certified[closed] = 0.0, True
    active = np.flatnonzero(~certified)
    terms = None  # the 4x4 expansion's z-only part at the active points
    for ks in block_chunks(start, start + max_blocks):
        if not len(active):
            break
        if family.block_dim == 4:
            # formed at the first chunk, then narrowed to the points still open
            terms = (_four_terms(family, zs[active], n) if terms is None
                     else terms._make(x[..., still] for x in terms))
        k_done = int(ks[-1])
        value[active] = _chunk_maxima(family, ks, zs[active], n, value[active])
        k_cutoff[active] = k_done
        a = float(family.alpha.values(np.array([k_done + 1]))[0])
        v = value[active]
        ub = _tail_bound(family, a, zs[active], n, v, terms)
        # an inf value is exact; a NaN gap (no certificate) keeps the old gap
        gap = np.where(np.isinf(v), 0.0, np.maximum(ub - v, 0.0))
        tail_gap[active] = np.fmin(tail_gap[active], gap)
        certified[active] = gap <= TAIL_TOL
        still = ~certified[active]
        active = active[still]
    return ResolventValues(value, tail_gap, certified, k_cutoff)


def _inverse_family_values(zs: np.ndarray, n: int) -> ResolventValues:
    """The inverse symbol f(x) = 1/x by an exact rule of z, with no scan.

    alpha f = 1, so B^2 = I and (B - z)^-m = A' I + D' B with A', D' =
    (w+^m +- w-^m)/2, w+ = 1/(1 - z) and w- = -1/(1 + z).  The off-diagonal
    carries D' alpha_k, unbounded unless D' = 0, that is unless
    ((z - 1)/(z + 1))^m = 1: z = i cot(pi j/m).  For m = 2^n the only
    doubles of that form are 0 (n >= 1) and +-i (n >= 2), where the sup is
    |A'|^(1/m) = |w+| = 1/|1 - z|; every other value is inf.
    """
    x, y = zs.real, zs.imag
    exact = (x == 0) & (((y == 0) & (n >= 1)) | ((np.abs(y) == 1) & (n >= 2)))
    value = np.full(len(zs), math.inf)
    value[exact] = 1.0 / np.hypot(1.0 - x[exact], y[exact])
    return _exact_values(value, 0)


# --------------------------------------------------------------- 4x4 blocks


def _scaled_root(sigma, exps, m: int):
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
        return np.where(np.isinf(exps), math.inf, head * np.exp2(q))


def _poly_product(p: np.ndarray, q: np.ndarray, matrix: bool) -> np.ndarray:
    """Coefficients in u of the product of two polynomials with coefficient stacks p, q.

    matrix multiplies the (points, 4, 4) coefficients as matrices;
    otherwise they are multiplied elementwise with broadcasting, by _cmul.
    """
    shape = np.broadcast_shapes(p.shape[1:], q.shape[1:])
    out = np.zeros((len(p) + len(q) - 1,) + shape, dtype=np.complex128)
    for i in range(len(p)):
        for j in range(len(q)):
            out[i + j] += p[i] @ q[j] if matrix else _cmul(p[i], q[j])
    return out


def _fro(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., d, d) stack, upper bounds for its spectral norms."""
    return np.sqrt((mats.real**2 + mats.imag**2).sum(axis=(-2, -1)))


def _truncation_rho(norms, u):
    """rho of F = A + u^5 R, ||R|| <= rho, after truncated squarings with these norms.

    Each squaring of F, kept to degree 4 as A^2, leaves rho' = sum ||C_k||
    U^(k-5) over A^2's terms past u^4, + 2 ||A||_U rho + U^5 rho^2.  norms
    holds, per squaring, the ||A_k|| and those ||C_k|| (_FourTerms).
    """
    rho = 0.0
    for sizes, dropped in norms:
        size = sum(f * u**k for k, f in enumerate(sizes))
        tail = sum(f * u ** (k - 5) for k, f in enumerate(dropped, 5))
        rho = tail + 2.0 * size * rho + u**5 * rho * rho
    return rho


# the 4x4 tail expansion's parts that depend on z alone (_four_terms); every
# array ends in the points' axis.  r is |z|.  norms holds, for P and Q and
# each of their n' squarings, the norms ||A_k|| (row 0) and ||(A^2)_(k+5)||
# (row 1), k = 0..4, that _truncation_rho reads; the terms a polynomial
# lacks (Q's first squaring has three terms and none past u^4) hold 0,
# which adds nothing.  s holds the Frobenius norms of X0, X1 and X2, and rem
# those of rem's terms past u^2.  sign holds, for n' <= 1, the rows of
# _four_stays_below_limit that depend on z alone (_four_sign_rows), and no
# row for n' >= 2.
_FourTerms = namedtuple("_FourTerms", "r norms s rem sign")


def _four_terms(family, zs, n):
    """The 4x4 tail expansion's parts that depend on z alone, at each z.

    The expansion is formed at n' = min(n, 3) (_tail_bound).  The symbol is
    1 + 1/x, so B^4 = (alpha f)^2 gives (B - z)^-1 = P(u) / Q(u), where
    P(u) = u^2 (B^3 + z B^2 + z^2 B + z^3) is a matrix polynomial of degree
    4 built from uB = E_alpha + (u + u^2) E_f, and Q(u) = (1 + u)^2 -
    z^4 u^2.  n' squarings, each kept to degree 4, form P^m and Q^m,
    m = 2^n'; X's Taylor coefficients X0, X1, X2 are exact polynomial
    algebra (Q(0) = 1), X0 = L^m, L the nilpotent limit of the blocks, and
    rem = P^m - S Q^m as kept, S = X0 + u X1 + u^2 X2.  None of this
    depends on the weight, so a scan forms it once per call, for the points
    open at its first chunk, and each chunk reads it at the points still
    open.  Points that no weight of the scan can serve (|z|^2 >= a + 1, out
    to BLOCK_Z_LIMIT) may overflow here; the readers mask them.
    """
    n = min(n, 3)
    r = np.hypot(zs.real, zs.imag)
    z1 = zs[:, None, None]
    # uB = E_alpha + (u + u^2) E_f as coefficients of u^0, u^1, u^2
    ub = np.zeros((3, 1, 4, 4), dtype=np.complex128)
    ub[0, 0, 2, 0] = ub[0, 0, 1, 2] = 1.0
    ub[1:, 0, 0, 3] = ub[1:, 0, 3, 1] = 1.0
    ub2 = _poly_product(ub, ub, True)
    ub3 = _poly_product(ub2, ub, True)
    norms = np.zeros((2, n, 2, 5, len(zs)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z2 = _cmul(z1, z1)
        z3, z4 = _cmul(z2, z1), _cmul(z2, z2)
        # P = (uB)^3 / u + z (uB)^2 + z^2 u (uB) + z^3 u^2, where (uB)^3 has no
        # u^0 or u^6 term: E_alpha^3 = E_f^3 = 0
        p = ub3[1:6] + z1 * ub2
        p[1:4] += z2 * ub
        p[2] += z3 * np.eye(4)
        q = np.stack([np.ones_like(z4), np.full_like(z4, 2.0), 1.0 - z4])
        powers = []  # P^m and Q^m, each squaring kept to degree 4
        for c, out in zip((p, q), norms):
            for step in out:
                sq = _poly_product(c, c, c.shape[-1] > 1)
                step[0, : len(c)], step[1, : len(sq) - 5] = _fro(c), _fro(sq[5:])
                c = sq[:5]
            powers.append(c)
        p, q = powers
        x1 = p[1] - _cmul(q[1], p[0])
        s = np.stack([p[0], x1, p[2] - _cmul(q[1], x1) - _cmul(q[2], p[0])])
        rem = _poly_product(s, q, False)  # negated; its terms to u^2 vanish
        rem[: len(p)] -= p
        sign = _four_sign_rows(family, zs, r, n, s) if n < 2 else np.zeros((0, len(zs)))
        return _FourTerms(r, norms, _fro(s), _fro(rem[3:]), sign)


def _four_expansion(terms, a: float, n: int):
    """At each z, X = (B - z)^-m, m = 2^n, over the 4x4 blocks with weight >= a, in u = 1/alpha.

    terms is _four_terms(family, zs, n) (n <= 3): the norms of P^m, Q^m, S
    and rem, exact polynomial algebra in u formed once per call.  Here only
    what depends on a is formed.  P^m and Q^m differ from the true powers by
    u^5 rho_P and u^5 rho_Q (_truncation_rho).  On 0 < u <= U = 1/a, |Q| >=
    (1 + u)^2 - |z|^4 u^2, increasing or concave in u, so |Q| >= q =
    min(1, (1 + U)^2 - |z|^4 U^2).  Hence X = S + u^3 T with ||T|| <= t: the
    sum of ||rem_k|| U^(k-3) over rem's terms, plus U^2 (rho_P + ||S||
    rho_Q), over q^m.

    Returns (ok, S, t), S the Frobenius norms of X0, X1 and X2.  ok marks
    the points where q > 0, that is |z|^2 < a + 1, and t is finite; S and t
    are 0 elsewhere.
    """
    s, u = terms.s, 1.0 / a
    q_low = np.minimum(1.0, (1.0 + u) ** 2 - (terms.r * terms.r * u) ** 2)
    ok = q_low > 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho_p, rho_q = (_truncation_rho(norms, u) for norms in terms.norms)
        s_norm = s[0] + u * s[1] + u * u * s[2]
        t = sum(f * u ** (k - 3) for k, f in enumerate(terms.rem, 3))
        t = (t + u * u * (rho_p + s_norm * rho_q)) / q_low ** (1 << n)
    ok &= np.isfinite(t)
    return ok, np.where(ok, s, 0.0), np.where(ok, t, 0.0)


def _four_sign_rows(family, zs, r, n, s):
    """The rows of _four_stays_below_limit at n <= 1 that depend on z alone, r = |z|.

    s is the stack X0, X1, X2 of the expansion at each z.  The rows are
    ||H1||, ||H2||, ||H3||, ||X2* X2||, v*H1 v, v*H2 v, ||P H1 v||,
    ||P H2 v||, c^2 and c^2 - l2, as _four_stays_below_limit names them.
    """
    x0, x1, x2 = s
    xh0, xh1, xh2 = np.conj(np.swapaxes(s, 2, 3))
    h1 = xh0 @ x1 + xh1 @ x0
    h2 = xh0 @ x2 + xh1 @ x1 + xh2 @ x0
    h3 = xh1 @ x2 + xh2 @ x1
    v = np.zeros((len(zs), 4, 1), dtype=np.complex128)
    c = _tail_limit(family, zs, n)
    c2 = c * c
    if n == 0:
        norm = np.sqrt(c2 + 1.0)
        v[:, 0, 0] = c / norm
        v[:, 3, 0] = zs / (np.where(r > 0.0, r, 1.0) * norm)
        gap0 = r * np.sqrt(r * r + 4.0)  # c^2 - 1/c^2
    else:
        gap0 = c2  # c^2 - l2, l2 = 0
        v[:, 0, 0] = 1.0

    # v*hv and ||(I - vv*) hv|| for h = H1, H2
    hv = np.stack([h1, h2]) @ v
    vhv = (np.conj(np.swapaxes(v, 1, 2)) @ hv)[..., 0, 0].real
    off = _fro(hv - vhv[..., None, None] * v)
    return np.stack([_fro(h1), _fro(h2), _fro(h3), _fro(xh2 @ x2), *vhv, *off, c2, gap0])


def _four_stays_below_limit(terms, a: float, n: int, expansion) -> np.ndarray:
    """At each z, whether every block with weight >= a has value < the tail limit (n = 0, 1).

    expansion is _four_expansion(terms, a, n): X = S + u^3 T with S = X0 +
    u X1 + u^2 X2 and ||T|| <= t.  So X*X = H0 + u H1 + u^2 H2 + D with
    H_j = sum_i X_i* X_(j-i) and ||D|| <= K u^3, K = ||H3|| + U ||H4|| +
    2 ||S|| t + U^3 t^2.
    H0 = X0* X0 has top eigenvalue c^2, c the tail limit (_tail_limit), with
    eigenvector v and next eigenvalue l2: v ~ (c, 0, 0, z / r), r = |z|, and
    l2 = 1/c^2 at n = 0; v = e0 and l2 = 0 at n = 1.  Compressing X*X onto v
    and its complement (Kato, Perturbation Theory for Linear Operators)
    bounds its top eigenvalue by that of [[c^2 - u A, u b], [u b, c^2 - G]] with
    A = -v*H1 v - U |v*H2 v| - K U^2, b = ||P H1 v|| + U ||P H2 v|| + K U^2
    (P the projection off v) and G = c^2 - l2 - (||H1|| + U ||H2||) u - K u^3,
    so ||X|| < c^m whenever A > 0, G > 0 and A G > u b^2.  G, A and b are
    taken at u = U, where each is at its worst for the whole tail; what
    depends on z alone is read off terms, formed once per call
    (_four_sign_rows).  The norms are Frobenius norms, the good terms are
    shrunk and the bad ones grown by FOUR_ROUNDING relative, which covers
    the rounding, and the certificate applies only where |z|^4 < a, which
    keeps every power of |z| finite.  At n = 0, z = 0 is left to the closed
    form, where v has no direction.
    """
    in_range, s, t = expansion
    ok = in_range & (terms.r**4 < a)
    if n == 0:
        ok &= terms.r > 0.0
    fro_h1, fro_h2, fro_h3, fro_x22, q1, q2, b1, b2, c2, gap0 = terms.sign
    u = 1.0 / a
    # the rows of the points outside ok may overflow; ok masks them
    with np.errstate(over="ignore", invalid="ignore"):
        s_norm = s[0] + u * s[1] + u * u * s[2]
        big_k = fro_h3 + u * fro_x22 + 2.0 * s_norm * t + u**3 * t * t
        d = fro_h1 + u * fro_h2
        pad = FOUR_ROUNDING * (c2 + d)
        grow = 1.0 + FOUR_ROUNDING
        big_a = -q1 - grow * (u * np.abs(q2) + big_k * u * u) - pad
        big_g = gap0 - grow * (d * u + big_k * u**3) - pad
        big_b = grow * (b1 + u * b2 + big_k * u * u) + pad
        return ok & (big_a > 0.0) & (big_g > 0.0) & (big_a * big_g > grow * u * big_b**2)


# ------------------------------------------------------------- public API


def resolvent_norm(model, z: complex) -> ResolventValue:
    """||(T - z)^-1|| as a ResolventValue; inf encodes z in the spectrum."""
    return resolvent_power_norm(model, z, 0)


def resolvent_power_norm(
    model, z: complex, n: int, *, max_blocks: int = MAX_BLOCKS_DEFAULT
) -> ResolventValue:
    """||(T - z)^-2^n|| ^ (1/2^n); n = 0 is the plain resolvent norm."""
    return resolvent_power_norms(model, [z], n, max_blocks=max_blocks)[0]


def resolvent_power_norms(
    model, zs, n: int, *, max_blocks: int = MAX_BLOCKS_DEFAULT
) -> ResolventValues:
    """resolvent_power_norm at every point of zs, as one ResolventValues.

    This is the one place that decides how a model is evaluated at z, for
    fields, points and anchor checks alike.  Block families and their
    truncations scan all points in one block engine pass; each value is
    the one a single-point call gives.  A dense matrix takes the largest
    value over the diagonal blocks it is the direct sum of, 1/|z - d| for a
    1x1 block d, through _dense_power_norms in stacks of points; the
    inverse-symbol family takes its exact rule of z, scaled models the
    identity ||(sT - z)^-1|| = ||(T - z/s)^-1|| / |s|.  Again each value is
    the single-point one.  max_blocks bounds the tail scan of infinite
    families.  n past POWER_INDEX_LIMIT, a non-finite point, or a block
    point beyond BLOCK_Z_LIMIT raises DomainError.
    """
    if not 0 <= n <= POWER_INDEX_LIMIT:
        raise DomainError(f"power index n must lie in 0..{POWER_INDEX_LIMIT}, got {n}")
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if not np.isfinite(zs).all():
        bad = complex(zs[~np.isfinite(zs)][0])
        raise DomainError(f"evaluation points must be finite, got {bad}")
    if isinstance(model, ScaledOperator):
        factor = complex(model.factor)
        s = abs(factor)
        inner = resolvent_power_norms(model.inner, zs / factor, n, max_blocks=max_blocks)
        return replace(inner, value=inner.value / s, tail_gap=inner.tail_gap / s)
    if isinstance(model, DenseOperator):
        return _exact_values(_dense_power_norms(model.matrix, model.blocks, zs, n), 0)
    far = np.hypot(zs.real, zs.imag) > BLOCK_Z_LIMIT
    if isinstance(model, (TruncatedFamily, DiagBlockFamily)) and far.any():
        raise DomainError(
            f"evaluation point {complex(zs[far][0])} is beyond the range of the "
            f"block arithmetic, |z| <= {BLOCK_Z_LIMIT:g}"
        )
    if isinstance(model, TruncatedFamily):
        total = model.n_blocks
        values = _head_maxima(model.family, total, zs, n)
        return _exact_values(values, total)
    if isinstance(model, DiagBlockFamily):
        if model.symbol.kind == "inverse":
            return _inverse_family_values(zs, n)
        return _family_values(model, zs, n, max_blocks)
    raise DomainError(f"unknown operator model {type(model).__name__}")


def _dense_matrix_of(model) -> np.ndarray:
    if isinstance(model, DenseOperator):
        return model.matrix
    if isinstance(model, ScaledOperator):
        return complex(model.factor) * _dense_matrix_of(model.inner)
    raise DomainError(
        f"operation needs a dense-representable operator, got {type(model).__name__}"
    )


def gnr_defect(seq, k: int) -> float:
    """||R_k(anchor) P_k - R(anchor)|| for the k-th sequence term.

    The anchor is seq.gnr_anchor, which the sequence checked against the
    spectrum of its limit when it was built.  A truncation shares its
    blocks 1..k with its family, so the padded difference is block diagonal
    with those blocks cancelled exactly, and the defect is
    sup_{j>k} ||(B_j - anchor)^-1||: one engine scan of the family from
    block k.  It is reported as value + tail_gap, a certified upper bound
    (+inf where no certificate applies), so a defect gate never passes on
    an uncertified lower bound.  Other sequences are compared densely in
    their common space, and an anchor on the spectrum of term k raises
    SingularityError naming it.
    """
    lam = complex(seq.gnr_anchor)
    if isinstance(seq, TruncationSequence):
        if k < 1:
            raise DomainError("sequence index must be >= 1")
        tail = _family_values(seq.family, np.array([lam]), 0, MAX_BLOCKS_DEFAULT, start=k)
        return float(tail.value[0] + tail.tail_gap[0])
    w_term, _ = _inverse_of(_dense_matrix_of(seq.term(k)), lam, f"term k={k}")
    w_ref, _ = _inverse_of(_dense_matrix_of(seq.limit_model()), lam, "limit")
    dim = max(len(w_term), len(w_ref))
    diff = np.zeros((dim, dim), dtype=np.complex128)
    diff[: len(w_term), : len(w_term)] = w_term
    diff[: len(w_ref), : len(w_ref)] -= w_ref
    return largest_singular_value(diff)


def _inverse_of(matrix: np.ndarray, z: complex, label: str):
    """(W, sigma_max(W)) for W = (matrix - z)^-1.

    Raises SingularityError unless the clearance 1 / sigma_max(W) =
    sigma_min(matrix - z) exceeds SPECTRUM_CLEARANCE.
    """
    w, ok = explicit_inverses(_shifted(matrix[None], np.array([z])))
    sigma = float(largest_singular_values(w)[0]) if ok[0] else math.inf
    if not 1.0 / sigma > SPECTRUM_CLEARANCE:
        raise SingularityError(
            f"{z} is numerically on the spectrum of {label} (clearance {1.0 / sigma:.3e})",
            which=label,
        )
    return w[0], sigma


def _mat_power(a: np.ndarray, m: int) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=np.complex128)
    base = a
    e = m
    while e > 0:
        if e & 1:
            out = out @ base
        e >>= 1
        if e:
            base = base @ base
    return out


def expansion_residual(op, lam: complex, lam0: complex, l: int) -> float:
    """Residual of the l-step resolvent expansion around lam0.

    The exact identity
    R(lam) = sum_{j=1}^{l-1} (lam-lam0)^{j-1} R(lam0)^j
             + (lam-lam0)^{l-1} (I - (lam-lam0) R(lam0))^{l-1} R(lam)^l
    must hold to roundoff; the returned norm measures the defect, inf
    where a power or a partial sum overflows.
    """
    if l < 2:
        raise DomainError("expansion needs l >= 2")
    matrix = _dense_matrix_of(op)
    lam, lam0 = complex(lam), complex(lam0)
    r, _ = _inverse_of(matrix, lam, "the operator at lam")
    r0, _ = _inverse_of(matrix, lam0, "the operator at lam0")
    a = lam - lam0
    eye = np.eye(matrix.shape[0], dtype=np.complex128)
    acc = np.zeros_like(r)
    power = r0.copy()
    coeff = 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1, l):
            acc += coeff * power
            power = power @ r0
            coeff *= a
        tail = coeff * _mat_power(eye - a * r0, l - 1) @ _mat_power(r, l)
        residual = r - acc - tail
    return largest_singular_value(residual) if np.isfinite(residual).all() else math.inf


def power_diff_bound_check(op, lam_k: complex, nu: complex, n: int) -> PowerDiffBound:
    """Compare ||R(nu)^2^n - R(lam_k)^2^n|| against its binomial bound.

    With m = 2^n, c = ||R(lam_k)|| and d = |nu - lam_k| the bound is
    c^m (1 - dc)^-m sum_{j>=1} C(m, j) (cd)^j, whose sum is
    expm1(m log1p(cd)); it is formed in logs, so no factor overflows or
    underflows on its own.  n past POWER_INDEX_LIMIT is refused.
    """
    if not 0 <= n <= POWER_INDEX_LIMIT:
        raise DomainError(f"power index n must lie in 0..{POWER_INDEX_LIMIT}, got {n}")
    matrix = _dense_matrix_of(op)
    lam_k, nu = complex(lam_k), complex(nu)
    r_lam, c = _inverse_of(matrix, lam_k, "the operator at lam_k")
    r_nu, _ = _inverse_of(matrix, nu, "the operator at nu")
    d = abs(nu - lam_k)
    if d * c >= 1.0:
        raise DomainError(
            f"|nu - lam_k| * ||R(lam_k)|| = {d * c:.3g} must be < 1"
        )
    m = 1 << n
    # both powers at the larger one's power-of-two scale, so no power overflows
    powers, exps = batch_square_scaled(np.stack([r_nu, r_lam]), n)
    log_lhs = math.inf  # where a power is zero or not finite
    try:
        top = int(exps.max())  # OverflowError there
        diff = powers[0] * np.exp2(exps[0] - top) - powers[1] * np.exp2(exps[1] - top)
        sigma = largest_singular_values(diff[None])[0]
        log_lhs = math.log(sigma) + top * math.log(2.0) if sigma else -math.inf
        lhs = math.ldexp(sigma, top)
    except OverflowError:  # or where the difference overflows
        lhs = math.inf
    s = m * math.log1p(d * c)
    # log expm1(s) = s + log(1 - e^-s), which overflows for no s
    log_sum = s + math.log(-math.expm1(-s)) if s else -math.inf
    log_rhs = m * (math.log(c) - math.log1p(-d * c)) + log_sum
    try:
        rhs = math.exp(log_rhs)
    except OverflowError:
        rhs = math.inf
    # lhs <= rhs (1 + 1e-10), judged in logs, which stay finite where lhs or
    # rhs overflows
    return PowerDiffBound(lhs=lhs, rhs=rhs, holds=log_lhs <= log_rhs + 1e-10)
