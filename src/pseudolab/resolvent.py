"""Resolvent norms and resolvent-power norms for all operator models.

resolvent_power_norms evaluates one model at many points z and returns
one columnar ResolventValues; resolvent_power_norm is its one-point call.
These two alone take max_blocks, the tail-scan budget of infinite families.

A diagonal matrix D is normal, so every power norm of it is exact:
||(D - z)^-2^n||^(1/2^n) = 1/min_i |z - d_i| (diagonal_power_norms).  The
dense path for every other matrix is exact linear algebra on one explicit
inverse W = (T - z)^-1 per point: every dense norm is
sigma_max(W^2^n)^(1/2^n), with n = 0 the resolvent norm 1/sigma_min(T - z).
The points go in stacks (_dense_power_norms): one stacked LU and
multi-column solve gives W, which _batch_square_scaled squares n times with
exact rescaling, the squaring the 4x4 block stacks use, and
largest_singular_values takes sigma_max directly, with no iteration.  The
clearance checks of the dense gnr_defect, expansion_residual and
power_diff_bound_check read sigma_min(T - z) = 1/sigma_max(W) off the
inverse they go on to use.  gnr_defect evaluates at the sequence's own
anchor, which its constructor checked against the limit; a dense defect
checks it against the term it evaluates, and a truncation sequence's
defect is the engine's scan of its family past block k.

Block families evaluate sup_k ||(B_k - z)^-m|| ^ (1/m) with one block
engine that takes all points at once.  This module alone scans blocks:
the points walk the block_chunks schedule together, chunks growing from
HEAD_CHUNK blocks to CHUNK_CAP, and each chunk is evaluated for the points
still active as (points x blocks) stacks of at most STACK_CAP 4x4
matrices (16 * STACK_CAP 2x2 values), each reduced to per-point maxima at
once.  Truncations take the exact maximum over their blocks.  Infinite
families, or their blocks past a start index, scan a head until a
closed-form certificate for the tail beyond it closes the gap; a point
leaves the active set once its certificate closes, its value is inf, or
the budget ends.  Every point's value starts at the tail limit, which
_tail_limit alone writes down and every certificate reads:

* 2x2 shapes: the symbols 1 + 1/x, 1 - 1/sqrt(x) and x^beta are
  monotone with x f(x) nondecreasing.  For n = 0, exact polynomial algebra
  shows no block of 1 + 1/x or 1 - 1/sqrt(x) beyond the scan point exceeds
  the point's value (_two_stays_below), and a monotone envelope
  (r + x) / (x f(x) - r^2) bounds the tail otherwise; for powers,
  Schur-style bounds on the squared block resolvent give a decreasing
  tail majorant;
* the 4x4 shape: for n = 0 and 1, a sign certificate from the expansion
  of the block resolvent in 1/alpha around its nilpotent limit proves
  that every block beyond the scan point stays strictly below the tail
  limit (_four_stays_below_limit; z = 0 has closed forms instead); where
  it does not hold, and for n >= 2, an explicit deviation bound from the
  limit bounds the tail.
  Its head values are exact: an LDL* positivity test of floor^2 I - M*M
  drops the blocks M whose norm cannot reach the value the point's scan
  must beat at the start of the chunk, and one stacked Jacobi call
  evaluates the rest.

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularityError
from .numkernel import (
    SHIFTS,
    explicit_inverses,
    jacobi_singular_values,
    largest_singular_value,
    largest_singular_values,
    norm_below,
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
# a dense stack of points holds at most DENSE_CAP / (dim * max(dim, SHIFTS))
# matrices: a point takes dim^2 entries per matrix and dim * SHIFTS Sturm
# pivots per bisection pass
DENSE_CAP = 1 << 18

# block scans walk k = 1, 2, ... in chunks growing from HEAD_CHUNK to CHUNK_CAP
HEAD_CHUNK = 64
CHUNK_GROWTH = 4
CHUNK_CAP = 1 << 18

# the largest |z| a block family is evaluated at, by block dimension: the
# 2x2 certificates form |z|^4 and the 4x4 deviation bound |z|^5, and these
# limits keep both at most 1e300; past them a point came back as a
# certified inf or as nan
BLOCK_Z_LIMIT = {2: 1e75, 4: 1e60}


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


def diagonal_power_norms(diagonal: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """1/min_i |z - d_i| at each z of zs: every power norm of diag(d), exactly."""
    dists = np.abs(zs[:, None] - diagonal[None, :]).min(axis=1)
    with np.errstate(divide="ignore"):
        return np.divide(1.0, dists)


def _shifted(matrix: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack of T - z over zs."""
    stack = np.repeat(matrix[None], len(zs), axis=0)
    diag = np.arange(matrix.shape[0])
    stack[:, diag, diag] -= zs[:, None]
    return stack


def _dense_power_norms(matrix: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    """sigma_max(W^2^n) ^ (1/2^n) with W = (T - z)^-1 at each z, in stacks of points.

    This is ||(T - z)^-2^n|| ^ (1/2^n); inf where W is singular or
    overflows.
    """
    dim = matrix.shape[0]
    rows = max(1, DENSE_CAP // (dim * max(dim, SHIFTS)))
    out = np.empty(len(zs))
    for i in range(0, len(zs), rows):
        w, ok = explicit_inverses(_shifted(matrix, zs[i : i + rows]))
        mats, exps = _batch_square_scaled(w, n)
        sigma = _scaled_root(largest_singular_values(mats), exps, 1 << n)
        out[i : i + rows] = np.where(ok, sigma, math.inf)
    return out


# --------------------------------------------------- 2x2 block head values


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, in real arithmetic rounded as Python's complex product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _two_block_values(family, ks: np.ndarray, zs: np.ndarray, m: int) -> np.ndarray:
    """(points, blocks) values ||(B_k - z)^-m||^(1/m); inf marks a singular block.

    z^2 is _cmul's, so each value depends on its point alone.
    """
    alphas = family.alpha.values(ks)
    fs = family.symbol.values(alphas)
    z = zs[:, None]
    zsq = _cmul(z, z)
    if m == 1:
        # 1/sigma_min(B - z) = sigma_max / |det| with det = z^2 - alpha f, in
        # real arithmetic.  sigma_max^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2 with
        # F = ||B - z||_F^2; the radicand is summed from the rows (-z, f),
        # (alpha, -z) as (f^2 - alpha^2)^2 + 4 |alpha z + f conj(z)|^2, so it
        # does not cancel when sigma_max is close to sigma_min
        x, y = z.real, z.imag
        big = 2.0 * (x * x + y * y) + alphas * alphas + fs * fs
        det = np.hypot(alphas * fs - zsq.real, zsq.imag)
        rows = (fs - alphas) * (fs + alphas)
        cross = ((alphas + fs) * x) ** 2 + ((alphas - fs) * y) ** 2
        hi = np.sqrt((big + np.sqrt(rows * rows + 4.0 * cross)) / 2.0)
        with np.errstate(divide="ignore"):
            return hi / det
    # (B - z)^-m = [(B + z)/q]^m with q = alpha f - z^2 and B^2 = (alpha f) I,
    # evaluated through the two scalars w+- = (z +- sqrt(alpha f))/q, rescaled
    # so no intermediate power overflows
    p = alphas * fs
    s = np.sqrt(p)
    q = p - zsq
    sing = q == 0
    qs = np.where(sing, 1.0, q)
    wp = (z + s) / qs
    wm = (z - s) / qs
    scale = np.maximum(np.abs(wp), np.abs(wm))
    up = (wp / scale) ** m
    um = (wm / scale) ** m
    half_sum = 0.5 * (up + um)
    half_diff = 0.5 * (up - um)
    hi, _ = sv2x2_batch(
        half_sum,
        half_diff * np.sqrt(fs / alphas),
        half_diff * np.sqrt(alphas / fs),
        half_sum,
    )
    vals = scale * hi ** (1.0 / m)
    return np.where(sing, np.inf, vals)


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
    with t = inf and the other symbols are refused.
    """
    kind = family.symbol.kind
    if kind not in ("one_plus_inv", "one_minus_inv_sqrt"):
        return np.zeros(len(zs), dtype=bool)
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
    p = np.stack(coefficients(e, 2.0 * e - 1.0, 1.0 - e, v, t1, -1.0), axis=1)
    mag = np.stack(coefficients(np.abs(e) + de, np.abs(2.0 * e - 1.0) + 2.0 * de,
                                np.abs(1.0 - e) + de, np.abs(v), np.abs(t1), 1.0), axis=1)
    x0 = a if kind == "one_plus_inv" else np.nextafter(math.sqrt(a), 0.0)
    k = np.arange(p.shape[1])
    binom = np.array([[math.comb(i, j) for j in k] for i in k], dtype=np.float64)
    shift = binom * x0 ** (k[:, None] - k[-1])
    return ok & np.all(p @ shift >= SIGN_SLACK * (mag @ shift), axis=1)


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


def _group_maxima(family, ks, zs, n: int, floors: np.ndarray) -> np.ndarray:
    """Per point of zs, the max of its block values over ks; inf on a singular block.

    2x2 values are all evaluated.  A 4x4 block whose value provably stays
    below its point's floor is dropped by one positivity screen, and the
    blocks left share one Jacobi call; a point with every block dropped
    gets 0.
    """
    m = 1 << n
    if family.block_dim == 2:
        return _two_block_values(family, ks, zs, m).max(axis=1)
    mats, sing = _four_resolvent_batch(family, ks, zs)
    mats, exps = _batch_square_scaled(mats, n)
    # value < floor  <=>  sigma_max(mats) < floor^m / 2^exps; a zero
    # floor gives bound 0, which drops nothing
    with np.errstate(divide="ignore"):
        lead = m * np.log(floors)
    keep = ~norm_below(mats, np.exp(np.repeat(lead, len(ks)) - exps * math.log(2.0)))
    vals = np.zeros(len(mats))
    if keep.any():
        sigma = jacobi_singular_values(mats[keep])[:, 0]
        vals[keep] = _scaled_root(sigma, exps[keep], m)
    out = vals.reshape(len(zs), len(ks)).max(axis=1)
    out[sing.any(axis=1)] = math.inf
    return out


def _chunk_maxima(family, ks, zs, n: int, floors: np.ndarray) -> np.ndarray:
    """Per point of zs, max(floor, max of its block values over ks).

    The (points x blocks) pairs are evaluated in groups of at most
    STACK_CAP 4x4 matrices or 16 * STACK_CAP 2x2 values, each reduced to
    per-point maxima at once.  Every group screens against the floors the
    chunk started with, so a point's value does not depend on which points
    share its groups.
    """
    cap = STACK_CAP if family.block_dim == 4 else 16 * STACK_CAP
    width = min(len(ks), cap)
    rows = cap // width
    best = floors.copy()
    for i in range(0, len(zs), rows):
        part = slice(i, i + rows)
        for j in range(0, len(ks), width):
            group = _group_maxima(family, ks[j : j + width], zs[part], n, floors[part])
            best[part] = np.maximum(best[part], group)
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


def _tail_bound(family, a: float, zs: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for every block value beyond weight a; NaN where none applies.

    A 2x2 point at n = 0 takes the least of the envelope and its value, or
    value + TAIL_TOL rounded toward it, where the sign certificate holds.
    """
    if family.block_dim == 2:
        if n > 0:
            return _power_tail_bound(family, a, zs)
        slack = np.nextafter(values + TAIL_TOL, values)
        proved = np.where(_two_stays_below(family, a, zs, slack), slack, math.nan)
        proved = np.where(_two_stays_below(family, a, zs, values), values, proved)
        return np.fmin(proved, _envelope_sup(family, a, zs))
    limit0 = _tail_limit(family, zs, 0)
    xi = _four_tail_deviation(family, a, zs)
    eta = xi * (xi + 2.0 * limit0)
    if n >= 2:
        return (2.0 * eta + eta * eta) ** 0.25
    limit = _tail_limit(family, zs, n)
    deviation = limit + xi if n == 0 else np.sqrt(limit * limit + eta)
    return np.where(_four_stays_below_limit(family, a, zs, n), limit, deviation)


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
    for ks in block_chunks(start, start + max_blocks):
        if not len(active):
            break
        k_done = int(ks[-1])
        value[active] = _chunk_maxima(family, ks, zs[active], n, value[active])
        k_cutoff[active] = k_done
        a = float(family.alpha.values(np.array([k_done + 1]))[0])
        v = value[active]
        ub = _tail_bound(family, a, zs[active], n, v)
        # an inf value is exact; a NaN gap (no certificate) keeps the old gap
        gap = np.where(np.isinf(v), 0.0, np.maximum(ub - v, 0.0))
        tail_gap[active] = np.fmin(tail_gap[active], gap)
        certified[active] = gap <= TAIL_TOL
        active = active[~certified[active]]
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


def _four_resolvent_batch(family, ks: np.ndarray, zs: np.ndarray):
    """Stacked (B_k - z)^-1 over points x blocks; returns (mats, singular_mask).

    mats is (points * blocks, 4, 4), point-major; the mask is (points, blocks).
    """
    alphas = family.alpha.values(ks)
    betas = family.symbol.values(alphas)
    p = alphas * betas
    z1, z2 = zs[:, None], _cmul(zs, zs)[:, None]
    z3, z4 = _cmul(z1, z2), _cmul(z2, z2)
    q = p * p - z4
    sing = q == 0
    qs = np.where(sing, 1.0, q)
    r = np.zeros(sing.shape + (4, 4), dtype=np.complex128)
    a2b = alphas * alphas * betas
    ab2 = alphas * betas * betas
    ab = alphas * betas
    r[..., 3, 0] = a2b
    r[..., 1, 0] = z1 * alphas * alphas
    r[..., 2, 0] = z2 * alphas
    r[..., 0, 0] = z3
    r[..., 2, 1] = ab2
    r[..., 0, 1] = z1 * betas * betas
    r[..., 3, 1] = z2 * betas
    r[..., 1, 1] = z3
    r[..., 0, 2] = ab2
    r[..., 3, 2] = z1 * ab
    r[..., 1, 2] = z2 * alphas
    r[..., 2, 2] = z3
    r[..., 1, 3] = a2b
    r[..., 2, 3] = z1 * ab
    r[..., 0, 3] = z2 * betas
    r[..., 3, 3] = z3
    r /= qs[..., None, None]
    return r.reshape(-1, 4, 4), sing


def _batch_square_scaled(mats: np.ndarray, n: int):
    """A stack (b, d, d) raised to the power 2^n by repeated squaring.

    Before each square a matrix is scaled exactly by 2^-e, e the frexp
    exponent of its largest entry modulus s (at least -1023, so 2^-e is
    finite), so no power overflows; returns (scaled, exps), power =
    scaled * 2^exps with integer-valued exps.  A zero or non-finite s
    makes that matrix's exponent +inf.
    """
    w = mats
    exps = np.zeros(mats.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            s = np.max(np.abs(w), axis=(1, 2))
            ok = (s > 0.0) & (s < math.inf)
            e = np.maximum(np.frexp(np.where(ok, s, 1.0))[1], -1023)
            w = w * np.exp2(-e)[:, None, None]
            w = w @ w
            exps = np.where(ok, 2.0 * (exps + e), math.inf)
    return w, exps


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
    """Frobenius norms of a (points, 4, 4) stack, upper bounds for its spectral norms."""
    return np.sqrt((mats.real**2 + mats.imag**2).sum(axis=(1, 2)))


def _four_stays_below_limit(family, a: float, zs: np.ndarray, n: int) -> np.ndarray:
    """At each z, whether every block with weight >= a has value < the tail limit (n = 0, 1).

    family is a 4x4 family, so its symbol is 1 + 1/x.  With u = 1/alpha,
    B^4 = (alpha f)^2 gives (B - z)^-1 = P(u) / Q(u), where
    P(u) = u^2 (B^3 + z B^2 + z^2 B + z^3) is a matrix polynomial of degree
    4 built from uB = E_alpha + (u + u^2) E_f, and Q(u) = (1 + u)^2 - z^4 u^2.
    X = (B - z)^-m, m = 2^n, is then P^m / Q^m, whose Taylor coefficients
    X0, X1, X2 are exact polynomial algebra (Q(0) = 1); X0 is the limit
    L^m, with L the nilpotent limit of the blocks.  On 0 < u <= U = 1/a,
    |Q| >= (1 + u)^2 - |z|^4 u^2, which is increasing or concave in u, so
    |Q| >= q = min(1, (1 + U)^2 - |z|^4 U^2).  Hence X = S + u^3 T with
    S = X0 + u X1 + u^2 X2 and ||T|| <= t, the sum of ||rem_k|| U^(k-3) / q^m
    over the coefficients of rem = P^m - S Q^m.
    So X*X = H0 + u H1 + u^2 H2 + D with H_j = sum_i X_i* X_(j-i) and
    ||D|| <= K u^3, K = ||H3|| + U ||H4|| + 2 ||S|| t + U^3 t^2.

    H0 = X0* X0 has top eigenvalue c^2, c the tail limit (_tail_limit), with
    eigenvector v and next eigenvalue l2: v ~ (c, 0, 0, z / r), r = |z|, and
    l2 = 1/c^2 at n = 0; v = e0 and l2 = 0 at n = 1.  Compressing X*X onto v
    and its complement (Kato, Perturbation Theory for Linear Operators)
    bounds its top eigenvalue by that of [[c^2 - u A, u b], [u b, c^2 - G]] with
    A = -v*H1 v - U |v*H2 v| - K U^2, b = ||P H1 v|| + U ||P H2 v|| + K U^2
    (P the projection off v) and G = c^2 - l2 - (||H1|| + U ||H2||) u - K u^3,
    so ||X|| < c^m whenever A > 0, G > 0 and A G > u b^2.  G, A and b are
    taken at u = U, where each is at its worst for the whole tail.  The
    norms are Frobenius norms, the good terms are shrunk and the bad ones
    grown by a relative 1e-9 that covers the rounding, and the certificate
    applies only where |z|^4 < a, which keeps every power of |z| finite.
    At n = 0, z = 0 is left to the closed form, where v has no direction.
    """
    r = np.hypot(zs.real, zs.imag)
    ok = r**4 < a
    if n == 0:
        ok &= r > 0.0
    z = np.where(ok, zs, 0.0)
    r = np.where(ok, r, 0.0)
    u = 1.0 / a
    m = 1 << n
    # uB = E_alpha + (u + u^2) E_f as coefficients of u^0, u^1, u^2
    ub = np.zeros((3, 1, 4, 4), dtype=np.complex128)
    ub[0, 0, 2, 0] = ub[0, 0, 1, 2] = 1.0
    ub[1:, 0, 0, 3] = ub[1:, 0, 3, 1] = 1.0
    ub2 = _poly_product(ub, ub, True)
    ub3 = _poly_product(ub2, ub, True)
    z1 = z[:, None, None]
    z2 = _cmul(z1, z1)
    z3, z4 = _cmul(z2, z1), _cmul(z2, z2)
    # P = (uB)^3 / u + z (uB)^2 + z^2 u (uB) + z^3 u^2, where (uB)^3 has no
    # u^0 or u^6 term: E_alpha^3 = E_f^3 = 0
    p = ub3[1:6] + z1 * ub2
    p[1:4] += z2 * ub
    p[2] += z3 * np.eye(4)
    q = np.stack([np.ones_like(z4), np.full_like(z4, 2.0), 1.0 - z4])
    pm, qm = p, q
    for _ in range(n):
        pm, qm = _poly_product(pm, pm, True), _poly_product(qm, qm, False)
    x0 = pm[0].copy()
    x1 = pm[1] - _cmul(qm[1], x0)
    x2 = pm[2] - _cmul(qm[1], x1) - _cmul(qm[2], x0)
    s = np.stack([x0, x1, x2])
    # rem = P^m - S Q^m takes the place of pm; its terms in u^0..u^2 vanish
    rem = pm
    rem[: len(s) + len(qm) - 1] -= _poly_product(s, qm, False)
    q_low = np.minimum(1.0, (1.0 + u) ** 2 - (r * r * u) ** 2)
    t = sum(_fro(rem[k]) * u ** (k - 3) for k in range(3, len(rem))) / q_low**m
    s_norm = _fro(x0) + u * _fro(x1) + u * u * _fro(x2)

    xh0, xh1, xh2 = (np.conj(np.swapaxes(x, 1, 2)) for x in s)
    h1 = xh0 @ x1 + xh1 @ x0
    h2 = xh0 @ x2 + xh1 @ x1 + xh2 @ x0
    h3 = xh1 @ x2 + xh2 @ x1
    big_k = _fro(h3) + u * _fro(xh2 @ x2) + 2.0 * s_norm * t + u**3 * t * t
    v = np.zeros((len(zs), 4, 1), dtype=np.complex128)
    c = _tail_limit(family, z, n)
    c2 = c * c
    if n == 0:
        norm = np.sqrt(c2 + 1.0)
        v[:, 0, 0] = c / norm
        v[:, 3, 0] = z / (np.where(ok, r, 1.0) * norm)
        gap0 = r * np.sqrt(r * r + 4.0)  # c^2 - 1/c^2
    else:
        gap0 = 1.0
        v[:, 0, 0] = 1.0

    def along(h):
        """v*hv and ||(I - vv*) hv||."""
        hv = h @ v
        vhv = (np.conj(np.swapaxes(v, 1, 2)) @ hv)[:, 0, 0].real
        return vhv, _fro(hv - vhv[:, None, None] * v)

    (q1, b1), (q2, b2) = along(h1), along(h2)
    d = _fro(h1) + u * _fro(h2)
    tol = 1e-9
    pad = tol * (c2 + d)
    grow = 1.0 + tol
    big_a = -q1 - grow * (u * np.abs(q2) + big_k * u * u) - pad
    big_g = gap0 - grow * (d * u + big_k * u**3) - pad
    big_b = grow * (b1 + u * b2 + big_k * u * u) + pad
    return ok & (big_a > 0.0) & (big_g > 0.0) & (big_a * big_g > grow * u * big_b**2)


def _four_tail_deviation(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, a bound on ||(B - z)^-1 - limit|| for every block with weight >= a."""
    r = np.hypot(zs.real, zs.imag)
    r2 = r * r
    r4 = r2 * r2
    bmax = family.symbol.value(family.alpha.value(1))
    c2 = 2.0 * bmax + 2.0 * r + 2.0 * bmax * bmax + 2.0 * r * bmax + r2
    c1 = 2.0 * r4 + r4 * r + r + 4.0 * r2 * r + r2 * bmax
    return (c1 + c2 * a) / np.where(a * a > r4, a * a - r4, math.nan)


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
    the one a single-point call gives.  Diagonal matrices take
    diagonal_power_norms, the inverse-symbol family its exact rule of z,
    scaled models the identity ||(sT - z)^-1|| = ||(T - z/s)^-1|| / |s|,
    and other dense matrices go through _dense_power_norms in stacks of
    points, again each value the single-point one.  max_blocks bounds the
    tail scan of infinite families.  A non-finite point, or a block point
    beyond BLOCK_Z_LIMIT, raises DomainError.
    """
    if n < 0:
        raise DomainError("power index n must be nonnegative")
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
        if model.diagonal is not None:
            values = diagonal_power_norms(model.diagonal, zs)
        else:
            values = _dense_power_norms(model.matrix, zs, n)
        return _exact_values(values, 0)
    if isinstance(model, TruncatedFamily):
        _check_block_range(model.family, zs)
        total = model.n_blocks
        values = _head_maxima(model.family, total, zs, n)
        return _exact_values(values, total)
    if isinstance(model, DiagBlockFamily):
        _check_block_range(model, zs)
        if model.symbol.kind == "inverse":
            return _inverse_family_values(zs, n)
        return _family_values(model, zs, n, max_blocks)
    raise DomainError(f"unknown operator model {type(model).__name__}")


def _check_block_range(family, zs: np.ndarray) -> None:
    """Raise DomainError for a point beyond BLOCK_Z_LIMIT of the family's block shape."""
    limit = BLOCK_Z_LIMIT[family.block_dim]
    far = np.hypot(zs.real, zs.imag) > limit
    if far.any():
        raise DomainError(
            f"evaluation point {complex(zs[far][0])} is beyond the range of the "
            f"{family.block_dim}x{family.block_dim} block arithmetic, |z| <= {limit:g}"
        )


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
    w, ok = explicit_inverses(_shifted(matrix, np.array([z])))
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
    must hold to roundoff; the returned norm measures the defect.
    """
    if l < 2:
        raise DomainError("expansion needs l >= 2")
    matrix = _dense_matrix_of(op)
    lam, lam0 = complex(lam), complex(lam0)
    r, _ = _inverse_of(matrix, lam, "the operator at lam")
    r0, _ = _inverse_of(matrix, lam0, "the operator at lam0")
    a = lam - lam0
    dim = matrix.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    acc = np.zeros_like(r)
    power = r0.copy()
    coeff = 1.0 + 0.0j
    for _ in range(1, l):
        acc += coeff * power
        power = power @ r0
        coeff *= a
    tail = coeff * _mat_power(eye - a * r0, l - 1) @ _mat_power(r, l)
    return largest_singular_value(r - acc - tail)


def power_diff_bound_check(op, lam_k: complex, nu: complex, n: int) -> PowerDiffBound:
    """Compare ||R(nu)^2^n - R(lam_k)^2^n|| against its binomial bound."""
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
    lhs = largest_singular_value(_mat_power(r_nu, m) - _mat_power(r_lam, m))
    total = 0.0
    for j in range(1, m + 1):
        total += math.comb(m, j) * c**j * d**j
    rhs = c**m * (1.0 - d * c) ** (-m) * total
    return PowerDiffBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-10))
