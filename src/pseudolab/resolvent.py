"""Resolvent norms and resolvent-power norms for all operator models.

resolvent_power_norms evaluates one model at many points z and returns
one columnar ResolventValues; resolvent_power_norm is its one-point call.
These two alone take max_blocks, the tail-scan budget of infinite families.

It evaluates each exact mirror class of points once
(operators.mirror_classes): block families and their truncations have
real blocks with D B D = -B for a diagonal D of +-1, so z, -z, conj(z)
and -conj(z) give one value, and a real dense matrix gives one value at z
and conj(z).  A ScaledOperator is evaluated as its model at z / s and
folded there.  Each point's arithmetic depends on that point alone, and
sign flips and conjugation are exact, so each value, gap, flag and cutoff
is the one the point itself gives, bit for bit: numpy's complex products
and powers may round a point differently by its place in the batch, so
powers of z are taken in real arithmetic (cmul) and |z| by hypot.

A dense matrix T is the direct sum of its diagonal blocks, so its value is
the largest of its blocks' values (_dense_power_norms): 1/|z - d| for a
1x1 block d, and sigma_max(W^2^n)^(1/2^n) of W = (B - z)^-1 for a larger
block B, by one stacked LU and solve per block size and exactly rescaled
squares.  The dense gnr_defect, expansion_residual and
power_diff_bound_check read their clearance sigma_min(T - z) off the
inverse of the whole T they go on to use; a truncation sequence's defect
is the engine's scan of its family past block k.

Block families evaluate sup_k ||(B_k - z)^-m|| ^ (1/m) with one block
engine that takes all points at once; this module alone scans blocks.  The
points walk the block_chunks schedule together, chunks growing from
HEAD_CHUNK blocks to CHUNK_CAP, each evaluated in (points x blocks) groups
of at most STACK_CAP 4x4 matrices (16 * STACK_CAP 2x2 values).
Truncations take the exact maximum over their blocks.  Infinite families
scan a head until the tail bound of tails closes the gap; a point leaves
the scan once it closes, its value is inf, or the budget ends.

Head values are exact.  A block is a weighted cycle with B^d = P I,
P = (alpha f)^(d/2), so (P - z^d)(B - z)^-1 is a polynomial in B of degree
< d, and n exactly rescaled squarings modulo x^d - P raise it to 2^n
(_power_coefficients).  A 2x2 head reads sigma_max off sv2x2_batch (n = 0
takes a closed form in real arithmetic).  A 4x4 head screens its blocks
against the value their point must beat: a Frobenius pre-screen per group,
then at n = 0 a Gram screen, sigma_max^2 <= ||M* M||_inf, on the pooled
survivors.  Each drops only blocks provably below the threshold, and
Jacobi stacks of at most STACK_CAP evaluate the rest.

The reported value is max(head maximum, tail limit), certified when the
tail bound closes the gap to within TAIL_TOL; the one-sided gap that
remains is reported, with the value marked uncertified.  The inverse
symbol f(x) = 1/x takes an exact rule of z (_inverse_family_values).
Every model takes n <= POWER_INDEX_LIMIT, and a block point must lie
within BLOCK_Z_LIMIT, where the certificates' powers of |z| stay finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularityError
from .numkernel import (
    SHIFTS,
    batch_square_scaled,
    cmul,
    explicit_inverses,
    jacobi_singular_values,
    largest_singular_value,
    largest_singular_values,
    scaled_root,
    sv2x2_batch,
)
from .operators import (
    DenseOperator,
    DiagBlockFamily,
    ScaledOperator,
    TruncatedFamily,
    TruncationSequence,
    mirror_classes,
)
from .tails import FOUR_ROUNDING, TAIL_TOL, closed_form_points, tail_bounds, tail_limit

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
                sigma = scaled_root(largest_singular_values(powers), exps, 1 << n)
                values = np.where(ok, sigma, math.inf).reshape(len(z), count).max(axis=1)
            np.maximum(out[i : i + rows], values, out=out[i : i + rows])
    return out


# ------------------------------------------------------ block head values


def _power_coefficients(d: int, alphas, fs, zs: np.ndarray, n: int):
    """(c, exps, q): (P - z^d)^(2^n) (B_k - z)^-2^n = 2^exps sum_{i<d} c_i B_k^i, q = |P - z^d|.

    B^d = P I, P = (alpha f)^(d/2), so (B - z) N = (P - z^d) I for
    N = sum_i z^(d-1-i) B^i, and n squarings modulo x^d - P raise N to 2^n.
    Before each and after the last, c is scaled exactly by 2^-e, e the
    frexp exponent of its largest real or imaginary part (at least -1023).
    c is (d, points, blocks), exps (inf where a power overflows) and
    q (points, blocks); the products round as cmul's.
    """
    p = (alphas * fs) ** (d // 2)
    z = zs[:, None]
    z2 = cmul(z, z)
    powers = [np.ones_like(z), z, z2] + ([cmul(z, z2), cmul(z2, z2)] if d == 4 else [])
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

    n = 0 takes real arithmetic, z^2 by cmul; n >= 1 the matrix
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
        zsq = cmul(z, z)
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
        return scaled_root(hi, exps, 1 << n) / q


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
            np.maximum.at(best, points, scaled_root(sigma, exps, 1 << n) / q)
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


def _family_values(
    family, zs: np.ndarray, n: int, max_blocks: int, start: int = 0
) -> ResolventValues:
    """Certified sup over the blocks k > start of an infinite 2x2 or 4x4 family at each point.

    The scan covers at most max_blocks blocks past start, and k_cutoff is
    the absolute index of the last block examined.  All points walk the
    block_chunks schedule together.  A point's value starts at the tail
    limit and its head maximum is exact; after each chunk its gap is
    max(0, tail bound at the next weight - value), and it leaves the scan
    once the gap is within TAIL_TOL or its value is inf.  Points still open
    when the budget ends are uncertified and keep their smallest gap.
    """
    value = tail_limit(family, zs, n)
    certified = closed_form_points(family, zs, n)
    tail_gap = np.where(certified, 0.0, math.inf)
    k_cutoff = np.zeros(len(zs), dtype=np.int64)
    active = np.flatnonzero(~certified)
    bound, still = tail_bounds(family, n), None
    for ks in block_chunks(start, start + max_blocks):
        if not len(active):
            break
        k_done = int(ks[-1])
        value[active] = _chunk_maxima(family, ks, zs[active], n, value[active])
        k_cutoff[active] = k_done
        a = float(family.alpha.values(np.array([k_done + 1]))[0])
        v = value[active]
        ub = bound(a, zs[active], v, still)
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
    fields, points and anchor checks alike, and each value is the one a
    single-point call gives.  A scaled model sT is evaluated as T at z/s,
    ||(sT - z)^-1|| = ||(T - z/s)^-1|| / |s|; the points are then folded
    into mirror classes once (module docstring), and _evaluate takes the
    class heads.  max_blocks bounds the tail scan of infinite families.  n
    past POWER_INDEX_LIMIT, a point that is not finite, also once divided
    by the scale factors, or a block point beyond BLOCK_Z_LIMIT raises
    DomainError.
    """
    if not 0 <= n <= POWER_INDEX_LIMIT:
        raise DomainError(f"power index n must lie in 0..{POWER_INDEX_LIMIT}, got {n}")
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    points, scales = zs, []
    while isinstance(model, ScaledOperator):
        factor = complex(model.factor)
        with np.errstate(over="ignore", invalid="ignore"):
            zs = zs / factor
        scales.append(abs(factor))
        model = model.inner
    if not np.isfinite(zs).all():
        bad = complex(points[~np.isfinite(zs)][0])
        raise DomainError(f"evaluation points must be finite, also divided by the scale; got {bad}")
    classes = mirror_classes(model, zs)
    if classes is None:
        out = _evaluate(model, zs, n, max_blocks=max_blocks)
    else:
        heads, cls = classes
        folded = _evaluate(model, zs[heads], n, max_blocks=max_blocks)
        out = ResolventValues(*(col[cls] for col in vars(folded).values()))
    for s in reversed(scales):
        out = replace(out, value=out.value / s, tail_gap=out.tail_gap / s)
    return out


def _evaluate(model, zs: np.ndarray, n: int, *, max_blocks: int) -> ResolventValues:
    """The values of an unscaled model at finite points, with no fold.

    Block families and their truncations scan all points in one block
    engine pass, a dense matrix takes the largest value over its diagonal
    blocks (_dense_power_norms) and the inverse-symbol family its exact
    rule of z.
    """
    if isinstance(model, DenseOperator):
        return _exact_values(_dense_power_norms(model.matrix, model.blocks, zs, n), 0)
    with np.errstate(over="ignore"):  # |z| may pass the largest float
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
