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
anchor, which its constructor checked; a truncation sequence's defect is
the engine's scan of its family past block k.

Block families evaluate sup_k ||(B_k - z)^-m|| ^ (1/m) with one block
engine that takes all points at once.  The points walk the
operators.block_chunks schedule together; each chunk is evaluated for the
points still active as (points x blocks) stacks of at most STACK_CAP 4x4
matrices (16 * STACK_CAP 2x2 values), each reduced to per-point maxima at
once.  Truncations take the exact maximum over their blocks.  Infinite
families, or their blocks past a start index, scan a head until a
closed-form certificate for the tail beyond it closes the gap; a point
leaves the active set once its certificate closes, its value is inf, or
the budget ends:

* 2x2 shapes: for n = 0 with finite positive tail limit C, a per-kind
  algebraic criterion shows every block beyond the scan point stays
  strictly below 1/C (so the tail supremum is exactly 1/C), and a
  monotone envelope (r + x) / (x f(x) - r^2) bounds the tail otherwise;
  for powers, Schur-style bounds on the squared block resolvent give a
  decreasing tail majorant;
* the 4x4 shape carries an explicit deviation bound from its limiting
  nilpotent resolvent.  Its head values are exact: an LDL* positivity
  test of floor^2 I - M*M drops the blocks M whose norm cannot reach the
  value the point's scan must beat at the start of the chunk, and one
  stacked Jacobi call evaluates the rest.

Each point's arithmetic depends on that point alone, so a value does not
depend on the other points of the call.  The certificates are array
functions of the points, NaN where none applies.  numpy's complex
products and powers may round a point differently by its place in the
batch, so powers of z are taken in real arithmetic (_cmul) and |z| by
hypot.  The reported value is max(head maximum, analytic tail limit): a
certified lower bound that is exact whenever the certificates close the
gap to within TAIL_TOL.  The one-sided gap that remains is reported in
the diagnostics, with the value marked uncertified.  A tabulated symbol
is constant beyond its last abscissa and is certified there as the
constant kind.  The inverse symbol f(x) = 1/x takes an exact rule of z
instead of a scan (_inverse_family_values).  A block point must lie
within BLOCK_Z_LIMIT, where the certificates' powers of |z| stay finite.
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
    block_chunks,
)

TAIL_TOL = 1e-9
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
    alphas = family.alpha_values(ks)
    fs = family.symbol_values(alphas)
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


def _tail_inf_f(symbol, a: float) -> float:
    """inf of f over [a, infinity).

    Every analytic kind is monotone with limit tail_limit, and a tabulated
    symbol is piecewise linear and extrapolates its last value, so the inf
    is f(a), the limit, or a table value at a breakpoint past a.
    """
    breakpoints = [float(v) for x, v in symbol.table or () if x >= a]
    return min([symbol.value(a), symbol.tail_limit] + breakpoints)


def _tail_inf_p(symbol, a: float) -> float:
    """inf of x * f(x) over [a, infinity)."""
    kind = symbol.kind
    if kind in ("one_plus_inv", "one_minus_inv_sqrt", "power_beta", "constant"):
        return a * symbol.value(a)  # x f(x) nondecreasing for these kinds
    best = a * symbol.value(a)
    xs = [float(x) for x, _ in symbol.table]
    fs = [float(v) for _, v in symbol.table]
    for i in range(len(xs) - 1):
        x0, x1 = max(xs[i], a), xs[i + 1]
        if x0 >= x1:
            continue
        slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
        c0 = fs[i] - slope * xs[i]
        for x in (x0, x1):
            best = min(best, x * (c0 + slope * x))
        if slope > 0.0:
            vertex = -c0 / (2.0 * slope)
            if x0 < vertex < x1:
                best = min(best, vertex * (c0 + slope * vertex))
    best = min(best, a * fs[-1] if a > xs[-1] else xs[-1] * fs[-1])
    return best


def _tail_stays_below_limit(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, whether every block with weight >= a has value < 1/C (exact algebra).

    Valid for the kinds whose blocks approach the limit from below; the
    criterion is monotone in the weight, so checking it at the cutoff
    covers the whole tail.
    """
    kind = family.symbol.kind
    zsq = _cmul(zs, zs)
    u, v = zsq.real, zsq.imag
    r2 = np.hypot(zs.real, zs.imag) ** 2
    if kind == "one_plus_inv":
        g = 2.0 * a * (1.0 - u) + (1.0 - u) ** 2 + v * v - 2.0 * r2
        g -= 2.0 / a + 1.0 / (a * a)
        return (u <= 1.0) & (g > 0.0)
    # a tabulated symbol is its last value beyond its last abscissa
    if kind == "constant" or (kind == "tabulated" and a >= family.symbol.table[-1][0]):
        c = family.tail_C
        g = -2.0 * u * a / c + (u * u + v * v) / (c * c) - 2.0 * r2
        return (u <= 0.0) & (g > 0.0) & (2.0 * r2 + c * c + a * a > 2.0 * c * c)
    return np.zeros(len(zs), dtype=bool)


def _envelope_sup(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for sup over blocks with weight >= a of the n=0 value.

    Uses ||(B - z)^-1|| <= (r + x) / (x f(x) - r^2), which is monotone on
    the tail for the analytic symbol kinds and for a tabulated symbol where
    it is constant, so its sup is max(value at the cutoff, limit 1/C).
    """
    if family.symbol.kind == "tabulated" and a < family.symbol.table[-1][0]:
        return np.full(len(zs), math.nan)
    r = np.hypot(zs.real, zs.imag)
    f_a = family.symbol.value(a)
    p_a = a * f_a
    room = np.where((p_a > r * r) & (a >= f_a), p_a - r * r, math.nan)
    return np.maximum((r + a) / room, 1.0 / family.tail_C)


def _power_tail_bound(family, a: float, zs: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for sup over the tail of the m-th power block value, m >= 2.

    ||(B - z)^-m||^(1/m) <= ||[(B + z)/q]^2||^(1/2) and the squared norm is
    bounded by (r^2 + p (1 + 2r/f_lb)) / (p - r^2)^2, decreasing in p.
    """
    r = np.hypot(zs.real, zs.imag)
    f_lb = _tail_inf_f(family.symbol, a)
    p_lb = _tail_inf_p(family.symbol, a)
    if not f_lb > 0.0:
        return np.full(len(zs), math.nan)
    room = np.where(p_lb > r * r, p_lb - r * r, math.nan)
    return np.sqrt((r * r + p_lb * (1.0 + 2.0 * r / f_lb)) / room**2)


# -------------------------------------------------------- block-scan engine


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


def _tail_bound(family, a: float, zs: np.ndarray, n: int, limit0: np.ndarray) -> np.ndarray:
    """At each z, an upper bound for every block value beyond weight a; NaN where none applies.

    limit0 is the n = 0 tail limit at each z.
    """
    if family.block_dim == 2:
        if n > 0:
            return _power_tail_bound(family, a, zs)
        below = _tail_stays_below_limit(family, a, zs)
        return np.where(below, limit0, _envelope_sup(family, a, zs))
    xi = _four_tail_deviation(family, a, zs)
    if n == 0:
        return limit0 + xi
    eta = xi * (xi + 2.0 * limit0)
    return np.sqrt(1.0 + eta) if n == 1 else (2.0 * eta + eta * eta) ** 0.25


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
    four = family.block_dim == 4
    limit0 = _four_limit_norm(zs) if four else np.full(len(zs), 1.0 / family.tail_C)
    # the tail limit; the 4x4 limit L has ||L^2|| = 1 and L^4 = 0
    value = limit0.copy() if n == 0 else np.full(len(zs), 1.0 if four and n == 1 else 0.0)
    tail_gap = np.full(len(zs), math.inf)
    certified = np.zeros(len(zs), dtype=bool)
    k_cutoff = np.zeros(len(zs), dtype=np.int64)
    if four and n in (0, 1):
        # closed forms at z = 0: ||B^-1|| = 1/beta_k < 1 and ||B^-2|| =
        # 1/beta_k^2 < 1 for every block, while the tail limit is exactly 1
        closed = zs == 0
        value[closed], tail_gap[closed], certified[closed] = 1.0, 0.0, True
    active = np.flatnonzero(~certified)
    for ks in block_chunks(start, start + max_blocks):
        if not len(active):
            break
        k_done = int(ks[-1])
        value[active] = _chunk_maxima(family, ks, zs[active], n, value[active])
        k_cutoff[active] = k_done
        a = float(family.alpha_values(np.array([k_done + 1]))[0])
        v = value[active]
        ub = _tail_bound(family, a, zs[active], n, limit0[active])
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
    alphas = family.alpha_values(ks)
    betas = family.symbol_values(alphas)
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


def _four_limit_norm(zs: np.ndarray) -> np.ndarray:
    """At each z, the norm of the limiting resolvent (nilpotent part plus z times its square)."""
    t = 2.0 + np.hypot(zs.real, zs.imag) ** 2
    return np.sqrt((t + np.sqrt(t * t - 4.0)) / 2.0)


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
    if isinstance(model, TruncatedFamily):
        return model.dense().matrix
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
    their common space.
    """
    lam = complex(seq.gnr_anchor)
    if seq.kind == "truncation":
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
