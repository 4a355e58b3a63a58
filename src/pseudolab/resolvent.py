"""Resolvent norms and resolvent-power norms for all operator models.

resolvent_power_norms evaluates one model at many points z;
resolvent_power_norm is its one-point call.

The dense path is exact linear algebra on one explicit inverse
W = (T - z)^-1 per point, one LU and one multi-column solve: every dense
norm is sigma_max(W^2^n)^(1/2^n), with n = 0 the resolvent norm
1/sigma_min(T - z).  W is squared n times with rescaling by
_batch_square_scaled, the squaring the 4x4 block stacks use, and handed
to largest_singular_value, which certifies the value.  The clearance
checks of gnr_defect, expansion_residual and power_diff_bound_check read
sigma_min(T - z) = 1/sigma_max(W) off the inverse they go on to use.

Block families evaluate sup_k ||(B_k - z)^-m|| ^ (1/m) with one block
engine that takes all points at once.  The points walk the
operators.block_chunks schedule together; each chunk is evaluated for the
points still active as (points x blocks) stacks of at most STACK_CAP 4x4
matrices (16 * STACK_CAP 2x2 values), each reduced to per-point maxima at
once.  Finite ranges (truncations, GNR defects) take the exact maximum.
Infinite families scan a head until a closed-form certificate for the tail
beyond it closes the gap; a point leaves the active set once its
certificate closes, its value is inf, or the budget ends:

* 2x2 shapes: for n = 0 with finite positive tail limit C, a per-kind
  algebraic criterion shows every block beyond the scan point stays
  strictly below 1/C (so the tail supremum is exactly 1/C), and a
  monotone envelope (r + x) / (x f(x) - r^2) bounds the tail otherwise;
  for powers, Schur-style bounds on the squared block resolvent give a
  decreasing tail majorant;
* the 4x4 shape carries an explicit deviation bound from its limiting
  nilpotent resolvent.  Its head values are exact: a Cholesky positivity
  test of floor^2 I - M*M drops the blocks M whose norm cannot reach the
  value the point's scan must beat at the start of the chunk, and one
  stacked Jacobi call evaluates the rest.

Each point's arithmetic depends on that point alone, so a value does not
depend on the other points of the call.  The reported value is
max(head maximum, analytic tail limit): a certified lower bound that is
exact whenever the certificates close the gap.  The one-sided gap that
remains is reported in the diagnostics; strict mode raises instead of
returning an uncertified value.  Families with tail limit 0 and dense
models are evaluated point by point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularityError, TailCertificationError
from .numkernel import (
    explicit_inverse,
    jacobi_singular_values,
    largest_singular_value,
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

TAIL_TOL_DEFAULT = 1e-9
MAX_BLOCKS_DEFAULT = 10**6
SPECTRUM_CLEARANCE = 1e-10
# the most 4x4 matrices one stack of the block engine holds, for one point
# or many; a 2x2 stack holds 16 * STACK_CAP values, one per entry of those
# matrices
STACK_CAP = 1 << 10

MODES = ("dense_exact", "block_exact_with_tail", "scaled")


@dataclass(frozen=True)
class ResolventValue:
    """An extended-real resolvent(-power) norm with tail diagnostics.

    value is +inf exactly when the point sits on the spectrum (singular
    factorization on the dense path, a block eigenvalue hit or a certified
    divergent sup on the block path).  tail_gap is the achieved one-sided
    distance between the reported value and the certified upper bound for
    the infinite tail (0 when the certificates closed exactly); certified
    says whether that gap is within the requested tolerance.  k_cutoff is
    the number of blocks examined exactly.
    """

    value: float
    mode: str
    tail_gap: float = 0.0
    certified: bool = True
    k_cutoff: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown resolvent mode {self.mode!r}")
        if not self.value > 0.0:
            raise DomainError(f"resolvent value must be positive, got {self.value}")


@dataclass(frozen=True)
class BoundednessProbe:
    """Sampled resolvent-power norms of a sequence at one point."""

    z: complex
    k_range: tuple
    sup_norm: float
    in_region: bool

    def __post_init__(self):
        if self.in_region and not math.isfinite(self.sup_norm):
            raise DomainError("in_region requires a finite sup")


@dataclass(frozen=True)
class PowerDiffBound:
    lhs: float
    rhs: float
    holds: bool


# ---------------------------------------------------------------- dense path


def _dense_power_norm(matrix: np.ndarray, z: complex, n: int) -> float:
    """||(T - z)^-2^n|| ^ (1/2^n) = sigma_max(W^2^n) ^ (1/2^n), W = (T - z)^-1."""
    w = explicit_inverse(matrix - z * np.eye(matrix.shape[0]))
    if w is None:
        return math.inf
    mats, exps = _batch_square_scaled(w[None], n)
    if math.isinf(exps[0]):
        return math.inf
    return float(_scaled_root(largest_singular_value(mats[0]), exps[0], 1 << n))


# --------------------------------------------------- 2x2 block head values


def _two_block_values(family, ks: np.ndarray, zs: np.ndarray, m: int) -> np.ndarray:
    """(points, blocks) values ||(B_k - z)^-m||^(1/m); inf marks a singular block.

    The z-dependent scalars are taken per point in Python complex
    arithmetic, so every value is the one a single-point call computes.
    """
    alphas = family.alpha_values(ks)
    fs = family.symbol_values(alphas)
    z = zs[:, None]
    zsq = np.array([w * w for w in zs.tolist()])[:, None]
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
    """inf of f over [a, infinity)."""
    kind = symbol.kind
    if kind == "one_plus_inv":
        return 1.0
    if kind in ("one_minus_inv_sqrt", "power_beta"):
        return symbol.value(a)
    if kind == "constant":
        return float(symbol.c)
    if kind == "inverse":
        return 0.0
    # tabulated: piecewise linear with constant extrapolation, so the inf
    # is attained at a, at a breakpoint past a, or at the last table value
    candidates = [symbol.value(a), float(symbol.table[-1][1])]
    candidates += [float(v) for x, v in symbol.table if x >= a]
    return min(candidates)


def _tail_inf_p(symbol, a: float) -> float:
    """inf of x * f(x) over [a, infinity)."""
    kind = symbol.kind
    if kind in ("one_plus_inv", "one_minus_inv_sqrt", "power_beta", "constant"):
        return a * symbol.value(a)  # x f(x) nondecreasing for these kinds
    if kind == "inverse":
        return 1.0
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


def _tail_stays_below_limit(family, a: float, z: complex) -> bool:
    """True if every block with weight >= a has value < 1/C (exact algebra).

    Valid for the kinds whose blocks approach the limit from below; the
    criterion is monotone in the weight, so checking it at the cutoff
    covers the whole tail.
    """
    kind = family.symbol.kind
    zsq = z * z
    u, v = zsq.real, zsq.imag
    r2 = abs(z) ** 2
    if kind == "one_plus_inv":
        if u > 1.0:
            return False
        g = 2.0 * a * (1.0 - u) + (1.0 - u) ** 2 + v * v - 2.0 * r2
        g -= 2.0 / a + 1.0 / (a * a)
        return g > 0.0
    if kind == "constant":
        c = float(family.symbol.c)
        if u > 0.0:
            return False
        g = -2.0 * u * a / c + (u * u + v * v) / (c * c) - 2.0 * r2
        return g > 0.0 and 2.0 * r2 + c * c + a * a > 2.0 * c * c
    return False


def _envelope_sup(family, a: float, z: complex) -> float | None:
    """Upper bound for sup over blocks with weight >= a of the n=0 value.

    Uses ||(B - z)^-1|| <= (r + x) / (x f(x) - r^2), which is monotone on
    the tail for the analytic symbol kinds, so its sup is max(value at the
    cutoff, limit 1/C).
    """
    kind = family.symbol.kind
    if kind in ("inverse", "tabulated"):
        return None
    r = abs(z)
    f_a = family.symbol.value(a)
    p_a = a * f_a
    if not (p_a > r * r and a >= f_a):
        return None
    h_a = (r + a) / (p_a - r * r)
    c = family.tail_C
    limit = 1.0 / c if math.isfinite(c) and c > 0.0 else 0.0
    return max(h_a, limit)


def _power_tail_bound(family, a: float, z: complex, m: int) -> float | None:
    """Upper bound for sup over the tail of the m-th power block value, m >= 2.

    ||(B - z)^-m||^(1/m) <= ||[(B + z)/q]^2||^(1/2) and the squared norm is
    bounded by (r^2 + p (1 + 2r/f_lb)) / (p - r^2)^2, decreasing in p.
    """
    r = abs(z)
    f_lb = _tail_inf_f(family.symbol, a)
    p_lb = _tail_inf_p(family.symbol, a)
    if not (f_lb > 0.0 and p_lb > r * r):
        return None
    g = (r * r + p_lb * (1.0 + 2.0 * r / f_lb)) / (p_lb - r * r) ** 2
    return math.sqrt(g)


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
    lead = [m * math.log(f) if f > 0.0 else -math.inf for f in floors.tolist()]
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


def _head_maxima(family, lo: int, hi: int, zs: np.ndarray, n: int) -> np.ndarray:
    """Exact max of the block values over lo < k <= hi at each point.

    inf marks a singular block; such a point leaves the scan.
    """
    best = np.zeros(len(zs))
    active = np.arange(len(zs))
    for ks in block_chunks(lo, hi):
        best[active] = _chunk_maxima(family, ks, zs[active], n, best[active])
        active = active[np.isfinite(best[active])]
        if not len(active):
            break
    return best


def _head_max(family, lo: int, hi: int, z: complex, n: int) -> float:
    """_head_maxima at the single point z."""
    return float(_head_maxima(family, lo, hi, np.array([complex(z)]), n)[0])


def _two_shape(family, z: complex, n: int):
    """(tail limit, tail_ub(a)) for 2x2 blocks."""
    m = 1 << n
    c = family.tail_C
    has_limit = math.isfinite(c) and c > 0.0
    tail_limit = 1.0 / c if (n == 0 and has_limit) else 0.0

    def tail_ub(a: float) -> float | None:
        if n > 0:
            return _power_tail_bound(family, a, z, m)
        if has_limit and _tail_stays_below_limit(family, a, z):
            return tail_limit
        return _envelope_sup(family, a, z)

    return tail_limit, tail_ub


def _family_values(
    family, zs: np.ndarray, n: int, tail_tol: float, max_blocks: int, strict: bool
) -> list:
    """Certified sup of the block values of an infinite 2x2 or 4x4 family at each point.

    All points walk the block_chunks schedule together.  A point's head
    maximum is exact; after each chunk its gap is
    max(0, tail_ub(next weight) - reported), and the point leaves the scan
    once the gap is within tail_tol or its value is inf.  Points still open
    when the budget ends are uncertified (strict mode raises instead).
    """
    m = 1 << n
    mode = "block_exact_with_tail"
    shape = _two_shape if family.block_dim == 2 else _four_shape
    out = [None] * len(zs)
    tails = [None] * len(zs)
    for i, z in enumerate(zs.tolist()):
        if family.block_dim == 4 and z == 0 and m in (1, 2):
            # closed forms: ||B^-1|| = 1/beta_k < 1 and ||B^-2|| = 1/beta_k^2 < 1
            # for every block, while the tail limit is exactly 1
            out[i] = ResolventValue(1.0, mode, 0.0, True, k_cutoff=0)
        else:
            tails[i] = shape(family, z, n)
    active = [i for i in range(len(zs)) if out[i] is None]
    reported = np.array([t[0] if t else 0.0 for t in tails])
    best_gap = [math.inf] * len(zs)
    k_done = 0
    for ks in block_chunks(0, max_blocks):
        if not active:
            break
        k_done = int(ks[-1])
        reported[active] = _chunk_maxima(family, ks, zs[active], n, reported[active])
        a = float(family.alpha_values(np.array([k_done + 1]))[0])
        still = []
        for i in active:
            value = float(reported[i])
            if math.isinf(value):
                out[i] = ResolventValue(math.inf, mode, 0.0, True, k_cutoff=k_done)
                continue
            ub = tails[i][1](a)
            if ub is not None:
                gap = max(0.0, ub - value)
                best_gap[i] = min(best_gap[i], gap)
                if gap <= tail_tol:
                    out[i] = ResolventValue(value, mode, gap, True, k_cutoff=k_done)
                    continue
            still.append(i)
        active = still
    if strict and active:
        dim = family.block_dim
        gap = best_gap[active[0]]
        raise TailCertificationError(
            f"{dim}x{dim} tail not pinned within {tail_tol:g} after {k_done} "
            f"blocks (achieved gap {gap:g})",
            achieved_gap=gap,
            blocks_scanned=k_done,
        )
    for i in active:
        out[i] = ResolventValue(
            float(reported[i]), mode, best_gap[i], False, k_cutoff=k_done
        )
    return out


def _inverse_family_divergence(family, z: complex):
    """Certify sup_k ||(B_k - z)^-1|| = inf for tail limit 0 families.

    The trial vector (z v / alpha, v) gives the residual quantity
    w_k = |alpha f - z^2| / sqrt(alpha^2 + |z|^2), an upper bound for
    sigma_min(B_k - z).  Divergence is certified once w falls below 1e-12
    or w * alpha stabilises (so w vanishes like 1/alpha).
    """
    r2 = abs(z) ** 2
    prev_t = None
    stable = 0
    k = 1
    while k <= 1 << 45:
        a = float(family.alpha_values(np.array([k]))[0])
        p = a * float(family.symbol_values(np.array([a]))[0])
        w = abs(p - z * z) / math.sqrt(a * a + r2)
        if w < 1e-12:
            return True, k
        t = w * a
        if prev_t is not None and prev_t > 0.0 and abs(t / prev_t - 1.0) < 0.05:
            stable += 1
            if stable >= 3:
                return True, k
        else:
            stable = 0
        prev_t = t
        k *= 2
    return False, k


def _inverse_family_value(
    family, z: complex, n: int, tail_tol: float, max_blocks: int, strict: bool
) -> ResolventValue:
    m = 1 << n
    q = 1.0 - z * z  # alpha * (1/alpha) = 1 for every block
    if family.symbol.kind == "inverse" and q == 0:
        return ResolventValue(math.inf, "block_exact_with_tail", 0.0, True, 0)
    if m == 1:
        certified, k = _inverse_family_divergence(family, z)
        if certified:
            return ResolventValue(
                math.inf, "block_exact_with_tail", 0.0, True, k_cutoff=k
            )
        # tail limit misdeclared (possible for tabulated symbols): report
        # the scanned head as an uncertified lower bound
        head = _head_max(family, 0, max_blocks, z, 0)
        if strict:
            raise TailCertificationError(
                "tail limit 0 could not be certified divergent",
                achieved_gap=math.inf,
                blocks_scanned=max_blocks,
            )
        return ResolventValue(
            head, "block_exact_with_tail", math.inf, False, k_cutoff=max_blocks
        )
    # powers of the inverse-symbol family: (B - z)^-m = [A' I + D' B] with
    # scalars from w+- = 1/(1-z), -1/(1+z); the off-diagonal carries
    # D' alpha_k, unbounded unless D' vanishes (m even, z = 0)
    if z == 0:
        return ResolventValue(1.0, "block_exact_with_tail", 0.0, True, 0)
    wp = 1.0 / (1.0 - z)
    wm = -1.0 / (1.0 + z)
    scale = max(abs(wp), abs(wm))
    up = (wp / scale) ** m
    um = (wm / scale) ** m
    if up == um:  # exceptional symmetric points: every block is A' I
        a_mag = abs(0.5 * (up + um)) * scale**m
        return ResolventValue(
            a_mag ** (1.0 / m), "block_exact_with_tail", 0.0, True, 0
        )
    return ResolventValue(math.inf, "block_exact_with_tail", 0.0, True, 0)


# --------------------------------------------------------------- 4x4 blocks


def _four_resolvent_batch(family, ks: np.ndarray, zs: np.ndarray):
    """Stacked (B_k - z)^-1 over points x blocks; returns (mats, singular_mask).

    mats is (points * blocks, 4, 4), point-major; the mask is (points, blocks).
    """
    alphas = family.alpha_values(ks)
    betas = family.symbol_values(alphas)
    p = alphas * betas
    powers = np.array([(z, z * z, z**3, z**4) for z in zs.tolist()]).reshape(-1, 4)
    z1, z2, z3, z4 = (powers[:, i, None] for i in range(4))
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


def _four_limit_norm(z: complex) -> float:
    """Norm of the limiting resolvent (nilpotent part plus z times its square)."""
    t = 2.0 + abs(z) ** 2
    return math.sqrt((t + math.sqrt(t * t - 4.0)) / 2.0)


def _four_tail_deviation(family, a: float, z: complex) -> float | None:
    """Bound on ||(B - z)^-1 - limit|| for every block with weight >= a."""
    r = abs(z)
    if a * a <= r**4:
        return None
    bmax = family.symbol.value(family.alpha.value(1))
    c2 = 2.0 * bmax + 2.0 * r + 2.0 * bmax * bmax + 2.0 * r * bmax + r * r
    c1 = 2.0 * r**4 + r**5 + r + 4.0 * r**3 + r * r * bmax
    return (c1 + c2 * a) / (a * a - r**4)


def _four_shape(family, z: complex, n: int):
    """(tail limit, tail_ub(a)) for 4x4 blocks."""
    m = 1 << n
    limit0 = _four_limit_norm(z)
    tail_limit = limit0 if m == 1 else (1.0 if m == 2 else 0.0)

    def tail_ub(a: float) -> float | None:
        xi = _four_tail_deviation(family, a, z)
        if xi is None:
            return None
        if m == 1:
            return limit0 + xi
        eta = xi * (xi + 2.0 * limit0)
        return math.sqrt(1.0 + eta) if m == 2 else (2.0 * eta + eta * eta) ** 0.25

    return tail_limit, tail_ub


# ------------------------------------------------------------- public API


def resolvent_norm(
    model,
    z: complex,
    *,
    tail_tol: float = TAIL_TOL_DEFAULT,
    max_blocks: int = MAX_BLOCKS_DEFAULT,
    strict: bool = False,
) -> ResolventValue:
    """||(T - z)^-1|| as a ResolventValue; inf encodes z in the spectrum."""
    return resolvent_power_norm(
        model, z, 0, tail_tol=tail_tol, max_blocks=max_blocks, strict=strict
    )


def resolvent_power_norm(
    model,
    z: complex,
    n: int,
    *,
    tail_tol: float = TAIL_TOL_DEFAULT,
    max_blocks: int = MAX_BLOCKS_DEFAULT,
    strict: bool = False,
) -> ResolventValue:
    """||(T - z)^-2^n|| ^ (1/2^n); n = 0 is the plain resolvent norm."""
    return resolvent_power_norms(
        model, [z], n, tail_tol=tail_tol, max_blocks=max_blocks, strict=strict
    )[0]


def resolvent_power_norms(
    model,
    zs,
    n: int,
    *,
    tail_tol: float = TAIL_TOL_DEFAULT,
    max_blocks: int = MAX_BLOCKS_DEFAULT,
    strict: bool = False,
) -> list:
    """resolvent_power_norm at every point of zs, as a list of ResolventValues.

    Block families and their truncations scan all points in one block
    engine pass; each value is the one a single-point call gives.  Dense
    models and families with tail limit 0 are evaluated point by point.
    strict raises on the first point whose tail stays open.
    """
    if n < 0:
        raise DomainError("power index n must be nonnegative")
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if isinstance(model, ScaledOperator):
        factor = complex(model.factor)
        s = abs(factor)
        inner = resolvent_power_norms(
            model.inner,
            zs / factor,
            n,
            tail_tol=tail_tol,
            max_blocks=max_blocks,
            strict=strict,
        )
        return [
            replace(rv, value=rv.value / s, mode="scaled", tail_gap=rv.tail_gap / s)
            for rv in inner
        ]
    if isinstance(model, DenseOperator):
        return [
            ResolventValue(_dense_power_norm(model.matrix, z, n), "dense_exact")
            for z in zs.tolist()
        ]
    if isinstance(model, TruncatedFamily):
        total = model.n_blocks
        values = _head_maxima(model.family, 0, total, zs, n)
        return [
            ResolventValue(v, "dense_exact", 0.0, True, k_cutoff=total)
            for v in values.tolist()
        ]
    if isinstance(model, DiagBlockFamily):
        if model.tail_C == 0.0 and (n == 0 or model.symbol.kind == "inverse"):
            return [
                _inverse_family_value(model, z, n, tail_tol, max_blocks, strict)
                for z in zs.tolist()
            ]
        return _family_values(model, zs, n, tail_tol, max_blocks, strict)
    raise DomainError(f"unknown operator model {type(model).__name__}")


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


def gnr_defect(seq, k: int, anchor: complex | None = None) -> float:
    """||R_k(anchor) P_k - R_ref(anchor) P|| for the k-th sequence term.

    Truncation sequences share their leading blocks with the reference, so
    the padded difference is block diagonal with the shared part cancelled
    exactly; the value reduces to the largest tail-block resolvent norm.
    Other sequences are compared densely in their common space.
    """
    lam = complex(seq.gnr_anchor if anchor is None else anchor)
    if seq.kind == "truncation":
        family = seq.family
        n_ref = seq.reference_truncation_N
        if k < 1:
            raise DomainError("sequence index must be >= 1")
        # a singular block anywhere in the reference makes the anchor
        # invalid; blocks 1..k cancel, blocks k+1..n_ref are the defect
        cut = min(k, n_ref)
        shared = _head_max(family, 0, cut, lam, 0)
        rest = _head_max(family, cut, max(k, n_ref), lam, 0)
        if max(shared, rest) > 1.0 / SPECTRUM_CLEARANCE:
            raise SingularityError(
                f"{lam} is numerically on the spectrum of the reference truncation",
                which=f"truncation N={n_ref}",
            )
        return 0.0 if k >= n_ref else rest
    w_term, _ = _inverse_of(_dense_matrix_of(seq.term(k)), lam, f"term k={k}")
    w_ref, _ = _inverse_of(_dense_matrix_of(seq.limit_model()), lam, "limit")
    dim = max(len(w_term), len(w_ref))
    diff = np.zeros((dim, dim), dtype=np.complex128)
    diff[: len(w_term), : len(w_term)] = w_term
    diff[: len(w_ref), : len(w_ref)] -= w_ref
    return largest_singular_value(diff)


def _raw_power(value: float, m: int) -> float:
    if math.isinf(value):
        return math.inf
    try:
        return value**m
    except OverflowError:
        return math.inf


def boundedness_probe(seq, z: complex, ks, n: int = 0) -> BoundednessProbe:
    """Sample ||(T_k - z)^-2^n|| over ks and judge uniform boundedness.

    in_region uses a documented stagnation heuristic: all values finite
    and the later half of the samples at most 10x the earlier half.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise DomainError("boundedness probe needs at least one index")
    m = 1 << n
    values = [
        _raw_power(resolvent_power_norm(seq.term(k), z, n).value, m) for k in ks
    ]
    sup = max(values)
    if not all(math.isfinite(v) for v in values):
        in_region = False
    elif len(values) == 1:
        in_region = True
    else:
        half = len(values) // 2
        in_region = max(values[half:]) <= 10.0 * max(values[:half])
    return BoundednessProbe(
        z=complex(z), k_range=tuple(ks), sup_norm=sup, in_region=in_region
    )


def _inverse_of(matrix: np.ndarray, z: complex, label: str):
    """(W, sigma_max(W)) for W = (matrix - z)^-1.

    Raises SingularityError unless the clearance 1 / sigma_max(W) =
    sigma_min(matrix - z) exceeds SPECTRUM_CLEARANCE.
    """
    w = explicit_inverse(matrix - z * np.eye(matrix.shape[0]))
    sigma = math.inf if w is None else largest_singular_value(w)
    if not 1.0 / sigma > SPECTRUM_CLEARANCE:
        raise SingularityError(
            f"{z} is numerically on the spectrum of {label} (clearance {1.0 / sigma:.3e})",
            which=label,
        )
    return w, sigma


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
