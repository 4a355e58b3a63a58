"""Tail certificates of the block models: what the block scan asks of them.

The one block scan (resolvent) asks this module alone, for a family or a
truncation: where each point starts (tail_limit), which points a closed
form settles before any chunk (closed_form_points), and after each chunk
an upper bound on every block from the next one on (tail_bounds).  All
are array functions of the points, NaN where no bound applies, and each
point's arithmetic depends on that point alone.

* A truncation (a model with n_blocks) starts at 0 and is bounded by 0
  past its last block, so the scan gives the exact maximum of its blocks.
* The inverse symbol f(x) = 1/x: an exact rule of z settles every point.
* 2x2 shapes: at n = 0 exact polynomial algebra shows that no block past
  the scan point exceeds the point's value (_two_stays_below), or a
  monotone envelope bounds them (_envelope_sup); for powers a decreasing
  majorant does (_power_tail_bound).
* 4x4: one expansion of the block resolvent power in 1/alpha around its
  nilpotent limit (_four_expansion) proves at n = 0 and 1 that every block
  past the scan point stays below the tail limit (_four_stays_below_limit);
  elsewhere a majorant read off it bounds the tail.  Its algebra in z
  alone is formed once per scan (_four_terms), and z = 0 has closed forms.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .numkernel import cmul

TAIL_TOL = 1e-9
SIGN_SLACK = 64 * np.finfo(np.float64).eps  # the 2x2 sign certificate's allowance
FOUR_ROUNDING = 1e-9  # the relative growth of the 4x4 bounds that covers their rounding


def tail_limit(model, zs: np.ndarray, n: int) -> np.ndarray:
    """At each z, the value a scan of the block model starts from.

    A truncation starts at 0, an infinite family at its tail limit
    lim_k ||(B_k - z)^-2^n||^(1/2^n), for the inverse symbol its exact
    value (_inverse_values).  A 2x2 block tends to the antidiagonal
    [[0, C], [alpha, 0]]: the limit is 1/C at n = 0, and 0 for n >= 1,
    where the power norms decay.  The 4x4 resolvents tend to L, nilpotent
    plus z times its square, with L^4 = 0 and ||L^2|| = 1: the limit is c
    at n = 0, 1 at n = 1 and 0 for n >= 2.  c^2, the top eigenvalue of
    L*L, is (t + sqrt(t^2 - 4)) / 2 with t = 2 + r^2, r = |z|, taken as
    1 + r (r + sqrt(r^2 + 4)) / 2, which does not cancel as r -> 0.
    """
    if hasattr(model, "n_blocks"):
        return np.zeros(len(zs))
    if model.symbol.kind == "inverse":
        return _inverse_values(zs, n)
    if model.block_dim == 2:
        return np.full(len(zs), 1.0 / model.symbol.tail_limit if n == 0 else 0.0)
    if n == 0:
        r = np.hypot(zs.real, zs.imag)
        return np.sqrt(1.0 + r * (r + np.sqrt(r * r + 4.0)) / 2.0)
    return np.full(len(zs), 1.0 if n == 1 else 0.0)


def closed_form_points(model, zs: np.ndarray, n: int) -> np.ndarray:
    """At each z, whether a closed form shows the start value is the sup over any tail.

    Every point of the inverse symbol (_inverse_values).  At z = 0 the 4x4
    blocks have ||B^-1|| = 1/beta_k < 1 and ||B^-2|| = 1/beta_k^2 < 1,
    while the tail limit is exactly 1 (n = 0, 1).  A truncation has none.
    """
    if hasattr(model, "n_blocks"):
        return np.zeros(len(zs), dtype=bool)
    return ((zs == 0) & (model.block_dim == 4 and n < 2)) | (model.symbol.kind == "inverse")


def tail_bounds(model, n: int):
    """bound(k, zs, values, still): a bound on every block from k on, for one scan's chunks.

    A truncation's is 0 past its last block and NaN before: not values,
    which would give inf - inf at a singular point.  A family's is
    _tail_bound at the weight of block k; still marks which of the previous
    call's points zs holds (None at the first call), and the 4x4 terms are
    formed at the first call, then narrowed.
    """
    last = getattr(model, "n_blocks", None)
    if last is not None:
        return lambda k, zs, values, still: np.full(len(zs), 0.0 if k > last else math.nan)
    terms = None

    def bound(k: int, zs: np.ndarray, values: np.ndarray, still) -> np.ndarray:
        nonlocal terms
        if model.block_dim == 4:
            terms = (_four_terms(model, zs, n) if terms is None
                     else terms._make(x[..., still] for x in terms))
        return _tail_bound(model, model.alpha.value(k), zs, n, values, terms)

    return bound


def _inverse_values(zs: np.ndarray, n: int) -> np.ndarray:
    """The inverse symbol's value at each z, by an exact rule of z.

    alpha f = 1, so B^2 = I and (B - z)^-m = A' I + D' B with A', D' =
    (w+^m +- w-^m)/2, w+ = 1/(1 - z) and w- = -1/(1 + z).  The off-diagonal
    carries D' alpha_k, unbounded unless D' = 0, that is unless
    ((z - 1)/(z + 1))^m = 1: z = i cot(pi j/m).  For m = 2^n the only
    doubles of that form are 0 (n >= 1) and +-i (n >= 2), where every block
    has the value |A'|^(1/m) = |w+| = 1/|1 - z|; every other value is inf.
    """
    x, y = zs.real, zs.imag
    exact = (x == 0) & (((y == 0) & (n >= 1)) | ((np.abs(y) == 1) & (n >= 2)))
    value = np.full(len(zs), math.inf)
    value[exact] = 1.0 / np.hypot(1.0 - x[exact], y[exact])
    return value


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
    limit = tail_limit(family, zs, n)
    ok, s, t = expansion = _four_expansion(terms, a, n)
    u, m = 1.0 / a, 1 << n
    with np.errstate(over="ignore"):
        total = limit**m + u * s[1] + u * u * s[2] + u**3 * t
        majorant = np.where(ok, ((1.0 + FOUR_ROUNDING) * total) ** (1.0 / m), math.nan)
    below = n < 2 and _four_stays_below_limit(terms, a, n, expansion)
    return np.where(below, limit, majorant)


# ----------------------------------------------------------- 2x2 blocks


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
    v = cmul(z, z).imag
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
    return np.maximum((r + a) / room, tail_limit(family, zs, 0))


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


# ----------------------------------------------------------- 4x4 blocks


def _poly_product(p: np.ndarray, q: np.ndarray, matrix: bool) -> np.ndarray:
    """Coefficients in u of the product of two polynomials with coefficient stacks p, q.

    matrix multiplies the (points, 4, 4) coefficients as matrices;
    otherwise they are multiplied elementwise with broadcasting, by cmul.
    """
    shape = np.broadcast_shapes(p.shape[1:], q.shape[1:])
    out = np.zeros((len(p) + len(q) - 1,) + shape, dtype=np.complex128)
    for i in range(len(p)):
        for j in range(len(q)):
            out[i + j] += p[i] @ q[j] if matrix else cmul(p[i], q[j])
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


# the 4x4 tail expansion's parts that depend on z alone (_four_terms), each
# ending in the points' axis: r = |z|; norms, per P and Q and squaring, the
# ||A_k|| (row 0) and ||(A^2)_(k+5)|| (row 1), k = 0..4, of _truncation_rho
# (0 where a polynomial lacks a term); s, the norms of X0, X1, X2; rem, of
# rem's terms past u^2; sign, _four_sign_rows (none for n' >= 2).
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
        z2 = cmul(z1, z1)
        z3, z4 = cmul(z2, z1), cmul(z2, z2)
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
        x1 = p[1] - cmul(q[1], p[0])
        s = np.stack([p[0], x1, p[2] - cmul(q[1], x1) - cmul(q[2], p[0])])
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
    c = tail_limit(family, zs, n)
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
    H0 = X0* X0 has top eigenvalue c^2, c the tail limit (tail_limit), with
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
