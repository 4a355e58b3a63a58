"""Independent reference computations for the test suite.

Every expected value asserted in the tests either comes from a hand
calculation frozen into the test file, or from one of these oracles.
They are deliberately built on LAPACK-backed numpy decompositions
(eigh, eigvals) so that they share no code path with the iterative
kernels in the package.  The two ``uniform_*`` references are of another
kind: the sigma_max kernel as it was before its first bisection pass was
seeded and 2x2 matrices took a closed form, which the kernel must still
match bit for bit.  So is ``per_weight_four_tail``: the 4x4 tail
certificates formed afresh at each weight, as they were before their
z-only algebra was formed once per call.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np

from pseudolab import numkernel
from pseudolab.resolvent import FOUR_ROUNDING, _cmul, _poly_product, _tail_limit


def singular_values_oracle(a) -> np.ndarray:
    """All singular values, descending, via the eigendecomposition of A*A."""
    m = np.asarray(a, dtype=np.complex128)
    gram = m.conj().T @ m
    evals = np.linalg.eigh(gram)[0]
    evals = np.clip(evals, 0.0, None)
    return np.sqrt(evals)[::-1]


def uniform_top_eigenvalue(diag, off) -> np.ndarray:
    """lambda_max of each tridiagonal matrix by Sturm multisection with
    SHIFTS evenly spaced shifts in every pass, counted by
    numkernel._count_below as found at call time."""
    k = diag.shape[1]
    squares = np.maximum(off * off, np.finfo(float).tiny)
    lo = diag.max(axis=1)
    reach = np.zeros((len(diag), k + 1))
    reach[:, 1:-1] = off
    hi = (diag + reach[:, :-1] + reach[:, 1:]).max(axis=1)
    hi += 4.0 * np.finfo(float).eps * np.abs(hi)
    shifts_per_pass = numkernel.SHIFTS
    steps = np.arange(1, shifts_per_pass + 1) / (shifts_per_pass + 1)
    active = np.flatnonzero(np.nextafter(lo, np.inf) < hi)
    while len(active):
        below, above = lo[active], hi[active]
        shifts = below[:, None] + (above - below)[:, None] * steps
        counts = numkernel._count_below(diag[active], squares[active], shifts)
        passed = (counts < k).sum(axis=1)
        rows = np.arange(len(active))
        lo[active] = np.where(passed > 0, shifts[rows, passed - 1], below)
        upper = shifts[rows, np.minimum(passed, shifts_per_pass - 1)]
        hi[active] = np.where(passed < shifts_per_pass, upper, above)
        active = active[np.nextafter(lo[active], np.inf) < hi[active]]
    return lo


def uniform_sigma_max(mats) -> np.ndarray:
    """sigma_max of each matrix of a stack (b, m, n) by the general kernel
    at every size: the Gram matrix on the smaller side of the matrix scaled
    by a power of two, numkernel._tridiagonal and uniform_top_eigenvalue."""
    w = np.asarray(mats, dtype=np.complex128)
    if w.shape[1] < w.shape[2]:
        w = np.swapaxes(w, 1, 2)
    parts = np.ascontiguousarray(w).view(np.float64)
    top = np.abs(parts).max(axis=(1, 2))
    zero = top == 0.0
    e = np.frexp(np.where(zero, 1.0, top))[1]
    w = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
    gram = np.conj(np.swapaxes(w, 1, 2)) @ w
    lam = uniform_top_eigenvalue(*numkernel._tridiagonal(gram))
    return np.where(zero, 0.0, np.ldexp(np.sqrt(lam), e))


def spectral_norm_oracle(a) -> float:
    return float(singular_values_oracle(a)[0])


def smallest_sv_oracle(a) -> float:
    return float(singular_values_oracle(a)[-1])


def resolvent_norm_oracle(a, z: complex) -> float:
    """||(A - z)^-1|| for a dense matrix; inf if singular.

    sigma_max of the explicit inverse: sigma_min of A - z from the Gram
    matrix would square its condition number.
    """
    return resolvent_power_norm_oracle(a, z, 0)


def resolvent_power_norm_oracle(a, z: complex, n: int) -> float:
    """||(A - z)^-2^n||^(1 / 2^n) via explicit inverse and the SVD oracle."""
    m = np.asarray(a, dtype=np.complex128)
    shifted = m - z * np.eye(m.shape[0])
    smin = smallest_sv_oracle(shifted)
    if smin == 0.0:
        return float("inf")
    inv = np.linalg.inv(shifted)
    power = np.linalg.matrix_power(inv, 2**n)
    return spectral_norm_oracle(power) ** (1.0 / 2**n)


def block_family_power_norm_oracle(family, ks, z: complex, n: int = 0) -> float:
    """max over k in ks of ||(B_k - z)^-2^n||^(1 / 2^n), one block at a time."""
    return max(resolvent_power_norm_oracle(family.block(int(k)), z, n) for k in ks)


def two_block_power_norms_oracle(blocks, z: complex, n: int = 0) -> np.ndarray:
    """||(B - z)^-2^n||^(1 / 2^n) for each block of a (b, 2, 2) stack.

    (B - z)^-1 is the adjugate over numpy's determinant, accurate entry by
    entry at any weight; its powers and their largest singular values come
    from numpy's matmul and SVD.
    """
    shifted = np.asarray(blocks, dtype=np.complex128) - z * np.eye(2)
    adj = np.empty_like(shifted)
    adj[:, 0, 0], adj[:, 1, 1] = shifted[:, 1, 1], shifted[:, 0, 0]
    adj[:, 0, 1], adj[:, 1, 0] = -shifted[:, 0, 1], -shifted[:, 1, 0]
    det = np.linalg.det(shifted)
    power = np.linalg.matrix_power(adj / det[:, None, None], 2**n)
    return np.linalg.svd(power, compute_uv=False)[:, 0] ** (1.0 / 2**n)


def four_block_power_norms_oracle(alphas, z: complex, n: int = 0) -> np.ndarray:
    """||(B - z)^-2^n||^(1 / 2^n) for the 4x4 block of each weight alpha, f = 1 + 1/alpha.

    B is the weighted 4-cycle e0 -> e2 -> e1 -> e3 -> e0 of
    DiagBlockFamily.block, so B^4 = (alpha f)^2 I and (B - z)^-1 is
    (B^3 + z B^2 + z^2 B + z^3) / ((alpha f)^2 - z^4), accurate entry by entry
    at any weight; the powers of B, of the inverse and its largest singular
    values come from numpy's matmul and SVD.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    fs = 1.0 + 1.0 / alphas
    b = np.zeros((len(alphas), 4, 4), dtype=np.complex128)
    b[:, 2, 0] = b[:, 1, 2] = alphas
    b[:, 0, 3] = b[:, 3, 1] = fs
    b2 = b @ b
    num = b2 @ b + z * b2 + z * z * b + z**3 * np.eye(4)
    inv = num / ((alphas * fs) ** 2 - z**4)[:, None, None]
    power = np.linalg.matrix_power(inv, 2**n)
    return np.linalg.svd(power, compute_uv=False)[:, 0] ** (1.0 / 2**n)


def eigenvalues_oracle(a) -> np.ndarray:
    return np.linalg.eigvals(np.asarray(a, dtype=np.complex128))


def random_complex_matrix(rng: np.random.Generator, n: int, scale: float = 1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def json_document_oracle(obj) -> str:
    """The JSON text of a NormField or LevelSetMask as the stdlib streaming
    encoder writes it: json.dump(indent=2, sort_keys=True) and a newline."""
    doc = {**dataclasses.asdict(obj.region), "n": obj.n}
    if hasattr(obj, "values"):
        doc["values"] = [
            [v if math.isfinite(v) else repr(v) for v in row]
            for row in obj.values.tolist()
        ]
    else:
        doc.update(
            epsilon=obj.epsilon,
            strictness=obj.strictness,
            member=obj.mask.astype(int).tolist(),
        )
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue()


def per_weight_four_tail(family, a: float, zs, n: int):
    """The 4x4 tail certificates at weight a, each formed afresh at that weight.

    The expansion, sign certificate and tail bound of resolvent as they
    were before the z-only algebra was formed once per call: points with
    |z|^2 >= a + 1, and those outside the sign certificate's range, are
    zeroed before the algebra.  Returns ((ok, S, t), below, bound) at
    n' = min(n, 3), S the stack of matrices X0, X1, X2 and below None for
    n' >= 2; the engine must match it bit for bit.
    """
    def fro(mats):
        return np.sqrt((mats.real**2 + mats.imag**2).sum(axis=(1, 2)))

    def truncated_square(c, rho, u):
        sq = _poly_product(c, c, c.shape[-1] > 1)
        size = sum(fro(ck) * u**k for k, ck in enumerate(c))
        dropped = sum(fro(sq[k]) * u ** (k - 5) for k in range(5, len(sq)))
        return sq[:5], dropped + 2.0 * size * rho + u**5 * rho * rho

    n = min(n, 3)
    zs = np.asarray(zs, dtype=np.complex128)
    r = np.hypot(zs.real, zs.imag)
    u = 1.0 / a
    q_low = np.minimum(1.0, (1.0 + u) ** 2 - (r * r * u) ** 2)
    ok = q_low > 0.0
    z1 = np.where(ok, zs, 0.0)[:, None, None]
    ub = np.zeros((3, 1, 4, 4), dtype=np.complex128)
    ub[0, 0, 2, 0] = ub[0, 0, 1, 2] = 1.0
    ub[1:, 0, 0, 3] = ub[1:, 0, 3, 1] = 1.0
    ub2 = _poly_product(ub, ub, True)
    ub3 = _poly_product(ub2, ub, True)
    z2 = _cmul(z1, z1)
    z3, z4 = _cmul(z2, z1), _cmul(z2, z2)
    p = ub3[1:6] + z1 * ub2
    p[1:4] += z2 * ub
    p[2] += z3 * np.eye(4)
    q = np.stack([np.ones_like(z4), np.full_like(z4, 2.0), 1.0 - z4])
    rho_p = rho_q = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n):
            p, rho_p = truncated_square(p, rho_p, u)
            q, rho_q = truncated_square(q, rho_q, u)
        x1 = p[1] - _cmul(q[1], p[0])
        s = np.stack([p[0], x1, p[2] - _cmul(q[1], x1) - _cmul(q[2], p[0])])
        rem = _poly_product(s, q, False)
        rem[: len(p)] -= p
        s_norm = fro(s[0]) + u * fro(s[1]) + u * u * fro(s[2])
        t = sum(fro(rem[k]) * u ** (k - 3) for k in range(3, len(rem)))
        t = (t + u * u * (rho_p + s_norm * rho_q)) / q_low ** (1 << n)
    ok &= np.isfinite(t)
    s, t = np.where(ok[:, None, None], s, 0.0), np.where(ok, t, 0.0)

    limit = _tail_limit(family, zs, n)
    m = 1 << n
    with np.errstate(over="ignore"):
        total = limit**m + u * fro(s[1]) + u * u * fro(s[2]) + u**3 * t
        majorant = np.where(ok, ((1.0 + FOUR_ROUNDING) * total) ** (1.0 / m), math.nan)
    if n >= 2:
        return (ok, s, t), None, majorant

    inside = ok & (r**4 < a)
    if n == 0:
        inside &= r > 0.0
    z = np.where(inside, zs, 0.0)
    rz = np.where(inside, r, 0.0)
    x0, x1, x2 = np.where(inside[:, None, None], s, 0.0)
    tz = np.where(inside, t, 0.0)
    s_norm = fro(x0) + u * fro(x1) + u * u * fro(x2)
    xh0, xh1, xh2 = (np.conj(np.swapaxes(x, 1, 2)) for x in (x0, x1, x2))
    h1 = xh0 @ x1 + xh1 @ x0
    h2 = xh0 @ x2 + xh1 @ x1 + xh2 @ x0
    h3 = xh1 @ x2 + xh2 @ x1
    big_k = fro(h3) + u * fro(xh2 @ x2) + 2.0 * s_norm * tz + u**3 * tz * tz
    v = np.zeros((len(zs), 4, 1), dtype=np.complex128)
    c = _tail_limit(family, z, n)
    c2 = c * c
    if n == 0:
        norm = np.sqrt(c2 + 1.0)
        v[:, 0, 0] = c / norm
        v[:, 3, 0] = z / (np.where(inside, rz, 1.0) * norm)
        gap0 = rz * np.sqrt(rz * rz + 4.0)
    else:
        gap0 = 1.0
        v[:, 0, 0] = 1.0

    def along(h):
        hv = h @ v
        vhv = (np.conj(np.swapaxes(v, 1, 2)) @ hv)[:, 0, 0].real
        return vhv, fro(hv - vhv[:, None, None] * v)

    (q1, b1), (q2, b2) = along(h1), along(h2)
    d = fro(h1) + u * fro(h2)
    pad = FOUR_ROUNDING * (c2 + d)
    grow = 1.0 + FOUR_ROUNDING
    big_a = -q1 - grow * (u * np.abs(q2) + big_k * u * u) - pad
    big_g = gap0 - grow * (d * u + big_k * u**3) - pad
    big_b = grow * (b1 + u * b2 + big_k * u * u) + pad
    below = inside & (big_a > 0.0) & (big_g > 0.0) & (big_a * big_g > grow * u * big_b**2)
    return (ok, s, t), below, np.where(below, limit, majorant)
