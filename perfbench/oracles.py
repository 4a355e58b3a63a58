"""Independent numpy oracles for the benchmark's output checks.

Nothing here calls pseudolab: dense norms come from ``numpy.linalg.svd``,
block-family values from stacked numpy SVDs of explicitly built blocks,
and Hausdorff distances and neighbourhoods from brute-force distance
tables on the integer lattice.  The checks
run after the timed region.
"""
from __future__ import annotations

import numpy as np


def dense_power_norm(matrix: np.ndarray, z: complex, n: int) -> float:
    """||(A - z)^-2^n||^(1/2^n) from numpy's SVD."""
    shifted = matrix - z * np.eye(matrix.shape[0])
    if n == 0:
        return 1.0 / np.linalg.svd(shifted, compute_uv=False)[-1]
    inv = np.linalg.inv(shifted)
    power = inv
    for _ in range(n):
        power = power @ power
    return np.linalg.svd(power, compute_uv=False)[0] ** (1.0 / (1 << n))


def dense_tolerance(matrix: np.ndarray, z: complex, tol: float) -> float:
    """Bound on reciprocal_err between two backward-stable evaluations of
    ||(A - z)^-2^n||^(1/2^n): tol, or 64 u kappa(A - z) where that is larger.
    A backward error of u ||A - z|| moves sigma_min(A - z) by up to u kappa
    relative, numpy's own SVD included, so a near-singular cell is checked
    only to within 64 u ||A - z|| in sigma_min."""
    s = np.linalg.svd(matrix - z * np.eye(matrix.shape[0]), compute_uv=False)
    return max(tol, 64 * np.finfo(float).eps / 2 * s[0] / s[-1])


def two_blocks(alphas: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Stacked 2x2 blocks [[0, f], [alpha, 0]]."""
    b = np.zeros((len(alphas), 2, 2), dtype=np.complex128)
    b[:, 0, 1] = fs
    b[:, 1, 0] = alphas
    return b


def four_blocks(alphas: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Stacked 4x4 blocks laid out as in a dense truncation."""
    b = np.zeros((len(alphas), 4, 4), dtype=np.complex128)
    b[:, 2, 0] = alphas
    b[:, 1, 2] = alphas
    b[:, 0, 3] = fs
    b[:, 3, 1] = fs
    return b


def head_maximum(blocks: np.ndarray, z: complex, n: int) -> float:
    """max over the stacked blocks of ||(B_k - z)^-2^n||^(1/2^n)."""
    dim = blocks.shape[1]
    shifted = blocks - z * np.eye(dim)
    if n == 0:
        return float(np.max(1.0 / np.linalg.svd(shifted, compute_uv=False)[:, -1]))
    power = np.linalg.inv(shifted)
    for _ in range(n):
        power = power @ power
    return float(np.max(np.linalg.svd(power, compute_uv=False)[:, 0] ** (1.0 / (1 << n))))


def lattice_min_sq(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distance from each query to its nearest target, both given as
    rows (i, j) of integer lattice indices: a brute-force table, exact in
    integers, built in chunks to bound memory."""
    out = np.empty(len(queries), dtype=np.int64)
    step = max(1, 2**21 // max(1, len(targets)))
    for s in range(0, len(queries), step):
        di = queries[s : s + step, 0, None] - targets[None, :, 0]
        dj = queries[s : s + step, 1, None] - targets[None, :, 1]
        out[s : s + step] = (di * di + dj * dj).min(axis=1)
    return out


def lattice_hausdorff(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """Brute-force Hausdorff distance between two sets of lattice indices
    on a square lattice of step h."""
    worst = max(lattice_min_sq(a, b).max(), lattice_min_sq(b, a).max())
    return h * float(np.sqrt(worst))


def lattice(re_min, re_max, im_min, im_max, nx, ny) -> np.ndarray:
    """(nx, ny) complex lattice, real axis outer, both endpoints included."""
    re = re_min + (re_max - re_min) / (nx - 1) * np.arange(nx)
    im = im_min + (im_max - im_min) / (ny - 1) * np.arange(ny)
    return re[:, None] + 1j * im[None, :]


def reciprocal_err(value: float, reference: float) -> float:
    """Relative error of 1/value against 1/reference."""
    with np.errstate(divide="ignore"):
        return float(abs(np.float64(reference) / value - 1.0))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
