"""Independent reference computations for the test suite.

Every expected value asserted in the tests either comes from a hand
calculation frozen into the test file, or from one of these oracles.
They are deliberately built on LAPACK-backed numpy decompositions
(eigh, eigvals) so that they share no code path with the iterative
kernels in the package.
"""
from __future__ import annotations

import numpy as np


def singular_values_oracle(a) -> np.ndarray:
    """All singular values, descending, via the eigendecomposition of A*A."""
    m = np.asarray(a, dtype=np.complex128)
    gram = m.conj().T @ m
    evals = np.linalg.eigh(gram)[0]
    evals = np.clip(evals, 0.0, None)
    return np.sqrt(evals)[::-1]


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


def eigenvalues_oracle(a) -> np.ndarray:
    return np.linalg.eigvals(np.asarray(a, dtype=np.complex128))


def random_complex_matrix(rng: np.random.Generator, n: int, scale: float = 1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
