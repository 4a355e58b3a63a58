import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudolab.numkernel import (
    DimensionError,
    SingularExtremes,
    as_square_matrix,
    explicit_inverses,
    jacobi_singular_values,
    largest_singular_value,
    largest_singular_values,
    lu_factor,
    lu_solve,
    lu_solve_adjoint,
    smallest_singular_value,
    sv2x2,
    sv2x2_batch,
)

from oracles import (
    random_complex_matrix,
    singular_values_oracle,
    smallest_sv_oracle,
    spectral_norm_oracle,
)


def _lu_solved(a, b):
    lu, perm = lu_factor(a)
    return lu_solve(lu, perm, b)


class TestLU:
    def test_reconstruction_and_solve(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 17, 40):
            a = random_complex_matrix(rng, n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = _lu_solved(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_multiple_rhs(self):
        rng = np.random.default_rng(11)
        a = random_complex_matrix(rng, 8)
        b = random_complex_matrix(rng, 8)
        x = _lu_solved(a, b)
        assert x.shape == (8, 8)
        assert np.linalg.norm(a @ x - b) <= 1e-9

    def test_adjoint_solve(self):
        rng = np.random.default_rng(13)
        a = random_complex_matrix(rng, 12)
        lu, piv = lu_factor(a)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x = lu_solve_adjoint(lu, piv, b)
        assert np.linalg.norm(a.conj().T @ x - b) <= 1e-9

    def test_tiny_pivot_marks_the_matrix_singular(self):
        # the pivot stays on the diagonal of U and explicit_inverses reports it
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        lu, _ = lu_factor(a)
        assert np.count_nonzero(np.diagonal(lu)) == 1
        w, ok = explicit_inverses(a[None])
        assert not ok[0] and not w.any()

    def test_permutation_reconstructs_matrix(self):
        # A[perm] = L U, also when the leading entry is zero
        rng = np.random.default_rng(19)
        for n in (2, 5, 13):
            a = random_complex_matrix(rng, n)
            a[0, 0] = 0.0
            lu, perm = lu_factor(a)
            lower = np.tril(lu, -1) + np.eye(n)
            upper = np.triu(lu)
            assert sorted(perm) == list(range(n))
            assert np.linalg.norm(a[perm] - lower @ upper) <= 1e-13 * np.linalg.norm(a)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = _lu_solved(a, np.array([2.0, 3.0]))
        assert np.allclose(x, [3.0, 2.0])

    def test_rejects_nonsquare(self):
        # operators validate their matrices with as_square_matrix before any LU
        with pytest.raises(DimensionError):
            as_square_matrix(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = np.nan
        with pytest.raises(DimensionError):
            as_square_matrix(a)

    def test_lu_solve_consistency(self):
        rng = np.random.default_rng(17)
        a = random_complex_matrix(rng, 6)
        lu, piv = lu_factor(a)
        b = np.ones(6, dtype=complex)
        assert np.allclose(lu_solve(lu, piv, b), np.linalg.solve(a, b))


class TestSmallestSingularValue:
    def test_against_oracle_random(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 6, 15, 33):
            for _ in range(4):
                a = random_complex_matrix(rng, n)
                got = smallest_singular_value(a)
                want = smallest_sv_oracle(a)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_diagonal_exact(self):
        a = np.diag([3.0, -0.25, 5.0]).astype(complex)
        assert smallest_singular_value(a) == pytest.approx(0.25, rel=1e-12)

    def test_singular_returns_zero(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        assert smallest_singular_value(a) == 0.0

    def test_one_by_one(self):
        assert smallest_singular_value(np.array([[3 + 4j]])) == pytest.approx(5.0)

    def test_clustered_extremes(self):
        # two smallest singular values 1 and 1 + 1e-9: the Gram matrix of A^-1
        # has a near-double top eigenvalue, with no gap below it to exploit,
        # and the value must still land on the oracle's
        d = np.array([1.0, 1.0 + 1e-9, 2.0, 3.0])
        rng = np.random.default_rng(31)
        q = np.linalg.qr(random_complex_matrix(rng, 4))[0]
        a = q @ np.diag(d) @ q.conj().T
        got = smallest_singular_value(a)
        assert got == pytest.approx(1.0, rel=1e-7)

    def test_tiny_values(self):
        a = np.diag([1e-8, 1.0]).astype(complex)
        assert smallest_singular_value(a) == pytest.approx(1e-8, rel=1e-9)

    def test_value_near_underflow(self):
        # the inverse has norm 1e160, whose Gram matrix overflows unless the
        # inverse is scaled first
        a = np.diag([1e-160, 2.0, 3.0]).astype(complex)
        assert smallest_singular_value(a) == pytest.approx(1e-160, rel=1e-12, abs=0.0)

    def test_stacked_kernel_keeps_tiny_values(self):
        # the inverse has top value 1e160, whose square overflows: the Gram
        # matrix is formed after an exact scaling by a power of two
        a = np.diag([1e-160, 2.0, 3.0]).astype(complex)
        w, ok = explicit_inverses(np.stack([a, np.eye(3), a]))
        assert ok.all()
        sigma = largest_singular_values(w)
        assert sigma[0] == sigma[2] == pytest.approx(1e160, rel=1e-15, abs=0.0)
        assert sigma[1] == pytest.approx(1.0, rel=1e-15)
        assert largest_singular_values(a[None])[0] == pytest.approx(3.0, rel=1e-15)


class TestLargestSingularValue:
    def test_against_oracle_random(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 5, 20):
            for _ in range(4):
                a = random_complex_matrix(rng, n)
                got = largest_singular_value(a)
                want = spectral_norm_oracle(a)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_rectangular(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        assert largest_singular_value(a) == pytest.approx(
            spectral_norm_oracle(a), rel=1e-9
        )

    def test_zero_matrix(self):
        assert largest_singular_value(np.zeros((4, 4))) == 0.0

    def test_start_vector_in_null_space(self):
        # A annihilates the all-ones start vector, yet ||A|| = 2
        a = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        assert largest_singular_value(a) == pytest.approx(2.0, rel=1e-12)

    def test_repeated_top_value(self):
        a = np.diag([2.0, 2.0, 1.0]).astype(complex)
        assert largest_singular_value(a) == pytest.approx(2.0, rel=1e-10)

    def test_value_near_overflow(self):
        # squared norms of 1e200 overflow unless the matrix is scaled first
        a = np.diag([1e200, 2e200, 3.0]).astype(complex)
        assert largest_singular_value(a) == pytest.approx(2e200, rel=1e-12)


class TestJacobi:
    def test_full_spectrum_matches_oracle(self):
        rng = np.random.default_rng(53)
        for n in (2, 4, 9):
            a = random_complex_matrix(rng, n)
            got = jacobi_singular_values(a)
            want = singular_values_oracle(a)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_cross_check_against_numpy_svd(self):
        # one direct comparison against the library SVD, on top of the
        # eigh-based oracle used everywhere else
        rng = np.random.default_rng(59)
        a = random_complex_matrix(rng, 7)
        got = jacobi_singular_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(got, want, rtol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        stack=st.sampled_from([None, 1, 3]),
        rows=st.integers(1, 9),
        cols=st.integers(1, 9),
        structure=st.sampled_from(
            ["random", "zero_column", "rank_deficient", "clustered"]
        ),
        seed=st.integers(0, 2**16),
    )
    @example(None, 1, 1, "random", 0)
    @example(None, 3, 8, "random", 1)  # wide
    @example(3, 7, 7, "zero_column", 2)  # odd n
    @example(3, 6, 4, "rank_deficient", 3)
    @example(None, 8, 8, "clustered", 4)
    @example(1, 5, 1, "zero_column", 5)  # a zero matrix
    def test_property_matches_numpy_svd(self, stack, rows, cols, structure, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, cols) if stack is None else (stack, rows, cols)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = min(rows, cols)
        if structure == "zero_column":
            a[..., rng.integers(cols)] = 0.0
        elif structure == "rank_deficient":
            a = a[..., :, : k // 2] @ a[..., : k // 2, :]
        elif structure == "clustered":
            q1 = np.linalg.qr(a[..., :, :k])[0]
            q2 = np.linalg.qr(np.conj(np.swapaxes(a, -1, -2))[..., :, :k])[0]
            s = 1.0 + 1e-9 * rng.standard_normal(k)
            a = (q1 * s) @ np.conj(np.swapaxes(q2, -1, -2))
        got = jacobi_singular_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert got.shape == want.shape
        scale = np.maximum(want[..., :1], 1e-300)
        assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale)
        if stack is None:
            assert np.array_equal(got, jacobi_singular_values(a[None])[0])

    def test_rejects_vectors(self):
        with pytest.raises(DimensionError):
            jacobi_singular_values(np.ones(3))


class TestSv2x2:
    def test_closed_form_matches_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            a = random_complex_matrix(rng, 2)
            got = sv2x2(a)
            want = singular_values_oracle(a)
            assert got.sigma_max == pytest.approx(float(want[0]), rel=1e-12)
            assert got.sigma_min == pytest.approx(float(want[1]), rel=1e-10, abs=1e-13)

    def test_known_block(self):
        # [[0, f], [alpha, 0]] has singular values {alpha, f}
        got = sv2x2(np.array([[0.0, 1.5], [4.0, 0.0]], dtype=complex))
        assert got == SingularExtremes(sigma_max=4.0, sigma_min=1.5)

    def test_singular_block(self):
        got = sv2x2(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert got.sigma_max == pytest.approx(2.0, rel=1e-12)
        assert got.sigma_min == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            sv2x2(np.eye(3))

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(67)
        ms = [random_complex_matrix(rng, 2) for _ in range(20)]
        hi, lo = sv2x2_batch(
            np.array([m[0, 0] for m in ms]),
            np.array([m[0, 1] for m in ms]),
            np.array([m[1, 0] for m in ms]),
            np.array([m[1, 1] for m in ms]),
        )
        for i, m in enumerate(ms):
            one = sv2x2(m)
            assert hi[i] == pytest.approx(one.sigma_max, rel=1e-13)
            assert lo[i] == pytest.approx(one.sigma_min, rel=1e-10, abs=1e-13)
