import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudolab import numkernel
from pseudolab.numkernel import (
    SHIFTS,
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
    uniform_sigma_max,
    uniform_top_eigenvalue,
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


def _tridiagonals(rng, b, k, structure, scales):
    """A stack of b symmetric tridiagonal matrices (diag, off), off >= 0, with
    the diagonal and the off-diagonal at the two given scales."""
    diag = rng.standard_normal((b, k))
    off = np.abs(rng.standard_normal((b, k - 1)))
    if structure in ("zero_off", "mixed"):
        off[rng.random(off.shape) < (1.0 if structure == "zero_off" else 0.5)] = 0.0
    if structure in ("repeated", "mixed"):
        diag = rng.integers(-1, 2, (b, k)).astype(float)
    return scales[0] * diag, scales[1] * off


# (diagonal, off-diagonal) scales: the squares of the off-diagonal stay
# finite; at (1e-200, 1e-200) they underflow and the count takes the floor
COUNT_SCALES = [(1.0, 1.0), (1e-200, 1e-100), (1e200, 1e100), (1e-200, 1e-200)]
# scales at which that floor, the smallest normal double, lies far below
# roundoff, as in every Gram matrix the kernel reduces
FLOOR_FREE_SCALES = [(1.0, 1.0), (1e-100, 1e-100), (1e100, 1e100), (1e200, 1e100)]


def _adjacent_doubles(x, reach):
    """(b, 2 reach + 1): the doubles from reach below to reach above each x."""
    down, up = [x], [x]
    for _ in range(reach):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return np.stack(down[:0:-1] + up, axis=1)


class TestSturmCount:
    """The count of eigenvalues below a shift is monotone in the shift (Demmel,
    Dhillon & Ren, ETNA 3, 1995): the seeded bisection pass rests on it."""

    @pytest.mark.parametrize("scales", COUNT_SCALES, ids=str)
    @pytest.mark.parametrize("structure", ["random", "zero_off", "repeated", "mixed"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 24])
    def test_count_is_nondecreasing_in_the_shift(self, k, structure, scales):
        rng = np.random.default_rng(k * 7 + len(structure))
        diag, off = _tridiagonals(rng, 6, k, structure, scales)
        squares = np.maximum(off * off, np.finfo(float).tiny)
        top = uniform_top_eigenvalue(diag, off)
        reach = np.abs(diag).max() + 2.0 * off.max(initial=0.0)
        rows = [
            _adjacent_doubles(top, 200),
            np.sort(reach * rng.uniform(-1.5, 1.5, (6, 400)), axis=1),
        ]
        # every eigenvalue of a matrix with zero off-diagonal is a diagonal entry
        rows.append(_adjacent_doubles(diag[:, k // 2], 50))
        for shifts in rows:
            counts = numkernel._count_below(diag, squares, shifts)
            assert (np.diff(counts, axis=1) >= 0).all()
            assert counts.min() >= 0 and counts.max() <= k


def _stack(rng, b, shape, kind, scale):
    a = rng.standard_normal((b,) + shape) + 1j * rng.standard_normal((b,) + shape)
    k = min(shape)
    if kind.startswith("gap"):
        # top singular values 1 and 1 - gap (and 1 - 2 gap)
        gap = float(kind[3:])
        q1 = np.linalg.qr(a[..., :, :k])[0]
        q2 = np.linalg.qr(np.conj(np.swapaxes(a, -1, -2))[..., :, :k])[0]
        s = np.sort(rng.random(k))[::-1] * (1.0 - 3.0 * gap)
        s[:3] = (1.0, 1.0 - gap, 1.0 - 2.0 * gap)[:k]
        a = (q1 * s) @ np.conj(np.swapaxes(q2, -1, -2))
    elif kind == "zero_inside" and b > 1:
        a[rng.integers(b)] = 0.0
    return scale * a


def _counted(monkeypatch):
    """Count _count_below calls, one per multisection pass."""
    calls = [0]
    count_below = numkernel._count_below

    def counting(*args):
        calls[0] += 1
        return count_below(*args)

    monkeypatch.setattr(numkernel, "_count_below", counting)
    return calls


class TestSeededMultisection:
    """The seeded first pass returns the uniform multisection's value bit for bit."""

    KINDS = ["random", "zero_inside", "gap1e-3", "gap1e-8", "gap1e-14"]

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["square", "tall", "wide"])
    def test_values_and_passes_match_the_uniform_kernel(self, side, kind, scale, monkeypatch):
        rng = np.random.default_rng(len(side) * 31 + len(kind))
        calls = _counted(monkeypatch)
        for k in range(1, 25):
            b = int(rng.integers(1, 10))
            shape = {"square": (k, k), "tall": (k + 3, k), "wide": (k, k + 2)}[side]
            a = _stack(rng, b, shape, kind, scale)
            calls[0] = 0
            got = largest_singular_values(a)
            seeded = calls[0]
            calls[0] = 0
            want = uniform_sigma_max(a)
            if k == 2:  # a closed form, within a few ulps
                assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
                continue
            assert np.array_equal(got, want)
            assert seeded <= calls[0] + 1
            if kind == "zero_inside":  # no matrix depends on its stack
                one = [largest_singular_values(a[i : i + 1])[0] for i in range(b)]
                assert np.array_equal(got, one)

    @pytest.mark.parametrize("scales", FLOOR_FREE_SCALES, ids=str)
    @pytest.mark.parametrize("structure", ["random", "zero_off", "repeated", "mixed"])
    def test_tridiagonal_values_match_bit_for_bit(self, structure, scales):
        rng = np.random.default_rng(len(structure))
        for k in (1, 2, 3, 5, 13, 24, SHIFTS, SHIFTS + 1):
            diag, off = _tridiagonals(rng, 3, k, structure, scales)
            got = numkernel._top_eigenvalue(diag, off)
            assert np.array_equal(got, uniform_top_eigenvalue(diag, off))

    def test_a_zero_tridiagonal_takes_the_uniform_pass(self):
        assert np.isnan(numkernel._power_estimate(np.zeros((2, 4)), np.zeros((2, 3)))).all()
        diag, off = np.zeros((2, 4)), np.zeros((2, 3))
        assert np.array_equal(numkernel._top_eigenvalue(diag, off), np.zeros(2))

    def test_power_estimate_drops_only_what_turns_subnormal(self, monkeypatch):
        # the tridiagonals of a banded 32-dim inverse at nine points: their
        # plainly rescaled squares (batch_square_scaled) hold subnormal
        # entries from the fifth on, and the seed, which drops them, is the
        # one those squares give, bit for bit
        rng = np.random.default_rng(3)
        dim = 32
        m = np.diag(rng.standard_normal(dim) * 0.3 + 1j * rng.standard_normal(dim) * 0.3)
        m += np.diag(2.0 + rng.standard_normal(dim - 1) * 0.2, 1)
        m += np.diag(rng.standard_normal(dim - 2) * 0.5, 2)
        m += np.diag(rng.standard_normal(dim - 1) * 0.1, -1)
        zs = np.add.outer(np.linspace(-1.2, 1.2, 3), 1j * np.linspace(-1.2, 1.2, 3)).ravel()
        w, ok = explicit_inverses(m[None] - zs[:, None, None] * np.eye(dim))
        assert ok.all()
        seen = []
        estimate = numkernel._power_estimate

        def recorded(diag, off):
            seen.append((diag, off, estimate(diag, off)))
            return seen[-1][2]

        monkeypatch.setattr(numkernel, "_power_estimate", recorded)
        largest_singular_values(w)
        (diag, off, got), = seen
        i = np.arange(dim)
        t = np.zeros((len(diag), dim, dim))
        t[:, i, i] = diag
        t[:, i[1:], i[:-1]] = t[:, i[:-1], i[1:]] = off
        squares = [numkernel.batch_square_scaled(t, j)[0] for j in range(1, 9)]
        tiny = np.finfo(np.float64).tiny
        subnormal = [int(((p != 0.0) & (np.abs(p) < tiny)).sum()) for p in squares]
        assert subnormal[:4] == [0] * 4 and min(subnormal[4:]) > 0
        pick = np.argmax(np.diagonal(squares[-1], axis1=1, axis2=2), axis=1)
        v = squares[-1][np.arange(len(diag)), :, pick, None]
        want = (v * (t @ v)).sum(axis=(1, 2)) / (v * v).sum(axis=(1, 2))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1])
    def test_dense_field_stacks_end_in_two_passes(self, n, monkeypatch):
        # Q (M + ramp) Q* for a Haar Q and a fixed Ginibre M, inverted at the
        # nine points of a 3x3 grid on [-1.2, 1.2]^2, squared n times
        dim = 32
        base_rng = np.random.default_rng(7)
        g = base_rng.standard_normal((dim, dim)) + 1j * base_rng.standard_normal((dim, dim))
        base = g / math.sqrt(2 * dim) + np.diag(np.linspace(-0.5, 0.5, dim))
        for seed in (1, 2, 3):
            q, r = np.linalg.qr(random_complex_matrix(np.random.default_rng(seed), dim))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            a = q @ base @ q.conj().T
            zs = np.add.outer(np.linspace(-1.2, 1.2, 3), 1j * np.linspace(-1.2, 1.2, 3)).ravel()
            w, ok = explicit_inverses(a[None] - zs[:, None, None] * np.eye(dim))
            assert ok.all()
            for _ in range(n):
                w = w @ w
            calls = _counted(monkeypatch)
            got = largest_singular_values(w)
            assert calls[0] <= 2
            assert np.array_equal(got, uniform_sigma_max(w))
