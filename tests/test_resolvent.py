"""Resolvent and resolvent-power norms: frozen values, invariants, errors."""
import ast
import decimal
import inspect
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    block_family_power_norm_oracle,
    four_block_power_norms_oracle,
    per_weight_four_tail,
    random_complex_matrix,
    resolvent_norm_oracle,
    resolvent_power_norm_oracle,
    smallest_sv_oracle,
    spectral_norm_oracle,
    two_block_power_norms_oracle,
    uniform_sigma_max,
)
from pseudolab import (
    AlphaRule,
    ConfigurationError,
    DenseOperator,
    DiagBlockFamily,
    DomainError,
    GridRegion,
    OperatorSequence,
    ResolventValue,
    SingularityError,
    SymbolSpec,
    TruncationSequence,
    assemble_truncation,
    build_named_example,
    compute_norm_field,
    expansion_residual,
    gnr_defect,
    power_diff_bound_check,
    region_with_step,
    resolvent_norm,
    resolvent_power_norm,
    scale_operator,
)
import pseudolab
from pseudolab import numkernel, operators, resolvent, tails
from pseudolab.numkernel import (
    jacobi_singular_values,
    largest_singular_value,
    smallest_singular_value,
    sv2x2_batch,
)
from pseudolab.operators import ScaledOperator, TruncatedFamily
from pseudolab.resolvent import _dense_power_norms, _four_power_stack

SHARG = build_named_example("shargorodsky").model
EMPTY = build_named_example("empty_resolvent").model
NONCONST = build_named_example("nonconstant").model
DECAY = build_named_example("decay").model
REMARK = build_named_example("remark_n1").model
DIAG26 = DenseOperator(np.diag([2.0, 6.0]))
# ||R(0.5)|| = 4.83 for the nilpotent Jordan block: high powers of its
# resolvents near 0.5 overflow
NILPOTENT = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestResolventValue:
    def test_rejects_nonpositive_value(self):
        with pytest.raises(DomainError):
            ResolventValue(0.0)

    def test_infinite_value_allowed(self):
        assert math.isinf(ResolventValue(math.inf).value)


class TestDensePath:
    def test_diag_pair_at_three(self):
        got = resolvent_norm(DIAG26, 3.0)
        assert abs(got.value - 1.0) <= 1e-12

    def test_spectrum_point_is_infinite(self):
        assert math.isinf(resolvent_norm(DIAG26, 2.0).value)

    def test_diagonal_point_values_are_exact(self):
        # a diagonal matrix is normal: every power norm is 1/dist(z, spectrum)
        for n in (0, 1, 2):
            assert resolvent_power_norm(DIAG26, 3.0 + 0.0j, n).value == 1.0

    def test_truncation_200_at_zero(self):
        dense = assemble_truncation(SHARG, 200)
        got = resolvent_norm(dense, 0.0)
        assert abs(got.value - 201.0 / 202.0) <= 1e-12

    def test_blockwise_truncation_agrees(self):
        got = resolvent_norm(TruncatedFamily(SHARG, 200), 0.0)
        assert abs(got.value - 201.0 / 202.0) <= 1e-12

    def test_overflowing_inverse(self):
        # the LU pivots clear the singularity floor, but W holds -inf
        a = np.array([[1.5e-300, 1.0], [0.0, 1e-10]], dtype=complex)
        model = DenseOperator(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1):
                assert resolvent_power_norm(model, 0.0, n).value == math.inf
            assert smallest_singular_value(a) == 0.0
            with pytest.raises(SingularityError):
                expansion_residual(model, 0.0, 1.0, 2)
            with pytest.raises(SingularityError):
                power_diff_bound_check(model, 0.0, 1e-3, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_powers_of_a_huge_inverse_stay_finite(self, n):
        # W = diag(1e160, 1): W^2 overflows unless it is scaled first; the
        # kernel takes the matrix as one block, the entry as two 1x1 blocks
        matrix = np.diag([1e-160, 1.0]).astype(complex)
        assert _dense_power_norms(matrix, (0, 2), np.array([0j]), n)[0] == 1e160
        assert resolvent_power_norm(DenseOperator(matrix), 0.0, n).value == 1e160

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_high_powers_take_the_root_without_overflow(self, n):
        # from 2^n = 1024 on, sigma 2^r alone could overflow
        matrix = np.diag([1e-160, 1.0]).astype(complex)
        got = _dense_power_norms(matrix, (0, 2), np.array([0j]), n)[0]
        assert got == pytest.approx(1e160, rel=1e-15)
        assert resolvent_power_norm(DenseOperator(matrix), 0.0, n).value == 1e160

    @pytest.mark.filterwarnings("error")
    def test_power_scaling_loses_no_ulps(self):
        # powers of two scale exactly, so the root of sigma 2^E is exact here
        matrix = np.diag([1e-100, 1.0]).astype(complex)
        assert _dense_power_norms(matrix, (0, 2), np.array([0j]), 1)[0] == 1e100
        assert resolvent_power_norm(DenseOperator(matrix), 0.0, 1).value == 1e100

    @pytest.mark.parametrize(
        "z, want", [(2j, 5.23054462827016), (3 + 3j, 1.4796514418603828)]
    )
    def test_empty_resolvent_truncation_to_the_last_ulps(self, z, want):
        # a 50-digit reference; block k of the inverse has norm about
        # alpha_k / |1 - z^2|, so the top singular values are about 4 % apart
        got = resolvent_norm(assemble_truncation(EMPTY, 25), z).value
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_600_dim_truncation_point(self):
        # 600 dimensions, and the top singular values of the inverse cluster:
        # the blocks approach one limit, so their inverse norms agree to
        # many digits
        matrix = assemble_truncation(SHARG, 300).matrix
        z = 0.05 + 0.05j
        got = resolvent_power_norm(DenseOperator(matrix), z, 0).value
        smin = np.linalg.svd(matrix - z * np.eye(600), compute_uv=False)[-1]
        assert got == pytest.approx(1.0 / smin, rel=1e-12, abs=0.0)

    def test_600_dim_irreducible_point(self):
        # a unitary similarity of the 600-dim truncation couples every index,
        # so the point takes the multi-panel LU and tridiagonalization
        rng = np.random.default_rng(29)
        q = np.linalg.qr(random_complex_matrix(rng, 600))[0]
        matrix = q @ assemble_truncation(SHARG, 300).matrix @ q.conj().T
        model = DenseOperator(matrix)
        assert model.blocks == (0, 600)
        z = 0.05 + 0.05j
        got = resolvent_power_norm(model, z, 0).value
        smin = np.linalg.svd(matrix - z * np.eye(600), compute_uv=False)[-1]
        assert got == pytest.approx(1.0 / smin, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_two_by_two_blocks_match_the_general_kernel(self, n, monkeypatch):
        # 2x2 blocks take sigma_max in closed form: within 4 ulps of the
        # general kernel, with the same inf cells (singular, floored pivot,
        # overflowing inverse)
        rng = np.random.default_rng(37)
        blocks = [random_complex_matrix(rng, 2) for _ in range(6)]
        blocks += [np.triu(random_complex_matrix(rng, 2)) for _ in range(3)]
        blocks.append(np.array([[1.5e-300, 1.0], [0.0, 1e-10]]))
        matrix = np.zeros((20, 20), dtype=complex)
        for i, block in enumerate(blocks):
            matrix[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
        bounds = tuple(range(0, 21, 2))
        spectrum = [b[0, 0] for b in blocks[6:]]
        zs = np.concatenate([
            spectrum, np.array(spectrum) + 1e-9, [0.0, 1e-20],
            rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40),
        ])
        got = _dense_power_norms(matrix, bounds, zs, n)
        monkeypatch.setattr(resolvent, "largest_singular_values", uniform_sigma_max)
        want = _dense_power_norms(matrix, bounds, zs, n)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.isinf(got).sum() == 5
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 4 * np.spacing(want[fin]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_truncation_field_matches_the_family(self, n):
        # 40 uncoupled 2x2 blocks, as a dense matrix and as a block family
        zs = GridRegion(-2.0, 2.0, -2.0, 2.0, 41, 41).lattice().ravel()
        dense = resolvent.resolvent_power_norms(assemble_truncation(SHARG, 40), zs, n).value
        family = resolvent.resolvent_power_norms(TruncatedFamily(SHARG, 40), zs, n).value
        assert np.array_equal(np.isinf(dense), np.isinf(family))
        fin = np.isfinite(family)
        assert np.all(np.abs(dense[fin] - family[fin]) <= 1e-14 * family[fin])

    def test_one_factorization_per_shifted_matrix(self, monkeypatch):
        calls = []
        lu_factor = numkernel.lu_factor

        def counting(a):
            calls.append(1)
            return lu_factor(a)

        monkeypatch.setattr(numkernel, "lu_factor", counting)
        rng = np.random.default_rng(19)
        model = DenseOperator(random_complex_matrix(rng, 5))
        scale = build_named_example("diag_pair").sequences["scale"]
        runs = [
            (1, lambda: resolvent_power_norm(model, 0.3 + 0.1j, 0)),
            (1, lambda: resolvent_power_norm(model, 0.3 + 0.1j, 1)),
            (2, lambda: gnr_defect(scale, 10)),
            (2, lambda: expansion_residual(model, 0.3 + 0.1j, 0.2, 3)),
            (2, lambda: power_diff_bound_check(model, 0.3 + 0.1j, 0.3 + 0.1001j, 1)),
        ]
        for want, call in runs:
            calls.clear()
            call()
            assert len(calls) == want

    def test_random_dense_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_complex_matrix(rng, int(rng.integers(2, 7)))
            z = complex(rng.normal(scale=3), rng.normal(scale=3))
            got = resolvent_norm(DenseOperator(a), z).value
            want = resolvent_norm_oracle(a, z)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-9)


def _direct_sum(*blocks) -> np.ndarray:
    dim = sum(len(b) for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    i = 0
    for b in blocks:
        out[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    return out


class TestDirectSums:
    """A dense matrix is the direct sum of its diagonal blocks, and its value
    at z is the largest of theirs."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_value_is_the_largest_block_value(self, n):
        rng = np.random.default_rng(59)
        blocks = [
            np.array([[0.4 + 0.1j]]),
            np.array([[0.0, 1.5], [2.0, 0.0]]),
            random_complex_matrix(rng, 5),
            np.array([[-0.7j]]),
            assemble_truncation(REMARK, 1).matrix,
            np.array([[0.0, 1.0], [0.5, 0.2]]),
            random_complex_matrix(rng, 5),
        ]
        model = DenseOperator(_direct_sum(*blocks))
        assert model.blocks == (0, 1, 3, 8, 9, 13, 15, 20)
        zs = rng.uniform(-2.0, 2.0, 6) + 1j * rng.uniform(-2.0, 2.0, 6)
        got = resolvent.resolvent_power_norms(model, zs, n).value
        own = [resolvent.resolvent_power_norms(DenseOperator(b), zs, n).value for b in blocks]
        assert np.array_equal(got, np.max(own, axis=0))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_singular_block_is_inf_at_its_point_only(self, n):
        # z = 1 is the 1x1 block, z = 2 an eigenvalue of the triangular 2x2 one
        rng = np.random.default_rng(61)
        triangular = np.array([[2.0, 1.0], [0.0, -1.0]])
        model = DenseOperator(_direct_sum([[1.0]], triangular, random_complex_matrix(rng, 3)))
        region = GridRegion(0.0, 2.0, -1.0, 1.0, 3, 3)
        lattice = region.lattice().ravel()
        values = compute_norm_field(model, region, n).values.ravel()
        hit = np.isin(lattice, [1.0, 2.0])
        assert hit.sum() == 2 and np.isinf(values[hit]).all()
        assert np.isfinite(values[~hit]).all()
        for z, cell in zip(lattice, values):
            assert cell == resolvent_power_norm(model, z, n).value

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_field_cells_over_several_stacks_equal_point_values(self, n):
        rng = np.random.default_rng(67)
        diagonal = np.diag(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        model = DenseOperator(
            _direct_sum(
                assemble_truncation(SHARG, 50).matrix,
                assemble_truncation(REMARK, 8).matrix,
                random_complex_matrix(rng, 5),
                diagonal,
            )
        )
        region = GridRegion(-1.2, 1.2, -1.2, 1.2, 7, 7)
        # the 50 2x2 blocks take 10 points a stack, the eight 4x4 blocks 32
        assert region.nx * region.ny > resolvent.DENSE_CAP // (8 * 4 * numkernel.SHIFTS)
        field = compute_norm_field(model, region, n)
        for z, cell in zip(region.lattice().ravel(), field.values.ravel()):
            assert cell == resolvent_power_norm(model, z, n).value

    @pytest.mark.parametrize("n", [0, 2])
    def test_diagonal_field_over_two_stacks_equals_point_values(self, n):
        rng = np.random.default_rng(73)
        region = GridRegion(-1.0, 1.0, -1.0, 1.0, 21, 21)
        d = rng.uniform(-1.0, 1.0, 600) + 1j * rng.uniform(-1.0, 1.0, 600)
        d[17] = region.point(4, 9)
        model = DenseOperator(np.diag(d))
        # the 1x1 blocks take DENSE_CAP // 600 = 436 points a stack
        assert resolvent.DENSE_CAP // len(d) < region.nx * region.ny < 2 * (
            resolvent.DENSE_CAP // len(d)
        )
        field = compute_norm_field(model, region, n)
        assert math.isinf(field.values[4, 9])
        assert np.isfinite(np.delete(field.values.ravel(), 4 * 21 + 9)).all()
        for z, cell in zip(region.lattice().ravel(), field.values.ravel()):
            assert cell == resolvent_power_norm(model, z, n).value


class TestScaledPath:
    def test_half_scaled_family_at_zero(self):
        got = resolvent_norm(scale_operator(SHARG, 0.5), 0.0)
        assert abs(got.value - 2.0) <= 1e-9

    def test_doubled_dense_block(self):
        base = DenseOperator(np.array([[0.0, 2.0], [3.0, 0.0]]))
        got = resolvent_norm(scale_operator(base, 2.0), 0.0)
        assert abs(got.value - 0.25) <= 1e-12

    def test_scaling_identity_randomised(self):
        rng = np.random.default_rng(5)
        a = random_complex_matrix(rng, 5)
        model = DenseOperator(a)
        for _ in range(50):
            s = complex(rng.normal(), rng.normal())
            if abs(s) < 0.1:
                continue
            z = complex(rng.normal(scale=2), rng.normal(scale=2))
            direct = resolvent_norm(scale_operator(model, s), z).value
            via = resolvent_norm(model, z / s).value / abs(s)
            assert direct == pytest.approx(via, rel=1e-12)

    def test_nested_scalings_divide_in_order(self):
        # z by the outer factor first, the values by the inner modulus first
        zs = np.array([0.3 + 0.2j, -1.7 + 0.4j, 2.5j, 0.0])
        inner, outer = 1.0 - 0.5j, -3.0 + 1.0j
        got = resolvent.resolvent_power_norms(
            ScaledOperator(ScaledOperator(REMARK, inner), outer), zs, 1)
        base = resolvent.resolvent_power_norms(REMARK, zs / outer / inner, 1)
        for col in ("value", "tail_gap"):
            want = getattr(base, col) / abs(inner) / abs(outer)
            assert getattr(got, col).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_a_point_that_overflows_its_scaling_is_named(self):
        # 1e10 (1 + i) / 1e-300 overflowed with a warning, and the error
        # named the quotient (inf+infj), not the point given
        for model in (scale_operator(SHARG, 1e-300),
                      ScaledOperator(ScaledOperator(SHARG, 1e-200), 1e-200)):
            with pytest.raises(DomainError, match=r"\(10000000000\+10000000000j\)"):
                resolvent_norm(model, 1e10 + 1e10j)


class TestBlockFamilies:
    def test_shargorodsky_constant_at_origin(self):
        got = resolvent_norm(SHARG, 0.0)
        assert got.value == 1.0
        assert got.certified and got.tail_gap == 0.0

    def test_constant_on_small_disc(self):
        for z in (0.3, 0.4j, 0.3 + 0.3j, -0.45 - 0.45j):
            got = resolvent_norm(SHARG, z)
            assert got.certified
            assert abs(got.value - 1.0) <= 1e-9

    def test_block_eigenvalue_hit_is_infinite(self):
        got = resolvent_norm(SHARG, 2.0)  # sqrt(alpha_2 f(alpha_2)) = 2
        assert math.isinf(got.value) and got.certified

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("family", [SHARG, REMARK], ids=["2x2", "4x4"])
    def test_truncation_leaves_a_block_eigenvalue_where_its_family_does(self, family, n):
        # z = 2 is an eigenvalue of block 2 of both shapes: a truncation
        # that holds the first chunk leaves the scan at its end, as its
        # family does, with the same certified inf; a shorter one at its
        # last block
        limit = resolvent_power_norm(family, 2.0, n)
        assert math.isinf(limit.value) and limit.certified
        assert limit.k_cutoff == resolvent.HEAD_CHUNK
        for n_blocks in (16, 100, 400):
            assert resolvent_power_norm(TruncatedFamily(family, n_blocks), 2.0, n) == limit
        assert resolvent_power_norm(TruncatedFamily(family, 2), 2.0, n).k_cutoff == 2

    def test_family_agrees_with_deep_truncation_off_the_constant_disc(self):
        for z in (3.5, 1.0 + 0.5j, -2.3 + 0.2j):
            fam = resolvent_norm(SHARG, z)
            dense = resolvent_norm(assemble_truncation(SHARG, 300), z)
            assert fam.certified
            assert fam.value == pytest.approx(
                max(dense.value, 1.0), rel=1e-8
            )

    @pytest.mark.filterwarnings("error")
    def test_points_beyond_the_block_range_are_rejected(self):
        # past the range z^4 overflows: remark_n1 at 1e100 (0.6 + 0.8i)
        # reported a certified inf at n = 1 (the value is 1) and a nan at n = 0
        for model, far in ((REMARK, 1e100 * (0.6 + 0.8j)), (SHARG, 1e155 * (0.6 + 0.8j)),
                           (TruncatedFamily(REMARK, 40), 2e75j),
                           (scale_operator(SHARG, 1e-3), 1e73)):
            for n in (0, 1):
                with pytest.raises(DomainError, match="block arithmetic"):
                    resolvent_power_norm(model, far, n, max_blocks=256)
        with pytest.raises(DomainError, match="block arithmetic"):
            TruncationSequence(REMARK, gnr_anchor=1e100j)
        for model in (REMARK, SHARG, NONCONST, TruncatedFamily(REMARK, 40)):
            for r in (1e20, 1e50, resolvent.BLOCK_Z_LIMIT):
                for n in (0, 1, 2, 3):
                    got = resolvent_power_norm(model, r * (0.6 + 0.8j), n, max_blocks=256)
                    assert math.isfinite(got.value) or not got.certified

    def test_nonconstant_family_exceeds_limit(self):
        got = resolvent_norm(NONCONST, 0.0)
        assert got.certified
        # largest block value is 1/f(alpha_1) = 1/(1 - 1/sqrt 2)
        assert got.value == pytest.approx(1.0 / (1.0 - 2**-0.5), rel=1e-10)
        assert got.value > 1.0

    def test_decay_family_at_origin(self):
        # (B_k)^-1 has singular values 1/alpha_k and 1/f(alpha_k) = alpha_k^-0.5,
        # largest at the first block, alpha_1 = 2
        got = resolvent_norm(DECAY, 0.0)
        assert got.certified and got.tail_gap == 0.0
        assert got.value == pytest.approx(2**-0.5, rel=1e-14)

    def test_empty_resolvent_family_everywhere_infinite(self):
        for z in (2j, 0.0, 0.3 + 0.1j, -1.7):
            got = resolvent_norm(EMPTY, z)
            assert math.isinf(got.value) and got.certified

    def test_truncated_empty_family_beats_weyl_bound(self):
        for n_blocks in (25, 100):
            got = resolvent_norm(TruncatedFamily(EMPTY, n_blocks), 2j)
            bound = math.sqrt((n_blocks + 1) ** 2 + 4) / 5.0
            assert got.value >= bound - 1e-9


class TestPowerNorms:
    def test_diag_pair_power_two(self):
        got = resolvent_power_norm(DIAG26, 3.0, 2)
        assert abs(got.value - 1.0) <= 1e-12

    def test_n_zero_delegates_exactly(self):
        for model, z in ((DIAG26, 3.3), (SHARG, 0.2 + 0.1j), (REMARK, 0.4)):
            a = resolvent_power_norm(model, z, 0).value
            b = resolvent_norm(model, z).value
            assert a == b

    def test_remark_family_power_at_origin(self):
        got = resolvent_power_norm(REMARK, 0.0, 1)
        assert got.value == 1.0
        assert got.certified and got.tail_gap == 0.0

    def test_remark_blocks_stay_below_one(self):
        # ||B_k^-2|| = 1/beta_k^2 < 1 for every finite block
        for k in (1, 2, 5):
            got = resolvent_power_norm(TruncatedFamily(REMARK, k), 0.0, 1)
            alpha = float(k + 1)
            beta = 1.0 + 1.0 / alpha
            assert got.value == pytest.approx(1.0 / beta, rel=1e-10)

    def test_random_dense_against_oracle(self):
        rng = np.random.default_rng(23)
        a = random_complex_matrix(rng, 4)
        z = 8.0 + 3.0j  # outside the numerical range
        got = resolvent_power_norm(DenseOperator(a), z, 1).value
        want = resolvent_power_norm_oracle(a, z, 1)
        assert got == pytest.approx(want, rel=1e-8)

    def test_normal_collapse_on_diagonal(self):
        rng = np.random.default_rng(31)
        d = rng.normal(size=6) + 1j * rng.normal(size=6)
        model = DenseOperator(np.diag(d))
        for z in (0.1 + 2.2j, -1.5, 3.0 - 1.0j):
            want = 1.0 / min(abs(di - z) for di in d)
            for n in range(4):
                got = resolvent_power_norm(model, z, n).value
                assert got == pytest.approx(want, rel=1e-8)

    def test_power_values_nonincreasing_in_n(self):
        rng = np.random.default_rng(37)
        a = random_complex_matrix(rng, 5)
        model = DenseOperator(a)
        z = 1.1 + 0.4j
        values = [resolvent_power_norm(model, z, n).value for n in range(4)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi * (1.0 + 1e-10)

    def test_block_powers_match_dense_truncation(self):
        for z, n in ((0.7 + 0.2j, 1), (1.3 - 0.4j, 2), (0.5j, 1)):
            blockwise = resolvent_power_norm(TruncatedFamily(SHARG, 24), z, n)
            dense = resolvent_power_norm(assemble_truncation(SHARG, 24), z, n)
            assert blockwise.value == pytest.approx(dense.value, rel=1e-8)

    def test_four_by_four_blocks_match_dense_truncation(self):
        for z, n in ((0.3 + 0.4j, 0), (0.5 + 0.1j, 1)):
            blockwise = resolvent_power_norm(TruncatedFamily(REMARK, 12), z, n)
            dense = resolvent_power_norm(assemble_truncation(REMARK, 12), z, n)
            assert blockwise.value == pytest.approx(dense.value, rel=1e-8)

    def test_scaled_power_identity(self):
        got = resolvent_power_norm(scale_operator(SHARG, 2.0), 0.0, 1)
        inner = resolvent_power_norm(SHARG, 0.0, 1)
        assert got.value == pytest.approx(inner.value / 2.0, rel=1e-12)

    def test_inverse_family_powers(self):
        assert resolvent_power_norm(EMPTY, 0.0, 1).value == 1.0
        assert math.isinf(resolvent_power_norm(EMPTY, 0.5, 1).value)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            resolvent_power_norm(DIAG26, 3.0, -1)

    @pytest.mark.parametrize("model", [SHARG, REMARK, EMPTY, DIAG26, TruncatedFamily(SHARG, 8)])
    @pytest.mark.parametrize("n", [resolvent.POWER_INDEX_LIMIT + 1, 1100])
    def test_power_index_beyond_the_limit_rejected(self, model, n):
        # 2^1100 is no double: the index used to escape as an OverflowError
        with pytest.raises(DomainError, match="power index"):
            resolvent_power_norm(model, 0.3 + 0.2j, n)

    @pytest.mark.parametrize("n", [60, resolvent.POWER_INDEX_LIMIT])
    @pytest.mark.parametrize("z", [0.5, 0.3 + 0.2j])
    @pytest.mark.parametrize("model", [SHARG, NONCONST, DECAY], ids=["sharg", "noncon", "decay"])
    def test_high_powers_match_the_dense_truncation(self, model, z, n):
        # raising the eigen-branches w+- = (z +- sqrt(alpha f))/q to the power
        # 2^n reported shargorodsky as inf at 0.3 + 0.2i (n = 60) and 0.6667
        # at 0.5 (n = 64), both certified; the maximum sits in the first blocks
        got = resolvent_power_norm(model, z, n)
        dense = resolvent_power_norm(assemble_truncation(model, 50), z, n).value
        assert got.certified and math.isfinite(got.value)
        assert got.value == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize(
        "model",
        [SHARG, REMARK, EMPTY, DIAG26, DenseOperator([[1.0, 1.0], [0.0, 2.0]]),
         TruncatedFamily(SHARG, 8), scale_operator(REMARK, 2.0)],
        ids=["two", "four", "inverse", "diagonal", "dense", "truncated", "scaled"],
    )
    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)]
    )
    def test_non_finite_point_rejected(self, model, bad):
        with pytest.raises(DomainError, match="finite"):
            resolvent.resolvent_power_norms(model, [0.3, bad, 0.5j], 0)


def _clustered(rng, dims, delta):
    # Q diag(s) Q^H with the two smallest and the two largest of s at
    # relative distance delta
    s = np.linspace(1.0, 3.0, dims)
    s[1], s[-2] = 1.0 + delta, 3.0 - 3.0 * delta
    q = np.linalg.qr(random_complex_matrix(rng, dims))[0]
    return (q * s) @ q.conj().T


class TestDenseSigmaMax:
    """The one direct sigma_max behind every dense value, against LAPACK."""

    def test_clustered_top_values_are_certified(self):
        # Q diag(1, 1 + 1e-6, 1.5, 2, 2.5, 3) Q^H at z = 0: the top singular
        # values of A^-2^n differ by a few 1e-6, which stalled a power
        # iteration; a Rayleigh quotient from inside the cluster is up to
        # 1e-6 off
        d = np.array([1.0, 1.0 + 1e-6, 1.5, 2.0, 2.5, 3.0])
        for seed in range(40):
            rng = np.random.default_rng(seed)
            q = np.linalg.qr(random_complex_matrix(rng, 6))[0]
            a = DenseOperator((q * d) @ q.conj().T)
            for n in (0, 1, 2):
                want = resolvent_power_norm_oracle(a.matrix, 0.0, n)
                got = resolvent_power_norm(a, 0.0, n).value
                assert got == pytest.approx(want, rel=1e-10), (seed, n)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        structure=st.sampled_from(["random", "truncation", "clustered"]),
        dims=st.integers(1, 16),
        seed=st.integers(0, 2**16),
        re=st.floats(0.2, 2.0),
        im=st.floats(0.2, 2.0),
        quadrant=st.sampled_from([1, 1j, -1, -1j]),
        delta=st.sampled_from([0.0, 1e-12, 1e-9]),
    )
    @example("random", 1, 0, 0.5, 0.5, 1, 0.0)
    @example("truncation", 12, 0, 0.3, 0.4, 1, 0.0)  # remark_n1, 6 blocks
    @example("truncation", 11, 1, 0.7, 0.2, 1j, 0.0)  # shargorodsky, 5 blocks
    @example("clustered", 6, 2, 0.2, 0.2, 1, 0.0)  # exact double values
    @example("clustered", 16, 3, 0.2, 0.2, 1, 1e-9)
    def test_property_matches_lapack_oracles(
        self, structure, dims, seed, re, im, quadrant, delta
    ):
        rng = np.random.default_rng(seed)
        z = complex(re, im) * quadrant
        tol = 1e-10
        if structure == "random":
            a = random_complex_matrix(rng, dims)
        elif structure == "truncation":
            # block eigenvalues lie on the axes, 0.2 or more away from z
            family = REMARK if dims % 2 == 0 else SHARG
            a = assemble_truncation(family, max(1, dims // 2)).matrix
        else:
            # a normal matrix at z = 0: the clusters stay clusters
            a, z = _clustered(rng, max(dims, 4), delta), 0.0
            tol += delta
        assert largest_singular_value(a) == pytest.approx(
            spectral_norm_oracle(a), rel=tol
        )
        assert smallest_singular_value(a) == pytest.approx(
            smallest_sv_oracle(a), rel=tol
        )
        for n in range(3):
            got = resolvent_power_norm(DenseOperator(a), z, n).value
            assert got == pytest.approx(resolvent_power_norm_oracle(a, z, n), rel=tol)

    # below the diagonal a Gram column of norm about 1e-156 overflows the
    # Householder tau = 1 / (||x|| (||x|| + |x_0|)) unless it counts as reduced
    @pytest.mark.parametrize("a", [
        [[1.0, 1e-156, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3]],
        [[1.0, 1e-156, 1e-156], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
    ])
    def test_a_tiny_gram_column_gives_no_nan(self, a):
        assert largest_singular_value(a) == pytest.approx(spectral_norm_oracle(a), rel=1e-15)

    def test_a_tiny_entry_gives_a_resolvent_value(self):
        a = np.array([[0.0, 1e-156, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 3.0]])
        got = resolvent_power_norm(DenseOperator(a), 1.0, 0).value
        assert got == pytest.approx(resolvent_norm_oracle(a, 1.0), rel=1e-15)

    @pytest.mark.parametrize("dims, e", [(8, -509), (40, -507)])
    def test_a_tiny_gram_column_before_a_large_block(self, dims, e):
        # the Gram column x below (0, 0) has norm 2^(e - 1), and the trailing
        # Gram block lambda_max about (0.99 dims)^2: reflecting x would form
        # (tau / 2) v* (tau A v), about lambda_max / ||x||^2, past overflow
        a = np.zeros((dims + 1, dims + 1))
        a[0, 0], a[0, 1:], a[1:, 1:] = 0.5, 2.0**e / math.sqrt(dims), 0.99
        assert largest_singular_value(a) == pytest.approx(spectral_norm_oracle(a), rel=1e-14)


class TestBlockScanChunks:
    """Finite block ranges that cross the 16-, 80- and 336-block chunk ends."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["shargorodsky", "remark_n1"]),
        n_blocks=st.integers(1, 400),
        n=st.integers(0, 2),
        re=st.floats(0.2, 2.0),
        im=st.floats(0.2, 2.0),
        quadrant=st.sampled_from([1, 1j, -1, -1j]),
    )
    @example("remark_n1", 17, 0, 0.3, 0.4, 1)
    @example("remark_n1", 81, 0, 0.3, 0.4, 1)
    @example("remark_n1", 337, 0, 0.3, 0.4, 1)
    @example("remark_n1", 17, 1, 0.5, 0.2, -1)
    @example("remark_n1", 81, 1, 0.5, 0.2, -1)
    @example("remark_n1", 337, 1, 0.5, 0.2, -1)
    @example("shargorodsky", 17, 0, 0.7, 0.2, 1j)
    @example("shargorodsky", 81, 0, 0.7, 0.2, 1j)
    @example("shargorodsky", 337, 0, 0.7, 0.2, 1j)
    @example("remark_n1", 65, 0, 0.3, 0.4, 1)
    @example("remark_n1", 321, 0, 0.3, 0.4, 1)
    @example("remark_n1", 65, 1, 0.5, 0.2, -1)
    @example("remark_n1", 321, 1, 0.5, 0.2, -1)
    @example("shargorodsky", 65, 0, 0.7, 0.2, 1j)
    @example("shargorodsky", 321, 0, 0.7, 0.2, 1j)
    def test_truncation_matches_per_block_oracle(self, name, n_blocks, n, re, im, quadrant):
        # block eigenvalues lie on the axes, so z keeps 0.2 away from them
        family = build_named_example(name).model
        z = complex(re, im) * quadrant
        got = resolvent_power_norm(TruncatedFamily(family, n_blocks), z, n)
        want = block_family_power_norm_oracle(family, range(1, n_blocks + 1), z, n)
        assert got.k_cutoff == n_blocks
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_remark_defect_spans_two_chunks(self):
        # the scan starts past block 10; the 4x4 sign certificate closes it
        # after its first chunk (blocks 11-26) with no gap, so the defect
        # value + gap is the tail limit or a larger head block
        seq = TruncationSequence(REMARK, gnr_anchor=1j)
        head = block_family_power_norm_oracle(REMARK, range(11, 4097), 1j)
        want = max(head, (1.0 + math.sqrt(5.0)) / 2.0)  # the tail limit at i
        got = gnr_defect(seq, 10)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


# every symbol kind, and each alpha rule taken to weights of about 10^7
TWO_SYMBOLS = (
    SymbolSpec("one_plus_inv"),
    SymbolSpec("one_minus_inv_sqrt"),
    SymbolSpec("inverse"),
    SymbolSpec("power_beta", beta=0.5),
)
TWO_ALPHAS = (
    (AlphaRule("successor"), 10**7 - 1),
    (AlphaRule("log_grid"), 19_700),  # linear past k = 2048, weight 1.00001e7 here
)


class TestTwoByTwoValues:
    """n = 0 block values 1/sigma_min(B_k - z) = sigma_max / |det|, exact."""

    def test_large_weight_point_is_exact(self):
        # the maximum sits at k = 2284 (alpha = 2285), where sigma_max / sigma_min
        # is about 2300; the cancelling sqrt((F - root) / 2) form reported
        # 1.000030518975180 here, certified
        z = -2.8 - 2.6j
        got = resolvent_norm(SHARG, z)
        block = SHARG.block(2284) - z * np.eye(2)
        assert got.certified
        assert got.value == pytest.approx(
            1.0 / np.linalg.svd(block, compute_uv=False)[-1], rel=1e-13
        )
        assert got.value == pytest.approx(1.000017505919421, rel=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        symbol=st.sampled_from(TWO_SYMBOLS),
        alpha=st.sampled_from(TWO_ALPHAS),
        re=st.floats(-3.0, 3.0),
        im=st.floats(-3.0, 3.0),
    )
    # the log grid's B_1 - z = [[-z, 1], [1, -z]]: the clamped F^2 - 4D radicand gave
    # sigma_max 1.0000000074505806 at z = 1e-8 and exactly 1.0 at z = 1e-10
    @example(SymbolSpec("inverse"), TWO_ALPHAS[1], 1e-8, 0.0)
    @example(SymbolSpec("inverse"), TWO_ALPHAS[1], 1e-10, 0.0)
    def test_property_matches_numpy_svd(self, symbol, alpha, re, im):
        rule, k_max = alpha
        try:
            family = DiagBlockFamily(symbol=symbol, alpha=rule)
        except ConfigurationError:
            assume(False)
        z = complex(re, im)
        ks = np.unique(np.geomspace(1, k_max, 64).astype(np.int64))
        got = resolvent._two_block_values(family, ks, np.array([z]), 0)[0]
        eps = np.finfo(float).eps
        for k, value in zip(ks, got):
            block = family.block(int(k)) - z * np.eye(2)
            sv = np.linalg.svd(block, compute_uv=False)
            exact = abs(np.linalg.det(block)) / sv[0]
            assert 1.0 / value == pytest.approx(exact, rel=1e-13)
            # numpy's SVD is backward stable: sigma_min to within u sigma_max
            assert abs(1.0 / value - sv[1]) <= 8.0 * eps * sv[0]
            hi, lo = sv2x2_batch(block[0, 0], block[0, 1], block[1, 0], block[1, 1])
            assert hi == pytest.approx(sv[0], rel=1e-13)
            assert lo * hi == pytest.approx(abs(np.linalg.det(block)), rel=1e-13)


def _fifty_digit_block_value(family, k: int, z: complex, n: int):
    """||(B_k - z)^-2^n||^(1/2^n) to 50 digits, and the condition of P - z^d.

    B_k is built from the doubles alpha_k and f(alpha_k) the engine uses, and
    z is taken exactly.  kappa = (P + |z|^d) / |P - z^d|, P = (alpha f)^(d/2),
    bounds how much the rounding of z^d and P can move the value.
    """
    alpha = float(family.alpha.values(np.array([k]))[0])
    f = float(family.symbol.values(np.array([alpha]))[0])
    with mpmath.workdps(50):
        d = family.block_dim
        block = mpmath.matrix(family.block(k).real.tolist())
        zz = mpmath.mpc(z.real, z.imag)
        w = (block - zz * mpmath.eye(d)) ** -1
        for _ in range(n):
            w = w * w
        sigma = max(mpmath.svd_c(w, compute_uv=False))
        p = (mpmath.mpf(alpha) * f) ** (d // 2)
        kappa = (p + abs(zz) ** d) / abs(p - zz**d)
        return float(sigma ** (mpmath.mpf(1) / 2**n)), float(kappa)


class TestBlockPowerRule:
    """Every 2x2 and 4x4 block power comes from the coefficients of a polynomial in B."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from([SHARG, NONCONST, DECAY, REMARK]),
        n=st.integers(0, 4),
        k=st.integers(0, 50).map(lambda e: int(10 ** (e / 10))),
        centre=st.integers(-1, 3),
        log_r=st.floats(-12.0, 8.0),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    @example(SHARG, 1, 7, -1, math.log10(0.5), 0.0)
    @example(NONCONST, 2, 100000, 0, -6.0, 1.0)
    @example(DECAY, 4, 31622, 2, -9.0, 2.0)
    @example(REMARK, 3, 1995, 1, -4.0, 0.5)
    @example(REMARK, 0, 1, -1, 8.0, 1.3)
    def test_values_match_fifty_digits(self, family, n, k, centre, log_r, angle):
        # centre -1 puts z at 10^log_r e^(i angle), up to 1e8; centre j puts
        # it at relative distance 10^log_r from sqrt(alpha f) i^j, an
        # eigenvalue of B_k (for 2x2 blocks when j is even)
        alpha = family.alpha.value(k)
        offset = 10.0**log_r * complex(math.cos(angle), math.sin(angle))
        if centre < 0:
            z = offset
        else:
            z = complex(math.sqrt(alpha * family.symbol.value(alpha)) * 1j**centre * (1.0 + offset))
        got = resolvent._chunk_maxima(family, np.array([k]), np.array([z]), n, np.zeros(1))[0]
        want, kappa = _fifty_digit_block_value(family, k, z, n)
        eps = np.finfo(float).eps
        if math.isinf(got):
            # q = P - z^d rounded to 0: z is an eigenvalue up to rounding
            assert kappa * eps > 1e-3
        else:
            assert abs(got - want) <= 16.0 * eps * kappa * want


def _four_limit_oracle(z: complex, n: int) -> float:
    """||L^2^n||^(1/2^n) for L = lim_k (B_k - z)^-1 of the 4x4 family.

    Entrywise, (B^3 + z B^2 + z^2 B + z^3) / ((alpha f)^2 - z^4) tends to
    1 at (4,1) and (2,4) and to z at (2,1) (1-based); every other entry
    vanishes like 1/alpha.
    """
    lim = np.zeros((4, 4), dtype=complex)
    lim[3, 0] = lim[1, 3] = 1.0
    lim[1, 0] = z
    m = 1 << n
    return spectral_norm_oracle(np.linalg.matrix_power(lim, m)) ** (1.0 / m)


def _screen_counts(monkeypatch) -> dict:
    """Counts, while the test runs, of the 4x4 blocks formed for the screens
    and of the matrices that reach jacobi_singular_values."""
    counts = {"screened": 0, "evaluated": 0}
    stack, jacobi = resolvent._four_power_stack, resolvent.jacobi_singular_values

    def screened(family, ks, zs, n):
        counts["screened"] += len(ks) * len(zs)
        return stack(family, ks, zs, n)

    def evaluated(mats):
        counts["evaluated"] += len(mats)
        return jacobi(mats)

    monkeypatch.setattr(resolvent, "_four_power_stack", screened)
    monkeypatch.setattr(resolvent, "jacobi_singular_values", evaluated)
    return counts


class TestFourByFourHeads:
    """Exact 4x4 head values: a Frobenius pre-screen, then pooled Jacobi stacks."""

    def test_default_field_point_closes_most_of_the_gap(self):
        got = resolvent_power_norm(REMARK, 0.4, 0, max_blocks=4096)
        assert got.value == pytest.approx(1.219803902718557, rel=1e-15)
        assert got.tail_gap < 0.005

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 2),
        re=st.floats(-1.3, 1.3),
        im=st.floats(-1.3, 1.3),
        budget=st.sampled_from([64, 256]),
    )
    @example(0, 0.4, 0.0, 256)
    @example(1, 0.3, 0.2, 256)
    @example(2, -0.5, 1.1, 64)
    def test_value_is_head_maximum_or_tail_limit(self, n, re, im, budget):
        z = complex(re, im)
        assume(abs(z) > 1e-3)  # z = 0 has closed forms and scans no block
        got = resolvent_power_norm(REMARK, z, n, max_blocks=budget)
        head = block_family_power_norm_oracle(REMARK, range(1, got.k_cutoff + 1), z, n)
        assert got.value >= head * (1.0 - 1e-12)
        assert got.value <= max(head, _four_limit_oracle(z, n)) * (1.0 + 1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 4),
        first=st.sampled_from([1, 17, 81, 5000, 10**6]),
        count=st.sampled_from([16, 64, 300]),
        floor=st.sampled_from(["zero", "inf", "below", "at", "above"]),
        seed=st.integers(0, 2**16),
    )
    @example(2, 1, 16, "zero", 0)
    @example(0, 17, 64, "at", 1)
    @example(4, 81, 300, "below", 2)
    def test_chunk_maxima_equal_every_block_through_jacobi(
        self, n, first, count, floor, seed
    ):
        # points near the block eigenvalues, at 0 and far out; the screen
        # and the gathered stacks must not move a maximum by one bit
        rng = np.random.default_rng(seed)
        root = np.sqrt(REMARK.alpha.values(np.array([first, first + count // 2])) + 1.0)
        zs = np.concatenate([
            rng.uniform(-3.0, 3.0, 5) + 1j * rng.uniform(-3.0, 3.0, 5),
            [0.0, root[0], 1j * root[1] * (1.0 + 1e-9), 40.0 + 3.0j],
        ])
        ks = np.arange(first, first + count)
        mats, exps, q = _four_power_stack(REMARK, ks, zs, n)
        sigma = jacobi_singular_values(mats)[:, 0]
        with np.errstate(divide="ignore"):
            blocks = (numkernel.scaled_root(sigma, exps, 1 << n) / q).reshape(len(zs), count)
        top = blocks.max(axis=1)
        floors = {
            "zero": np.zeros(len(zs)), "inf": np.full(len(zs), math.inf),
            "below": 0.9 * top, "at": top, "above": 1.1 * top,
        }[floor]
        got = resolvent._chunk_maxima(REMARK, ks, zs, n, floors)
        assert got.tolist() == np.maximum(floors, top).tolist()

    @pytest.mark.parametrize("n", [15, 20])
    def test_high_powers_screen_quietly(self, n):
        # the screen compares values in logs, so at n = 15 and 20, where
        # 2^exps and the floor's m-th power overflow, nothing it forms does
        got = resolvent_power_norm(REMARK, 0.3 + 0.2j, n)
        dense = resolvent_power_norm(assemble_truncation(REMARK, 50), 0.3 + 0.2j, n).value
        assert got.certified
        assert got.value == pytest.approx(dense, rel=1e-13)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 4),
        first=st.sampled_from([1, 17, 81, 5000, 10**6]),
        count=st.sampled_from([16, 64, 300]),
        floor=st.sampled_from(["zero", "inf", "below", "at", "above"]),
        seed=st.integers(0, 2**16),
    )
    @example(0, 1, 16, "zero", 0)
    @example(1, 17, 64, "below", 1)
    @example(3, 81, 300, "at", 2)
    def test_frobenius_pre_screen_drops_only_blocks_below_the_maximum(
        self, n, first, count, floor, seed
    ):
        # points at random, at 0, on block eigenvalues and past |z|^2 = a + 1
        rng = np.random.default_rng(seed)
        weights = REMARK.alpha.values(np.array([first, first + count // 2]))
        root = np.sqrt(weights + 1.0)
        zs = np.concatenate([
            rng.uniform(-3.0, 3.0, 5) + 1j * rng.uniform(-3.0, 3.0, 5),
            [0.0, root[0], 1j * root[1], 40.0 + 3.0j, 1.5 * root[0] * np.exp(0.3j)],
        ])
        ks = np.arange(first, first + count)
        mats, exps, q = _four_power_stack(REMARK, ks, zs, n)
        sigma = jacobi_singular_values(mats)[:, 0]
        with np.errstate(divide="ignore"):
            blocks = (numkernel.scaled_root(sigma, exps, 1 << n) / q).reshape(len(zs), count)
        top = blocks.max(axis=1)
        floors = {
            "zero": np.zeros(len(zs)), "inf": np.full(len(zs), math.inf),
            "below": 0.9 * top, "at": top, "above": 1.1 * top,
        }[floor]
        _, keep = resolvent._four_survivors(REMARK, ks, zs, n, floors, slice(None))
        dropped = ~keep.reshape(blocks.shape)
        line = (1.0 - 0.99 * tails.FOUR_ROUNDING) * np.maximum(floors, top)
        assert np.all(blocks[dropped] < np.broadcast_to(line[:, None], blocks.shape)[dropped])
        if floor == "inf":
            assert keep.all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        first=st.sampled_from([1, 17, 81, 5000, 10**6]),
        count=st.sampled_from([16, 64, 300]),
        floor=st.sampled_from(["zero", "inf", "below", "at", "above"]),
        seed=st.integers(0, 2**16),
    )
    @example(1, 16, "zero", 0)
    @example(17, 64, "below", 1)
    @example(81, 300, "at", 2)
    def test_gram_screen_drops_only_blocks_below_the_maximum(self, first, count, floor, seed):
        # the Gram screen (taken at n = 0) on every block, not only the
        # Frobenius survivors, with the block index carried in the points
        # column
        n = 0
        rng = np.random.default_rng(seed)
        weights = REMARK.alpha.values(np.array([first, first + count // 2]))
        root = np.sqrt(weights + 1.0)
        zs = np.concatenate([
            rng.uniform(-3.0, 3.0, 5) + 1j * rng.uniform(-3.0, 3.0, 5),
            [0.0, root[0], 1j * root[1], 40.0 + 3.0j, 1.5 * root[0] * np.exp(0.3j)],
        ])
        ks = np.arange(first, first + count)
        mats, exps, q = _four_power_stack(REMARK, ks, zs, n)
        sigma = jacobi_singular_values(mats)[:, 0]
        with np.errstate(divide="ignore"):
            blocks = (numkernel.scaled_root(sigma, exps, 1 << n) / q).reshape(len(zs), count)
        top = blocks.max(axis=1)
        floors = {
            "zero": np.zeros(len(zs)), "inf": np.full(len(zs), math.inf),
            "below": 0.9 * top, "at": top, "above": 1.1 * top,
        }[floor]
        (mats, exps, q, _, line), _ = resolvent._four_survivors(
            REMARK, ks, zs, n, floors, slice(None))
        with np.errstate(divide="ignore", invalid="ignore"):
            kept = resolvent._gram_survivors([mats, exps, q, np.arange(len(mats)), line])
        dropped = np.ones(blocks.size, dtype=bool)
        dropped[kept[3]] = False
        dropped = dropped.reshape(blocks.shape)
        bound = (1.0 - 0.99 * tails.FOUR_ROUNDING) * np.maximum(floors, top)
        assert np.all(blocks[dropped] < np.broadcast_to(bound[:, None], blocks.shape)[dropped])
        if floor == "inf":
            assert not dropped.any()

    def test_gram_screen_leaves_jacobi_a_few_field_blocks(self, monkeypatch):
        # remark_n1 at n = 0 on [-0.9, 1.1]^2 at h = 0.4, a window with no two
        # points in one mirror class, so all 36 are scanned: the Frobenius
        # pre-screen alone passed 165 of the 576 blocks to Jacobi
        counts = _screen_counts(monkeypatch)
        field = compute_norm_field(REMARK, region_with_step(-0.9, 1.1, -0.9, 1.1, 0.4), 0)
        assert field.values.size == 36
        assert counts["screened"] == 576
        assert counts["evaluated"] <= 24

    def test_frobenius_pre_screen_clears_most_blocks(self, monkeypatch):
        # sigma_max <= ||M||_F: of the 2192 blocks this field screens, 82 reach
        # Jacobi; no two of its points share a mirror class
        counts = _screen_counts(monkeypatch)
        zs = GridRegion(-0.99, 1.01, -0.99, 1.01, 11, 11).lattice().ravel()
        resolvent.resolvent_power_norms(REMARK, zs, 1)
        assert 0 < counts["evaluated"] < 0.1 * counts["screened"]


class TestTailCertification:
    def test_uncertified_result_reports_gap(self):
        # at 2 + 2i the sign certificate does not hold at weight 130, so the
        # majorant leaves a gap
        got = resolvent_power_norm(REMARK, 2.0 + 2.0j, 1, max_blocks=128)
        assert not got.certified
        assert got.tail_gap > 0.0
        assert got.k_cutoff == 128
        assert got.value >= 1.0  # tail limit is exactly 1

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("z", [0.4, 0.3 + 0.2j, 1j])
    def test_remark_points_close_after_one_chunk(self, z, n):
        # the sign certificate holds at weight 18, past the first chunk
        got = resolvent_power_norm(REMARK, z, n)
        assert got.certified and got.tail_gap == 0.0
        assert got.k_cutoff == resolvent.HEAD_CHUNK

    def test_decay_family_certifies_exactly(self):
        got = resolvent_norm(DECAY, 1.0 + 0.5j)
        assert got.certified and got.tail_gap == 0.0

    def test_nonconstant_tail_holds_beyond_the_cutoff(self):
        for z in (0.3j, 0.2, 1.0 + 1.0j, -2.5 + 0.5j):
            got = resolvent_norm(NONCONST, z)
            assert got.certified and got.tail_gap == 0.0
            ks = _beyond(got.k_cutoff, 2 * 10**6, 2000)
            alphas = NONCONST.alpha.values(ks)
            blocks = np.zeros((len(ks), 2, 2), dtype=complex)
            blocks[:, 0, 1] = NONCONST.symbol.values(alphas)
            blocks[:, 1, 0] = alphas
            deep = two_block_power_norms_oracle(blocks, z, 0).max()
            assert deep <= got.value * (1.0 + SOUND_SLACK)

    def test_inverse_family_takes_its_closed_form(self):
        # ||(B_k - z)^-1|| >= alpha_k / |1 - z^2| is unbounded at every z; a
        # doubling walk once reported k_cutoff 33554432 at z = 1e6, beyond
        # the 10^6-block budget
        for z in (0.0, 0.5, 1.0, 2.0 + 1.0j, 1e-8, 1e6):
            got = resolvent_norm(EMPTY, z)
            assert got == ResolventValue(math.inf, 0.0, True, 0)


def _chunk_end(k: int) -> int:
    """The last block of the block_chunks chunk that holds block k."""
    ends = (int(ks[-1]) for ks in resolvent.block_chunks(0, resolvent.MAX_BLOCKS_DEFAULT))
    return next(end for end in ends if end >= k)


def _disc_points(radius: float, count: int, seed: int) -> np.ndarray:
    """count points spread uniformly over the disc |z| <= radius."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _terms(zs: np.ndarray, n: int):
    """remark_n1's once-per-call 4x4 expansion terms at zs."""
    return tails._four_terms(REMARK, zs, n)


def _four_below(a: float, zs: np.ndarray, n: int) -> np.ndarray:
    """The 4x4 sign certificate on its own expansion."""
    terms = _terms(zs, n)
    expansion = tails._four_expansion(terms, a, n)
    return tails._four_stays_below_limit(terms, a, n, expansion)


def _four_tail_weights(a: float) -> np.ndarray:
    """Consecutive weights from a on, then log-spaced ones out to 10^7."""
    return np.concatenate([a + np.arange(256.0), np.geomspace(a + 256.0, 1e7, 64)])


class TestFourSignCertificate:
    """_four_stays_below_limit proves that every block past weight a stays
    strictly below the tail limit; each claim is checked on numpy blocks."""

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("a", [17.0, 66.0, 258.0, 1026.0])
    def test_certified_points_stay_below_the_limit(self, a, n):
        zs = _disc_points(4.0, 120, seed=int(a) + n)
        below = _four_below(a, zs, n)
        assert below.any()
        alphas = _four_tail_weights(a)
        for z in zs[below]:
            top = four_block_power_norms_oracle(alphas, z, n).max()
            assert top < _four_limit_oracle(z, n)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("z, a", [(3.0, 10.0), (5j, 100.0)])
    def test_late_crossovers_are_rejected(self, z, a, n):
        # a block with weight past a lies above the limit
        alphas = a + np.arange(4000.0)
        assert four_block_power_norms_oracle(alphas, z, n).max() > _four_limit_oracle(z, n)
        assert not _four_below(a, np.array([z], complex), n)[0]

    def test_criterion_rejects_a_crossover_inside_its_range(self):
        # |z|^4 = 16 < 17, so only the criterion itself can refuse z = 2,
        # where blocks with weights up to 46 lie above the n = 1 limit
        alphas = 17.0 + np.arange(64.0)
        assert four_block_power_norms_oracle(alphas, 2.0, 1).max() > 1.0
        assert not _four_below(17.0, np.array([2.0 + 0j]), 1)[0]

    @pytest.mark.parametrize("n", [0, 1])
    def test_points_near_the_block_range_are_refused_quietly(self, n):
        limit = resolvent.BLOCK_Z_LIMIT
        zs = limit * np.array([1.0, -1j, (1.0 + 1.0j) / math.sqrt(2.0), 0.999 - 0.01j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (66.0, 1e6):
                assert not _four_below(a, zs, n).any()


class TestFourMajorant:
    """The 4x4 tail bound, the sign certificate's limit or the majorant of
    the expansion, holds over every block past weight a wherever
    |z|^2 < a + 1, at every n; each bound is checked on numpy blocks."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("a", [17.0, 66.0, 322.0, 1346.0])
    def test_bound_holds_over_the_tail(self, a, n):
        zs = _disc_points(math.sqrt(a), 60, seed=int(a) + n)
        bound = tails._tail_bound(REMARK, a, zs, n, np.zeros(len(zs)), _terms(zs, n))
        assert np.isfinite(bound).all()
        # the majorant, not only the limit, carries points with |z|^4 >= a
        assert (np.abs(zs) ** 4 >= a).sum() > 40
        alphas = _four_tail_weights(a)
        for z, ub in zip(zs, bound):
            assert four_block_power_norms_oracle(alphas, z, n).max() <= ub

    @pytest.mark.parametrize("n", [10, 12])
    def test_high_power_bound_holds_over_a_long_head(self, n):
        # the expansion formed at n itself underflowed and gave exactly 0
        # here; the n' = 3 bound covers every n >= 3
        zs = np.array([0.3 + 0.2j, 3.0 + 0.05j])
        bound = tails._tail_bound(REMARK, 65.0, zs, n, np.zeros(2), _terms(zs, n))
        # weight 65 is block 64
        ks = np.concatenate([np.arange(64, 20064), np.geomspace(20064, 1e7, 64).astype(np.int64)])
        head = resolvent._chunk_maxima(REMARK, ks, zs, n, np.zeros(2))
        assert (head > 0.1).all()
        assert (head <= bound).all()

    def test_high_power_point_certifies(self):
        # at n = 30 the expansion at n gave no bound, and the point scanned
        # the whole budget and ended uncertified with gap inf
        got = resolvent_power_norm(REMARK, 0.3 + 0.2j, 30)
        dense = resolvent_power_norm(assemble_truncation(REMARK, 50), 0.3 + 0.2j, 30).value
        assert got.certified and got.tail_gap == 0.0
        assert got.value == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 2])
    def test_points_past_its_range_have_no_bound(self, n):
        # |z|^2 >= a + 1 leaves no lower bound on |Q| over the tail
        zs = np.array([8.2, 9.0j, 1e75])
        bound = tails._tail_bound(REMARK, 66.0, zs, n, np.ones(3), _terms(zs, n))
        assert np.isnan(bound).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_window_certifies_by_the_chunk_of_block_64(self, n):
        # every cell's block maximum lies in the first 64 blocks, and the
        # power norms decay like 1/alpha^(1/2) or faster, so the majorant
        # closes each cell by the end of the chunk that holds block 64
        zs = GridRegion(-2.0, 2.0, -2.0, 2.0, 41, 41).lattice().ravel()
        batch = resolvent.resolvent_power_norms(REMARK, zs, n)
        assert batch.certified.all()
        assert (batch.k_cutoff <= _chunk_end(64)).all()


class TestFourTermsOncePerCall:
    """The 4x4 certificates read z-only terms that a scan forms once per
    call and indexes by its open points; at every weight they give what an
    expansion formed afresh at that weight gives, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("end", [16, 80, 336, 1360, 5456])
    def test_terms_match_a_per_weight_expansion(self, end, n):
        # the weight after a chunk end; points inside the sign certificate's
        # range |z|^4 < a, out to |z|^2 = 4a, on |z|^2 = a + 1, and far out
        a = float(REMARK.alpha.values(np.array([end + 1]))[0])
        far = np.array([math.sqrt(a + 1.0), 1e3 + 1e3j, -1e10j,
                        resolvent.BLOCK_Z_LIMIT * (0.6 + 0.8j)])
        zs = np.concatenate([_disc_points(a**0.25, 30, seed=end + n),
                             _disc_points(2.0 * math.sqrt(a), 30, seed=end - n), far])
        # the terms of a larger call, narrowed to these points as a scan
        # narrows them to its open points
        others = _disc_points(3.0, 20, seed=n)
        terms = _terms(np.concatenate([others, zs]), n)
        still = np.arange(len(others) + len(zs)) >= len(others)
        terms = terms._make(a[..., still] for a in terms)
        (ok, s, t), below, bound = per_weight_four_tail(REMARK, a, zs, n)
        assert ok.any() and not ok.all()
        expansion = tails._four_expansion(terms, a, min(n, 3))
        s_norms = np.stack([np.sqrt((x.real**2 + x.imag**2).sum(axis=(1, 2))) for x in s])
        assert expansion[0].tolist() == ok.tolist()
        assert expansion[1].tobytes() == s_norms.tobytes()
        assert expansion[2].tobytes() == t.tobytes()
        got = tails._tail_bound(REMARK, a, zs, n, np.zeros(len(zs)), terms)
        assert got.tobytes() == bound.tobytes()
        if n < 2:
            assert below.any()
            got = tails._four_stays_below_limit(terms, a, n, expansion)
            assert got.tolist() == below.tolist()

    @pytest.mark.parametrize("n", [0, 2])
    def test_points_open_past_the_first_chunk_match_their_own_scan(self, n):
        # the terms narrowed to the points still open belong to those points;
        # on this window, with no symmetry between its points, some stay open
        # for two to four chunks
        zs = GridRegion(-3.7, 4.1, -3.9, 3.3, 9, 9).lattice().ravel()
        batch = resolvent.resolvent_power_norms(REMARK, zs, n)
        late = np.flatnonzero(batch.k_cutoff > resolvent.HEAD_CHUNK)
        assert len(late) >= 2
        for i in late:
            assert batch[i] == resolvent_power_norm(REMARK, zs[i], n)

    def test_terms_only_at_the_points_a_chunk_scans(self, monkeypatch):
        # z = 0 closes by its closed form at n = 0 and 1 before any chunk, and
        # a zero block budget scans no chunk: neither forms terms there
        seen = []
        form = tails._four_terms

        def counted(family, zs, n):
            seen.append(zs.tolist())
            return form(family, zs, n)

        monkeypatch.setattr(tails, "_four_terms", counted)
        resolvent.resolvent_power_norms(REMARK, [0.0, 0.3 + 0.2j, 0.0, 1.5j], 1)
        assert seen == [[0.3 + 0.2j, 1.5j]]
        seen.clear()
        resolvent.resolvent_power_norms(REMARK, [0.0, 0.0], 0)
        resolvent.resolvent_power_norms(REMARK, [0.3 + 0.2j], 0, max_blocks=0)
        assert seen == []


class TestTailsModule:
    """The tail certificates live in tails; the scan asks it for the seed,
    the closed forms and the bound after each chunk, and nothing else."""

    def test_tails_imports_nothing_from_resolvent(self):
        tree = ast.parse(inspect.getsource(tails))
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        assert modules == {"__future__", "math", "collections", "numpy", "numkernel"}

    def test_the_scan_does_not_branch_on_the_block_shape(self):
        # nor on the symbol or on a truncation: every block model takes the
        # same loop, and tails alone seeds, settles and bounds its points
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(inspect.getsource(resolvent._family_values)))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert not names & {"block_dim", "_four_terms", "terms", "kind", "symbol",
                            "TruncatedFamily"}
        called = {name for name in names if callable(getattr(tails, name, None))}
        assert called == {"tail_limit", "closed_form_points", "tail_bounds"}


# the 2x2 families with a sign certificate: both symbols, both weight rules
# (1 - 1/sqrt(x) vanishes at the log grid's first weight, so it takes the
# successor rule only)
TWO_SIGN_FAMILIES = (
    SHARG,
    DiagBlockFamily(SymbolSpec("one_plus_inv"), AlphaRule("log_grid")),
    NONCONST,
)
# Re z^2 = 1.04 (blocks rise above the limit to a maximum near weight 3880)
# and Re z^2 = 1 + 8.9e-16; 2.125 + 1.875i lies on Re z^2 = 1 exactly
NEAR_HYPERBOLA = np.array(
    [2.7 + 2.5j, 2.7 - 2.5j, -2.7 + 2.5j, -2.7 - 2.5j,
     2.6 + 2.4j, 2.6 - 2.4j, -2.6 + 2.4j, -2.6 - 2.4j, 2.125 + 1.875j]
)


def _two_tail_blocks(family, a: float) -> np.ndarray:
    """2x2 blocks of family's symbol at weights from a: 256 consecutive, then out to 1e7."""
    alphas = np.concatenate([a + np.arange(256.0), np.geomspace(a + 256.0, 1e7, 64)])
    blocks = np.zeros((len(alphas), 2, 2), dtype=complex)
    blocks[:, 0, 1] = family.symbol.values(alphas)
    blocks[:, 1, 0] = alphas
    return blocks


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_add(*ps: list) -> list:
    out = [Fraction(0)] * max(map(len, ps))
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return out


def _exact_shifted_coefficients(kind: str, z: complex, x0: float, t: float) -> list:
    """Taylor coefficients at x0 of w^2 (D T^2 - F T + 1), T = fl(t^2), in exact arithmetic.

    w is the weight x for 1 + 1/x and y = sqrt(x) for 1 - 1/sqrt(x); D and F
    are |det|^2 and the squared Frobenius norm of B - z, built from x f(x)
    and f(x) as polynomials in w.
    """
    re, im = Fraction(z.real), Fraction(z.imag)
    big_t = Fraction(t * t)
    if kind == "one_plus_inv":
        xf, x, wf = [Fraction(1), Fraction(1)], [0, Fraction(1)], [Fraction(1), Fraction(1)]
    else:
        xf, x, wf = [0, Fraction(-1), Fraction(1)], [0, 0, Fraction(1)], [Fraction(-1), Fraction(1)]
    det = _poly_add([re * re - im * im], [-c for c in xf])
    d = _poly_add(_poly_mul(det, det), [(2 * re * im) ** 2])
    w2 = [0, 0, Fraction(1)]
    # w^2 F = 2 |z|^2 w^2 + w^2 x^2 + (w f)^2
    w2f = _poly_add([c * 2 * (re * re + im * im) for c in w2],
                    _poly_mul(w2, _poly_mul(x, x)), _poly_mul(wf, wf))
    p = _poly_add(_poly_mul(w2, [c * big_t * big_t for c in d]), w2,
                  [-c * big_t for c in w2f])
    shift = Fraction(x0)
    return [sum(math.comb(k, j) * p[k] * shift ** (k - j) for k in range(j, len(p)))
            for j in range(len(p))]


class TestTwoSignCertificate:
    """_two_stays_below proves that every 2x2 block past weight a has n = 0
    value at most t; each claim is checked on numpy blocks out to weight 1e7."""

    @pytest.mark.parametrize(
        "family", TWO_SIGN_FAMILIES, ids=["shargorodsky", "log_grid", "nonconstant"]
    )
    @pytest.mark.parametrize("k_done", [64, 320, 1344, 5440])
    def test_certified_points_stay_below(self, family, k_done):
        # a = 66, 322, 1346, 5442 on the successor rule; t is the value the
        # scan holds after block k_done, and that value + TAIL_TOL
        a = family.alpha.value(k_done + 1)
        zs = np.concatenate([_disc_points(4.0, 80, seed=k_done), NEAR_HYPERBOLA])
        head = resolvent.resolvent_power_norms(TruncatedFamily(family, k_done), zs, 0).value
        value = np.maximum(head, 1.0)
        blocks = _two_tail_blocks(family, a)
        claimed = 0
        for t in (value, value + tails.TAIL_TOL):
            below = tails._two_stays_below(family, a, zs, t)
            claimed += below.sum()
            for z, bound in zip(zs[below], t[below]):
                top = two_block_power_norms_oracle(blocks, z, 0).max()
                assert top <= bound * (1.0 + SOUND_SLACK)
        assert claimed > 0

    @pytest.mark.parametrize("a", [66.0, 322.0, 1346.0])
    def test_late_maxima_are_refused(self, a):
        # at +-2.7 +- 2.5i the blocks peak near weight 3880, past a
        zs = NEAR_HYPERBOLA[:4]
        head = resolvent.resolvent_power_norms(TruncatedFamily(SHARG, int(a) - 2), zs, 0).value
        assert not tails._two_stays_below(SHARG, a, zs, head).any()
        for z, t in zip(zs, head):
            assert two_block_power_norms_oracle(_two_tail_blocks(SHARG, a), z, 0).max() > t

    def test_hyperbola_points_close_at_their_own_value(self):
        # the maximum 1.0000051556306346 is in the head by block 5440; Re z^2
        # = 1 exactly keeps every block below 1, and Re z^2 = 1 + 8.9e-16
        # needs the limit + TAIL_TOL
        peak = np.full(4, 1.0000051556306346)
        assert tails._two_stays_below(SHARG, 5442.0, NEAR_HYPERBOLA[:4], peak).all()
        ones = np.ones(5)
        assert list(tails._two_stays_below(SHARG, 66.0, NEAR_HYPERBOLA[4:], ones)) == [
            False, False, False, False, True
        ]
        slack = ones + tails.TAIL_TOL
        assert tails._two_stays_below(SHARG, 66.0, NEAR_HYPERBOLA[4:], slack).all()

    def test_tail_bound_takes_both_thresholds_in_one_call(self, monkeypatch):
        # the value and value + TAIL_TOL rounded toward it share one call, and
        # the bound is the one-call-per-threshold rule's bit for bit: the
        # hyperbola points close at 1 + TAIL_TOL or at 1, some disc points at
        # neither
        zs = np.concatenate([_disc_points(4.0, 40, seed=3), NEAR_HYPERBOLA[4:]])
        values = np.maximum(
            resolvent.resolvent_power_norms(TruncatedFamily(SHARG, 64), zs, 0).value, 1.0)
        below = tails._two_stays_below
        slack = np.nextafter(values + tails.TAIL_TOL, values)
        exact, loose = below(SHARG, 66.0, zs, values), below(SHARG, 66.0, zs, slack)
        assert exact.any() and (loose & ~exact).any() and (~loose).any()
        want = np.where(exact, values, np.where(loose, slack, math.nan))
        want = np.fmin(want, tails._envelope_sup(SHARG, 66.0, zs))
        calls = []

        def counted(*args):
            calls.append(1)
            return below(*args)

        monkeypatch.setattr(tails, "_two_stays_below", counted)
        got = tails._tail_bound(SHARG, 66.0, zs, 0, values, None)
        assert len(calls) == 1
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("family", [SHARG, NONCONST], ids=["shargorodsky", "nonconstant"])
    def test_accepted_shifts_are_nonnegative_exactly(self, family):
        # the claim rests on every Taylor coefficient at x0 being nonnegative
        # in exact arithmetic.  At the polynomial's largest root the constant
        # one is zero to rounding, and a relative 1e-11 past it, small
        kind = family.symbol.kind
        zs = _disc_points(4.0, 150, seed=5)
        ts = 1.0 + np.random.default_rng(5).uniform(1e-6, 0.05, len(zs))
        if kind == "one_plus_inv":
            ts[::3] = 1.0  # the limit itself
        accepted = 0
        for z, t in zip(zs, ts):
            plain = [float(c) for c in _exact_shifted_coefficients(kind, complex(z), 0.0, t)]
            roots = np.roots(plain[::-1])
            top = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real.max(initial=0.0)
            for rel in (0.0, 1e-15, 1e-13, 1e-11):
                x0 = top * (1.0 + rel)
                a = x0 if kind == "one_plus_inv" else x0 * x0
                if not (a > 2.0 and tails._two_stays_below(
                        family, a, np.array([z]), np.array([t]))[0]):
                    continue
                accepted += 1
                x0 = a if kind == "one_plus_inv" else np.nextafter(math.sqrt(a), 0.0)
                assert min(_exact_shifted_coefficients(kind, complex(z), x0, t)) >= 0
        assert accepted > 0

    @pytest.mark.filterwarnings("error")
    def test_points_on_the_spectrum_stay_out_of_the_algebra(self):
        # z = 2 is the eigenvalue of block 2; it shares its chunks with finite points
        zs = np.array([2.0, 0.5, 2.7 + 2.5j, 1j, 2.6 - 2.4j])
        batch = resolvent.resolvent_power_norms(SHARG, zs, 0)
        assert math.isinf(batch.value[0]) and batch.certified.all()
        for z, rv in zip(zs, batch):
            assert rv == resolvent_norm(SHARG, z)
        t = np.array([math.inf, 1.0, 1.0, 1.0, 1.0])
        assert not tails._two_stays_below(SHARG, 66.0, zs, t)[0]

    def test_shargorodsky_window_certifies_every_cell(self):
        # at a 20000-block budget 110 of these 6561 cells stayed open with
        # the envelope alone
        zs = GridRegion(-4.0, 4.0, -4.0, 4.0, 81, 81).lattice().ravel()
        batch = resolvent.resolvent_power_norms(SHARG, zs, 0)
        assert batch.certified.all()

    @pytest.mark.parametrize(
        "model, z, value, closing",
        [(NONCONST, 50 + 50j, 1.0020386189953652, 135929),
         (SHARG, 2.7 + 2.5j, 1.0000051556306346, 3876)],
    )
    def test_slow_points_close(self, model, z, value, closing):
        # both scanned all 10^6 blocks and ended uncertified with the
        # envelope; the sign certificate holds once the scan has passed
        # block `closing`, so the point closes at the end of that chunk
        got = resolvent_norm(model, z)
        assert got == ResolventValue(value, 0.0, True, _chunk_end(closing))


DENSE_12 = DenseOperator(random_complex_matrix(np.random.default_rng(61), 12))


class TestValuesNonincreasingInN:
    """||R^2m||^(1/2m) <= ||R^m||^(1/m) for every resolvent R, so no value
    rises with n past the upper bound value + tail_gap at the n before."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from([SHARG, REMARK, NONCONST, DENSE_12]),
        re=st.floats(-2.5, 2.5),
        im=st.floats(-2.5, 2.5),
    )
    @example(REMARK, 0.3, 0.2)
    @example(REMARK, 3.0, 0.05)
    def test_values_do_not_rise_with_n(self, model, re, im):
        rvs = [resolvent_power_norm(model, complex(re, im), n) for n in range(7)]
        for lo, hi in zip(rvs, rvs[1:]):
            assert hi.value <= (lo.value + lo.tail_gap) * (1.0 + 1e-12)


def _four_limit_digits(r: float) -> decimal.Decimal:
    """The 4x4 n = 0 tail limit c at |z| = r to 50 digits.

    c^2 = (t + sqrt(t^2 - 4)) / 2 with t = 2 + r^2, the form that cancels in
    double precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t = 2 + decimal.Decimal(r) ** 2
        return ((t + (t * t - 4).sqrt()) / 2).sqrt()


class TestFourTailLimitNearZero:
    """The n = 0 tail limit of the 4x4 family is exact to rounding as z -> 0,
    where t^2 - 4 cancels, and the sign certificate covers those points."""

    @pytest.mark.parametrize("r", [1e-8, 1e-7, 1e-5, 1e-3, 0.5, 1.0, 10.0])
    def test_limit_matches_fifty_digits(self, r):
        got = tails.tail_limit(REMARK, np.array([complex(r)]), 0)[0]
        want = float(_four_limit_digits(r))
        assert abs(got - want) <= np.spacing(want)

    @pytest.mark.parametrize("z", [1e-8, 1e-7, 1e-3j])
    def test_value_is_not_above_the_limit(self, z):
        # the head blocks stay below the limit, so the value is the limit
        got = resolvent_power_norm(REMARK, z, 0, max_blocks=resolvent.HEAD_CHUNK)
        assert got.value <= float(_four_limit_digits(abs(z)))

    def test_tiny_point_is_certified(self):
        got = resolvent_power_norm(REMARK, 1e-5, 0)
        assert got.certified and got.tail_gap == 0.0
        assert got.k_cutoff < resolvent.MAX_BLOCKS_DEFAULT

    @pytest.mark.parametrize("a", [3e4, 3e5, 3e6])
    def test_certified_tiny_points_stay_below_the_limit(self, a):
        rng = np.random.default_rng(int(math.log10(a)))
        radii = np.geomspace(1e-7, 9.9e-5, 24)
        zs = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, len(radii)))
        below = _four_below(a, zs, 0)
        assert below.any()
        alphas = _four_tail_weights(a)
        for z in zs[below]:
            top = four_block_power_norms_oracle(alphas, z, 0).max()
            assert top < float(_four_limit_digits(abs(z)))


class TestInverseSymbolPowers:
    """B^2 = I, so (B - z)^-m is bounded over the blocks only where
    ((z - 1)/(z + 1))^m = 1; for m = 2^n that is z = 0 (n >= 1) and z = +-i
    (n >= 2), and the value there is 1/|1 - z|."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "z",
        [1e16, 1e17, -1e17, 1e17 * (1 + 1j), 1e40, 1e74, 1e-17, 1e-30j, 5e-324,
         0.5j, 2j, 1 + 1j, 1e17j, 1.0, -1.0],
    )
    def test_points_off_the_rule_are_infinite(self, z, n):
        # far out and close to 0, w+- = 1/(1 - z), -1/(1 + z) agree in
        # magnitude to the last ulp, so rounded powers of them look equal
        # while D' != 0
        got = resolvent_power_norm(EMPTY, z, n)
        assert got == ResolventValue(math.inf, 0.0, True, 0)

    @pytest.mark.parametrize(
        "z, n, want",
        [(0, 0, math.inf), (0, 1, 1.0), (0, 3, 1.0), (0, 6, 1.0),
         (1j, 0, math.inf), (1j, 1, math.inf), (-1j, 1, math.inf),
         (1j, 2, 0.7071067811865475), (-1j, 2, 0.7071067811865475),
         (1j, 3, 0.7071067811865475), (-1j, 6, 0.7071067811865475)],
    )
    def test_exceptional_points(self, z, n, want):
        got = resolvent_power_norm(EMPTY, z, n)
        assert got == ResolventValue(want, 0.0, True, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_field_through_the_exceptional_points(self, n):
        region = GridRegion(-1.0, 1.0, -1.0, 1.0, nx=3, ny=3)
        field = compute_norm_field(EMPTY, region, n)
        for i in range(3):
            for j in range(3):
                z = region.point(i, j)
                assert field.values[i, j] == resolvent_power_norm(EMPTY, z, n).value
        assert np.isfinite(field.values).sum() == (1 if n == 1 else 3)


class TestCertificatesAreArrayFunctions:
    """A tail certificate runs once per chunk, whatever the number of points."""

    @pytest.mark.parametrize(
        "model, n, certificate",
        [
            (REMARK, 0, "_four_expansion"),
            (REMARK, 2, "_four_expansion"),
            (REMARK, 0, "_four_stays_below_limit"),
            (REMARK, 1, "_four_stays_below_limit"),
            (REMARK, 0, "tail_limit"),
            (SHARG, 0, "tail_limit"),
            (SHARG, 0, "_two_stays_below"),
            (NONCONST, 0, "_two_stays_below"),
            (SHARG, 1, "_power_tail_bound"),
        ],
    )
    def test_call_count_does_not_grow_with_the_points(self, monkeypatch, model, n, certificate):
        calls = []
        kernel = getattr(tails, certificate)

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        # the engine's own binding too: it seeds each scan with tail_limit
        for module in (tails, resolvent):
            if hasattr(module, certificate):
                monkeypatch.setattr(module, certificate, counted)
        zs = GridRegion(0.1, 0.9, 0.1, 0.9, 9, 9).lattice().ravel()
        counts = []
        for points in (zs[:1], zs):
            calls.clear()
            batch = resolvent.resolvent_power_norms(model, points, n, max_blocks=1024)
            # every point stays open to the same chunk, so both walk one schedule
            assert len(set(batch.k_cutoff.tolist())) == 1
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1


def _checked_cells(model, z: complex, step: float, n: int, budget: int):
    """ResolventValues of the 2x2 lattice cornered at z, one point at a time,
    after checking that one engine call over the lattice reports each bit for
    bit."""
    zs = GridRegion(z.real, z.real + step, z.imag, z.imag + step, 2, 2).lattice().ravel()
    batch = resolvent.resolvent_power_norms(model, zs, n, max_blocks=budget)
    cells = []
    for zc, cell in zip(zs, batch):
        rv = resolvent_power_norm(model, zc, n, max_blocks=budget)
        assert cell == rv
        cells.append((complex(zc), rv))
    return cells


def _beyond(k_cutoff: int, k_max: int, count: int) -> np.ndarray:
    """Block indices in (k_cutoff, k_max]: the next count, then a geometric sample."""
    near = np.arange(k_cutoff + 1, min(k_cutoff + count, k_max) + 1)
    far = np.geomspace(k_cutoff + 1, k_max, max(count // 4, 2)).astype(np.int64)
    return np.unique(np.concatenate([near, far]))


# the oracles agree with the block values to about 2.4e-13 at weights of 10^7
SOUND_SLACK = 1e-11


class TestCertifiedValuesAreSound:
    """A certified value leaves no block beyond k_cutoff above value + tail_gap."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        symbol=st.sampled_from(TWO_SYMBOLS),
        alpha=st.sampled_from(TWO_ALPHAS),
        n=st.integers(0, 2),
        re=st.floats(-3.0, 3.0),
        im=st.floats(-3.0, 3.0),
        budget=st.sampled_from([64, 320, 3000]),
    )
    def test_two_by_two(self, symbol, alpha, n, re, im, budget):
        rule, k_max = alpha
        try:
            family = DiagBlockFamily(symbol=symbol, alpha=rule)
        except ConfigurationError:
            assume(False)
        for z, rv in _checked_cells(family, complex(re, im), 0.3, n, budget):
            if not (rv.certified and math.isfinite(rv.value)):
                continue
            ks = _beyond(rv.k_cutoff, k_max, 2000)
            alphas = family.alpha.values(ks)
            blocks = np.zeros((len(ks), 2, 2), dtype=complex)
            blocks[:, 0, 1] = family.symbol.values(alphas)
            blocks[:, 1, 0] = alphas
            deep = two_block_power_norms_oracle(blocks, z, n).max()
            assert deep <= (rv.value + rv.tail_gap) * (1.0 + SOUND_SLACK)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        alpha=st.sampled_from(TWO_ALPHAS),
        n=st.integers(0, 2),
        re=st.floats(-2.85, 2.85),
        im=st.floats(-2.85, 2.85),
        budget=st.sampled_from([64, 256, 1024]),
    )
    @example(TWO_ALPHAS[0], 0, -0.15, -0.15, 256)  # z = 0 takes the closed forms
    @example(TWO_ALPHAS[0], 1, 1.35, 1.35, 64)  # |z| up to 2.12 at weight 66
    @example(TWO_ALPHAS[1], 0, 1.9, -1.9, 256)
    def test_four_by_four(self, alpha, n, re, im, budget):
        # the lattice cells reach |z| = 3
        assume(abs(complex(re, im)) + 0.15 * math.sqrt(2.0) <= 3.0)
        rule, k_max = alpha
        family = DiagBlockFamily(SymbolSpec("one_plus_inv"), rule, "four_by_four")
        for z, rv in _checked_cells(family, complex(re, im), 0.15, n, budget):
            if not (rv.certified and math.isfinite(rv.value)):
                continue
            ks = _beyond(rv.k_cutoff, k_max, 48)
            deep = block_family_power_norm_oracle(family, ks, z, n)
            assert deep <= (rv.value + rv.tail_gap) * (1.0 + SOUND_SLACK)


# shargorodsky and remark_n1 have a block eigenvalue at z = 2 (block k = 2);
# the diagonal has eigenvalues at z = 0 and z = 2, and its scaled copy at 0
DIAGONAL = DenseOperator(np.diag([0.0, 2.0, 1.0 + 1.0j, -0.5 + 0.25j, 0.3 - 1.7j]))
ENGINE_MODELS = {
    "shargorodsky": SHARG,
    "empty_resolvent": EMPTY,
    "nonconstant": NONCONST,
    "decay": DECAY,
    "remark_n1": REMARK,
    "truncated": TruncatedFamily(SHARG, 700),
    "scaled": scale_operator(REMARK, 1.0 - 0.5j),
    "diagonal": DIAGONAL,
    "scaled_diagonal": scale_operator(DIAGONAL, 1.0 - 0.5j),
}


class TestFieldEngine:
    """One engine call over a lattice is the per-point route, bit for bit, in
    shared stacks, and compute_norm_field is that call at the field budget."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(ENGINE_MODELS)),
        n=st.integers(0, 2),
        corner=st.tuples(st.integers(-4, 0), st.integers(-4, 0)),
        step=st.sampled_from([0.25, 0.5, 1.0]),
        budget=st.sampled_from([64, 400, 3000]),
    )
    @example("shargorodsky", 0, (-2, -2), 1.0, 3000)
    @example("remark_n1", 1, (-2, -2), 1.0, 400)
    @example("shargorodsky", 1, (-4, -4), 1.0, 3000)
    @example("remark_n1", 0, (-2, -2), 0.25, 3000)
    @example("diagonal", 0, (-2, -2), 0.5, 64)
    @example("diagonal", 2, (-2, -2), 1.0, 64)
    @example("scaled_diagonal", 0, (-4, -4), 0.25, 64)
    @example("scaled_diagonal", 2, (-2, -2), 1.0, 64)
    @example("shargorodsky", 2, (-2, -2), 1.0, 400)
    @example("nonconstant", 3, (-4, -4), 0.5, 64)
    @example("decay", 3, (-2, -2), 0.25, 400)
    def test_field_cells_equal_point_values(self, name, n, corner, step, budget):
        # every window holds z = 0; step 1 with corner >= -2 also holds z = 2
        model = ENGINE_MODELS[name]
        re0, im0 = corner[0] * step, corner[1] * step
        zs = GridRegion(re0, re0 + 4 * step, im0, im0 + 4 * step, 5, 5).lattice().ravel()
        batch = resolvent.resolvent_power_norms(model, zs, n, max_blocks=budget)
        # a truncation examines all its blocks, whatever the tail budget
        limit = model.n_blocks if isinstance(model, TruncatedFamily) else budget
        for z, rv in zip(zs, batch):
            one = resolvent_power_norm(model, z, n, max_blocks=budget)
            assert rv == one
            assert one.k_cutoff <= limit

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize(
        "model",
        [SHARG, REMARK, scale_operator(REMARK, 1.0 - 0.5j), TruncatedFamily(SHARG, 700),
         DIAGONAL],
    )
    def test_field_takes_the_engine_default(self, model, n):
        region = GridRegion(-1.0, 1.0, -1.0, 1.0, 5, 5)
        field = compute_norm_field(model, region, n)
        batch = resolvent.resolvent_power_norms(model, region.lattice().ravel(), n)
        assert field.values.ravel().tolist() == batch.value.tolist()

    def test_window_closes_in_several_chunks(self):
        # inf cells, cells closed in the first chunk and cells open at the
        # end of the budget share one engine pass; the sign certificate
        # closes |z| < 2 after one chunk, so the window reaches |z| = 8.5,
        # where no certificate holds within 3000 blocks
        zs = GridRegion(-6.0, 6.0, -6.0, 6.0, 9, 9).lattice().ravel()
        batch = resolvent.resolvent_power_norms(REMARK, zs, 1, max_blocks=3000)
        assert len({rv.k_cutoff for rv in batch}) >= 4
        assert any(math.isinf(rv.value) for rv in batch)
        assert any(
            rv.certified and rv.k_cutoff == resolvent.HEAD_CHUNK and math.isfinite(rv.value)
            for rv in batch
        )
        assert any(not rv.certified and rv.k_cutoff == 3000 for rv in batch)
        for z, rv in zip(zs, batch):
            assert rv == resolvent_power_norm(REMARK, z, 1, max_blocks=3000)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "name, radius", [("shargorodsky", 4.0), ("nonconstant", 4.0), ("remark_n1", 4.0)]
    )
    def test_first_chunk_moves_only_the_cutoffs(self, monkeypatch, name, radius, n):
        # a 16-block first chunk may close a point earlier and moves nothing else
        model = build_named_example(name).model
        zs = GridRegion(-radius, radius, -radius, radius, 17, 17).lattice().ravel()
        runs = []
        for head in (64, 16):
            monkeypatch.setattr(resolvent, "HEAD_CHUNK", head)
            batch = resolvent.resolvent_power_norms(model, zs, n)
            runs.append([batch.value.tolist(), batch.tail_gap.tolist(), batch.certified.tolist()])
        assert runs[0] == runs[1]

    def test_survivors_share_jacobi_stacks(self, monkeypatch):
        # with a cap of 8 matrices, the screen's survivors from many groups
        # are regrouped into full stacks, and no maximum moves
        zs = GridRegion(-2.0, 2.0, -2.0, 2.0, 5, 5).lattice().ravel()
        ks = np.arange(1, 81)
        want = resolvent._chunk_maxima(REMARK, ks, zs, 2, np.zeros(len(zs)))
        sizes = []
        kernel = resolvent.jacobi_singular_values

        def recorded(mats):
            sizes.append(len(mats))
            return kernel(mats)

        monkeypatch.setattr(resolvent, "jacobi_singular_values", recorded)
        monkeypatch.setattr(resolvent, "STACK_CAP", 8)
        got = resolvent._chunk_maxima(REMARK, ks, zs, 2, np.zeros(len(zs)))
        assert got.tolist() == want.tolist()
        assert len(sizes) >= 2 and set(sizes[:-1]) == {8} and 1 <= sizes[-1] <= 8
        assert len(sizes) < len(zs) * len(ks) // 8  # fewer calls than groups

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", ["full", "banded"])
    def test_dense_field_cells_equal_point_values(self, kind, n):
        rng = np.random.default_rng(47)
        if kind == "full":
            matrix = random_complex_matrix(rng, 32)
        else:
            matrix = np.diag(random_complex_matrix(rng, 32)[0] * 0.3)
            matrix += np.diag(2.0 + rng.standard_normal(31) * 0.2, 1)
            matrix += np.diag(rng.standard_normal(30) * 0.5, 2)
        model = DenseOperator(matrix)
        region = GridRegion(-1.2, 1.2, -1.2, 1.2, 7, 7)
        # the 49 cells fill more than one dense stack
        assert region.nx * region.ny > resolvent.DENSE_CAP // (32 * numkernel.SHIFTS)
        field = compute_norm_field(model, region, n)
        for z, cell in zip(region.lattice().ravel(), field.values.ravel()):
            assert cell == resolvent_power_norm(model, z, n).value

    def test_dense_eigenvalue_hit_leaves_its_stack_unchanged(self):
        # z = 2 is an eigenvalue of the triangular matrix, so its LU meets an
        # exact zero pivot; the other points of the stack keep their values
        rng = np.random.default_rng(53)
        spectrum = [1.0, 2.0, 0.5j, -1.0, 3.0, 1.0 + 1.0j]
        model = DenseOperator(np.triu(random_complex_matrix(rng, 6), 1) + np.diag(spectrum))
        zs = np.array([0.3, 2.0, 0.7j, 2.0 + 1e-3])
        for n in (0, 1):
            values = resolvent.resolvent_power_norms(model, zs, n).value
            assert math.isinf(values[1]) and np.isfinite(values[[0, 2, 3]]).all()
            for z, value in zip(zs, values):
                assert value == resolvent_power_norm(model, z, n).value

    def test_stacks_respect_the_cap(self, monkeypatch):
        four, two = [], []

        def record(name, sizes, entries):
            kernel = getattr(resolvent, name)

            def wrapped(*args):
                sizes.append(np.size(args[0]) // entries)
                return kernel(*args)

            monkeypatch.setattr(resolvent, name, wrapped)

        record("jacobi_singular_values", four, 16)
        record("sv2x2_batch", two, 1)
        # windows with no two points in one mirror class, so every point is
        # scanned
        zs = GridRegion(-0.99, 1.01, -0.99, 1.01, 11, 11).lattice().ravel()
        resolvent.resolvent_power_norms(REMARK, zs, 0, max_blocks=4096)
        resolvent_power_norm(REMARK, 0.4, 1, max_blocks=20000)
        resolvent.resolvent_power_norms(SHARG, zs, 1, max_blocks=20000)
        resolvent_power_norm(TruncatedFamily(SHARG, 10**5), 0.3 + 3j, 1)
        # the 4x4 screens leave the 11x11 field too few Jacobi candidates a
        # chunk to fill a stack; this window pools 1790 at n = 0 after the
        # Gram screen
        wide = GridRegion(-1.99, 2.01, -1.99, 2.01, 61, 61).lattice().ravel()
        resolvent.resolvent_power_norms(REMARK, wide, 0)
        assert max(four) == resolvent.STACK_CAP
        assert max(two) == 16 * resolvent.STACK_CAP


def _mirror_models():
    """(id, model) for every kind of model the engine takes, and real, negative and complex factors."""
    rng = np.random.default_rng(34)
    real = rng.standard_normal((5, 5))
    # 1x1, 2x2 and 3x3 diagonal blocks, one of them -0.0
    split = np.zeros((6, 6))
    split[[0, 1, 2], [0, 1, 2]] = [-0.0, 1.5, -0.5]
    split[1, 2], split[2, 1] = 2.0, -1.0
    split[3:, 3:] = rng.standard_normal((3, 3))
    log_sharg = DiagBlockFamily(SymbolSpec("one_plus_inv"), AlphaRule("log_grid"))
    return [
        ("shargorodsky", SHARG), ("shargorodsky-log", log_sharg), ("nonconstant", NONCONST),
        ("decay", DECAY), ("empty", EMPTY), ("remark_n1", REMARK),
        ("trunc-2x2", TruncatedFamily(SHARG, 40)), ("trunc-4x4", TruncatedFamily(REMARK, 40)),
        ("trunc-inverse", TruncatedFamily(EMPTY, 12)),
        ("dense-real", DenseOperator(real)), ("dense-split", DenseOperator(split)),
        ("dense-trunc", assemble_truncation(SHARG, 12)),
        ("dense-complex", DenseOperator(random_complex_matrix(rng, 5))),
        ("scaled-positive", scale_operator(SHARG, 0.75)),
        ("scaled-negative", scale_operator(REMARK, -1.25)),
        ("scaled-negative-dense", scale_operator(DenseOperator(real), -2.0)),
        ("scaled-complex", scale_operator(NONCONST, 0.6 + 0.8j)),
        ("scaled-complex-dense", scale_operator(DenseOperator(real), 1j)),
    ]


MIRROR_MODELS = _mirror_models()
# points with +-0.0 parts, on both axes and off them
_MIRROR_BASE = [
    (0.3, 0.2), (1.5, 0.7), (0.0, 1.0), (2.0, 0.0), (0.0, 0.0), (0.7, 2.4), (1e-3, 0.5),
    (0.25, 1.75), (3.1, 0.4), (0.0, 0.35),
]
# every sign pattern of every base point, so each class has up to four points
SYMMETRIC = np.array([complex(sx * x, sy * y) for x, y in _MIRROR_BASE
                      for sx in (1.0, -1.0) for sy in (1.0, -1.0)])
# no two points of one class, in every quadrant and with signed zeros
ASYMMETRIC = np.array([complex(x, y) for x, y in [
    (0.3, 0.2), (-1.5, 0.7), (-0.0, 1.0), (2.0, -0.0), (-0.7, -2.4), (1e-3, -0.5),
    (-0.0, -0.0), (0.25, -1.75), (-3.1, 0.4), (0.0, -0.35),
]])


# where each evaluation kernel takes its points
ZS_ARG = {"_family_values": 1, "_dense_power_norms": 2}


class TestMirrorFold:
    """resolvent_power_norms evaluates each exact mirror class once, bit for bit."""

    @staticmethod
    def _columns(model, zs, n):
        got = resolvent.resolvent_power_norms(model, zs, n, max_blocks=512)
        return [col.dtype.str + col.tobytes().hex() for col in
                (got.value, got.tail_gap, got.certified, got.k_cutoff)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("model", [m for _, m in MIRROR_MODELS],
                             ids=[name for name, _ in MIRROR_MODELS])
    def test_folded_values_are_the_unfolded_ones(self, monkeypatch, model, n):
        sets = (SYMMETRIC, ASYMMETRIC, SYMMETRIC[::-1], np.zeros(0, dtype=complex))
        folded = [self._columns(model, zs, n) for zs in sets]
        monkeypatch.setattr(operators, "mirror_points", lambda model, zs: zs)
        assert folded == [self._columns(model, zs, n) for zs in sets]

    @pytest.mark.parametrize("model", [m for _, m in MIRROR_MODELS],
                             ids=[name for name, _ in MIRROR_MODELS])
    def test_no_points_give_empty_columns(self, model):
        got = resolvent.resolvent_power_norms(model, [], 1)
        assert [(len(col), col.dtype) for col in vars(got).values()] == [
            (0, np.float64), (0, np.float64), (0, np.bool_), (0, np.int64)]

    @pytest.mark.parametrize("model, kernel, classes", [
        (SHARG, "_family_values", 10),
        (REMARK, "_family_values", 10),
        (EMPTY, "_family_values", 10),
        (TruncatedFamily(REMARK, 40), "_family_values", 10),
        # z and conj(z) only, and Re -0.0 is Re 0.0
        (DenseOperator(np.array([[1.0, 2.0], [0.0, -1.0]])), "_dense_power_norms", 17),
        (DenseOperator(np.diag([2.0, 6.0j])), "_dense_power_norms", 40),
        # a scaled model is its model at z / s, folded there whatever the factor
        (scale_operator(SHARG, -2.0), "_family_values", 10),
        (scale_operator(SHARG, 1j), "_family_values", 10),
        (scale_operator(DenseOperator(np.eye(2)), 0.5), "_dense_power_norms", 17),
        (scale_operator(DenseOperator(np.diag([2.0, 6.0j])), 1j), "_dense_power_norms", 40),
    ], ids=["2x2", "4x4", "inverse", "truncation", "dense-real", "dense-complex",
            "scaled-negative", "scaled-imaginary", "scaled-dense", "scaled-complex"])
    def test_each_class_is_evaluated_once_at_its_first_point(self, monkeypatch, model, kernel,
                                                             classes):
        seen = []
        original = getattr(resolvent, kernel)

        def recorded(*args):
            seen.append(args[ZS_ARG[kernel]])
            return original(*args)

        monkeypatch.setattr(resolvent, kernel, recorded)
        # reversed, so that a class's first point is not its canonical one
        zs = SYMMETRIC[::-1]
        resolvent.resolvent_power_norms(model, zs, 0, max_blocks=64)
        (points,) = seen
        assert len(points) == classes
        if isinstance(model, ScaledOperator):
            zs, model = zs / model.factor, model.inner
        # each class at the first of its points, classes in the order of those
        fold = {"quadrant": abs, "conjugate": lambda x: x, None: None}[model.mirror]
        keys = [z if fold is None else (fold(z.real), abs(z.imag)) for z in zs]
        firsts = [i for i, k in enumerate(keys) if fold is None or k not in keys[:i]]
        assert points.tobytes() == zs[firsts].tobytes()

    @pytest.mark.parametrize("model", [
        SHARG, scale_operator(SHARG, -2.0), ScaledOperator(ScaledOperator(REMARK, 2.0), 1j),
    ], ids=["2x2", "scaled", "nested-scaled"])
    def test_a_folded_field_finds_its_classes_once(self, monkeypatch, model):
        # the class heads are distinct, and sorting them again found nothing
        calls = []
        original = resolvent.mirror_classes

        def counted(model, zs):
            calls.append(len(zs))
            return original(model, zs)

        monkeypatch.setattr(resolvent, "mirror_classes", counted)
        region = GridRegion(-2.0, 2.0, -2.0, 2.0, 21, 21)
        field = compute_norm_field(model, region, 0)
        assert calls == [441]
        # and each cell is the value of its own one-point call
        for i, j in ((0, 0), (3, 17), (20, 20), (10, 10)):
            assert field.values[i, j] == resolvent_norm(model, region.point(i, j)).value

    def test_numpy_ma_is_not_imported(self):
        # np.unique's first call imports numpy.ma, about 1 MB of peak RSS
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pseudolab import DenseOperator, GridRegion, build_named_example, "
            "compute_norm_field\n"
            "region = GridRegion(-1.0, 1.0, -1.0, 1.0, 5, 5)\n"
            "compute_norm_field(build_named_example('remark_n1').model, region, 0)\n"
            "compute_norm_field(build_named_example('shargorodsky').model, region, 1)\n"
            "compute_norm_field(DenseOperator(np.array([[1.0, 2.0], [0.0, -1.0]])), region, 0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(pseudolab.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestGnrDefect:
    def test_scaling_defect_matches_literal_difference(self):
        ex = build_named_example("diag_pair")
        seq = ex.sequences["scale"]
        got = gnr_defect(seq, 10)
        t = np.diag([2.0, 6.0]).astype(complex)
        s = 1.0 - 1.0 / 10
        eye = np.eye(2)
        lit = np.linalg.norm(
            np.linalg.inv(s * t - 1j * eye) - np.linalg.inv(t - 1j * eye), 2
        )
        assert got == pytest.approx(lit, abs=1e-12)

    def test_decay_truncation_defects_shrink(self):
        seq = TruncationSequence(DECAY, gnr_anchor=1j)
        defects = [gnr_defect(seq, k) for k in (4, 8, 16, 32)]
        for lo, hi in zip(defects[1:], defects[:-1]):
            assert lo <= hi
        assert defects[-1] < defects[0] / 2.0

    @pytest.mark.parametrize("k", [4, 32])
    def test_decay_defect_is_the_largest_later_block(self, k):
        # sup over j > k of ||(B_j - i)^-1||: the decay blocks fall towards 0
        seq = TruncationSequence(DECAY, gnr_anchor=1j)
        want = block_family_power_norm_oracle(DECAY, range(k + 1, 4097), 1j)
        assert gnr_defect(seq, k) == pytest.approx(want, rel=1e-12)

    def test_truncation_fast_path_equals_padded_difference(self):
        # Kato's first resolvent identity blockwise: against a 16-block
        # truncation the padded difference keeps blocks 5..16, and the
        # largest of the decay blocks past 4 is block 5
        seq = TruncationSequence(DECAY, gnr_anchor=1j)
        got = gnr_defect(seq, 4)
        t_k = assemble_truncation(DECAY, 4).matrix
        t_ref = assemble_truncation(DECAY, 16).matrix
        r_k = np.linalg.inv(t_k - 1j * np.eye(8))
        r_ref = np.linalg.inv(t_ref - 1j * np.eye(32))
        padded = np.zeros((32, 32), dtype=complex)
        padded[:8, :8] = r_k
        assert got == pytest.approx(np.linalg.norm(padded - r_ref, 2), rel=1e-12)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2"])
    def test_an_index_that_is_not_a_whole_number_is_refused(self, k):
        # 1.5 used to scan from a block of weight 3.5, which no term has
        seq = TruncationSequence(DECAY, gnr_anchor=0.5 + 1j)
        with pytest.raises(DomainError, match="whole number"):
            gnr_defect(seq, k)
        with pytest.raises(DomainError, match="whole number"):
            gnr_defect(build_named_example("diag_pair").sequences["scale"], k)

    def test_numpy_indices_pass(self):
        seq = TruncationSequence(DECAY, gnr_anchor=0.5 + 1j)
        assert gnr_defect(seq, np.int64(2)) == gnr_defect(seq, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_an_index_below_one_is_refused_for_every_sequence(self, k):
        # a dense shrink sequence divided by zero at k = 0 and evaluated
        # the term diag(4, 6) at k = -1
        dense = build_named_example("diag_pair").sequences["shrink"]
        for seq in (TruncationSequence(DECAY, gnr_anchor=0.5 + 1j), dense):
            with pytest.raises(DomainError, match=">= 1"):
                gnr_defect(seq, k)

    def test_shargorodsky_defect_never_decays(self):
        # every block value stays below 1/C = 1 and tends to it: the sup
        # over any tail is exactly 1, certified
        seq = TruncationSequence(SHARG, gnr_anchor=1j)
        for k in (1, 4, 16, 64, 255):
            assert gnr_defect(seq, k) == 1.0

    def test_defect_stays_positive_past_any_block(self):
        # the limit is the family, so no term index makes the defect vanish
        seq = TruncationSequence(DECAY, gnr_anchor=1j)
        defects = [gnr_defect(seq, k) for k in (16, 256, 4096)]
        assert all(d > 0.0 for d in defects)
        assert defects[0] > defects[1] > defects[2]

    def test_anchor_on_spectrum_is_rejected_at_construction(self):
        # 2.0 = sqrt(alpha f) of block 2, an eigenvalue of the family
        with pytest.raises(SingularityError) as err:
            TruncationSequence(SHARG, gnr_anchor=2.0)
        assert err.value.which == "limit"

    def test_inverse_symbol_family_has_no_anchor(self):
        # the inverse-symbol family has an empty resolvent set
        with pytest.raises(SingularityError) as err:
            TruncationSequence(EMPTY, gnr_anchor=2j)
        assert err.value.which == "limit"

    def test_scaling_anchor_on_spectrum_names_operator(self):
        base = build_named_example("diag_pair").model
        with pytest.raises(SingularityError) as err:
            OperatorSequence(
                lambda k: scale_operator(base, 1.0 - 1.0 / k), base, gnr_anchor=6.0
            )
        assert err.value.which == "limit"

    def test_anchor_on_an_early_block_is_rejected_at_construction(self):
        # block k has the eigenvalue sqrt(k + 2): sqrt(8) sits on block 6,
        # inside the construction check's first chunk
        with pytest.raises(SingularityError) as err:
            TruncationSequence(SHARG, gnr_anchor=math.sqrt(8.0))
        assert err.value.which == "limit"

    def test_anchor_near_a_far_block_has_a_large_defect(self):
        # sqrt(102) sits on block 100: the construction check scans that far
        # and refuses it, and an anchor 1e-6 off it passes; the defect scan
        # from block 8 reaches block 100, where the family takes its value
        with pytest.raises(SingularityError):
            TruncationSequence(SHARG, gnr_anchor=math.sqrt(102.0))
        anchor = math.sqrt(102.0) + 1e-6
        seq = TruncationSequence(SHARG, gnr_anchor=anchor)
        assert gnr_defect(seq, 8) == resolvent_norm(SHARG, anchor).value > 5e6

    def test_explicit_sequence_defect(self):
        terms = tuple(
            DenseOperator(np.diag([2.0 + 1.0 / k, 6.0])) for k in range(1, 9)
        )
        seq_limit = DenseOperator(np.diag([2.0, 6.0]))
        seq = OperatorSequence(term=lambda k: terms[k - 1], limit=seq_limit, gnr_anchor=1j)
        d2 = gnr_defect(seq, 2)
        d8 = gnr_defect(seq, 8)
        assert d8 < d2


class TestExpansionResidual:
    def test_same_point_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        model = DenseOperator(random_complex_matrix(rng, 5))
        assert expansion_residual(model, 0.2 + 0.1j, 0.2 + 0.1j, 2) == 0.0

    def test_residual_vanishes_to_roundoff(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = DenseOperator(random_complex_matrix(rng, 5))
            lam0 = complex(rng.normal(scale=2), rng.normal(scale=2))
            r0 = resolvent_norm(model, lam0).value
            lam = lam0 + 0.2 / r0
            r_norm = resolvent_norm(model, lam).value
            for l in (2, 4, 8):
                assert expansion_residual(model, lam, lam0, l) <= 1e-10 * r_norm

    def test_l_below_two_rejected(self):
        with pytest.raises(DomainError):
            expansion_residual(DIAG26, 3.0, 3.1, 1)

    def test_spectrum_point_rejected(self):
        with pytest.raises(SingularityError):
            expansion_residual(DIAG26, 2.0, 3.0, 2)

    def test_overflowing_powers_give_inf(self):
        assert expansion_residual(NILPOTENT, 0.5, 0.45, 600) == 1.8811920809990345e-15
        assert expansion_residual(NILPOTENT, 0.5, 0.45, 2000) == math.inf


class TestPowerDiffBound:
    def test_bound_holds_on_random_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = DenseOperator(random_complex_matrix(rng, 4))
            lam = complex(rng.normal(scale=2), rng.normal(scale=2))
            c = resolvent_norm(model, lam).value
            if not math.isfinite(c):
                continue
            nu = lam + 0.4 / c
            for n in (1, 2):
                res = power_diff_bound_check(model, lam, nu, n)
                assert res.holds
                assert res.lhs <= res.rhs * (1.0 + 1e-10)

    def test_zero_displacement(self):
        res = power_diff_bound_check(DIAG26, 3.0, 3.0, 1)
        assert res.holds and res.lhs == 0.0 and res.rhs == 0.0

    def test_large_displacement_rejected(self):
        c = resolvent_norm(DIAG26, 3.0).value  # equals 1
        with pytest.raises(DomainError):
            power_diff_bound_check(DIAG26, 3.0, 3.0 + 1.5 / c, 1)

    def test_matches_the_binomial_sum(self):
        # the bound c^m (1 - dc)^-m sum_{j>=1} C(m, j) (cd)^j summed term by term
        rng = np.random.default_rng(5)
        for model, lam in ((DIAG26, 3.0), (DenseOperator(random_complex_matrix(rng, 4)), 0.3 + 0.2j)):
            c = resolvent._inverse_of(model.matrix, lam, "lam")[1]
            for frac in (1e-6, 0.01, 0.4):
                nu = lam + frac / c
                d = abs(nu - lam)
                for n in range(1, 9):
                    m = 1 << n
                    total = sum(math.comb(m, j) * c**j * d**j for j in range(1, m + 1))
                    want = c**m * (1.0 - d * c) ** (-m) * total
                    res = power_diff_bound_check(model, lam, nu, n)
                    assert res.rhs == pytest.approx(want, rel=1e-12, abs=0.0)
                    assert res.holds

    @pytest.mark.parametrize("n", [15, 16])
    def test_high_powers_hold(self, n):
        res = power_diff_bound_check(DIAG26, 3.0, 3.001, n)
        assert res.holds and math.isfinite(res.rhs)
        assert res.lhs == pytest.approx(1.0 - 1.001 ** -(1 << n), rel=1e-9)

    @pytest.mark.parametrize("n, lhs, rhs", [
        (6, 2.176829519265357e21, 1.4040056541843983e49),
        (9, 1.372960838871802e157, math.inf),
    ])
    def test_finite_powers_keep_their_values(self, n, lhs, rhs):
        res = power_diff_bound_check(NILPOTENT, 0.5, 0.52, n)
        assert (res.lhs, res.rhs, res.holds) == (lhs, rhs, True)

    def test_verdict_holds_past_an_overflowing_bound(self, monkeypatch):
        # at n = 9 the bound, about e^905, overflows; a difference inflated by
        # 2^2000 overflows too, and lies far above it
        square = resolvent.batch_square_scaled

        def inflated(mats, n):
            powers, exps = square(mats, n)
            return powers, exps + np.array([2000.0, 0.0])

        monkeypatch.setattr(resolvent, "batch_square_scaled", inflated)
        res = power_diff_bound_check(NILPOTENT, 0.5, 0.52, 9)
        assert (res.lhs, res.rhs, res.holds) == (math.inf, math.inf, False)

    @pytest.mark.parametrize("n", [10, 64])
    def test_overflowing_powers_give_inf(self, n):
        # both 2^n-th powers overflow; the bound, at least as large, does too
        res = power_diff_bound_check(NILPOTENT, 0.5, 0.52, n)
        assert (res.lhs, res.rhs, res.holds) == (math.inf, math.inf, True)

    def test_powers_past_the_float_range_keep_a_finite_difference(self):
        # c^512 is about 2^1030 while the difference of the two powers is
        # about 1.1e300, so the common scale is applied with ldexp
        model = DenseOperator(np.diag([0.248, 6.0]))
        res = power_diff_bound_check(model, 0.0, 5e-14, 9)
        assert math.isfinite(res.lhs) and math.isfinite(res.rhs) and res.holds
        assert res.lhs == pytest.approx(1.1337771538057163e300, rel=1e-3)
        res = power_diff_bound_check(model, 0.0, 0.0, 9)
        assert (res.lhs, res.rhs, res.holds) == (0.0, 0.0, True)
        # and far below it, where the scale is about -2^73, the difference is 0
        res = power_diff_bound_check(DenseOperator(np.diag([1e200, 2e200])), 0.0, 1e190, 64)
        assert (res.lhs, res.rhs, res.holds) == (0.0, 0.0, True)

    @pytest.mark.parametrize("n", [-1, 65])
    def test_power_index_beyond_the_limit_rejected(self, n):
        with pytest.raises(DomainError, match=rf"^power index n must lie in 0\.\.64, got {n}$"):
            power_diff_bound_check(DIAG26, 3.0, 3.001, n)


class TestSequencesWithFamilies:
    def test_scaled_family_sequence_values(self):
        seq = OperatorSequence(
            term=lambda k: scale_operator(SHARG, 1.0 - 1.0 / k), limit=SHARG
        )
        got = resolvent_norm(seq.term(2), 0.0)
        assert got.value == pytest.approx(2.0, rel=1e-9)
