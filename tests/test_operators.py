import dataclasses
import math

import numpy as np
import pytest

from pseudolab.errors import (
    ConfigurationError,
    DomainError,
    InapplicableConditionError,
    SingularityError,
)
from pseudolab.operators import (
    AlphaRule,
    DiagBlockFamily,
    DenseOperator,
    ExplicitSequence,
    ScaledOperator,
    ScalingSequence,
    SymbolSpec,
    TruncationSequence,
    assemble_truncation,
    build_named_example,
    check_constant_norm_condition,
    scale_operator,
)

from oracles import eigenvalues_oracle


def shargorodsky_family():
    return build_named_example("shargorodsky").model


class TestAlphaRule:
    def test_successor_default(self):
        rule = AlphaRule()
        assert rule.value(1) == 2.0
        assert np.array_equal(rule.values([1, 2, 10]), [2.0, 3.0, 11.0])

    def test_index(self):
        assert AlphaRule("index").value(5) == 5.0

    def test_log_grid_window_and_continuation(self):
        rule = AlphaRule("log_grid")
        assert rule.value(1) == pytest.approx(1.0)
        assert rule.value(2048) == pytest.approx(1e5, rel=1e-12)
        vals = rule.values(np.arange(1, 3000))
        assert np.all(np.diff(vals) > 0)
        # continuation is linear with the last geometric step
        step = vals[2048] - vals[2047]
        assert vals[2100] == pytest.approx(1e5 + 53 * step, rel=1e-9)

    def test_log_grid_large_k_finite(self):
        v = AlphaRule("log_grid").value(10**6)
        assert math.isfinite(v) and v > 1e3

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigurationError):
            AlphaRule("log_grid", count=100)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            AlphaRule("cubic")

    def test_rejects_index_zero(self):
        with pytest.raises(DomainError):
            AlphaRule().values([0, 1])


class TestSymbolSpec:
    def test_kinds_and_tails(self):
        assert SymbolSpec("one_plus_inv").tail_limit == 1.0
        assert SymbolSpec("one_minus_inv_sqrt").tail_limit == 1.0
        assert SymbolSpec("inverse").tail_limit == 0.0
        assert SymbolSpec("power_beta", beta=0.5).tail_limit == math.inf
        assert SymbolSpec("constant", c=2.5).tail_limit == 2.5

    def test_values(self):
        assert SymbolSpec("one_plus_inv").value(4.0) == 1.25
        assert SymbolSpec("one_minus_inv_sqrt").value(4.0) == 0.5
        assert SymbolSpec("inverse").value(4.0) == 0.25
        assert SymbolSpec("power_beta", beta=0.5).value(4.0) == 2.0

    def test_tabulated(self):
        sym = SymbolSpec("tabulated", table=((1.0, 2.0), (3.0, 4.0)))
        assert sym.value(2.0) == pytest.approx(3.0)
        assert sym.tail_limit == 4.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SymbolSpec("power_beta", beta=1.5)
        with pytest.raises(ConfigurationError):
            SymbolSpec("constant", c=0.0)
        with pytest.raises(ConfigurationError):
            SymbolSpec("tabulated", table=((1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            SymbolSpec("rational")


class TestDiagBlockFamily:
    @pytest.mark.parametrize(
        "symbol", [SymbolSpec("constant", c=2.0), SymbolSpec("one_minus_inv_sqrt")]
    )
    def test_four_by_four_needs_one_plus_inv(self, symbol):
        # the 4x4 tail certificates assume the limit of 1 + 1/x
        with pytest.raises(ConfigurationError, match="one_plus_inv"):
            DiagBlockFamily(symbol=symbol, block_shape="four_by_four")
        assert DiagBlockFamily(symbol=symbol).block_dim == 2


class TestDenseOperator:
    def test_diagonal_is_detected_exactly(self):
        m = np.diag([2.0, 0.0, 1j]).astype(complex)
        assert np.array_equal(DenseOperator(m).diagonal, [2.0, 0.0, 1j])
        m[0, 2] = -0.0  # a signed zero is still zero
        assert np.array_equal(DenseOperator(m).diagonal, [2.0, 0.0, 1j])
        m[0, 2] = 1e-300
        assert DenseOperator(m).diagonal is None
        assert DenseOperator(np.zeros((2, 2))).diagonal.tolist() == [0.0, 0.0]
        assert assemble_truncation(shargorodsky_family(), 2).diagonal is None


class TestAssembleTruncation:
    def test_shargorodsky_first_block(self):
        t = assemble_truncation(shargorodsky_family(), 1)
        assert np.array_equal(t.matrix, np.array([[0.0, 1.5], [2.0, 0.0]]))

    def test_constant_symbol_two_blocks(self):
        family = DiagBlockFamily(
            symbol=SymbolSpec("constant", c=1.0), alpha=AlphaRule("index")
        )
        t = assemble_truncation(family, 2)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 1] = 1.0
        want[1, 0] = 1.0
        want[2, 3] = 1.0
        want[3, 2] = 2.0
        assert np.array_equal(t.matrix, want)

    def test_four_by_four_first_block(self):
        t = assemble_truncation(build_named_example("remark_n1").model, 1)
        want = np.zeros((4, 4), dtype=complex)
        want[2, 0] = 2.0
        want[1, 2] = 2.0
        want[0, 3] = 1.5
        want[3, 1] = 1.5
        assert np.array_equal(t.matrix, want)

    def test_truncations_are_nested(self):
        family = shargorodsky_family()
        big = assemble_truncation(family, 8).matrix
        small = assemble_truncation(family, 3).matrix
        assert np.array_equal(big[:6, :6], small)

    def test_zero_blocks_rejected(self):
        with pytest.raises(DomainError):
            assemble_truncation(shargorodsky_family(), 0)


def closed_form_block_eigenvalues(family, k):
    # B^2 = alpha f I for 2x2 blocks and B^4 = (alpha f)^2 I for 4x4 blocks
    a = family.alpha.value(k)
    root = math.sqrt(a * family.symbol.value(a))
    roots = [complex(root), complex(-root)]
    if family.block_dim == 4:
        roots += [complex(0.0, root), complex(0.0, -root)]
    return np.array(roots)


class TestBlockEigenvalues:
    def test_sqrt_symbol(self):
        family = build_named_example("decay", {"beta": 0.5}).model
        # k=3 has weight 4, f = 2, eigenvalues +-sqrt(8)
        got = np.sort_complex(eigenvalues_oracle(family.block(3)))
        assert got[1].real == pytest.approx(2.8284271247461903, rel=1e-14)
        assert got[0].real == pytest.approx(-2.8284271247461903, rel=1e-14)
        assert np.all(np.abs(got.imag) <= 1e-14)

    def test_first_shargorodsky_block(self):
        got = np.sort_complex(eigenvalues_oracle(shargorodsky_family().block(1)))
        assert got[1] == pytest.approx(math.sqrt(3.0))
        assert got[0] == pytest.approx(-math.sqrt(3.0))

    def test_unit_constant_block(self):
        family = DiagBlockFamily(
            symbol=SymbolSpec("constant", c=1.0), alpha=AlphaRule("index")
        )
        got = np.sort_complex(eigenvalues_oracle(family.block(1)))
        assert list(got) == [pytest.approx(-1.0), pytest.approx(1.0)]

    @pytest.mark.parametrize("k", [1, 3, 50, 10**6])
    def test_four_by_four_matches_dense_roots(self, k):
        # the roots of (alpha f)^2 - z^4, one to one with LAPACK's eigenvalues
        family = build_named_example("remark_n1").model
        want = closed_form_block_eigenvalues(family, k)
        got = np.asarray(eigenvalues_oracle(family.block(k)))
        dist = np.abs(want[:, None] - got[None, :])
        nearest = np.argmin(dist, axis=1)
        assert sorted(nearest) == [0, 1, 2, 3]
        assert np.all(dist.min(axis=1) <= 2e-15 * np.abs(want))

    def test_truncation_spectrum_is_union_of_blocks(self):
        family = shargorodsky_family()
        n = 6
        want = []
        for k in range(1, n + 1):
            want.extend(eigenvalues_oracle(family.block(k)))
        got = eigenvalues_oracle(assemble_truncation(family, n).matrix)
        got = np.sort_complex(np.asarray(got))
        want = np.sort_complex(np.asarray(want))
        assert np.allclose(got, want, atol=1e-8)


class TestConstantNormCondition:
    def test_shargorodsky_holds_with_zero_margin(self):
        assert check_constant_norm_condition(shargorodsky_family(), 0.0, 10_000)

    def test_nonconstant_family_violates(self):
        family = build_named_example("nonconstant").model
        assert not check_constant_norm_condition(family, 1.0, 10_000)

    def test_constant_symbol_trivially_holds(self):
        family = DiagBlockFamily(
            symbol=SymbolSpec("constant", c=1.0), alpha=AlphaRule("index")
        )
        assert check_constant_norm_condition(family, 0.0, 100)

    def test_inapplicable_tails(self):
        with pytest.raises(InapplicableConditionError):
            check_constant_norm_condition(
                build_named_example("empty_resolvent").model, 0.0, 10
            )
        with pytest.raises(InapplicableConditionError):
            check_constant_norm_condition(
                build_named_example("decay", {"beta": 0.5}).model, 0.0, 10
            )


class TestScaleOperator:
    def test_zero_factor_rejected(self):
        with pytest.raises(DomainError):
            scale_operator(shargorodsky_family(), 0.0)

    def test_nested_scalings_flatten(self):
        base = DenseOperator(np.diag([2.0, 6.0]))
        s = scale_operator(scale_operator(base, 2.0), 3.0)
        assert isinstance(s, ScaledOperator)
        assert s.inner is base
        assert s.factor == 6.0


class TestSequences:
    def test_diag_pair_sequences(self):
        ex = build_named_example("diag_pair")
        assert set(ex.sequences) == {"shrink", "grow", "scale"}
        shrink4 = ex.sequences["shrink"].term(4)
        assert np.allclose(np.diag(shrink4.matrix), [1.5, 6.0])
        grow4 = ex.sequences["grow"].term(4)
        assert np.allclose(np.diag(grow4.matrix), [2.5, 6.0])
        scale2 = ex.sequences["scale"].term(2)
        assert isinstance(scale2, ScaledOperator)
        assert scale2.factor == 0.5

    def test_scaling_term_one_is_degenerate(self):
        ex = build_named_example("diag_pair")
        with pytest.raises(DomainError):
            ex.sequences["scale"].term(1)

    def test_explicit_range_checked(self):
        ex = build_named_example("diag_pair")
        with pytest.raises(DomainError):
            ex.sequences["shrink"].term(65)

    def test_truncation_sequence_terms_and_limit(self):
        family = shargorodsky_family()
        seq = TruncationSequence(family)
        assert seq.term(3).dim == 6
        assert seq.term(3).family is family
        assert seq.limit_model() is family
        assert [f.name for f in dataclasses.fields(seq)] == ["family", "gnr_anchor"]

    def test_anchor_on_spectrum_rejected(self):
        # sqrt(3) is an eigenvalue of the first block
        with pytest.raises(SingularityError):
            TruncationSequence(shargorodsky_family(), gnr_anchor=complex(math.sqrt(3.0)))

    def test_scaled_family_anchor_probes_the_first_blocks(self):
        # term k=2 is shargorodsky / 2, whose block k=10 has the eigenvalue
        # sqrt(12) / 2 = sqrt(3): the 64-block probe of the scaled family finds it
        with pytest.raises(SingularityError, match="term k=2") as err:
            ScalingSequence(
                shargorodsky_family(),
                lambda k: 1.0 - 1.0 / k,
                gnr_anchor=complex(math.sqrt(3.0)),
            )
        assert err.value.which == "term k=2"

    def test_scaled_inverse_symbol_family_has_no_anchor(self):
        # the resolvent set of the inverse-symbol family is empty: its first
        # 64 blocks clear 1j, but the family itself has resolvent norm inf
        with pytest.raises(SingularityError, match="term k=2") as err:
            ScalingSequence(
                build_named_example("empty_resolvent").model,
                lambda k: 1.0 - 1.0 / k,
                gnr_anchor=1j,
            )
        assert err.value.which == "term k=2"
        assert "clearance 0.000e+00" in str(err.value)

    def test_explicit_anchor_on_limit_rejected(self):
        base = DenseOperator(np.diag([2.0, 6.0]))
        with pytest.raises(SingularityError):
            ExplicitSequence((base,), base, gnr_anchor=2.0)


class TestNamedExamples:
    def test_catalogue_models(self):
        assert build_named_example("shargorodsky").model.tail_C == 1.0
        assert build_named_example("empty_resolvent").model.tail_C == 0.0
        assert build_named_example("nonconstant").model.tail_C == 1.0
        assert build_named_example("decay", {"beta": 0.5}).model.tail_C == math.inf
        assert build_named_example("remark_n1").model.block_dim == 4

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(ConfigurationError) as err:
            build_named_example("laplace")
        for name in ("diag_pair", "shargorodsky", "decay"):
            assert name in str(err.value)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            build_named_example("shargorodsky", {"beta": 0.5})
        with pytest.raises(ConfigurationError):
            build_named_example("decay", {"beta": 1.5})
        with pytest.raises(ConfigurationError):
            build_named_example("diag_pair", {"lambda1": 6.0, "lambda2": 2.0})

    def test_tail_consistency_at_deep_sample(self):
        for name in ("shargorodsky", "empty_resolvent", "nonconstant"):
            family = build_named_example(name).model
            alpha = family.alpha.value(10**6)
            assert abs(family.symbol.value(alpha) - family.tail_C) < 1e-2

    def test_symbol_must_stay_positive(self):
        # 1 - 1/sqrt(x) vanishes at x = 1, the first log-grid weight
        with pytest.raises(ConfigurationError):
            build_named_example("nonconstant", {"alpha_rule": "log_grid"})
