"""Study drivers: verdicts, preconditions, report serialization."""
import json
import math

import numpy as np
import pytest

from oracles import resolvent_power_norm_oracle
from pseudolab import (
    ConfigurationError,
    DenseOperator,
    DomainError,
    MaskSet,
    ResolventValues,
    assemble_truncation,
    build_named_example,
    compute_norm_field,
    hausdorff_distance,
    level_set,
    region_with_step,
    scale_operator,
)
from pseudolab import experiments
from pseudolab.experiments import (
    StudyReport,
    constant_region_scan,
    convergence_study,
    counterexample_K_study,
    counterexample_const_study,
    decay_study,
    empty_resolvent_probe,
    global_min_scan,
    in_constant_region,
)
from pseudolab.operators import TruncationSequence
from pseudolab.pseudospectra import dilate_one_cell

DIAG_EX = build_named_example("diag_pair")
SHARG = build_named_example("shargorodsky").model
PHI = 2.0 * math.pi / 5.0


class TestStudyReport:
    def test_verdict_validated(self):
        with pytest.raises(DomainError):
            StudyReport("s", {}, (), "maybe", {})

    def test_json_shape(self):
        rep = StudyReport("s", {"a": 1}, ((1.0, 2.0),), "pass", {"h": 0.1}, ("note",))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"study", "params", "series", "verdict", "budget", "notes"}
        assert doc["series"] == [[1.0, 2.0]]

    def test_infinite_series_value_serializes(self):
        rep = StudyReport("s", {}, ((1.0, math.inf),), "pass", {})
        doc = json.loads(rep.to_json())
        assert doc["series"][0][1] == "inf"


class TestConvergenceStudy:
    def test_decay_truncations_pass(self):
        seq = TruncationSequence(build_named_example("decay").model, gnr_anchor=1j)
        K = region_with_step(0.0, 3.0, 0.1, 1.5, 0.05)
        rep = convergence_study(seq, 1.0, K, [4, 8, 16, 32])
        assert rep.passed
        assert rep.series[-1][1] <= 3.0 * rep.budget["h"]

    def test_shargorodsky_truncations_fail_the_closure_assumption(self):
        # the family's resolvent norm is constant on a disc around 0, so its
        # level set at 1 is not the closure of the open one
        seq = TruncationSequence(build_named_example("shargorodsky").model, gnr_anchor=1j)
        K = region_with_step(-2.0, 2.0, -2.0, 2.0, 0.05)
        rep = convergence_study(seq, 1.0, K, [4, 8, 16, 32])
        assert not rep.passed
        assert rep.series == ()
        assert any("closure assumption" in s for s in rep.notes)

    def test_diag_shrink_distances_track_the_moving_ball(self):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.05)
        rep = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4, 8, 16, 32])
        assert rep.passed
        for k, d in rep.series:
            assert abs(d - 2.0 / k) <= 2.0 * rep.budget["h"]

    def test_power_index_changes_nothing_for_normal_terms(self):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.1)
        rep0 = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4, 8])
        rep1 = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4, 8], n=1)
        for (_, a), (_, b) in zip(rep0.series, rep1.series):
            assert abs(a - b) <= 1e-8

    def test_counterexample_geometry_fails_the_precondition(self):
        K = region_with_step(3.0, 8.0, -2.0, 2.0, 0.05)
        rep = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4, 8])
        assert not rep.passed
        assert rep.series == ()
        assert any("closure assumption" in s for s in rep.notes)

    def test_defect_gate_names_the_defect(self):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.1)
        rep = convergence_study(
            DIAG_EX.sequences["shrink"], 1.0, K, [2, 4, 8], defect_threshold=1e-9
        )
        assert not rep.passed
        assert any("defect" in s for s in rep.notes)
        assert rep.series == ()

    @pytest.mark.parametrize("ks", [[0], [2, 0, 4], [-1]])
    def test_indices_start_at_one(self, ks):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.5)
        with pytest.raises(ConfigurationError, match="start at 1"):
            convergence_study(DIAG_EX.sequences["scale"], 1.0, K, ks)

    @pytest.mark.parametrize("threshold", [0.0, -0.25, math.nan])
    def test_defect_threshold_must_be_positive(self, threshold):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.5)
        with pytest.raises(ConfigurationError, match="defect threshold"):
            convergence_study(
                DIAG_EX.sequences["shrink"], 1.0, K, [2, 4], defect_threshold=threshold
            )

    def test_index_order_changes_nothing(self):
        # the defect gate is taken at the largest index, and the series runs
        # in increasing k, whatever the order of ks
        seq = TruncationSequence(build_named_example("decay").model, gnr_anchor=1j)
        K = region_with_step(0.0, 3.0, 0.1, 1.5, 0.1)
        up = convergence_study(seq, 1.0, K, [2, 32])
        down = convergence_study(seq, 1.0, K, [32, 2])
        assert up.passed and down.passed
        assert up.budget["defect_at_last_k"] == down.budget["defect_at_last_k"]
        assert up.to_json() == down.to_json()

    def test_reports_reproduce_bit_for_bit(self):
        K = region_with_step(1.0, 7.0, -1.5, 1.5, 0.1)
        a = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4])
        b = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [2, 4])
        assert a.to_json() == b.to_json()


class TestCounterexampleKStudy:
    K = region_with_step(3.0, 8.0, -2.0, 2.0, 0.05)

    def test_shrink_keeps_the_gap(self):
        rep = counterexample_K_study(2.0, 6.0, 1.0, self.K, [2, 8, 32, 64], "shrink")
        assert rep.passed
        assert rep.budget["d0"] == pytest.approx(2.0)
        for _, d in rep.series:
            assert d >= 2.0 - 0.1

    def test_grow_keeps_the_gap(self):
        rep = counterexample_K_study(2.0, 6.0, 1.0, self.K, [2, 8, 32, 64], "grow")
        assert rep.passed
        for _, d in rep.series:
            assert d >= 2.0 - 0.1

    def test_control_window_converges(self):
        K = region_with_step(0.5, 8.0, -2.0, 2.0, 0.05)
        rep = convergence_study(DIAG_EX.sequences["shrink"], 1.0, K, [4, 8, 16, 32])
        assert rep.passed
        assert rep.series[-1][1] <= 0.15

    def test_touch_geometry_enforced(self):
        with pytest.raises(ConfigurationError):
            counterexample_K_study(
                2.0, 6.0, 1.0, region_with_step(3.5, 8.0, -2.0, 2.0, 0.05), [2], "shrink"
            )

    def test_second_ball_must_fit(self):
        with pytest.raises(ConfigurationError):
            counterexample_K_study(
                2.0, 6.0, 1.0, region_with_step(3.0, 6.0, -2.0, 2.0, 0.05), [2], "shrink"
            )

    def test_touch_point_must_be_on_lattice(self):
        off = region_with_step(3.0, 8.0, -1.98, 2.02, 0.05)
        with pytest.raises(ConfigurationError):
            counterexample_K_study(2.0, 6.0, 1.0, off, [2], "shrink")

    def test_eigenvalue_order_enforced(self):
        with pytest.raises(ConfigurationError):
            counterexample_K_study(6.0, 2.0, 1.0, self.K, [2], "shrink")

    def test_direction_validated(self):
        with pytest.raises(ConfigurationError):
            counterexample_K_study(2.0, 6.0, 1.0, self.K, [2], "sideways")


class TestCounterexampleConstStudy:
    K = region_with_step(-0.4, 2.2, -0.4, 0.4, 0.05)

    def test_scaled_families_fill_the_window(self):
        rep = counterexample_const_study([2, 4, 8], self.K)
        assert rep.passed
        mins = dict(rep.series)
        assert mins[2.0] >= 2.0 * (1.0 - 1e-9)
        for k in (2.0, 4.0, 8.0):
            assert mins[k] >= (1.0 - 1.0 / k) ** -1 * (1.0 - 1e-9)

    def test_window_must_straddle_the_disc(self):
        with pytest.raises(ConfigurationError):
            counterexample_const_study([2], region_with_step(-0.3, 0.3, -0.3, 0.3, 0.05))
        with pytest.raises(ConfigurationError):
            counterexample_const_study([2], region_with_step(1.0, 2.0, 0.0, 1.0, 0.05))

    def test_mask_distance_reflects_the_disc_radius(self):
        # the k=2 closed mask covers the window; the limit's closure proxy
        # stays off the disc, so the distance is at least the disc radius
        field2 = compute_norm_field(scale_operator(SHARG, 0.5), self.K)
        full = MaskSet.from_level_set(level_set(field2, 1.0, "closed_Sigma"))
        assert full.size == self.K.nx * self.K.ny
        limit_field = compute_norm_field(SHARG, self.K)
        open_mask = level_set(limit_field, 1.0, "open_sigma").mask
        proxy = MaskSet(self.K, dilate_one_cell(open_mask))
        d = hausdorff_distance(full, proxy)
        assert d >= 0.5 - 0.05

    def test_unscaled_control_agrees_on_the_disc(self):
        grid = self.K.lattice()
        inside = np.abs(grid) < 0.5
        a = level_set(compute_norm_field(SHARG, self.K), 1.0, "open_sigma").mask
        b = level_set(
            compute_norm_field(scale_operator(SHARG, 1.0), self.K), 1.0, "open_sigma"
        ).mask
        assert not (a & inside).any()
        assert not (b & inside).any()


class TestGlobalMinScan:
    def test_constant_family_never_dips(self):
        rep = global_min_scan(SHARG, region_with_step(-4.0, 4.0, -4.0, 4.0, 0.1), 1, 1.0)
        assert rep.passed
        assert abs(rep.series[0][1] - 1.0) <= 1e-9

    def test_power_scan_on_the_four_by_four_family(self):
        remark = build_named_example("remark_n1").model
        rep = global_min_scan(remark, region_with_step(-0.5, 0.5, -0.5, 0.5, 0.1), 2, 1.0)
        assert rep.passed

    def test_diagonal_matrix_trivial_floor(self):
        model = DenseOperator(np.diag([2.0, 6.0]))
        rep = global_min_scan(model, region_with_step(0.0, 8.0, -2.0, 2.0, 0.1), 1, 0.1)
        assert rep.passed
        assert rep.series[0][1] == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-12)

    def test_power_must_be_a_power_of_two(self):
        region = region_with_step(0.0, 1.0, 0.0, 1.0, 0.5)
        model = DenseOperator(np.diag([2.0, 6.0]))
        with pytest.raises(ConfigurationError):
            global_min_scan(model, region, 3, 0.1)
        with pytest.raises(ConfigurationError):
            global_min_scan(model, region, 0, 0.1)


class TestConstantRegionScan:
    def test_membership_predicate(self):
        assert in_constant_region(0.0)
        assert in_constant_region(0.49j)
        assert not in_constant_region(0.5)
        assert in_constant_region(2.0 * np.exp(1j * PHI))
        assert not in_constant_region(1.2 * np.exp(1j * PHI))  # below r0 = 1.236
        assert in_constant_region(1.5j)  # cos(2 phi) = -1, r0 = 1

    def test_membership_of_a_point_whose_modulus_overflows(self):
        # abs() raises OverflowError here; the wedge holds it
        assert in_constant_region(complex(-1.7e308, 1.7e308))
        assert not in_constant_region(complex(1.7e308, 1.7e308))

    def test_disc_probes_pass(self):
        rng = np.random.default_rng(0)
        pts = 0.45 * np.sqrt(rng.random(25)) * np.exp(2j * math.pi * rng.random(25))
        rep = constant_region_scan(SHARG, pts, 1.0, 1e-9)
        assert rep.passed
        assert len(rep.series) == 25

    def test_wedge_probes_pass(self):
        probes = [r * np.exp(1j * PHI) for r in (2.0, 5.0, 10.0)]
        rep = constant_region_scan(SHARG, probes, 1.0, 1e-9)
        assert rep.passed
        for _, v in rep.series:
            assert abs(v - 1.0) <= 1e-9

    def test_nonconstant_family_fails_strictly_above(self):
        nonc = build_named_example("nonconstant").model
        probes = [r * np.exp(1j * PHI) for r in (2.0, 5.0, 10.0)] + [0.2, 0.3j]
        rep = constant_region_scan(nonc, probes, 1.0, 1e-9)
        assert not rep.passed
        assert all(v > 1.0 for _, v in rep.series)

    def test_outside_probes_skipped_not_failed(self):
        rep = constant_region_scan(SHARG, [2.0, 0.2], 1.0, 1e-9)
        assert rep.passed
        assert len(rep.series) == 1
        assert any("skipped" in s for s in rep.notes)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_non_finite_probe_is_refused(self, bad, monkeypatch):
        # it used to be skipped as outside the region, for a verdict of fail
        def evaluated(*args):
            raise AssertionError("a probe was evaluated")

        monkeypatch.setattr(experiments, "resolvent_power_norms", evaluated)
        with pytest.raises(ConfigurationError, match="finite"):
            constant_region_scan(SHARG, [0.2, bad], 1.0, 1e-9)

    def test_all_probes_outside_fails(self):
        rep = constant_region_scan(SHARG, [2.0, 3.0], 1.0, 1e-9)
        assert not rep.passed

    def test_uncertified_value_fails_closed(self, monkeypatch):
        # an uncertified lower bound that equals M proves nothing about M
        fake = ResolventValues(
            np.array([1.0]), np.array([0.25]),
            np.array([False]), np.array([64]),
        )
        monkeypatch.setattr(experiments, "resolvent_power_norms", lambda model, zs, n: fake)
        rep = constant_region_scan(SHARG, [0.2], 1.0, 1e-9)
        assert rep.verdict == "fail"
        assert any("uncertified (tail gap 0.25)" in s for s in rep.notes)


class TestStudiesCallTheEngineOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        engine = experiments.resolvent_power_norms

        def counted(model, zs, n, **kwargs):
            seen.append(len(zs))
            return engine(model, zs, n, **kwargs)

        monkeypatch.setattr(experiments, "resolvent_power_norms", counted)
        return seen

    def test_decay_study(self, calls):
        decay_study(0.5, PHI, list(np.geomspace(10.0, 100.0, 7)), False)
        assert calls == [7]

    def test_constant_region_scan(self, calls):
        # the probe at 2 lies outside the region and is not evaluated
        constant_region_scan(SHARG, [0.2, 2.0, 0.3j, -0.25 + 0.1j], 1.0, 1e-9)
        assert calls == [3]


class TestDecayStudy:
    RS = list(np.geomspace(10.0, 100.0, 7))

    def test_dense_grid_passes(self):
        rep = decay_study(0.5, PHI, self.RS, True)
        assert rep.passed
        assert not any("differ" in s for s in rep.notes)

    def test_sparse_grid_passes_without_settle_requirement(self):
        rep = decay_study(0.5, PHI, self.RS, False)
        assert rep.passed
        assert rep.budget["settle_tol"] is None

    def test_radii_must_span_a_decade(self):
        with pytest.raises(ConfigurationError):
            decay_study(0.5, PHI, [10.0, 30.0, 90.0], True)

    def test_phi_on_the_real_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            decay_study(0.5, 0.0, self.RS, True)
        with pytest.raises(ConfigurationError):
            decay_study(0.5, math.pi, self.RS, True)

    def test_beta_range_enforced(self):
        with pytest.raises(ConfigurationError):
            decay_study(1.5, PHI, self.RS, True)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("phi", [0.3, math.pi / 4, PHI, 1.5, 2.8])
    def test_closed_form_maximizer(self, beta, phi):
        # cos(2 phi) > 0, = 0 and < 0 take both forms of the root
        for r in (10.0, 31.6, 100.0):
            mu = experiments._decay_maximizer(beta, r, phi)
            trio = np.array([mu * (1 - 1e-4), mu, mu * (1 + 1e-4)])
            near = experiments._decay_gain(beta, r, phi, trio)
            assert near[1] > near[0] and near[1] > near[2]
            grid = np.geomspace(mu / 4.0, mu * 4.0, 200001)
            best = grid[np.argmax(experiments._decay_gain(beta, r, phi, grid))]
            assert best == pytest.approx(mu, rel=2e-5)


class TestEmptyResolventProbe:
    def test_weyl_bounds_and_growth(self):
        family = build_named_example("empty_resolvent").model
        rep = empty_resolvent_probe(family, 2j, [25, 100])
        assert rep.passed
        values = dict(rep.series)
        assert values[25.0] >= math.sqrt(26.0**2 + 4.0) / 5.0 - 1e-9
        assert values[100.0] >= math.sqrt(101.0**2 + 4.0) / 5.0 - 1e-9
        assert 3.5 <= values[100.0] / values[25.0] <= 4.3

    def test_series_are_the_truncation_norms_to_a_few_ulp(self):
        # the block engine against an SVD of the dense 2N-dim truncation;
        # consecutive blocks of the inverse differ in norm by about 1/N
        # relative, so its top singular values nearly coincide
        family = build_named_example("empty_resolvent").model
        for lam in (2j, 3.0 + 3.0j):
            rep = empty_resolvent_probe(family, lam, [25, 100])
            for N, value in rep.series:
                matrix = assemble_truncation(family, int(N)).matrix
                want = resolvent_power_norm_oracle(matrix, lam, 0)
                assert value == pytest.approx(want, rel=4 * np.finfo(float).eps)

    def test_degenerate_lambda_skips_the_bound(self):
        family = build_named_example("empty_resolvent").model
        rep = empty_resolvent_probe(family, 1.0, [5, 20])
        assert any("skipped" in s for s in rep.notes)

    def test_other_ray_passes(self):
        family = build_named_example("empty_resolvent").model
        rep = empty_resolvent_probe(family, 3.0 + 3.0j, [25, 100])
        assert rep.passed

    def test_wrong_family_rejected(self):
        with pytest.raises(ConfigurationError):
            empty_resolvent_probe(SHARG, 2j, [25, 100])
