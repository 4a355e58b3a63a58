"""Acceptance gate: one test per release criterion, run with -v for a
pass/fail line each. Every expected value here is either a closed form
checked in the unit suites or an independently recomputed fit."""
import math

import numpy as np

from oracles import random_complex_matrix, singular_values_oracle
from pseudolab import (
    DenseOperator,
    GridRegion,
    MaskSet,
    assemble_truncation,
    build_named_example,
    compute_norm_field,
    convergence_study,
    counterexample_K_study,
    counterexample_const_study,
    decay_study,
    empty_resolvent_probe,
    global_min_scan,
    gnr_defect,
    expansion_residual,
    hausdorff_distance,
    largest_singular_value,
    level_set,
    power_diff_bound_check,
    region_with_step,
    resolvent_norm,
    smallest_singular_value,
    sv2x2,
)
from pseudolab.operators import TruncationSequence

SHARG = build_named_example("shargorodsky").model
DIAG_EX = build_named_example("diag_pair")


def _line(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")


def test_criterion_01_constant_window_and_truncation_value():
    region = GridRegion(-0.45, 0.45, -0.45, 0.45, 21, 21)
    field = compute_norm_field(SHARG, region)
    dev = float(np.max(np.abs(field.values - 1.0)))
    dense = assemble_truncation(SHARG, 200)
    val = resolvent_norm(dense, 0.0).value
    ok = dev <= 1e-6 and abs(val - 201.0 / 202.0) <= 1e-12
    _line(1, "constant window flat to 1e-6; N=200 value 201/202", ok)
    assert dev <= 1e-6
    assert abs(val - 201.0 / 202.0) <= 1e-12


def test_criterion_02_global_floor_and_power_variant():
    rep1 = global_min_scan(SHARG, region_with_step(-4.0, 4.0, -4.0, 4.0, 0.1), 1, 1.0)
    remark = build_named_example("remark_n1").model
    rep2 = global_min_scan(remark, region_with_step(-1.0, 1.0, -1.0, 1.0, 0.1), 2, 1.0)
    ok = (
        rep1.passed and rep2.passed
        and rep1.series[0][1] >= 1.0 - 1e-9
        and rep2.series[0][1] >= 1.0 - 1e-9
    )
    _line(2, "grid minima stay at the floor (l=1 and l=2)", ok)
    assert ok


def test_criterion_03_clipped_window_blocks_convergence():
    K = region_with_step(3.0, 8.0, -2.0, 2.0, 0.05)
    ks = list(range(2, 65))
    shrink = counterexample_K_study(2.0, 6.0, 1.0, K, ks, "shrink")
    grow = counterexample_K_study(2.0, 6.0, 1.0, K, ks, "grow")
    control = convergence_study(
        DIAG_EX.sequences["shrink"], 1.0,
        region_with_step(0.5, 8.0, -2.0, 2.0, 0.05), [4, 8, 16, 32],
    )
    floor_ok = all(d >= 2.0 - 0.1 for _, d in shrink.series + grow.series)
    ok = (
        shrink.passed and grow.passed and floor_ok
        and control.passed and control.series[-1][1] <= 0.15
    )
    _line(3, "distance floor 1.9 on the clipped window; control converges", ok)
    assert shrink.passed and grow.passed and floor_ok
    assert control.passed and control.series[-1][1] <= 0.15


def test_criterion_04_scaled_families_overfill_the_window():
    K = region_with_step(-0.4, 2.2, -0.4, 0.4, 0.05)
    rep = counterexample_const_study([2, 4, 8], K)
    mins = dict(rep.series)
    floors_ok = all(
        mins[float(k)] >= (1.0 - 1.0 / k) ** -1 * (1.0 - 1e-9) for k in (2, 4, 8)
    )
    open_mask = level_set(compute_norm_field(SHARG, K), 1.0, "open_sigma").mask
    inside = np.abs(K.lattice()) < 0.5
    disc_ok = not (open_mask & inside).any()
    ok = rep.passed and floors_ok and disc_ok
    _line(4, "scaled minima above (1-1/k)^-1; limit mask spares the disc", ok)
    assert ok


def test_criterion_05_truncations_converge_and_power_index_collapses():
    seq = TruncationSequence(build_named_example("decay").model, gnr_anchor=1j)
    K = region_with_step(0.0, 3.0, 0.1, 1.5, 0.02)
    rep = convergence_study(seq, 1.0, K, [4, 8, 16, 32])
    h = rep.budget["h"]
    vals = [d for _, d in rep.series]
    monotone_ok = all(b <= a + 2.0 * h for a, b in zip(vals, vals[1:]))
    defect_ok = gnr_defect(seq, 32) < gnr_defect(seq, 4) / 2.0
    ctrl = region_with_step(0.5, 8.0, -2.0, 2.0, 0.05)
    ks = [8, 16, 32, 64]
    scale0 = convergence_study(DIAG_EX.sequences["scale"], 1.0, ctrl, ks)
    scale1 = convergence_study(DIAG_EX.sequences["scale"], 1.0, ctrl, ks, n=1)
    same_ok = all(
        abs(a - b) <= 1e-8 for (_, a), (_, b) in zip(scale0.series, scale1.series)
    )
    ok = (
        rep.passed and monotone_ok and vals[-1] <= 3.0 * h
        and defect_ok and scale0.passed and scale1.passed and same_ok
    )
    _line(5, "truncation masks converge; defect halves; n=1 matches n=0", ok)
    assert rep.passed and monotone_ok and vals[-1] <= 3.0 * h
    assert defect_ok
    assert scale0.passed and scale1.passed and same_ok


def test_criterion_06_decay_exponent_along_the_ray():
    rs = np.geomspace(10.0, 100.0, 7).tolist()
    rep = decay_study(0.5, 2.0 * math.pi / 5.0, rs, True)
    slope = float(np.polyfit(
        np.log([r for r, _ in rep.series]), np.log([v for _, v in rep.series]), 1
    )[0])
    exp_note = next(s for s in rep.notes if s.startswith("maximizer exponent"))
    exp_fit = float(exp_note.split()[2])
    comp = [r ** (2.0 / 3.0) * v for r, v in rep.series]
    settle = abs(comp[-1] / comp[-2] - 1.0)
    ok = (
        rep.passed
        and abs(slope + 2.0 / 3.0) <= 0.05
        and abs(exp_fit - 4.0 / 3.0) <= 0.05
        and settle <= 0.02
    )
    _line(6, "slope -2/3, maximizer exponent 4/3, compensated tail settles", ok)
    assert ok


def test_criterion_07_truncation_norms_grow_like_the_weight():
    family = build_named_example("empty_resolvent").model
    rep = empty_resolvent_probe(family, 2j, [25, 100])
    values = dict(rep.series)
    bounds_ok = (
        values[25.0] >= math.sqrt(26.0**2 + 4.0) / 5.0 - 1e-9
        and values[100.0] >= math.sqrt(101.0**2 + 4.0) / 5.0 - 1e-9
    )
    ratio = values[100.0] / values[25.0]
    ok = rep.passed and bounds_ok and 3.5 <= ratio <= 4.3
    _line(7, "trial-vector bounds hold; norm ratio tracks the sizes", ok)
    assert ok


def test_criterion_08_resolvent_identities():
    rng = np.random.default_rng(46)
    checked = 0
    while checked < 20:
        model = DenseOperator(random_complex_matrix(rng, 5))
        lam0 = complex(rng.normal(scale=2), rng.normal(scale=2))
        r0 = resolvent_norm(model, lam0).value
        if not math.isfinite(r0):
            continue
        lam = lam0 + 0.2 / r0
        r_norm = resolvent_norm(model, lam).value
        for l in (2, 4, 8):
            assert expansion_residual(model, lam, lam0, l) <= 1e-10 * r_norm
        checked += 1
    checked = 0
    while checked < 20:
        model = DenseOperator(random_complex_matrix(rng, 4))
        lam = complex(rng.normal(scale=2), rng.normal(scale=2))
        c = resolvent_norm(model, lam).value
        if not math.isfinite(c):
            continue
        nu = lam + 0.4 / c
        for n in (1, 2):
            res = power_diff_bound_check(model, lam, nu, n)
            assert res.holds
        checked += 1
    _line(8, "series residual below 1e-10; power difference bound holds", True)


def test_criterion_09_kernels_match_the_svd_oracle():
    rng = np.random.default_rng(47)
    for _ in range(50):
        m = random_complex_matrix(rng, int(rng.integers(2, 11)))
        sv = singular_values_oracle(m)
        assert abs(largest_singular_value(m) - sv[0]) <= 1e-8 * sv[0]
        assert abs(smallest_singular_value(m) - sv[-1]) <= 1e-8 * max(sv[-1], 1e-300)
    for _ in range(100):
        m = random_complex_matrix(rng, 2)
        ext = sv2x2(m)
        assert abs(ext.sigma_max - largest_singular_value(m)) <= 1e-10 * max(1.0, ext.sigma_max)
        assert abs(ext.sigma_min - smallest_singular_value(m)) <= 1e-10 * max(1.0, ext.sigma_max)
    _line(9, "iterative kernels and 2x2 closed forms agree with the oracle", True)


def _random_mask_set(rng, region):
    while True:
        mask = rng.random((region.nx, region.ny)) < 0.2
        if mask.any():
            return MaskSet(region, mask)


def _brute_hausdorff(a: MaskSet, b: MaskSet) -> float:
    pa, pb = a.points(), b.points()
    d_ab = np.max(np.min(np.abs(pa[:, None] - pb[None, :]), axis=1))
    d_ba = np.max(np.min(np.abs(pb[:, None] - pa[None, :]), axis=1))
    return float(max(d_ab, d_ba))


def test_criterion_10_distance_laws_and_brute_force_oracle():
    rng = np.random.default_rng(48)
    region = GridRegion(-1.0, 1.0, -1.0, 1.0, 21, 21)
    for _ in range(100):
        a = _random_mask_set(rng, region)
        b = _random_mask_set(rng, region)
        c = _random_mask_set(rng, region)
        dab, dba = hausdorff_distance(a, b), hausdorff_distance(b, a)
        assert dab == dba
        assert hausdorff_distance(a, a) == 0.0
        dbc, dac = hausdorff_distance(b, c), hausdorff_distance(a, c)
        assert dac <= dab + dbc + 1e-12
        assert dab == _brute_hausdorff(a, b)
    _line(10, "symmetry, identity, triangle law, brute-force agreement", True)
