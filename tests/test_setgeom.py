"""Hausdorff distance and neighborhoods on lattice masks."""
import math

import numpy as np
import pytest

from pseudolab import (
    DomainError,
    GridRegion,
    MaskSet,
    delta_neighborhood,
    hausdorff_distance,
    region_with_step,
)
from pseudolab.setgeom import _directed_on_lattice, _min_dists_brute


def random_mask(rng, region, density=0.2) -> MaskSet:
    mask = rng.random((region.nx, region.ny)) < density
    if not mask.any():
        mask[int(rng.integers(region.nx)), int(rng.integers(region.ny))] = True
    return MaskSet(region, mask)


def disc_mask(region, center, radius) -> MaskSet:
    return MaskSet(region, np.abs(region.lattice() - center) <= radius)


def cell_mask(region, *cells) -> MaskSet:
    """The mask whose members are the lattice cells (i, j) given."""
    mask = np.zeros((region.nx, region.ny), dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    return MaskSet(region, mask)


REGION = region_with_step(-1.0, 5.0, -1.0, 5.0, 0.5)


class TestMaskSet:
    def test_points_are_member_coordinates(self):
        s = cell_mask(REGION, (2, 2), (8, 10))
        assert s.size == 2
        assert sorted(s.points().tolist(), key=abs) == [0.0, 3.0 + 4.0j]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MaskSet(REGION, np.ones((2, 2), dtype=bool))


class TestHausdorffDistance:
    def test_singletons(self):
        a = cell_mask(REGION, (2, 2))
        b = cell_mask(REGION, (8, 10))
        assert hausdorff_distance(a, b) == 5.0

    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = random_mask(rng, REGION)
            assert hausdorff_distance(s, s) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        region = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.1)
        for _ in range(10):
            a = random_mask(rng, region)
            b = random_mask(rng, region)
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_offset_discs(self):
        region = region_with_step(0.5, 4.0, -1.5, 1.5, 0.05)
        a = disc_mask(region, 2.0, 1.0)
        b = disc_mask(region, 2.5, 1.0)
        assert abs(hausdorff_distance(a, b) - 0.5) <= 0.05

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        region = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.2)
        for _ in range(100):
            a = random_mask(rng, region)
            b = random_mask(rng, region)
            c = random_mask(rng, region)
            d_ac = hausdorff_distance(a, c)
            d_ab = hausdorff_distance(a, b)
            d_bc = hausdorff_distance(b, c)
            assert d_ac <= d_ab + d_bc + 1e-12

    def test_empty_side_named(self):
        full = cell_mask(REGION, (2, 2))
        empty = MaskSet(REGION, np.zeros((REGION.nx, REGION.ny), dtype=bool))
        with pytest.raises(DomainError, match="first"):
            hausdorff_distance(empty, full)
        with pytest.raises(DomainError, match="second"):
            hausdorff_distance(full, empty)


class TestDeltaNeighborhood:
    def test_unit_disc_around_origin(self):
        region = region_with_step(-2.0, 2.0, -2.0, 2.0, 0.5)
        s = cell_mask(region, (4, 4))
        nb = delta_neighborhood(s, 1.0)
        want = np.abs(region.lattice()) <= 1.0
        assert np.array_equal(nb.mask, want)

    def test_nested_in_delta(self):
        rng = np.random.default_rng(6)
        region = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.1)
        s = random_mask(rng, region)
        small = delta_neighborhood(s, 0.3)
        large = delta_neighborhood(s, 0.7)
        assert not (small.mask & ~large.mask).any()

    def test_neighborhood_within_delta_of_set(self):
        rng = np.random.default_rng(7)
        region = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.1)
        for _ in range(20):
            s = random_mask(rng, region)
            delta = float(rng.uniform(0.15, 1.0))
            nb = delta_neighborhood(s, delta)
            assert hausdorff_distance(s, nb) <= delta

    def test_mutual_inclusion_bounds_hausdorff(self):
        rng = np.random.default_rng(8)
        region = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.2)
        hits = 0
        for _ in range(30):
            a = random_mask(rng, region)
            b = random_mask(rng, region)
            delta = float(rng.uniform(0.2, 2.5))
            a_in = not (a.mask & ~delta_neighborhood(b, delta).mask).any()
            b_in = not (b.mask & ~delta_neighborhood(a, delta).mask).any()
            if a_in and b_in:
                hits += 1
                assert hausdorff_distance(a, b) <= delta
        assert hits >= 5  # the property must actually have been exercised

    def test_empty_mask_rejected(self):
        empty = MaskSet(REGION, np.zeros((REGION.nx, REGION.ny), dtype=bool))
        with pytest.raises(DomainError):
            delta_neighborhood(empty, 0.5)

    def test_bad_delta_rejected(self):
        s = cell_mask(REGION, (2, 2))
        with pytest.raises(DomainError):
            delta_neighborhood(s, 0.0)


def brute_hausdorff(a: MaskSet, b: MaskSet) -> float:
    pa, pb = a.points(), b.points()
    return max(
        float(_min_dists_brute(pa, pb).max()), float(_min_dists_brute(pb, pa).max())
    )


def brute_neighborhood(a: MaskSet, delta: float) -> np.ndarray:
    dists = _min_dists_brute(a.region.lattice().ravel(), a.points())
    return (dists <= delta).reshape(a.mask.shape)


# square and hx != hy lattices, near the origin and far from it
TRANSFORM_REGIONS = [
    GridRegion(-2.0, 2.0, -2.0, 2.0, 41, 41),
    GridRegion(-1.0, 2.0, 0.5, 1.3, 31, 17),
    GridRegion(1e3, 1e3 + 3.0, -2.0, -1.5, 23, 37),
    GridRegion(-1e6, -1e6 + 0.7, 1e6, 1e6 + 0.9, 19, 26),
]
REGION_IDS = ["square", "hx-ne-hy", "re-min-1e3", "far-1e6"]


class TestTransformMatchesBruteForce:
    """The lattice transform route returns the brute-force floats bit for bit."""

    @pytest.mark.parametrize("density", [0.02, 0.2, 0.9])
    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_random_masks(self, region, density):
        rng = np.random.default_rng(40)
        for _ in range(4):
            a = random_mask(rng, region, density)
            b = random_mask(rng, region, density)
            assert hausdorff_distance(a, b) == brute_hausdorff(a, b)

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_single_member_and_identical(self, region):
        rng = np.random.default_rng(41)
        one = cell_mask(region, (region.nx - 1, 0))
        for density in (0.02, 0.9):
            s = random_mask(rng, region, density)
            assert hausdorff_distance(s, one) == brute_hausdorff(s, one)
            assert hausdorff_distance(s, s) == 0.0
        full = MaskSet(region, np.ones((region.nx, region.ny), dtype=bool))
        assert hausdorff_distance(one, full) == brute_hausdorff(one, full)

    @pytest.mark.parametrize("density", [0.02, 0.2, 0.9])
    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_neighborhood_at_lattice_distances(self, region, density):
        rng = np.random.default_rng(42)
        s = random_mask(rng, region, density)
        diagonal = math.hypot(region.hx, region.hy)
        for h in (region.hx, region.hy):
            for delta in (h, math.hypot(h, h), 2.0 * h, diagonal):
                got = delta_neighborhood(s, delta).mask
                assert np.array_equal(got, brute_neighborhood(s, delta))

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_neighborhood_of_single_member(self, region):
        one = cell_mask(region, (region.nx // 2, 1))
        for delta in (region.hx, 3.5 * region.hy, 1e9):
            got = delta_neighborhood(one, delta).mask
            assert np.array_equal(got, brute_neighborhood(one, delta))

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_nested_masks(self, region):
        rng = np.random.default_rng(44)
        for density in (0.02, 0.2, 0.9):
            a = random_mask(rng, region, density)
            b = MaskSet(region, a.mask | (rng.random(a.mask.shape) < 0.1))
            # no query cell lies outside the targets: 0 without a row minimum
            assert _directed_on_lattice(region, a.mask, b.mask) == 0.0
            assert hausdorff_distance(a, b) == brute_hausdorff(a, b)

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_thin_rings(self, region):
        centre = region.lattice()[region.nx // 2, region.ny // 2]
        step = max(region.hx, region.hy)
        radius = 0.3 * min(region.re_max - region.re_min, region.im_max - region.im_min)
        inner = disc_mask(region, centre, radius)
        outer = disc_mask(region, centre, radius + step)
        assert hausdorff_distance(inner, outer) == brute_hausdorff(inner, outer)
        ring = MaskSet(region, outer.mask & ~inner.mask)
        wide = disc_mask(region, centre, radius + 2.0 * step)
        wider = MaskSet(region, wide.mask & ~inner.mask)
        assert hausdorff_distance(ring, wider) == brute_hausdorff(ring, wider)
        assert hausdorff_distance(ring, inner) == brute_hausdorff(ring, inner)

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_queries_in_columns_without_targets(self, region):
        rng = np.random.default_rng(45)
        for _ in range(3):
            a = random_mask(rng, region, 0.2)
            targets = rng.random(a.mask.shape) < 0.3
            targets[:, region.ny // 3 :] = False
            targets[0, 0] = True
            b = MaskSet(region, targets)
            assert hausdorff_distance(a, b) == brute_hausdorff(a, b)

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_hausdorff_disjoint_halves(self, region):
        rows = np.zeros((region.nx, region.ny), dtype=bool)
        rows[: region.nx // 2] = True
        cols = np.zeros_like(rows)
        cols[:, : region.ny // 2] = True
        corner = cell_mask(region, (region.nx - 1, region.ny - 1))
        for half in (rows, cols):
            a, b = MaskSet(region, half), MaskSet(region, ~half)
            assert hausdorff_distance(a, b) == brute_hausdorff(a, b)
            assert hausdorff_distance(a, corner) == brute_hausdorff(a, corner)

    def test_directed_distance_off_the_query_column(self):
        # q1's nearest target lies 5 columns away, inside the reach that
        # both queries' own-column targets (6 rows away) set; q2's, at
        # sqrt(29) steps, is the directed distance
        region = TRANSFORM_REGIONS[0]
        queries = cell_mask(region, (10, 20), (30, 20))
        targets = cell_mask(region, (16, 20), (10, 25), (36, 20), (35, 22))
        want = float(_min_dists_brute(queries.points(), targets.points()).max())
        assert want == abs(region.point(30, 20) - region.point(35, 22))
        assert _directed_on_lattice(region, queries.mask, targets.mask) == want

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_neighborhood_at_sqrt5_and_sqrt8_steps(self, region):
        rng = np.random.default_rng(46)
        for density in (0.02, 0.2):
            s = random_mask(rng, region, density)
            for h in (region.hx, region.hy):
                for delta in (math.sqrt(5.0) * h, math.sqrt(8.0) * h):
                    got = delta_neighborhood(s, delta).mask
                    assert np.array_equal(got, brute_neighborhood(s, delta))

    @pytest.mark.parametrize("region", TRANSFORM_REGIONS, ids=REGION_IDS)
    def test_neighborhood_over_half_the_window(self, region):
        # the reach spans half a lattice row or more: whole-row minima
        rng = np.random.default_rng(47)
        one = cell_mask(region, (region.nx // 2, region.ny // 2))
        height = region.im_max - region.im_min
        for s in (one, random_mask(rng, region, 0.02)):
            for delta in (0.5 * height, 0.5 * (region.re_max - region.re_min), height):
                got = delta_neighborhood(s, delta).mask
                assert np.array_equal(got, brute_neighborhood(s, delta))

    def test_different_regions_take_the_brute_route(self):
        rng = np.random.default_rng(43)
        coarse = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.2)
        fine = region_with_step(-1.0, 1.0, -1.0, 1.0, 0.1)
        a = random_mask(rng, coarse, 0.3)
        b = random_mask(rng, fine, 0.3)
        assert hausdorff_distance(a, b) == brute_hausdorff(a, b)
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


# windows whose squared step underflows (to 0 or to a subnormal) or whose
# squared diagonal overflows, on one axis or both
EXTREME_REGIONS = [
    GridRegion(0.0, 1e-300, 0.0, 1e-300, 5, 6),
    GridRegion(0.0, 1e-155, 0.0, 1e-155, 5, 6),
    GridRegion(0.0, 1.0, 0.0, 1e-300, 7, 6),
    GridRegion(-1e300, 1e300, -1e300, 1e300, 5, 6),
]
EXTREME_IDS = ["step-1e-300", "subnormal-step-squared", "flat-im", "diagonal-overflows"]


class TestExtremeWindows:
    """Windows outside the transform's range take the brute-force loop."""

    @pytest.mark.parametrize("region", EXTREME_REGIONS, ids=EXTREME_IDS)
    def test_hausdorff(self, region):
        rng = np.random.default_rng(48)
        one = cell_mask(region, (1, 2))
        far = cell_mask(region, (region.nx - 1, region.ny - 1), (0, 0))
        assert hausdorff_distance(one, far) == brute_hausdorff(one, far)
        for density in (0.2, 0.6):
            a, b = random_mask(rng, region, density), random_mask(rng, region, density)
            assert hausdorff_distance(a, b) == brute_hausdorff(a, b)
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    @pytest.mark.parametrize("region", EXTREME_REGIONS, ids=EXTREME_IDS)
    def test_neighborhood(self, region):
        rng = np.random.default_rng(49)
        one = cell_mask(region, (1, 2))
        for s in (one, random_mask(rng, region, 0.2)):
            for delta in (1e-301, region.hx, region.hy, 2.0 * region.hx, 1e300):
                got = delta_neighborhood(s, delta).mask
                assert np.array_equal(got, brute_neighborhood(s, delta))
                assert (got >= s.mask).all()  # every member is in its neighborhood
