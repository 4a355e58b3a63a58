"""Grid fields, level-set masks, closure checks, CSV round-trips."""
import io
import math

import numpy as np
import pytest

from pseudolab import (
    ConfigurationError,
    DenseOperator,
    DomainError,
    GridRegion,
    NormField,
    assumption_i_check,
    build_named_example,
    compute_norm_field,
    level_set,
    read_field_csv,
    read_mask_csv,
    region_with_step,
    write_field_csv,
    write_mask_csv,
)
from pseudolab.pseudospectra import dilate_one_cell

DIAG26 = DenseOperator(np.diag([2.0, 6.0]))
SHARG = build_named_example("shargorodsky").model


def diag_field(region, n=0):
    return compute_norm_field(DIAG26, region, n)


class TestGridRegion:
    def test_lattice_points(self):
        r = GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3)
        assert r.hx == 1.0 and r.hy == 1.0
        assert r.point(0, 0) == 1.0 - 1.0j
        assert r.point(2, 1) == 3.0 + 0.0j
        assert r.point(6, 2) == 7.0 + 1.0j
        grid = r.lattice()
        assert grid.shape == (7, 3)
        assert grid[2, 1] == 3.0 + 0.0j

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridRegion(2.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ConfigurationError):
            GridRegion(0.0, 1.0, 1.0, 1.0, 5, 5)
        with pytest.raises(ConfigurationError):
            GridRegion(0.0, 1.0, 0.0, 1.0, 1, 5)

    def test_index_bounds(self):
        r = GridRegion(0.0, 1.0, 0.0, 1.0, 3, 3)
        with pytest.raises(DomainError):
            r.point(3, 0)

    def test_region_with_step(self):
        r = region_with_step(1.0, 7.0, -1.5, 1.5, 0.05)
        assert (r.nx, r.ny) == (121, 61)
        assert r.hx == pytest.approx(0.05, rel=1e-12)
        with pytest.raises(ConfigurationError):
            region_with_step(0.0, 1.0, 0.0, 1.03, 0.05)


class TestNormFieldType:
    def test_shape_mismatch(self):
        r = GridRegion(0.0, 1.0, 0.0, 1.0, 3, 3)
        with pytest.raises(DomainError):
            NormField(r, 0, np.ones((3, 4)))

    def test_nonpositive_value_rejected(self):
        r = GridRegion(0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(DomainError):
            NormField(r, 0, np.zeros((2, 2)))

    def test_inf_allowed(self):
        r = GridRegion(0.0, 1.0, 0.0, 1.0, 2, 2)
        vals = np.array([[1.0, math.inf], [2.0, 3.0]])
        assert math.isinf(NormField(r, 0, vals).values[0, 1])


class TestComputeNormField:
    def test_diag_pair_window(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3))
        assert field.values[2, 1] == 1.0  # z = 3
        assert math.isinf(field.values[1, 1])  # z = 2
        assert field.values[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_constant_norm_window(self):
        field = compute_norm_field(SHARG, GridRegion(-0.4, 0.4, -0.4, 0.4, 9, 9))
        assert np.all(np.abs(field.values - 1.0) <= 1e-9)

    def test_decay_along_ray(self):
        model = build_named_example("decay").model
        r10 = 10.0 * np.exp(1j * math.pi / 3.0)
        r100 = 100.0 * np.exp(1j * math.pi / 3.0)
        region = GridRegion(r10.real, r100.real, r10.imag, r100.imag, 2, 2)
        field = compute_norm_field(model, region)
        ratio = field.values[1, 1] / field.values[0, 0]
        assert abs(ratio - 10.0 ** (-2.0 / 3.0)) <= 0.15 * 10.0 ** (-2.0 / 3.0)

    def test_determinism_across_calls(self):
        region = GridRegion(0.5, 4.0, -1.0, 1.0, 9, 5)
        a = compute_norm_field(SHARG, region)
        b = compute_norm_field(SHARG, region)
        assert np.array_equal(a.values, b.values)


class TestLevelSet:
    def test_diag_open_mask_is_the_union_of_balls(self):
        region = region_with_step(1.0, 7.0, -1.0, 1.0, 0.25)
        field = diag_field(region)
        mask = level_set(field, 1.0, "open_sigma").mask
        grid = region.lattice()
        want = np.minimum(np.abs(grid - 2.0), np.abs(grid - 6.0)) < 1.0
        assert np.array_equal(mask, want)

    def test_closed_mask_uses_nonstrict_inequality(self):
        region = region_with_step(1.0, 7.0, -1.0, 1.0, 0.25)
        field = diag_field(region)
        closed = level_set(field, 1.0, "closed_Sigma").mask
        grid = region.lattice()
        want = np.minimum(np.abs(grid - 2.0), np.abs(grid - 6.0)) <= 1.0
        assert np.array_equal(closed, want)
        assert closed[0, 4] and closed[8, 4]  # z = 1 and z = 3 sit on the circle

    def test_open_subset_of_closed(self):
        for eps in (0.5, 1.0, 2.0):
            field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 13, 5))
            o = level_set(field, eps, "open_sigma").mask
            c = level_set(field, eps, "closed_Sigma").mask
            assert not (o & ~c).any()

    def test_infinite_cell_in_both(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3))
        assert math.isinf(field.values[1, 1])
        for strictness in ("open_sigma", "closed_Sigma"):
            assert level_set(field, 0.01, strictness).mask[1, 1]

    def test_constant_window_masks(self):
        field = compute_norm_field(SHARG, GridRegion(-0.4, 0.4, -0.4, 0.4, 9, 9))
        assert not level_set(field, 1.0, "open_sigma").mask.any()
        assert level_set(field, 1.0, "closed_Sigma").mask.all()

    def test_epsilon_monotone(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 25, 9))
        for strictness in ("open_sigma", "closed_Sigma"):
            prev = None
            for eps in (0.3, 0.7, 1.1, 2.5):
                cur = level_set(field, eps, strictness).mask
                if prev is not None:
                    assert not (prev & ~cur).any()
                prev = cur

    def test_normal_collapse_masks_equal_across_n(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        q = np.eye(4) - 2.0 * np.outer(v, v.conj())  # unitary reflection
        normal = DenseOperator(q @ np.diag([2.0, 6.0, 4.0 + 1.0j, 5.0]) @ q.conj().T)
        region = GridRegion(1.0, 7.0, -1.0, 1.0, 13, 5)
        masks = [
            level_set(compute_norm_field(normal, region, n), 0.9, "open_sigma").mask
            for n in range(3)
        ]
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_refinement_keeps_interior_cells(self):
        coarse = region_with_step(1.0, 7.0, -1.0, 1.0, 0.25)
        fine = region_with_step(1.0, 7.0, -1.0, 1.0, 0.125)
        cm = level_set(diag_field(coarse), 1.0, "open_sigma").mask
        fm = level_set(diag_field(fine), 1.0, "open_sigma").mask
        assert np.array_equal(fm[::2, ::2], cm)

    def test_strictness_validated(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 3, 3))
        with pytest.raises(ConfigurationError):
            level_set(field, 1.0, "sigma")
        with pytest.raises(DomainError):
            level_set(field, 0.0, "open_sigma")


class TestAssumptionCheck:
    def test_balls_interior_to_window_hold(self):
        field = diag_field(region_with_step(1.0, 7.0, -1.5, 1.5, 0.05))
        res = assumption_i_check(field, 1.0)
        assert res.holds_at_resolution
        assert res.witness is None
        assert res.hx == pytest.approx(0.05)

    def test_window_touching_the_ball_fails_at_the_contact_point(self):
        field = diag_field(region_with_step(3.0, 8.0, -2.0, 2.0, 0.05))
        res = assumption_i_check(field, 1.0)
        assert not res.holds_at_resolution
        assert res.witness == (0, 40)
        assert res.witness_z == 3.0 + 0.0j

    def test_empty_window_fails_without_witness(self):
        field = diag_field(GridRegion(20.0, 21.0, 0.0, 1.0, 5, 5))
        res = assumption_i_check(field, 1.0)
        assert not res.holds_at_resolution
        assert res.witness is None

    def test_constant_window_fails(self):
        # closed mask is the full window, open mask is empty
        field = compute_norm_field(SHARG, GridRegion(-0.4, 0.4, -0.4, 0.4, 9, 9))
        res = assumption_i_check(field, 1.0)
        assert not res.holds_at_resolution
        assert res.witness == (0, 0)

    def test_dilation_includes_diagonal_neighbors(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        d = dilate_one_cell(m)
        assert d.sum() == 9 and d[1, 1] and d[3, 3] and not d[0, 0]


class TestCsvRoundTrip:
    def test_field_round_trip_with_inf(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3))
        buf = io.StringIO()
        write_field_csv(field, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "re,im,value"
        assert ",inf" in text
        back = read_field_csv(io.StringIO(text))
        assert back.region == field.region
        assert np.array_equal(back.values, field.values)

    def test_mask_round_trip(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 13, 5))
        mask = level_set(field, 1.0, "closed_Sigma")
        buf = io.StringIO()
        write_mask_csv(mask, buf)
        back = read_mask_csv(io.StringIO(buf.getvalue()))
        assert back.region == mask.region
        assert np.array_equal(back.mask, mask.mask)

    def test_row_major_order_real_axis_outer(self):
        field = diag_field(GridRegion(1.0, 2.0, 0.0, 1.0, 2, 2))
        buf = io.StringIO()
        write_field_csv(field, buf)
        rows = [line.split(",")[:2] for line in buf.getvalue().splitlines()[1:]]
        assert [(float(a), float(b)) for a, b in rows] == [
            (1.0, 0.0),
            (1.0, 1.0),
            (2.0, 0.0),
            (2.0, 1.0),
        ]

    def test_rows_match_per_point_reference(self):
        region = GridRegion(-0.9, 1.3, -0.7, 0.9, 13, 11)
        field = diag_field(region)
        mask = level_set(field, 1.0, "closed_Sigma")
        want_field, want_mask = ["re,im,value"], ["re,im,member"]
        for i in range(region.nx):
            for j in range(region.ny):
                p = region.point(i, j)
                v = field.values[i, j]
                cell = "inf" if math.isinf(v) else repr(float(v))
                want_field.append(f"{p.real!r},{p.imag!r},{cell}")
                want_mask.append(f"{p.real!r},{p.imag!r},{int(mask.mask[i, j])}")
        for write, obj, want in ((write_field_csv, field, want_field),
                                 (write_mask_csv, mask, want_mask)):
            buf = io.StringIO()
            write(obj, buf)
            assert buf.getvalue() == "\n".join(want) + "\n"

    def test_first_off_grid_row_is_named(self):
        text = "re,im,value\n0,0,1\n0,1,1\n1,0,1\n1,1.5,1\n2,0,1\n2,7,1\n"
        with pytest.raises(ConfigurationError, match=r"^row 5: lattice point \(1.0,1.5\)"):
            read_field_csv(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigurationError):
            read_field_csv(io.StringIO("x,y,v\n0,0,1\n"))

    def test_bad_member_flag_rejected(self):
        text = "re,im,member\n0,0,1\n0,1,2\n1,0,0\n1,1,0\n"
        with pytest.raises(ConfigurationError):
            read_mask_csv(io.StringIO(text))

    def test_ragged_lattice_rejected(self):
        text = "re,im,value\n0,0,1\n0,1,1\n1,0,1\n"
        with pytest.raises(ConfigurationError):
            read_field_csv(io.StringIO(text))
