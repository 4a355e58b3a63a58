"""Grid fields, level-set masks, closure checks, CSV round-trips."""
import csv
import io
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudolab
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
from pseudolab.pseudospectra import READ_SLICE, LevelSetMask, dilate_one_cell

DIAG26 = DenseOperator(np.diag([2.0, 6.0]))
SHARG = build_named_example("shargorodsky").model


def diag_field(region, n=0):
    return compute_norm_field(DIAG26, region, n)


def per_point_csv(region, column, cell):
    """The CSV text a per-point writer gives: one f-string per lattice point."""
    lines = [f"re,im,{column}"]
    for i in range(region.nx):
        for j in range(region.ny):
            p = region.point(i, j)
            lines.append(f"{p.real!r},{p.imag!r},{cell(i, j)}")
    return "\n".join(lines) + "\n"


def field_cell(v):
    return "inf" if math.isinf(v) else repr(float(v))


def written(write, obj):
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


# window bounds with signed zeros, subnormals and huge values; spans from
# one ulp of the lower bound to about 1e300
BOUNDS = st.one_of(
    st.sampled_from([-0.0, 0.0, -5e-324, 1e-310, 1.0, -1e300]),
    st.floats(-1e300, 1e300),
)
SPANS = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-12, 1e300]), st.floats(5e-324, 1e300))
CELL_VALUES = st.one_of(
    st.sampled_from([math.inf, math.nan, 5e-324, 2.2e-308]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
)


@st.composite
def regions(draw):
    bounds = []
    for _ in range(2):
        lo, span = draw(BOUNDS), draw(SPANS)
        bounds += [lo, max(lo + span, math.nextafter(lo, math.inf))]
    return GridRegion(*bounds, draw(st.integers(2, 40)), draw(st.integers(2, 40)))


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
        assert written(write_field_csv, field) == per_point_csv(
            region, "value", lambda i, j: field_cell(field.values[i, j]))
        assert written(write_mask_csv, mask) == per_point_csv(
            region, "member", lambda i, j: int(mask.mask[i, j]))

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(region=regions(), data=st.data())
    def test_writers_match_per_point_reference(self, region, data):
        shape = (region.nx, region.ny)
        values = np.array(data.draw(st.lists(
            CELL_VALUES, min_size=region.nx * region.ny, max_size=region.nx * region.ny)))
        members = np.array(data.draw(st.lists(
            st.booleans(), min_size=values.size, max_size=values.size)))
        # write_field_csv reads only region and values, so nan cells, which
        # a NormField refuses, still exercise the cell format
        field = types.SimpleNamespace(region=region, values=values.reshape(shape))
        mask = LevelSetMask(region, 1.0, 0, "closed_Sigma", members.reshape(shape))
        assert written(write_field_csv, field) == per_point_csv(
            region, "value", lambda i, j: field_cell(field.values[i, j]))
        assert written(write_mask_csv, mask) == per_point_csv(
            region, "member", lambda i, j: int(mask.mask[i, j]))


def lattice_csv(nx, ny):
    return written(write_field_csv, NormField(
        GridRegion(0.0, 1.0, 0.0, 1.0, nx, ny), 0, np.ones((nx, ny))))


class TestCsvReaderEdges:
    def test_blank_lines_keep_their_line_numbers(self):
        text = "re,im,value\n0,0,1\n\n0,1,1\n\n1,0,x\n1,1,1\n"
        with pytest.raises(ConfigurationError, match=r"^line 6: malformed number$"):
            read_field_csv(io.StringIO(text))

    def test_blank_lines_between_rows_are_skipped(self):
        text = "re,im,value\n0,0,1\n\n0,1,2\n1,0,3\n\n\n1,1,4\n\n"
        back = read_field_csv(io.StringIO(text))
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_and_quoted_numbers_round_trip(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3))
        text = written(write_field_csv, field)
        lines = text.splitlines()
        quoted = [lines[0]] + [",".join(f'"{t}"' for t in line.split(",")) for line in lines[1:]]
        for variant in (text.replace("\n", "\r\n"), "\r\n".join(quoted) + "\r\n"):
            back = read_field_csv(io.StringIO(variant, newline=""))
            assert back.region == field.region
            assert np.array_equal(back.values, field.values)

    def test_first_bad_line_wins_over_later_column_error(self):
        text = "re,im,value\n0,0,1\n0,1,1e\n1,0,1\n1,1,1,1\n"
        with pytest.raises(ConfigurationError, match=r"^line 3: malformed number$"):
            read_field_csv(io.StringIO(text))
        text = "re,im,value\n0,0,1\n0,1\n1,0,1\n1,1,x\n"
        with pytest.raises(ConfigurationError, match=r"^line 3: expected 3 columns$"):
            read_field_csv(io.StringIO(text))

    @pytest.mark.parametrize("bad, message", [
        ("0.5,0.5,one", "malformed number"),
        ("0.5,0.5", "expected 3 columns"),
    ])
    @pytest.mark.parametrize("lineno", [READ_SLICE, READ_SLICE + 1, 5000])
    def test_bad_line_past_the_first_slice_keeps_its_number(self, bad, message, lineno):
        lines = lattice_csv(100, 60).splitlines()
        lines[lineno - 1] = bad
        text = "\n".join(lines) + "\n"
        with pytest.raises(ConfigurationError, match=rf"^line {lineno}: {message}$"):
            read_field_csv(io.StringIO(text))

    def test_csv_error_comes_after_earlier_bad_lines(self):
        # a field over the csv module's size limit fails inside the reader
        big = "1" * (csv.field_size_limit() + 1)
        text = f"re,im,value\n0,0,1\n0,1,x\n1,0,{big}\n1,1,1\n"
        with pytest.raises(ConfigurationError, match=r"^line 3: malformed number$"):
            read_field_csv(io.StringIO(text))
        with pytest.raises(csv.Error):
            read_field_csv(io.StringIO(text.replace("0,1,x", "0,1,1")))

    def test_many_slices_round_trip(self):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 150, 70))
        back = read_field_csv(io.StringIO(written(write_field_csv, field)))
        assert back.region == field.region
        assert np.array_equal(back.values, field.values)

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV input"),
        ("re,im,value\n", "CSV holds no data rows"),
        ("re,im,value\n\n\n", "CSV holds no data rows"),
        ("x,y,v\n0,0,1\n", "expected header re,im,value, got x,y,v"),
    ])
    def test_messages_unchanged(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            read_field_csv(io.StringIO(text))
        assert str(err.value) == message


# VmHWM, the peak RSS of this process image: ru_maxrss of a child would
# also count the memory of the process that started it
READ_PEAK = """
import sys
from pseudolab import read_mask_csv

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kib()
with open(sys.argv[1], newline="") as fh:
    mask = read_mask_csv(fh)
print((peak_kib() - before) / 1024.0, int(mask.mask.sum()))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_reading_a_401_mask_keeps_peak_rss_low(tmp_path):
    region = GridRegion(-1.0, 1.0, -1.0, 1.0, 401, 401)
    mask = LevelSetMask(region, 0.5, 0, "closed_Sigma", np.abs(region.lattice()) < 0.7)
    path = tmp_path / "mask.csv"
    with path.open("w", newline="") as fh:
        write_mask_csv(mask, fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudolab.__file__)))
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", READ_PEAK, str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path_var},
    )
    assert proc.returncode == 0, proc.stderr
    added_mb, members = proc.stdout.split()
    assert int(members) == int(mask.mask.sum())
    # a list of per-row tuples added about 37 MB here, one list of every
    # csv record about 50 MB; slices of parsed floats add about 13 MB
    assert float(added_mb) < 20.0
