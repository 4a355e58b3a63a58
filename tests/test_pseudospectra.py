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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import json_document_oracle
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
from pseudolab.pseudospectra import (
    READ_CHARS,
    LevelSetMask,
    dilate_one_cell,
    write_json,
)

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

    @pytest.mark.parametrize(
        "bounds, counts",
        [
            ((-1e308, 1e308, 0.0, 1.0), (3, 3)),  # the step overflows
            ((0.0, 1.0, -1e308, 1e308), (3, 3)),
            ((0.0, 1.0, 0.0, 1.0), (10**20, 3)),  # more points than an array holds
            ((0.0, 1.0, 0.0, 1.0), (2**60, 2)),  # 2^61 points of 16 bytes
        ],
    )
    def test_refuses_a_window_it_cannot_lay_out(self, bounds, counts):
        with pytest.raises(ConfigurationError):
            GridRegion(*bounds, *counts)

    @pytest.mark.parametrize("h", [1e-300, 5e-324])
    def test_a_step_with_too_many_points_is_refused(self, h):
        with pytest.raises(ConfigurationError):
            region_with_step(0.0, 1.0, 0.0, 1.0, h)

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

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            region_with_step(-1.0, 1.0, -1.0, 1.0, h)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(region=regions())
    @example(region=GridRegion(-0.0, 1.0, -1.0, -0.0, 2, 3))
    def test_axes_are_the_lattice_edges_bit_for_bit(self, region):
        re, im = region._axes()
        grid = region.lattice()
        assert re.tobytes() == grid[:, 0].real.tobytes()
        assert im.tobytes() == grid[0].imag.tobytes()


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



def member_csv(mask):
    return per_point_csv(mask.region, "member", lambda i, j: int(mask.mask[i, j]))


def mask_writes(mask):
    """The strings write_mask_csv hands to write, one per call."""
    chunks = []
    write_mask_csv(mask, types.SimpleNamespace(write=chunks.append))
    return chunks


def random_mask(region, seed):
    members = np.random.default_rng(seed).random((region.nx, region.ny)) < 0.5
    return LevelSetMask(region, 1.0, 0, "closed_Sigma", members)


class TestMaskWriterBlocks:
    """write_mask_csv writes blocks of lattice rows, each at most READ_CHARS
    characters; its bytes are the per-point writer's."""

    def test_a_121_mask_spans_several_blocks(self):
        mask = random_mask(GridRegion(-1.5, 1.5, -1.5, 1.5, 121, 121), 5)
        header, *blocks = mask_writes(mask)
        assert header + "".join(blocks) == member_csv(mask)
        assert 1 < len(blocks) < 121 // 4  # several blocks of many rows
        for block in blocks:
            assert len(block) <= READ_CHARS and block.count("\n") % 121 == 0

    def test_a_row_longer_than_read_chars_is_a_block_of_its_own(self):
        mask = random_mask(GridRegion(-1.0, 1.0, -1.0, 1.0, 3, 4000), 6)
        header, *blocks = mask_writes(mask)
        assert header + "".join(blocks) == member_csv(mask)
        assert [block.count("\n") for block in blocks] == [4000] * 3
        assert min(map(len, blocks)) > READ_CHARS

    @pytest.mark.parametrize("member", [False, True])
    def test_masks_of_one_flag(self, member):
        region = GridRegion(-1.0, 1.0, -0.5, 0.5, 90, 70)
        mask = LevelSetMask(region, 1.0, 0, "closed_Sigma", np.full((90, 70), member))
        assert written(write_mask_csv, mask) == member_csv(mask)

    def test_coordinates_whose_reprs_differ_in_length(self):
        region = GridRegion(-1e-3, 2.5, -7, 3, 37, 53)
        re, im = region._axes()
        assert len({len(repr(v)) for v in re.tolist()}) > 3
        assert len({len(repr(v)) for v in im.tolist()}) > 3
        mask = random_mask(region, 7)
        assert len(mask_writes(mask)) > 2
        assert written(write_mask_csv, mask) == member_csv(mask)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(region=regions())
    def test_field_and_mask_csv_share_their_coordinate_text(self, region):
        field = types.SimpleNamespace(region=region, values=np.ones((region.nx, region.ny)))
        mask = random_mask(region, 8)

        def coordinates(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert coordinates(written(write_field_csv, field))[1:] == coordinates(
            written(write_mask_csv, mask))[1:]


class TestJsonWriter:
    """write_json's bytes are those of json.dump(indent=2, sort_keys=True)."""

    def test_field_with_extreme_values(self):
        values = np.array([
            [math.inf, 5e-324, 1e308],
            [1e308, 0.1, 2.2250738585072014e-308],
            [1.0, math.inf, 5e-324],
        ])
        field = NormField(GridRegion(-1.0, 1.0, -0.5, 0.5, 3, 3), 2, values)
        assert written(write_json, field) == json_document_oracle(field)

    @pytest.mark.parametrize("strictness", ["open_sigma", "closed_Sigma"])
    def test_masks(self, strictness):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 13, 5))
        for epsilon in (0.25, 1.0, 1e9):
            mask = level_set(field, epsilon, strictness)
            assert written(write_json, mask) == json_document_oracle(mask)

    def test_two_by_n_lattice(self):
        field = diag_field(GridRegion(2.0, 6.0, -1.0, 1.0, 2, 9))
        assert math.isinf(field.values[0, 4])
        mask = level_set(field, 0.5, "closed_Sigma")
        assert written(write_json, field) == json_document_oracle(field)
        assert written(write_json, mask) == json_document_oracle(mask)

    def test_random_fields_and_masks(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            nx, ny = (int(k) for k in rng.integers(2, 12, 2))
            re, im = np.sort(rng.uniform(-3.0, 3.0, (2, 2)))
            region = GridRegion(*re, *im, nx, ny)
            values = np.exp(rng.uniform(-700.0, 700.0, (nx, ny)))
            values[rng.random((nx, ny)) < 0.1] = math.inf
            field = NormField(region, int(rng.integers(0, 3)), values)
            epsilon = float(np.exp(rng.uniform(-5.0, 5.0)))
            mask = level_set(field, epsilon, "closed_Sigma")
            assert written(write_json, field) == json_document_oracle(field)
            assert written(write_json, mask) == json_document_oracle(mask)


def lattice_csv(nx, ny):
    return written(write_field_csv, NormField(
        GridRegion(0.0, 1.0, 0.0, 1.0, nx, ny), 0, np.ones((nx, ny))))


def line_at(text, offset):
    """The number of the line of text that holds character offset."""
    return text.count("\n", 0, offset) + 1


def quote_line(line):
    return ",".join(f'"{t}"' for t in line.split(","))


def quoted_from(text, offset):
    """text with every token of the lines starting past offset quoted."""
    cut = text.index("\n", offset) + 1
    return text[:cut] + "".join(quote_line(line) + "\n" for line in text[cut:].splitlines())


# a line of the third READ_CHARS slice of a 100x60 lattice's body
THIRD_SLICE_LINE = line_at(lattice_csv(100, 60), 5 * READ_CHARS // 2)


def reference_rows(fp):
    """The field rows a per-record reader gives: csv.reader one record at a
    time, blank records skipped, float per token, the first bad line named."""
    reader = csv.reader(fp)
    first = next(reader, None)
    if first is None:
        raise ConfigurationError("empty CSV input")
    if [c.strip() for c in first] != ["re", "im", "value"]:
        raise ConfigurationError(f"expected header re,im,value, got {','.join(first)}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ConfigurationError(f"line {lineno}: expected 3 columns")
        try:
            rows.append([float(t) for t in row])
        except ValueError:
            raise ConfigurationError(f"line {lineno}: malformed number") from None
    if not rows:
        raise ConfigurationError("CSV holds no data rows")
    return np.array(rows)


# a 70x70 field of distinct values over about four READ_CHARS slices
REFERENCE_CSV = written(write_field_csv, NormField(
    GridRegion(-1.0, 1.0, -0.5, 0.5, 70, 70), 0, np.linspace(0.25, 9.0, 4900).reshape(70, 70)))
REFERENCE_LINES = REFERENCE_CSV.splitlines()


LINE_EDITS = {
    "quote": lambda lines, i: lines.__setitem__(i, quote_line(lines[i])),
    "crlf": lambda lines, i: lines.__setitem__(i, lines[i] + "\r"),
    "cr": lambda lines, i: lines.__setitem__(i, lines[i].replace(",", ",\r", 1)),
    "blank": lambda lines, i: lines.insert(i, ""),
    "malformed": lambda lines, i: lines.__setitem__(i, lines[i] + "e"),
    "short": lambda lines, i: lines.__setitem__(i, lines[i].rsplit(",", 1)[0]),
    "long": lambda lines, i: lines.__setitem__(i, lines[i] + ",1"),
}


class TestCsvReaderEdges:
    def test_blank_lines_keep_their_line_numbers(self):
        text = "re,im,value\n0,0,1\n\n0,1,1\n\n1,0,x\n1,1,1\n"
        with pytest.raises(ConfigurationError, match=r"^line 6: malformed number$"):
            read_field_csv(io.StringIO(text))
        # both past the first slice: the blank line sends its slice to csv.reader
        text = lattice_csv(100, 60)
        lines = text.splitlines()
        lines[THIRD_SLICE_LINE - 1] = "0.5,0.5,x"
        lines.insert(line_at(text, 3 * READ_CHARS // 2), "")
        text = "\n".join(lines) + "\n"
        with pytest.raises(
            ConfigurationError, match=rf"^line {THIRD_SLICE_LINE + 1}: malformed number$"
        ):
            read_field_csv(io.StringIO(text))

    def test_blank_lines_between_rows_are_skipped(self):
        text = "re,im,value\n0,0,1\n\n0,1,2\n1,0,3\n\n\n1,1,4\n\n"
        back = read_field_csv(io.StringIO(text))
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_and_quoted_numbers_round_trip(self, tmp_path):
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 7, 3))
        text = written(write_field_csv, field)
        lines = text.splitlines()
        quoted = [lines[0]] + [quote_line(line) for line in lines[1:]]
        for variant in (text.replace("\n", "\r\n"), "\r\n".join(quoted) + "\r\n"):
            back = read_field_csv(io.StringIO(variant, newline=""))
            assert back.region == field.region
            assert np.array_equal(back.values, field.values)
        # rows quoted only past the first slice: the plain slices hand off
        # to csv.reader mid-file, read from a string and from a file opened
        # as the CLI opens it
        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 150, 70))
        text = quoted_from(written(write_field_csv, field), 3 * READ_CHARS // 2)
        path = tmp_path / "field.csv"
        path.write_text(text.replace("\n", "\r\n"), newline="")
        with open(path, newline="") as fh:
            from_file = read_field_csv(fh)
        for back in (read_field_csv(io.StringIO(text)), from_file):
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
    @pytest.mark.parametrize("lineno", [4096, 4097, 5000, THIRD_SLICE_LINE])
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
        text = written(write_field_csv, field)
        for variant in (text, text.rstrip("\n")):  # and with no final newline
            back = read_field_csv(io.StringIO(variant))
            assert back.region == field.region
            assert np.array_equal(back.values, field.values)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        edits=st.lists(st.tuples(
            st.sampled_from(sorted(LINE_EDITS)),
            st.integers(1, len(REFERENCE_LINES) - 1),
        ), max_size=6),
        final_newline=st.booleans(),
        newline=st.sampled_from([None, "", "\n", "\r", "\r\n"]),
        nx=st.sampled_from([2, 70]),
    )
    # a short and a long row in one slice hold as many fields as two good rows,
    # and a six-field row keeps every newline in a third token
    @example(edits=[("short", 2000), ("long", 2001)], final_newline=True, newline="", nx=70)
    @example(edits=[("long", 100)] * 3, final_newline=True, newline=None, nx=70)
    # a lone CR ends a line only where the stream splits lines at CR
    @example(edits=[("cr", 3000)], final_newline=True, newline="\n", nx=70)
    @example(edits=[], final_newline=True, newline="\r", nx=2)
    def test_matches_per_record_reference(self, edits, final_newline, newline, nx):
        lines = REFERENCE_LINES[:1 + 70 * nx]  # the first nx lattice rows
        for kind, i in edits:
            LINE_EDITS[kind](lines, 1 + (i - 1) % (len(lines) - 1))
        text = "\n".join(lines) + "\n" * final_newline

        def outcome(read):
            try:
                return read(io.StringIO(text, newline=newline)).tobytes()
            except (ConfigurationError, csv.Error) as err:
                return type(err), str(err)

        assert outcome(lambda fp: read_field_csv(fp).values) == outcome(
            lambda fp: reference_rows(fp)[:, 2])

    def test_a_line_with_inner_newlines_is_one_record(self, tmp_path):
        # a file opened with newline="\r" gives its body as one line holding
        # newlines, which csv.reader refuses
        path = tmp_path / "field.csv"
        for body in (b"0,\n0,1\n", b"0,1,\n5"):
            path.write_bytes(b"re,im,value\r" + body)
            with open(path, newline="\r") as fh, pytest.raises(csv.Error, match="new-line"):
                read_field_csv(fh)

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


def line_end_at(text, offset, cr=False):
    """text with the end of one body line moved to body character offset
    (its value takes leading zeros), as CR LF where cr; and that line's index."""
    header, body = text.split("\n", 1)
    lines = body.split("\n")
    ends = np.cumsum([len(line) + 1 for line in lines]) - 1
    k = int(np.searchsorted(ends, offset, side="right")) - 1
    re, im, value = lines[k].split(",")
    lines[k] = f"{re},{im},{'0' * (offset - int(ends[k]))}{value}" + "\r" * cr
    return header + "\n" + "\n".join(lines), k


def universal_streams(text, tmp_path):
    """text as streams that read universal newlines: strings, and a file
    opened as the CLI opens it and with the default newline."""
    path = tmp_path / "field.csv"
    path.write_text(text, newline="")
    return [
        lambda: io.StringIO(text, newline=""),
        lambda: io.StringIO(text, newline=None),
        lambda: open(path, newline=""),
        lambda: open(path),
    ]


def read_outcome(read, stream):
    with stream() as fp:
        try:
            return read(fp).tobytes()
        except (ConfigurationError, csv.Error) as err:
            return type(err), str(err)


class TestCharacterSlices:
    """Streams that read universal newlines are sliced by READ_CHARS
    characters and the rest of a line; the values and errors are those of
    a per-record reader."""

    @pytest.mark.parametrize("cr", [False, True])
    @pytest.mark.parametrize("bad", [None, 0, 1, 2])
    def test_a_slice_boundary_at_a_line_end(self, tmp_path, cr, bad):
        # the first slice's characters end with the newline of body line k,
        # or between the CR and LF that end it; bad marks body line k, the
        # line that completes the first slice or the first of the second
        text, k = line_end_at(lattice_csv(100, 60), READ_CHARS - 1, cr)
        body = text.split("\n", 1)[1]
        assert body[READ_CHARS - 1 : READ_CHARS + cr] == "\r\n"[1 - cr :]
        if bad is not None:
            lines = text.split("\n")
            lines[k + 1 + bad] = "x" + lines[k + 1 + bad]
            text = "\n".join(lines)
        for stream in universal_streams(text, tmp_path):
            got = read_outcome(lambda fp: read_field_csv(fp).values, stream)
            assert got == read_outcome(lambda fp: reference_rows(fp)[:, 2], stream)
            if bad is not None:
                assert got == (ConfigurationError, f"line {k + 2 + bad}: malformed number")

    @pytest.mark.parametrize("bad", ["0.5,0.5,one", "0.5,0.5"])
    def test_a_bad_line_in_a_later_slice_is_named(self, tmp_path, bad):
        lines = lattice_csv(100, 60).splitlines()
        lines[THIRD_SLICE_LINE - 1] = bad
        text = "\n".join(lines) + "\n"
        message = "malformed number" if bad.count(",") == 2 else "expected 3 columns"
        for stream in universal_streams(text, tmp_path):
            got = read_outcome(lambda fp: read_field_csv(fp).values, stream)
            assert got == (ConfigurationError, f"line {THIRD_SLICE_LINE}: {message}")

    @pytest.mark.parametrize("edit", [
        # CR line ends throughout; a CR line end as the first slice's last
        # character; a CR inside a line of the third slice
        lambda text: text.replace("\n", "\r"),
        lambda text: line_end_at(text, READ_CHARS - 1, cr=True)[0].replace("\r\n", "\r"),
        lambda text: (text[:5 * READ_CHARS // 2]
                      + text[5 * READ_CHARS // 2:].replace(",", ",\r", 1)),
    ])
    def test_a_lone_cr_ends_a_line_as_the_stream_reads_it(self, tmp_path, edit):
        text = edit(lattice_csv(100, 60))
        for stream in universal_streams(text, tmp_path):
            got = read_outcome(lambda fp: read_field_csv(fp).values, stream)
            assert got == read_outcome(lambda fp: reference_rows(fp)[:, 2], stream)

    def test_plain_slices_are_read_as_characters(self):
        class CharactersOnly(io.StringIO):
            def readlines(self, hint=-1):
                raise AssertionError("sliced by lines")

        field = diag_field(GridRegion(1.0, 7.0, -1.0, 1.0, 150, 70))
        back = read_field_csv(CharactersOnly(written(write_field_csv, field), newline=""))
        assert np.array_equal(back.values, field.values)


# VmHWM, the peak RSS of this process image: ru_maxrss of a child would
# also count the memory of the process that started it
PEAK_KIB = """
import sys

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

READ_PEAK = PEAK_KIB + """
from pseudolab import read_mask_csv

before = peak_kib()
with open(sys.argv[1], newline="") as fh:
    mask = read_mask_csv(fh)
print((peak_kib() - before) / 1024.0, int(mask.mask.sum()))
"""

WRITE_PEAK = PEAK_KIB + """
import numpy as np
from pseudolab import GridRegion, write_mask_csv
from pseudolab.pseudospectra import LevelSetMask

region = GridRegion(-1.0, 1.0, -1.0, 1.0, 401, 401)
x = np.linspace(-1.0, 1.0, 401)
members = np.empty((401, 401), dtype=bool)
for i in range(401):  # row by row: no lattice-sized temporary before the write
    np.less(x[i] * x[i] + x * x, 0.49, out=members[i])
mask = LevelSetMask(region, 0.5, 0, "closed_Sigma", members)
before = peak_kib()
with open(sys.argv[1], "w", newline="") as fh:
    write_mask_csv(mask, fh)
print((peak_kib() - before) / 1024.0, int(mask.mask.sum()))
"""

DIAGONAL_FIELD_PEAK = PEAK_KIB + """
import numpy as np
from pseudolab import DenseOperator, GridRegion, compute_norm_field, resolvent_power_norm

model = DenseOperator(np.diag(np.linspace(-1.0, 1.0, 500) + 0.01j))
region = GridRegion(-1.0, 1.0, -1.0, 1.0, 161, 161)
before = peak_kib()
values = compute_norm_field(model, region, 0).values.ravel()
added = (peak_kib() - before) / 1024.0
zs = region.lattice().ravel()
same = all(values[i] == resolvent_power_norm(model, zs[i], 0).value for i in (0, 9000, 25920))
print(added, same)
"""


def _peak_run(script: str, *args: str) -> list:
    """The words a script printed, run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudolab.__file__)))
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path_var},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _read_peak_of_a_401_mask(tmp_path, line_end) -> float:
    """The MB a read of a 401x401 mask CSV adds to peak RSS, its members checked."""
    region = GridRegion(-1.0, 1.0, -1.0, 1.0, 401, 401)
    mask = LevelSetMask(region, 0.5, 0, "closed_Sigma", np.abs(region.lattice()) < 0.7)
    path = tmp_path / "mask.csv"
    path.write_text(written(write_mask_csv, mask).replace("\n", line_end), newline="")
    added_mb, members = _peak_run(READ_PEAK, str(path))
    assert int(members) == int(mask.mask.sum())
    return float(added_mb)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_reading_a_401_mask_keeps_peak_rss_low(tmp_path):
    # a list of per-row tuples added about 37 MB here, one list of every
    # csv record about 50 MB; slices of parsed floats add about 13 MB
    assert _read_peak_of_a_401_mask(tmp_path, "\n") < 20.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_reading_a_401_mask_with_crlf_line_ends_keeps_peak_rss_low(tmp_path):
    # a CR makes no slice plain, so every record goes through csv.reader; a
    # list of every float added about 22 MB here, floats collected into one
    # growing array add about 10.5 MB
    assert _read_peak_of_a_401_mask(tmp_path, "\r\n") < 20.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_writing_a_401_mask_keeps_peak_rss_low(tmp_path):
    path = tmp_path / "mask.csv"
    added_mb, members = _peak_run(WRITE_PEAK, str(path))
    back = read_mask_csv(io.StringIO(path.read_text(), newline=""))
    assert int(back.mask.sum()) == int(members) > 0
    # one string of the whole file added about 8.9 MB here, row writes with
    # the whole lattice and its flags as strings about 2.4 MB; blocks of at
    # most READ_CHARS characters add about 0.13 MB
    assert float(added_mb) < 1.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_a_large_diagonal_field_keeps_peak_rss_low():
    added_mb, same = _peak_run(DIAGONAL_FIELD_PEAK)
    assert same == "True"
    # one (cells x 500) complex difference added about 300 MB; stacks of at
    # most DENSE_CAP entries add about 3 MB
    assert float(added_mb) < 20.0
