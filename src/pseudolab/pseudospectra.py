"""Resolvent-norm fields on rectangular grids and their level sets.

A NormField samples z -> ||(T - z)^-2^n||^(1/2^n) on an axis-aligned
lattice.  Level sets at a threshold 1/eps give the two discrete
pseudospectrum flavours: the open one (strict inequality) and the closed
one (non-strict).  The closure check compares the closed mask against a
one-cell dilation of the open mask; true topological closures are not
lattice-representable, so every verdict carries the resolution it was
reached at.

Fields serialize to CSV as `re,im,value` rows (row-major, real axis
outer, `inf` literal for unbounded values) and masks as `re,im,member`
with member in {0,1}.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DomainError
from .resolvent import resolvent_power_norms

STRICTNESS_MODES = ("open_sigma", "closed_Sigma")

READ_CHARS = 1 << 16  # CSV characters a reader slices or a mask writer joins, in whole lines


@dataclass(frozen=True)
class GridRegion:
    """Axis-aligned window [re_min, re_max] x [im_min, im_max] sampled on
    an nx-by-ny lattice including both endpoints."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigurationError(f"{name} must be finite")
        if not self.re_min < self.re_max:
            raise ConfigurationError("region needs re_min < re_max")
        if not self.im_min < self.im_max:
            raise ConfigurationError("region needs im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError("grid needs at least 2 points per axis")
        # the lattice's complex entries, 16 bytes each, must be addressable;
        # a step of 0 (a subnormal span) is a valid layout
        if self.nx * self.ny > np.iinfo(np.intp).max // 16:
            raise ConfigurationError("grid has too many points to lay out (nx * ny)")
        last = (self.re_min + self.hx * (self.nx - 1), self.im_min + self.hy * (self.ny - 1))
        if not all(map(math.isfinite, last)):
            raise ConfigurationError("window too wide: its lattice coordinates overflow")

    @property
    def hx(self) -> float:
        return (self.re_max - self.re_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.im_max - self.im_min) / (self.ny - 1)

    def point(self, i: int, j: int) -> complex:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise DomainError(f"lattice index ({i},{j}) outside grid")
        return complex(self.re_min + i * self.hx, self.im_min + j * self.hy)

    def lattice(self) -> np.ndarray:
        """All lattice points as an (nx, ny) complex array."""
        re, im = self._axes()
        return re[:, None] + 1j * im[None, :]

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        # the lattice's real parts down its first column and imaginary parts
        # along its first row, bit for bit: no axis value is -0.0, so adding
        # the other part's signed zero changes none
        return (self.re_min + self.hx * np.arange(self.nx),
                self.im_min + self.hy * np.arange(self.ny))


def region_with_step(re_min, re_max, im_min, im_max, h) -> GridRegion:
    """Region whose lattice step is h on both axes.

    The extents must be integer multiples of h (within roundoff); the
    step is not silently adjusted.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ConfigurationError("step must be positive and finite")
    counts = []
    for lo, hi in ((re_min, re_max), (im_min, im_max)):
        steps = (hi - lo) / h
        if not math.isfinite(steps):
            raise ConfigurationError(f"extent [{lo},{hi}] at step {h} has too many points")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            raise ConfigurationError(
                f"extent [{lo},{hi}] is not a multiple of step {h}"
            )
        counts.append(int(round(steps)) + 1)
    return GridRegion(re_min, re_max, im_min, im_max, counts[0], counts[1])


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NormField:
    """Sampled values of z -> ||(T - z)^-2^n||^(1/2^n) on a region."""

    region: GridRegion
    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.asarray(self.values, dtype=float))
        if vals.shape != (self.region.nx, self.region.ny):
            raise DomainError(
                f"values shape {vals.shape} does not match grid "
                f"({self.region.nx}, {self.region.ny})"
            )
        if np.isnan(vals).any() or (vals <= 0.0).any():
            raise DomainError("field values must be positive (inf allowed)")
        object.__setattr__(self, "values", vals)
        if self.n < 0:
            raise DomainError("power index must be nonnegative")


@dataclass(frozen=True)
class LevelSetMask:
    """Boolean membership lattice for one level set of a NormField."""

    region: GridRegion
    epsilon: float
    n: int
    strictness: str
    mask: np.ndarray

    def __post_init__(self):
        if self.strictness not in STRICTNESS_MODES:
            raise ConfigurationError(
                f"strictness must be one of {STRICTNESS_MODES}, "
                f"got {self.strictness!r}"
            )
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise DomainError("epsilon must be positive and finite")
        m = _readonly(np.asarray(self.mask, dtype=bool))
        if m.shape != (self.region.nx, self.region.ny):
            raise DomainError("mask shape does not match grid")
        object.__setattr__(self, "mask", m)


@dataclass(frozen=True)
class AssumptionCheck:
    """Verdict of the discrete closure comparison and its first witness cell."""

    holds_at_resolution: bool
    witness: tuple | None
    witness_z: complex | None


def compute_norm_field(model, region: GridRegion, n: int = 0) -> NormField:
    """Sample the resolvent power norm of model at every lattice point.

    All cells go to resolvent_power_norms in one call at the engine's
    default block budget, so each cell is resolvent_power_norm(model, z, n)
    at its lattice point, bit for bit, and block families scan every
    point's blocks in shared stacks.
    """
    zs = region.lattice().ravel()
    vals = resolvent_power_norms(model, zs, n).value
    return NormField(region, n, vals.reshape(region.nx, region.ny))


def level_set(field: NormField, epsilon: float, strictness: str) -> LevelSetMask:
    """Threshold a field at 1/epsilon.

    open_sigma keeps cells with value > 1/epsilon, closed_Sigma those
    with value >= 1/epsilon; unbounded cells belong to both.  The mask
    refuses an unknown strictness.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise DomainError("epsilon must be positive and finite")
    threshold = 1.0 / epsilon
    if strictness == "open_sigma":
        mask = field.values > threshold
    else:
        mask = field.values >= threshold
    return LevelSetMask(field.region, epsilon, field.n, strictness, mask)


def dilate_one_cell(mask: np.ndarray) -> np.ndarray:
    """Morphological dilation by the 8-neighborhood (plus the cell itself)."""
    m = np.asarray(mask, dtype=bool)
    nx, ny = m.shape
    padded = np.zeros((nx + 2, ny + 2), dtype=bool)
    padded[1:-1, 1:-1] = m
    out = np.zeros_like(m)
    for di in range(3):
        for dj in range(3):
            out |= padded[di : di + nx, dj : dj + ny]
    return out


def assumption_i_check(field: NormField, epsilon: float) -> AssumptionCheck:
    """Discrete closure comparison on the field's window.

    The closed mask stands in for the closure of the open level set
    intersected with the window; the check accepts when it is nonempty
    and every closed cell lies within one cell of the open mask.  A
    closed cell with no open neighbor witnesses a part of the level set
    that meets the window without being approximable from inside it.
    """
    open_mask = level_set(field, epsilon, "open_sigma").mask
    closed_mask = level_set(field, epsilon, "closed_Sigma").mask
    if not closed_mask.any():
        return AssumptionCheck(False, None, None)
    stray = closed_mask & ~dilate_one_cell(open_mask)
    if stray.any():
        i, j = np.argwhere(stray)[0]  # row-major: first differing cell
        witness = (int(i), int(j))
        return AssumptionCheck(False, witness, field.region.point(*witness))
    return AssumptionCheck(True, None, None)


def _format(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return repr(float(v))


def _coordinates(region: GridRegion) -> tuple[list, list]:
    # the repr'd re of each lattice row and im of each lattice column, the
    # text both CSV writers give every point
    re, im = region._axes()
    return list(map(repr, re.tolist())), list(map(repr, im.tolist()))


def write_field_csv(field: NormField, fp) -> None:
    """Write `re,im,value` rows, row-major with the real axis outer."""
    # each coordinate is repr'd once, each lattice row of cell strings is one write
    res, ims = _coordinates(field.region)
    fp.write("re,im,value\n")
    ims = [f",{im}," for im in ims]
    for re, row in zip(res, field.values.tolist()):
        fp.write(re + ("\n" + re).join(map(str.__add__, ims, map(_format, row))) + "\n")


def write_mask_csv(mask: LevelSetMask, fp) -> None:
    """Write `re,im,member` rows in the same order as field CSVs.

    The rows go out in blocks of whole lattice rows of at most READ_CHARS
    characters, a longer row a block of its own.  A block is joined with
    every member flag "0", encoded to ASCII, and one indexed assignment
    sets the members' flags to "1": each flag sits two characters before
    the end of its line, at the cumulative sum of the line lengths.
    """
    res, ims = _coordinates(mask.region)
    fp.write("re,im,member\n")
    cells = [f",{im},0" for im in ims]
    widths = np.array([len(c) + 1 for c in cells])  # a cell and its newline
    rows = max(1, READ_CHARS // (max(map(len, res)) * len(cells) + int(widths.sum())))
    for start in range(0, len(res), rows):
        block = res[start : start + rows]
        data = bytearray("".join(re + ("\n" + re).join(cells) + "\n" for re in block), "ascii")
        ends = np.cumsum(np.array([len(re) for re in block])[:, None] + widths)  # row-major
        flags = ends[mask.mask[start : start + rows].ravel()] - 2
        np.frombuffer(data, np.uint8)[flags] = ord("1")
        fp.write(data.decode("ascii"))


def write_json(obj, fp) -> None:
    """Write a NormField or LevelSetMask as one JSON document.

    Keys are sorted: the grid geometry, n, and either the value rows
    (unbounded values as the string "inf") or the 0/1 member rows with
    epsilon and strictness.
    """
    doc = {**asdict(obj.region), "n": obj.n}
    if isinstance(obj, NormField):
        key, rows = "values", obj.values.tolist()
        if np.isfinite(obj.values).all():
            rows = [list(map(repr, r)) for r in rows]
        else:
            rows = [[repr(v) if math.isfinite(v) else f'"{v}"' for v in r] for r in rows]
    else:
        key, doc["epsilon"], doc["strictness"] = "member", obj.epsilon, obj.strictness
        rows = np.where(obj.mask, "1", "0").tolist()
    # json.dump's indent=2 layout, the rows joined in one pass, not streamed
    doc[key] = None
    nested = "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
    text = json.dumps(doc, indent=2, sort_keys=True)
    body = f'"{key}": [\n    [\n      {nested}\n    ]\n  ]'
    fp.write(text.replace(f'"{key}": null', body, 1) + "\n")


def _floats(tokens) -> np.ndarray:
    # each distinct token converted once; ValueError if one is not a number
    unique = set(tokens)
    value = dict(zip(unique, map(float, unique)))
    return np.fromiter(map(value.__getitem__, tokens), float, len(tokens))


def _plain_values(text: str) -> np.ndarray | None:
    # the floats of text's lines when each is three comma-separated fields
    # ending in a newline, split on commas as csv.reader splits them; None
    # where csv.reader may read otherwise (a CR, a field past the size
    # limit, blank, short or long lines, no final newline) or a token is
    # not a number, as no token holding a quote or NUL is
    if "\r" in text or len(text) >= csv.field_size_limit() or not text.endswith("\n"):
        return None
    # each newline ends its token, so every line has three fields exactly
    # when the newlines end every third token; the last token, after the
    # final newline, is empty
    lines = text.count("\n")
    tokens = text.replace("\n", "\n,").split(",")
    tokens.pop()
    if len(tokens) != 3 * lines or "".join(tokens[2::3]).count("\n") != lines:
        return None
    try:
        return _floats(tokens)
    except ValueError:
        return None


def _slices(fp):
    # the body in slices of whole lines, as (text, lines): text None where
    # fp does not split it at its newlines, lines those fp splits it into.
    # A stream reading universal newlines (as the CLI opens files) splits
    # them as io.StringIO(text, newline="") does, so it is sliced by
    # characters and a slice split only when a record reader needs it.
    # Any other stream (io.StringIO's default splits at LF alone) is sliced
    # by fp.readlines, as its text does not tell where it splits
    if getattr(fp, "newlines", None) is not None:
        while text := fp.read(READ_CHARS):
            text += fp.readline()
            yield text, _lines(text)
    else:
        while lines := fp.readlines(READ_CHARS):
            text = "".join(lines)
            yield (text if text.count("\n") == len(lines) else None), lines


def _lines(text: str):
    # a generator, so the StringIO copy is made only for a slice csv.reader reads
    yield from io.StringIO(text, newline="")


def _record_values(lines, lineno):
    # the floats of the csv records of lines from line lineno on, record by
    # record: blank ones skipped, the first bad line named, and a csv.Error
    # raised once every record before it was checked
    for lineno, row in enumerate(csv.reader(lines), start=lineno):
        if not row:
            continue
        if len(row) != 3:
            raise ConfigurationError(f"line {lineno}: expected 3 columns")
        try:
            yield from [float(t) for t in row]
        except ValueError:
            raise ConfigurationError(f"line {lineno}: malformed number") from None


def _read_rows(fp, header) -> np.ndarray:
    reader = csv.reader(fp)
    try:
        first = next(reader)
    except StopIteration:
        raise ConfigurationError("empty CSV input") from None
    if [c.strip() for c in first] != header:
        raise ConfigurationError(
            f"expected header {','.join(header)}, got {','.join(first)}"
        )
    parts, lineno = [np.empty(0)], 2
    # a plain slice is split on commas, and the first other one goes with
    # the rest of the file to csv.reader, record by record, which alone
    # reads quotes, CR and blank lines and names the first bad line; a
    # plain slice holds no blank line, so line numbers agree
    for text, lines in _slices(fp):
        values = None if text is None else _plain_values(text)
        if values is None:
            parts.append(np.fromiter(_record_values(chain(lines, fp), lineno), float))
            break
        parts.append(values)
        lineno += len(values) // 3
    rows = np.concatenate(parts).reshape(-1, 3)
    if not len(rows):
        raise ConfigurationError("CSV holds no data rows")
    return rows


def _region_from_rows(rows: np.ndarray) -> GridRegion:
    # row-major with re outer: the leading run of equal re values fixes ny
    re0 = float(rows[0, 0])
    ny = int(np.argmin(np.append(rows[1:, 0] == re0, False))) + 1
    if ny < 2 or len(rows) % ny != 0:
        raise ConfigurationError("CSV rows do not form a full lattice")
    nx = len(rows) // ny
    if nx < 2:
        raise ConfigurationError("CSV lattice needs at least 2 rows per axis")
    im0, re1, im1 = float(rows[0, 1]), float(rows[-ny, 0]), float(rows[ny - 1, 1])
    region = GridRegion(re0, re1, im0, im1, nx, ny)
    scale = max(abs(re1 - re0), abs(im1 - im0), 1.0)
    # each row against the lattice's axes by broadcasting, in one nx-by-ny
    # buffer and one temporary; a NaN coordinate fails the test
    re, im = region._axes()
    grid = rows[:, :2].reshape(nx, ny, 2)
    dist = np.abs(grid[..., 0] - re[:, None])
    step = np.subtract(grid[..., 1], im)
    dist += np.abs(step, out=step)
    off = ~(dist <= 1e-9 * scale)
    if off.any():
        row = int(np.argmax(off))
        re, im, _ = rows[row].tolist()
        raise ConfigurationError(
            f"row {row + 2}: lattice point ({re},{im}) is not on a uniform grid"
        )
    return region


def read_field_csv(fp) -> NormField:
    """Rebuild a NormField from `re,im,value` rows.

    The power index is not stored in the CSV; the field is labelled n = 0.
    """
    rows = _read_rows(fp, ["re", "im", "value"])
    region = _region_from_rows(rows)
    return NormField(region, 0, rows[:, 2].reshape(region.nx, region.ny))


def read_mask_csv(fp) -> LevelSetMask:
    """Rebuild a LevelSetMask from `re,im,member` rows.

    epsilon, n and strictness are not stored in the CSV; the mask is
    labelled epsilon = 1, n = 0 and closed_Sigma.
    """
    rows = _read_rows(fp, ["re", "im", "member"])
    region = _region_from_rows(rows)
    flags = rows[:, 2]
    bad = (flags != 0.0) & (flags != 1.0)
    if bad.any():
        v = float(flags[np.argmax(bad)])
        raise ConfigurationError(f"member flag must be 0 or 1, got {v}")
    mask = (flags == 1.0).reshape(region.nx, region.ny)
    return LevelSetMask(region, 1.0, 0, "closed_Sigma", mask)
