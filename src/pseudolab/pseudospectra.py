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

import contextlib
import csv
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, islice

import numpy as np

from .errors import ConfigurationError, DomainError
from .operators import DiagBlockFamily, ScaledOperator
from .resolvent import MAX_BLOCKS_DEFAULT, resolvent_power_norms

STRICTNESS_MODES = ("open_sigma", "closed_Sigma")

# Tail-scan budgets for infinite families during field sweeps.  A 4x4
# block costs an LDL* positivity screen and, if it may set the maximum, a
# Jacobi evaluation; reported values stay certified lower bounds either way.
# At n = 0 and 1 the 4x4 sign certificate closes remark_n1 cells with |z|
# up to about 2 after the first 64 blocks, so the 4x4 budget binds only
# farther out and at n >= 2.  The 2x2 budget does not bind on [-4,4]^2 at
# n = 0, where the 2x2 sign certificate closes every cell by block 5440.
FIELD_MAX_BLOCKS = {2: 20000, 4: 256}

READ_SLICE = 4096  # CSV records a reader parses at a time


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
        re = self.re_min + self.hx * np.arange(self.nx)
        im = self.im_min + self.hy * np.arange(self.ny)
        return re[:, None] + 1j * im[None, :]


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

    All cells go to resolvent_power_norms in one call, so each cell is
    resolvent_power_norm(model, z, n) at its lattice point, bit for bit at
    the same block budget, and block families scan every point's blocks in
    shared stacks.  A block family, also under scaling, takes the
    per-shape FIELD_MAX_BLOCKS tail budget, which keeps full-window sweeps
    affordable while the reported values remain certified lower bounds;
    every other model takes the engine's default.
    """
    inner = model
    while isinstance(inner, ScaledOperator):
        inner = inner.inner
    if isinstance(inner, DiagBlockFamily):
        max_blocks = FIELD_MAX_BLOCKS[inner.block_dim]
    else:
        max_blocks = MAX_BLOCKS_DEFAULT
    zs = region.lattice().ravel()
    vals = resolvent_power_norms(model, zs, n, max_blocks=max_blocks).value
    return NormField(region, n, vals.reshape(region.nx, region.ny))


def level_set(field: NormField, epsilon: float, strictness: str) -> LevelSetMask:
    """Threshold a field at 1/epsilon.

    open_sigma keeps cells with value > 1/epsilon, closed_Sigma those
    with value >= 1/epsilon; unbounded cells belong to both.
    """
    if strictness not in STRICTNESS_MODES:
        raise ConfigurationError(
            f"strictness must be one of {STRICTNESS_MODES}, got {strictness!r}"
        )
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


def _write_rows(fp, column: str, region: GridRegion, cells) -> None:
    # header re,im,<column>, then one line per lattice point, real axis outer:
    # each coordinate is repr'd once, each row of cells strings is one write
    pts = region.lattice()
    fp.write(f"re,im,{column}\n")
    ims = [f",{v!r}," for v in pts[0].imag.tolist()]
    for re, row in zip(map(repr, pts[:, 0].real.tolist()), cells):
        fp.write(re + ("\n" + re).join(map(str.__add__, ims, row)) + "\n")


def write_field_csv(field: NormField, fp) -> None:
    """Write `re,im,value` rows, row-major with the real axis outer."""
    _write_rows(fp, "value", field.region, (map(_format, r) for r in field.values.tolist()))


def write_mask_csv(mask: LevelSetMask, fp) -> None:
    """Write `re,im,member` rows in the same order as field CSVs."""
    _write_rows(fp, "member", mask.region, np.where(mask.mask, "1", "0").tolist())


def write_json(obj, fp) -> None:
    """Write a NormField or LevelSetMask as one JSON document.

    Keys are sorted: the grid geometry, n, and either the value rows
    (unbounded values as the string "inf") or the 0/1 member rows with
    epsilon and strictness.
    """
    doc = {**asdict(obj.region), "n": obj.n}
    if isinstance(obj, NormField):
        doc["values"] = [
            [v if math.isfinite(v) else repr(v) for v in row]
            for row in obj.values.tolist()
        ]
    else:
        doc.update(
            epsilon=obj.epsilon,
            strictness=obj.strictness,
            member=obj.mask.astype(int).tolist(),
        )
    json.dump(doc, fp, indent=2, sort_keys=True)
    fp.write("\n")


def _parse_records(records, lineno) -> np.ndarray:
    # the floats of csv records from line lineno on, blank ones skipped, each
    # distinct token converted once; a failed slice is replayed record by
    # record to name its first bad line
    if set(map(len, records)) <= {0, 3}:
        tokens = list(chain.from_iterable(records))
        unique = set(tokens)
        with contextlib.suppress(ValueError):
            value = dict(zip(unique, map(float, unique)))
            return np.fromiter(map(value.__getitem__, tokens), float, len(tokens))
    for lineno, row in enumerate(records, start=lineno):
        if row and len(row) != 3:
            raise ConfigurationError(f"line {lineno}: expected 3 columns")
        try:
            list(map(float, row))
        except ValueError:
            raise ConfigurationError(f"line {lineno}: malformed number") from None
    raise AssertionError("a failed slice holds a bad record")


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
    while True:
        records = []
        try:
            records.extend(islice(reader, READ_SLICE))  # keeps what was read
        except csv.Error:
            # a bad record before the one csv.reader failed on is named first
            _parse_records(records, lineno)
            raise
        if not records:
            break
        parts.append(_parse_records(records, lineno))
        lineno += len(records)
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
    want = region.lattice().ravel()
    off = np.abs(rows[:, 0] - want.real) + np.abs(rows[:, 1] - want.imag) > 1e-9 * scale
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
