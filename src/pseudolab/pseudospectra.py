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
from .operators import DenseOperator, DiagBlockFamily, ScaledOperator, TruncatedFamily
from .resolvent import MAX_BLOCKS_DEFAULT, TAIL_TOL_DEFAULT, resolvent_power_norms

STRICTNESS_MODES = ("open_sigma", "closed_Sigma")

# Tail-scan budgets for infinite families during field sweeps.  A 4x4
# block costs a Cholesky screen and, if it may set the maximum, a Jacobi
# evaluation; reported values stay certified lower bounds either way.
FIELD_MAX_BLOCKS = {2: 20000, 4: 256}

DEFAULT_GRID_POINTS = 101

READ_SLICE = 4096  # CSV records a reader parses at a time


@dataclass(frozen=True)
class GridRegion:
    """Axis-aligned window [re_min, re_max] x [im_min, im_max] sampled on
    an nx-by-ny lattice including both endpoints."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int = DEFAULT_GRID_POINTS
    ny: int = DEFAULT_GRID_POINTS

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
    if h <= 0:
        raise ConfigurationError("step must be positive")
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
    """Resolution-stamped verdict of the discrete closure comparison."""

    holds_at_resolution: bool
    witness: tuple | None
    witness_z: complex | None
    epsilon: float
    hx: float
    hy: float


def _diagonal_of(model):
    # exact structural test, not a tolerance check
    if isinstance(model, DenseOperator):
        m = model.matrix
        if np.count_nonzero(m - np.diag(np.diagonal(m))) == 0:
            return np.diagonal(m)
    return None


def _field_values(model, zs, n, tail_tol, max_blocks):
    diag = _diagonal_of(model)
    if diag is not None:
        # normal matrix: every power norm collapses to inverse distance
        dists = np.abs(zs[:, None] - diag[None, :]).min(axis=1)
        with np.errstate(divide="ignore"):
            return np.divide(1.0, dists)
    if isinstance(model, ScaledOperator):
        s = complex(model.factor)
        inner = _field_values(model.inner, zs / s, n, tail_tol, max_blocks)
        return inner / abs(s)
    if max_blocks is None and isinstance(model, DiagBlockFamily):
        max_blocks = FIELD_MAX_BLOCKS[model.block_dim]
    if max_blocks is None:
        max_blocks = MAX_BLOCKS_DEFAULT
    cells = resolvent_power_norms(
        model, zs, n, tail_tol=tail_tol, max_blocks=max_blocks
    )
    return np.array([cell.value for cell in cells])


def compute_norm_field(
    model,
    region: GridRegion,
    n: int = 0,
    *,
    tail_tol: float = TAIL_TOL_DEFAULT,
    max_blocks: int | None = None,
) -> NormField:
    """Sample the resolvent power norm of model at every lattice point.

    Each cell is resolvent_power_norm(model, z, n) at its lattice point,
    bit for bit at the same tail_tol and block budget; all cells go to
    resolvent in one call, so block families scan every point's blocks in
    shared stacks.  Diagonal matrices, also under scaling, take the
    distance to the nearest eigenvalue instead.  max_blocks bounds the tail
    scan for infinite families; the per-shape defaults keep full-window
    sweeps affordable while the reported values remain certified lower
    bounds.
    """
    zs = region.lattice().ravel()
    vals = _field_values(model, zs, n, tail_tol, max_blocks)
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
    hx, hy = field.region.hx, field.region.hy
    if not closed_mask.any():
        return AssumptionCheck(False, None, None, epsilon, hx, hy)
    stray = closed_mask & ~dilate_one_cell(open_mask)
    if stray.any():
        i, j = np.argwhere(stray)[0]  # row-major: first differing cell
        return AssumptionCheck(
            False, (int(i), int(j)), field.region.point(int(i), int(j)), epsilon, hx, hy
        )
    return AssumptionCheck(True, None, None, epsilon, hx, hy)


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


def read_field_csv(fp, n: int = 0) -> NormField:
    """Rebuild a NormField from `re,im,value` rows.

    The power index is not stored in the CSV; pass n when it matters.
    """
    rows = _read_rows(fp, ["re", "im", "value"])
    region = _region_from_rows(rows)
    return NormField(region, n, rows[:, 2].reshape(region.nx, region.ny))


def read_mask_csv(fp, epsilon: float = 1.0, n: int = 0, strictness: str = "closed_Sigma") -> LevelSetMask:
    """Rebuild a LevelSetMask from `re,im,member` rows.

    epsilon, n and strictness are not stored in the CSV; the defaults
    only label the returned object.
    """
    rows = _read_rows(fp, ["re", "im", "member"])
    region = _region_from_rows(rows)
    flags = rows[:, 2]
    bad = (flags != 0.0) & (flags != 1.0)
    if bad.any():
        v = float(flags[np.argmax(bad)])
        raise ConfigurationError(f"member flag must be 0 or 1, got {v}")
    mask = (flags == 1.0).reshape(region.nx, region.ny)
    return LevelSetMask(region, epsilon, n, strictness, mask)
