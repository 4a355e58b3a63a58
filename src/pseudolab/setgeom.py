"""Metric geometry on lattice masks.

Masks are finite point sets in the plane: the member cells of a level
set at their lattice coordinates.  Distances are Euclidean between cell
centers, so every quantity inherits the grid's h-level discretization
error; callers budget for that explicitly.

Every distance reported here is the float value |q - p| taken over the
complex coordinates of region.lattice(), minimized and maximized
exactly; no route rounds differently from that formula.

Two masks on one lattice (every study, the CLI round trip) and every
delta-neighborhood go through a squared Euclidean distance transform of
the member mask, separable in the two lattice axes (Felzenszwalb &
Huttenlocher, Theory of Computing 8, 2012) and taken only at the cells
a caller reads, on their rows, as far across a row as its reach.  The
transform only selects cells: the Hausdorff queries within a roundoff
band of the largest distance, and the lattice cells within that band of
delta.  Those cells are recomputed with the float formula against the
members in a box around them, so results are bit-for-bit those of the
brute-force double loop.  Masks on different lattices, or on one whose
squared steps or diagonal are not normal doubles, take that double loop
in row chunks.  Both routes are deterministic, so Hausdorff symmetry is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pseudospectra import GridRegion, LevelSetMask

# entries per chunk of every distance table (brute force, the transform's
# whole-row minimum, the recomputed boxes); a few MB of temporaries.  The
# banded row minimum needs no chunks: it holds two copies of its rows
_CHUNK_ENTRIES = 2**17


@dataclass(frozen=True)
class MaskSet:
    """Member cells of a lattice mask as a point set in the plane."""

    region: GridRegion
    mask: np.ndarray

    def __post_init__(self):
        m = np.array(np.asarray(self.mask, dtype=bool), copy=True)
        if m.shape != (self.region.nx, self.region.ny):
            raise DomainError("mask shape does not match grid")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_level_set(cls, level: LevelSetMask) -> "MaskSet":
        return cls(level.region, level.mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def points(self) -> np.ndarray:
        """Member coordinates as a flat complex array, row-major."""
        return self.region.lattice()[self.mask]


def _min_dists_brute(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = np.empty(len(queries))
    step = max(1, _CHUNK_ENTRIES // max(1, len(targets)))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        out[start : start + len(block)] = np.abs(
            block[:, None] - targets[None, :]
        ).min(axis=1)
    return out


def _squared_distances_at(
    region: GridRegion, mask: np.ndarray, cells: np.ndarray, reach: float = math.inf
) -> np.ndarray:
    """Upper bounds on the squared distance from every cell to the nearest
    member, (nx, ny), exact at the `cells` whose distance is at most reach.

    Pass 1 takes col(i, j), the squared distance to the nearest member in
    the cell's own column; its largest value at the cells caps the reach.
    Pass 2, on the rows that hold cells, takes the minimum of col(i, j') +
    (j - j')^2 hy^2 over |j - j'| <= b = floor(reach / hy) + 1, or over the
    row when 2 b + 1 >= ny.  Distances between the ideal points (i hx, j hy)
    differ from the float formula by roundoff only.
    """
    nx, ny = mask.shape
    rows = np.arange(nx)[:, None]
    above = np.maximum.accumulate(np.where(mask, rows, -2 * nx), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, 3 * nx)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows).astype(np.float64)
    g[g >= nx] = np.inf  # column without members
    col = g * g * (region.hx * region.hx)
    span = min(reach, math.sqrt(np.max(col, where=cells, initial=0.0))) / region.hy
    b = math.floor(span) + 1 if span < ny else ny
    held = cells.any(axis=1)
    # col's own rows when all are held: each fresh large array costs page faults
    part = col if held.all() else col[held]
    hy2 = region.hy * region.hy
    if 2 * b + 1 < ny:
        own = part.copy()
        shifted = np.empty_like(part)
        for o in range(1, b + 1):
            np.add(own, float(o) ** 2 * hy2, out=shifted)
            np.minimum(part[:, :-o], shifted[:, o:], out=part[:, :-o])
            np.minimum(part[:, o:], shifted[:, :-o], out=part[:, o:])
    else:
        # columns outside the members' span offer only inf candidates
        lo, hi = np.flatnonzero(mask.any(axis=0))[[0, -1]] + [0, 1]
        own = part[:, lo:hi].copy()
        dj = np.arange(ny, dtype=np.float64)
        across = (dj[:, None] - dj[None, lo:hi]) ** 2 * hy2
        step = max(1, _CHUNK_ENTRIES // (ny * (hi - lo)))
        for start in range(0, len(part), step):
            part[start : start + step] = (
                own[start : start + step, None, :] + across[None, :, :]
            ).min(axis=2)
    if part is not col:
        col[held] = part
    return col


def _transform_fits(region: GridRegion) -> bool:
    """Whether hx^2, hy^2 and the squared window diagonal are normal doubles."""
    x, y = region.nx * region.hx, region.ny * region.hy
    least = min(region.hx * region.hx, region.hy * region.hy)
    return least >= np.finfo(np.float64).tiny and x * x + y * y < math.inf


def _roundoff_band(region: GridRegion, reach: float) -> float:
    """Bound on |float formula - transform distance| for distances <= reach.

    Lattice coordinates carry rounding relative to the window's
    coordinate magnitudes, so the band in lattice steps grows with
    magnitude / step; the factor leaves ample room over the few ulps the
    coordinates, their differences, |.| and the transform each add.
    """
    scale = max(
        abs(region.re_min), abs(region.re_max), abs(region.im_min), abs(region.im_max)
    )
    return 32.0 * np.finfo(np.float64).eps * (scale + reach)


def _near_min_dists(
    region: GridRegion, mask: np.ndarray, cells: np.ndarray, reach: float
) -> np.ndarray:
    """Float formula min |q - p| from each cell (rows of `cells`, lattice
    indices) to the members within `reach` of it along each axis, or to
    all members when they are fewer than the cells of one box."""
    nx, ny = mask.shape
    lat = region.lattice()
    rx = min(nx - 1, math.floor(reach / region.hx) + 1)
    ry = min(ny - 1, math.floor(reach / region.hy) + 1)
    box = (2 * rx + 1) * (2 * ry + 1)
    members = lat[mask]
    if len(members) <= box:
        return _min_dists_brute(lat[cells[:, 0], cells[:, 1]], members)
    di = np.arange(-rx, rx + 1)[None, :, None]
    dj = np.arange(-ry, ry + 1)[None, None, :]
    out = np.empty(len(cells))
    step = max(1, _CHUNK_ENTRIES // box)
    for start in range(0, len(cells), step):
        ci, cj = cells[start : start + step].T
        ii = ci[:, None, None] + di
        jj = cj[:, None, None] + dj
        inside = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
        ii = np.clip(ii, 0, nx - 1)
        jj = np.clip(jj, 0, ny - 1)
        dist = np.abs(lat[ci, cj][:, None, None] - lat[ii, jj])
        dist[~(inside & mask[ii, jj])] = np.inf
        out[start : start + len(ci)] = dist.reshape(len(ci), -1).min(axis=1)
    return out


def _directed_on_lattice(
    region: GridRegion, queries: np.ndarray, targets: np.ndarray
) -> float:
    """sup over query members of the distance to the nearest target member."""
    cells = queries & ~targets
    d2 = _squared_distances_at(region, targets, cells)[cells]
    top2 = float(d2.max(initial=0.0))
    if top2 == 0.0:
        return 0.0
    top = math.sqrt(top2)
    band = _roundoff_band(region, top)
    near = np.argwhere(cells)[np.sqrt(d2) >= top - band]
    return float(_near_min_dists(region, targets, near, top + 2.0 * band).max())


def _require_members(side: str, s: MaskSet) -> None:
    if not s.mask.any():
        raise DomainError(
            f"hausdorff distance needs non-empty sets; the {side} mask is empty"
        )


def hausdorff_distance(a: MaskSet, b: MaskSet) -> float:
    """max of the two directed sup-min distances between the point sets."""
    _require_members("first", a)
    _require_members("second", b)
    if a.region == b.region and _transform_fits(a.region):
        d_ab = _directed_on_lattice(a.region, a.mask, b.mask)
        d_ba = _directed_on_lattice(a.region, b.mask, a.mask)
        return max(d_ab, d_ba)
    pa, pb = a.points(), b.points()
    d_ab = float(_min_dists_brute(pa, pb).max())
    d_ba = float(_min_dists_brute(pb, pa).max())
    return max(d_ab, d_ba)


def delta_neighborhood(a: MaskSet, delta: float) -> MaskSet:
    """Closed delta-neighborhood of the mask on its own lattice.

    A lattice point belongs iff its distance to some member is <= delta,
    compared exactly (no tolerance padding).
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError("delta must be positive and finite")
    if not a.mask.any():
        raise DomainError("delta neighborhood of an empty mask")
    if not _transform_fits(a.region):
        dist = _min_dists_brute(a.region.lattice().ravel(), a.points())
        return MaskSet(a.region, (dist <= delta).reshape(a.mask.shape))
    band = _roundoff_band(a.region, delta)
    reach = delta + 2.0 * band
    dist = np.sqrt(_squared_distances_at(a.region, a.mask, ~a.mask, reach))
    mask = dist <= delta
    near = np.abs(dist - delta) <= band
    mask[near] = _near_min_dists(a.region, a.mask, np.argwhere(near), reach) <= delta
    return MaskSet(a.region, mask)
