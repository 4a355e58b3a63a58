"""The three benchmark workloads.

Each workload turns a seed into inputs (``setup``), lists the operations
of one pass (``ops``) and checks a pass's outputs against the numpy
oracles (``check``).  The package receives only the generated inputs:
models, matrices, matrix CSV files and window offsets.  Every
call goes through a module attribute of pseudolab at call time, so a
traced run sees it.  README.md in this directory says why each workload
exists and which layers it stresses.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

SHARG_FIELD_BLOCKS = 20000  # FIELD_MAX_BLOCKS[2] in pseudospectra
REMARK_FIELD_BLOCKS = 256  # FIELD_MAX_BLOCKS[4]
DEEP_BLOCKS = {2: 100_000, 4: 4096}
DENSE_TOL = 1e-8
EXACT_TOL = 1e-12


@dataclass
class Op:
    """One public call of a pass.

    run() is timed and returns the operation's output; cells counts the
    lattice cells the output holds.  files are read back after the timed
    region so later passes can be compared with the first.
    """

    label: str
    run: Callable[[], object]
    cells: int
    files: tuple = ()


@dataclass
class Finding:
    label: str
    ok: bool
    rel_err: float = 0.0
    note: str = ""


@dataclass
class Setup:
    """A workload's operations, their checks, and an optional probe.

    probe() runs once in a traced run, outside every pass: it returns the
    number of known-defect errors it met and the findings of its checks.
    """

    ops: list
    check: Callable[[dict], list]
    info: dict = field(default_factory=dict)
    probe: Callable[[], tuple] = lambda: (0, [])


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def file_digests(op: Op) -> tuple:
    return tuple(_digest(p) for p in op.files)


def _report(rep) -> dict:
    return json.loads(rep.to_json())


def _successor_alphas(count: int) -> np.ndarray:
    return np.arange(2, count + 2, dtype=np.float64)  # alpha_k = k + 1


def _block_check(label, pl, model, z, n, max_blocks, blocks_of) -> Finding:
    """Contract check of one block-family cell against numpy head maxima.

    Every value is a lower bound: it may not fall below the exact head
    maximum over the blocks it scanned.  A certified value may in addition
    not sit below the deep head maximum by more than its tail gap.
    """
    rv = pl.resolvent.resolvent_power_norm(model, z, n, max_blocks=max_blocks)
    if math.isinf(rv.value):
        deep = oracles.head_maximum(blocks_of(max(rv.k_cutoff, 1)), z, n)
        return Finding(label, deep > 1e8, 0.0, f"inf at {z}: oracle head {deep:.3g}")
    head = oracles.head_maximum(blocks_of(max(rv.k_cutoff, 1)), z, n)
    err = max(0.0, head - rv.value) / head
    if rv.certified:
        deep = oracles.head_maximum(blocks_of(DEEP_BLOCKS[model.block_dim]), z, n)
        err = max(err, max(0.0, deep - rv.value - rv.tail_gap) / deep)
    return Finding(label, err <= 1e-9, err, f"z={z} certified={rv.certified}")


# ------------------------------------------------------------ block-field


def setup_block_field(pl, rng, workdir, span):
    """Global-min studies and a 4x4 field on infinite block families."""
    with span("operators.build"):
        sharg = pl.operators.build_named_example("shargorodsky").model
        remark = pl.operators.build_named_example("remark_n1").model
    sx = rng.integers(-2, 3, size=6)
    h1, h2, h3 = 0.4, 0.25, 0.4
    r1 = pl.pseudospectra.region_with_step(
        -4 + sx[0] * h1, 4 + sx[0] * h1, -4 + sx[1] * h1, 4 + sx[1] * h1, h1)
    r2 = pl.pseudospectra.region_with_step(
        -1 + sx[2] * h2, 1 + sx[2] * h2, -1 + sx[3] * h2, 1 + sx[3] * h2, h2)
    r3 = pl.pseudospectra.region_with_step(
        -1 + sx[4] * h3, 1 + sx[4] * h3, -1 + sx[5] * h3, 1 + sx[5] * h3, h3)

    ops = [
        Op("shargorodsky-global-min-l1",
           lambda: _report(pl.experiments.global_min_scan(sharg, r1, 1, 1.0)),
           r1.nx * r1.ny),
        Op("remark_n1-global-min-l2",
           lambda: _report(pl.experiments.global_min_scan(remark, r2, 2, 1.0)),
           r2.nx * r2.ny),
        Op("remark_n1-field-n0",
           lambda: pl.pseudospectra.compute_norm_field(remark, r3, 0).values,
           r3.nx * r3.ny),
    ]
    picks = rng.integers(0, 10**6, size=12)

    def sharg_blocks(count):
        a = _successor_alphas(count)
        return oracles.two_blocks(a, 1.0 + 1.0 / a)

    def remark_blocks(count):
        a = _successor_alphas(count)
        return oracles.four_blocks(a, 1.0 + 1.0 / a)

    def check(out):
        found = []
        for label in ("shargorodsky-global-min-l1", "remark_n1-global-min-l2"):
            rep = out[label]
            lo = rep["series"][0][1]
            # closed form: both windows meet the region where the norm is 1
            err = oracles.rel_err(lo, 1.0)
            found.append(Finding(label, rep["verdict"] == "pass" and err <= 1e-9, err,
                                 f"verdict {rep['verdict']}, min {lo!r}"))
        for j, (region, model, n, budget, blocks_of) in enumerate((
            (r1, sharg, 0, SHARG_FIELD_BLOCKS, sharg_blocks),
            (r2, remark, 1, REMARK_FIELD_BLOCKS, remark_blocks),
        )):
            grid = region.lattice().ravel()
            for p in picks[6 * j : 6 * j + 4]:
                z = complex(grid[p % len(grid)])
                found.append(_block_check(f"cell-{j}", pl, model, z, n, budget, blocks_of))
        values = out["remark_n1-field-n0"]
        grid = r3.lattice()
        for p in picks[10:12]:
            i, k = divmod(int(p) % values.size, r3.ny)
            z = complex(grid[i, k])
            f = _block_check("remark_n1-field-n0", pl, remark, z, 0,
                             REMARK_FIELD_BLOCKS, remark_blocks)
            rv = pl.resolvent.resolvent_power_norm(remark, z, 0, max_blocks=REMARK_FIELD_BLOCKS)
            f.ok = f.ok and rv.value == values[i, k]
            found.append(f)
        return found

    return Setup(ops, check, {"shifts": [int(s) for s in sx]})


# ---------------------------------------------------------------- dense-field

DENSE_DIM = 32
# one point each on the 200- and 600-dim truncations of shargorodsky, fixed
# so that seeds stay comparable (the 200-dim point is half of the pass)
TRUNC200_POINT = 0.3 + 0.2j
TRUNC600_POINT = 0.05 + 0.05j


FULL_BASE_SEED = 7


def _random_full(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / math.sqrt(2 * n) + np.diag(np.linspace(-0.5, 0.5, n))


def _similar_full(rng, n):
    """Q M Q^H for a Haar-random unitary Q and one fixed complex Ginibre
    matrix M plus a diagonal ramp.  The singular values of A - z are those
    of M - z, so every seed has the same pseudospectrum and about the same
    inverse-iteration work (a freely drawn M made that work vary by a third
    of its median from seed to seed), while the entries A holds, and so
    every rounding, differ."""
    base = _random_full(np.random.default_rng(FULL_BASE_SEED), n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ base @ q.conj().T


def _random_banded(rng, n):
    m = np.diag(rng.standard_normal(n) * 0.3 + 1j * rng.standard_normal(n) * 0.3)
    m += np.diag(2.0 + rng.standard_normal(n - 1) * 0.2, 1)
    m += np.diag(rng.standard_normal(n - 2) * 0.5, 2)
    m += np.diag(rng.standard_normal(n - 1) * 0.1, -1)
    return m.astype(np.complex128)


def setup_dense_field(pl, rng, workdir, span):
    """Dense resolvent fields and points through the numkernel LU path."""
    full = _similar_full(rng, DENSE_DIM)
    band = _random_banded(rng, DENSE_DIM)
    with span("operators.build"):
        sharg = pl.operators.build_named_example("shargorodsky").model
        full_op = pl.operators.DenseOperator(full)
        band_op = pl.operators.DenseOperator(band)
        t200 = pl.operators.assemble_truncation(sharg, 100)
    z200 = TRUNC200_POINT
    grid = pl.pseudospectra.GridRegion(-1.2, 1.2, -1.2, 1.2, 3, 3)
    field_ops = [(f"{name}-n{n}", op, mat, n) for name, op, mat in
                 (("full", full_op, full), ("banded", band_op, band)) for n in (0, 1)]
    ops = [
        Op(label, (lambda op=op, n=n: pl.pseudospectra.compute_norm_field(op, grid, n).values),
           grid.nx * grid.ny)
        for label, op, _, n in field_ops
    ]
    ops.append(Op("truncation-200",
                  lambda: pl.resolvent.resolvent_power_norm(t200, z200, 0).value, 1))

    def check(out):
        found = []
        lat = grid.lattice()
        for label, _, mat, n in field_ops:
            vals = out[label]
            cells = [(oracles.reciprocal_err(vals[i, j],
                                             oracles.dense_power_norm(mat, lat[i, j], n)),
                      oracles.dense_tolerance(mat, lat[i, j], DENSE_TOL))
                     for i in range(grid.nx) for j in range(grid.ny)]
            found.append(Finding(label, all(e <= t for e, t in cells),
                                 max(e for e, _ in cells)))
        found.append(_dense_point_finding("truncation-200", out["truncation-200"],
                                          t200.matrix, z200))
        return found

    def probe():
        """The known defect: inverse iteration stalls above the 512-dim
        Jacobi cap and raises ConvergenceError.  Not an operation of the
        pass: it fails on every run until the defect is fixed, and its
        600-dim LU made pass times swing by a third."""
        t600 = pl.operators.assemble_truncation(sharg, 300)
        try:
            value = pl.resolvent.resolvent_power_norm(t600, TRUNC600_POINT, 0).value
        except pl.numkernel.ConvergenceError:
            return 1, []
        return 0, [_dense_point_finding("truncation-600", value, t600.matrix, TRUNC600_POINT)]

    return Setup(ops, check, {"full_trace": repr(complex(np.trace(full))),
                              "banded_trace": repr(complex(np.trace(band)))}, probe)


def _dense_point_finding(label, value, matrix, z) -> Finding:
    err = oracles.reciprocal_err(value, oracles.dense_power_norm(matrix, z, 0))
    return Finding(label, err <= oracles.dense_tolerance(matrix, z, DENSE_TOL), err)


# -------------------------------------------------------------- mask-pipeline

MASK_WINDOW = (-1.5, 1.5, -1.5, 1.5)
MASK_POINTS = 121  # 14641 cells; members above the 10^4 brute-force limit
FIELD_POINTS = 61
NEIGHBOR_POINTS = 101  # 10201 queries, just above the brute-force limit
EIGENVALUES = 16
JITTER = 0.1
MASK_EPSILON = 0.6


def _write_matrix_csv(path, diag):
    n = len(diag)
    with open(path, "w") as fh:
        for i in range(n):
            row = ["0.0"] * (2 * n)
            row[2 * i], row[2 * i + 1] = repr(float(diag[i].real)), repr(float(diag[i].imag))
            fh.write(",".join(row) + "\n")


def _diag_dist(points, diag):
    return np.min(np.hypot(points.real[..., None] - diag.real,
                           points.imag[..., None] - diag.imag), axis=-1)


def setup_mask_pipeline(pl, rng, workdir, span):
    """CLI round trip: levelset to CSV, hausdorff from CSV, field JSON."""
    # a jittered 4x4 grid of eigenvalues: every seed covers the window to
    # about the same degree, so the bucketed searches cost about the same
    grid = np.linspace(-1.0, 1.0, 4)
    centres = (grid[:, None] + 1j * grid[None, :]).ravel()
    diags = [centres + rng.uniform(-JITTER, JITTER, EIGENVALUES)
             + 1j * rng.uniform(-JITTER, JITTER, EIGENVALUES) for _ in range(2)]
    big = oracles.lattice(*MASK_WINDOW, MASK_POINTS, MASK_POINTS)
    eps = MASK_EPSILON
    members = min(int((_diag_dist(big, d) <= eps).sum()) for d in diags)
    if members <= 10**4:
        raise RuntimeError(f"masks hold only {members} members")
    paths = {k: os.path.join(workdir, k) for k in
             ("a.csv", "b.csv", "mask_a.csv", "mask_b.csv", "hausdorff.txt", "field.json")}
    for name, d in zip(("a.csv", "b.csv"), diags):
        _write_matrix_csv(paths[name], d)
    with span("operators.build"):
        op_a = pl.operators.DenseOperator(np.diag(diags[0]))
    region = ",".join(repr(v) for v in MASK_WINDOW)
    small = pl.pseudospectra.GridRegion(*MASK_WINDOW, NEIGHBOR_POINTS, NEIGHBOR_POINTS)
    delta = 2.5 * small.hx  # between lattice distances sqrt(6) h and sqrt(8) h

    def cli(*argv):
        code = pl.cli.parse_and_dispatch(list(argv))
        if code != 0:
            raise RuntimeError(f"pseudolab {argv[0]} exited {code}")
        return code

    def levelset(model, out):
        return cli("levelset", "--model", paths[model], "--region", region,
                   "--nx", str(MASK_POINTS), "--ny", str(MASK_POINTS),
                   "--epsilon", repr(eps), "--out", paths[out])

    def neighborhood():
        f = pl.pseudospectra.compute_norm_field(op_a, small, 0)
        mask = pl.setgeom.MaskSet.from_level_set(
            pl.pseudospectra.level_set(f, eps, "closed_Sigma"))
        return pl.setgeom.delta_neighborhood(mask, delta).mask

    cells = MASK_POINTS**2
    ops = [
        Op("levelset-a", lambda: levelset("a.csv", "mask_a.csv"), cells, (paths["mask_a.csv"],)),
        Op("levelset-b", lambda: levelset("b.csv", "mask_b.csv"), cells, (paths["mask_b.csv"],)),
        Op("hausdorff", lambda: cli("hausdorff", "--a", paths["mask_a.csv"], "--b",
                                    paths["mask_b.csv"], "--out", paths["hausdorff.txt"]),
           0, (paths["hausdorff.txt"],)),
        Op("field-json", lambda: cli("field", "--model", paths["a.csv"], "--region", region,
                                     "--nx", str(FIELD_POINTS), "--ny", str(FIELD_POINTS),
                                     "--format", "json", "--out", paths["field.json"]),
           FIELD_POINTS**2, (paths["field.json"],)),
        Op("delta-neighborhood", neighborhood, NEIGHBOR_POINTS**2),
    ]

    def mask_finding(label, path, diag):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        pts = data[:, 0] + 1j * data[:, 1]
        dist = _diag_dist(pts, diag)
        want = dist <= eps
        ambiguous = np.abs(dist - eps) <= 1e-12
        coords_ok = np.allclose(pts, big.ravel(), rtol=0, atol=1e-12)
        ok = coords_ok and bool(np.all((data[:, 2] == want) | ambiguous))
        members = np.argwhere((data[:, 2] == 1).reshape(big.shape)).astype(np.int32)
        return Finding(label, ok, 0.0, f"{int(want.sum())} members"), members

    def check(out):
        fa, pa = mask_finding("levelset-a", paths["mask_a.csv"], diags[0])
        fb, pb = mask_finding("levelset-b", paths["mask_b.csv"], diags[1])
        with open(paths["hausdorff.txt"]) as fh:
            d = float(fh.read())
        step = (MASK_WINDOW[1] - MASK_WINDOW[0]) / (MASK_POINTS - 1)
        err = oracles.rel_err(d, oracles.lattice_hausdorff(pa, pb, step))
        found = [fa, fb, Finding("hausdorff", err <= EXACT_TOL, err)]
        with open(paths["field.json"]) as fh:
            doc = json.load(fh)
        vals = np.array(doc["values"], dtype=float)
        ref = 1.0 / _diag_dist(oracles.lattice(*MASK_WINDOW, FIELD_POINTS, FIELD_POINTS),
                               diags[0])
        err = float(np.max(np.abs(vals - ref) / ref))
        found.append(Finding("field-json", err <= EXACT_TOL and doc["nx"] == FIELD_POINTS,
                             err))
        lat = small.lattice()
        members = np.argwhere(_diag_dist(lat, diags[0]) <= eps).astype(np.int32)
        cells = np.argwhere(np.ones(lat.shape, dtype=bool)).astype(np.int32)
        near = oracles.lattice_min_sq(cells, members)
        # delta = 2.5 h: compared in squared lattice units, 6.25 is no integer
        want = (near <= 6).reshape(lat.shape)
        found.append(Finding("delta-neighborhood",
                             bool(np.array_equal(out["delta-neighborhood"], want)), 0.0))
        return found

    return Setup(ops, check, {"members": members})


WORKLOADS = {
    "block-field": setup_block_field,
    "dense-field": setup_dense_field,
    "mask-pipeline": setup_mask_pipeline,
}
