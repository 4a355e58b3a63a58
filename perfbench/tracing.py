"""Spans around the public functions of pseudolab, recorded from outside.

A traced run replaces every module-level binding of a traced function with
a wrapper, in every pseudolab module that looks the function up, so
``numkernel.lu_solve`` covers the solves inside ``smallest_singular_value``
and ``resolvent.lu_solve`` the dense power path.  Nothing under ``src/``
changes; ``uninstall`` puts the original bindings back.

Each thread keeps its own parent stack.  ``compute_norm_field`` evaluates
cells on pool threads whose stacks start empty; a span opened there is
parented to the innermost open span of the thread that installed the
tracer, which is the benchmark's only client thread and is blocked inside
the field call while the pool runs.  Spans stay in memory and are written
once, by ``write``, when the run ends.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

def _model_kind(model) -> str:
    kind = type(model).__name__
    if kind == "DiagBlockFamily":
        return f"block{model.block_dim}"
    return "dense" if kind == "DenseOperator" else kind


def _point_attrs(args, result):
    attrs = {"kind": _model_kind(args[0])}
    if result is not None:
        attrs.update(k_cutoff=int(result.k_cutoff), certified=bool(result.certified),
                     tail_gap=float(result.tail_gap))
    return attrs


def _elems_attrs(args, result):
    return {"elems": int(np.size(args[0]))}


def _cells_attrs(args, result):
    return {"cells": int(result.values.size) if result is not None else 0}


def _written_bytes(args, result):
    try:
        return {"bytes": int(args[1].tell())}
    except (OSError, ValueError, AttributeError):
        return {"bytes": 0}


def _read_bytes(args, result):
    try:
        return {"bytes": os.fstat(args[0].fileno()).st_size}
    except (OSError, ValueError, AttributeError):
        return {"bytes": 0}


def _hausdorff_attrs(args, result):
    return {"points": args[0].size + args[1].size}


# One entry per traced function: (home module, attribute, span name, attrs
# [, sites]).  attrs(args, result) returns the counters recorded on the span
# (result is None when the call raised); sites limits the wrapping to the
# bindings in those modules, otherwise every module that imported the
# function is covered.
TRACED = (
    ("resolvent", "resolvent_power_norm", "resolvent.point", _point_attrs),
    ("resolvent", "jacobi_singular_values", "resolvent.refine_jacobi", None,
     ("resolvent",)),
    ("resolvent", "sv2x2_batch", "numkernel.sv2x2", _elems_attrs),
    ("numkernel", "lu_factor", "numkernel.lu_factor", None),
    ("numkernel", "lu_solve", "numkernel.solve", None),
    ("numkernel", "lu_solve_adjoint", "numkernel.solve", None),
    ("numkernel", "smallest_singular_value", "numkernel.sigma_min", None),
    ("numkernel", "jacobi_singular_values", "numkernel.jacobi", None,
     ("numkernel",)),
    ("pseudospectra", "compute_norm_field", "pseudospectra.field", _cells_attrs),
    ("pseudospectra", "level_set", "pseudospectra.levelset", None),
    ("pseudospectra", "write_field_csv", "pseudospectra.csv_write", _written_bytes),
    ("pseudospectra", "write_mask_csv", "pseudospectra.csv_write", _written_bytes),
    ("pseudospectra", "read_mask_csv", "pseudospectra.csv_read", _read_bytes),
    ("setgeom", "hausdorff_distance", "setgeom.hausdorff", _hausdorff_attrs),
    ("setgeom", "delta_neighborhood", "setgeom.neighborhood", None),
    ("experiments", "convergence_study", "experiments.study", None),
    ("experiments", "global_min_scan", "experiments.study", None),
    ("experiments", "counterexample_K_study", "experiments.study", None),
    ("experiments", "counterexample_const_study", "experiments.study", None),
    ("experiments", "constant_region_scan", "experiments.study", None),
    ("experiments", "decay_study", "experiments.study", None),
    ("experiments", "empty_resolvent_probe", "experiments.study", None),
    ("cli", "parse_and_dispatch", "cli.dispatch", None),
    ("operators", "build_named_example", "operators.build", None),
    ("operators", "assemble_truncation", "operators.build", None),
)

# phases a span is recorded in: set-up, then the traced passes
SETUP_PHASE, TRACED_PHASE = "setup", "traced"

MODULES = (
    "numkernel", "operators", "resolvent", "pseudospectra", "setgeom",
    "experiments", "cli",
)


class Tracer:
    """Thread-safe in-memory span recorder; see layer_metrics for the sums."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._buffers = []  # one span list per thread that recorded spans
        self._client_stack = None
        self._installed = []
        self.phase = SETUP_PHASE  # run.py switches to TRACED_PHASE after set-up

    # ---------------------------------------------------------- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._buffers.append(self._local.spans)
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, name, t0, attrs):
        t1 = time.perf_counter()
        stack.pop()
        self._local.spans.append((sid, parent, name, t0, t1, self.phase, attrs))

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        sid, parent, stack = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, stack, name, t0, {})

    def _wrapper(self, fn, name, attrs_of):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open(name)
            t0 = time.perf_counter()
            result, attrs = None, {}
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                if attrs_of is not None:
                    attrs.update(attrs_of(args, result))
                tracer._close(sid, parent, stack, name, t0, attrs)

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------- install/remove

    def install(self, package):
        """Wrap every binding of each traced function in every module."""
        if self._installed:
            return
        self._client_stack = self._stack()
        everywhere = [getattr(package, m) for m in MODULES] + [package]
        plan = []
        for home, attr, name, attrs_of, *sites in TRACED:
            fn = getattr(getattr(package, home), attr)
            mods = [getattr(package, m) for m in sites[0]] if sites else everywhere
            plan.append((fn, self._wrapper(fn, name, attrs_of), mods))
        for fn, wrapped, mods in plan:
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._installed):
            setattr(mod, key, fn)
        self._installed = []

    # -------------------------------------------------------- aggregation

    def spans(self):
        with self._lock:
            buffers = list(self._buffers)
        out = [s for buf in buffers for s in buf]
        out.sort(key=lambda s: s[0])
        return out

    def write(self, path):
        """Write every recorded span as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, phase, attrs in self.spans():
                rec = {"id": sid, "parent": parent, "name": name, "start": t0,
                       "end": t1, "phase": phase, **attrs}
                fh.write(json.dumps(rec) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer values per traced pass from the spans of the traced phase;
    ``operators.build_s`` comes from the set-up phase.

    Times are seconds per pass summed over threads; ``*_calls``, ``*_elems``
    and ``*_bytes`` are per pass; ``field_s``, ``study_s`` and ``dispatch_s``
    are self times (span minus the union of its children's intervals).
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    parent_name = {s[0]: (by_id[s[1]][2] if s[1] in by_id else None) for s in spans}

    count, incl, selft = {}, {}, {}
    point = {}
    blocks = uncert = sv_elems = csv_bytes = haus_pts = cells = 0
    gap_max = 0.0
    sigma_solves = sigma_jacobi = 0
    for sid, parent, name, t0, t1, ph, attrs in spans:
        if ph != TRACED_PHASE:
            continue
        dur = t1 - t0
        kind = attrs.get("kind")
        count[name] = count.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        selft[name] = selft.get(name, 0.0) + dur - _covered(children.get(sid, ()), t0, t1)
        if name == "resolvent.point":
            point[kind] = point.get(kind, 0.0) + dur
            blocks += attrs.get("k_cutoff", 0)
            uncert += not attrs.get("certified", True)
            if math.isfinite(attrs.get("tail_gap", 0.0)):
                gap_max = max(gap_max, attrs.get("tail_gap", 0.0))
        elif name == "numkernel.sv2x2":
            sv_elems += attrs["elems"]
        elif name in ("pseudospectra.csv_write", "pseudospectra.csv_read"):
            csv_bytes += attrs["bytes"]
        elif name == "setgeom.hausdorff":
            haus_pts += attrs["points"]
        elif name == "pseudospectra.field":
            cells += attrs.get("cells", 0)
        elif name == "numkernel.solve" and parent_name[sid] == "numkernel.sigma_min":
            sigma_solves += 1
        elif name == "numkernel.jacobi" and parent_name[sid] == "numkernel.sigma_min":
            sigma_jacobi += 1

    build_s = sum(
        s[4] - s[3] for s in spans if s[5] == SETUP_PHASE and s[2] == "operators.build"
        and not (s[1] in by_id and by_id[s[1]][2] == "operators.build")
    )
    p = max(passes, 1)
    sigma_calls = count.get("numkernel.sigma_min", 0)
    out = {
        "resolvent.point_calls": count.get("resolvent.point", 0) / p,
        "resolvent.point_s.block2": point.get("block2", 0.0) / p,
        "resolvent.point_s.block4": point.get("block4", 0.0) / p,
        "resolvent.point_s.dense": point.get("dense", 0.0) / p,
        "resolvent.blocks_scanned": blocks / p,
        "resolvent.uncertified": uncert / p,
        "resolvent.tail_gap_max": gap_max,
        "resolvent.refine_jacobi_calls": count.get("resolvent.refine_jacobi", 0) / p,
        "numkernel.lu_factor_calls": count.get("numkernel.lu_factor", 0) / p,
        "numkernel.solve_calls": count.get("numkernel.solve", 0) / p,
        "numkernel.solve_s": incl.get("numkernel.solve", 0.0) / p,
        "numkernel.sigma_min_calls": sigma_calls / p,
        "numkernel.sigma_min_s": incl.get("numkernel.sigma_min", 0.0) / p,
        "numkernel.iters_per_sigma_min": (sigma_solves / 2) / sigma_calls if sigma_calls else 0.0,
        "numkernel.jacobi_fallbacks": sigma_jacobi / p,
        "numkernel.fallback_ratio": sigma_jacobi / sigma_calls if sigma_calls else 0.0,
        "numkernel.sv2x2_calls": count.get("numkernel.sv2x2", 0) / p,
        "numkernel.sv2x2_elems": sv_elems / p,
        "numkernel.sv2x2_bytes": 64 * sv_elems / p,
        "pseudospectra.field_s": selft.get("pseudospectra.field", 0.0) / p,
        "pseudospectra.field_cells": cells / p,
        "pseudospectra.levelset_s": incl.get("pseudospectra.levelset", 0.0) / p,
        "pseudospectra.csv_write_s": incl.get("pseudospectra.csv_write", 0.0) / p,
        "pseudospectra.csv_read_s": incl.get("pseudospectra.csv_read", 0.0) / p,
        "pseudospectra.csv_bytes": csv_bytes / p,
        "setgeom.hausdorff_s": incl.get("setgeom.hausdorff", 0.0) / p,
        "setgeom.hausdorff_points": haus_pts / p,
        "setgeom.neighborhood_s": incl.get("setgeom.neighborhood", 0.0) / p,
        "experiments.study_s": selft.get("experiments.study", 0.0) / p,
        "cli.dispatch_s": selft.get("cli.dispatch", 0.0) / p,
        "operators.build_s": build_s,
    }
    return out
