"""Command-line front end.

Exit codes: 0 success (and verdict pass for studies), 1 study verdict
fail, 2 configuration, usage or domain error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    InapplicableConditionError,
    SingularityError,
)
from .experiments import (
    constant_region_scan,
    convergence_study,
    counterexample_K_study,
    counterexample_const_study,
    decay_study,
    empty_resolvent_probe,
    global_min_scan,
)
from .operators import (
    NAMED_EXAMPLES,
    DenseOperator,
    DiagBlockFamily,
    TruncationSequence,
    build_named_example,
)
from .pseudospectra import (
    GridRegion,
    compute_norm_field,
    level_set,
    read_mask_csv,
    region_with_step,
    write_field_csv,
    write_json,
    write_mask_csv,
)
from .setgeom import MaskSet, hausdorff_distance

STUDIES = {
    "convergence": "mask distances to the limit along an operator sequence (converge)",
    "counterexample-K": "masks stay apart on a window clipping one eigenvalue ball (verify counterexample-K)",
    "counterexample-const": "scaled families overfill a window meeting the constant disc (verify counterexample-const)",
    "global-min": "grid minimum of a norm field against a claimed floor (verify global-min)",
    "constant-region": "pointwise probes where the norm should sit at the floor (verify constant-region)",
    "decay": "resolvent decay exponent along a ray (decay)",
    "empty-resolvent": "divergent truncation norms of the inverse-symbol family (verify empty-resolvent)",
}

STRICTNESS_FLAG = {"open": "open_sigma", "closed": "closed_Sigma"}

DEFAULT_PHI = 2.0 * math.pi / 5.0

# probes inside the disc of radius 1/2 and on the left-leaning wedge
DEFAULT_PROBES = ("0.2,0", "0,0.3", "-0.25,0.1", "0,1.5", "0.618,1.902")


def _epilog() -> str:
    lines = ["named examples (for --model):"]
    for name in sorted(NAMED_EXAMPLES):
        lines.append(f"  {name:<18}{NAMED_EXAMPLES[name]}")
    lines.append("")
    lines.append("studies:")
    for name, desc in STUDIES.items():
        lines.append(f"  {name:<22}{desc}")
    lines.append("")
    lines.append("--region takes re_min,re_max,im_min,im_max; a wrong count is an")
    lines.append("error, never silently defaulted. --model also accepts a path to a")
    lines.append("CSV matrix file: m rows of 2m re,im-interleaved columns, square.")
    return "\n".join(lines)


def _floats(text: str, count: int, flag: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ConfigurationError(f"{flag} needs {count} comma-separated values, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"{flag} has a non-numeric entry in {text!r}") from None


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _complex_pair(text: str, flag: str) -> complex:
    re, im = _floats(text, 2, flag)
    return complex(re, im)


def _make_region(args) -> GridRegion:
    vals = _floats(args.region, 4, "--region")
    nx, ny = args.nx, args.ny
    h = args.h_default if args.h is None and nx is None and ny is None else args.h
    if h is not None:
        if nx is not None or ny is not None:
            raise ConfigurationError("give either --h or --nx/--ny, not both")
        return region_with_step(*vals, h)
    if nx is None or ny is None:
        raise ConfigurationError("grid needs --h or both --nx and --ny")
    return GridRegion(*vals, nx, ny)


def _read_matrix_csv(path: str) -> DenseOperator:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec:
                continue
            try:
                vals = [float(t) for t in rec]
            except ValueError:
                raise ConfigurationError(f"non-numeric entry in matrix file {path!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ConfigurationError(f"non-finite entry in matrix file {path!r}")
            if len(vals) % 2:
                raise ConfigurationError("matrix rows need re,im pairs (even column count)")
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    if not rows:
        raise ConfigurationError(f"matrix file {path!r} is empty")
    if any(len(r) != len(rows) for r in rows):
        raise ConfigurationError("matrix file must be square: m rows of 2m columns")
    return DenseOperator(np.array(rows, dtype=complex))


def _load_model(name: str, beta=None):
    if name in NAMED_EXAMPLES:
        params = {} if beta is None else {"beta": beta}
        return build_named_example(name, params).model
    if os.path.exists(name):
        return _read_matrix_csv(name)
    raise ConfigurationError(
        f"model {name!r} is neither a named example ({', '.join(sorted(NAMED_EXAMPLES))}) nor a file"
    )


@contextlib.contextmanager
def _sink(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _emit_report(report, out) -> int:
    with _sink(out) as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return 0 if report.passed else 1


def _cmd_field(args) -> int:
    field = compute_norm_field(_load_model(args.model, args.beta), _make_region(args), args.n)
    with _sink(args.out) as fh:
        (write_field_csv if args.format == "csv" else write_json)(field, fh)
    return 0


def _cmd_levelset(args) -> int:
    field = compute_norm_field(_load_model(args.model, args.beta), _make_region(args), args.n)
    mask = level_set(field, args.epsilon, STRICTNESS_FLAG[args.strictness])
    with _sink(args.out) as fh:
        (write_mask_csv if args.format == "csv" else write_json)(mask, fh)
    return 0


def _read_mask_set(path: str) -> MaskSet:
    with open(path, newline="") as fh:
        return MaskSet.from_level_set(read_mask_csv(fh))


def _cmd_hausdorff(args) -> int:
    d = hausdorff_distance(_read_mask_set(args.a), _read_mask_set(args.b))
    with _sink(args.out) as fh:
        fh.write(f"{d:.17g}\n")
    return 0


def _cmd_converge(args) -> int:
    region = _make_region(args)
    ks = _int_list(args.ks, "--ks")
    anchor = _complex_pair(args.anchor, "--anchor")
    if args.sequence == "truncation":
        model = _load_model(args.model, args.beta)
        if not isinstance(model, DiagBlockFamily):
            raise ConfigurationError("truncation sequences need a block-family model")
        seq = TruncationSequence(model, gnr_anchor=anchor)
    else:
        if args.model not in NAMED_EXAMPLES:
            raise ConfigurationError(f"sequence {args.sequence!r} needs a named example model")
        example = build_named_example(args.model)
        if args.sequence not in example.sequences:
            raise ConfigurationError(
                f"example {args.model!r} has no sequence {args.sequence!r};"
                f" available: {', '.join(sorted(example.sequences)) or 'none'}"
            )
        seq = dataclasses.replace(example.sequences[args.sequence], gnr_anchor=anchor)
    report = convergence_study(
        seq, args.epsilon, region, ks, n=args.n, defect_threshold=args.defect_threshold
    )
    return _emit_report(report, args.out)


def _cmd_decay(args) -> int:
    for flag, r in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not (r > 0.0 and math.isfinite(r)):
            raise ConfigurationError(f"{flag} must be positive and finite, got {r}")
    if args.samples < 3:
        raise ConfigurationError(f"--samples must be at least 3, got {args.samples}")
    rs = np.geomspace(args.r_min, args.r_max, args.samples).tolist()
    report = decay_study(args.beta, args.phi, rs, args.grid == "dense")
    return _emit_report(report, args.out)


def _cmd_verify_global_min(args) -> int:
    model = _load_model(args.model, args.beta)
    report = global_min_scan(model, _make_region(args), args.l, args.M)
    return _emit_report(report, args.out)


def _cmd_verify_constant_region(args) -> int:
    model = _load_model(args.model, args.beta)
    probes = [_complex_pair(p, "--probe") for p in (args.probe or DEFAULT_PROBES)]
    report = constant_region_scan(model, probes, args.M, args.tol)
    return _emit_report(report, args.out)


def _cmd_verify_cek(args) -> int:
    report = counterexample_K_study(
        args.lambda1, args.lambda2, args.epsilon, _make_region(args),
        _int_list(args.ks, "--ks"), args.direction,
    )
    return _emit_report(report, args.out)


def _cmd_verify_cec(args) -> int:
    report = counterexample_const_study(_int_list(args.ks, "--ks"), _make_region(args))
    return _emit_report(report, args.out)


def _cmd_verify_empty(args) -> int:
    family = build_named_example("empty_resolvent").model
    report = empty_resolvent_probe(family, _complex_pair(args.lam, "--lam"), _int_list(args.sizes, "--sizes"))
    return _emit_report(report, args.out)


def _add_grid_flags(p, region_default=None, h_default=None):
    if region_default is None:
        p.add_argument("--region", required=True, help="re_min,re_max,im_min,im_max")
    else:
        p.add_argument("--region", default=region_default, help=f"re_min,re_max,im_min,im_max (default {region_default})")
    p.add_argument("--h", type=float, default=None, help="lattice step (alternative to --nx/--ny)")
    p.set_defaults(h_default=h_default)  # the step when neither --h nor --nx/--ny is given
    p.add_argument("--nx", type=int, default=None, help="grid points along the real axis")
    p.add_argument("--ny", type=int, default=None, help="grid points along the imaginary axis")


def _add_model_flag(p):
    p.add_argument("--model", required=True, help="named example or matrix CSV path")
    p.add_argument("--beta", type=float, default=None, help="exponent for the decay example")


def _add_out_flag(p):
    p.add_argument("--out", default=None, help="output file (default: standard output)")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace every call
    parser = argparse.ArgumentParser(
        prog="pseudolab",
        description="Norm fields, level-set masks and study drivers for block operator families.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("field", help="evaluate a resolvent-power norm field on a grid")
    _add_model_flag(p)
    _add_grid_flags(p)
    p.add_argument("--n", type=int, default=0, help="power index (default 0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("levelset", help="threshold a field into a membership mask")
    _add_model_flag(p)
    _add_grid_flags(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--strictness", choices=tuple(STRICTNESS_FLAG), default="closed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two mask CSV files")
    p.add_argument("--a", required=True, help="first mask CSV")
    p.add_argument("--b", required=True, help="second mask CSV")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_hausdorff)

    p = sub.add_parser("converge", help="mask-convergence study along a sequence")
    _add_model_flag(p)
    p.add_argument(
        "--sequence", default="truncation",
        help="truncation, or a sequence attached to the example (shrink/grow/scale)",
    )
    _add_grid_flags(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--ks", default="4,8,16,32", help="comma-separated sequence indices")
    p.add_argument("--anchor", default="0,1", help="re,im resolvent point for the defect gate of any sequence; it must clear the spectra of the limit and of the term the gate evaluates")
    p.add_argument("--defect-threshold", type=float, default=0.25)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("decay", help="decay-exponent study along a ray")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--phi", type=float, default=DEFAULT_PHI, help="ray angle in radians")
    p.add_argument("--r-min", type=float, default=10.0)
    p.add_argument("--r-max", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=7)
    p.add_argument("--grid", choices=("dense", "sparse"), default="dense", help="weight rule: dense is the log grid, sparse alpha_k = k + 1")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("verify", help="run a named verification study")
    vsub = p.add_subparsers(dest="study", required=True, metavar="study")

    v = vsub.add_parser("global-min", help="grid minimum against a claimed floor")
    _add_model_flag(v)
    _add_grid_flags(v, region_default="-4,4,-4,4", h_default=0.1)
    v.add_argument("--l", type=int, default=1, help="power-of-two resolvent power")
    v.add_argument("--M", type=float, required=True, help="claimed global floor")
    _add_out_flag(v)
    v.set_defaults(func=_cmd_verify_global_min)

    v = vsub.add_parser("constant-region", help="pointwise probes at the floor")
    _add_model_flag(v)
    v.add_argument("--probe", action="append", help="re,im probe point (repeatable)")
    v.add_argument("--M", type=float, default=1.0)
    v.add_argument("--tol", type=float, default=1e-9)
    _add_out_flag(v)
    v.set_defaults(func=_cmd_verify_constant_region)

    v = vsub.add_parser("counterexample-K", help="masks stay apart on a clipped window")
    v.add_argument("--lambda1", type=float, default=2.0)
    v.add_argument("--lambda2", type=float, default=6.0)
    v.add_argument("--epsilon", type=float, default=1.0)
    _add_grid_flags(v, region_default="3,8,-2,2", h_default=0.05)
    v.add_argument("--ks", default="2,4,8,16,32,64")
    v.add_argument("--direction", choices=("shrink", "grow"), required=True)
    _add_out_flag(v)
    v.set_defaults(func=_cmd_verify_cek)

    v = vsub.add_parser("counterexample-const", help="scaled families overfill the window")
    _add_grid_flags(v, region_default="-0.4,2.2,-0.4,0.4", h_default=0.05)
    v.add_argument("--ks", default="2,4,8")
    _add_out_flag(v)
    v.set_defaults(func=_cmd_verify_cec)

    v = vsub.add_parser("empty-resolvent", help="Weyl-bounded truncation norm growth")
    v.add_argument("--lam", default="0,2", help="re,im probe point")
    v.add_argument("--sizes", default="25,100", help="comma-separated truncation sizes")
    _add_out_flag(v)
    v.set_defaults(func=_cmd_verify_empty)

    return parser


_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


def _normalize(argv):
    # glue values like -0.4,0.4,-0.4,0.4 onto their flag so argparse does
    # not mistake the leading minus for an option
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize(list(argv)))
    except SystemExit as exc:
        # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ConfigurationError,
        DomainError,
        InapplicableConditionError,
        SingularityError,
        OSError,
        csv.Error,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
