"""Scripted studies with pass/fail verdicts.

Each study returns a StudyReport holding the measured series, the
verdict, and the tolerance budget the verdict was judged against, so a
report can be re-checked without re-running the computation.  The
convergence criteria are finite-sample proxies (a monotone trend plus a
final distance of a few grid cells), and every report says so; nothing
here proves a limit statement.

All studies are deterministic: fixed grids, fixed block budgets, no
randomness.  Running one twice gives bit-for-bit identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, InapplicableConditionError
from .operators import (
    LOG_GRID_COUNT,
    AlphaRule,
    DenseOperator,
    DiagBlockFamily,
    SymbolSpec,
    TruncatedFamily,
    build_named_example,
    scale_operator,
)
from .pseudospectra import (
    GridRegion,
    assumption_i_check,
    compute_norm_field,
    dilate_one_cell,
    level_set,
)
from .resolvent import TAIL_TOL, gnr_defect, resolvent_norm, resolvent_power_norms
from .setgeom import MaskSet, hausdorff_distance

PASS = "pass"
FAIL = "fail"

DEFECT_THRESHOLD_DEFAULT = 0.25
MIN_SLACK = 1e-9  # relative slack on >= M claims

STUDY_PROXY_NOTE = (
    "finite-sample proxy: verdict judged from the listed series and budget, "
    "not from a limit statement"
)


@dataclass(frozen=True)
class StudyReport:
    """Self-contained record of one study run."""

    study: str
    params: dict
    series: tuple
    verdict: str
    budget: dict
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL):
            raise DomainError(f"verdict must be {PASS!r} or {FAIL!r}")
        object.__setattr__(
            self, "series", tuple((float(x), float(v)) for x, v in self.series)
        )
        object.__setattr__(self, "notes", tuple(str(s) for s in self.notes))

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)  # 'inf' stays readable in strict JSON
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            return v

        return {
            "study": self.study,
            "params": clean(self.params),
            "series": clean([list(p) for p in self.series]),
            "verdict": self.verdict,
            "budget": clean(self.budget),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _grid_step(region: GridRegion) -> float:
    return max(region.hx, region.hy)


def _closed_mask(field_obj, epsilon) -> MaskSet:
    return MaskSet.from_level_set(level_set(field_obj, epsilon, "closed_Sigma"))


def _closure_proxy_mask(field_obj, epsilon) -> MaskSet:
    # lattice stand-in for closure(open level set): one-cell dilation
    open_mask = level_set(field_obj, epsilon, "open_sigma").mask
    return MaskSet(field_obj.region, dilate_one_cell(open_mask))


def convergence_study(
    seq,
    epsilon: float,
    region: GridRegion,
    ks,
    n: int = 0,
    *,
    defect_threshold: float = DEFECT_THRESHOLD_DEFAULT,
) -> StudyReport:
    """Distance of the terms' level sets to the limit level set over k.

    The limit is seq.limit_model(): for a truncation sequence the infinite
    family itself, evaluated with certified tails.  Preconditions probed
    before any distances are measured: the limit field must pass the
    discrete closure check at this resolution, and the sequence defect at
    the largest k (a certified upper bound for truncations) must sit below
    the configured threshold.  Either failure produces a fail verdict
    naming the violated assumption; distances are then not computed.  The
    indices are taken in increasing order, so the report does not depend
    on the order they are given in.  An index below 1 or a defect_threshold
    that is not > 0 is a ConfigurationError.
    """
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise ConfigurationError("convergence study needs at least one index")
    if min(ks) < 1:
        raise ConfigurationError(f"sequence indices start at 1, got {min(ks)}")
    if not defect_threshold > 0.0:
        raise ConfigurationError(f"defect threshold must be > 0, got {defect_threshold}")
    h = _grid_step(region)
    budget = {
        "h": h,
        "final_limit": 3.0 * h,
        "defect_threshold": defect_threshold,
        "tail_tol": TAIL_TOL,
    }
    params = {
        "epsilon": epsilon,
        "ks": ks,
        "n": n,
        "region": asdict(region),
        "sequence": type(seq).__name__,
    }
    limit_field = compute_norm_field(seq.limit_model(), region, n)
    check = assumption_i_check(limit_field, epsilon)
    if not check.holds_at_resolution:
        where = (
            f" at lattice point {check.witness_z}" if check.witness is not None else ""
        )
        return StudyReport(
            "convergence",
            params,
            (),
            FAIL,
            budget,
            (
                "precondition violated: closure assumption fails on the limit "
                f"field{where}",
                STUDY_PROXY_NOTE,
            ),
        )
    defect = gnr_defect(seq, ks[-1])
    budget["defect_at_last_k"] = defect
    if not defect < defect_threshold:
        return StudyReport(
            "convergence",
            params,
            (),
            FAIL,
            budget,
            (
                "precondition violated: sequence defect "
                f"{defect:.6g} at k={ks[-1]} is not below {defect_threshold}",
                STUDY_PROXY_NOTE,
            ),
        )
    limit_mask = _closed_mask(limit_field, epsilon)
    series = []
    notes = [STUDY_PROXY_NOTE]
    for k in ks:
        term_field = compute_norm_field(seq.term(k), region, n)
        term_mask = _closed_mask(term_field, epsilon)
        if term_mask.size == 0:
            return StudyReport(
                "convergence",
                params,
                tuple(series),
                FAIL,
                budget,
                tuple(notes + [f"level set empty at k={k}"]),
            )
        series.append((float(k), hausdorff_distance(term_mask, limit_mask)))
    vals = [v for _, v in series]
    half = len(vals) // 2
    trend_ok = half == 0 or max(vals[half:]) <= max(vals[:half])
    final_ok = vals[-1] <= 3.0 * h
    verdict = PASS if (trend_ok and final_ok) else FAIL
    if not final_ok:
        notes.append(f"final distance {vals[-1]:.6g} exceeds 3h = {3.0 * h:.6g}")
    if not trend_ok:
        notes.append("distance series does not settle (late max above early max)")
    return StudyReport("convergence", params, tuple(series), verdict, budget, tuple(notes))


def counterexample_K_study(
    lam1: float,
    lam2: float,
    epsilon: float,
    region: GridRegion,
    ks,
    direction: str,
) -> StudyReport:
    """Persistence of the level-set gap when the window only touches one
    component.

    The window must touch the closed epsilon-ball around lam1 at exactly
    the lattice point w0 = lam1 + epsilon on the real axis and contain
    the ball around lam2.  Distances then cannot drop below
    d0 = |w0 - lam2| - epsilon no matter how the first eigenvalue is
    perturbed; the verdict checks that floor with a 2h allowance.
    """
    if direction not in ("shrink", "grow"):
        raise ConfigurationError("direction must be 'shrink' or 'grow'")
    if not lam1 < lam2:
        raise ConfigurationError("needs lam1 < lam2")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ConfigurationError("epsilon must be positive")
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 2:
        raise ConfigurationError("indices must be >= 2")
    w0 = lam1 + epsilon
    tol = 1e-12 * max(1.0, abs(lam2) + epsilon)
    if abs(region.re_min - w0) > tol:
        raise ConfigurationError(
            f"window must touch the closed ball around lam1: needs re_min = "
            f"lam1 + epsilon = {w0}, got {region.re_min}"
        )
    j0 = round(-region.im_min / region.hy)
    if not (0 <= j0 < region.ny) or abs(region.im_min + j0 * region.hy) > tol:
        raise ConfigurationError("touch point lam1 + epsilon is not on the lattice")
    if not (
        lam2 - epsilon >= region.re_min - tol
        and lam2 + epsilon <= region.re_max + tol
        and -epsilon >= region.im_min - tol
        and epsilon <= region.im_max + tol
    ):
        raise ConfigurationError("window must contain the ball around lam2")
    d0 = abs(w0 - lam2) - epsilon
    h = _grid_step(region)
    floor = d0 - 2.0 * h
    budget = {"h": h, "d0": d0, "floor": floor, "epsilon": epsilon}
    params = {
        "lam1": lam1,
        "lam2": lam2,
        "epsilon": epsilon,
        "direction": direction,
        "ks": ks,
        "region": asdict(region),
    }

    def masks_for(shift_factor: float):
        model = DenseOperator(np.diag([shift_factor * lam1, lam2]))
        f = compute_norm_field(model, region)
        if direction == "shrink":
            return _closed_mask(f, epsilon)
        return _closure_proxy_mask(f, epsilon)

    limit_mask = masks_for(1.0)
    series = []
    for k in ks:
        factor = 1.0 - 1.0 / k if direction == "shrink" else 1.0 + 1.0 / k
        series.append((float(k), hausdorff_distance(masks_for(factor), limit_mask)))
    ok = all(v >= floor for _, v in series)
    notes = (STUDY_PROXY_NOTE,) if ok else (
        STUDY_PROXY_NOTE,
        f"some distance fell below the floor {floor:.6g}",
    )
    return StudyReport(
        "counterexample_K", params, tuple(series), PASS if ok else FAIL, budget, notes
    )


def counterexample_const_study(ks, region: GridRegion) -> StudyReport:
    """Constant-norm window beats every scaled approximant.

    For T_k = (1-1/k) times the constant-norm family, the whole window
    lies in the closed level set at epsilon = 1 because the minimum of
    the norm field is (1-1/k)^-1 > 1; the open level set of the limit
    family still misses the constant disc.  Both facts are checked for
    every k.
    """
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 2:
        raise ConfigurationError("indices must be >= 2")
    grid = region.lattice()
    inside_disc = np.abs(grid) < 0.5
    if not inside_disc.any():
        raise ConfigurationError("window must meet the open disc of radius 1/2")
    if inside_disc.all():
        raise ConfigurationError("window must also leave the disc of radius 1/2")
    base = build_named_example("shargorodsky").model
    h = _grid_step(region)
    budget = {"h": h, "min_slack": MIN_SLACK, "tail_tol": TAIL_TOL}
    params = {"ks": ks, "region": asdict(region)}
    notes = [STUDY_PROXY_NOTE]

    limit_field = compute_norm_field(base, region)
    open_limit = level_set(limit_field, 1.0, "open_sigma").mask
    disc_clear = not (open_limit & inside_disc).any()
    if not disc_clear:
        notes.append("limit open level set entered the constant disc")

    series = []
    ok = disc_clear
    for k in ks:
        factor = 1.0 - 1.0 / k
        f = compute_norm_field(scale_operator(base, factor), region)
        lo = float(f.values.min())
        series.append((float(k), lo))
        required = (1.0 / factor) * (1.0 - MIN_SLACK)
        if not lo >= required:
            ok = False
            notes.append(f"k={k}: window minimum {lo:.12g} below {required:.12g}")
    return StudyReport(
        "counterexample_const",
        params,
        tuple(series),
        PASS if ok else FAIL,
        budget,
        tuple(notes),
    )


def global_min_scan(model, region: GridRegion, l: int, M: float) -> StudyReport:
    """Lattice assertion that the norm field never drops below M."""
    if l < 1 or (l & (l - 1)) != 0:
        raise ConfigurationError("power l must be a power of two")
    if not (M > 0.0 and math.isfinite(M)):
        raise ConfigurationError("M must be positive and finite")
    n = l.bit_length() - 1
    f = compute_norm_field(model, region, n)
    flat = f.values.ravel()
    arg = int(np.argmin(flat))
    i, j = divmod(arg, region.ny)
    lo = float(flat[arg])
    required = M * (1.0 - MIN_SLACK)
    verdict = PASS if lo >= required else FAIL
    budget = {
        "h": _grid_step(region),
        "required_min": required,
        "tail_tol": TAIL_TOL,
    }
    params = {"l": l, "M": M, "region": asdict(region)}
    notes = (
        f"argmin at {region.point(i, j)} with value {lo!r}",
        STUDY_PROXY_NOTE,
    )
    return StudyReport(
        "global_min", params, ((float(l), lo),), verdict, budget, notes
    )


def in_constant_region(z: complex) -> bool:
    """Membership in the claimed constant-norm region: the open disc of
    radius 1/2, or the wedge where cos(2 arg z) < 0 beyond radius
    1/|cos(2 arg z)|."""
    z = complex(z)
    r = abs(z)
    if r < 0.5:
        return True
    c2 = math.cos(2.0 * math.atan2(z.imag, z.real))
    return c2 < 0.0 and r >= 1.0 / abs(c2)


def constant_region_scan(model, probes, M: float, tol: float) -> StudyReport:
    """Probe |norm - M| <= tol inside the claimed constant region.

    Probes outside the region are recorded as skipped, never failed;
    the verdict covers the evaluated probes only.  A non-finite probe is
    refused before any is evaluated.  The equality is only judged on
    certified values: an uncertified probe is a lower bound and fails.
    The region is shargorodsky's, at n = 0; a 4x4 family's constant-norm
    claim is at n = 1, so it is refused as inapplicable.
    """
    if isinstance(model, DiagBlockFamily) and model.block_dim == 4:
        raise InapplicableConditionError(
            "constant-region probes the n = 0 norm on shargorodsky's disc and "
            "wedge; a 4x4 family's constant-norm claim is at n = 1"
        )
    if not (M > 0.0 and math.isfinite(M)):
        raise ConfigurationError("M must be positive and finite")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError("tol must be positive and finite")
    probes = [complex(p) for p in probes]
    if not probes:
        raise ConfigurationError("needs at least one probe")
    bad = [z for z in probes if not np.isfinite(z)]
    if bad:
        raise ConfigurationError(f"probes must be finite, got {bad[0]}")
    inside = [z for z in probes if in_constant_region(z)]
    results = iter(resolvent_power_norms(model, inside, 0))
    series = []
    notes = []
    ok = True
    evaluated = 0
    for idx, z in enumerate(probes):
        if not in_constant_region(z):
            notes.append(f"probe {idx} at {z} outside the region: skipped")
            continue
        rv = next(results)
        value = rv.value
        series.append((float(idx), value))
        evaluated += 1
        if not rv.certified:
            ok = False
            notes.append(
                f"probe {idx} at {z}: value {value!r} uncertified "
                f"(tail gap {rv.tail_gap!r})"
            )
        elif not (math.isfinite(value) and abs(value - M) <= tol):
            ok = False
            notes.append(f"probe {idx} at {z}: value {value!r} not within {tol} of {M}")
    if evaluated == 0:
        ok = False
        notes.append("no probe inside the region")
    budget = {"tol": tol, "M": M, "tail_tol": TAIL_TOL}
    params = {"probes": [repr(p) for p in probes], "M": M}
    return StudyReport(
        "constant_region",
        params,
        tuple(series),
        PASS if ok else FAIL,
        budget,
        tuple(notes),
    )


def _decay_gain(beta: float, r: float, phi: float, mu: np.ndarray) -> np.ndarray:
    """g(mu) = mu^2 / (r^4 - 2 q r^2 cos(2 phi) + q^2) with q = mu^(1+beta), at each weight."""
    c2 = math.cos(2.0 * phi)
    r2 = r * r
    q = mu ** (1.0 + beta)
    return mu * mu / (r2 * r2 - 2.0 * q * r2 * c2 + q * q)


def _decay_maximizer(beta: float, r: float, phi: float) -> float:
    """The maximizer of g over mu > 0, in closed form.

    d log g / d mu = 0 reads beta q^2 + b r^2 q - r^4 = 0 with
    b = (1 - beta) cos(2 phi); g vanishes at 0 and infinity, so its one
    positive root q* gives the maximizer mu* = q*^(1/(1+beta)).  Each form
    of q* avoids the cancellation of the other.
    """
    b = (1.0 - beta) * math.cos(2.0 * phi)
    root = math.sqrt(b * b + 4.0 * beta)
    r2 = r * r
    q = 2.0 * r2 / (b + root) if b > 0.0 else r2 * (root - b) / (2.0 * beta)
    return q ** (1.0 / (1.0 + beta))


def decay_study(beta: float, phi: float, rs, dense_spectrum: bool) -> StudyReport:
    """Decay rate of the norm field along a ray, with the interior
    maximizer tracked on the weight grid and continuously.

    Fits log value against log r; the slope must be -2 beta/(1+beta)
    within 0.05, the maximizer location must scale like r^(2/(1+beta))
    within 0.05 on the exponent, and with a dense weight grid the
    compensated values r^(2 beta/(1+beta)) * value must settle to 2%
    between the last two radii.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigurationError("beta must lie in (0,1)")
    phi = float(phi)
    if math.isclose(math.sin(phi), 0.0, abs_tol=1e-12):
        raise ConfigurationError("phi must avoid the real axis (0 and pi)")
    rs = [float(r) for r in rs]
    if len(rs) < 3 or min(rs) <= 0.0:
        raise ConfigurationError("needs at least three positive radii")
    if max(rs) / min(rs) < 10.0:
        raise ConfigurationError("radii must span at least one decade")
    rs = sorted(rs)
    if dense_spectrum:
        rule = AlphaRule("log_grid")
    else:
        rule = AlphaRule("successor")
    family = DiagBlockFamily(SymbolSpec("power_beta", beta=beta), rule)

    target_slope = -2.0 * beta / (1.0 + beta)
    target_exp = 2.0 / (1.0 + beta)
    mu_cont = [_decay_maximizer(beta, r, phi) for r in rs]
    if rule.kind == "log_grid":
        alphas = rule.values(np.arange(1, LOG_GRID_COUNT + 1))
    else:
        # twice the largest maximizer, so every scan peaks inside the grid
        kmax = int(math.ceil(2.0 * max(mu_cont))) + 4
        alphas = rule.values(np.arange(1, kmax + 1))

    zs = [r * complex(math.cos(phi), math.sin(phi)) for r in rs]
    values = resolvent_power_norms(family, zs, 0).value.tolist()
    series = list(zip(rs, values))
    notes = [STUDY_PROXY_NOTE]
    for r, mu in zip(rs, mu_cont):
        gv = _decay_gain(beta, r, phi, alphas)
        m = int(np.argmax(gv))
        if m == 0 or m == len(alphas) - 1 or gv[m] < max(gv[0], gv[-1]):
            raise InapplicableConditionError(
                f"maximizer scan not unimodal inside the weight grid at r={r}"
            )
        rel = abs(mu - float(alphas[m])) / mu
        if rel > 0.01:
            notes.append(
                f"grid and continuous maximizers differ by {rel:.3%} at r={r}"
            )

    logs_r = np.log(np.array(rs))
    slope = float(np.polyfit(logs_r, np.log([v for _, v in series]), 1)[0])
    exp_fit = float(np.polyfit(logs_r, np.log(mu_cont), 1)[0])
    compensated = [r ** (-target_slope) * v for r, (_, v) in zip(rs, series)]
    settle = abs(compensated[-1] / compensated[-2] - 1.0)

    slope_ok = abs(slope - target_slope) <= 0.05
    exp_ok = abs(exp_fit - target_exp) <= 0.05
    settle_ok = (not dense_spectrum) or settle <= 0.02
    verdict = PASS if (slope_ok and exp_ok and settle_ok) else FAIL
    notes.append(f"fitted slope {slope:.6f} (target {target_slope:.6f})")
    notes.append(f"maximizer exponent {exp_fit:.6f} (target {target_exp:.6f})")
    if dense_spectrum:
        notes.append(f"compensated tail settles to {settle:.4%}")
    budget = {
        "slope_tol": 0.05,
        "exponent_tol": 0.05,
        "settle_tol": 0.02 if dense_spectrum else None,
        "alpha_rule": rule.kind,
        "tail_tol": TAIL_TOL,
    }
    params = {
        "beta": beta,
        "phi": phi,
        "rs": rs,
        "dense_spectrum": bool(dense_spectrum),
    }
    return StudyReport("decay", params, tuple(series), verdict, budget, tuple(notes))


def empty_resolvent_probe(family: DiagBlockFamily, lam: complex, Ns) -> StudyReport:
    """Unbounded growth of truncation resolvents for the inverse-symbol
    family, each value checked against its closed-form trial-vector
    bound."""
    if not isinstance(family, DiagBlockFamily) or family.symbol.kind != "inverse":
        raise ConfigurationError(
            "probe needs the inverse-symbol family (tail limit 0)"
        )
    Ns = [int(N) for N in Ns]
    if len(Ns) < 2 or min(Ns) < 1:
        raise ConfigurationError("needs at least two truncation sizes")
    lam = complex(lam)
    series = []
    notes = [STUDY_PROXY_NOTE]
    ok = True
    lam2 = lam * lam
    for N in Ns:
        value = resolvent_norm(TruncatedFamily(family, N), lam).value
        series.append((float(N), value))
        alpha = family.alpha.value(N)
        gap = abs(alpha * family.symbol.value(alpha) - lam2)
        if gap == 0.0:
            notes.append(
                f"N={N}: trial-vector bound is unbounded (exact singular "
                "limit); bound check skipped"
            )
            continue
        bound = math.sqrt(alpha * alpha + abs(lam) ** 2) / gap
        if not value >= bound - 1e-9:
            ok = False
            notes.append(f"N={N}: value {value!r} below bound {bound!r}")
    growth_ok = series[-1][1] >= 3.0 * series[0][1]
    if not growth_ok:
        ok = False
        notes.append("norms did not triple from first to last truncation")
    budget = {"bound_slack": 1e-9, "growth_factor": 3.0}
    params = {"lambda": repr(lam), "Ns": Ns}
    return StudyReport(
        "empty_resolvent",
        params,
        tuple(series),
        PASS if ok else FAIL,
        budget,
        tuple(notes),
    )
