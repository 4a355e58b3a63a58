"""Operator models.

Three kinds of model flow through the rest of the package:

* ``DenseOperator``    a concrete square complex matrix
* ``DiagBlockFamily``  an infinite block-diagonal operator built from a
                       diagonal weight rule k -> alpha_k and a scalar symbol
                       function f; the k-th invariant subspace carries the
                       2x2 block [[0, f(alpha_k)], [alpha_k, 0]] (or a 4x4
                       variant with weights alpha_k and f(alpha_k))
* ``ScaledOperator``   s * inner, evaluated downstream through the exact
                       identity ||(sT - z)^-1|| = |s|^-1 ||(T - z/s)^-1||

plus three sequence kinds (truncation, scaling, explicit) used by the
convergence studies, and a catalogue of named examples.

All models are immutable after construction and every operation here is
pure, so concurrent reads are safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    InapplicableConditionError,
    SingularityError,
)
from .numkernel import as_square_matrix

# construction-time sanity checks sample the weight rule at these indices
VALIDATION_KS = (1, 2, 3, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
# block scans walk k = 1, 2, ... in chunks growing from HEAD_CHUNK to CHUNK_CAP
HEAD_CHUNK = 64
CHUNK_GROWTH = 4
CHUNK_CAP = 1 << 18

ALPHA_KINDS = ("successor", "index", "log_grid")
SYMBOL_KINDS = (
    "one_plus_inv",
    "one_minus_inv_sqrt",
    "inverse",
    "power_beta",
    "constant",
    "tabulated",
)


@dataclass(frozen=True)
class AlphaRule:
    """Growth rule k -> alpha_k for the diagonal weights of a block family.

    ``successor`` gives alpha_k = k + 1 (the default), ``index`` gives
    alpha_k = k.  ``log_grid`` places ``count`` log-spaced points on
    [lo, hi] and continues linearly beyond them with the final grid step,
    which keeps the rule monotone and unbounded while a window of it
    approximates a continuum of weights.
    """

    kind: str = "successor"
    lo: float = 1.0
    hi: float = 1e5
    count: int = 2048

    def __post_init__(self):
        if self.kind not in ALPHA_KINDS:
            raise ConfigurationError(
                f"unknown alpha rule {self.kind!r}; expected one of {ALPHA_KINDS}"
            )
        if self.kind == "log_grid":
            if not (0.0 < self.lo < self.hi):
                raise ConfigurationError("log_grid needs 0 < lo < hi")
            if self.count < 2000:
                raise ConfigurationError("log_grid needs at least 2000 points")

    def values(self, ks) -> np.ndarray:
        k = np.asarray(ks, dtype=np.float64)
        if np.any(k < 1):
            raise DomainError("weight indices start at 1")
        if self.kind == "successor":
            return k + 1.0
        if self.kind == "index":
            return k.copy()
        ratio = (self.hi / self.lo) ** (1.0 / (self.count - 1))
        inside = self.lo * ratio ** np.minimum(k - 1.0, float(self.count - 1))
        step = self.hi * (1.0 - 1.0 / ratio)
        return np.where(k <= self.count, inside, self.hi + (k - self.count) * step)

    def value(self, k: int) -> float:
        return float(self.values(np.array([k]))[0])


@dataclass(frozen=True)
class SymbolSpec:
    """Scalar symbol f applied to the diagonal weights.

    The tail limit C = lim f(alpha_k) is fixed by the kind: 1 for
    one_plus_inv and one_minus_inv_sqrt, 0 for inverse, infinity for
    power_beta, c for constant.  Tabulated symbols interpolate linearly and
    extrapolate their last value, so their tail limit is the last table
    value, reached at the last abscissa.
    """

    kind: str
    beta: float | None = None
    c: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise ConfigurationError(
                f"unknown symbol kind {self.kind!r}; expected one of {SYMBOL_KINDS}"
            )
        if self.kind == "power_beta":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise ConfigurationError("power_beta needs beta in (0, 1)")
        if self.kind == "constant":
            if self.c is None or not (self.c > 0.0):
                raise ConfigurationError("constant symbol needs c > 0")
        if self.kind == "tabulated":
            if not self.table or len(self.table) < 2:
                raise ConfigurationError("tabulated symbol needs at least 2 points")
            xs = [float(x) for x, _ in self.table]
            fs = [float(v) for _, v in self.table]
            if sorted(xs) != xs or len(set(xs)) != len(xs):
                raise ConfigurationError("table abscissae must be strictly increasing")
            if min(fs) <= 0.0:
                raise ConfigurationError("table values must be positive")

    @property
    def tail_limit(self) -> float:
        if self.kind in ("one_plus_inv", "one_minus_inv_sqrt"):
            return 1.0
        if self.kind == "inverse":
            return 0.0
        if self.kind == "power_beta":
            return math.inf
        if self.kind == "constant":
            return float(self.c)
        return float(self.table[-1][1])

    def values(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        if self.kind == "one_plus_inv":
            return 1.0 + 1.0 / a
        if self.kind == "one_minus_inv_sqrt":
            return 1.0 - 1.0 / np.sqrt(a)
        if self.kind == "inverse":
            return 1.0 / a
        if self.kind == "power_beta":
            return a**self.beta
        if self.kind == "constant":
            return np.full_like(a, float(self.c))
        xs = np.array([p[0] for p in self.table], dtype=np.float64)
        fs = np.array([p[1] for p in self.table], dtype=np.float64)
        return np.interp(a, xs, fs)

    def value(self, x: float) -> float:
        return float(self.values(np.array([x]))[0])


class DenseOperator:
    """A concrete operator on C^n given by its square matrix.

    diagonal holds the main diagonal when every off-diagonal entry is
    exactly zero, and is None otherwise.
    """

    def __init__(self, matrix):
        m = np.array(as_square_matrix(matrix), copy=True)
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]
        d = np.diagonal(m)
        self.diagonal = d if np.count_nonzero(m) == np.count_nonzero(d) else None

    def __repr__(self):
        return f"DenseOperator(dim={self.dim})"


@dataclass(frozen=True)
class ScaledOperator:
    """s * inner for a nonzero complex factor s."""

    inner: object
    factor: complex

    def __post_init__(self):
        f = complex(self.factor)
        if f == 0:
            raise DomainError("scale factor must be nonzero")
        if not (math.isfinite(f.real) and math.isfinite(f.imag)):
            raise DomainError("scale factor must be finite")


@dataclass(frozen=True)
class DiagBlockFamily:
    """Infinite block-diagonal family with weights alpha_k and symbol f.

    block_shape chooses between the 2x2 antidiagonal block
    [[0, f(alpha_k)], [alpha_k, 0]] and the 4x4 variant carrying alpha_k
    at positions (3,1), (2,3) and f(alpha_k) at (1,4), (4,2) (1-based).
    The 4x4 tail certificates are derived for the symbol 1 + 1/x only, so
    four_by_four accepts no other symbol kind.
    """

    symbol: SymbolSpec
    alpha: AlphaRule = field(default_factory=AlphaRule)
    block_shape: str = "two_by_two"

    def __post_init__(self):
        if self.block_shape not in ("two_by_two", "four_by_four"):
            raise ConfigurationError(f"unknown block shape {self.block_shape!r}")
        if self.block_shape == "four_by_four" and self.symbol.kind != "one_plus_inv":
            raise ConfigurationError(
                "four_by_four blocks need the one_plus_inv symbol; "
                f"got {self.symbol.kind!r}"
            )
        ks = np.array(VALIDATION_KS, dtype=np.float64)
        alphas = self.alpha.values(ks)
        if not np.all(alphas > 0.0):
            raise ConfigurationError("weights must be positive")
        if np.any(np.diff(alphas) < 0.0):
            raise ConfigurationError("weights must be nondecreasing")
        if not alphas[-1] > 1e3:
            raise ConfigurationError(
                f"weights must grow without bound; alpha at k=10^6 is {alphas[-1]:.3g}"
            )
        fs = self.symbol.values(alphas)
        if not np.all(fs > 0.0):
            raise ConfigurationError("symbol must be positive on the weight range")
        c = self.symbol.tail_limit
        if math.isfinite(c):
            if abs(float(fs[-1]) - c) >= 1e-2:
                raise ConfigurationError(
                    f"declared tail limit {c} inconsistent with f(alpha) = "
                    f"{float(fs[-1]):.6g} at k=10^6"
                )
        else:
            # unbounded tails: the symbol must visibly still be growing
            if not float(fs[-1]) > 1.2 * float(fs[3]):
                raise ConfigurationError(
                    "symbol declared unbounded but shows no growth over the sampled range"
                )

    @property
    def tail_C(self) -> float:
        return self.symbol.tail_limit

    @property
    def block_dim(self) -> int:
        return 2 if self.block_shape == "two_by_two" else 4

    def alpha_values(self, ks) -> np.ndarray:
        return self.alpha.values(ks)

    def symbol_values(self, alphas) -> np.ndarray:
        return self.symbol.values(alphas)

    def block(self, k: int) -> np.ndarray:
        a = self.alpha.value(k)
        f = self.symbol.value(a)
        if self.block_dim == 2:
            return np.array([[0.0, f], [a, 0.0]], dtype=np.complex128)
        b = np.zeros((4, 4), dtype=np.complex128)
        b[2, 0] = a
        b[1, 2] = a
        b[0, 3] = f
        b[3, 1] = f
        return b


def block_chunks(lo: int, hi: int):
    """Block indices lo < k <= hi in chunks growing from HEAD_CHUNK to CHUNK_CAP."""
    size = HEAD_CHUNK
    while lo < hi:
        stop = min(lo + size, hi)
        yield np.arange(lo + 1, stop + 1)
        lo = stop
        size = min(size * CHUNK_GROWTH, CHUNK_CAP)


def assemble_truncation(family: DiagBlockFamily, n_blocks: int) -> DenseOperator:
    """Dense block-diagonal matrix of the first n_blocks blocks.

    Truncations are nested by construction: the leading principal
    submatrix of size s*M equals the size-M truncation for M < n_blocks.
    """
    if n_blocks < 1:
        raise DomainError("truncation needs at least one block")
    ks = np.arange(1, n_blocks + 1)
    alphas = family.alpha_values(ks)
    fs = family.symbol_values(alphas)
    s = family.block_dim
    m = np.zeros((s * n_blocks, s * n_blocks), dtype=np.complex128)
    idx = np.arange(n_blocks)
    if s == 2:
        m[2 * idx, 2 * idx + 1] = fs
        m[2 * idx + 1, 2 * idx] = alphas
    else:
        m[4 * idx + 2, 4 * idx] = alphas
        m[4 * idx + 1, 4 * idx + 2] = alphas
        m[4 * idx, 4 * idx + 3] = fs
        m[4 * idx + 3, 4 * idx + 1] = fs
    return DenseOperator(m)


@dataclass(frozen=True)
class TruncatedFamily:
    """The first n_blocks blocks of a family, kept in block form.

    Mathematically identical to assemble_truncation(family, n_blocks) but
    evaluated blockwise, which keeps large truncations cheap.  dense()
    materializes the equivalent matrix on demand.
    """

    family: DiagBlockFamily
    n_blocks: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise DomainError("truncation needs at least one block")

    @property
    def dim(self) -> int:
        return self.family.block_dim * self.n_blocks

    def dense(self) -> DenseOperator:
        return assemble_truncation(self.family, self.n_blocks)


def check_constant_norm_condition(
    family: DiagBlockFamily, m: float, k_max: int
) -> bool:
    """Check f(alpha_k)^2 >= C^2 - m/alpha_k for every k up to k_max.

    This is the sufficient condition under which the family's resolvent
    norm is constant (equal to 1/C) on a neighbourhood of the origin.
    Only meaningful for finite positive tail limits C.
    """
    c = family.tail_C
    if not (0.0 < c < math.inf):
        raise InapplicableConditionError(
            f"constant-norm condition needs a finite positive tail limit, got {c}"
        )
    if m < 0:
        raise DomainError("condition constant m must be nonnegative")
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    for ks in block_chunks(0, k_max):
        alphas = family.alpha_values(ks)
        fs = family.symbol_values(alphas)
        if np.any(fs * fs < c * c - m / alphas):
            return False
    return True


def scale_operator(model, s: complex):
    """Wrap model with a nonzero scale factor; nested scalings flatten."""
    f = complex(s)
    if f == 0:
        raise DomainError("scale factor must be nonzero")
    if isinstance(model, ScaledOperator):
        return ScaledOperator(model.inner, complex(model.factor) * f)
    return ScaledOperator(model, f)


def _verify_anchor(labelled_models, anchor: complex):
    """Raise SingularityError unless anchor clears the spectrum of every model.

    The clearance is 1 / ||(T - anchor)^-1|| as resolvent_power_norm
    reports it, an infinite family's with the tail scan cut at HEAD_CHUNK
    blocks.
    """
    # resolvent imports this module
    from .resolvent import SPECTRUM_CLEARANCE, resolvent_power_norm

    for label, model in labelled_models:
        d = 1.0 / resolvent_power_norm(model, anchor, 0, max_blocks=HEAD_CHUNK).value
        if not d > SPECTRUM_CLEARANCE:
            raise SingularityError(
                f"anchor {anchor} sits numerically on the spectrum of {label} "
                f"(clearance {d:.3e})",
                which=label,
            )


@dataclass(frozen=True)
class TruncationSequence:
    """T_k = k-block truncation of a family; the limit is the family itself."""

    family: DiagBlockFamily
    gnr_anchor: complex = 1j

    kind = "truncation"

    def __post_init__(self):
        # every truncation's spectrum lies in the family's, and removing
        # blocks can only increase the minimal singular value, so the
        # family's clearance covers every term
        _verify_anchor([("limit", self.family)], self.gnr_anchor)

    def term(self, k: int) -> TruncatedFamily:
        return TruncatedFamily(self.family, k)

    def limit_model(self) -> DiagBlockFamily:
        return self.family


@dataclass(frozen=True)
class ScalingSequence:
    """T_k = factors(k) * base, with factors(k) -> 1."""

    base: object
    factors: Callable[[int], complex]
    gnr_anchor: complex = 1j

    kind = "scaling"

    def __post_init__(self):
        probes = []
        for k in (2, 3, 10, 100):
            probes.append((f"term k={k}", self.term(k)))
        probes.append(("limit", self.base))
        _verify_anchor(probes, self.gnr_anchor)

    def term(self, k: int):
        return scale_operator(self.base, complex(self.factors(k)))

    def limit_model(self):
        return self.base


@dataclass(frozen=True)
class ExplicitSequence:
    """A materialized list of dense terms with an explicit dense limit."""

    terms: tuple
    limit: DenseOperator
    gnr_anchor: complex = 1j

    kind = "explicit"

    def __post_init__(self):
        if not self.terms:
            raise ConfigurationError("explicit sequence needs at least one term")
        probes = [(f"term k={i + 1}", t) for i, t in enumerate(self.terms)]
        probes.append(("limit", self.limit))
        _verify_anchor(probes, self.gnr_anchor)

    def term(self, k: int) -> DenseOperator:
        if not 1 <= k <= len(self.terms):
            raise DomainError(
                f"term index {k} outside materialized range 1..{len(self.terms)}"
            )
        return self.terms[k - 1]

    def limit_model(self) -> DenseOperator:
        return self.limit


@dataclass(frozen=True)
class NamedExample:
    """A catalogue entry: the model plus any associated sequences."""

    name: str
    model: object
    sequences: Mapping[str, object]
    params: Mapping[str, object]


NAMED_EXAMPLES = {
    "diag_pair": "normal 2x2 diag(lambda1, lambda2) with shrink/grow/scale sequences",
    "shargorodsky": "2x2 block family, f(x) = 1 + 1/x: constant resolvent norm near 0",
    "empty_resolvent": "2x2 block family, f(x) = 1/x: truncation norms diverge everywhere",
    "nonconstant": "2x2 block family, f(x) = 1 - 1/sqrt(x): norm strictly above 1",
    "decay": "2x2 block family, f(x) = x^beta: resolvent norm decays along rays",
    "remark_n1": "4x4 block family whose n=1 power norm is constant near 0",
}

EXPLICIT_SEQUENCE_KMAX = 64


def _reject_unknown(params: Mapping, allowed: set, name: str):
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"parameters {sorted(unknown)} not valid for example {name!r} "
            f"(allowed: {sorted(allowed)})"
        )


def _resolve_alpha(params: Mapping) -> AlphaRule:
    raw = params.get("alpha_rule", "successor")
    if isinstance(raw, AlphaRule):
        return raw
    if isinstance(raw, str) and raw in ALPHA_KINDS:
        return AlphaRule(kind=raw)
    raise ConfigurationError(
        f"alpha_rule must be an AlphaRule or one of {ALPHA_KINDS}, got {raw!r}"
    )


def _diag_pair(params: Mapping) -> NamedExample:
    _reject_unknown(params, {"lambda1", "lambda2", "epsilon"}, "diag_pair")
    lam1 = float(params.get("lambda1", 2.0))
    lam2 = float(params.get("lambda2", 6.0))
    eps = float(params.get("epsilon", 1.0))
    if not lam1 < lam2:
        raise ConfigurationError("diag_pair needs lambda1 < lambda2")
    if eps <= 0.0:
        raise ConfigurationError("diag_pair needs epsilon > 0")
    base = DenseOperator(np.diag([lam1, lam2]).astype(np.complex128))

    def dense_pair(first: float) -> DenseOperator:
        return DenseOperator(np.diag([first, lam2]).astype(np.complex128))

    shrink = tuple(
        dense_pair((1.0 - 1.0 / k) * lam1) for k in range(1, EXPLICIT_SEQUENCE_KMAX + 1)
    )
    grow = tuple(
        dense_pair((1.0 + 1.0 / k) * lam1) for k in range(1, EXPLICIT_SEQUENCE_KMAX + 1)
    )
    sequences = {
        "shrink": ExplicitSequence(shrink, base),
        "grow": ExplicitSequence(grow, base),
        "scale": ScalingSequence(base, lambda k: 1.0 - 1.0 / k),
    }
    return NamedExample(
        "diag_pair",
        base,
        sequences,
        {"lambda1": lam1, "lambda2": lam2, "epsilon": eps},
    )


def _family_example(name: str, symbol: SymbolSpec, params: Mapping, shape: str):
    alpha = _resolve_alpha(params)
    family = DiagBlockFamily(symbol=symbol, alpha=alpha, block_shape=shape)
    recorded = {"alpha_rule": alpha.kind}
    if symbol.kind == "power_beta":
        recorded["beta"] = symbol.beta
    return NamedExample(name, family, {}, recorded)


def build_named_example(name: str, params: Mapping | None = None) -> NamedExample:
    """Construct a catalogue example by identifier.

    Unknown names raise a ConfigurationError listing the valid
    identifiers; parameters are validated per example.
    """
    params = dict(params or {})
    if name == "diag_pair":
        return _diag_pair(params)
    if name == "shargorodsky":
        _reject_unknown(params, {"alpha_rule"}, name)
        return _family_example(name, SymbolSpec("one_plus_inv"), params, "two_by_two")
    if name == "empty_resolvent":
        _reject_unknown(params, {"alpha_rule"}, name)
        return _family_example(name, SymbolSpec("inverse"), params, "two_by_two")
    if name == "nonconstant":
        _reject_unknown(params, {"alpha_rule"}, name)
        return _family_example(
            name, SymbolSpec("one_minus_inv_sqrt"), params, "two_by_two"
        )
    if name == "decay":
        _reject_unknown(params, {"alpha_rule", "beta"}, name)
        beta = float(params.get("beta", 0.5))
        return _family_example(
            name, SymbolSpec("power_beta", beta=beta), params, "two_by_two"
        )
    if name == "remark_n1":
        _reject_unknown(params, {"alpha_rule"}, name)
        return _family_example(name, SymbolSpec("one_plus_inv"), params, "four_by_four")
    raise ConfigurationError(
        f"unknown example {name!r}; valid names: {', '.join(sorted(NAMED_EXAMPLES))}"
    )
