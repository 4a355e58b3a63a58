"""Operator models.

Three kinds of model flow through the rest of the package:

* ``DenseOperator``    a concrete square complex matrix
* ``DiagBlockFamily``  an infinite block-diagonal operator built from a
                       weight rule k -> alpha_k (alpha_k = k + 1, or a log
                       grid) and a symbol f (1 + 1/x, 1 - 1/sqrt(x), 1/x or
                       x^beta); the k-th invariant subspace carries the
                       2x2 block [[0, f(alpha_k)], [alpha_k, 0]] (or a 4x4
                       variant with weights alpha_k and f(alpha_k))
* ``ScaledOperator``   s * inner, evaluated downstream through the exact
                       identity ||(sT - z)^-1|| = |s|^-1 ||(T - z/s)^-1||

plus two sequence kinds used by the convergence studies, each checking
its anchor against its limit only: ``TruncationSequence`` (the k-block
truncations of a family, whose limit is the family) and
``OperatorSequence`` (a term rule k -> model and a limit model), and a
catalogue of named examples.

The module describes models only and scans no blocks: the block scan and
its schedule live in resolvent and the tail certificates in tails.  A
sequence's anchor check calls resolvent at its default budget and reads
the result as a certified upper bound on the resolvent norm.

Each model also records, when it is built, the exact mirror symmetry of
z -> ||(T - z)^-m|| that its structure gives (its ``mirror``).
``mirror_points`` maps points to their canonical mirrors under it, and
``mirror_classes`` groups points by those:

* ``"quadrant"``   z, -z, conj(z) and -conj(z) give one value: every block
                   B of a family or truncation is real with D B D = -B for
                   a diagonal D of +-1, diag(1, -1) on a 2x2 block and
                   diag(1, 1, -1, -1) on a 4x4 one; canonical (|Re|, |Im|)
* ``"conjugate"``  z and conj(z) give one value: a dense matrix with no
                   imaginary part; canonical (Re, |Im|)
* ``None``         no symmetry: a complex dense matrix

A ScaledOperator has no mirror of its own: (sT - z)/s = T - z/s, so
resolvent evaluates it as its model at the points z/s, and the model's
mirror folds those, whatever the factor.

All models are immutable after construction and every operation here is
pure, so concurrent reads are safe.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, DomainError, SingularityError
from .numkernel import as_square_matrix

# construction-time sanity checks sample the weight rule at these indices
VALIDATION_KS = (1, 2, 3, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

ALPHA_KINDS = ("successor", "log_grid")
SYMBOL_KINDS = ("one_plus_inv", "one_minus_inv_sqrt", "inverse", "power_beta")
# the log_grid rule: LOG_GRID_COUNT log-spaced weights on [1, LOG_GRID_HI]
LOG_GRID_HI = 1e5
LOG_GRID_COUNT = 2048


@dataclass(frozen=True)
class AlphaRule:
    """Growth rule k -> alpha_k for the diagonal weights of a block family.

    ``successor`` gives alpha_k = k + 1 (the default).  ``log_grid`` places
    LOG_GRID_COUNT log-spaced points on [1, LOG_GRID_HI] and continues
    linearly beyond them with the final grid step, which keeps the rule
    monotone and unbounded while a window of it approximates a continuum
    of weights.
    """

    kind: str = "successor"

    def __post_init__(self):
        if self.kind not in ALPHA_KINDS:
            raise ConfigurationError(
                f"unknown alpha rule {self.kind!r}; expected one of {ALPHA_KINDS}"
            )

    def values(self, ks) -> np.ndarray:
        k = np.asarray(ks, dtype=np.float64)
        if np.any(k < 1):
            raise DomainError("weight indices start at 1")
        if self.kind == "successor":
            return k + 1.0
        count = LOG_GRID_COUNT
        ratio = LOG_GRID_HI ** (1.0 / (count - 1))
        inside = ratio ** np.minimum(k - 1.0, float(count - 1))
        step = LOG_GRID_HI * (1.0 - 1.0 / ratio)
        return np.where(k <= count, inside, LOG_GRID_HI + (k - count) * step)

    def value(self, k: int) -> float:
        return float(self.values(np.array([k]))[0])


@dataclass(frozen=True)
class SymbolSpec:
    """Scalar symbol f applied to the diagonal weights.

    The tail limit C = lim f(alpha_k) is fixed by the kind: 1 for
    one_plus_inv and one_minus_inv_sqrt, 0 for inverse, infinity for
    power_beta.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise ConfigurationError(
                f"unknown symbol kind {self.kind!r}; expected one of {SYMBOL_KINDS}"
            )
        if self.kind == "power_beta":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise ConfigurationError("power_beta needs beta in (0, 1)")

    @property
    def tail_limit(self) -> float:
        if self.kind in ("one_plus_inv", "one_minus_inv_sqrt"):
            return 1.0
        if self.kind == "inverse":
            return 0.0
        return math.inf

    def values(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        if self.kind == "one_plus_inv":
            return 1.0 + 1.0 / a
        if self.kind == "one_minus_inv_sqrt":
            return 1.0 - 1.0 / np.sqrt(a)
        if self.kind == "inverse":
            return 1.0 / a
        return a**self.beta

    def value(self, x: float) -> float:
        return float(self.values(np.array([x]))[0])


class DenseOperator:
    """A concrete operator on C^n given by its square matrix.

    blocks holds the boundaries 0 = b_0 < ... < b_m = dim of the finest
    split into contiguous diagonal blocks [b_i, b_{i+1}) with every entry
    outside them exactly zero: the matrix is the direct sum of those
    blocks, and a diagonal matrix is the all-1x1 split.  Index i closes a
    block when no nonzero entry in rows or columns 0..i reaches past i.
    """

    def __init__(self, matrix):
        m = np.array(as_square_matrix(matrix), copy=True)
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]
        coupled = m != 0
        coupled |= coupled.T
        idx = np.arange(self.dim)
        reach = np.where(coupled, idx, idx[:, None]).max(axis=1)
        ends = np.flatnonzero(np.maximum.accumulate(reach) == idx) + 1
        self.blocks = (0, *ends.tolist())
        self.mirror = None if m.imag.any() else "conjugate"

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
    mirror = "quadrant"  # not a field: every family has it

    def __post_init__(self):
        if self.block_shape not in ("two_by_two", "four_by_four"):
            raise ConfigurationError(f"unknown block shape {self.block_shape!r}")
        if self.block_shape == "four_by_four" and self.symbol.kind != "one_plus_inv":
            raise ConfigurationError(
                "four_by_four blocks need the one_plus_inv symbol; "
                f"got {self.symbol.kind!r}"
            )
        alphas = self.alpha.values(np.array(VALIDATION_KS, dtype=np.float64))
        fs = self.symbol.values(alphas)
        if not np.all(fs > 0.0):
            raise ConfigurationError("symbol must be positive on the weight range")
        # unbounded tails: the symbol must visibly still be growing
        if self.symbol.tail_limit == math.inf and not float(fs[-1]) > 1.2 * float(fs[3]):
            raise ConfigurationError(
                "symbol declared unbounded but shows no growth over the sampled range"
            )

    @property
    def block_dim(self) -> int:
        return 2 if self.block_shape == "two_by_two" else 4

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


def _block_count(n_blocks) -> int:
    """n_blocks as an int, a whole number of blocks and at least one; DomainError otherwise."""
    try:
        count = operator.index(n_blocks)  # numpy integers pass
    except TypeError:
        raise DomainError(f"a truncation takes a whole number of blocks, got {n_blocks!r}") from None
    if count < 1:
        raise DomainError("truncation needs at least one block")
    return count


def assemble_truncation(family: DiagBlockFamily, n_blocks: int) -> DenseOperator:
    """Dense block-diagonal matrix of the first n_blocks blocks.

    Truncations are nested by construction: the leading principal
    submatrix of size s*M equals the size-M truncation for M < n_blocks.
    """
    n_blocks = _block_count(n_blocks)
    ks = np.arange(1, n_blocks + 1)
    alphas = family.alpha.values(ks)
    fs = family.symbol.values(alphas)
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
    evaluated blockwise, which keeps large truncations cheap.
    """

    family: DiagBlockFamily
    n_blocks: int
    mirror = "quadrant"  # its blocks are its family's

    def __post_init__(self):
        object.__setattr__(self, "n_blocks", _block_count(self.n_blocks))


def mirror_points(model, zs: np.ndarray) -> np.ndarray:
    """The canonical mirror of each point of zs under model.mirror; zs itself without one.

    A sign is cleared by abs, which is exact, so every point of a mirror
    class maps to the same canonical point; -0.0 and 0.0 parts compare
    equal.  A model of a kind this module does not define has no mirror.
    """
    mirror = getattr(model, "mirror", None)
    if mirror is None:
        return zs
    out = np.empty_like(zs)
    out.real = np.abs(zs.real) if mirror == "quadrant" else zs.real
    out.imag = np.abs(zs.imag)
    return out


def mirror_classes(model, zs: np.ndarray):
    """(heads, cls) for the mirror classes of zs; None when no two points share one.

    heads marks the first point of each class, and zs[heads][cls] is, point
    by point, a mirror of zs: cls numbers the classes in the order of their
    first points.  A class is a run of equal keys after a sort (not
    np.unique, whose first call imports numpy.ma); complex keys sort by
    (Re, Im), and a class's first point is the least index in its run, so
    the sort need not be stable (lexsort and the stable sorts page in about
    128 KiB more of numpy's code, which peak RSS counts).  Fewer than two
    points, as in every one-point evaluation, return None without a sort.
    """
    keys = mirror_points(model, zs) if len(zs) > 1 else zs
    if keys is zs:
        return None
    order = np.argsort(keys)
    keys = keys[order]
    start = np.ones(len(zs), dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    run = np.cumsum(start) - 1
    firsts = np.full(np.count_nonzero(start), len(zs))
    np.minimum.at(firsts, run, order)
    if len(firsts) == len(zs):
        return None
    heads = np.zeros(len(zs), dtype=bool)
    heads[firsts] = True
    cls = np.empty_like(order)
    cls[order] = (np.cumsum(heads) - 1)[firsts[run]]
    return heads, cls


def scale_operator(model, s: complex):
    """Wrap model with a nonzero scale factor; nested scalings flatten."""
    f = complex(s)
    if isinstance(model, ScaledOperator):
        return ScaledOperator(model.inner, complex(model.factor) * f)
    return ScaledOperator(model, f)


def _verify_anchor(limit, anchor: complex):
    """Raise SingularityError unless anchor clears the spectrum of limit.

    The clearance is 1 / (value + tail_gap) of ||(T - anchor)^-1|| as
    resolvent_power_norm reports it at its default budget: a lower bound on
    sigma_min(T - anchor), so an infinite family's scan that ends
    uncertified (gap inf) never clears an anchor.
    """
    # resolvent imports this module
    from .resolvent import SPECTRUM_CLEARANCE, resolvent_power_norm

    norm = resolvent_power_norm(limit, anchor, 0)
    d = 1.0 / (norm.value + norm.tail_gap)
    if not d > SPECTRUM_CLEARANCE:
        raise SingularityError(
            f"anchor {anchor} sits numerically on the spectrum of limit "
            f"(clearance {d:.3e})",
            which="limit",
        )


@dataclass(frozen=True)
class TruncationSequence:
    """T_k = k-block truncation of a family; the limit is the family itself."""

    family: DiagBlockFamily
    gnr_anchor: complex = 1j

    def __post_init__(self):
        # every truncation's spectrum lies in the family's, and removing
        # blocks can only increase the minimal singular value, so the
        # family's clearance covers every term
        _verify_anchor(self.family, self.gnr_anchor)

    def term(self, k: int) -> TruncatedFamily:
        return TruncatedFamily(self.family, k)

    def limit_model(self) -> DiagBlockFamily:
        return self.family


@dataclass(frozen=True)
class OperatorSequence:
    """T_k = term(k), built on demand, converging to the model limit.

    The anchor is checked against the limit only; gnr_defect checks it
    against the term it evaluates.
    """

    term: Callable[[int], object]
    limit: object
    gnr_anchor: complex = 1j

    def __post_init__(self):
        _verify_anchor(self.limit, self.gnr_anchor)

    def limit_model(self):
        return self.limit


@dataclass(frozen=True)
class NamedExample:
    """A catalogue entry: the model plus any associated sequences."""

    model: object
    sequences: Mapping[str, object]


NAMED_EXAMPLES = {
    "diag_pair": "normal 2x2 diag(2, 6) with shrink/grow/scale sequences",
    "shargorodsky": "2x2 block family, f(x) = 1 + 1/x: constant resolvent norm near 0",
    "empty_resolvent": "2x2 block family, f(x) = 1/x: truncation norms diverge everywhere",
    "nonconstant": "2x2 block family, f(x) = 1 - 1/sqrt(x): norm strictly above 1",
    "decay": "2x2 block family, f(x) = x^beta: resolvent norm decays along rays",
    "remark_n1": "4x4 block family whose n=1 power norm is constant near 0",
}

# the block families of the catalogue: symbol kind and block shape by name
_BLOCK_EXAMPLES = {
    "shargorodsky": ("one_plus_inv", "two_by_two"),
    "empty_resolvent": ("inverse", "two_by_two"),
    "nonconstant": ("one_minus_inv_sqrt", "two_by_two"),
    "decay": ("power_beta", "two_by_two"),
    "remark_n1": ("one_plus_inv", "four_by_four"),
}

def _diag_pair() -> NamedExample:
    base = DenseOperator(np.diag([2.0, 6.0]).astype(np.complex128))

    def dense_pair(first: float) -> DenseOperator:
        return DenseOperator(np.diag([first, 6.0]).astype(np.complex128))

    sequences = {
        "shrink": OperatorSequence(lambda k: dense_pair((1.0 - 1.0 / k) * 2.0), base),
        "grow": OperatorSequence(lambda k: dense_pair((1.0 + 1.0 / k) * 2.0), base),
        "scale": OperatorSequence(lambda k: scale_operator(base, 1.0 - 1.0 / k), base),
    }
    return NamedExample(base, sequences)


def build_named_example(name: str, params: Mapping | None = None) -> NamedExample:
    """Construct a catalogue example by identifier.

    Unknown names raise a ConfigurationError listing the valid
    identifiers.  The one parameter is decay's exponent beta (default
    0.5); any other raises a ConfigurationError.
    """
    if name not in NAMED_EXAMPLES:
        raise ConfigurationError(
            f"unknown example {name!r}; valid names: {', '.join(sorted(NAMED_EXAMPLES))}"
        )
    params = params or {}
    allowed = {"beta"} if name == "decay" else set()
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"parameters {sorted(unknown)} not valid for example {name!r} "
            f"(allowed: {sorted(allowed)})"
        )
    if name == "diag_pair":
        return _diag_pair()
    kind, shape = _BLOCK_EXAMPLES[name]
    beta = float(params.get("beta", 0.5)) if kind == "power_beta" else None
    family = DiagBlockFamily(SymbolSpec(kind, beta), block_shape=shape)
    return NamedExample(family, {})
