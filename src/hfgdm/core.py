"""Domain types for hesitancy fuzzy graphs and preference relations.

A hesitancy fuzzy value is a triple (mu, gamma, beta): membership,
nonmembership, and hesitancy degrees in [0, 1] with mu + gamma + beta <= 1.
The unallocated residue pi = 1 - mu - gamma - beta is always derived, never
stored. A hesitancy fuzzy preference relation (HFPR) is a square matrix of
such triples with an exactly zero diagonal; one relation encodes one
expert's pairwise preferences over the alternatives.

All types are immutable after construction and safe to share between
workers. make_hfpr validates a relation once, at construction, with array
checks over all entries; the first offending entry in row-major scan order
still wins. Later stages trust the HFPR type and do not check it again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricEntry,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    ParameterOutOfRange,
    TripleOutOfRange,
    ValidationError,
)

TOL = 1e-9

CHANNELS = ("membership", "nonmembership", "hesitancy")
_CHANNEL_INDEX = {name: k for k, name in enumerate(CHANNELS)}


@dataclass(frozen=True)
class VertexAttribute:
    """Vertex grades (mu1, gamma1, beta1) with beta1 = 1 - mu1 - gamma1."""

    mu1: float
    gamma1: float
    beta1: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name, v in (("mu1", self.mu1), ("gamma1", self.gamma1)):
            if not (-TOL <= v <= 1.0 + TOL):
                raise ParameterOutOfRange(f"{name} = {v!r} outside [0, 1]")
        derived = 1.0 - self.mu1 - self.gamma1
        if derived < -TOL:
            raise ParameterOutOfRange(
                f"mu1 + gamma1 = {self.mu1 + self.gamma1!r} exceeds 1")
        if self.beta1 is None:
            object.__setattr__(self, "beta1", derived)
        elif not abs(self.beta1 - derived) <= TOL:  # NaN fails too
            raise ParameterOutOfRange(
                f"beta1 = {self.beta1!r} but 1 - mu1 - gamma1 = {derived!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _upper_indices(n: int) -> np.ndarray:
    """Flat row-major indices of the strict upper triangle of an n x n
    matrix, read-only and built once per n."""
    iu, ju = np.triu_indices(n, 1)
    return _freeze(iu * n + ju)


@dataclass(frozen=True, eq=False)
class HFPR:
    """A validated n x n matrix of hesitancy triples with zero diagonal.

    values has shape (n, n, 3) with the last axis ordered
    (membership, nonmembership, hesitancy); it is read-only.
    Construct through make_hfpr.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    vertex_attrs: tuple[VertexAttribute, ...] | None
    symmetric: bool

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """A real symmetric n x n matrix for one channel of an HFPR.

    With channel, spectral.laplacian and spectral.symmetric_eigenvalues it
    forms the public single-matrix API; the per-relation spectra read
    HFPR.values directly.
    """

    values: np.ndarray
    channel: str

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ParameterOutOfRange(
                f"channel {self.channel!r} not one of {CHANNELS}")
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {a.shape}")
        if not np.all((a >= -TOL) & (a <= 1.0 + TOL)):  # NaN fails too
            raise TripleOutOfRange("channel entries must lie in [0, 1]")
        if np.any(np.diag(a) != 0.0):
            raise DiagonalNotZero("channel diagonal must be exactly zero")
        if a.size and np.max(np.abs(a - a.T)) > TOL:
            raise AsymmetricEntry("channel matrix is not symmetric")
        object.__setattr__(self, "values", _freeze(a.copy()))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def make_hfpr(entries, labels=None, vertex_attrs=None,
              require_symmetry: bool = True) -> HFPR:
    """Validate and build an HFPR from an (n, n, 3) array of triples.

    Each rule is checked over all entries at once. The first offending
    entry in row-major order is reported, under the first rule it breaks
    in this order: component range (NaN fails it) and triple sum,
    exact-zero diagonal, componentwise symmetry against the upper-triangle
    twin (tolerance 1e-9, reported at the lower-triangle entry), then the
    optional vertex bounds
    mu_ij <= min(mu1_i, mu1_j), gamma_ij <= max(gamma1_i, gamma1_j),
    beta_ij <= min(beta1_i, beta1_j).

    With require_symmetry=False an asymmetric relation is admitted for
    experimentation and flagged symmetric=False; the pipeline rejects it.
    Labels default to t1..tn.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"expected an (n, n, 3) array of triples, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one alternative")

    if labels is None:
        labels = tuple(f"t{i + 1}" for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DimensionMismatch(
                f"{len(labels)} labels for an n = {n} relation")

    attrs = None
    if vertex_attrs is not None:
        attrs = tuple(
            v if isinstance(v, VertexAttribute) else VertexAttribute(*v)
            for v in vertex_attrs)
        if len(attrs) != n:
            raise DimensionMismatch(
                f"{len(attrs)} vertex attributes for an n = {n} relation")

    mu, gamma, beta = a.transpose(2, 0, 1)
    row, col = np.indices((n, n))
    with np.errstate(invalid="ignore"):  # inf - inf and inf + -inf give NaN
        asymmetric = (col < row) & (
            np.abs(a - a.transpose(1, 0, 2)).max(axis=2) > TOL)
        rules = {
            "range": ~((a >= -TOL) & (a <= 1.0 + TOL)).all(axis=2),
            "sum": mu + gamma + beta > 1.0 + TOL,
            "diagonal": (row == col) & (a != 0.0).any(axis=2),
            "asymmetry": asymmetric & require_symmetry,
        }
        if attrs is not None:
            mu1, gamma1, beta1 = np.array(
                [(v.mu1, v.gamma1, v.beta1) for v in attrs], dtype=float).T
            # A diagonal entry breaks no vertex bound unless it is
            # nonzero, and then the diagonal rule reports it first.
            rules["vertex"] = (
                (mu > np.minimum.outer(mu1, mu1) + TOL)
                | (gamma > np.maximum.outer(gamma1, gamma1) + TOL)
                | (beta > np.minimum.outer(beta1, beta1) + TOL))
    failing = np.logical_or.reduce(list(rules.values()))
    if failing.any():
        i, j = divmod(int(failing.argmax()), n)
        rule = next(name for name, mask in rules.items() if mask[i, j])
        raise _entry_error(rule, a, i, j)

    return HFPR(values=_freeze(a.copy()), labels=labels, vertex_attrs=attrs,
                symmetric=not asymmetric.any())


def _entry_error(rule: str, a: np.ndarray, i: int, j: int) -> ValidationError:
    """The error for the first rule of make_hfpr that entry (i, j) breaks."""
    mu, gamma, beta = (float(v) for v in a[i, j])
    if rule == "range":
        name, v = next((name, v) for name, v in
                       (("mu", mu), ("gamma", gamma), ("beta", beta))
                       if not (-TOL <= v <= 1.0 + TOL))
        return TripleOutOfRange(
            f"{name} = {v!r} at entry ({i}, {j}) outside [0, 1]", i, j)
    if rule == "sum":
        return TripleOutOfRange(
            f"mu + gamma + beta = {mu + gamma + beta!r} at entry ({i}, {j}) "
            "exceeds 1", i, j)
    if rule == "diagonal":
        return DiagonalNotZero(
            f"diagonal entry ({i}, {i}) = ({mu}, {gamma}, {beta}) "
            "must be exactly (0, 0, 0)", i)
    if rule == "asymmetry":
        return AsymmetricEntry(
            f"entry ({i}, {j}) does not mirror ({j}, {i})", i, j)
    return EdgeExceedsVertexBound(
        f"entry ({i}, {j}) exceeds its vertex bounds", i, j)


def channel(h: HFPR, which: str) -> ChannelMatrix:
    """Extract one real symmetric channel matrix from a relation."""
    try:
        k = _CHANNEL_INDEX[which]
    except KeyError:
        raise ParameterOutOfRange(
            f"channel {which!r} not one of {CHANNELS}") from None
    return ChannelMatrix(values=h.values[:, :, k], channel=which)


def random_hfpr(n: int, rng: np.random.Generator, labels=None) -> HFPR:
    """Draw a random symmetric HFPR with zero diagonal.

    Each off-diagonal triple draws three uniforms on [0, 1], divides by
    their sum when it exceeds 1, rounds to 4 decimals, and redraws on the
    rare rounding overflow. Deterministic for a given generator state.

    The triples for all upper-triangle entries are drawn in one call; the
    accepted ones fill the entries in row-major order, and as many triples
    as were rejected are drawn again until every entry is filled. This
    consumes the generator exactly as drawing entry by entry, redrawing
    each rejected triple at once, would.
    """
    if n < 1:
        raise ParameterOutOfRange(f"n = {n} must be at least 1")
    flat = _upper_indices(n)
    upper = np.empty((flat.size, 3))
    filled = 0
    while filled < flat.size:
        t = rng.uniform(0.0, 1.0, (flat.size - filled, 3))
        s = t.sum(axis=1)
        over = s > 1.0
        t[over] /= s[over, None]
        t = np.round(t, 4)
        t = t[t.sum(axis=1) <= 1.0]
        upper[filled:filled + len(t)] = t
        filled += len(t)
    a = np.zeros((n * n, 3))
    a[flat] = upper
    a = a.reshape(n, n, 3)
    return make_hfpr(a + a.transpose(1, 0, 2), labels=labels)
