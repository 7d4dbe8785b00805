"""Domain types for hesitancy fuzzy graphs and preference relations.

A hesitancy fuzzy value is a triple (mu, gamma, beta): membership,
nonmembership, and hesitancy degrees in [0, 1] with mu + gamma + beta <= 1.
The unallocated residue pi = 1 - mu - gamma - beta is always derived, never
stored. A hesitancy fuzzy preference relation (HFPR) is a square matrix of
such triples with an exactly zero diagonal; one relation encodes one
expert's pairwise preferences over the alternatives.

All types are immutable after construction and safe to share between
workers. Construction-time validation reports the first offending entry in
row-major scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricEntry,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    ParameterOutOfRange,
    TripleOutOfRange,
)

TOL = 1e-9

CHANNELS = ("membership", "nonmembership", "hesitancy")
_CHANNEL_INDEX = {name: k for k, name in enumerate(CHANNELS)}


def _check_triple(mu: float, gamma: float, beta: float,
                  i: int | None = None, j: int | None = None) -> None:
    at = "" if i is None else f" at entry ({i}, {j})"
    for name, v in (("mu", mu), ("gamma", gamma), ("beta", beta)):
        if not (-TOL <= v <= 1.0 + TOL):
            raise TripleOutOfRange(f"{name} = {v!r}{at} outside [0, 1]", i, j)
    s = mu + gamma + beta
    if s > 1.0 + TOL:
        raise TripleOutOfRange(
            f"mu + gamma + beta = {s!r}{at} exceeds 1", i, j)


@dataclass(frozen=True)
class HesitancyTriple:
    """One (mu, gamma, beta) value; the atom of every matrix."""

    mu: float
    gamma: float
    beta: float

    def __post_init__(self):
        _check_triple(self.mu, self.gamma, self.beta)

    @property
    def pi(self) -> float:
        """Hesitant residue 1 - mu - gamma - beta, always recomputed."""
        return 1.0 - self.mu - self.gamma - self.beta

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu, self.gamma, self.beta)


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
        elif abs(self.beta1 - derived) > TOL:
            raise ParameterOutOfRange(
                f"beta1 = {self.beta1!r} but 1 - mu1 - gamma1 = {derived!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    def triple(self, i: int, j: int) -> HesitancyTriple:
        mu, gamma, beta = self.values[i, j]
        return HesitancyTriple(float(mu), float(gamma), float(beta))


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """A real symmetric n x n matrix for one channel of an HFPR."""

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

    Checks run in row-major entry order and the first violation wins:
    component range and triple sum, exact-zero diagonal, componentwise
    symmetry against the upper-triangle twin (tolerance 1e-9, reported at
    the lower-triangle entry), then the optional vertex bounds
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

    asym_at: tuple[int, int] | None = None
    for i in range(n):
        for j in range(n):
            mu, gamma, beta = (float(a[i, j, 0]), float(a[i, j, 1]),
                               float(a[i, j, 2]))
            _check_triple(mu, gamma, beta, i, j)
            if i == j:
                if mu != 0.0 or gamma != 0.0 or beta != 0.0:
                    raise DiagonalNotZero(
                        f"diagonal entry ({i}, {i}) = "
                        f"({mu}, {gamma}, {beta}) must be exactly (0, 0, 0)",
                        i)
                continue
            if j < i and np.max(np.abs(a[i, j] - a[j, i])) > TOL:
                if require_symmetry:
                    raise AsymmetricEntry(
                        f"entry ({i}, {j}) does not mirror ({j}, {i})", i, j)
                if asym_at is None:
                    asym_at = (i, j)
            if attrs is not None:
                vi, vj = attrs[i], attrs[j]
                if (mu > min(vi.mu1, vj.mu1) + TOL
                        or gamma > max(vi.gamma1, vj.gamma1) + TOL
                        or beta > min(vi.beta1, vj.beta1) + TOL):
                    raise EdgeExceedsVertexBound(
                        f"entry ({i}, {j}) exceeds its vertex bounds", i, j)

    return HFPR(values=_freeze(a.copy()), labels=labels, vertex_attrs=attrs,
                symmetric=asym_at is None)


def channel(h: HFPR, which: str) -> ChannelMatrix:
    """Extract one real symmetric channel matrix from a relation."""
    try:
        k = _CHANNEL_INDEX[which]
    except KeyError:
        raise ParameterOutOfRange(
            f"channel {which!r} not one of {CHANNELS}") from None
    return ChannelMatrix(values=h.values[:, :, k], channel=which)


def degree_vector(c: ChannelMatrix) -> np.ndarray:
    """Row sums of a channel matrix: the vertex degrees."""
    return c.values.sum(axis=1)


def random_hfpr(n: int, rng: np.random.Generator, labels=None) -> HFPR:
    """Draw a random symmetric HFPR with zero diagonal.

    Each off-diagonal triple draws three uniforms on [0, 1], divides by
    their sum when it exceeds 1, rounds to 4 decimals, and redraws on the
    rare rounding overflow. Deterministic for a given generator state.
    """
    if n < 1:
        raise ParameterOutOfRange(f"n = {n} must be at least 1")
    a = np.zeros((n, n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            while True:
                t = rng.uniform(0.0, 1.0, 3)
                s = t.sum()
                if s > 1.0:
                    t = t / s
                t = np.round(t, 4)
                if t.sum() <= 1.0:
                    break
            a[i, j] = t
            a[j, i] = t
    return make_hfpr(a, labels=labels)
