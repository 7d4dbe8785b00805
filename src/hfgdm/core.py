"""Domain types for hesitancy fuzzy graphs and preference relations.

A hesitancy fuzzy value is a triple (mu, gamma, beta): membership,
nonmembership, and hesitancy degrees in [0, 1] with mu + gamma + beta <= 1.
The unallocated residue pi = 1 - mu - gamma - beta is always derived, never
stored. A hesitancy fuzzy preference relation (HFPR) is a square,
symmetric matrix of such triples with an exactly zero diagonal; one
relation encodes one expert's pairwise preferences over the alternatives.

All types are immutable after construction and safe to share between
workers. make_hfpr is the only way to build an HFPR, and it validates a
relation once, symmetry included: a valid array is accepted after a few
whole-array reductions, and only an invalid one is scanned entry by
entry in row-major order for the first rule broken. Later stages trust the
HFPR type and do not check it again. A twin within the symmetry
tolerance is stored as the exact mirror of its upper-triangle entry, so
every relation equals its own transpose bit for bit; likewise a value
within the range or sum tolerance is stored clipped or scaled into the
exact valid set, so convex mixes of relations stay valid.

A Panel is the group of relations that every later stage works on: the l
experts' relations, nonempty, of one size and with one set of labels,
with their values stacked once. _group reads a group, refusing what
_sequence refuses, such as a lone HFPR or a set; _one_size checks it,
for Panel.of, pair_similarity, rank and the aggregated override. Every
function that takes a group accepts a Panel as is, or relations that
Panel.of turns into one. _sizes, which the bounds survey reads its sizes
by too, refuses anything that is not an HFPR, naming its position.
_channels is the one stacking, shared with the bounds survey, whose size
groups may mix labels because no bound reads them.

Every entry point checks its arguments by the rules here, one per kind:
_choice, _integer, _size, _real, _real_array, _sequence, _group and
_vertex_attrs, each naming the argument, and _not_a's message for any
other wrong type of object; the CLI reads a document's values by them
too, named by their document paths, and its integer flags, named as
the library names their values. An int that no float holds is refused
as a number. A refused value is shown by _shown, which never fails, so
an int past Python's digit limit for str is refused with a typed error
too.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricEntry,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    NeedTwoExperts,
    ParameterOutOfRange,
    TripleOutOfRange,
    ValidationError,
    in_context,
)

TOL = 1e-9

CHANNELS = ("membership", "nonmembership", "hesitancy")


def _plain(x):
    """x as a Python number if it is a numpy scalar."""
    return x.item() if isinstance(x, np.generic) else x


def _shown(x) -> str:
    """x for a message: its repr, a numpy scalar's as a Python number's.
    It never fails, so a refusal is raised as itself: an int past Python's
    digit limit for str shows its size, any other failing repr its type."""
    x = _plain(x)
    try:
        return repr(x)
    except Exception:
        return (f"<int of {x.bit_length()} bits>" if isinstance(x, int)
                else f"<{type(x).__name__}>")


def _is_real(kind: type) -> bool:
    """Whether values of type kind are real numbers: bools are not."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _choice(name: str, value, choices: tuple[str, ...]) -> str:
    """value, if it is one of choices."""
    if not isinstance(value, str) or value not in choices:
        raise ParameterOutOfRange(
            f"{name} {_shown(value)} not one of {choices}")
    return value


def _integer(name: str, value, least: int) -> int:
    """value as a Python int, if it is an integer of at least `least`."""
    value = _plain(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParameterOutOfRange(f"{name} = {_shown(value)} must be an "
                                  f"integer of at least {least}")
    return value


def _size(name: str, value, least: int) -> int:
    """value as a Python int n of at least `least`, if numpy can hold an
    (n, n, 3) float array."""
    n = _integer(name, value, least)
    if n * n * 24 > np.iinfo(np.intp).max:
        raise ParameterOutOfRange(
            f"{name} = {_shown(n)} is too large for an (n, n, 3) array")
    return n


def _real(name: str, value) -> float:
    """value as a float, a zero's sign dropped, if it is a real number
    that a float can hold."""
    if not _is_real(type(value)):
        raise ParameterOutOfRange(f"{name} = {_shown(value)} is not a number")
    try:
        return float(value) + 0.0
    except OverflowError:
        raise ParameterOutOfRange(
            f"{name} is too large for a float") from None


def _sequence(name: str, x) -> tuple:
    """x as a tuple, if it holds values in the order they were given: a
    str or bytes is one value, a mapping's values would be dropped and a
    set has no order a caller gave."""
    try:
        if not isinstance(x, (str, bytes, Mapping, set, frozenset)):
            return tuple(x)
    except TypeError:
        pass
    raise ParameterOutOfRange(f"{name} = {_shown(x)} is not a sequence")


def _not_a(name: str, x, kind: str) -> ParameterOutOfRange:
    """The error for argument name, x, not being a kind of object."""
    return ParameterOutOfRange(
        f"{name} is of type {type(x).__name__}, not {kind}")


def _real_array(name: str, x) -> np.ndarray:
    """x as a float array of real numbers; a numeric ndarray is not scanned."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "fiu":
        return np.asarray(x, dtype=float)
    with contextlib.suppress(ValueError, OverflowError):  # ragged; huge int
        items = np.asarray(x, dtype=object)
        if all(map(_is_real, set(map(type, items.ravel())))):
            return items.astype(float)
    raise ParameterOutOfRange(f"{name} is not an array of real numbers")


@dataclass(frozen=True)
class VertexAttribute:
    """Vertex grades (mu1, gamma1, beta1) with beta1 = 1 - mu1 - gamma1.

    Grades within the tolerance are stored as floats inside the exact
    valid set, as make_hfpr stores its triples: each clipped to [0, 1],
    and mu1 and gamma1 scaled by 1/(mu1 + gamma1) where that exceeds 1.
    """

    mu1: float
    gamma1: float
    beta1: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        mu1, gamma1 = _real("mu1", self.mu1), _real("gamma1", self.gamma1)
        for name, v in (("mu1", mu1), ("gamma1", gamma1)):
            if not (-TOL <= v <= 1.0 + TOL):
                raise ParameterOutOfRange(f"{name} = {v!r} outside [0, 1]")
        derived = 1.0 - mu1 - gamma1
        if derived < -TOL:
            raise ParameterOutOfRange(
                f"mu1 + gamma1 = {mu1 + gamma1!r} exceeds 1")
        beta1 = derived if self.beta1 is None else _real("beta1", self.beta1)
        if not abs(beta1 - derived) <= TOL:  # NaN fails
            raise ParameterOutOfRange(
                f"beta1 = {_shown(self.beta1)} but 1 - mu1 - gamma1 = "
                f"{derived!r}")
        mu1, gamma1, beta1 = (min(max(v, 0.0), 1.0)
                              for v in (mu1, gamma1, beta1))
        if (total := mu1 + gamma1) > 1.0:
            mu1, gamma1 = mu1 / total, gamma1 / total
        for name, v in (("mu1", mu1), ("gamma1", gamma1), ("beta1", beta1)):
            object.__setattr__(self, name, v)


def _vertex_attrs(vertex_attrs, n: int) -> tuple[VertexAttribute, ...]:
    """vertex_attrs as one VertexAttribute per alternative of an n x n
    relation, for make_hfpr and a document alike: each entry k as is, or
    built from its grades, a sequence (mu1, gamma1) or (mu1, gamma1,
    beta1), its fault named vertex_attrs[k]. Entries are checked before
    their number."""
    attrs = []
    for k, v in enumerate(_sequence("vertex_attrs", vertex_attrs)):
        try:
            attrs.append(v if isinstance(v, VertexAttribute)
                         else VertexAttribute(*_sequence("grades", v)))
        except TypeError:
            raise ParameterOutOfRange(
                f"vertex_attrs[{k}] = {_shown(v)} is not (mu1, gamma1) or "
                "(mu1, gamma1, beta1)") from None
        except ValidationError as e:
            raise in_context(e, f"vertex_attrs[{k}]") from None
    if len(attrs) != n:
        raise DimensionMismatch(
            f"{len(attrs)} vertex attributes for an n = {n} relation")
    return tuple(attrs)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _upper_indices(n: int) -> np.ndarray:
    """Flat row-major indices of the strict upper triangle of an n x n
    matrix, read-only; those of the 16 sizes used last are kept."""
    iu, ju = np.triu_indices(n, 1)
    return _freeze(iu * n + ju)


def _upper_weights(a: np.ndarray) -> np.ndarray:
    """Strict upper triangle of each matrix of an (..., n, n) stack, in
    row-major order, laid out as numpy's indexing leaves it: the survey's
    printed sums over it depend on that summation order."""
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., _upper_indices(n)]


@dataclass(frozen=True, eq=False)
class HFPR:
    """A validated symmetric n x n matrix of triples with zero diagonal.

    values has shape (n, n, 3) with the last axis ordered as CHANNELS; it
    is read-only, and values[..., k] is the real symmetric matrix of
    channel k. Construct through make_hfpr, which is what makes it
    symmetric.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    vertex_attrs: tuple[VertexAttribute, ...] | None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """The strict upper triangle, channel by channel: a read-only
        (3, n(n-1)/2) array whose row k holds channel k of the entries in
        row-major order, built on first use. Channel-major, because numpy
        reduces across the three rows much faster than along a short last
        axis."""
        return _freeze(np.ascontiguousarray(
            _upper_weights(self.values.transpose(2, 0, 1))))


def _group(relations) -> tuple:
    """relations as a tuple, if _sequence reads them as one: a lone HFPR
    is not, and neither is a set, whose order would make a run's."""
    try:
        return _sequence("relations", relations)
    except ParameterOutOfRange:
        raise _not_a("relations", relations, "a sequence of HFPRs") from None


def _sizes(relations) -> list[int]:
    """The size n of each relation, or ParameterOutOfRange naming the
    position of the first that is not an HFPR."""
    for k, h in enumerate(relations):
        if not isinstance(h, HFPR):
            raise _not_a(f"relation {k}", h, "an HFPR")
    return [h.n for h in relations]


def _one_size(relations) -> int:
    """The one size n of relations that share one set of labels, or
    DimensionMismatch naming their sizes or the first that differs; a
    relation that is not an HFPR is refused by _sizes."""
    sizes = set(_sizes(relations))
    if len(sizes) != 1:
        raise DimensionMismatch(f"mixed relation sizes {sorted(sizes)}")
    labels = relations[0].labels
    for k, h in enumerate(relations):
        if h.labels != labels:
            raise DimensionMismatch(
                f"relation {k} is labelled {h.labels}, but relation 0 "
                f"is labelled {labels}")
    return sizes.pop()


def _channels(relations) -> np.ndarray:
    """Relations of one size stacked as read-only C-contiguous (l, 3, n, n)
    channel matrices, whatever their labels."""
    return _freeze(np.ascontiguousarray(
        np.stack([h.values for h in relations]).transpose(0, 3, 1, 2)))


@dataclass(frozen=True, eq=False)
class Panel:
    """Relations of one size and one set of labels as a sequence, with
    their values stacked once: channels, the read-only C-contiguous
    (l, 3, n, n) channel matrices. Construct through Panel.of."""

    relations: tuple[HFPR, ...]
    channels: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The stack as (l, n, n, 3) triples: a read-only view of channels."""
        return self.channels.transpose(0, 2, 3, 1)

    @classmethod
    def of(cls, relations) -> Panel:
        """A Panel as is; else nonempty relations of one size and one set
        of labels, stacked."""
        if isinstance(relations, Panel):
            return relations
        relations = _group(relations)
        if not relations:
            raise NeedTwoExperts("need at least 1 relation")
        _one_size(relations)
        return cls(relations, _channels(relations))

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, k):
        return self.relations[k]


def make_hfpr(entries, labels=None, vertex_attrs=None) -> HFPR:
    """Validate and build an HFPR from an (n, n, 3) array of triples.

    A few whole-array reductions, built from the same float expressions
    as the rules, accept a valid array. Otherwise the entries are scanned
    in row-major order until one breaks a rule, and that entry is
    reported under the first rule it breaks in this order:
    component range (NaN fails it) and triple sum, exact-zero diagonal,
    componentwise symmetry against the upper-triangle twin (tolerance
    1e-9, reported at the lower-triangle entry; an accepted twin is
    stored as the upper entry's exact mirror), then the optional vertex
    bounds mu_ij <= min(mu1_i, mu1_j), gamma_ij <= max(gamma1_i, gamma1_j),
    beta_ij <= min(beta1_i, beta1_j). Labels default to t1..tn. An
    accepted relation is stored inside the exact valid set: a component
    within the range tolerance outside [0, 1] is clipped to it, and a
    triple summing above 1 is scaled by 1/sum.
    """
    a = _real_array("entries", entries)
    if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"expected an (n, n, 3) array of triples, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one alternative")

    if labels is None:
        labels = tuple(f"t{i + 1}" for i in range(n))
    else:
        labels = _sequence("labels", labels)
        try:
            labels = tuple(map(str, labels))
        except ValueError:  # an int past Python's digit limit for str
            raise ParameterOutOfRange(
                "labels hold an int too large to show") from None
        if len(labels) != n:
            raise DimensionMismatch(
                f"{len(labels)} labels for an n = {n} relation")

    mu, gamma, beta = a.transpose(2, 0, 1)
    attrs = bounds = None
    if vertex_attrs is not None:
        attrs = _vertex_attrs(vertex_attrs, n)
        mu1, gamma1, beta1 = np.array(
            [(v.mu1, v.gamma1, v.beta1) for v in attrs], dtype=float).T
        bounds = np.stack([np.minimum.outer(mu1, mu1),
                           np.maximum.outer(gamma1, gamma1),
                           np.minimum.outer(beta1, beta1)], axis=2) + TOL

    # Accept at once when whole-array reductions of the rules' own
    # expressions show no entry breaks any rule; NaN fails the range test.
    low, high = a.min(), a.max()
    if low >= -TOL and high <= 1.0 + TOL \
            and (top := (mu + gamma + beta).max()) <= 1.0 + TOL \
            and not a.reshape(n * n, 3)[::n + 1].any() \
            and np.abs(a - a.transpose(1, 0, 2)).max() <= TOL \
            and (bounds is None or (a <= bounds).all()):
        # A twin within the tolerance is stored as its upper entry's mirror.
        values = np.where(np.tri(n, dtype=bool)[..., None],
                          a.transpose(1, 0, 2), a)
        if low < 0.0 or high > 1.0 or top > 1.0:
            # Within the tolerance but outside the exact set: store each
            # component clipped to [0, 1], and each triple summing above 1
            # scaled by 1/sum, so convex mixes of stored relations pass.
            values = np.clip(values, 0.0, 1.0)
            values /= np.maximum(values.sum(axis=2, keepdims=True), 1.0)
        return HFPR(values=_freeze(values), labels=labels, vertex_attrs=attrs)

    # Some entry breaks a rule: scan the entries in row-major order, a row
    # at a time as Python floats, for the first. The upper twin of a lower
    # entry comes earlier, so it has passed the range test.
    for i in range(n):
        twins = a[:i, i].tolist()
        limits = None if bounds is None else bounds[i].tolist()
        for j, triple in enumerate(a[i].tolist()):
            for name, v in zip(("mu", "gamma", "beta"), triple):
                if not -TOL <= v <= 1.0 + TOL:  # NaN fails
                    raise TripleOutOfRange(
                        f"{name} = {v!r} at entry ({i}, {j}) outside [0, 1]",
                        i, j)
            mu, gamma, beta = triple
            if mu + gamma + beta > 1.0 + TOL:
                raise TripleOutOfRange(
                    f"mu + gamma + beta = {mu + gamma + beta!r} at entry "
                    f"({i}, {j}) exceeds 1", i, j)
            if i == j and any(triple):  # -0.0 is zero
                raise DiagonalNotZero(
                    f"diagonal entry ({i}, {i}) = ({mu}, {gamma}, {beta}) "
                    "must be exactly (0, 0, 0)", i)
            if j < i and any(abs(v - w) > TOL
                             for v, w in zip(triple, twins[j])):
                raise AsymmetricEntry(
                    f"entry ({i}, {j}) does not mirror ({j}, {i})", i, j)
            if limits and any(v > w for v, w in zip(triple, limits[j])):
                raise EdgeExceedsVertexBound(
                    f"entry ({i}, {j}) exceeds its vertex bounds", i, j)
    raise AssertionError("make_hfpr refused a relation that breaks no rule")


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
    n = _size("n", n, 1)
    if not isinstance(rng, np.random.Generator):
        raise _not_a("rng", rng, "a numpy.random.Generator")
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
