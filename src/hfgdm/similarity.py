"""Similarity measures between hesitancy fuzzy preference relations.

The pairwise measure compares two relations entrywise over the strict
upper triangle: each pair contributes (1 - min|delta|) / (1 + max|delta|)
across the three channels, and the total is scaled so identical relations
score 1 and the score never drops below 1/n. In floating point identical
relations can score 1 ulp off 1: at n = 6 (the first such size, then
14, 24, ...) 1/n + (2/n**2) * 15 rounds to 1 - 2**-53. The formula is
kept as it is, because rewriting it moves the last digit of other pair
values.

Ideal similarities compare one row of an aggregated relation against the
positive reference (1, 0, 1) or the negative reference (0, 1, 0); these
are reference targets, not valid relation entries. Closeness combines the
two into the ranking score.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .core import (HFPR, Panel, _choice, _freeze, _group, _not_a, _one_size,
                   _plain, _real, _real_array, _shown)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    NeedTwoExperts,
    OverrideShapeMismatch,
    ParameterOutOfRange,
)

POSITIVE_IDEAL = (1.0, 0.0, 1.0)
NEGATIVE_IDEAL = (0.0, 1.0, 0.0)
IDEAL_KINDS = ("positive", "negative")
CLOSENESS_MODES = ("relative", "ratio")


def pair_similarity(a: HFPR, b: HFPR) -> float:
    """Similarity of two same-size relations, in [1/n, 1], symmetric; one
    formula for every n, which gives exactly 1 at n = 1 (no pairs)."""
    n = _one_size((a, b))
    d = np.abs(a.upper - b.upper)
    terms = (1.0 - d.min(axis=0)) / (1.0 + d.max(axis=0))
    return float(1.0 / n + (2.0 / n ** 2) * terms.sum())


def _pair_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _resolve_pairwise(pairwise, l: int, where: str | None = None,
                      ids=None) -> dict | None:
    """Stage-iii overrides as {(i, j): float} with i < j, or None for none
    (an empty map is none); anything else that is not a mapping is refused.

    Every key must be a tuple of two distinct int (not bool) expert
    indices below l, given in one orientation only, since the measure is
    symmetric; every value must be a positive finite real number. A
    message names an override by its expert indices; pairs that a
    document field where writes as "id:id" keys are named by the key as
    written.
    """
    if pairwise is not None and not isinstance(pairwise, Mapping):
        raise _not_a("pair_similarity", pairwise, "a mapping")
    if not pairwise:
        return None
    out = {}
    for key, val in pairwise.items():
        key = tuple(map(_plain, key)) if isinstance(key, tuple) else key
        if not (isinstance(key, tuple) and len(key) == 2
                and type(key[0]) is type(key[1]) is int
                and 0 <= min(key) < max(key) < l):
            raise OverrideShapeMismatch(
                f"pair_similarity key {_shown(key)} is not a valid "
                "expert pair")
        i, j = key
        name = (f"{where}.{ids[i]}:{ids[j]}" if where
                else f"pair_similarity override for experts {(i, j)!r}")
        val = _real(name, val)
        if not val > 0.0:
            raise ParameterOutOfRange(f"{name} is {val}; it must be positive")
        if val == np.inf:
            raise ParameterOutOfRange(f"{name} is {val}; it must be finite")
        normalized = _pair_key(i, j)
        if normalized in out:
            raise OverrideShapeMismatch(
                (f"{where} gives {ids[j]}:{ids[i]} and {ids[i]}:{ids[j]}"
                 if where else
                 f"pair_similarity gives experts {i, j} in both orientations")
                + "; the measure is symmetric, so give it once")
        out[normalized] = val
    return out


def _pair_panel(experts) -> Panel:
    """experts as a Panel, if they are the at least two that a pair needs."""
    relations = experts if isinstance(experts, Panel) else _group(experts)
    if len(relations) < 2:
        raise NeedTwoExperts(
            f"need at least 2 relations, got {len(relations)}")
    return Panel.of(relations)


def _mean_degree(experts, b: int, pairs: dict | None) -> float:
    """mean_similarity_degree of expert b, with pairs as _resolve_pairwise
    returns them."""
    l = len(experts)
    total = 0.0
    for d in range(l):
        if d == b:
            continue
        key = _pair_key(b, d)
        if pairs is not None and key in pairs:
            total += pairs[key]
        else:
            total += pair_similarity(experts[b], experts[d])
    return total / (l - 1)


def mean_similarity_degree(experts, b: int, pairwise=None) -> float:
    """Mean pairwise similarity of expert b against every other expert.

    pairwise optionally injects the pair values as a mapping from index
    pairs to positive floats, each pair once in either orientation;
    missing pairs are computed.
    """
    experts = _pair_panel(experts)
    l = len(experts)
    if type(_plain(b)) is not int or not 0 <= b < l:
        raise IndexOutOfRange(f"expert index {_shown(b)} outside 0..{l - 1}")
    return _mean_degree(experts, b, _resolve_pairwise(pairwise, l))


def _ideal_rows(rows: np.ndarray, which: str) -> np.ndarray:
    """Ideal similarity of each row of an (..., n, 3) stack, as an (...)
    array: (n,) for one relation, (g, n) for a stack of g of them.

    Averages (1 - min t) / (1 + max t) over ALL n columns including the
    diagonal, with t = |row - POSITIVE_IDEAL| or |row - NEGATIVE_IDEAL|.
    The zero diagonal entry contributes exactly 0.5/n either way.
    """
    positive = _choice("which", which, IDEAL_KINDS) == "positive"
    t = np.abs(rows - (POSITIVE_IDEAL if positive else NEGATIVE_IDEAL))
    terms = (1.0 - t.min(axis=-1)) / (1.0 + t.max(axis=-1))
    return terms.mean(axis=-1)


def ideal_similarities(agg: HFPR, which: str) -> np.ndarray:
    """Similarity of every row to the positive or negative ideal, a
    read-only (n,) array.

    agg is read only through its (n, n, 3) values, so a holder of rows
    that no relation admits, such as the ideal itself, is scored too; an
    argument without real values raises ParameterOutOfRange."""
    values = _real_array("agg.values", getattr(agg, "values", None))
    return _freeze(_ideal_rows(values, which))


def closeness(s_plus, s_minus, mode: str = "relative"):
    """Ranking score from the two ideal similarities.

    relative mode: s+ / (s+ + s-); ratio mode: s+ / s-. Higher is better
    in both; for fixed positive inputs they induce rankings identical up
    to rounding (scores 1 ulp apart in one mode can tie or swap in the
    other). Takes two floats, which give a float, or two arrays of real
    numbers of one shape scored elementwise; anything else, or an element
    that breaks its rule (being finite first), is refused before dividing.
    """
    _choice("mode", mode, CLOSENESS_MODES)
    s_plus = _real_array("s_plus", s_plus)
    s_minus = _real_array("s_minus", s_minus)
    if s_plus.shape != s_minus.shape:
        raise DimensionMismatch(f"s_plus has shape {s_plus.shape} but "
                                f"s_minus has shape {s_minus.shape}")
    if not (np.isfinite(s_plus).all() and np.isfinite(s_minus).all()):
        raise ParameterOutOfRange("ideal similarities must be finite")
    if np.any(s_plus < 0.0) or np.any(s_minus < 0.0):
        raise ParameterOutOfRange("ideal similarities must be nonnegative")
    if mode == "relative":
        denom = s_plus + s_minus
        if np.any(denom <= 0.0):
            raise DegenerateDenominator("s_plus + s_minus must be positive")
        f = s_plus / denom
    elif np.any(s_minus <= 0.0):
        raise DegenerateDenominator("ratio mode needs s_minus > 0")
    else:
        f = s_plus / s_minus
    return f if f.ndim else float(f)
