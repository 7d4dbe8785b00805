"""Similarity measures between hesitancy fuzzy preference relations.

The pairwise measure compares two relations entrywise over the strict
upper triangle: each pair contributes (1 - min|delta|) / (1 + max|delta|)
across the three channels, and the total is scaled so identical relations
score exactly 1 and the score never drops below 1/n.

Ideal similarities compare one row of an aggregated relation against the
positive reference (1, 0, 1) or the negative reference (0, 1, 0); these
are reference targets, not valid relation entries. Closeness combines the
two into the ranking score.
"""

from __future__ import annotations

import numpy as np

from .core import HFPR, Panel, _one_size, _plain
from .errors import (
    DegenerateDenominator,
    IndexOutOfRange,
    NeedTwoExperts,
    OverrideShapeMismatch,
    ParameterOutOfRange,
)

POSITIVE_IDEAL = (1.0, 0.0, 1.0)
NEGATIVE_IDEAL = (0.0, 1.0, 0.0)
IDEAL_KINDS = ("positive", "negative")


def pair_similarity(a: HFPR, b: HFPR) -> float:
    """Similarity of two same-size relations, in [1/n, 1], symmetric."""
    n = _one_size((a, b))
    if n == 1:
        return 1.0
    d = np.abs(a.upper - b.upper)
    terms = (1.0 - d.min(axis=0)) / (1.0 + d.max(axis=0))
    return float(1.0 / n + (2.0 / n ** 2) * terms.sum())


def _pair_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _resolve_pairwise(pairwise, l: int) -> dict | None:
    """Stage-iii overrides as {(i, j): float} with i < j, or None for none.

    Every key must be a pair of distinct expert indices below l, given in
    one orientation only, since the measure is symmetric; every value
    must be positive.
    """
    if pairwise is None:
        return None
    out = {}
    for key, val in pairwise.items():
        i, j = map(_plain, key)
        if not (0 <= i < l and 0 <= j < l) or i == j:
            raise OverrideShapeMismatch(
                f"pair_similarity key {(i, j)!r} is not a valid expert pair")
        val = float(val)
        if not val > 0.0:
            raise ParameterOutOfRange(
                f"pair_similarity override for experts {(i, j)!r} is {val!r}; "
                "it must be positive")
        pair = (int(i), int(j))
        normalized = _pair_key(*pair)
        if normalized in out:
            raise OverrideShapeMismatch(
                f"pair_similarity gives experts {pair!r} in both "
                "orientations; the measure is symmetric, so give it once")
        out[normalized] = val
    return out


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
    l = len(experts)
    if l < 2:
        raise NeedTwoExperts(f"need at least 2 relations, got {l}")
    if not (0 <= b < l):
        raise IndexOutOfRange(f"expert index {b} outside 0..{l - 1}")
    return _mean_degree(Panel.of(experts), b, _resolve_pairwise(pairwise, l))


def _ideal_rows(rows: np.ndarray, which: str) -> np.ndarray:
    """Ideal similarity of each row of an (..., n, 3) stack, as an (...)
    array: (n,) for one relation, (g, n) for a stack of g of them.

    Averages (1 - min t) / (1 + max t) over ALL n columns including the
    diagonal, with t = (1 - mu, gamma, 1 - beta) against the positive
    ideal and t = (mu, 1 - gamma, beta) against the negative one. The
    zero diagonal entry contributes exactly 0.5/n either way.
    """
    if which not in IDEAL_KINDS:
        raise ParameterOutOfRange(f"which = {which!r} not one of {IDEAL_KINDS}")
    mu, gamma, beta = rows[..., 0], rows[..., 1], rows[..., 2]
    if which == "positive":
        t = np.stack([1.0 - mu, gamma, 1.0 - beta], axis=-1)
    else:
        t = np.stack([mu, 1.0 - gamma, beta], axis=-1)
    terms = (1.0 - t.min(axis=-1)) / (1.0 + t.max(axis=-1))
    return terms.mean(axis=-1)


def ideal_similarities(agg: HFPR, which: str) -> np.ndarray:
    """Similarity of every row to the positive or negative ideal, (n,)."""
    return _ideal_rows(agg.values, which)


def closeness(s_plus, s_minus, mode: str = "relative"):
    """Ranking score from the two ideal similarities.

    relative mode: s+ / (s+ + s-); ratio mode: s+ / s-. Higher is better
    in both; for fixed positive inputs they induce rankings identical up
    to rounding (scores 1 ulp apart in one mode can tie or swap in the
    other). Takes two floats, or two arrays of one shape scored
    elementwise; an error is raised when any element breaks its rule.
    """
    if mode not in ("relative", "ratio"):
        raise ParameterOutOfRange(f"mode = {mode!r} not one of relative|ratio")
    if np.any(s_plus < 0.0) or np.any(s_minus < 0.0):
        raise ParameterOutOfRange("ideal similarities must be nonnegative")
    if mode == "relative":
        denom = s_plus + s_minus
        if np.any(denom <= 0.0):
            raise DegenerateDenominator("s_plus + s_minus must be positive")
        return s_plus / denom
    if np.any(s_minus <= 0.0):
        raise DegenerateDenominator("ratio mode needs s_minus > 0")
    return s_plus / s_minus
