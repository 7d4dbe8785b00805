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

from .core import HFPR
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    NeedTwoExperts,
    ParameterOutOfRange,
)

POSITIVE_IDEAL = (1.0, 0.0, 1.0)
NEGATIVE_IDEAL = (0.0, 1.0, 0.0)
IDEAL_KINDS = ("positive", "negative")


def pair_similarity(a: HFPR, b: HFPR) -> float:
    """Similarity of two same-size relations, in [1/n, 1], symmetric."""
    if a.n != b.n:
        raise DimensionMismatch(
            f"relations of size {a.n} and {b.n} are not comparable")
    n = a.n
    if n == 1:
        return 1.0
    d = np.abs(a.upper - b.upper)
    terms = (1.0 - d.min(axis=0)) / (1.0 + d.max(axis=0))
    return float(1.0 / n + (2.0 / n ** 2) * terms.sum())


def _pairwise_lookup(pairwise, i: int, j: int) -> float:
    key = (i, j) if (i, j) in pairwise else (j, i)
    return float(pairwise[key])


def mean_similarity_degree(experts, b: int, pairwise=None) -> float:
    """Mean pairwise similarity of expert b against every other expert.

    pairwise optionally injects the pair values as a mapping from index
    pairs to floats (either orientation); missing pairs are computed.
    """
    l = len(experts)
    if l < 2:
        raise NeedTwoExperts(f"need at least 2 relations, got {l}")
    if not (0 <= b < l):
        raise IndexOutOfRange(f"expert index {b} outside 0..{l - 1}")
    total = 0.0
    for d in range(l):
        if d == b:
            continue
        if pairwise is not None and ((b, d) in pairwise or (d, b) in pairwise):
            total += _pairwise_lookup(pairwise, b, d)
        else:
            total += pair_similarity(experts[b], experts[d])
    return total / (l - 1)


def _ideal_rows(rows: np.ndarray, which: str) -> np.ndarray:
    """Ideal similarity of each row of a (k, n, 3) stack, as a (k,) array.

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


def ideal_similarity(agg: HFPR, i: int, which: str) -> float:
    """Similarity of row i (0-based) to the positive or negative ideal;
    entry i of ideal_similarities(agg, which)."""
    s = _ideal_rows(agg.values[i:i + 1], which)  # checks `which` first
    if not (0 <= i < agg.n):
        raise IndexOutOfRange(f"row index {i} outside 0..{agg.n - 1}")
    return float(s[0])


def closeness(s_plus: float, s_minus: float, mode: str = "relative") -> float:
    """Ranking score from the two ideal similarities.

    relative mode: s+ / (s+ + s-); ratio mode: s+ / s-. Higher is better
    in both; for fixed positive inputs they induce rankings identical up
    to rounding (scores 1 ulp apart in one mode can tie or swap in the
    other).
    """
    if mode not in ("relative", "ratio"):
        raise ParameterOutOfRange(f"mode = {mode!r} not one of relative|ratio")
    if s_plus < 0.0 or s_minus < 0.0:
        raise ParameterOutOfRange("ideal similarities must be nonnegative")
    if mode == "relative":
        denom = s_plus + s_minus
        if denom <= 0.0:
            raise DegenerateDenominator("s_plus + s_minus must be positive")
        return s_plus / denom
    if s_minus <= 0.0:
        raise DegenerateDenominator("ratio mode needs s_minus > 0")
    return s_plus / s_minus
