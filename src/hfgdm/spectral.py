"""Spectral quantities of hesitancy fuzzy graphs.

Energy of a channel is the sum of absolute eigenvalues of its adjacency
matrix. Laplacian energy is the sum of |eigenvalue - 2S/n| over the
Laplacian spectrum, where S is the total channel weight; the shift 2S/n
is the mean Laplacian eigenvalue. Both come as read-only arrays with one
value per channel in CHANNELS order: (k, 3) for k relations, (3,) for
one. The classical spectral bounds on both come only as SurveyRows, from
bounds_survey or fixture_survey_rows, which also assert the trace and
Frobenius identities every Laplacian spectrum must satisfy.

Every function here takes relations, which make_hfpr found symmetric
and finite, and every spectrum comes from _kernels.eigenvalues on their
channel matrices. Energies, bounds and identities are evaluated on a
(k, 3, n, n) stack of the channel matrices of k same-size relations,
giving (k, 3) arrays: energies and laplacian_energies take a panel of
relations at once, the survey groups its instances by n and evaluates
each group at once, and the single-relation functions are a stack of one
through the same code. The three pow terms (|det|^(2/p), (2W/p)^2 and
psi1^2) are taken with Python float pow on the (k, 3) values, because
numpy's array power can differ from it in the last bit and the survey's
printed bounds are byte-stable.

A reported bound violation is a finding, not an error, in the random
survey; the bundled fixtures are expected to satisfy every bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import eigenvalues
from .core import CHANNELS, HFPR, _freeze, _upper_indices, random_hfpr
from .errors import DimensionMismatch, IdentityViolated

IDENTITY_TOL = 1e-8
BOUND_TOL = 1e-9
SURVEY_BLOCK = 256  # most random instances held and evaluated at once
SURVEY_BLOCK_BYTES = 64 * 2 ** 20  # cap on one block's adjacency stack
IDENTITIES = ("laplacian_trace", "laplacian_square", "shifted_sum",
              "shifted_square")


def _channels(relations) -> np.ndarray:
    """The channel matrices of same-size relations, which make_hfpr
    validated, as a contiguous (k, 3, n, n) stack."""
    sizes = {h.n for h in relations}
    if len(sizes) != 1:
        raise DimensionMismatch(
            f"need relations of one size, got sizes {sorted(sizes)}")
    return np.ascontiguousarray(
        np.stack([h.values for h in relations]).transpose(0, 3, 1, 2))


def _laplacians(a: np.ndarray) -> np.ndarray:
    """diag(degrees) - adjacency for each matrix of an (..., n, n) stack."""
    return a.sum(axis=-1)[..., None] * np.eye(a.shape[-1]) - a


def _upper_weights(a: np.ndarray) -> np.ndarray:
    """Strict upper triangle of each matrix of an (..., n, n) stack."""
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., _upper_indices(n)]


def _pow(a: np.ndarray, exponent) -> np.ndarray:
    """a ** exponent elementwise, by Python float pow."""
    return np.array([x ** exponent for x in a.ravel().tolist()]).reshape(
        a.shape)


def _det_term(w: np.ndarray) -> np.ndarray:
    """|det|^(2/p) of each spectrum of p eigenvalues on the last axis of
    w: Python float pow of the eigenvalue product where it is a normal
    float, else exp((2/p) sum log |eigenvalue|). A zero eigenvalue gives 0."""
    p = w.shape[-1]
    # The product may overflow, or reach inf * 0; log 0 is -inf.
    with np.errstate(all="ignore"):
        det = np.abs(np.prod(w, axis=-1))
        term = _pow(det, 2.0 / p)
        lost = ~((det >= np.finfo(float).tiny) & (det < np.inf))
        if lost.any():
            term[lost] = np.exp((2.0 / p) * np.log(np.abs(w[lost])).sum(-1))
    return term


def energies(relations) -> np.ndarray:
    """energy() of each of same-size relations, solved as one stack: a
    read-only (k, 3) array."""
    return _freeze(np.abs(eigenvalues(_channels(relations))).sum(axis=-1))


def energy(h: HFPR) -> np.ndarray:
    """Sum of absolute adjacency eigenvalues, one value per channel: a
    read-only (3,) array in CHANNELS order."""
    return energies([h])[0]


@dataclass(frozen=True)
class _LaplacianTerms:
    """The Laplacian spectra of a (k, 3, n, n) stack and the terms built
    on them.

    Each field has one row or entry per relation and channel: w the
    eigenvalues (ascending), d the degrees, s and w2 the sums of the
    upper-triangle weights and of their squares, psi = w - 2s/n the
    spectrum shifted by its mean (descending), aux = w2 + sum (d - 2s/n)^2
    / 2 and energy = sum |psi|.
    """

    w: np.ndarray
    d: np.ndarray
    s: np.ndarray
    w2: np.ndarray
    psi: np.ndarray
    aux: np.ndarray
    energy: np.ndarray


def _laplacian_terms(adj: np.ndarray) -> _LaplacianTerms:
    lap = _laplacians(adj)
    w = eigenvalues(lap)
    d = lap.diagonal(axis1=-2, axis2=-1)
    upper = _upper_weights(adj)
    s = upper.sum(axis=-1)
    w2 = np.square(upper).sum(axis=-1)
    shift = (2.0 * s / adj.shape[-1])[..., None]
    psi = (w - shift)[..., ::-1]
    aux = w2 + 0.5 * np.square(d - shift).sum(axis=-1)
    return _LaplacianTerms(w, d, s, w2, psi, aux, np.abs(psi).sum(axis=-1))


def laplacian_energies(relations) -> np.ndarray:
    """laplacian_energy() of each of same-size relations, solved as one
    stack: a read-only (k, 3) array."""
    return _freeze(_laplacian_terms(_channels(relations)).energy)


def laplacian_energy(h: HFPR) -> np.ndarray:
    """Sum of |eigenvalue - 2S/n| over each channel's Laplacian spectrum:
    a read-only (3,) array in CHANNELS order."""
    return laplacian_energies([h])[0]


class _Bound(NamedTuple):
    """One bound on a quantity over a stack of relations, as (k, 3)
    arrays: its lower and upper sides (None for a side the bound lacks)
    and the verdict."""

    quantity: str
    lower: np.ndarray | None
    upper: np.ndarray | None
    satisfied: np.ndarray


def _energy_bounds(adj: np.ndarray) -> tuple[np.ndarray, tuple[_Bound, ...]]:
    """The energies and the two energy bounds of a (k, 3, p, p) stack.

    The determinant row carries the lower bound
    sqrt(p(p-1)|det|^(2/p) + 2*sum w_ij*w_ji) and the Frobenius upper
    bound sqrt(2p * W), with W the sum of squared upper-triangle weights;
    det comes from the eigenvalue product, taken in the log domain where
    that product leaves the float range. The mean-square row carries
    2W/p + sqrt((p-1)(2W - (2W/p)^2)), asserted only under its classical
    hypothesis 2W >= p and satisfied vacuously where that fails.
    """
    p = adj.shape[-1]
    w = eigenvalues(adj)
    upper = _upper_weights(adj)
    w2 = np.square(upper).sum(axis=-1)
    prod = (upper * _upper_weights(np.swapaxes(adj, -1, -2))).sum(axis=-1)
    e = np.abs(w).sum(axis=-1)
    lo = np.sqrt(p * (p - 1) * _det_term(w) + 2.0 * prod)
    hi_frob = np.sqrt(2.0 * p * w2)
    mean_sq = 2.0 * w2 / p
    hi_ms = mean_sq + np.sqrt(
        (p - 1) * np.maximum(2.0 * w2 - _pow(mean_sq, 2), 0.0))
    return e, (
        _Bound("energy_determinant_bounds", lo, hi_frob,
               (lo - BOUND_TOL <= e) & (e <= hi_frob + BOUND_TOL)),
        _Bound("energy_mean_square_upper", None, hi_ms,
               (e <= hi_ms + BOUND_TOL) | (2.0 * w2 < p)),
    )


def _laplacian_bounds(t: _LaplacianTerms) -> tuple[_Bound, ...]:
    """The three bounds on the Laplacian energies of a stack.

    With dev = sum (d_i - 2S/n)^2 and aux = W + dev/2: the spread lower
    bound 2*sqrt(aux), the Frobenius upper bound sqrt(2n*aux), and the
    max-shift upper bound psi1 + sqrt((n-1)(2*aux - psi1^2)) where psi1 is
    the largest shifted eigenvalue (not the largest absolute value).
    """
    n = t.psi.shape[-1]
    le = t.energy
    lo_spread = 2.0 * np.sqrt(t.aux)
    hi_frob = np.sqrt(2.0 * n * t.aux)
    psi1 = t.psi[..., 0]
    hi_shift = psi1 + np.sqrt(
        (n - 1) * np.maximum(2.0 * t.aux - _pow(psi1, 2), 0.0))
    return (
        _Bound("laplacian_energy_spread_lower", lo_spread, None,
               le >= lo_spread - BOUND_TOL),
        _Bound("laplacian_energy_frobenius_upper", None, hi_frob,
               le <= hi_frob + BOUND_TOL),
        _Bound("laplacian_energy_max_shift_upper", None, hi_shift,
               le <= hi_shift + BOUND_TOL),
    )


def _identity_residuals(t: _LaplacianTerms) -> np.ndarray:
    """(k, 3, 4) identity residuals, the last axis in IDENTITIES order."""
    d2 = np.square(t.d).sum(axis=-1)
    return np.stack([
        np.abs(t.w.sum(axis=-1) - 2.0 * t.s),
        np.abs(np.square(t.w).sum(axis=-1) - (2.0 * t.w2 + d2)),
        np.abs(t.psi.sum(axis=-1)),
        np.abs(np.square(t.psi).sum(axis=-1) - 2.0 * t.aux),
    ], axis=-1)


def _identity_scales(t: _LaplacianTerms) -> np.ndarray:
    """(k, 3, 4) scales the identity residuals are judged on, since
    rounding grows with the size of the sides an identity compares:
    max(1, |left|, |right|). The shifted sum's sides are the positive and
    the negative part of the shifted spectrum, which must balance."""
    sides = np.abs(np.stack([
        (t.w.sum(axis=-1), 2.0 * t.s),
        (np.square(t.w).sum(axis=-1),
         2.0 * t.w2 + np.square(t.d).sum(axis=-1)),
        (np.maximum(t.psi, 0.0).sum(axis=-1),
         np.minimum(t.psi, 0.0).sum(axis=-1)),
        (np.square(t.psi).sum(axis=-1), 2.0 * t.aux),
    ], axis=-1))
    return np.maximum(1.0, sides.max(axis=0))


def _first_violation(t: _LaplacianTerms
                     ) -> tuple[int, IdentityViolated] | None:
    """The first identity residual over IDENTITY_TOL times its scale in
    (instance, channel, identity) order, as its instance index and error;
    None if none is."""
    residuals = _identity_residuals(t)
    # A scale is at least 1, so a stack whose every residual is within
    # IDENTITY_TOL needs no scales.
    if not (residuals > IDENTITY_TOL).any():
        return None
    over = residuals > IDENTITY_TOL * _identity_scales(t)
    if not over.any():
        return None
    j, c, i = np.unravel_index(int(over.argmax()), over.shape)
    return int(j), IdentityViolated(
        CHANNELS[c], IDENTITIES[i], float(residuals[j, c, i]))


def _columns(bounds: tuple[_Bound, ...], k: int) -> list[tuple]:
    """Each bound of a stack of k relations as its quantity and the
    nested (k, 3) lists of its lower side, upper side and verdict, with
    None for a missing side."""
    def listed(a):
        return [[None] * len(CHANNELS)] * k if a is None else a.tolist()

    return [(b.quantity, listed(b.lower), listed(b.upper),
             b.satisfied.tolist())
            for b in bounds]


@dataclass(frozen=True)
class SurveyRow:
    """One CSV row of the random bounds survey."""

    seed: int
    n: int
    channel: str
    quantity: str
    value: float
    bound_lo: float | None
    bound_hi: float | None
    satisfied: bool


def bounds_survey(seed: int = 42, count: int = 1000,
                  n_range: tuple[int, int] = (3, 8)) -> list[SurveyRow]:
    """Bound rows for `count` random HFPRs, deterministic per seed.

    Instance k draws its dimension and entries from
    numpy.random.default_rng([seed, k]); the emitted seed column is k.
    Every instance's Laplacian spectra must also pass the identities, as
    a residual safety net. Row order per instance: the two energy rows
    for each channel, then the three Laplacian rows for each channel.
    Instances are drawn and evaluated a block at a time, so only one
    block's relations are held at once: SURVEY_BLOCK instances, or fewer
    when the adjacency stack of a block of the largest size would exceed
    SURVEY_BLOCK_BYTES, but always at least one.
    """
    rows: list[SurveyRow] = []
    lo, hi = n_range
    size = max(1, min(SURVEY_BLOCK,
                      SURVEY_BLOCK_BYTES // (3 * hi * hi * 8)))
    for start in range(0, count, size):
        block = []
        for k in range(start, min(start + size, count)):
            rng = np.random.default_rng([seed, k])
            block.append(random_hfpr(int(rng.integers(lo, hi + 1)), rng))
        rows.extend(_survey_rows(block, start))
    return rows


def _survey_rows(relations, first_key: int) -> list[SurveyRow]:
    """Bound rows for relations keyed first_key onwards, whose Laplacian
    spectra must also pass the identities.

    Relations of one size are evaluated as one stack; rows come out in
    instance order, and an identity failure raises IdentityViolated for
    the first failing instance. Bound columns always carry the computed
    expressions so the report is inspectable; `satisfied` is the
    assertion, and for the mean-square upper bound it holds vacuously
    when that bound's hypothesis (2 Σ w² ≥ p) fails on the instance.
    """
    groups: dict[int, list[int]] = {}
    for i, h in enumerate(relations):
        groups.setdefault(h.n, []).append(i)
    per_instance: list = [None] * len(relations)
    first = None
    for n, members in groups.items():
        adj = _channels([relations[i] for i in members])
        e, energy_bounds = _energy_bounds(adj)
        t = _laplacian_terms(adj)
        # The identities solve the Laplacians again; perfbench pins 9
        # solves of 6 matrices per instance.
        violation = _first_violation(_laplacian_terms(adj))
        if violation is not None and (
                first is None or members[violation[0]] < first[0]):
            first = (members[violation[0]], violation[1])
        kinds = [(e.tolist(), _columns(energy_bounds, len(members))),
                 (t.energy.tolist(),
                  _columns(_laplacian_bounds(t), len(members)))]
        for j, i in enumerate(members):
            key = first_key + i
            per_instance[i] = [
                SurveyRow(key, n, name, q, values[j][c], lo[j][c],
                          hi[j][c], ok[j][c])
                for values, columns in kinds
                for c, name in enumerate(CHANNELS)
                for q, lo, hi, ok in columns]
    if first is not None:
        raise first[1]
    return [row for rows in per_instance for row in rows]


def fixture_survey_rows(experts) -> list[SurveyRow]:
    """Bound rows for explicit relations; seed column carries the index."""
    return _survey_rows(list(experts), 0)
