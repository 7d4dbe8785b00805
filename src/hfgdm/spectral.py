"""Spectral quantities of hesitancy fuzzy graphs.

Energy of a channel is the sum of absolute eigenvalues of its adjacency
matrix. Laplacian energy is the sum of |eigenvalue - 2S/n| over the
Laplacian spectrum, where S is the total channel weight; the shift 2S/n
is the mean Laplacian eigenvalue. Both come as read-only arrays with one
value per channel in CHANNELS order: (k, 3) for k relations, (3,) for
one. The classical spectral bounds on both come only as SurveyRows, from
bounds_survey or fixture_survey_rows, which also assert the trace and
Frobenius identities every Laplacian spectrum must satisfy, on that path
alone. laplacian_energies and the survey form the shifted spectrum with
one helper, _shifted, so both give the same value to the bit.

Every function here takes relations, which make_hfpr found symmetric and
finite, and every spectrum comes from _kernels.eigenvalues on their
channel matrices: a Panel's (k, 3, n, n) channels stack. energies and
laplacian_energies take a Panel, or relations that Panel.of turns into
one, and the single-relation functions are a Panel of one through the
same code. The survey groups a block of instances by n, each group
stacked as a Panel is but with no label check, since no bound reads
labels. Per group it does only what depends on n: one solve of the
stacked adjacency and Laplacian matrices and the sums along n. Those
(k, 3) sums are scattered into instance order, and the bounds, verdicts,
identities and rows are computed once for the whole block, elementwise,
so each float is the same IEEE operation it would be in a group of one.
The three pow terms (|det|^(2/p), (2W/p)^2 and psi1^2) are taken with
Python float pow on the (k, 3) values, because numpy's array power can
differ from it in the last bit and the survey's printed bounds are
byte-stable.

A reported bound violation is a finding, not an error, in the random
survey; the bundled fixtures are expected to satisfy every bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._kernels import eigenvalues
from .core import (CHANNELS, HFPR, Panel, _channels, _freeze, _group,
                   _integer, _shown, _size, _sizes, _upper_weights,
                   random_hfpr)
from .errors import IdentityViolated, ParameterOutOfRange

IDENTITY_TOL = 1e-8
BOUND_TOL = 1e-9
SURVEY_BLOCK = 256  # most random instances held and evaluated at once
SURVEY_BLOCK_BYTES = 64 * 2 ** 20  # cap on one block's adjacency stack
IDENTITIES = ("laplacian_trace", "laplacian_square", "shifted_sum",
              "shifted_square")


def _laplacians(a: np.ndarray) -> np.ndarray:
    """diag(degrees) - adjacency for each matrix of an (..., n, n) stack."""
    return a.sum(axis=-1)[..., None] * np.eye(a.shape[-1]) - a


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
    """energy() of each relation of a Panel, or of relations Panel.of
    accepts, solved as one stack: a read-only (k, 3) array."""
    return _freeze(np.abs(eigenvalues(Panel.of(relations).channels)).sum(-1))


def energy(h: HFPR) -> np.ndarray:
    """Sum of absolute adjacency eigenvalues, one value per channel: a
    read-only (3,) array in CHANNELS order."""
    return energies([h])[0]


def _shifted(w: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Laplacian spectra w (ascending, along the last axis) less their mean
    2s/n, s the sums of the upper-triangle weights: descending."""
    return (w - (2.0 * s / n)[..., None])[..., ::-1]


def laplacian_energies(relations) -> np.ndarray:
    """laplacian_energy() of each relation of a Panel, or of relations
    Panel.of accepts, solved as one stack: a read-only (k, 3) array."""
    adj = Panel.of(relations).channels
    psi = _shifted(eigenvalues(_laplacians(adj)),
                   _upper_weights(adj).sum(axis=-1), adj.shape[-1])
    return _freeze(np.abs(psi).sum(axis=-1))


def laplacian_energy(h: HFPR) -> np.ndarray:
    """Sum of |eigenvalue - 2S/n| over each channel's Laplacian spectrum:
    a read-only (3,) array in CHANNELS order."""
    return laplacian_energies([h])[0]


def _group_sums(adj: np.ndarray) -> np.ndarray:
    """Every reduction along n that the survey reads of a (k, 3, n, n)
    stack of one size, as one (14, k, 3) array: the energies, |det|^(2/p),
    the sums of the upper-triangle weights' squares and of the weights,
    dev = sum (d - 2s/n)^2, the Laplacian energies, the largest shifted
    eigenvalue psi1, then the seven sums the identities compare
    (_identity_check): of the Laplacian eigenvalues w, of w², of the
    degrees squared, of the shifted spectrum psi and psi², and of the
    positive and the negative part of psi. A relation is exactly
    symmetric, so no sum needs the lower triangle.

    The adjacency matrices and the Laplacians are solved in one call. The
    identities read their own copy of the Laplacians, so each relation
    has 9 solves of 6 distinct matrices, the count perfbench pins.
    """
    n = adj.shape[-1]
    lap = _laplacians(adj)
    w, w_lap, w_id = eigenvalues(np.array([adj, lap, lap]))
    upper = _upper_weights(adj)
    s = upper.sum(axis=-1)
    d = lap.diagonal(axis1=-2, axis2=-1)
    psi = _shifted(w_lap, s, n)
    psi_id = _shifted(w_id, s, n)
    return np.array([
        np.abs(w).sum(axis=-1), _det_term(w), np.square(upper).sum(axis=-1), s,
        np.square(d - (2.0 * s / n)[..., None]).sum(axis=-1),
        np.abs(psi).sum(axis=-1), psi[..., 0],
        w_id.sum(axis=-1), np.square(w_id).sum(axis=-1),
        np.square(d).sum(axis=-1), psi_id.sum(axis=-1),
        np.square(psi_id).sum(axis=-1), np.maximum(psi_id, 0.0).sum(axis=-1),
        np.minimum(psi_id, 0.0).sum(axis=-1)])


def _identity_check(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 3, 4) identity residuals and the scales they are judged on, the
    last axis in IDENTITIES order, from a (14, k, 3) _group_sums array.
    Rounding grows with the size of the sides an identity compares, so a
    scale is max(1, |left|, |right|); the shifted sum's sides are the
    positive and the negative part of the shifted spectrum, which must
    balance."""
    w2, s, dev = sums[2], sums[3], sums[4]
    w_sum, w_sq, d_sq, psi_sum, psi_sq, psi_pos, psi_neg = sums[7:]
    aux = w2 + 0.5 * dev
    residuals = np.abs(np.stack([
        w_sum - 2.0 * s, w_sq - (2.0 * w2 + d_sq), psi_sum,
        psi_sq - 2.0 * aux], axis=-1))
    sides = np.abs(np.stack([(w_sum, 2.0 * s), (w_sq, 2.0 * w2 + d_sq),
                             (psi_pos, psi_neg), (psi_sq, 2.0 * aux)],
                            axis=-1))
    return residuals, np.maximum(1.0, sides.max(axis=0))


class SurveyRow(NamedTuple):
    """One CSV row of the bounds survey: a named tuple whose fields are in
    CSV column order, with None for a side its bound lacks.

    With W the sum of squared upper-triangle weights of a p x p channel,
    the energy rows carry energy_determinant_bounds, the lower bound
    sqrt(p(p-1)|det|^(2/p) + 2W) (det from the eigenvalue product, in
    the log domain where that leaves the float range; a relation is
    exactly symmetric, so the directed term 2 sum w_ij*w_ji is 2W) and
    the Frobenius upper bound sqrt(2p * W); and energy_mean_square_upper,
    2W/p + sqrt((p-1)(2W - (2W/p)^2)), asserted only under its classical
    hypothesis 2W >= p and satisfied vacuously where that fails. With
    dev = sum (d_i - 2S/n)^2 and aux = W + dev/2, the Laplacian rows
    carry the spread lower bound 2*sqrt(aux), the Frobenius upper bound
    sqrt(2n*aux), and the max-shift upper bound psi1 + sqrt((n-1)(2*aux -
    psi1^2)), where psi1 is the largest shifted eigenvalue (not the
    largest absolute value).
    """

    seed: int
    n: int
    channel: str
    quantity: str
    value: float
    bound_lo: float | None
    bound_hi: float | None
    satisfied: bool


QUANTITIES = ("energy_determinant_bounds", "energy_mean_square_upper",
              "laplacian_energy_spread_lower",
              "laplacian_energy_frobenius_upper",
              "laplacian_energy_max_shift_upper")
# An instance's 15 rows as positions 5c + b of its (channel c, bound b)
# cells: both energy bounds of each channel, then the three Laplacian ones.
_ROW_ORDER = [5 * c + b for bounds in ((0, 1), (2, 3, 4))
              for c in range(len(CHANNELS)) for b in bounds]
_ROW_NAMES = [(CHANNELS[i // 5], QUANTITIES[i % 5]) for i in _ROW_ORDER]


def bounds_survey(seed: int = 42, count: int = 1000,
                  n_range: tuple[int, int] = (3, 8)) -> list[SurveyRow]:
    """Bound rows for `count` random HFPRs, deterministic per seed.

    Instance k draws its dimension from n_range = (lo, hi), inclusive, and
    its entries from numpy.random.default_rng([seed, k]); the emitted seed
    column is k. Every instance's Laplacian spectra must also pass the
    identities, as a residual safety net. Row order per instance: the two
    energy rows for each channel, then the three Laplacian rows for each
    channel. Instances are drawn and evaluated a block at a time, so only
    one block's relations are held at once: SURVEY_BLOCK instances, or
    fewer when the adjacency stack of a block of the largest size would
    exceed SURVEY_BLOCK_BYTES, but always at least one. A seed or count
    below 0, or an n_range that is not integers 1 <= lo <= hi or whose
    hi is too large for numpy's arrays, raises ParameterOutOfRange naming
    the argument before any draw; count = 0 gives no rows.
    """
    seed = _integer("seed", seed, 0)
    count = _integer("count", count, 0)
    try:
        lo, hi = n_range
    except (TypeError, ValueError):
        raise ParameterOutOfRange(
            f"n_range = {_shown(n_range)} is not a pair (lo, hi)") from None
    lo = _integer("n_range lo", lo, 1)
    hi = _size("n_range hi", hi, lo)
    rows: list[SurveyRow] = []
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

    Each size group, its members' channels stacked (core._channels) whatever
    their labels, gives its reductions along n
    (_group_sums), scattered into one (14, k, 3) array in instance order;
    the bounds, verdicts, identities (_identity_check, the only place they
    are checked) and rows are then computed once for the whole block. The
    first identity residual over IDENTITY_TOL times its scale, in
    (instance, channel, identity) order, raises IdentityViolated. Bound
    columns always carry the computed expressions so the report is
    inspectable; `satisfied` is the assertion, and for the mean-square
    upper bound it holds vacuously when that bound's hypothesis
    (2 Σ w² ≥ p) fails on the instance.
    """
    sizes = _sizes(relations)
    k = len(sizes)
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    sums = np.empty((14, k, len(CHANNELS)))  # the 14 _group_sums
    for members in groups.values():
        sums[:, members] = _group_sums(
            _channels([relations[i] for i in members]))
    e, det_term, w2, _, dev, le, psi1 = sums[:7]
    aux = w2 + 0.5 * dev
    residuals, scales = _identity_check(sums)
    over = residuals > IDENTITY_TOL * scales
    if over.any():
        j, c, i = np.unravel_index(int(over.argmax()), over.shape)
        raise IdentityViolated(CHANNELS[c], IDENTITIES[i],
                               float(residuals[j, c, i]))

    # p is n, as a column against the (k, 3) values.
    p = np.array(sizes, dtype=float)[:, None]
    lo_det = np.sqrt(p * (p - 1) * det_term + 2.0 * w2)
    hi_det = np.sqrt(2.0 * p * w2)
    mean_sq = 2.0 * w2 / p
    hi_ms = mean_sq + np.sqrt(
        (p - 1) * np.maximum(2.0 * w2 - _pow(mean_sq, 2), 0.0))
    lo_spread = 2.0 * np.sqrt(aux)
    hi_frob = np.sqrt(2.0 * p * aux)
    hi_shift = psi1 + np.sqrt(
        (p - 1) * np.maximum(2.0 * aux - _pow(psi1, 2), 0.0))
    ok = np.stack([
        (lo_det - BOUND_TOL <= e) & (e <= hi_det + BOUND_TOL),
        (e <= hi_ms + BOUND_TOL) | (2.0 * w2 < p),
        le >= lo_spread - BOUND_TOL,
        le <= hi_frob + BOUND_TOL,
        le <= hi_shift + BOUND_TOL,
    ], axis=-1).reshape(k, 15)[:, _ROW_ORDER]
    # (value, lower, upper) of each (channel, bound) cell, as Python
    # floats, with None for a side the bound lacks.
    none = np.full(e.shape, None)
    cells = np.stack([
        e, lo_det, hi_det, e, none, hi_ms, le, lo_spread, none,
        le, none, hi_frob, le, none, hi_shift,
    ], axis=-1).reshape(k, 15, 3)[:, _ROW_ORDER]
    return [SurveyRow(key, n, channel, quantity, value, lower, upper, sat)
            for key, n, instance, verdicts in zip(
                range(first_key, first_key + k), sizes,
                cells.tolist(), ok.tolist())
            for (channel, quantity), (value, lower, upper), sat in zip(
                _ROW_NAMES, instance, verdicts)]


def fixture_survey_rows(experts) -> list[SurveyRow]:
    """Bound rows for explicit relations; seed column carries the index."""
    return _survey_rows(_group(experts), 0)
