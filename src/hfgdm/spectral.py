"""Spectral quantities of hesitancy fuzzy graphs.

Energy of a channel is the sum of absolute eigenvalues of its adjacency
matrix. Laplacian energy is the sum of |eigenvalue - 2S/n| over the
Laplacian spectrum, where S is the total channel weight; the shift 2S/n
is the mean Laplacian eigenvalue. Bound checkers evaluate the classical
spectral bounds on both quantities, and eigen_identities asserts the
trace and Frobenius identities the spectra must satisfy.

Every spectrum comes from _kernels.eigenvalues. Bounds and identities
are evaluated on a (k, 3, n, n) stack of the channel matrices of k
same-size relations, giving (k, 3) arrays: the survey groups its
instances by n and evaluates each group at once, and the single-relation
checkers are a stack of one through the same code. The three pow terms
(|det|^(2/p), (2W/p)^2 and psi1^2) are taken with Python float pow on
the (k, 3) values, because numpy's array power can differ from it in the
last bit and the survey's printed bounds are byte-stable.

A reported bound violation is a finding, not an error, in the random
survey; the bundled fixtures are expected to satisfy every bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import eigenvalues
from .core import CHANNELS, ChannelMatrix, HFPR, _upper_indices, random_hfpr
from .errors import (
    AsymmetricEntry,
    DimensionMismatch,
    IdentityViolated,
    NotSymmetric,
    ParameterOutOfRange,
)

SYMMETRY_TOL = 1e-9
IDENTITY_TOL = 1e-8
BOUND_TOL = 1e-9
SURVEY_BLOCK = 256  # random instances held and evaluated at once
IDENTITIES = ("laplacian_trace", "laplacian_square", "shifted_sum",
              "shifted_square")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one symmetric matrix, sorted descending."""

    eigenvalues: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.eigenvalues)


@dataclass(frozen=True)
class EnergyTriple:
    """Per-channel scalar result (membership, nonmembership, hesitancy)."""

    e_mu: float
    e_gamma: float
    e_beta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_mu, self.e_gamma, self.e_beta])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.e_mu, self.e_gamma, self.e_beta)


@dataclass(frozen=True)
class BoundCheck:
    """One named bound row: lower and/or upper side plus the verdict.

    applicable is False when the bound's hypothesis does not cover the
    instance (only the mean-square energy upper bound has one: it presumes
    2 * sum of squared weights >= n). Such rows report their numbers
    verbatim but count as satisfied, since no asserted bound is violated.
    """

    quantity: str
    value: float
    lower: float | None
    upper: float | None
    satisfied: bool
    applicable: bool = True


@dataclass(frozen=True)
class SpectralSummary:
    """Per-channel spectral report shared by the checker operations.

    shifted holds the spectrum minus its mean (zero shift for adjacency);
    aux is the auxiliary quantity whose double equals the sum of squared
    shifted eigenvalues. Bound fields are None for the identity checker,
    whose residuals land in the residuals mapping instead. bound_hi is the
    minimum applicable upper bound.
    """

    channel: str
    value: float
    shifted: tuple[float, ...]
    aux: float
    bound_lo: float | None
    bound_hi: float | None
    checks: tuple[BoundCheck, ...]
    satisfied: bool
    residuals: tuple[tuple[str, float], ...] = ()


def _as_symmetric_array(m) -> np.ndarray:
    a = m.values if isinstance(m, ChannelMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ParameterOutOfRange(
            f"matrix entry ({i}, {j}) = {float(a[i, j])} is not finite")
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-9")
    return a


def symmetric_eigenvalues(m) -> Spectrum:
    """Eigenvalues of a ChannelMatrix or real symmetric array, descending."""
    w = eigenvalues(_as_symmetric_array(m))
    return Spectrum(tuple(w[::-1].tolist()))


def _channels(relations) -> np.ndarray:
    """The channel matrices of same-size relations, which make_hfpr
    validated, as a contiguous (k, 3, n, n) stack."""
    if not all(h.symmetric for h in relations):
        raise AsymmetricEntry("channel matrix is not symmetric")
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


def energy(h: HFPR) -> EnergyTriple:
    """Sum of absolute adjacency eigenvalues, one value per channel."""
    w = eigenvalues(_channels([h])[0])
    return EnergyTriple(*np.abs(w).sum(axis=-1).tolist())


def laplacian(c: ChannelMatrix) -> np.ndarray:
    """Laplacian matrix diag(degrees) - adjacency for one channel."""
    return _laplacians(c.values)


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


def laplacian_energy(h: HFPR) -> EnergyTriple:
    """Sum of |eigenvalue - 2S/n| over each channel's Laplacian spectrum."""
    return EnergyTriple(*_laplacian_terms(_channels([h])).energy[0].tolist())


class _Bound(NamedTuple):
    """One bound on a quantity over a stack of relations, as (k, 3)
    arrays: its lower and upper sides (None for a side the bound lacks),
    the verdict, and whether the bound's hypothesis holds (None when it
    has none)."""

    quantity: str
    lower: np.ndarray | None
    upper: np.ndarray | None
    satisfied: np.ndarray
    applicable: np.ndarray | None = None


def _energy_bounds(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, tuple[_Bound, ...]]:
    """Adjacency spectra (ascending), sums W of squared upper-triangle
    weights, energies, and the two energy bounds of a (k, 3, p, p)
    stack."""
    p = adj.shape[-1]
    w = eigenvalues(adj)
    upper = _upper_weights(adj)
    w2 = np.square(upper).sum(axis=-1)
    prod = (upper * _upper_weights(np.swapaxes(adj, -1, -2))).sum(axis=-1)
    e = np.abs(w).sum(axis=-1)
    det_term = _pow(np.abs(np.prod(w, axis=-1)), 2.0 / p)
    lo = np.sqrt(p * (p - 1) * det_term + 2.0 * prod)
    hi_frob = np.sqrt(2.0 * p * w2)
    mean_sq = 2.0 * w2 / p
    hi_ms = mean_sq + np.sqrt(
        (p - 1) * np.maximum(2.0 * w2 - _pow(mean_sq, 2), 0.0))
    ms_applicable = 2.0 * w2 >= p
    return w, w2, e, (
        _Bound("energy_determinant_bounds", lo, hi_frob,
               (lo - BOUND_TOL <= e) & (e <= hi_frob + BOUND_TOL)),
        _Bound("energy_mean_square_upper", None, hi_ms,
               (e <= hi_ms + BOUND_TOL) | ~ms_applicable, ms_applicable),
    )


def _laplacian_bounds(t: _LaplacianTerms) -> tuple[_Bound, ...]:
    """The three bounds on the Laplacian energies of a stack."""
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


def _first_violation(residuals: np.ndarray
                     ) -> tuple[int, IdentityViolated] | None:
    """The first residual over IDENTITY_TOL in (instance, channel,
    identity) order, as its instance index and error; None if none is."""
    over = residuals > IDENTITY_TOL
    if not over.any():
        return None
    j, c, i = np.unravel_index(int(over.argmax()), over.shape)
    return int(j), IdentityViolated(
        CHANNELS[c], IDENTITIES[i], float(residuals[j, c, i]))


def _columns(bounds: tuple[_Bound, ...], k: int) -> list[tuple]:
    """Each bound of a stack of k relations as its quantity and the
    nested (k, 3) lists of its lower side, upper side, verdict and
    applicability, with None for a missing side and True for no
    hypothesis."""
    def listed(a, fill):
        return [[fill] * len(CHANNELS)] * k if a is None else a.tolist()

    return [(b.quantity, listed(b.lower, None), listed(b.upper, None),
             b.satisfied.tolist(), listed(b.applicable, True))
            for b in bounds]


def _summaries(value, shifted, aux, bounds=(), bound_lo=None,
               bound_hi=None, residuals=None) -> tuple[SpectralSummary, ...]:
    """Per-channel summaries of the relation of a stack of one, with a
    BoundCheck on value for each of bounds."""
    v = value[0].tolist()
    columns = _columns(bounds, 1)
    out = []
    for c, name in enumerate(CHANNELS):
        checks = tuple(BoundCheck(q, v[c], lo[0][c], hi[0][c], ok[0][c],
                                  app[0][c])
                       for q, lo, hi, ok, app in columns)
        out.append(SpectralSummary(
            channel=name,
            value=v[c],
            shifted=tuple(shifted[0, c].tolist()),
            aux=float(aux[0, c]),
            bound_lo=None if bound_lo is None else float(bound_lo[0, c]),
            bound_hi=None if bound_hi is None else float(bound_hi[0, c]),
            checks=checks,
            satisfied=all(k.satisfied for k in checks),
            residuals=() if residuals is None else tuple(
                zip(IDENTITIES, residuals[0, c].tolist())),
        ))
    return tuple(out)


def check_energy_bounds(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Evaluate the energy bounds per channel.

    The determinant row carries the lower bound
    sqrt(p(p-1)|det|^(2/p) + 2*sum w_ij*w_ji) and the Frobenius upper
    bound sqrt(2p * sum w^2); det comes from the eigenvalue product. The
    mean-square row carries 2W/p + sqrt((p-1)(2W - (2W/p)^2)) with
    W = sum of squared upper-triangle weights, asserted only under its
    classical applicability hypothesis 2W >= p.
    """
    w, w2, e, bounds = _energy_bounds(_channels([h]))
    det, ms = bounds
    bound_hi = np.where(ms.applicable, np.minimum(det.upper, ms.upper),
                        det.upper)
    return _summaries(e, w[..., ::-1], w2, bounds, det.lower, bound_hi)


def check_laplacian_bounds(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Evaluate the Laplacian energy bounds per channel.

    With dev = sum (d_i - 2S/n)^2 and aux = W + dev/2: the spread lower
    bound 2*sqrt(aux), the Frobenius upper bound sqrt(2n*aux), and the
    max-shift upper bound psi1 + sqrt((n-1)(2*aux - psi1^2)) where psi1 is
    the largest shifted eigenvalue (not the largest absolute value).
    """
    t = _laplacian_terms(_channels([h]))
    bounds = _laplacian_bounds(t)
    spread, frob, shift = bounds
    return _summaries(t.energy, t.psi, t.aux, bounds, spread.lower,
                      np.minimum(frob.upper, shift.upper))


def eigen_identities(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Assert per-channel Laplacian spectrum identities within 1e-8.

    Checks sum of eigenvalues = 2 * sum of weights; sum of squared
    eigenvalues = 2 * sum w^2 + sum d^2; shifted eigenvalues sum to 0 and
    their squares sum to 2 * aux. Raises IdentityViolated on the first
    residual over budget; returns the per-channel summaries otherwise.
    """
    t = _laplacian_terms(_channels([h]))
    residuals = _identity_residuals(t)
    violation = _first_violation(residuals)
    if violation is not None:
        raise violation[1]
    return _summaries(t.energy, t.psi, t.aux, residuals=residuals)


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
    Every instance also passes through eigen_identities as a residual
    safety net. Row order per instance: the two energy rows for each
    channel, then the three Laplacian rows for each channel. Instances
    are drawn and evaluated SURVEY_BLOCK at a time, so only one block's
    relations are held at once.
    """
    rows: list[SurveyRow] = []
    lo, hi = n_range
    for start in range(0, count, SURVEY_BLOCK):
        block = []
        for k in range(start, min(start + SURVEY_BLOCK, count)):
            rng = np.random.default_rng([seed, k])
            block.append(random_hfpr(int(rng.integers(lo, hi + 1)), rng))
        rows.extend(_survey_rows(block, start))
    return rows


def _survey_rows(relations, first_key: int) -> list[SurveyRow]:
    """Bound rows for relations keyed first_key onwards, which must also
    pass eigen_identities.

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
        _, _, e, energy_bounds = _energy_bounds(adj)
        t = _laplacian_terms(adj)
        # The identities solve the Laplacians again, as eigen_identities
        # does; perfbench pins 9 solves of 6 matrices per instance.
        violation = _first_violation(
            _identity_residuals(_laplacian_terms(adj)))
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
                for q, lo, hi, ok, _ in columns]
    if first is not None:
        raise first[1]
    return [row for rows in per_instance for row in rows]


def fixture_survey_rows(experts) -> list[SurveyRow]:
    """Bound rows for explicit relations; seed column carries the index."""
    return _survey_rows(list(experts), 0)
