"""Spectral quantities of hesitancy fuzzy graphs.

Energy of a channel is the sum of absolute eigenvalues of its adjacency
matrix. Laplacian energy is the sum of |eigenvalue - 2S/n| over the
Laplacian spectrum, where S is the total channel weight; the shift 2S/n
is the mean Laplacian eigenvalue. Bound checkers evaluate the classical
spectral bounds on both quantities, and eigen_identities asserts the
trace and Frobenius identities the spectra must satisfy.

Every spectrum comes from _kernels.eigenvalues. The per-relation
functions solve a relation's three channel matrices, or their three
Laplacians, as one (3, n, n) stack, and the Laplacian checks share one
set of derived terms (_laplacian_terms).

A reported bound violation is a finding, not an error, in the random
survey; the bundled fixtures are expected to satisfy every bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import eigenvalues
from .core import CHANNELS, ChannelMatrix, HFPR, channel, random_hfpr
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    NotSymmetric,
    ParameterOutOfRange,
)

SYMMETRY_TOL = 1e-9
IDENTITY_TOL = 1e-8
BOUND_TOL = 1e-9


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


def _channels(h: HFPR) -> np.ndarray:
    """The validated channel matrices of h as a (3, n, n) stack."""
    return np.stack([channel(h, name).values for name in CHANNELS])


def _laplacians(a: np.ndarray) -> np.ndarray:
    """diag(degrees) - adjacency for each matrix of an (..., n, n) stack."""
    return a.sum(axis=-1)[..., None] * np.eye(a.shape[-1]) - a


def _upper_weights(a: np.ndarray) -> np.ndarray:
    """Strict upper triangle of each matrix of an (..., n, n) stack."""
    iu, ju = np.triu_indices(a.shape[-1], 1)
    return a[..., iu, ju]


def energy(h: HFPR) -> EnergyTriple:
    """Sum of absolute adjacency eigenvalues, one value per channel."""
    w = eigenvalues(_channels(h))
    return EnergyTriple(*np.abs(w).sum(axis=-1).tolist())


def laplacian(c: ChannelMatrix) -> np.ndarray:
    """Laplacian matrix diag(degrees) - adjacency for one channel."""
    return _laplacians(c.values)


@dataclass(frozen=True)
class _LaplacianTerms:
    """A relation's Laplacian spectra and the terms built on them.

    Each field has one row or entry per channel: w the eigenvalues
    (ascending), d the degrees, s and w2 the sums of the upper-triangle
    weights and of their squares, psi = w - 2s/n the spectrum shifted by
    its mean (descending), aux = w2 + sum (d - 2s/n)^2 / 2 and
    energy = sum |psi|.
    """

    w: np.ndarray
    d: np.ndarray
    s: np.ndarray
    w2: np.ndarray
    psi: np.ndarray
    aux: np.ndarray
    energy: np.ndarray


def _laplacian_terms(h: HFPR) -> _LaplacianTerms:
    adj = _channels(h)
    lap = _laplacians(adj)
    w = eigenvalues(lap)
    d = lap.diagonal(axis1=-2, axis2=-1)
    upper = _upper_weights(adj)
    s = upper.sum(axis=-1)
    w2 = np.square(upper).sum(axis=-1)
    shift = (2.0 * s / h.n)[:, None]
    psi = (w - shift)[:, ::-1]
    aux = w2 + 0.5 * np.square(d - shift).sum(axis=-1)
    return _LaplacianTerms(w, d, s, w2, psi, aux, np.abs(psi).sum(axis=-1))


def laplacian_energy(h: HFPR) -> EnergyTriple:
    """Sum of |eigenvalue - 2S/n| over each channel's Laplacian spectrum."""
    return EnergyTriple(*_laplacian_terms(h).energy.tolist())


def _energy_channel_summary(name: str, w: np.ndarray, w2: float,
                            prod: float) -> SpectralSummary:
    p = w.size
    e = float(np.abs(w).sum())
    det = float(np.prod(w))
    det_term = 0.0 if det == 0.0 else abs(det) ** (2.0 / p)
    lo = math.sqrt(p * (p - 1) * det_term + 2.0 * prod)
    hi_frob = math.sqrt(2.0 * p * w2)
    mean_sq = 2.0 * w2 / p
    hi_ms = mean_sq + math.sqrt((p - 1) * max(2.0 * w2 - mean_sq ** 2, 0.0))
    ms_applicable = 2.0 * w2 >= p
    checks = (
        BoundCheck(
            quantity="energy_determinant_bounds",
            value=e,
            lower=lo,
            upper=hi_frob,
            satisfied=bool(lo - BOUND_TOL <= e <= hi_frob + BOUND_TOL),
        ),
        BoundCheck(
            quantity="energy_mean_square_upper",
            value=e,
            lower=None,
            upper=hi_ms,
            satisfied=bool(e <= hi_ms + BOUND_TOL) or not ms_applicable,
            applicable=ms_applicable,
        ),
    )
    bound_hi = min(hi_frob, hi_ms) if ms_applicable else hi_frob
    return SpectralSummary(
        channel=name,
        value=e,
        shifted=tuple(w[::-1].tolist()),
        aux=w2,
        bound_lo=lo,
        bound_hi=bound_hi,
        checks=checks,
        satisfied=all(k.satisfied for k in checks),
    )


def _laplacian_channel_summary(name: str, psi: np.ndarray, le: float,
                               aux: float) -> SpectralSummary:
    n = psi.size
    lo_spread = 2.0 * math.sqrt(aux)
    hi_frob = math.sqrt(2.0 * n * aux)
    psi1 = float(psi[0])
    hi_shift = psi1 + math.sqrt((n - 1) * max(2.0 * aux - psi1 ** 2, 0.0))
    checks = (
        BoundCheck(
            quantity="laplacian_energy_spread_lower",
            value=le,
            lower=lo_spread,
            upper=None,
            satisfied=bool(le >= lo_spread - BOUND_TOL),
        ),
        BoundCheck(
            quantity="laplacian_energy_frobenius_upper",
            value=le,
            lower=None,
            upper=hi_frob,
            satisfied=bool(le <= hi_frob + BOUND_TOL),
        ),
        BoundCheck(
            quantity="laplacian_energy_max_shift_upper",
            value=le,
            lower=None,
            upper=hi_shift,
            satisfied=bool(le <= hi_shift + BOUND_TOL),
        ),
    )
    return SpectralSummary(
        channel=name,
        value=le,
        shifted=tuple(psi.tolist()),
        aux=aux,
        bound_lo=lo_spread,
        bound_hi=min(hi_frob, hi_shift),
        checks=checks,
        satisfied=all(k.satisfied for k in checks),
    )


def check_energy_bounds(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Evaluate the energy bounds per channel.

    The determinant row carries the lower bound
    sqrt(p(p-1)|det|^(2/p) + 2*sum w_ij*w_ji) and the Frobenius upper
    bound sqrt(2p * sum w^2); det comes from the eigenvalue product. The
    mean-square row carries 2W/p + sqrt((p-1)(2W - (2W/p)^2)) with
    W = sum of squared upper-triangle weights, asserted only under its
    classical applicability hypothesis 2W >= p.
    """
    adj = _channels(h)
    w = eigenvalues(adj)
    upper = _upper_weights(adj)
    w2 = np.square(upper).sum(axis=-1)
    prod = (upper * _upper_weights(np.swapaxes(adj, -1, -2))).sum(axis=-1)
    return tuple(
        _energy_channel_summary(name, w[k], float(w2[k]), float(prod[k]))
        for k, name in enumerate(CHANNELS))


def check_laplacian_bounds(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Evaluate the Laplacian energy bounds per channel.

    With dev = sum (d_i - 2S/n)^2 and aux = W + dev/2: the spread lower
    bound 2*sqrt(aux), the Frobenius upper bound sqrt(2n*aux), and the
    max-shift upper bound psi1 + sqrt((n-1)(2*aux - psi1^2)) where psi1 is
    the largest shifted eigenvalue (not the largest absolute value).
    """
    t = _laplacian_terms(h)
    return tuple(
        _laplacian_channel_summary(
            name, t.psi[k], float(t.energy[k]), float(t.aux[k]))
        for k, name in enumerate(CHANNELS))


def eigen_identities(h: HFPR) -> tuple[SpectralSummary, ...]:
    """Assert per-channel Laplacian spectrum identities within 1e-8.

    Checks sum of eigenvalues = 2 * sum of weights; sum of squared
    eigenvalues = 2 * sum w^2 + sum d^2; shifted eigenvalues sum to 0 and
    their squares sum to 2 * aux. Raises IdentityViolated on the first
    residual over budget; returns the per-channel summaries otherwise.
    """
    t = _laplacian_terms(h)
    d2 = np.square(t.d).sum(axis=-1)
    residuals = {
        "laplacian_trace": np.abs(t.w.sum(axis=-1) - 2.0 * t.s),
        "laplacian_square":
            np.abs(np.square(t.w).sum(axis=-1) - (2.0 * t.w2 + d2)),
        "shifted_sum": np.abs(t.psi.sum(axis=-1)),
        "shifted_square": np.abs(np.square(t.psi).sum(axis=-1) - 2.0 * t.aux),
    }
    out = []
    for k, name in enumerate(CHANNELS):
        rows = tuple((identity, float(r[k])) for identity, r in residuals.items())
        for identity, residual in rows:
            if residual > IDENTITY_TOL:
                raise IdentityViolated(name, identity, residual)
        out.append(SpectralSummary(
            channel=name,
            value=float(t.energy[k]),
            shifted=tuple(t.psi[k].tolist()),
            aux=float(t.aux[k]),
            bound_lo=None,
            bound_hi=None,
            checks=(),
            satisfied=True,
            residuals=rows,
        ))
    return tuple(out)


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
    channel, then the three Laplacian rows for each channel.
    """
    rows: list[SurveyRow] = []
    lo, hi = n_range
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        n = int(rng.integers(lo, hi + 1))
        h = random_hfpr(n, rng)
        rows.extend(_instance_rows(k, h))
    return rows


def _instance_rows(key: int, h) -> list[SurveyRow]:
    """Bound rows for one relation, which must also pass eigen_identities.

    Bound columns always carry the computed expressions so the report is
    inspectable; `satisfied` is the assertion, and for the mean-square
    upper bound it holds vacuously when that bound's hypothesis
    (2 Σ w² ≥ p) fails on the instance.
    """
    rows: list[SurveyRow] = []
    for summary in check_energy_bounds(h) + check_laplacian_bounds(h):
        for c in summary.checks:
            rows.append(SurveyRow(
                seed=key, n=h.n, channel=summary.channel, quantity=c.quantity,
                value=c.value, bound_lo=c.lower, bound_hi=c.upper,
                satisfied=c.satisfied))
    eigen_identities(h)
    return rows


def fixture_survey_rows(experts) -> list[SurveyRow]:
    """Bound rows for explicit relations; seed column carries the index."""
    return [row for k, h in enumerate(experts) for row in _instance_rows(k, h)]
