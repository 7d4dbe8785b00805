"""Nine-stage expert-weighting and alternative-ranking procedure.

Stages: (i) energy or Laplacian energy per expert; (ii) uncertainty score
triples c1; (iii) pairwise similarities; (iv) similarity weights ca;
(v) objective scores c2 = eta*c1 + (1-eta)*ca; (vi) final scores
c = gamma_blend*c1 + (1-gamma_blend)*c2; (vii) weighted aggregation into
one relation; (viii) similarities to the ideals; (ix) closeness and
ranking. A run evaluates the whole gamma_blend grid as one stack: c2 is
blended once, c for every grid value in one (g, l, 3) expression, and
the aggregates' ideal similarities, closeness and rankings as (g, n)
arrays. Only stage vii runs once per grid value, in grid order, so a
closure failure names the first failing value, and run's message says
so: "stage vii (aggregation) at gamma_blend = g: " before
aggregate_hfpr's own.

Every function that takes the experts' relations takes a Panel, or a
sequence of relations that Panel.of checks and stacks. run builds that
Panel once, or takes the one it is given, and hands it to every stage.

Checkpoint overrides can inject values at stages ii (c1), iii (pairwise
similarities), iv (ca), vi (c), and vii (the aggregated relation); every
stage downstream of an injection is recomputed from it. That makes
published intermediate values usable as inputs when they cannot be
regenerated from the raw relations. run checks them first, through
Overrides.checked, which holds every rule on an override's own values.

Stage-v blending supports two conventions. "scalar" broadcasts each
expert's own weight ca[b] across the three channels. "vector" reuses the
whole weight vector (ca[0], ca[1], ca[2]) as one shared triple blended
into every expert's c1 row, which is how the published case-study tables
are computed; it requires exactly three experts. The default "auto"
picks vector for three experts and scalar otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .core import HFPR, Panel, _freeze, _plain, make_hfpr
from .errors import (
    NeedTwoExperts,
    OverrideShapeMismatch,
    ParameterOutOfRange,
    TripleOutOfRange,
    ZeroDenominator,
)
from .similarity import _ideal_rows, _mean_degree, _resolve_pairwise, closeness
# energy and laplacian_energy stay importable from this module; a run
# solves every expert at once through energies and laplacian_energies.
from .spectral import energies, energy, laplacian_energies, laplacian_energy

MODES = ("energy", "laplacian")
NORMALIZATIONS = ("per_expert", "per_channel", "auto")
CONVENTIONS = ("vector", "scalar", "auto")
CLOSENESS_MODES = ("relative", "ratio")

_SCORE_TOL = 1e-9


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ParameterOutOfRange(f"{name} {value!r} not one of {choices}")


def _score_matrix(x, l: int, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (l, 3):
        raise OverrideShapeMismatch(
            f"{name} must have shape ({l}, 3), got {a.shape}")
    if a.min() < -_SCORE_TOL:
        raise ParameterOutOfRange(f"{name} components must be nonnegative")
    return a


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Score vectors of stages ii-vi for one gamma_blend value.

    c1, c2, c are (l, 3) triples per expert; ca is the length-l weight
    vector of stage iv and ca_effective the (l, 3) triples it turned into
    under the blend convention. Invariants: ca sums to 1 within 1e-9, all
    components are nonnegative and finite, and c2 = eta c1 + (1 - eta)
    ca_effective and c = gamma_blend c1 + (1 - gamma_blend) c2 hold by
    construction. Construct through blend_scores, which checks the
    rest; the score sets of one run are read-only views into one
    stack, sharing c1, ca, ca_effective and c2.
    """

    c1: np.ndarray
    ca: np.ndarray
    ca_effective: np.ndarray
    c2: np.ndarray
    c: np.ndarray
    eta: float
    gamma_blend: float
    convention: str


@dataclass(frozen=True)
class Overrides:
    """Optional checkpoint injections, one field per stage, in stage order.

    pair_similarity maps expert index pairs (each pair once, in either
    orientation) to the injected stage-iii values; c1, ca, c are score
    arrays; aggregated is a full replacement relation for stage vii.
    checked owns their shape, sign and key rules; ca summing to 1 and
    finite similarity degrees stay with stages v and iv.
    """

    c1: object | None = None
    pair_similarity: dict | None = None
    ca: object | None = None
    c: object | None = None
    aggregated: HFPR | None = None

    def stage_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self)
                     if getattr(self, f.name) is not None)

    def checked(self, l: int, n: int) -> Overrides:
        """These overrides checked in stage order for l experts and an
        aggregated relation of size n; c1, c (read-only) and ca come back
        as float arrays and pairs as _resolve_pairwise gives them."""
        c1, ca, c = self.c1, self.ca, self.c
        if c1 is not None:
            c1 = _score_matrix(c1, l, "c1 override")
        pairs = _resolve_pairwise(self.pair_similarity, l)
        if ca is not None:
            ca = np.asarray(ca, dtype=float)
            if ca.shape != (l,):
                raise OverrideShapeMismatch(
                    f"ca override must have shape ({l},), got {ca.shape}")
        if self.aggregated is not None and self.aggregated.n != n:
            raise OverrideShapeMismatch(
                "aggregated override does not match the relation size")
        if c is not None:
            c = _freeze(_score_matrix(c, l, "c override").copy())
        return Overrides(c1, pairs, ca, c, self.aggregated)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters; gamma_grid drives one ranking per value."""

    mode: str = "energy"
    score_normalization: str = "auto"
    eta: float = 0.5
    gamma_grid: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)
    closeness_mode: str = "relative"
    blend_convention: str = "auto"
    overrides: Overrides = field(default_factory=Overrides)

    def __post_init__(self):
        _check_choice("mode", self.mode, MODES)
        _check_choice("score_normalization", self.score_normalization,
                      NORMALIZATIONS)
        _check_choice("closeness_mode", self.closeness_mode, CLOSENESS_MODES)
        _check_choice("blend_convention", self.blend_convention, CONVENTIONS)
        if not (0.0 <= self.eta <= 1.0):
            raise ParameterOutOfRange(
                f"eta = {_plain(self.eta)!r} outside [0, 1]")
        grid = tuple(float(g) for g in self.gamma_grid)
        if not grid:
            raise ParameterOutOfRange("gamma_grid must not be empty")
        for g in grid:
            if not (0.0 <= g <= 1.0):
                raise ParameterOutOfRange(f"gamma_blend = {g!r} outside [0, 1]")
        object.__setattr__(self, "gamma_grid", grid)


def _normalization(mode: str, normalization: str) -> str:
    """The stage-ii normalization that normalization names under mode:
    auto is per_expert for energy and per_channel for laplacian."""
    if normalization != "auto":
        return normalization
    return "per_expert" if mode == "energy" else "per_channel"


@dataclass(frozen=True, eq=False)
class GammaRecord:
    """Everything computed for one gamma_blend value."""

    gamma_blend: float
    scores: ScoreSet
    c_used: np.ndarray
    aggregated: HFPR
    s_plus: tuple[float, ...]
    s_minus: tuple[float, ...]
    f: tuple[float, ...]
    ranking: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Full deterministic output of one pipeline run.

    energies and laplacian_energies are read-only (l, 3) arrays, one row
    per expert in CHANNELS order, whichever mode drove the scores.
    """

    labels: tuple[str, ...]
    mode: str
    normalization: str
    eta: float
    closeness_mode: str
    convention: str
    energies: np.ndarray
    laplacian_energies: np.ndarray
    c1: np.ndarray
    similarity_degrees: tuple[float, ...] | None
    ca: np.ndarray
    records: tuple[GammaRecord, ...]
    overridden: tuple[str, ...]


def uncertainty_scores(experts, mode: str = "energy",
                       normalization: str = "auto") -> np.ndarray:
    """Stage-ii score triples from per-expert energies.

    per_expert normalization divides each expert's triple by the sum of
    its own three components; per_channel divides each channel value by
    that channel's sum across experts. auto follows the mode: energy uses
    per_expert, laplacian uses per_channel, matching the published
    case-study sections.
    """
    _check_choice("mode", mode, MODES)
    _check_choice("normalization", normalization, NORMALIZATIONS)
    measure = energies if mode == "energy" else laplacian_energies
    raw = measure(experts)
    if _normalization(mode, normalization) == "per_expert":
        denom = raw.sum(axis=1, keepdims=True)
        if np.any(denom == 0.0):
            raise ZeroDenominator("an expert's three components sum to zero")
    else:
        denom = raw.sum(axis=0, keepdims=True)
        if np.any(denom == 0.0):
            raise ZeroDenominator("a channel sums to zero across experts")
    return raw / denom


def _degrees_and_weights(experts, pairs):
    """Mean similarity degrees and their normalization, the stage-iv
    weights; pairs as similarity._resolve_pairwise returns them."""
    l = len(experts)
    if l < 2:
        raise NeedTwoExperts(f"need at least 2 relations, got {l}")
    experts = Panel.of(experts)
    degrees = tuple(_mean_degree(experts, b, pairs) for b in range(l))
    total = sum(degrees)
    if not np.isfinite(total):
        raise ParameterOutOfRange(
            f"similarity degrees sum to {total!r}, not a finite number")
    if total <= 0.0:
        raise ZeroDenominator("similarity degrees sum to zero")
    return degrees, np.array(degrees) / total


def similarity_weights(experts, pairwise=None) -> np.ndarray:
    """Stage-iv weights: normalized mean similarity degrees.

    pairwise optionally injects stage-iii values as a mapping from expert
    index pairs to positive floats, each pair once in either orientation;
    anything not injected is computed.
    """
    return _degrees_and_weights(
        experts, _resolve_pairwise(pairwise, len(experts)))[1]


def blend_scores(c1, ca, eta: float = 0.5, gamma_blend: float = 0.5,
                 convention: str = "auto") -> ScoreSet:
    """Stages v-vi: objective scores c2 and final scores c.

    See the module docstring for the vector/scalar conventions; vector
    requires exactly three experts. The score set of one gamma_blend
    value: a grid of one for _blend_grid.
    """
    return _blend_grid(c1, ca, eta, (gamma_blend,), convention)[0]


def _blend_grid(c1, ca, eta, grid, convention: str) -> tuple[ScoreSet, ...]:
    """Stages v-vi for every gamma_blend value of grid at once: c2 once,
    c as one (g, l, 3) stack, each ScoreSet invariant checked once over
    the stack. Returns one ScoreSet per grid value, in grid order."""
    if not (0.0 <= eta <= 1.0):
        raise ParameterOutOfRange(f"eta = {_plain(eta)!r} outside [0, 1]")
    for g in grid:
        if not (0.0 <= g <= 1.0):
            raise ParameterOutOfRange(
                f"gamma_blend = {_plain(g)!r} outside [0, 1]")
    _check_choice("convention", convention, CONVENTIONS)
    c1 = np.array(c1, dtype=float)
    if c1.ndim != 2 or c1.shape[1] != 3:
        raise OverrideShapeMismatch(
            f"c1 must have shape (l, 3), got {c1.shape}")
    l = c1.shape[0]
    ca = np.array(ca, dtype=float)
    if ca.shape != (l,):
        raise OverrideShapeMismatch(f"ca must have shape ({l},), got {ca.shape}")
    if convention == "auto":
        convention = "vector" if l == 3 else "scalar"
    if convention == "vector":
        if l != 3:
            raise ParameterOutOfRange(
                "vector convention reuses the weight vector as a triple "
                f"and needs exactly 3 experts, got {l}")
        ca_eff = np.tile(ca, (l, 1))
    else:
        ca_eff = np.repeat(ca[:, None], 3, axis=1)
    gammas = np.array(grid, dtype=float)[:, None, None]
    c2 = eta * c1 + (1.0 - eta) * ca_eff
    c = gammas * c1 + (1.0 - gammas) * c2

    # Each check is written so that NaN and infinities fail it.
    for name, a in (("c1", c1), ("ca_effective", ca_eff), ("c2", c2),
                    ("c", c)):
        if not -_SCORE_TOL <= a.min() <= a.max() < np.inf:
            raise ParameterOutOfRange(
                f"{name} components must be nonnegative and finite")
    if not abs(ca.sum() - 1.0) <= _SCORE_TOL:
        raise ParameterOutOfRange(f"ca must sum to 1, got {float(ca.sum())!r}")

    for a in (c1, ca, ca_eff, c2, c):
        _freeze(a)
    return tuple(ScoreSet(c1=c1, ca=ca, ca_effective=ca_eff, c2=c2, c=c[k],
                          eta=float(eta), gamma_blend=float(gammas[k, 0, 0]),
                          convention=convention)
                 for k in range(len(grid)))


def aggregate_hfpr(experts, c) -> HFPR:
    """Stage vii: channelwise weighted sum of the expert relations.

    Entry (i, j) gets mu = sum_b c[b, 0] * mu_ij of expert b, and likewise
    for gamma and beta with columns 1 and 2. The result is validated as an
    HFPR; it always passes when every weight column sums to at most 1.
    """
    experts = Panel.of(experts)
    weights = _score_matrix(c, len(experts), "c")
    vals = np.einsum("bc,bcij->ijc", weights, experts.channels)
    return make_hfpr(vals, labels=experts[0].labels)


def _aggregate_at(experts: Panel, c, gamma_blend: float) -> HFPR:
    """aggregate_hfpr within run: a weighted triple outside the valid
    range names the stage and the gamma_blend value before its own
    message, as the same TripleOutOfRange with the same (i, j)."""
    try:
        return aggregate_hfpr(experts, c)
    except TripleOutOfRange as e:
        gamma = np.format_float_positional(gamma_blend, trim="-")
        raise TripleOutOfRange(
            f"stage vii (aggregation) at gamma_blend = {gamma}: {e}",
            e.i, e.j) from None


def rank(agg: HFPR, closeness_mode: str = "relative") -> tuple:
    """Stages viii-ix: ideal similarities, closeness, and the ranking.

    Returns (s_plus, s_minus, f, ranking), the last four GammaRecord
    fields in their order: one tuple entry per alternative, and the
    alternative indices sorted by closeness descending, ties broken
    toward the lower index. The ranking of one relation: a stack of one
    for _rank_stack.
    """
    return _rank_stack(agg.values[None], closeness_mode)[0]


def _rank_stack(values: np.ndarray, closeness_mode: str) -> list[tuple]:
    """rank for each relation of a (g, n, n, 3) stack of aggregates, as
    arrays over the whole stack; one (s_plus, s_minus, f, ranking) per
    relation. Sorting by -f, stably, breaks ties toward the lower index."""
    s_plus = _ideal_rows(values, "positive")
    s_minus = _ideal_rows(values, "negative")
    f = closeness(s_plus, s_minus, closeness_mode)
    rows = zip(s_plus.tolist(), s_minus.tolist(), f.tolist(), (-f).tolist())
    return [(tuple(p), tuple(m), tuple(fk),
             tuple(sorted(range(len(fk)), key=neg.__getitem__)))
            for p, m, fk, neg in rows]


def run(experts, config: PipelineConfig | None = None) -> RankingReport:
    """Execute stages i-ix over the whole gamma_grid, deterministically.

    Overrides replace their stage's output and everything downstream is
    recomputed from the injected values.
    """
    config = config or PipelineConfig()
    experts = Panel.of(experts)
    ov = config.overrides.checked(len(experts), experts[0].n)

    energy_triples = energies(experts)
    lap_energies = laplacian_energies(experts)
    normalization = _normalization(config.mode, config.score_normalization)

    c1 = ov.c1 if ov.c1 is not None else uncertainty_scores(
        experts, config.mode, normalization)

    degrees, ca = ((None, ov.ca) if ov.ca is not None
                   else _degrees_and_weights(experts, ov.pair_similarity))

    grid = config.gamma_grid
    scores = _blend_grid(c1, ca, config.eta, grid, config.blend_convention)
    c_used = [ov.c] * len(grid) if ov.c is not None else [s.c for s in scores]
    aggs = ([ov.aggregated] * len(grid) if ov.aggregated is not None else
            [_aggregate_at(experts, c, g) for g, c in zip(grid, c_used)])
    ranked = _rank_stack(np.stack([a.values for a in aggs]),
                         config.closeness_mode)

    return RankingReport(
        labels=experts[0].labels,
        mode=config.mode,
        normalization=normalization,
        eta=config.eta,
        closeness_mode=config.closeness_mode,
        convention=scores[0].convention,
        energies=energy_triples,
        laplacian_energies=lap_energies,
        c1=scores[0].c1,
        similarity_degrees=degrees,
        ca=scores[0].ca,
        records=tuple(GammaRecord(g, s, c, agg, *r) for g, s, c, agg, r
                      in zip(grid, scores, c_used, aggs, ranked)),
        overridden=ov.stage_names(),
    )
