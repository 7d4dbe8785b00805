"""Nine-stage expert-weighting and alternative-ranking procedure.

Stages: (i) energy or Laplacian energy per expert; (ii) uncertainty score
triples c1; (iii) pairwise similarities; (iv) similarity weights ca;
(v) objective scores c2 = eta*c1 + (1-eta)*ca; (vi) final scores
c = gamma_blend*c1 + (1-gamma_blend)*c2; (vii) weighted aggregation into
one relation; (viii) similarities to the ideals; (ix) closeness and
ranking. A run repeats stages v-ix once per gamma_blend grid value.

Checkpoint overrides can inject values at stages ii (c1), iii (pairwise
similarities), iv (ca), vi (c), and vii (the aggregated relation); every
stage downstream of an injection is recomputed from it. That makes
published intermediate values usable as inputs when they cannot be
regenerated from the raw relations.

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

from .core import HFPR, _freeze, make_hfpr
from .errors import (
    DimensionMismatch,
    NeedTwoExperts,
    OverrideShapeMismatch,
    ParameterOutOfRange,
    ZeroDenominator,
)
from .similarity import closeness, ideal_similarities, mean_similarity_degree
# energy and laplacian_energy stay importable from this module; a run
# solves every expert at once through energies and laplacian_energies.
from .spectral import (EnergyTriple, energies, energy, laplacian_energies,
                       laplacian_energy)

MODES = ("energy", "laplacian")
NORMALIZATIONS = ("per_expert", "per_channel", "auto")
CONVENTIONS = ("vector", "scalar", "auto")
CLOSENESS_MODES = ("relative", "ratio")

_SCORE_TOL = 1e-9
_BLEND_TOL = 1e-12


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
    components are nonnegative, and the two blend identities hold
    componentwise within 1e-12.
    """

    c1: np.ndarray
    ca: np.ndarray
    ca_effective: np.ndarray
    c2: np.ndarray
    c: np.ndarray
    eta: float
    gamma_blend: float
    convention: str

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        l = self.c1.shape[0]
        for name, a in (("c1", self.c1), ("ca_effective", self.ca_effective),
                        ("c2", self.c2), ("c", self.c)):
            if a.shape != (l, 3):
                raise OverrideShapeMismatch(f"{name} must have shape ({l}, 3)")
            if not a.min() >= -_SCORE_TOL:
                raise ParameterOutOfRange(f"{name} components must be nonnegative")
        if self.ca.shape != (l,):
            raise OverrideShapeMismatch(f"ca must have shape ({l},)")
        if not abs(self.ca.sum() - 1.0) <= _SCORE_TOL:
            raise ParameterOutOfRange(f"ca must sum to 1, got {self.ca.sum()!r}")
        want_c2 = self.eta * self.c1 + (1.0 - self.eta) * self.ca_effective
        if not np.max(np.abs(self.c2 - want_c2)) <= _BLEND_TOL:
            raise ParameterOutOfRange("c2 does not satisfy the blend identity")
        want_c = self.gamma_blend * self.c1 + (1.0 - self.gamma_blend) * self.c2
        if not np.max(np.abs(self.c - want_c)) <= _BLEND_TOL:
            raise ParameterOutOfRange("c does not satisfy the blend identity")
        for name in ("c1", "ca", "ca_effective", "c2", "c"):
            object.__setattr__(self, name, _freeze(getattr(self, name).copy()))


@dataclass(frozen=True)
class Overrides:
    """Optional checkpoint injections, one field per stage, in stage order.

    pair_similarity maps expert index pairs (either orientation) to the
    injected stage-iii values; c1, ca, c are score arrays; aggregated is a
    full replacement relation for stage vii.
    """

    c1: object | None = None
    pair_similarity: dict | None = None
    ca: object | None = None
    c: object | None = None
    aggregated: HFPR | None = None

    def stage_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self)
                     if getattr(self, f.name) is not None)


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
            raise ParameterOutOfRange(f"eta = {self.eta!r} outside [0, 1]")
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
class RankEntry:
    """Stage viii-ix output for one aggregated relation."""

    s_plus: tuple[float, ...]
    s_minus: tuple[float, ...]
    f: tuple[float, ...]
    ranking: tuple[int, ...]


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
    """Full deterministic output of one pipeline run."""

    labels: tuple[str, ...]
    mode: str
    normalization: str
    eta: float
    closeness_mode: str
    convention: str
    energies: tuple[EnergyTriple, ...]
    laplacian_energies: tuple[EnergyTriple, ...]
    c1: np.ndarray
    similarity_degrees: tuple[float, ...] | None
    ca: np.ndarray
    records: tuple[GammaRecord, ...]
    overridden: tuple[str, ...]


class _Checked(tuple):
    """Relations that passed _check_experts, with their values stacked
    into one read-only (l, n, n, 3) array."""

    values: np.ndarray


def _check_experts(experts) -> _Checked:
    """Nonempty and of one relation size: what every stage needs beyond
    what make_hfpr already checked of each relation, symmetry included.

    Returns the relations as a _Checked, which later stages accept
    without checking again.
    """
    if isinstance(experts, _Checked):
        return experts
    if len(experts) == 0:
        raise NeedTwoExperts("need at least 1 relation")
    ns = {h.n for h in experts}
    if len(ns) != 1:
        raise DimensionMismatch(f"mixed relation sizes {sorted(ns)}")
    checked = _Checked(experts)
    checked.values = _freeze(np.stack([h.values for h in experts]))
    return checked


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
    experts = _check_experts(experts)
    measure = energies if mode == "energy" else laplacian_energies
    raw = np.array([e.as_tuple() for e in measure(experts)])
    if _normalization(mode, normalization) == "per_expert":
        denom = raw.sum(axis=1, keepdims=True)
        if np.any(denom == 0.0):
            raise ZeroDenominator("an expert's three components sum to zero")
    else:
        denom = raw.sum(axis=0, keepdims=True)
        if np.any(denom == 0.0):
            raise ZeroDenominator("a channel sums to zero across experts")
    return raw / denom


def _degrees_and_weights(experts, pairwise):
    """Mean similarity degrees and their normalization, the stage-iv weights."""
    l = len(experts)
    if l < 2:
        raise NeedTwoExperts(f"need at least 2 relations, got {l}")
    degrees = tuple(mean_similarity_degree(experts, b, pairwise=pairwise)
                    for b in range(l))
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
    index pairs to floats; anything not injected is computed.
    """
    return _degrees_and_weights(experts, pairwise)[1]


def blend_scores(c1, ca, eta: float = 0.5, gamma_blend: float = 0.5,
                 convention: str = "auto") -> ScoreSet:
    """Stages v-vi: objective scores c2 and final scores c.

    See the module docstring for the vector/scalar conventions; vector
    requires exactly three experts.
    """
    if not (0.0 <= eta <= 1.0):
        raise ParameterOutOfRange(f"eta = {eta!r} outside [0, 1]")
    if not (0.0 <= gamma_blend <= 1.0):
        raise ParameterOutOfRange(f"gamma_blend = {gamma_blend!r} outside [0, 1]")
    _check_choice("convention", convention, CONVENTIONS)
    c1 = np.asarray(c1, dtype=float)
    if c1.ndim != 2 or c1.shape[1] != 3:
        raise OverrideShapeMismatch(
            f"c1 must have shape (l, 3), got {c1.shape}")
    l = c1.shape[0]
    ca = np.asarray(ca, dtype=float)
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
    c2 = eta * c1 + (1.0 - eta) * ca_eff
    c = gamma_blend * c1 + (1.0 - gamma_blend) * c2
    return ScoreSet(c1=c1.copy(), ca=ca.copy(), ca_effective=ca_eff, c2=c2,
                    c=c, eta=float(eta), gamma_blend=float(gamma_blend),
                    convention=convention)


def aggregate_hfpr(experts, c) -> HFPR:
    """Stage vii: channelwise weighted sum of the expert relations.

    Entry (i, j) gets mu = sum_b c[b, 0] * mu_ij of expert b, and likewise
    for gamma and beta with columns 1 and 2. The result is validated as an
    HFPR; it always passes when every weight column sums to at most 1.
    """
    experts = _check_experts(experts)
    weights = _score_matrix(c, len(experts), "c")
    vals = np.einsum("bc,bijc->ijc", weights, experts.values)
    return make_hfpr(vals, labels=experts[0].labels)


def rank(agg: HFPR, closeness_mode: str = "relative") -> RankEntry:
    """Stages viii-ix: ideal similarities, closeness, and the ranking.

    Sorts closeness descending; ties break toward the lower alternative
    index.
    """
    n = agg.n
    s_plus = tuple(ideal_similarities(agg, "positive").tolist())
    s_minus = tuple(ideal_similarities(agg, "negative").tolist())
    f = tuple(closeness(p, m, closeness_mode)
              for p, m in zip(s_plus, s_minus))
    order = tuple(sorted(range(n), key=lambda i: (-f[i], i)))
    return RankEntry(s_plus=s_plus, s_minus=s_minus, f=f, ranking=order)


def _resolve_pairwise(pairwise, l: int) -> dict:
    out = {}
    for key, val in pairwise.items():
        i, j = key
        if not (0 <= i < l and 0 <= j < l) or i == j:
            raise OverrideShapeMismatch(
                f"pair_similarity key {key!r} is not a valid expert pair")
        val = float(val)
        if not val > 0.0:
            raise ParameterOutOfRange(
                f"pair_similarity override for experts {key!r} is {val!r}; "
                "it must be positive")
        out[(int(i), int(j))] = val
    return out


def run(experts, config: PipelineConfig | None = None) -> RankingReport:
    """Execute stages i-ix once per gamma_grid value, deterministically.

    Overrides replace their stage's output and everything downstream is
    recomputed from the injected values.
    """
    config = config or PipelineConfig()
    experts = _check_experts(experts)
    l = len(experts)
    ov = config.overrides

    energy_triples = energies(experts)
    lap_energies = laplacian_energies(experts)
    normalization = _normalization(config.mode, config.score_normalization)

    if ov.c1 is not None:
        c1 = _score_matrix(ov.c1, l, "c1 override")
    else:
        c1 = uncertainty_scores(experts, config.mode, normalization)

    pairwise = None
    if ov.pair_similarity is not None:
        pairwise = _resolve_pairwise(ov.pair_similarity, l)

    degrees: tuple[float, ...] | None
    if ov.ca is not None:
        ca = np.asarray(ov.ca, dtype=float)
        if ca.shape != (l,):
            raise OverrideShapeMismatch(
                f"ca override must have shape ({l},), got {ca.shape}")
        degrees = None
    else:
        degrees, ca = _degrees_and_weights(experts, pairwise)

    if ov.aggregated is not None and ov.aggregated.n != experts[0].n:
        raise OverrideShapeMismatch(
            "aggregated override does not match the relation size")

    records = []
    for g in config.gamma_grid:
        scores = blend_scores(c1, ca, config.eta, g, config.blend_convention)
        if ov.c is not None:
            c_used = _score_matrix(ov.c, l, "c override")
        else:
            c_used = scores.c
        agg = ov.aggregated if ov.aggregated is not None \
            else aggregate_hfpr(experts, c_used)
        entry = rank(agg, config.closeness_mode)
        records.append(GammaRecord(
            gamma_blend=g, scores=scores, c_used=_freeze(np.array(c_used)),
            aggregated=agg, s_plus=entry.s_plus, s_minus=entry.s_minus,
            f=entry.f, ranking=entry.ranking))

    return RankingReport(
        labels=experts[0].labels,
        mode=config.mode,
        normalization=normalization,
        eta=config.eta,
        closeness_mode=config.closeness_mode,
        convention=records[0].scores.convention,
        energies=energy_triples,
        laplacian_energies=lap_energies,
        c1=_freeze(np.array(c1)),
        similarity_degrees=degrees,
        ca=_freeze(np.array(ca)),
        records=tuple(records),
        overridden=ov.stage_names(),
    )
