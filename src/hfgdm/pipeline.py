"""Nine-stage expert-weighting and alternative-ranking procedure.

Stages: (i) energy or Laplacian energy per expert; (ii) uncertainty score
triples c1; (iii) pairwise similarities; (iv) similarity weights ca;
(v) objective scores c2 = eta*c1 + (1-eta)*ca; (vi) final scores
c = gamma_blend*c1 + (1-gamma_blend)*c2; (vii) weighted aggregation into
one relation; (viii) similarities to the ideals; (ix) closeness and
ranking. A run evaluates the whole gamma_blend grid as one stack and its
report holds it that way, once, as read-only arrays with the grid on
their first axis: c2 is blended once, c for every grid value in one
(g, l, 3) expression, the aggregates stacked as (g, n, n, 3), and their
ideal similarities, closeness and rankings as (g, n) arrays. Stage vii
runs once per row of c_used, in grid order, so each refusal, a closure
failure or a weight below zero, names the first failing value: "stage
vii (aggregation) at gamma_blend = g: " before aggregate_hfpr's message. An
override of c or of the aggregate is one row for the whole grid, so the
stages after it run once and each one-row stack is broadcast over it.
The stage functions blend_scores and rank return one grid value's row
of the same stacks, as a tuple of the report's fields in their order.

Run parameters are checked once, by PipelineConfig; blend_scores checks
its own by building one. Scores are checked once where they enter, by
_scores: the shape, sign and finiteness of c1, ca and c, given or as
overrides, and of aggregate_hfpr's weights. So the stack code behind
both checks only that ca sums to 1, which needs run-time values. A
report records its run once, as config: the PipelineConfig the run
used, with auto resolved and the overrides as Overrides.checked gave
them, so run(experts, report.config) gives the same report again, bit
for bit.

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

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (HFPR, Panel, _choice, _freeze, _not_a, _one_size, _real,
                   _real_array, _sequence, make_hfpr)
from .errors import (OverrideShapeMismatch, ParameterOutOfRange,
                     ValidationError, ZeroDenominator, in_context)
from .similarity import (CLOSENESS_MODES, _ideal_rows, _mean_degree,
                         _pair_panel, _resolve_pairwise, closeness)
# energy and laplacian_energy stay importable from this module; a run
# solves every expert at once through energies and laplacian_energies.
from .spectral import energies, energy, laplacian_energies, laplacian_energy

MODES = ("energy", "laplacian")
NORMALIZATIONS = ("per_expert", "per_channel", "auto")
CONVENTIONS = ("vector", "scalar", "auto")

_SCORE_TOL = 1e-9


def _scores(name: str, x, shape: tuple) -> np.ndarray:
    """x as a float array of scores, the one rule where c1, ca, c and
    aggregation weights enter: exactly shape, every component finite and
    none below -_SCORE_TOL."""
    a = _real_array(name, x)
    if a.shape != shape:
        raise OverrideShapeMismatch(
            f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterOutOfRange(
            f"{name} components must be nonnegative and finite")
    if (a < -_SCORE_TOL).any():
        raise ParameterOutOfRange(f"{name} components must be nonnegative")
    return a


@dataclass(frozen=True)
class Overrides:
    """Optional checkpoint injections, one field per stage, in stage order.

    pair_similarity maps expert index pairs (each pair once, in either
    orientation) to the injected stage-iii values; c1, ca, c are score
    arrays; aggregated is a full replacement relation for stage vii.
    checked owns their type, shape, sign, finiteness and key rules; ca
    summing to 1 and finite similarity degrees stay with stages v and iv.
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
        aggregated relation of size n; c1, ca and c come back as read-only
        float copies and pairs as _resolve_pairwise gives them."""
        c1, ca, c = self.c1, self.ca, self.c
        if c1 is not None:
            c1 = _freeze(_scores("c1 override", c1, (l, 3)).copy())
        pairs = _resolve_pairwise(self.pair_similarity, l)
        if ca is not None:
            ca = _freeze(_scores("ca override", ca, (l,)).copy())
        if c is not None:
            c = _freeze(_scores("c override", c, (l, 3)).copy())
        if self.aggregated is not None \
                and _one_size((self.aggregated,)) != n:
            raise OverrideShapeMismatch(
                "aggregated override does not match the relation size")
        return Overrides(c1, pairs, ca, c, self.aggregated)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters; gamma_grid drives one ranking per value.

    eta and every gamma_grid value must be real numbers in [0, 1], not
    bools or strings, and are stored as floats, -0.0 as 0.0; gamma_grid
    is stored as a tuple; overrides must be an Overrides. A report's
    config is the one its run used, with auto resolved.
    """

    mode: str = "energy"
    score_normalization: str = "auto"
    eta: float = 0.5
    gamma_grid: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)
    closeness_mode: str = "relative"
    blend_convention: str = "auto"
    overrides: Overrides = field(default_factory=Overrides)

    def __post_init__(self):
        _choice("mode", self.mode, MODES)
        _choice("score_normalization", self.score_normalization,
                NORMALIZATIONS)
        _choice("closeness_mode", self.closeness_mode, CLOSENESS_MODES)
        _choice("blend_convention", self.blend_convention, CONVENTIONS)
        if not isinstance(self.overrides, Overrides):
            raise _not_a("overrides", self.overrides, "an Overrides")
        eta = _real("eta", self.eta)
        if not (0.0 <= eta <= 1.0):
            raise ParameterOutOfRange(f"eta = {eta!r} outside [0, 1]")
        grid = tuple(_real("gamma_blend", g)
                     for g in _sequence("gamma_grid", self.gamma_grid))
        if not grid:
            raise ParameterOutOfRange("gamma_grid must not be empty")
        for g in grid:
            if not (0.0 <= g <= 1.0):
                raise ParameterOutOfRange(f"gamma_blend = {g!r} outside [0, 1]")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma_grid", grid)


def _normalization(mode: str, normalization: str) -> str:
    """The stage-ii normalization that normalization names under mode:
    auto is per_expert for energy and per_channel for laplacian."""
    if normalization != "auto":
        return normalization
    return "per_expert" if mode == "energy" else "per_channel"


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Full deterministic output of one pipeline run, for l experts, n
    alternatives and the g values of config.gamma_grid.

    config is the PipelineConfig the run used, auto resolved and overrides
    checked. Every array is read-only. energies, laplacian_energies, c1,
    ca_effective and c2 are (l, 3), one row per expert in CHANNELS order,
    whichever mode drove the scores; similarity_degrees (None when ca was
    overridden) and ca are (l,). The grid's stacks have one row per
    gamma_grid value, in grid order: c, the stage-vi blend, and c_used,
    the weights stage vii aggregated with (c unless overridden), are
    (g, l, 3); aggregated is (g, n, n, 3); s_plus, s_minus and f are
    (g, n); ranking is (g, n) alternative indices, best first.
    """

    labels: tuple[str, ...]
    energies: np.ndarray
    laplacian_energies: np.ndarray
    c1: np.ndarray
    similarity_degrees: np.ndarray | None
    ca: np.ndarray
    ca_effective: np.ndarray
    c2: np.ndarray
    c: np.ndarray
    c_used: np.ndarray
    aggregated: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    f: np.ndarray
    ranking: np.ndarray
    config: PipelineConfig


def uncertainty_scores(experts, mode: str = "energy",
                       normalization: str = "auto") -> np.ndarray:
    """Stage-ii score triples from per-expert energies, a read-only
    (l, 3) array.

    per_expert normalization divides each expert's triple by the sum of
    its own three components; per_channel divides each channel value by
    that channel's sum across experts. auto follows the mode: energy uses
    per_expert, laplacian uses per_channel, matching the published
    case-study sections.
    """
    _choice("mode", mode, MODES)
    _choice("normalization", normalization, NORMALIZATIONS)
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
    return _freeze(raw / denom)


def _degrees_and_weights(experts: Panel, pairs):
    """Mean similarity degrees and their normalization, the stage-iv
    weights, as read-only (l,) arrays; experts as _pair_panel gives them
    and pairs as _resolve_pairwise does.

    No public input reaches the zero-total check. Overrides are checked
    positive and computed pairs are at least 1/n; subnormal overrides sum
    exactly, so each degree is at least its smallest pair, and l >= 2
    positive degrees have a positive total. The check stays as a guard.
    """
    degrees = tuple(_mean_degree(experts, b, pairs)
                    for b in range(len(experts)))
    total = sum(degrees)
    if not np.isfinite(total):
        raise ParameterOutOfRange(
            f"similarity degrees sum to {total!r}, not a finite number")
    if total <= 0.0:
        raise ZeroDenominator("similarity degrees sum to zero")
    degrees = np.array(degrees)
    return _freeze(degrees), _freeze(degrees / total)


def similarity_weights(experts, pairwise=None) -> np.ndarray:
    """Stage-iv weights: normalized mean similarity degrees, a read-only
    (l,) array.

    pairwise optionally injects stage-iii values as a mapping from expert
    index pairs to positive floats, each pair once in either orientation;
    anything not injected is computed.
    """
    experts = _pair_panel(experts)
    return _degrees_and_weights(
        experts, _resolve_pairwise(pairwise, len(experts)))[1]


def blend_scores(c1, ca, eta: float = 0.5, gamma_blend: float = 0.5,
                 convention: str = "auto") -> tuple:
    """Stages v-vi for one gamma_blend value.

    Returns (ca_effective, c2, c), the report's fields in their order, as
    read-only (l, 3) arrays: row 0 of _blend_grid on a grid of one. eta,
    gamma_blend and convention meet PipelineConfig's rules; c1 must be
    (l, 3) and ca (l,), both meeting _scores' rule. See the module
    docstring for the vector/scalar conventions; vector requires exactly
    three experts.
    """
    config = PipelineConfig(eta=eta, gamma_grid=(gamma_blend,),
                            blend_convention=convention)
    c1 = _real_array("c1", c1)
    if c1.ndim != 2 or c1.shape[1] != 3:
        raise OverrideShapeMismatch(
            f"c1 must have shape (l, 3), got {c1.shape}")
    c1 = _scores("c1", c1, c1.shape)
    ca = _scores("ca", ca, (len(c1),))
    _, _, ca_eff, c2, c, _ = _blend_grid(c1, ca, config)
    return ca_eff, c2, c[0]


def _blend_grid(c1: np.ndarray, ca: np.ndarray,
                config: PipelineConfig) -> tuple:
    """Stages v-vi for every gamma_blend value of a checked config at
    once, for (l, 3) scores c1 and (l,) weights ca: c2 once, c as one
    (g, l, 3) stack. c1 and ca are finite and nonnegative, having passed
    _scores or been computed so, and a convex blend of them stays so,
    within rounding; only ca summing to 1 is checked here. Returns the
    read-only arrays c1, ca, ca_effective, c2 and c, then the convention
    that auto resolved to."""
    c1, ca = np.array(c1), np.array(ca)  # copies: the caller's stay writable
    l = len(c1)
    convention = config.blend_convention
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
    gammas = np.array(config.gamma_grid)[:, None, None]
    c2 = config.eta * c1 + (1.0 - config.eta) * ca_eff
    c = gammas * c1 + (1.0 - gammas) * c2
    if not abs(ca.sum() - 1.0) <= _SCORE_TOL:
        raise ParameterOutOfRange(f"ca must sum to 1, got {float(ca.sum())!r}")

    return (*map(_freeze, (c1, ca, ca_eff, c2, c)), convention)


def aggregate_hfpr(experts, c) -> HFPR:
    """Stage vii: channelwise weighted sum of the expert relations.

    Entry (i, j) gets mu = sum_b c[b, 0] * mu_ij of expert b, and likewise
    for gamma and beta with columns 1 and 2; c is (l, 3) and meets
    _scores' rule. The result is validated as an HFPR; it always passes
    when every weight column sums to at most 1.
    """
    experts = Panel.of(experts)
    weights = _scores("c", c, (len(experts), 3))
    vals = np.einsum("bc,bcij->ijc", weights, experts.channels)
    return make_hfpr(vals, labels=experts[0].labels)


def _aggregate_at(experts: Panel, c, gamma_blend: float) -> HFPR:
    """aggregate_hfpr within run: each refusal names the stage and the
    gamma_blend value before its own message, as the same error with the
    same attributes, (i, j) among them."""
    try:
        return aggregate_hfpr(experts, c)
    except ValidationError as e:
        gamma = np.format_float_positional(gamma_blend, trim="-")
        raise in_context(
            e, f"stage vii (aggregation) at gamma_blend = {gamma}") from None


def rank(agg: HFPR, closeness_mode: str = "relative") -> tuple:
    """Stages viii-ix: ideal similarities, closeness, and the ranking.

    Returns (s_plus, s_minus, f, ranking), the report's last four stacks
    in their order, for one relation: read-only (n,) arrays, the last
    holding the alternative indices sorted by closeness descending, ties
    broken toward the lower index. Row 0 of _rank_stack on a stack of one.
    """
    _one_size((agg,))
    return tuple(a[0] for a in _rank_stack(agg.values[None], closeness_mode))


def _rank_stack(values: np.ndarray, closeness_mode: str) -> tuple:
    """rank for each relation of a (g, n, n, 3) stack of aggregates: the
    read-only (g, n) arrays s_plus, s_minus, f and ranking. Sorting by
    -f, stably, breaks ties toward the lower index."""
    s_plus = _ideal_rows(values, "positive")
    s_minus = _ideal_rows(values, "negative")
    f = closeness(s_plus, s_minus, closeness_mode)
    ranking = np.argsort(-f, axis=-1, kind="stable")
    return tuple(map(_freeze, (s_plus, s_minus, f, ranking)))


def run(experts, config: PipelineConfig | None = None) -> RankingReport:
    """Execute stages i-ix over the whole gamma_grid, deterministically.

    Overrides replace their stage's output and everything downstream is
    recomputed from the injected values: once, broadcast over the grid,
    for a c or aggregated override, which holds for every grid value.
    """
    config = PipelineConfig() if config is None else config
    if not isinstance(config, PipelineConfig):
        raise _not_a("config", config, "a PipelineConfig")
    experts = Panel.of(experts)
    ov = config.overrides.checked(len(experts), experts[0].n)

    energy_triples = energies(experts)
    lap_energies = laplacian_energies(experts)
    normalization = _normalization(config.mode, config.score_normalization)

    c1 = ov.c1 if ov.c1 is not None else uncertainty_scores(
        experts, config.mode, normalization)

    degrees, ca = ((None, ov.ca) if ov.ca is not None
                   else _degrees_and_weights(_pair_panel(experts),
                                             ov.pair_similarity))

    grid = config.gamma_grid
    c1, ca, ca_eff, c2, c, convention = _blend_grid(c1, ca, config)
    # An overridden c is one row: zip stops at the grid's first value.
    c_used = c if ov.c is None else ov.c[None]
    aggregated = (ov.aggregated.values[None] if ov.aggregated is not None
                  else _freeze(np.stack([_aggregate_at(experts, ck, g).values
                                         for g, ck in zip(grid, c_used)])))
    ranked = _rank_stack(aggregated, config.closeness_mode)
    c_used, aggregated, s_plus, s_minus, f, ranking = (
        a if len(a) == len(grid)
        else np.broadcast_to(a, (len(grid),) + a.shape[1:])
        for a in (c_used, aggregated, *ranked))

    return RankingReport(
        labels=experts[0].labels,
        energies=energy_triples,
        laplacian_energies=lap_energies,
        c1=c1,
        similarity_degrees=degrees,
        ca=ca,
        ca_effective=ca_eff,
        c2=c2,
        c=c,
        c_used=c_used,
        aggregated=aggregated,
        s_plus=s_plus,
        s_minus=s_minus,
        f=f,
        ranking=ranking,
        config=replace(config, score_normalization=normalization,
                       blend_convention=convention, overrides=ov),
    )
