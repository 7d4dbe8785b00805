"""Stage functions and the end-to-end ranking procedure."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfgdm.cli as cli
from hfgdm import (
    AsymmetricEntry,
    DimensionMismatch,
    NeedTwoExperts,
    Overrides,
    OverrideShapeMismatch,
    Panel,
    ParameterOutOfRange,
    PipelineConfig,
    RankingReport,
    TripleOutOfRange,
    ZeroDenominator,
    aggregate_hfpr,
    blend_scores,
    energies,
    laplacian_energies,
    make_hfpr,
    mean_similarity_degree,
    pair_similarity,
    random_hfpr,
    rank,
    similarity_weights,
    uncertainty_scores,
)
from hfgdm.pipeline import MODES, _rank_stack, run

from shared import PUBLISHED_C, PUBLISHED_C2, PUBLISHED_PAIRS

PUBLISHED_C1 = [[0.3730, 0.3963, 0.2307],
                [0.2808, 0.5357, 0.1835],
                [0.2991, 0.3703, 0.3306]]
PUBLISHED_CA = [0.3274, 0.3392, 0.3334]


def uniform_relation(n, triple):
    a = np.zeros((n, n, 3))
    for i in range(n):
        for j in range(n):
            if i != j:
                a[i, j] = triple
    return make_hfpr(a)


class TestUncertaintyScores:
    def test_energy_per_expert_published_rows(self, experts):
        got = uncertainty_scores(experts, "energy", "per_expert")
        assert np.allclose(got[0], (0.3730, 0.3963, 0.2307), atol=1e-3)
        assert np.allclose(got[1], (0.2808, 0.5357, 0.1835), atol=1e-3)
        assert np.allclose(got[2], (0.2991, 0.3703, 0.3306), atol=1e-3)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_laplacian_per_channel_membership_column(self, experts):
        got = uncertainty_scores(experts, "laplacian", "per_channel")
        # membership column: 2.1/5.5, 1.8/5.5, 1.6/5.5
        assert np.allclose(got[:, 0], (2.1 / 5.5, 1.8 / 5.5, 1.6 / 5.5),
                           atol=1e-9)
        assert got[0, 0] == pytest.approx(0.3818, abs=1e-3)
        # full first row from the computed Laplacian energies
        assert np.allclose(got[0], (2.1 / 5.5, 2.2 / 6.9, 1.3 / 4.7),
                           atol=1e-9)
        assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)

    def test_auto_follows_mode(self, experts):
        assert np.array_equal(
            uncertainty_scores(experts, "energy", "auto"),
            uncertainty_scores(experts, "energy", "per_expert"))
        assert np.array_equal(
            uncertainty_scores(experts, "laplacian", "auto"),
            uncertainty_scores(experts, "laplacian", "per_channel"))

    def test_single_expert_per_channel_is_ones(self, m1):
        assert np.allclose(uncertainty_scores((m1,), "energy", "per_channel"),
                           [[1.0, 1.0, 1.0]], atol=1e-12)

    def test_zero_denominators(self, m1):
        zero = make_hfpr(np.zeros((4, 4, 3)))
        with pytest.raises(ZeroDenominator):
            uncertainty_scores((zero,), "energy", "per_expert")
        with pytest.raises(ZeroDenominator):
            uncertainty_scores((zero, zero), "energy", "per_channel")

    def test_parameter_validation(self, experts):
        with pytest.raises(ParameterOutOfRange):
            uncertainty_scores(experts, "spectral", "auto")
        with pytest.raises(ParameterOutOfRange):
            uncertainty_scores(experts, "energy", "rowwise")


class TestSimilarityWeights:
    def test_published_pairwise_injection(self, experts):
        got = similarity_weights(experts, pairwise=PUBLISHED_PAIRS)
        assert np.allclose(got, PUBLISHED_CA, atol=1e-3)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_computed_from_fixtures(self, experts):
        got = similarity_weights(experts)
        assert np.allclose(got, (0.3384, 0.3343, 0.3273), atol=1e-3)

    def test_identical_experts_uniform(self, m1):
        assert np.allclose(similarity_weights((m1, m1, m1)), [1 / 3] * 3,
                           atol=1e-12)

    def test_needs_two(self, m1):
        with pytest.raises(NeedTwoExperts):
            similarity_weights((m1,))


class TestBlendScores:
    def test_published_c2_first_row(self):
        ca_eff, c2, _ = blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=0.5,
                                     gamma_blend=0.5)
        assert np.array_equal(ca_eff, np.tile(PUBLISHED_CA, (3, 1)))
        assert np.allclose(c2[0], (0.3502, 0.3678, 0.2821), atol=1e-3)

    def test_published_c_first_row(self):
        _, _, c = blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=0.5,
                               gamma_blend=0.5)
        assert np.allclose(c[0], (0.3616, 0.3821, 0.2564), atol=1e-3)

    def test_eta_one_gamma_one_returns_c1(self):
        _, c2, c = blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=1.0,
                                gamma_blend=1.0)
        assert np.array_equal(c, np.asarray(PUBLISHED_C1))
        assert np.array_equal(c2, np.asarray(PUBLISHED_C1))

    def test_degenerate_blend_identities(self):
        c1 = np.asarray(PUBLISHED_C1)
        _, c2, _ = blend_scores(c1, PUBLISHED_CA, eta=1.0, gamma_blend=0.3)
        assert np.max(np.abs(c2 - c1)) < 1e-15
        _, c2, c = blend_scores(c1, PUBLISHED_CA, eta=0.4, gamma_blend=0.0)
        assert np.max(np.abs(c - c2)) < 1e-15
        _, _, c = blend_scores(c1, PUBLISHED_CA, eta=0.4, gamma_blend=1.0)
        assert np.max(np.abs(c - c1)) < 1e-15

    def test_vector_convention_shares_the_weight_vector(self):
        ca_eff, _, c = blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=0.5,
                                    gamma_blend=0.0, convention="vector")
        for b in range(3):
            assert np.allclose(ca_eff[b], PUBLISHED_CA, atol=1e-15)
            assert np.allclose(
                c[b], 0.5 * np.asarray(PUBLISHED_C1[b])
                + 0.5 * np.asarray(PUBLISHED_CA), atol=1e-15)

    def test_scalar_convention_broadcasts_own_weight(self):
        ca_eff, _, _ = blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=0.5,
                                    gamma_blend=0.0, convention="scalar")
        for b in range(3):
            assert np.allclose(ca_eff[b], [PUBLISHED_CA[b]] * 3, atol=1e-15)

    def test_auto_convention_by_expert_count(self):
        two_c1 = [[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]]
        ca_eff, _, _ = blend_scores(two_c1, [0.6, 0.4])
        assert ca_eff.tolist() == [[0.6] * 3, [0.4] * 3]
        for convention in ("scalar", "vector"):
            want = blend_scores(PUBLISHED_C1, PUBLISHED_CA,
                                convention=convention)[0]
            got = blend_scores(PUBLISHED_C1, PUBLISHED_CA)[0]
            assert np.array_equal(got, want) == (convention == "vector")

    def test_vector_requires_three_experts(self):
        with pytest.raises(ParameterOutOfRange):
            blend_scores([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]], [0.6, 0.4],
                         convention="vector")

    def test_parameter_and_shape_validation(self):
        with pytest.raises(ParameterOutOfRange):
            blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=1.5)
        with pytest.raises(ParameterOutOfRange):
            blend_scores(PUBLISHED_C1, PUBLISHED_CA, gamma_blend=-0.1)
        with pytest.raises(OverrideShapeMismatch):
            blend_scores([[0.5, 0.5]], [1.0])
        with pytest.raises(OverrideShapeMismatch):
            blend_scores(PUBLISHED_C1, [0.5, 0.5])

    def test_parameters_meet_pipeline_config_rules(self):
        # blend_scores checks eta, gamma_blend and convention by building
        # a PipelineConfig, so each refusal is that config's own.
        for kwargs, config in (
                ({"eta": -0.5}, {"eta": -0.5}),
                ({"gamma_blend": 2.0}, {"gamma_grid": (2.0,)}),
                ({"convention": "mixed"}, {"blend_convention": "mixed"})):
            with pytest.raises(ParameterOutOfRange) as blended:
                blend_scores(PUBLISHED_C1, PUBLISHED_CA, **kwargs)
            with pytest.raises(ParameterOutOfRange) as configured:
                PipelineConfig(**config)
            assert str(blended.value) == str(configured.value)

    def test_scoreset_arrays_frozen(self):
        for a in blend_scores(PUBLISHED_C1, PUBLISHED_CA):
            assert a.shape == (3, 3)
            with pytest.raises(ValueError):
                a[0, 0] = 9.9


class TestAggregateHfpr:
    def test_published_entries(self, experts):
        agg = aggregate_hfpr(experts, PUBLISHED_C)
        assert np.allclose(agg.values[0, 1], (0.2936, 0.4285, 0.2532),
                           atol=1e-3)
        assert np.allclose(agg.values[0, 2], (0.3535, 0.4057, 0.1425),
                           atol=1e-3)
        assert agg.labels == experts[0].labels

    def test_one_hot_weights_select_expert(self, experts):
        w = [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
        agg = aggregate_hfpr(experts, w)
        assert np.array_equal(agg.values, experts[1].values)

    def test_closure_under_shared_convex_weights(self):
        # One scalar weight per expert, shared across channels, summing to
        # at most 1: the aggregate triple sums can never exceed 1 and the
        # result always validates.
        rng = np.random.default_rng(17)
        for _ in range(10):
            experts = tuple(random_hfpr(4, rng) for _ in range(3))
            w = rng.uniform(0, 1, 3)
            w = w / w.sum()
            agg = aggregate_hfpr(experts, np.repeat(w[:, None], 3, axis=1))
            assert agg.values.sum(axis=2).max() <= 1.0 + 1e-9

    def test_channelwise_weights_can_break_closure(self):
        # Per-channel column-stochastic weights do NOT guarantee the
        # aggregate stays a valid relation; the constructor error
        # propagates.  (Each expert alone is valid; the one-hot channel
        # mix picks the largest component of each.)
        top = uniform_relation(3, (0.9, 0.05, 0.05))
        mid = uniform_relation(3, (0.05, 0.9, 0.05))
        bot = uniform_relation(3, (0.05, 0.05, 0.9))
        one_hot = np.eye(3)
        with pytest.raises(TripleOutOfRange):
            aggregate_hfpr((top, mid, bot), one_hot)

    def test_validation_error_when_weights_too_large(self):
        h = uniform_relation(3, (0.5, 0.3, 0.1))
        with pytest.raises(TripleOutOfRange):
            aggregate_hfpr((h, h), np.ones((2, 3)))

    def test_rejects_asymmetric_relation(self):
        # No asymmetric relation reaches aggregate_hfpr: make_hfpr, the
        # only way to build one, refuses it.
        a = np.zeros((2, 2, 3))
        a[0, 1] = (0.2, 0.2, 0.2)
        a[1, 0] = (0.4, 0.2, 0.2)
        with pytest.raises(AsymmetricEntry):
            make_hfpr(a)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           l=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_channel_contraction_matches_the_triple_one(self, seed, n, l):
        # aggregate_hfpr contracts the Panel's channels stack; the old
        # contraction over the (l, n, n, 3) triples gives the same bits.
        rng = np.random.default_rng(seed)
        rels = [random_hfpr(n, rng) for _ in range(l)]
        w = rng.uniform(0.0, 1.0, l)
        w = np.repeat((w / w.sum())[:, None], 3, axis=1)
        want = np.einsum("bc,bijc->ijc", w,
                         np.stack([h.values for h in rels]))
        assert aggregate_hfpr(rels, w).values.tobytes() == want.tobytes()

    def test_negative_weights_rejected(self, experts):
        w = np.full((3, 3), 1 / 3)
        w[0, 0] = -0.1
        with pytest.raises(ParameterOutOfRange):
            aggregate_hfpr(experts, w)


class TestRank:
    def test_published_ratio_scores(self, experts):
        agg = aggregate_hfpr(experts, PUBLISHED_C)
        s_plus, s_minus, f, ranking = rank(agg, "ratio")
        assert f[0] == pytest.approx(0.7034, abs=1e-3)
        assert f[2] == pytest.approx(0.6040, abs=1e-3)
        assert ranking.tolist() == [0, 1, 3, 2]  # t1 > t2 > t4 > t3
        assert s_plus[0] == pytest.approx(0.3567, abs=1e-3)
        assert s_minus[0] == pytest.approx(0.5071, abs=1e-3)

    def test_relative_mode_same_ranking(self, experts):
        agg = aggregate_hfpr(experts, PUBLISHED_C)
        assert np.array_equal(rank(agg, "relative")[3], rank(agg, "ratio")[3])

    def test_exact_tie_breaks_by_index(self):
        _, _, f, ranking = rank(uniform_relation(2, (0.3, 0.3, 0.2)))
        assert f[0] == f[1]
        assert ranking.tolist() == [0, 1]

    def test_ranking_consistent_with_sort_key(self):
        _, _, f, ranking = rank(uniform_relation(4, (0.3, 0.3, 0.2)))
        assert np.allclose(f, f[0], atol=1e-12)
        expected = sorted(range(4), key=lambda i: (-f[i], i))
        assert ranking.tolist() == expected

    @pytest.mark.parametrize("mode", ["relative", "ratio"])
    def test_rank_of_each_aggregate_is_its_row_of_the_stacks(self, experts,
                                                             mode):
        # rank's tuple is the report's last four stacks, in their order,
        # for one relation.
        report = run(experts, PipelineConfig(closeness_mode=mode))
        names = [f.name for f in dataclasses.fields(RankingReport)][-5:-1]
        assert names == ["s_plus", "s_minus", "f", "ranking"]
        for k in range(len(report.gamma_grid)):
            agg = aggregate_hfpr(experts, report.c_used[k])
            assert agg.values.tobytes() == report.aggregated[k].tobytes()
            got = rank(agg, mode)
            for name, a in zip(names, got):
                row = getattr(report, name)[k]
                assert a.dtype == row.dtype and a.tobytes() == row.tobytes()


def tied_stack(seed, g, n, patterns):
    """A (g, n, n, 3) stack whose rows each copy one of a few row
    patterns, so rows that share a pattern tie exactly in f."""
    rng = np.random.default_rng(seed)
    pool = rng.choice([0.0, 0.25, 0.5], size=(g, patterns, n, 3))
    pick = rng.integers(0, patterns, size=(g, n))
    return pool[np.arange(g)[:, None], pick]


@given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 5),
       n=st.integers(1, 8), patterns=st.integers(1, 3),
       mode=st.sampled_from(["relative", "ratio"]))
@settings(max_examples=80, deadline=None)
def test_rank_stack_sorts_by_closeness_then_index(seed, g, n, patterns, mode):
    s_plus, s_minus, f, ranking = _rank_stack(
        tied_stack(seed, g, n, patterns), mode)
    assert ranking.shape == f.shape == (g, n)
    for fk, rk in zip(f.tolist(), ranking.tolist()):
        assert rk == sorted(range(n), key=lambda i: (-fk[i], i))


class TestRun:
    def test_override_run_all_rankings(self, experts):
        cfg = PipelineConfig(
            overrides=Overrides(pair_similarity=PUBLISHED_PAIRS))
        rep = run(experts, cfg)
        assert rep.normalization == "per_expert"
        assert rep.convention == "vector"
        assert rep.overridden == ("pair_similarity",)
        assert np.allclose(rep.ca, PUBLISHED_CA, atol=1e-3)
        assert rep.ranking.tolist() == [[0, 1, 3, 2]] * 5

    def test_gamma_zero_equals_published_table_row(self, experts):
        # At gamma_blend = 0 the final scores equal the objective scores;
        # injecting the published intermediate table reproduces the
        # published closeness row.
        cfg = PipelineConfig(
            gamma_grid=(0.0,),
            overrides=Overrides(pair_similarity=PUBLISHED_PAIRS,
                                c=PUBLISHED_C2))
        rep = run(experts, cfg)
        assert np.allclose(rep.f[0], (0.4276, 0.4098, 0.3900, 0.3934),
                           atol=1e-3)
        assert rep.ranking[0].tolist() == [0, 1, 3, 2]

    def test_laplacian_mode_published_row(self, experts):
        cfg = PipelineConfig(
            mode="laplacian", gamma_grid=(1.0,),
            overrides=Overrides(pair_similarity=PUBLISHED_PAIRS))
        rep = run(experts, cfg)
        assert rep.normalization == "per_channel"
        assert np.allclose(rep.f[0], (0.4532, 0.4376, 0.4142, 0.4203),
                           atol=2e-3)
        assert rep.ranking[0].tolist() == [0, 1, 3, 2]

    def test_honest_run_frozen_values(self, experts):
        rep = run(experts, PipelineConfig())
        assert rep.overridden == ()
        assert np.allclose(rep.similarity_degrees,
                           (0.8503, 0.8400, 0.8225), atol=1e-4)
        assert np.allclose(rep.ca, (0.3384, 0.3343, 0.3273), atol=1e-4)
        assert rep.gamma_grid[-1] == 1.0
        assert np.allclose(
            rep.f[-1],
            (0.3937466646043222, 0.3753998147348667,
             0.35855233549483884, 0.3620202680335579), atol=1e-12)
        assert rep.ranking.tolist() == [[0, 1, 3, 2]] * 5

    def test_stage_vi_injection_reproduces_published_chain(self, experts):
        cfg = PipelineConfig(
            gamma_grid=(0.5,), closeness_mode="ratio",
            overrides=Overrides(pair_similarity=PUBLISHED_PAIRS,
                                c=PUBLISHED_C))
        rep = run(experts, cfg)
        assert np.allclose(rep.c_used[0], PUBLISHED_C, atol=1e-15)
        assert np.allclose(rep.aggregated[0, 0, 1],
                           (0.2936, 0.4285, 0.2532), atol=1e-3)
        assert rep.s_plus[0, 0] == pytest.approx(0.3567, abs=1e-3)
        assert rep.s_minus[0, 0] == pytest.approx(0.5071, abs=1e-3)
        assert rep.f[0, 0] == pytest.approx(0.7034, abs=1e-3)
        assert rep.f[0, 2] == pytest.approx(0.6040, abs=1e-3)
        # c itself stays honest: it reports the blend, not the injected
        # values
        assert not np.allclose(rep.c[0], rep.c_used[0], atol=1e-6)

    def test_closeness_modes_rank_identically_across_grid(self, experts):
        base = dict(overrides=Overrides(pair_similarity=PUBLISHED_PAIRS))
        rel = run(experts, PipelineConfig(closeness_mode="relative", **base))
        rat = run(experts, PipelineConfig(closeness_mode="ratio", **base))
        assert np.array_equal(rel.ranking, rat.ranking)

    def test_permutation_equivariance(self, experts):
        perm = [3, 0, 2, 1]
        permuted = tuple(
            make_hfpr(h.values[np.ix_(perm, perm)],
                      labels=[h.labels[p] for p in perm])
            for h in experts)
        rep = run(experts, PipelineConfig(gamma_grid=(0.5,)))
        prep = run(permuted, PipelineConfig(gamma_grid=(0.5,)))
        assert np.allclose(prep.f[0], rep.f[0][perm], atol=1e-12)
        # ranking permutes consistently: labels in ranked order agree
        ranked0 = [rep.labels[i] for i in rep.ranking[0]]
        ranked1 = [prep.labels[i] for i in prep.ranking[0]]
        assert ranked0 == ranked1

    def test_per_channel_scalar_weight_columns_stay_stochastic(self):
        # per_channel scores have unit column sums; blending them with a
        # broadcast scalar weight vector that also sums to 1 keeps every
        # channel column of the final weights summing to exactly 1.
        rng = np.random.default_rng(23)
        for _ in range(5):
            experts = tuple(random_hfpr(4, rng) for _ in range(4))
            c1 = uncertainty_scores(experts, "energy", "per_channel")
            ca = similarity_weights(experts)
            for g in (0.0, 0.4, 1.0):
                _, c2, c = blend_scores(c1, ca, eta=0.7, gamma_blend=g,
                                        convention="scalar")
                assert np.allclose(c.sum(axis=0), 1.0, atol=1e-12)
                assert np.allclose(c2.sum(axis=0), 1.0, atol=1e-12)

    def test_aggregated_override_short_circuits(self, experts, m2):
        cfg = PipelineConfig(gamma_grid=(0.0, 1.0),
                             overrides=Overrides(aggregated=m2))
        rep = run(experts, cfg)
        assert np.shares_memory(rep.aggregated, m2.values)
        for agg in rep.aggregated:
            assert agg.tobytes() == m2.values.tobytes()
        assert np.array_equal(rep.f[0], rep.f[1])

    def test_overflowing_pair_override_is_rejected(self, experts, m2):
        # The degrees overflow to inf and ca = inf / inf is NaN. With the
        # aggregate injected nothing downstream would trip over it, so the
        # score invariants themselves must fail on NaN.
        huge = {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308}
        cfg = PipelineConfig(overrides=Overrides(pair_similarity=huge,
                                                 aggregated=m2))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ParameterOutOfRange):
            run(experts, cfg)

    @pytest.mark.parametrize("value", [-0.5, 0.0, float("nan")])
    def test_non_positive_pair_override_is_rejected(self, experts, value):
        pairs = dict(PUBLISHED_PAIRS)
        pairs[(1, 2)] = value
        cfg = PipelineConfig(overrides=Overrides(pair_similarity=pairs))
        with pytest.raises(ParameterOutOfRange, match=r"\(1, 2\) is"):
            run(experts, cfg)

    def test_stage_names_follow_stage_order(self, m2):
        ov = Overrides(aggregated=m2, c=[[1, 0, 0]], ca=[1.0],
                       pair_similarity={}, c1=[[1, 0, 0]])
        assert ov.stage_names() == ("c1", "pair_similarity", "ca", "c",
                                    "aggregated")
        assert Overrides(ca=[1.0]).stage_names() == ("ca",)

    def test_override_shape_errors(self, experts):
        with pytest.raises(OverrideShapeMismatch):
            run(experts, PipelineConfig(overrides=Overrides(ca=[0.5, 0.5])))
        with pytest.raises(OverrideShapeMismatch):
            run(experts, PipelineConfig(
                overrides=Overrides(c1=[[0.3, 0.3, 0.3]] * 4)))
        with pytest.raises(OverrideShapeMismatch):
            run(experts, PipelineConfig(
                overrides=Overrides(pair_similarity={(0, 3): 1.0})))
        with pytest.raises(OverrideShapeMismatch):
            run(experts, PipelineConfig(
                overrides=Overrides(pair_similarity={(1, 1): 1.0})))

    def test_pair_override_in_both_orientations_is_rejected(self, experts):
        # The measure is symmetric, so one pair cannot carry two values;
        # accepted, each expert of the pair would read another.
        pairs = {(0, 1): 0.5, (1, 0): 0.9, (0, 2): 0.8, (1, 2): 0.8}
        with pytest.raises(OverrideShapeMismatch,
                           match=r"\(1, 0\) in both orientations"):
            run(experts, PipelineConfig(
                overrides=Overrides(pair_similarity=pairs)))
        same = {(0, 1): 0.9, (1, 0): 0.9}
        with pytest.raises(OverrideShapeMismatch, match="both orientations"):
            run(experts, PipelineConfig(
                overrides=Overrides(pair_similarity=same)))

    def test_pair_override_in_reversed_orientation_alone_is_accepted(
            self, experts):
        forward = run(experts, PipelineConfig(
            overrides=Overrides(pair_similarity=PUBLISHED_PAIRS)))
        reversed_pairs = {(j, i): v for (i, j), v in PUBLISHED_PAIRS.items()}
        backward = run(experts, PipelineConfig(
            overrides=Overrides(pair_similarity=reversed_pairs)))
        assert np.array_equal(backward.similarity_degrees,
                              forward.similarity_degrees)
        assert np.array_equal(backward.ca, forward.ca)

    def test_config_validation(self):
        with pytest.raises(ParameterOutOfRange):
            PipelineConfig(mode="hybrid")
        with pytest.raises(ParameterOutOfRange):
            PipelineConfig(eta=-0.2)
        with pytest.raises(ParameterOutOfRange):
            PipelineConfig(gamma_grid=(0.5, 1.2))
        with pytest.raises(ParameterOutOfRange):
            PipelineConfig(gamma_grid=())
        with pytest.raises(ParameterOutOfRange):
            PipelineConfig(closeness_mode="harmonic")

    def test_experts_checked_once_per_run(self, experts, monkeypatch):
        # run builds one Panel of the relations, the only check and stack,
        # and hands it to every stage; a Panel passed in is used as is.
        built = []
        init = Panel.__init__

        def counted(self, *fields):
            built.append(fields[0])
            init(self, *fields)
        monkeypatch.setattr(Panel, "__init__", counted)
        panel = Panel.of(experts)
        for mode in ("energy", "laplacian"):
            built.clear()
            run(experts, PipelineConfig(mode=mode))
            assert built == [tuple(experts)]
            built.clear()
            run(panel, PipelineConfig(mode=mode))
            assert built == []

    def test_public_stages_check_their_own_input(self, experts):
        from hfgdm import DimensionMismatch
        small = make_hfpr(np.zeros((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            uncertainty_scores((experts[0], small))
        with pytest.raises(DimensionMismatch):
            aggregate_hfpr((experts[0], small), np.full((2, 3), 0.5))
        with pytest.raises(NeedTwoExperts):
            aggregate_hfpr((), np.zeros((0, 3)))

    def test_rejects_asymmetric_and_mixed_sizes(self, experts):
        a = np.zeros((4, 4, 3))
        a[0, 1] = (0.2, 0.2, 0.2)
        a[1, 0] = (0.3, 0.2, 0.2)
        with pytest.raises(AsymmetricEntry):  # so it never reaches run
            make_hfpr(a)
        small = make_hfpr(np.zeros((2, 2, 3)))
        from hfgdm import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            run((experts[0], small), PipelineConfig())


# -- one check of the relations for every entry point -----------------------

# Every function that takes a group of relations, with any other argument
# it needs fixed. All reach Panel.of, the one check.
ENTRY_POINTS = {
    "energies": energies,
    "laplacian_energies": laplacian_energies,
    "uncertainty_scores": uncertainty_scores,
    "similarity_weights": similarity_weights,
    "mean_similarity_degree": lambda rels: mean_similarity_degree(rels, 0),
    "aggregate_hfpr": lambda rels: aggregate_hfpr(
        rels, np.full((len(rels), 3), 1.0 / max(len(rels), 1))),
    "run": run,
}
# pair_similarity takes a pair, so it sees only the first two relations.
PAIR_ENTRY_POINTS = dict(
    ENTRY_POINTS, pair_similarity=lambda rels: pair_similarity(*rels[:2]))
# These need a pair before they need one size.
NEED_TWO = {"similarity_weights", "mean_similarity_degree"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_mixed_sizes_raise_one_error_everywhere(experts, name):
    five = random_hfpr(5, np.random.default_rng(0))
    for rels in ((experts[0], five), (five, experts[1], five)):
        with pytest.raises(DimensionMismatch) as info:
            ENTRY_POINTS[name](rels)
        assert str(info.value) == "mixed relation sizes [4, 5]"


@pytest.mark.parametrize("name", sorted(PAIR_ENTRY_POINTS))
def test_mixed_labels_raise_one_error_everywhere(experts, name):
    # Every aggregate and report is labelled by the first relation, so a
    # group with another set of labels is refused, not relabelled.
    relabelled = make_hfpr(experts[1].values, labels=("a", "b", "c", "d"))
    with pytest.raises(DimensionMismatch) as info:
        PAIR_ENTRY_POINTS[name]((experts[0], relabelled, experts[2]))
    assert str(info.value) == (
        "relation 1 is labelled ('a', 'b', 'c', 'd'), but relation 0 is "
        "labelled ('t1', 't2', 't3', 't4')")


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_no_relations_raise_need_two_experts(name):
    with pytest.raises(NeedTwoExperts) as info:
        ENTRY_POINTS[name](())
    assert str(info.value) == ("need at least 2 relations, got 0"
                               if name in NEED_TWO
                               else "need at least 1 relation")


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       l=st.integers(2, 5), mode=st.sampled_from(MODES))
@settings(max_examples=40, deadline=None)
def test_panel_and_tuple_give_the_same_bytes(seed, n, l, mode):
    # Shared weights 1/l keep every aggregate closed.
    rng = np.random.default_rng(seed)
    rels = tuple(random_hfpr(n, rng) for _ in range(l))
    panel = Panel.of(rels)
    for kind in (energies, laplacian_energies):
        assert kind(panel).tobytes() == kind(rels).tobytes()
    config = PipelineConfig(
        mode=mode, overrides=Overrides(c=np.full((l, 3), 1.0 / l)))
    texts = []
    for experts in (rels, panel):
        doc = cli.InputDocument(
            alternatives=rels[0].labels,
            expert_ids=tuple(f"e{k + 1}" for k in range(l)),
            experts=experts, config=config, published=None)
        texts.append(cli._emit_json(cli._report_json(doc, run(experts,
                                                              config))))
    assert texts[0] == texts[1]


# -- the gamma grid as one stack ------------------------------------------

def reference_records(experts, config, report):
    """Stages v-ix one gamma_blend value at a time, each with scalar
    Python arithmetic where it can, from the report's own c1 and ca: the
    per-gamma loop the stacked run replaced. Returns one tuple of fields
    per grid value."""
    from hfgdm.similarity import ideal_similarities
    ov = config.overrides
    c1, ca = np.array(report.c1), np.array(report.ca)
    l = len(experts)
    if report.convention == "vector":
        ca_eff = np.tile(ca, (l, 1))
    else:
        ca_eff = np.repeat(ca[:, None], 3, axis=1)
    out = []
    for g in config.gamma_grid:
        c2 = config.eta * c1 + (1.0 - config.eta) * ca_eff
        c = g * c1 + (1.0 - g) * c2
        c_used = c if ov.c is None else np.asarray(ov.c, dtype=float)
        agg = ov.aggregated if ov.aggregated is not None \
            else aggregate_hfpr(experts, c_used)
        s_plus = tuple(ideal_similarities(agg, "positive").tolist())
        s_minus = tuple(ideal_similarities(agg, "negative").tolist())
        if config.closeness_mode == "relative":
            f = tuple(p / (p + m) for p, m in zip(s_plus, s_minus))
        else:
            f = tuple(p / m for p, m in zip(s_plus, s_minus))
        ranking = tuple(sorted(range(agg.n), key=lambda i: (-f[i], i)))
        out.append((g, c1, ca, ca_eff, c2, c, c_used, agg.values,
                    s_plus, s_minus, f, ranking))
    return out


def stacked_records(report):
    """The report's stacks read back one grid value at a time, in the
    order of reference_records' tuples."""
    return [(g, report.c1, report.ca, report.ca_effective, report.c2,
             report.c[k], report.c_used[k], report.aggregated[k],
             report.s_plus[k], report.s_minus[k], report.f[k],
             tuple(report.ranking[k].tolist()))
            for k, g in enumerate(report.gamma_grid)]


def hexes(value):
    if isinstance(value, tuple) and value and isinstance(value[0], int):
        return value  # a ranking
    return [float(x).hex() for x in np.ravel(value)]


def assert_stack_matches_reference(experts, config):
    report = run(experts, config)
    got, want = stacked_records(report), reference_records(
        experts, config, report)
    assert len(got) == len(want) == len(config.gamma_grid)
    for g, w in zip(got, want):
        assert [hexes(x) for x in g] == [hexes(x) for x in w]
    return report


def closed_scores(rng, l):
    """c1 rows (w, w, w) whose w sum to 1: with the scalar convention every
    blend stays a convex mix of the relations, so aggregation closes."""
    w = rng.uniform(0.1, 1.0, l)
    return np.repeat((w / w.sum())[:, None], 3, axis=1)


class TestStackedGrid:
    @pytest.mark.parametrize("mode", ["relative", "ratio"])
    @pytest.mark.parametrize("laplacian", [False, True])
    def test_case_study_both_conventions(self, experts, mode, laplacian):
        for convention in ("vector", "scalar"):
            assert_stack_matches_reference(experts, PipelineConfig(
                mode="laplacian" if laplacian else "energy",
                closeness_mode=mode, blend_convention=convention))

    @pytest.mark.parametrize("grid", [(0.5,), (0.3, 0.3, 1.0, 0.3),
                                      (1.0, 0.0)])
    def test_one_value_and_repeated_values(self, experts, grid):
        report = assert_stack_matches_reference(
            experts, PipelineConfig(gamma_grid=grid))
        assert report.gamma_grid == grid

    def test_every_override(self, experts, m2):
        for ov in (Overrides(c1=PUBLISHED_C1),
                   Overrides(ca=PUBLISHED_CA),
                   Overrides(pair_similarity=PUBLISHED_PAIRS, c=PUBLISHED_C),
                   Overrides(aggregated=m2),
                   Overrides(c1=PUBLISHED_C1, ca=PUBLISHED_CA, c=PUBLISHED_C,
                             aggregated=m2)):
            for mode in ("relative", "ratio"):
                assert_stack_matches_reference(experts, PipelineConfig(
                    closeness_mode=mode, overrides=ov))

    def test_exact_ties_rank_by_index(self):
        experts = tuple(uniform_relation(5, t) for t in (
            (0.3, 0.3, 0.2), (0.1, 0.5, 0.2), (0.4, 0.2, 0.1)))
        report = assert_stack_matches_reference(
            experts, PipelineConfig(gamma_grid=(0.0, 0.5, 1.0)))
        for f, ranking in zip(report.f, report.ranking):
            assert len(set(f.tolist())) == 1
            assert ranking.tolist() == [0, 1, 2, 3, 4]

    def test_random_relations_up_to_n40_l12(self):
        rng = np.random.default_rng(2024)
        for n, l in [(2, 2), (3, 5), (8, 3), (17, 12), (40, 4), (40, 12)]:
            experts = tuple(random_hfpr(n, rng) for _ in range(l))
            grid = tuple(np.round(rng.uniform(0, 1, rng.integers(1, 7)), 3))
            for mode in ("relative", "ratio"):
                assert_stack_matches_reference(experts, PipelineConfig(
                    gamma_grid=grid, eta=float(rng.uniform()),
                    closeness_mode=mode, blend_convention="scalar",
                    overrides=Overrides(c1=closed_scores(rng, l))))
            shared = np.repeat(np.full((l, 1), 1.0 / l), 3, axis=1)
            assert_stack_matches_reference(experts, PipelineConfig(
                gamma_grid=grid, overrides=Overrides(c=shared)))

    def test_every_numeric_report_field_is_read_only(self, experts, m2):
        arrays = {"energies", "laplacian_energies", "c1",
                  "similarity_degrees", "ca", "ca_effective", "c2", "c",
                  "c_used", "aggregated", "s_plus", "s_minus", "f",
                  "ranking"}
        for ov in (Overrides(), Overrides(c=PUBLISHED_C),
                   Overrides(ca=PUBLISHED_CA, aggregated=m2)):
            report = run(experts, PipelineConfig(overrides=ov))
            got = {f.name for f in dataclasses.fields(report)
                   if isinstance(getattr(report, f.name), np.ndarray)}
            assert got == arrays - ({"similarity_degrees"}
                                    if ov.ca is not None else set())
            for name in got:
                assert not getattr(report, name).flags.writeable, name
            if ov.c is None:  # the blend is what stage vii read
                assert report.c_used is report.c

    def test_closure_failure_names_the_first_failing_gamma(self):
        # eta = 0 makes c2 the shared weights 1/3, which close; c1 one-hot
        # by channel does not. So gamma 0 closes, and 0.5 is the first
        # value to fail, with a triple sum of its own.
        top = uniform_relation(3, (0.9, 0.05, 0.05))
        mid = uniform_relation(3, (0.05, 0.9, 0.05))
        bot = uniform_relation(3, (0.05, 0.05, 0.9))
        experts = (top, mid, bot)
        config = PipelineConfig(
            gamma_grid=(0.0, 0.5, 1.0), eta=0.0, blend_convention="scalar",
            overrides=Overrides(c1=np.eye(3), ca=[1 / 3] * 3))
        with pytest.raises(TripleOutOfRange) as stacked:
            run(experts, config)
        for g, fails in ((0.0, False), (0.5, True)):
            c = blend_scores(np.eye(3), [1 / 3] * 3, 0.0, g, "scalar")[2]
            if not fails:
                aggregate_hfpr(experts, c)
                continue
            with pytest.raises(TripleOutOfRange) as single:
                aggregate_hfpr(experts, c)
            # run names the stage and the value; the entry and the
            # message of aggregate_hfpr follow unchanged.
            assert str(stacked.value) == (
                "stage vii (aggregation) at gamma_blend = 0.5: "
                + str(single.value))
            assert (stacked.value.i, stacked.value.j) == (
                single.value.i, single.value.j)

    def test_blend_scores_is_the_grid_of_one(self, experts):
        report = run(experts, PipelineConfig(gamma_grid=(0.7,)))
        ca_eff, c2, c = blend_scores(report.c1, report.ca, eta=0.5,
                                     gamma_blend=0.7)
        assert hexes(ca_eff) == hexes(report.ca_effective)
        assert hexes(c2) == hexes(report.c2)
        assert hexes(c) == hexes(report.c[0])

    def test_infinite_scores_rejected(self):
        # inf passes a nonnegativity check; the finiteness check catches it
        # before a score set carries it.
        with pytest.raises(ParameterOutOfRange, match="c1 components must "
                           "be nonnegative and finite"):
            blend_scores([[np.inf, 0.5, 0.5]] * 3, PUBLISHED_CA)

    def test_score_invariants_checked_over_the_stack(self):
        with pytest.raises(ParameterOutOfRange, match="ca must sum to 1"):
            blend_scores(PUBLISHED_C1, [0.5, 0.5, 0.5])
        with pytest.raises(ParameterOutOfRange,
                           match="c1 components must be nonnegative"):
            blend_scores([[-0.1, 0.5, 0.6]] * 3, PUBLISHED_CA)
        with pytest.raises(ParameterOutOfRange, match="ca_effective "
                           "components must be nonnegative"):
            blend_scores(PUBLISHED_C1, [1.2, -0.1, -0.1])
        with pytest.raises(ParameterOutOfRange,
                           match="c1 components must be nonnegative"):
            blend_scores([[np.nan, 0.5, 0.5]] * 3, PUBLISHED_CA)
        with pytest.raises(ParameterOutOfRange, match=r"gamma_blend = 1\.5"):
            blend_scores(PUBLISHED_C1, PUBLISHED_CA, gamma_blend=1.5)


class TestOverridesChecked:
    """Overrides.checked holds every override rule that run applies, in
    stage order, and run reads its fields."""

    def test_converts_and_is_idempotent(self, m2):
        ov = Overrides(c1=[[0.3, 0.3, 0.4]] * 3,
                       pair_similarity={(1, 0): 0.9}, ca=[0.2, 0.3, 0.5],
                       c=[[0.3, 0.3, 0.3]] * 3, aggregated=m2)
        got = ov.checked(3, 4)
        assert got.pair_similarity == {(0, 1): 0.9}
        assert got.c1.shape == got.c.shape == (3, 3)
        assert got.ca.shape == (3,)
        assert not got.c.flags.writeable
        assert got.aggregated is m2
        again = got.checked(3, 4)
        assert again.pair_similarity == got.pair_similarity
        for name in ("c1", "ca", "c"):
            assert np.array_equal(getattr(again, name), getattr(got, name))
        assert Overrides().checked(3, 4) == Overrides()

    @pytest.mark.parametrize("fields, error, message", [
        ({"c1": [[0.3, 0.3, 0.4]] * 2}, OverrideShapeMismatch,
         "c1 override must have shape (3, 3), got (2, 3)"),
        ({"c1": [[-0.3, 0.3, 0.4]] * 3}, ParameterOutOfRange,
         "c1 override components must be nonnegative"),
        ({"pair_similarity": {(0, 3): 1.0}}, OverrideShapeMismatch,
         "pair_similarity key (0, 3) is not a valid expert pair"),
        ({"ca": [0.5, 0.5]}, OverrideShapeMismatch,
         "ca override must have shape (3,), got (2,)"),
        ({"aggregated": "small"}, OverrideShapeMismatch,
         "aggregated override does not match the relation size"),
        ({"c": [[0.3, 0.3, 0.3]] * 4}, OverrideShapeMismatch,
         "c override must have shape (3, 3), got (4, 3)"),
        ({"c": [[0.3, -0.3, 0.3]] * 3}, ParameterOutOfRange,
         "c override components must be nonnegative"),
        # Stage order: the earliest stage's rule is the one reported.
        ({"c1": [[0.3] * 3] * 2, "c": [[-1.0] * 3] * 3},
         OverrideShapeMismatch, "c1 override must have shape"),
        ({"pair_similarity": {(0, 1): -1.0}, "ca": [1.0]},
         ParameterOutOfRange, "pair_similarity override for experts (0, 1)"),
    ], ids=["c1-shape", "c1-negative", "pair-key", "ca-shape",
            "aggregated-size", "c-shape", "c-negative", "c1-before-c",
            "pair-before-ca"])
    def test_run_raises_what_checked_raises(self, experts, fields, error,
                                            message):
        if fields.get("aggregated") == "small":
            fields = {"aggregated": make_hfpr(np.zeros((2, 2, 3)))}
        ov = Overrides(**fields)
        with pytest.raises(error) as checked:
            ov.checked(3, 4)
        assert str(checked.value).startswith(message)
        with pytest.raises(error) as ran:
            run(experts, PipelineConfig(overrides=ov))
        assert str(ran.value) == str(checked.value)

    def test_run_reads_the_checked_fields(self, experts, monkeypatch):
        calls = []
        checked = Overrides.checked

        def spy(self, l, n):
            calls.append((l, n))
            return dataclasses.replace(checked(self, l, n),
                                       ca=np.array([0.2, 0.3, 0.5]))
        monkeypatch.setattr(Overrides, "checked", spy)
        report = run(experts, PipelineConfig(
            overrides=Overrides(ca=[0.25, 0.25, 0.5])))
        assert calls == [(3, 4)]
        assert report.ca.tolist() == [0.2, 0.3, 0.5]


class TestNumpyScalarsInMessages:
    """A numpy scalar argument reads as a plain number in the message."""

    def test_blend_scores(self):
        with pytest.raises(ParameterOutOfRange) as err:
            blend_scores(PUBLISHED_C1, PUBLISHED_CA, eta=np.float64(2))
        assert str(err.value) == "eta = 2.0 outside [0, 1]"
        with pytest.raises(ParameterOutOfRange) as err:
            blend_scores(PUBLISHED_C1, PUBLISHED_CA,
                         gamma_blend=np.float64(1.5))
        assert str(err.value) == "gamma_blend = 1.5 outside [0, 1]"
        with pytest.raises(ParameterOutOfRange) as err:
            blend_scores(PUBLISHED_C1, np.array([0.5, 0.25, 0.75]))
        assert str(err.value) == "ca must sum to 1, got 1.5"

    def test_pipeline_config(self):
        with pytest.raises(ParameterOutOfRange) as err:
            PipelineConfig(eta=np.float64(2))
        assert str(err.value) == "eta = 2.0 outside [0, 1]"

    def test_pair_override_keys(self, experts):
        i, j = np.int64(0), np.int64(5)
        with pytest.raises(OverrideShapeMismatch) as err:
            similarity_weights(experts, {(i, j): 1.0})
        assert str(err.value) == \
            "pair_similarity key (0, 5) is not a valid expert pair"
        with pytest.raises(ParameterOutOfRange) as err:
            similarity_weights(experts, {(i, np.int64(1)): -1.0})
        assert str(err.value).startswith(
            "pair_similarity override for experts (0, 1) is -1.0;")


class TestPairOverridesInLibrary:
    """similarity_weights and mean_similarity_degree check a pair map as
    run does."""

    def test_non_positive_value_rejected(self, experts):
        from hfgdm import mean_similarity_degree
        with pytest.raises(ParameterOutOfRange, match=r"\(0, 1\) is -1\.0"):
            similarity_weights(experts, {(0, 1): -1.0})
        with pytest.raises(ParameterOutOfRange, match=r"\(0, 1\) is -1\.0"):
            mean_similarity_degree(experts, 2, {(0, 1): -1.0})

    def test_both_orientations_rejected(self, experts):
        from hfgdm import mean_similarity_degree
        pairs = {(0, 1): 0.5, (1, 0): 0.9, (0, 2): 0.8, (1, 2): 0.8}
        with pytest.raises(OverrideShapeMismatch,
                           match=r"\(1, 0\) in both orientations"):
            similarity_weights(experts, pairs)
        for b in range(3):
            with pytest.raises(OverrideShapeMismatch,
                               match=r"\(1, 0\) in both orientations"):
                mean_similarity_degree(experts, b, pairs)

    def test_invalid_pair_rejected(self, experts):
        from hfgdm import mean_similarity_degree
        with pytest.raises(OverrideShapeMismatch, match="valid expert pair"):
            similarity_weights(experts, {(0, 3): 1.0})
        with pytest.raises(OverrideShapeMismatch, match="valid expert pair"):
            mean_similarity_degree(experts, 0, {(2, 2): 1.0})

    def test_weights_agree_with_run(self, experts):
        reversed_pairs = {(j, i): v for (i, j), v in PUBLISHED_PAIRS.items()}
        report = run(experts, PipelineConfig(
            overrides=Overrides(pair_similarity=reversed_pairs)))
        assert np.array_equal(similarity_weights(experts, reversed_pairs),
                              report.ca)
        assert np.array_equal(similarity_weights(experts, PUBLISHED_PAIRS),
                              report.ca)


# -- metamorphic properties on random panels --------------------------------

def random_panel(seed, n, l):
    """l random relations of size n over labels a0..a{n-1}."""
    rng = np.random.default_rng(seed)
    labels = [f"a{i}" for i in range(n)]
    return tuple(random_hfpr(n, rng, labels=labels) for _ in range(l))


def shared_weights_config(mode, l):
    """Weights 1/l shared through the c override keep every aggregate
    closed; the blend is still computed and reported."""
    return PipelineConfig(mode=mode, gamma_grid=(0.0, 0.5, 1.0),
                          overrides=Overrides(c=np.full((l, 3), 1.0 / l)))


@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 8), l=st.integers(2, 6), mode=st.sampled_from(MODES))
@settings(max_examples=40, deadline=None)
def test_relabelling_alternatives(data, seed, n, l, mode):
    perm = data.draw(st.permutations(range(n)))
    rels = random_panel(seed, n, l)
    moved = tuple(make_hfpr(h.values[np.ix_(perm, perm)],
                            labels=[h.labels[p] for p in perm])
                  for h in rels)
    config = shared_weights_config(mode, l)
    rep, mrep = run(rels, config), run(moved, config)
    for name in ("energies", "laplacian_energies", "c1", "ca", "c2", "c"):
        assert np.allclose(getattr(mrep, name), getattr(rep, name),
                           rtol=0, atol=1e-12), name
    for name in ("s_plus", "s_minus", "f"):
        assert np.allclose(getattr(mrep, name), getattr(rep, name)[:, perm],
                           rtol=0, atol=1e-12), name
    assert np.allclose(mrep.aggregated,
                       rep.aggregated[:, perm][:, :, perm], rtol=0, atol=1e-12)
    for k in range(len(config.gamma_grid)):
        ranked = [mrep.labels[i] for i in mrep.ranking[k]]
        # Read in the moved run's order, the original closeness values
        # never rise: the ranking maps by label up to ties within 1e-9.
        f = rep.f[k][[rep.labels.index(a) for a in ranked]]
        assert np.all(np.diff(f) <= 1e-9)
        if np.all(np.diff(np.sort(rep.f[k])) > 1e-9):
            assert ranked == [rep.labels[i] for i in rep.ranking[k]]


@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 8), l=st.sampled_from([2, 4, 5, 6]),
       mode=st.sampled_from(MODES))
@settings(max_examples=40, deadline=None)
def test_permuting_experts_under_scalar(data, seed, n, l, mode):
    # auto picks the scalar convention for l != 3: each expert's weight
    # stays on its own row, so the expert axis permutes and f stays.
    perm = data.draw(st.permutations(range(l)))
    rels = random_panel(seed, n, l)
    config = shared_weights_config(mode, l)
    rep = run(rels, config)
    prep = run(tuple(rels[b] for b in perm), config)
    assert prep.convention == rep.convention == "scalar"
    for name in ("energies", "laplacian_energies", "c1",
                 "similarity_degrees", "ca", "ca_effective", "c2"):
        assert np.allclose(getattr(prep, name), getattr(rep, name)[perm],
                           rtol=0, atol=1e-12), name
    assert np.allclose(prep.c, rep.c[:, perm], rtol=0, atol=1e-12)
    assert np.allclose(prep.f, rep.f, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
       l=st.integers(2, 6), mode=st.sampled_from(MODES))
@settings(max_examples=30, deadline=None)
def test_identical_experts_have_unit_degrees_and_equal_weights(seed, n, l,
                                                               mode):
    rels = random_panel(seed, n, 1) * l
    report = run(rels, shared_weights_config(mode, l))
    assert np.allclose(report.similarity_degrees, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(report.ca, 1.0 / l, rtol=0, atol=1e-12)


def test_vector_convention_is_not_expert_permutation_invariant(experts):
    # Under vector the weight vector is one shared triple, read by
    # channel, so reordering the case study's experts moves f.
    rep = run(experts)
    cyclic = run(experts[1:] + experts[:1])
    assert rep.convention == cyclic.convention == "vector"
    assert np.abs(cyclic.f - rep.f).max() == pytest.approx(2.36e-3, abs=5e-5)
