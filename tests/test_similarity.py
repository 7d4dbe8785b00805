"""Pairwise similarity, mean degrees, ideal similarities, closeness."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfgdm import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    NeedTwoExperts,
    ParameterOutOfRange,
    aggregate_hfpr,
    closeness,
    ideal_similarities,
    make_hfpr,
    mean_similarity_degree,
    pair_similarity,
    random_hfpr,
)
from hfgdm.core import _upper_indices
from hfgdm.similarity import _ideal_rows

from conftest import PUBLISHED_C


class _RowStub:
    """Bare (values, n) holder for formula-level ideal-similarity checks on
    rows that are not admissible preference-relation entries."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n = self.values.shape[0]


def pair_similarity_reference(a, b):
    """The measure as first written: fresh triangle indices per call."""
    n = a.n
    if n == 1:
        return 1.0
    iu = np.triu_indices(n, 1)
    d = np.abs(a.values[iu] - b.values[iu])
    terms = (1.0 - d.min(axis=1)) / (1.0 + d.max(axis=1))
    return float(1.0 / n + (2.0 / n ** 2) * terms.sum())


def ideal_similarity_reference(agg, i, which):
    """One row's ideal similarity as first written, row by row."""
    row = agg.values[i]
    if which == "positive":
        t = np.stack([1.0 - row[:, 0], row[:, 1], 1.0 - row[:, 2]], axis=1)
    else:
        t = np.stack([row[:, 0], 1.0 - row[:, 1], row[:, 2]], axis=1)
    return float(((1.0 - t.min(axis=1)) / (1.0 + t.max(axis=1))).mean())


class TestPairSimilarity:
    def test_identical_is_one(self, m1):
        assert pair_similarity(m1, m1) == 1.0

    def test_first_second_expert_hand_value(self, m1, m2):
        # six upper-triangle pair terms: 0.6923, 1, 0.8333, 0.75,
        # 0.8333, 0.8333
        terms = []
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.abs(m1.values[i, j] - m2.values[i, j])
                terms.append((1 - d.min()) / (1 + d.max()))
        assert np.allclose(
            terms, [0.6923, 1.0, 0.8333, 0.75, 0.8333, 0.8333], atol=1e-4)
        s = pair_similarity(m1, m2)
        assert s == pytest.approx(0.25 + 0.125 * sum(terms), abs=1e-12)
        assert s == pytest.approx(0.8678, abs=1e-4)

    def test_all_three_fixture_pairs(self, m1, m2, m3):
        assert pair_similarity(m1, m2) == pytest.approx(0.8678, abs=1e-4)
        assert pair_similarity(m1, m3) == pytest.approx(0.8328, abs=1e-4)
        assert pair_similarity(m2, m3) == pytest.approx(0.8123, abs=1e-4)

    def test_single_alternative(self):
        a = make_hfpr(np.zeros((1, 1, 3)))
        b = make_hfpr(np.zeros((1, 1, 3)))
        assert pair_similarity(a, b) == 1.0

    def test_dimension_mismatch(self, m1):
        # The message every group of relations gives.
        with pytest.raises(DimensionMismatch,
                           match=r"^mixed relation sizes \[2, 4\]$"):
            pair_similarity(m1, make_hfpr(np.zeros((2, 2, 3))))

    def test_symmetry_bit_exact(self, experts):
        for a in experts:
            for b in experts:
                assert pair_similarity(a, b) == pair_similarity(b, a)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a, b = random_hfpr(n, rng), random_hfpr(n, rng)
            s = pair_similarity(a, b)
            assert 1.0 / n - 1e-12 <= s <= 1.0 + 1e-12

    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_hfpr(n, rng), random_hfpr(n, rng)
        assert pair_similarity(a, b) == pair_similarity_reference(a, b)

    def test_cached_indices_are_read_only(self):
        flat = _upper_indices(5)
        assert _upper_indices(5) is flat
        iu, ju = np.triu_indices(5, 1)
        assert flat.tolist() == (iu * 5 + ju).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                flat[0] = 0

    def test_upper_triangle_built_once_and_read_only(self, m1):
        upper = m1.upper
        assert m1.upper is upper
        assert upper.tolist() == m1.values[np.triu_indices(m1.n, 1)].T.tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                upper[0, 0] = 0.5
        assert make_hfpr(np.zeros((1, 1, 3))).upper.shape == (3, 0)

    def test_single_entry_perturbation_breaks_unity(self, m1):
        bumped = m1.values.copy()
        bumped[0, 1, 0] += 1e-3
        bumped[1, 0, 0] += 1e-3
        assert pair_similarity(m1, make_hfpr(bumped)) < 1.0


class TestMeanSimilarityDegree:
    def test_injected_published_pair_values(self, experts):
        injected = {(0, 1): 1.9856, (0, 2): 1.9155}
        got = mean_similarity_degree(experts, 0, pairwise=injected)
        assert got == pytest.approx(1.9506, abs=1e-4)

    def test_injection_orientation_agnostic(self, experts):
        a = mean_similarity_degree(experts, 0, pairwise={(0, 1): 2.0,
                                                         (0, 2): 1.0})
        b = mean_similarity_degree(experts, 0, pairwise={(1, 0): 2.0,
                                                         (2, 0): 1.0})
        assert a == b == pytest.approx(1.5)

    def test_computed_from_fixtures(self, experts):
        assert mean_similarity_degree(experts, 0) == pytest.approx(
            0.8503, abs=1e-4)
        assert mean_similarity_degree(experts, 1) == pytest.approx(
            0.8400, abs=1e-4)
        assert mean_similarity_degree(experts, 2) == pytest.approx(
            0.8225, abs=1e-4)

    def test_partial_injection_fills_in_computed(self, experts, m1, m3):
        got = mean_similarity_degree(experts, 0, pairwise={(0, 1): 0.9})
        assert got == pytest.approx(
            (0.9 + pair_similarity(m1, m3)) / 2, abs=1e-12)

    def test_two_experts_degenerates_to_pair(self, m1, m2):
        assert mean_similarity_degree((m1, m2), 0) == pair_similarity(m1, m2)

    def test_errors(self, m1, experts):
        with pytest.raises(NeedTwoExperts):
            mean_similarity_degree((m1,), 0)
        with pytest.raises(IndexOutOfRange):
            mean_similarity_degree(experts, 3)


@pytest.fixture(scope="module")
def printed_aggregate(experts):
    # Aggregate under the published expert weight vectors; reproduces the
    # printed matrix used by the published downstream values.
    return aggregate_hfpr(experts, PUBLISHED_C)


class TestIdealSimilarity:
    def test_published_row1_positive(self, printed_aggregate):
        assert ideal_similarities(printed_aggregate, "positive")[0] == \
            pytest.approx(0.3567, abs=1e-3)
        assert ideal_similarities(printed_aggregate, "positive")[0] == \
            ideal_similarity_reference(printed_aggregate, 0, "positive")
        assert ideal_similarities(printed_aggregate, "positive")[0] == \
            pytest.approx(0.356694328134381, abs=1e-9)

    def test_published_row1_negative(self, printed_aggregate):
        assert ideal_similarities(printed_aggregate, "negative")[0] == \
            pytest.approx(0.5071, abs=1e-3)
        assert ideal_similarities(printed_aggregate, "negative")[0] == \
            ideal_similarity_reference(printed_aggregate, 0, "negative")
        assert ideal_similarities(printed_aggregate, "negative")[0] == \
            pytest.approx(0.5070933569590463, abs=1e-9)

    def test_idealized_row_formula(self):
        # A row holding the positive ideal itself (not an admissible
        # relation entry) with a zero diagonal at n = 2: terms 1 and 0.5.
        stub = _RowStub([[(0, 0, 0), (1, 0, 1)],
                         [(1, 0, 1), (0, 0, 0)]])
        assert ideal_similarities(stub, "positive")[0] == pytest.approx(0.75)

    def test_diagonal_contribution(self):
        # All-zero relation: every term is the diagonal term 0.5.
        h = make_hfpr(np.zeros((4, 4, 3)))
        for kind in ("positive", "negative"):
            assert ideal_similarities(h, kind)[0] == pytest.approx(0.5)

    def test_errors(self, printed_aggregate):
        with pytest.raises(ParameterOutOfRange):
            ideal_similarities(printed_aggregate, "sideways")

    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(("positive", "negative")))
    @settings(max_examples=60, deadline=None)
    def test_all_rows_match_one_row_and_reference_exactly(self, n, seed,
                                                          kind):
        agg = random_hfpr(n, np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            every = ideal_similarities(agg, kind)
            assert every.shape == (n,)
            for i in range(n):
                one_row = _ideal_rows(agg.values[i:i + 1], kind)
                assert one_row.shape == (1,)
                assert every[i] == one_row[0] \
                    == ideal_similarity_reference(agg, i, kind)

    def test_term_level_monotonicity(self, printed_aggregate):
        # Raising mu and beta and lowering gamma of one entry never
        # decreases the row's positive-ideal similarity.
        base = printed_aggregate.values.copy()
        s0 = ideal_similarities(printed_aggregate, "positive")[1]
        rng = np.random.default_rng(77)
        for _ in range(20):
            bumped = base.copy()
            mu, ga, be = bumped[1, 2]
            eps = rng.uniform(0, min(0.02, ga))
            bumped[1, 2] = bumped[2, 1] = (mu + eps / 3, ga - eps,
                                           be + eps / 3)
            s1 = ideal_similarities(make_hfpr(bumped), "positive")[1]
            assert s1 >= s0 - 1e-12


class TestCloseness:
    def test_published_relative_example(self):
        assert closeness(0.3701, 0.4955, "relative") == pytest.approx(
            0.4276, abs=1e-3)

    def test_published_ratio_example(self):
        assert closeness(0.3567, 0.5071, "ratio") == pytest.approx(
            0.7034, abs=1e-3)

    def test_balanced_inputs(self):
        assert closeness(0.4, 0.4, "relative") == 0.5

    def test_default_mode_is_relative(self):
        assert closeness(0.3, 0.6) == pytest.approx(1 / 3)

    def test_degenerate_denominators(self):
        with pytest.raises(DegenerateDenominator):
            closeness(0.0, 0.0, "relative")
        with pytest.raises(DegenerateDenominator):
            closeness(0.5, 0.0, "ratio")
        with pytest.raises(ParameterOutOfRange):
            closeness(0.5, 0.5, "affine")
        with pytest.raises(ParameterOutOfRange):
            closeness(-0.1, 0.5)

    @given(st.lists(st.tuples(st.floats(0.01, 1), st.floats(0.01, 1)),
                    min_size=2, max_size=8))
    @example([(0.010000000000000002, 0.01), (0.01, 0.01)])
    @settings(max_examples=50, deadline=None)
    def test_modes_rank_identically(self, pairs):
        # The modes agree in exact arithmetic only: ratios 1 ulp apart can
        # round to one relative score, or to relative scores in the other
        # order. So every two items whose ratios differ by more than 1e-9
        # relative must be ordered alike.
        rel = [closeness(p, m, "relative") for p, m in pairs]
        rat = [closeness(p, m, "ratio") for p, m in pairs]
        for x in range(len(pairs)):
            for y in range(len(pairs)):
                if rat[x] > rat[y] * (1.0 + 1e-9):
                    assert rel[x] > rel[y]
        if pairs == [(0.010000000000000002, 0.01), (0.01, 0.01)]:
            assert rat[0] > rat[1] and rel[0] == rel[1] == 0.5
