"""Domain-type construction, validation order, and channel extraction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgdm import (
    CHANNELS,
    AsymmetricEntry,
    ChannelMatrix,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    HesitancyTriple,
    ParameterOutOfRange,
    TripleOutOfRange,
    ValidationError,
    VertexAttribute,
    channel,
    degree_vector,
    make_hfpr,
    random_hfpr,
)

from conftest import M1_ROWS, build


class TestHesitancyTriple:
    def test_pi_is_residue(self):
        t = HesitancyTriple(0.4, 0.2, 0.3)
        assert t.pi == pytest.approx(0.1, abs=1e-12)
        assert t.as_tuple() == (0.4, 0.2, 0.3)

    def test_component_out_of_range(self):
        with pytest.raises(TripleOutOfRange):
            HesitancyTriple(1.2, 0.0, 0.0)
        with pytest.raises(TripleOutOfRange):
            HesitancyTriple(-0.1, 0.0, 0.0)

    def test_sum_above_one(self):
        with pytest.raises(TripleOutOfRange):
            HesitancyTriple(0.6, 0.3, 0.2)

    def test_tolerance_band(self):
        HesitancyTriple(0.5, 0.5, 1e-10)  # sum 1 + 1e-10: admitted
        with pytest.raises(TripleOutOfRange):
            HesitancyTriple(0.5, 0.5, 1e-8)

    @given(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
           .filter(lambda t: sum(t) <= 1.0))
    def test_pi_in_unit_interval(self, t):
        assert -1e-12 <= HesitancyTriple(*t).pi <= 1.0 + 1e-12


class TestVertexAttribute:
    def test_beta1_derived(self):
        v = VertexAttribute(0.5, 0.3)
        assert v.beta1 == pytest.approx(0.2, abs=1e-12)

    def test_explicit_beta1_must_match(self):
        VertexAttribute(0.5, 0.3, 0.2)
        with pytest.raises(ParameterOutOfRange):
            VertexAttribute(0.5, 0.3, 0.3)

    def test_exceeding_sum(self):
        with pytest.raises(ParameterOutOfRange):
            VertexAttribute(0.8, 0.4)


class TestMakeHfpr:
    def test_fixture_matrix_valid(self, m1):
        assert m1.n == 4
        assert m1.labels == ("t1", "t2", "t3", "t4")
        assert m1.symmetric
        assert m1.triple(0, 1).as_tuple() == (0.4, 0.2, 0.3)

    def test_degenerate_single_alternative(self):
        h = make_hfpr(np.zeros((1, 1, 3)))
        assert h.n == 1
        assert h.labels == ("t1",)

    def test_values_frozen_and_copied(self, m1):
        with pytest.raises(ValueError):
            m1.values[0, 1, 0] = 0.9
        src = np.zeros((2, 2, 3))
        h = make_hfpr(src)
        src[0, 1] = (0.9, 0.9, 0.9)
        assert h.values[0, 1, 0] == 0.0

    def test_sum_violation_reports_indices(self):
        rows = np.zeros((4, 4, 3))
        rows[1, 2] = rows[2, 1] = (0.6, 0.3, 0.2)
        with pytest.raises(TripleOutOfRange) as e:
            make_hfpr(rows)
        assert (e.value.i, e.value.j) == (1, 2)

    def test_diagonal_must_be_exact_zero(self):
        rows = np.zeros((2, 2, 3))
        rows[1, 1, 0] = 1e-12
        with pytest.raises(DiagonalNotZero) as e:
            make_hfpr(rows)
        assert e.value.i == 1

    def test_asymmetry_reported_at_lower_triangle(self):
        rows = np.zeros((3, 3, 3))
        rows[0, 2] = (0.2, 0.2, 0.2)
        rows[2, 0] = (0.3, 0.2, 0.2)
        with pytest.raises(AsymmetricEntry) as e:
            make_hfpr(rows)
        assert (e.value.i, e.value.j) == (2, 0)

    def test_first_violation_in_row_major_order(self):
        # A range violation at (0, 1) precedes a diagonal violation at
        # (1, 1) and an asymmetry at (2, 0): row-major scan wins.
        rows = np.zeros((3, 3, 3))
        rows[0, 1] = (0.9, 0.9, 0.9)
        rows[1, 1] = (0.1, 0.0, 0.0)
        rows[2, 0] = (0.3, 0.0, 0.0)
        with pytest.raises(TripleOutOfRange) as e:
            make_hfpr(rows)
        assert (e.value.i, e.value.j) == (0, 1)

    def test_require_symmetry_false_admits_and_flags(self):
        rows = np.zeros((2, 2, 3))
        rows[0, 1] = (0.2, 0.2, 0.2)
        rows[1, 0] = (0.4, 0.2, 0.2)
        h = make_hfpr(rows, require_symmetry=False)
        assert not h.symmetric

    def test_vertex_bounds_enforced(self):
        rows = np.zeros((2, 2, 3))
        rows[0, 1] = rows[1, 0] = (0.5, 0.1, 0.2)
        attrs = [(0.6, 0.2), (0.6, 0.2)]
        h = make_hfpr(rows, vertex_attrs=attrs)
        assert h.vertex_attrs[0].beta1 == pytest.approx(0.2)
        # membership 0.5 > min(mu1) = 0.4 violates the vertex bound
        with pytest.raises(EdgeExceedsVertexBound) as e:
            make_hfpr(rows, vertex_attrs=[(0.4, 0.2), (0.6, 0.2)])
        assert (e.value.i, e.value.j) == (0, 1)

    def test_shape_and_label_mismatches(self):
        with pytest.raises(DimensionMismatch):
            make_hfpr(np.zeros((2, 3, 3)))
        with pytest.raises(DimensionMismatch):
            make_hfpr(np.zeros((2, 2, 4)))
        with pytest.raises(DimensionMismatch):
            make_hfpr(np.zeros((2, 2, 3)), labels=["only-one"])

    def test_roundtrip_bit_exact(self, m1):
        rebuilt = make_hfpr(
            np.stack([channel(m1, c).values for c in CHANNELS], axis=-1),
            labels=m1.labels)
        assert np.array_equal(rebuilt.values, m1.values)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_validation_total_on_random_4x4(self, seed):
        # Every 4x4 matrix of triples either constructs or raises exactly
        # one named validation error.
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 0.55, (4, 4, 3))
        if rng.uniform() < 0.5:
            a[np.diag_indices(4)] = 0.0
        if rng.uniform() < 0.5:
            iu = np.triu_indices(4, 1)
            a[(iu[1], iu[0])] = a[iu]
        try:
            h = make_hfpr(a)
        except ValidationError:
            return
        assert h.n == 4


class TestChannel:
    def test_membership_matrix_as_printed(self, m1):
        expect = [[0, .4, .4, .3], [.4, 0, .4, .3],
                  [.4, .4, 0, .3], [.3, .3, .3, 0]]
        assert np.allclose(channel(m1, "membership").values, expect,
                           atol=1e-12)

    def test_hesitancy_matrix_as_printed(self, m1):
        expect = [[0, .3, .2, .2], [.3, 0, .2, .2],
                  [.2, .2, 0, .2], [.2, .2, .2, 0]]
        assert np.allclose(channel(m1, "hesitancy").values, expect,
                           atol=1e-12)

    def test_all_channels_symmetric_zero_diagonal(self, experts):
        for h in experts:
            for name in CHANNELS:
                c = channel(h, name)
                assert np.array_equal(c.values, c.values.T)
                assert np.all(np.diag(c.values) == 0.0)

    def test_zero_relation_zero_channels(self):
        h = make_hfpr(np.zeros((3, 3, 3)))
        for name in CHANNELS:
            assert not channel(h, name).values.any()

    def test_unknown_channel_rejected(self, m1):
        with pytest.raises(ParameterOutOfRange):
            channel(m1, "residue")

    def test_channel_matrix_validates(self):
        with pytest.raises(DiagonalNotZero):
            ChannelMatrix(values=np.eye(2), channel="membership")
        with pytest.raises(AsymmetricEntry):
            ChannelMatrix(values=np.array([[0.0, 0.1], [0.2, 0.0]]),
                          channel="membership")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_matrix_rejects_non_finite(self, bad):
        # NaN compares False both ways, so it must fail the range check
        # itself rather than slip past it into an all-NaN Laplacian.
        with pytest.raises(TripleOutOfRange, match=r"\[0, 1\]"):
            ChannelMatrix(values=np.array([[0.0, bad], [bad, 0.0]]),
                          channel="membership")


class TestDegreeVector:
    def test_membership_degrees(self, m1):
        assert np.allclose(degree_vector(channel(m1, "membership")),
                           (1.1, 1.1, 1.1, 0.9), atol=1e-12)

    def test_hesitancy_degrees(self, m1):
        assert np.allclose(degree_vector(channel(m1, "hesitancy")),
                           (0.7, 0.7, 0.6, 0.6), atol=1e-12)

    def test_zero_matrix(self):
        c = ChannelMatrix(values=np.zeros((3, 3)), channel="membership")
        assert np.array_equal(degree_vector(c), np.zeros(3))


class TestRandomHfpr:
    def test_deterministic_and_valid(self):
        a = random_hfpr(5, np.random.default_rng(7))
        b = random_hfpr(5, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)
        sums = a.values.sum(axis=2)
        assert sums.max() <= 1.0 + 1e-12
        assert np.array_equal(a.values, np.round(a.values, 4))

    def test_minimum_dimension(self):
        with pytest.raises(ParameterOutOfRange):
            random_hfpr(0, np.random.default_rng(1))
        assert random_hfpr(1, np.random.default_rng(1)).n == 1

    def test_matches_fixture_builder(self, m1):
        assert np.array_equal(build(M1_ROWS).values, m1.values)
