"""Domain-type construction, validation order, and the channel matrices.

make_hfpr checks every rule over the whole array at once. The row-major
double loop it replaced is kept here as make_hfpr_reference, and a fuzz
test requires the two to agree on every outcome. random_hfpr draws all
its triples in bulk; the per-entry draw loop it replaced is kept as
random_hfpr_reference, and a property test requires the same values and
the same generator state afterwards.
"""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgdm import (
    CHANNELS,
    HFPR,
    AsymmetricEntry,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    NeedTwoExperts,
    Panel,
    ParameterOutOfRange,
    TripleOutOfRange,
    ValidationError,
    VertexAttribute,
    make_hfpr,
    random_hfpr,
)

from shared import M1_ROWS, build, with_membership

TOL = 1e-9


def _check_triple(mu, gamma, beta, i, j):
    for name, v in (("mu", mu), ("gamma", gamma), ("beta", beta)):
        if not (-TOL <= v <= 1.0 + TOL):
            raise TripleOutOfRange(
                f"{name} = {v!r} at entry ({i}, {j}) outside [0, 1]", i, j)
    s = mu + gamma + beta
    if s > 1.0 + TOL:
        raise TripleOutOfRange(
            f"mu + gamma + beta = {s!r} at entry ({i}, {j}) exceeds 1", i, j)


def make_hfpr_reference(entries, vertex_attrs=None):
    """make_hfpr as a row-major scan that stops at the first violation.

    Each entry is checked in turn: component range and triple sum, the
    exact-zero diagonal, symmetry against the upper-triangle twin, then
    the vertex bounds. Shapes and labels are taken as valid. An accepted
    relation stores each lower entry as its upper twin's mirror.
    """
    a = np.asarray(entries, dtype=float)
    n = a.shape[0]
    attrs = None
    if vertex_attrs is not None:
        attrs = tuple(VertexAttribute(*v) for v in vertex_attrs)
    for i in range(n):
        for j in range(n):
            mu, gamma, beta = (float(a[i, j, 0]), float(a[i, j, 1]),
                               float(a[i, j, 2]))
            _check_triple(mu, gamma, beta, i, j)
            if i == j:
                if mu != 0.0 or gamma != 0.0 or beta != 0.0:
                    raise DiagonalNotZero(
                        f"diagonal entry ({i}, {i}) = "
                        f"({mu}, {gamma}, {beta}) must be exactly (0, 0, 0)",
                        i)
                continue
            if j < i and np.max(np.abs(a[i, j] - a[j, i])) > TOL:
                raise AsymmetricEntry(
                    f"entry ({i}, {j}) does not mirror ({j}, {i})", i, j)
            if attrs is not None:
                vi, vj = attrs[i], attrs[j]
                if (mu > min(vi.mu1, vj.mu1) + TOL
                        or gamma > max(vi.gamma1, vj.gamma1) + TOL
                        or beta > min(vi.beta1, vj.beta1) + TOL):
                    raise EdgeExceedsVertexBound(
                        f"entry ({i}, {j}) exceeds its vertex bounds", i, j)
    # An accepted twin is stored as the mirror of its upper entry.
    values = a.copy()
    for i in range(n):
        for j in range(i):
            values[i, j] = a[j, i]
    return HFPR(values=values, labels=tuple(f"t{i + 1}" for i in range(n)),
                vertex_attrs=attrs)


def _outcome(build_relation, *args, **kwargs):
    """What one construction gives: the error, or the relation's content."""
    try:
        h = build_relation(*args, **kwargs)
    except ValidationError as e:
        return (type(e), str(e), getattr(e, "i", None), getattr(e, "j", None))
    return h.values.tobytes()


# Entries exactly at and one float past each end of the range band, sums
# exactly at and one float past 1 + TOL, and channel differences exactly
# at and one float past TOL: make_hfpr's whole-array accept must draw
# each of these lines where the per-rule scan does.
RANGE_EDGES = [-TOL, np.nextafter(-TOL, -1.0), 1.0 + TOL,
               np.nextafter(1.0 + TOL, 2.0), 1.0 - TOL, TOL]
# The last triple sums to 1 + TOL from the left, the rule's order, and
# past it from the right.
SUM_EDGE_TRIPLES = [(0.5, 0.5, (1.0 + TOL) - 1.0),
                    (0.5, 0.5, np.nextafter(1.0 + TOL, 2.0) - 1.0),
                    (0.326, 0.374, 0.3000000010000002)]
ASYMMETRY_EDGES = [TOL, np.nextafter(TOL, 1.0), np.nextafter(TOL, 0.0)]
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, -0.1, -1e-10, -1e-8, 1e-12,
           1.2, 1.0 + 1e-10, 1.0 + 1e-8] + RANGE_EDGES
GRADES = [0.0, 0.1, 0.3 - 1e-8, 0.3 - 1e-10, 0.3, 0.35, 0.5]


@st.composite
def corrupted_relations(draw):
    """A random symmetric relation, perhaps scaled down, with a few entries
    corrupted, plus optional vertex attributes."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    a = np.array(random_hfpr(n, np.random.default_rng(seed)).values)
    a *= draw(st.sampled_from([1.0, 0.3]))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["one", "both", "sum", "asymmetry"]))
        if kind == "sum":
            # Sums of 1 + 1e-10 and 1 + 1e-8 straddle the tolerance, and
            # the edge triples sum exactly to it or one float past.
            a[i, j] = a[j, i] = draw(st.sampled_from(
                [(0.5, 0.5, 1e-10), (0.5, 0.5, 1e-8)] + SUM_EDGE_TRIPLES))
            continue
        k = draw(st.integers(0, 2))
        if kind == "asymmetry":
            # From a zero twin the difference is exactly the edge value.
            a[i, j, k] = 0.0
            a[j, i, k] = draw(st.sampled_from(ASYMMETRY_EDGES))
            continue
        v = draw(st.sampled_from(SPECIAL) | st.floats(-0.1, 1.1))
        a[i, j, k] = v
        if kind == "both":
            a[j, i, k] = v
    attrs = draw(st.none() | st.lists(
        st.tuples(st.sampled_from(GRADES), st.sampled_from(GRADES)),
        min_size=n, max_size=n))
    return a, attrs


class TestVertexAttribute:
    def test_beta1_derived(self):
        v = VertexAttribute(0.5, 0.3)
        assert v.beta1 == pytest.approx(0.2, abs=1e-12)

    def test_explicit_beta1_must_match(self):
        VertexAttribute(0.5, 0.3, 0.2)
        with pytest.raises(ParameterOutOfRange):
            VertexAttribute(0.5, 0.3, 0.3)

    def test_nan_beta1_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            VertexAttribute(0.5, 0.3, float("nan"))

    def test_exceeding_sum(self):
        with pytest.raises(ParameterOutOfRange):
            VertexAttribute(0.8, 0.4)

    def test_grade_outside_unit_interval(self):
        with pytest.raises(ParameterOutOfRange, match=r"^mu1 = 1\.5 outside"):
            VertexAttribute(1.5, 0.0)

    @pytest.mark.parametrize("args, message", [
        ((np.float64(2), 0.1), "mu1 = 2.0 outside [0, 1]"),
        ((np.float64(0.75), np.float64(0.5)), "mu1 + gamma1 = 1.25 exceeds 1"),
        ((0.5, 0.25, np.float64(0.5)),
         "beta1 = 0.5 but 1 - mu1 - gamma1 = 0.25"),
    ])
    def test_numpy_grades_shown_as_plain_floats(self, args, message):
        with pytest.raises(ParameterOutOfRange) as err:
            VertexAttribute(*args)
        assert str(err.value) == message


class TestMakeHfpr:
    def test_fixture_matrix_valid(self, m1):
        assert m1.n == 4
        assert m1.labels == ("t1", "t2", "t3", "t4")
        assert np.array_equal(m1.values, m1.values.transpose(1, 0, 2))
        assert tuple(m1.values[0, 1]) == (0.4, 0.2, 0.3)

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

    @staticmethod
    def _pair(triple):
        rows = np.zeros((2, 2, 3))
        rows[0, 1] = rows[1, 0] = triple
        return rows

    def test_component_out_of_range(self):
        for triple, name in [((1.2, 0.0, 0.0), "mu"),
                             ((0.0, -0.1, 0.0), "gamma")]:
            with pytest.raises(TripleOutOfRange,
                               match=rf"^{name} = .* at entry \(0, 1\)") as e:
                make_hfpr(self._pair(triple))
            assert (e.value.i, e.value.j) == (0, 1)

    def test_twin_within_tolerance_is_stored_mirrored(self):
        rows = np.zeros((3, 3, 3))
        rows[0, 1] = rows[1, 0] = (0.2, 0.3, 0.4)
        rows[0, 2] = rows[2, 0] = (0.1, 0.1, 0.1)
        rows[1, 0] += (5e-10, -5e-10, 0.0)
        rows[2, 0, 2] += 1e-9
        h = make_hfpr(rows)
        assert h.values[np.triu_indices(3, 1)].tolist() == \
            rows[np.triu_indices(3, 1)].tolist()
        assert np.array_equal(h.values, h.values.transpose(1, 0, 2))

    def test_sum_above_one(self):
        with pytest.raises(TripleOutOfRange, match="exceeds 1"):
            make_hfpr(self._pair((0.6, 0.3, 0.2)))

    def test_tolerance_band(self):
        make_hfpr(self._pair((0.5, 0.5, 1e-10)))  # sum 1 + 1e-10: admitted
        with pytest.raises(TripleOutOfRange):
            make_hfpr(self._pair((0.5, 0.5, 1e-8)))

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

    def test_no_alternatives(self):
        with pytest.raises(DimensionMismatch,
                           match="need at least one alternative"):
            make_hfpr(np.zeros((0, 0, 3)))

    def test_vertex_attribute_count(self):
        with pytest.raises(DimensionMismatch,
                           match="2 vertex attributes for an n = 3 relation"):
            make_hfpr(np.zeros((3, 3, 3)), vertex_attrs=[(0.5, 0.3)] * 2)

    def test_roundtrip_bit_exact(self, m1):
        rebuilt = make_hfpr(
            np.stack([m1.values[..., k] for k in range(len(CHANNELS))],
                     axis=-1),
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


    @given(corrupted_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_major_reference(self, case):
        # Same error type, message, (i, j), or the same values; NaN and
        # inf raise no numpy warning on either side.
        a, attrs = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _outcome(make_hfpr_reference, a, attrs)
            got = _outcome(make_hfpr, a, vertex_attrs=attrs)
        assert got == want


def _edge_relations():
    """Relations with one entry pair on or one float past a rule's edge."""
    base = np.array(random_hfpr(4, np.random.default_rng(3)).values) * 0.3
    cases = []
    for v in RANGE_EDGES:
        a = base.copy()
        a[1, 2] = a[2, 1] = (0.0, v, 0.0)
        cases.append((f"component={v!r}", a))
    for t in SUM_EDGE_TRIPLES:
        a = base.copy()
        a[0, 3] = a[3, 0] = t
        cases.append((f"sum={t!r}", a))
    for d in ASYMMETRY_EDGES:
        a = base.copy()
        a[0, 2, 1], a[2, 0, 1] = 0.0, d
        cases.append((f"asymmetry={d!r}", a))
    return cases


class TestEdges:
    @pytest.mark.parametrize("a", [a for _, a in _edge_relations()],
                             ids=[name for name, _ in _edge_relations()])
    def test_whole_array_accept_matches_reference(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _outcome(make_hfpr_reference, a)
            got = _outcome(make_hfpr, a)
        assert got == want

    def test_edges_fall_on_both_sides(self):
        # At the edge a relation is accepted; one float past it, refused.
        outcomes = {name: _outcome(make_hfpr, a)
                    for name, a in _edge_relations()}
        accepted = {name for name, o in outcomes.items()
                    if isinstance(o, bytes)}
        assert accepted == {
            f"component={-TOL!r}", f"component={1.0 + TOL!r}",
            f"component={1.0 - TOL!r}", f"component={TOL!r}",
            f"sum={SUM_EDGE_TRIPLES[0]!r}", f"sum={SUM_EDGE_TRIPLES[2]!r}",
            f"asymmetry={ASYMMETRY_EDGES[0]!r}",
            f"asymmetry={ASYMMETRY_EDGES[2]!r}"}


class TestChannel:
    """Channel k of a relation is the real symmetric matrix values[..., k]."""

    def test_membership_matrix_as_printed(self, m1):
        expect = [[0, .4, .4, .3], [.4, 0, .4, .3],
                  [.4, .4, 0, .3], [.3, .3, .3, 0]]
        assert np.allclose(m1.values[..., 0], expect, atol=1e-12)

    def test_hesitancy_matrix_as_printed(self, m1):
        expect = [[0, .3, .2, .2], [.3, 0, .2, .2],
                  [.2, .2, 0, .2], [.2, .2, .2, 0]]
        assert np.allclose(m1.values[..., 2], expect, atol=1e-12)

    def test_all_channels_symmetric_zero_diagonal(self, experts):
        for h in experts:
            for k in range(len(CHANNELS)):
                c = h.values[..., k]
                assert np.array_equal(c, c.T)
                assert np.all(np.diag(c) == 0.0)

    def test_zero_relation_zero_channels(self):
        h = make_hfpr(np.zeros((3, 3, 3)))
        for k in range(len(CHANNELS)):
            assert not h.values[..., k].any()

    def test_channel_matrix_validates(self):
        # make_hfpr refuses a relation with a channel that has a nonzero
        # diagonal or is not symmetric.
        with pytest.raises(DiagonalNotZero):
            make_hfpr(with_membership(np.eye(2)))
        with pytest.raises(AsymmetricEntry):
            make_hfpr(with_membership([[0.0, 0.1], [0.2, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_matrix_rejects_non_finite(self, bad):
        # NaN compares False both ways, so it must fail the range check
        # itself rather than slip past it into an all-NaN Laplacian.
        with pytest.raises(TripleOutOfRange, match=r"\[0, 1\]"):
            make_hfpr(with_membership([[0.0, bad], [bad, 0.0]]))


def random_hfpr_reference(n, rng, labels=None):
    """random_hfpr as one draw per upper-triangle entry in row-major
    order, each rejected triple redrawn at once."""
    a = np.zeros((n, n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            while True:
                t = rng.uniform(0.0, 1.0, 3)
                s = t.sum()
                if s > 1.0:
                    t = t / s
                t = np.round(t, 4)
                if t.sum() <= 1.0:
                    break
            a[i, j] = t
            a[j, i] = t
    return make_hfpr(a, labels=labels)


class TestRandomHfpr:
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 63 - 1),
           stream=st.integers(0, 1000), labelled=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_entry_reference(self, n, seed, stream, labelled):
        # Same value bytes and labels, and the generator left in the same
        # state: the seed -> survey contract rests on the draw order.
        labels = [f"x{i}" for i in range(n)] if labelled else None
        rng, ref_rng = (np.random.default_rng([seed, stream])
                        for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = random_hfpr(n, rng, labels=labels)
            want = random_hfpr_reference(n, ref_rng, labels=labels)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.labels == want.labels
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_redraw_path_is_exercised(self):
        # Rounding can push a triple's sum over 1. The n = 16 relation of
        # seed 0 consumes more than one triple per entry, so the bulk
        # redraw runs.
        rng, plain = np.random.default_rng(0), np.random.default_rng(0)
        random_hfpr(16, rng)
        plain.uniform(0.0, 1.0, (16 * 15 // 2, 3))
        assert rng.bit_generator.state != plain.bit_generator.state

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


class TestPanel:
    def test_stacks_once_and_acts_as_its_relations(self, experts):
        panel = Panel.of(experts)
        assert panel.relations == tuple(experts)
        assert len(panel) == 3
        assert panel[1] is experts[1]
        assert list(panel) == list(experts)
        assert panel.values.shape == (3, 4, 4, 3)
        assert np.array_equal(panel.values,
                              np.stack([h.values for h in experts]))

    def test_channels_are_the_solver_layout(self, experts):
        # The bytes and the layout the eigensolver always took: the
        # stacked values with the channel axis second, contiguous.
        panel = Panel.of(experts)
        want = np.ascontiguousarray(np.stack(
            [h.values for h in experts]).transpose(0, 3, 1, 2))
        assert panel.channels.shape == (3, len(CHANNELS), 4, 4)
        assert panel.channels.flags.c_contiguous
        assert panel.channels.tobytes() == want.tobytes()

    def test_read_only(self, experts):
        panel = Panel.of(experts)
        for a in (panel.values, panel.channels):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0, 0] = 1.0

    def test_one_stack_with_values_a_view_of_it(self, experts):
        panel = Panel.of(experts)
        assert [f.name for f in dataclasses.fields(Panel)] == [
            "relations", "channels"]
        assert np.shares_memory(panel.values, panel.channels)
        assert panel.values.base is panel.channels
        assert not panel.values.flags.writeable

    def test_a_panel_is_returned_as_is(self, experts):
        panel = Panel.of(experts)
        assert Panel.of(panel) is panel

    def test_takes_any_iterable_of_relations(self, experts):
        panel = Panel.of(h for h in experts)
        assert panel.relations == tuple(experts)

    def test_one_relation_of_size_one(self):
        panel = Panel.of([make_hfpr(np.zeros((1, 1, 3)))])
        assert panel.values.shape == (1, 1, 1, 3)
        assert panel.channels.shape == (1, 3, 1, 1)

    def test_rejects_none_and_mixed_sizes(self, m1):
        with pytest.raises(NeedTwoExperts, match="^need at least 1 relation$"):
            Panel.of([])
        small = make_hfpr(np.zeros((5, 5, 3)))
        with pytest.raises(DimensionMismatch,
                           match=r"^mixed relation sizes \[4, 5\]$"):
            Panel.of([small, m1, small])


PUBLIC_SURFACE = [
    "AsymmetricEntry", "CHANNELS", "ComputationError",
    "DegenerateDenominator", "DiagonalNotZero", "DimensionMismatch",
    "EdgeExceedsVertexBound", "HFPR", "IdentityViolated",
    "IndexOutOfRange", "NEGATIVE_IDEAL", "NeedTwoExperts", "NoConvergence",
    "OverrideShapeMismatch", "Overrides", "POSITIVE_IDEAL", "Panel",
    "ParameterOutOfRange", "PipelineConfig", "RankingReport",
    "SchemaViolation", "SurveyRow", "TripleOutOfRange",
    "ValidationError", "VertexAttribute", "ZeroDenominator",
    "aggregate_hfpr", "blend_scores", "bounds_survey", "closeness", "core",
    "energies", "energy", "errors", "ideal_similarities",
    "laplacian_energies", "laplacian_energy", "make_hfpr",
    "mean_similarity_degree", "pair_similarity", "pipeline", "random_hfpr",
    "rank", "run", "similarity", "similarity_weights", "spectral",
    "uncertainty_scores",
]


def test_public_surface_is_pinned():
    # Adding or removing a public name must be a deliberate edit here.
    import hfgdm
    assert sorted(hfgdm.__all__) == PUBLIC_SURFACE


def test_relation_type_and_constructor_are_minimal():
    # One kind of relation: symmetric because make_hfpr built it, with no
    # flag to say so and no option to build another kind.
    import dataclasses
    import inspect
    assert [f.name for f in dataclasses.fields(HFPR)] == [
        "values", "labels", "vertex_attrs"]
    assert list(inspect.signature(make_hfpr).parameters) == [
        "entries", "labels", "vertex_attrs"]
