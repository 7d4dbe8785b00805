"""Energies, Laplacian energies, bounds, identities, and the survey.

The survey evaluates every bound for all same-size instances as one
stack. The per-relation scalar formulas it replaced are kept here as
survey_rows_reference and identity_residuals_reference, and the survey
rows must equal theirs exactly. Bounds are read only from survey rows:
fixture_survey_rows([h]) gives one relation's 15.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgdm import (
    CHANNELS,
    AsymmetricEntry,
    IdentityViolated,
    Panel,
    ParameterOutOfRange,
    TripleOutOfRange,
    bounds_survey,
    energy,
    laplacian_energy,
    make_hfpr,
    random_hfpr,
)
from hfgdm import spectral
from hfgdm._kernels import eigenvalues
from hfgdm.spectral import (SurveyRow, _group_sums, _identity_check,
                            _laplacians, _shifted, fixture_survey_rows)

from shared import with_membership

IDENTITY_NAMES = ("laplacian_trace", "laplacian_square", "shifted_sum",
                  "shifted_square")


def _reference_terms(h):
    """One relation's (3, n, n) channel stack and its Laplacian terms."""
    adj = np.ascontiguousarray(h.values.transpose(2, 0, 1))
    n = h.n
    iu, ju = np.triu_indices(n, 1)
    lap = adj.sum(axis=-1)[..., None] * np.eye(n) - adj
    w = np.linalg.eigvalsh(lap)
    d = lap.diagonal(axis1=-2, axis2=-1)
    upper = adj[:, iu, ju]
    s = upper.sum(axis=-1)
    w2 = np.square(upper).sum(axis=-1)
    shift = (2.0 * s / n)[:, None]
    psi = (w - shift)[:, ::-1]
    aux = w2 + 0.5 * np.square(d - shift).sum(axis=-1)
    return adj, (iu, ju), w, d, s, w2, psi, aux, np.abs(psi).sum(axis=-1)


def survey_rows_reference(key, h):
    """The 15 survey rows of one relation, one channel at a time with
    scalar formulas."""
    adj, (iu, ju), _, _, _, _, psi, aux, le = _reference_terms(h)
    w = np.linalg.eigvalsh(adj)
    upper = adj[:, iu, ju]
    w2 = np.square(upper).sum(axis=-1)
    prod = (upper * adj[:, ju, iu]).sum(axis=-1)
    rows = []
    for k, name in enumerate(CHANNELS):
        p = w[k].size
        e = float(np.abs(w[k]).sum())
        det = float(np.prod(w[k]))
        det_term = 0.0 if det == 0.0 else abs(det) ** (2.0 / p)
        lo = math.sqrt(p * (p - 1) * det_term + 2.0 * float(prod[k]))
        hi_frob = math.sqrt(2.0 * p * float(w2[k]))
        mean_sq = 2.0 * float(w2[k]) / p
        hi_ms = mean_sq + math.sqrt(
            (p - 1) * max(2.0 * float(w2[k]) - mean_sq ** 2, 0.0))
        applicable = 2.0 * float(w2[k]) >= p
        rows += [
            SurveyRow(key, h.n, name, "energy_determinant_bounds", e, lo,
                      hi_frob, lo - 1e-9 <= e <= hi_frob + 1e-9),
            SurveyRow(key, h.n, name, "energy_mean_square_upper", e, None,
                      hi_ms, e <= hi_ms + 1e-9 or not applicable),
        ]
    for k, name in enumerate(CHANNELS):
        n, a, v = psi[k].size, float(aux[k]), float(le[k])
        lo_spread = 2.0 * math.sqrt(a)
        hi_frob = math.sqrt(2.0 * n * a)
        psi1 = float(psi[k][0])
        hi_shift = psi1 + math.sqrt((n - 1) * max(2.0 * a - psi1 ** 2, 0.0))
        rows += [
            SurveyRow(key, h.n, name, "laplacian_energy_spread_lower", v,
                      lo_spread, None, v >= lo_spread - 1e-9),
            SurveyRow(key, h.n, name, "laplacian_energy_frobenius_upper", v,
                      None, hi_frob, v <= hi_frob + 1e-9),
            SurveyRow(key, h.n, name, "laplacian_energy_max_shift_upper", v,
                      None, hi_shift, v <= hi_shift + 1e-9),
        ]
    return rows


def identity_residuals_reference(h):
    """[(channel, identity, residual)] of one relation, in check order."""
    _, _, w, d, s, w2, psi, aux, _ = _reference_terms(h)
    out = []
    for k, name in enumerate(CHANNELS):
        values = (
            abs(float(w[k].sum()) - 2.0 * float(s[k])),
            abs(float(np.square(w[k]).sum())
                - (2.0 * float(w2[k]) + float(np.square(d[k]).sum()))),
            abs(float(psi[k].sum())),
            abs(float(np.square(psi[k]).sum()) - 2.0 * float(aux[k])),
        )
        out += [(name, i, r) for i, r in zip(IDENTITY_NAMES, values)]
    return out


def identity_scales_reference(h):
    """[(channel, identity, scale)] of one relation: max(1, |left|,
    |right|) over the two sides each identity compares, the shifted sum
    comparing the positive part of the shifted spectrum with the negated
    negative part."""
    _, _, w, d, s, w2, psi, aux, _ = _reference_terms(h)
    out = []
    for k, name in enumerate(CHANNELS):
        sides = (
            (float(w[k].sum()), 2.0 * float(s[k])),
            (float(np.square(w[k]).sum()),
             2.0 * float(w2[k]) + float(np.square(d[k]).sum())),
            (float(np.maximum(psi[k], 0.0).sum()),
             float(np.minimum(psi[k], 0.0).sum())),
            (float(np.square(psi[k]).sum()), 2.0 * float(aux[k])),
        )
        out += [(name, i, max(1.0, abs(a), abs(b)))
                for i, (a, b) in zip(IDENTITY_NAMES, sides)]
    return out


def bound_rows(h):
    """One relation's survey rows, keyed by (channel, quantity)."""
    return {(r.channel, r.quantity): r for r in fixture_survey_rows([h])}


def square_weight_sum(h, k):
    """W: the sum of squared upper-triangle weights of channel k."""
    c = h.values[..., k]
    return float(np.square(c[np.triu_indices(h.n, 1)]).sum())


def group_sums(h):
    """One relation's (15, 1, 3) survey sums, as a stack of one."""
    return _group_sums(Panel.of([h]).channels)


def exact(rows):
    """Rows with every float as its hex form, so -0.0 and NaN compare."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in (r.seed, r.n, r.channel, r.quantity, r.value,
                            r.bound_lo, r.bound_hi, r.satisfied))
            for r in rows]


def uniform_k3(w):
    """n = 3 relation with every off-diagonal triple (w, w, w)."""
    a = np.full((3, 3, 3), float(w))
    for i in range(3):
        a[i, i] = 0.0
    return make_hfpr(a)


def descending(a):
    """The spectrum of a symmetric matrix, largest eigenvalue first."""
    return eigenvalues(np.asarray(a, dtype=float))[::-1]


class TestSymmetricEigenvalues:
    def test_fixture_membership_spectrum(self, m1):
        got = descending(m1.values[..., 0])
        assert np.allclose(got, [1.0557, -0.2557, -0.4, -0.4], atol=1e-4)
        # exact: -0.4 twice plus the roots of x^2 - 0.8x - 0.27
        exact = sorted([(0.8 + math.sqrt(1.72)) / 2,
                        (0.8 - math.sqrt(1.72)) / 2, -0.4, -0.4],
                       reverse=True)
        assert np.allclose(got, exact, atol=1e-12)

    def test_two_by_two_exact(self):
        got = descending([[0.0, 0.37], [0.37, 0.0]])
        assert np.allclose(got, [0.37, -0.37], atol=1e-15)

    def test_zero_matrix(self):
        assert np.array_equal(descending(np.zeros((4, 4))), np.zeros(4))

    def test_descending_order_and_identities(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (6, 6))
        a = (a + a.T) / 2
        got = descending(a)
        assert np.all(np.diff(got) <= 1e-15)
        assert got.sum() == pytest.approx(np.trace(a), abs=1e-9)
        assert (got ** 2).sum() == pytest.approx((a ** 2).sum(), abs=1e-9)

    def test_rejects_asymmetric(self):
        # A spectrum is taken only of a relation, and make_hfpr refuses an
        # asymmetric one.
        with pytest.raises(AsymmetricEntry):
            make_hfpr(with_membership([[0.0, 0.2], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, at):
        # LAPACK would return a finite, wrong spectrum for a NaN entry, and
        # NaN slips past the symmetry tolerance, so make_hfpr's range check
        # refuses it first and names the entry.
        c = np.array([[0.0, 0.3], [0.3, 0.0]])
        c[at] = bad
        with pytest.raises(
                TripleOutOfRange,
                match=rf"at entry \({at[0]}, {at[1]}\) outside \[0, 1\]"):
            make_hfpr(with_membership(c))


class TestEnergy:
    def test_fixture_energies_published(self, experts):
        published = [(2.1114, 2.2436, 1.3062),
                     (1.4223, 2.7133, 0.9292),
                     (1.6317, 2.0204, 1.8034)]
        for h, want in zip(experts, published):
            assert np.allclose(energy(h), want, atol=1e-3)

    def test_first_expert_membership_closed_form(self, m1):
        # E = 0.8 + sqrt(1.72): quartic factors as in the kernel test.
        assert energy(m1)[0] == pytest.approx(0.8 + math.sqrt(1.72),
                                              abs=1e-12)

    def test_zero_relation(self):
        assert energy(make_hfpr(np.zeros((3, 3, 3)))).tolist() == [0, 0, 0]

    def test_permutation_invariance(self, m2):
        perm = [2, 0, 3, 1]
        shuffled = make_hfpr(m2.values[np.ix_(perm, perm)])
        assert np.allclose(energy(shuffled), energy(m2), atol=1e-9)

    def test_scaling_homogeneity(self, m3):
        scaled = make_hfpr(m3.values * 0.5)
        assert np.allclose(energy(scaled), 0.5 * energy(m3), atol=1e-9)


class TestLaplacian:
    def test_structure(self, m1):
        lap = _laplacians(m1.values[..., 0])
        assert np.allclose(np.diag(lap), (1.1, 1.1, 1.1, 0.9), atol=1e-12)
        assert np.allclose(lap - np.diag(np.diag(lap)),
                           -m1.values[..., 0], atol=1e-12)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_fixture_membership_laplacian_spectrum(self, m1):
        got = descending(_laplacians(m1.values[..., 0]))
        assert np.allclose(got, [1.5, 1.5, 1.2, 0.0], atol=1e-9)

    def test_laplacian_spectrum_properties(self, experts):
        for h in experts:
            for k in range(len(CHANNELS)):
                c = h.values[..., k]
                eig = descending(_laplacians(c))
                two_s = c.sum()
                assert eig.sum() == pytest.approx(two_s, abs=1e-9)
                assert eig.min() == pytest.approx(0.0, abs=1e-8)

    def test_zero_matrix(self):
        assert not _laplacians(np.zeros((3, 3))).any()


class TestLaplacianEnergy:
    def test_fixture_values(self, experts):
        computed = [(2.1, 2.2, 1.3), (1.8, 2.7, 1.0), (1.6, 2.0, 2.4)]
        for h, want in zip(experts, computed):
            assert np.allclose(laplacian_energy(h), want, atol=1e-9)

    def test_first_expert_membership_by_hand(self, m1):
        # shift 2S/n = 1.05 against spectrum {1.5, 1.5, 1.2, 0}:
        # 0.45 + 0.45 + 0.15 + 1.05 = 2.10 exactly.
        assert laplacian_energy(m1)[0] == pytest.approx(2.10, abs=1e-12)

    def test_zero_relation(self):
        le = laplacian_energy(make_hfpr(np.zeros((2, 2, 3))))
        assert le.tolist() == [0, 0, 0]

    def test_scaling_homogeneity(self, m2):
        scaled = make_hfpr(m2.values * 0.25)
        assert np.allclose(laplacian_energy(scaled),
                           0.25 * laplacian_energy(m2), atol=1e-9)


class TestEnergyBounds:
    def test_fixture_membership_closed_forms(self, m1):
        rows = bound_rows(m1)
        det = rows["membership", "energy_determinant_bounds"]
        km = rows["membership", "energy_mean_square_upper"]
        # det = product of eigenvalues = 0.16 * (-0.27) = -0.0432 exactly
        lo = math.sqrt(12 * math.sqrt(0.0432) + 1.5)
        assert det.bound_lo == pytest.approx(lo, abs=1e-12)
        # Frobenius upper bound sqrt(2 * 4 * 0.75) = sqrt(6); the
        # mean-square bound is tighter but out of hypothesis here
        assert det.bound_hi == pytest.approx(math.sqrt(6), abs=1e-12)
        assert det.satisfied
        assert km.bound_hi == pytest.approx(
            0.375 + math.sqrt(3 * (1.5 - 0.375 ** 2)), abs=1e-12)
        assert 2.0 * square_weight_sum(m1, 0) < m1.n
        assert km.satisfied

    def test_mean_square_bound_out_of_hypothesis_case(self):
        # Equal-weight triangle with w = 0.2: the raw bound expression is
        # exceeded (0.8 > 0.7635...) but its hypothesis 2 sum(w^2) >= p
        # fails, so the row is vacuously satisfied.
        h = uniform_k3(0.2)
        rows = bound_rows(h)
        km = rows["membership", "energy_mean_square_upper"]
        assert km.value > km.bound_hi
        assert 2.0 * square_weight_sum(h, 0) < h.n
        assert km.satisfied
        assert rows["membership", "energy_determinant_bounds"].satisfied

    def test_mean_square_bound_equality_case(self):
        # Complete graph with unit membership: energy 4 equals the bound,
        # and the hypothesis 2 * 3 >= 3 holds.
        a = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    a[i, j] = (1.0, 0.0, 0.0)
        h = make_hfpr(a)
        km = bound_rows(h)["membership", "energy_mean_square_upper"]
        assert 2.0 * square_weight_sum(h, 0) >= h.n
        assert km.satisfied
        assert km.value == pytest.approx(4.0, abs=1e-9)
        assert km.bound_hi == pytest.approx(4.0, abs=1e-9)

    def test_all_fixture_channels_satisfied(self, experts):
        for h in experts:
            for (_, quantity), r in bound_rows(h).items():
                if not quantity.startswith("energy_"):
                    continue
                assert r.satisfied
                if r.bound_lo is not None:
                    assert r.bound_lo <= r.value + 1e-9
                assert r.value <= r.bound_hi + 1e-9


class TestLaplacianBounds:
    def test_fixture_membership_closed_forms(self, m1):
        rows = bound_rows(m1)
        # aux = sum(w^2) + dev/2 = 0.75 + 0.015 = 0.765, from the sums
        # the survey bounds read
        sums = group_sums(m1)
        assert sums[2, 0, 0] + 0.5 * sums[5, 0, 0] == pytest.approx(
            0.765, abs=1e-12)
        spread = rows["membership", "laplacian_energy_spread_lower"]
        frob = rows["membership", "laplacian_energy_frobenius_upper"]
        shift = rows["membership", "laplacian_energy_max_shift_upper"]
        assert spread.bound_lo == pytest.approx(2 * math.sqrt(0.765),
                                                abs=1e-12)
        assert frob.bound_hi == pytest.approx(math.sqrt(8 * 0.765),
                                              abs=1e-12)
        # largest shifted eigenvalue 1.5 - 1.05 = 0.45
        assert shift.bound_hi == pytest.approx(
            0.45 + math.sqrt(3 * (1.53 - 0.45 ** 2)), abs=1e-12)
        assert min(frob.bound_hi, shift.bound_hi) == pytest.approx(
            2.4456202043475104, abs=1e-12)
        assert spread.satisfied and frob.satisfied and shift.satisfied

    def test_all_fixture_channels_satisfied(self, experts):
        for h in experts:
            for (_, quantity), r in bound_rows(h).items():
                if quantity.startswith("laplacian_"):
                    assert r.satisfied


class TestEigenIdentities:
    def test_fixture_membership(self, m1):
        sums = group_sums(m1)
        residuals, _ = _identity_check(sums)
        trace = IDENTITY_NAMES.index("laplacian_trace")
        assert residuals[0, 0, trace] == pytest.approx(0.0, abs=1e-12)
        assert residuals[0, 0].max() < 1e-12
        adj = Panel.of([m1]).channels
        shifted = _shifted(eigenvalues(_laplacians(adj)), sums[4],
                           m1.n)[0, 0].tolist()
        assert np.allclose(shifted, (0.45, 0.45, 0.15, -1.05), atol=1e-9)
        assert sum(shifted) == pytest.approx(0.0, abs=1e-12)
        assert sum(x ** 2 for x in shifted) == pytest.approx(
            2 * 0.765, abs=1e-12)
        # the survey's sums of the shifted spectrum: psi1, sum, sum of
        # squares
        assert sums[[7, 11, 12], 0, 0] == pytest.approx(
            [0.45, 0.0, 2 * 0.765], abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            h = random_hfpr(6, rng)
            residuals, _ = _identity_check(group_sums(h))
            assert residuals.max() < 1e-8
            fixture_survey_rows([h])  # raises if an identity fails


def _hex_triples(triples):
    return [tuple(v.hex() for v in t) for t in np.asarray(triples).tolist()]


class TestStackedEnergies:
    """A panel's energies come from one stack per kind; each relation's
    must equal, bit for bit, what it gives alone and what one matrix at a
    time through eigvalsh gives."""

    @pytest.mark.parametrize("n, l, seed", [(1, 3, 0), (2, 5, 1), (4, 3, 2),
                                            (7, 12, 3), (10, 12, 4),
                                            (16, 6, 5)])
    def test_stack_equals_each_relation_alone(self, n, l, seed):
        rng = np.random.default_rng(seed)
        rels = [random_hfpr(n, rng) for _ in range(l)]
        stacked = spectral.energies(rels)
        stacked_lap = spectral.laplacian_energies(rels)
        assert _hex_triples(stacked) == _hex_triples(
            [energy(h) for h in rels])
        assert _hex_triples(stacked_lap) == _hex_triples(
            [laplacian_energy(h) for h in rels])
        one_matrix_at_a_time = [
            tuple(float(np.abs(np.linalg.eigvalsh(h.values[..., k])).sum())
                  for k in range(len(CHANNELS))) for h in rels]
        assert _hex_triples(stacked) == [
            tuple(v.hex() for v in t) for t in one_matrix_at_a_time]
        reference_lap = [tuple(_reference_terms(h)[-1].tolist()) for h in rels]
        assert _hex_triples(stacked_lap) == [
            tuple(v.hex() for v in t) for t in reference_lap]

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           l=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_energies_equal_survey_values(self, seed, n, l):
        # run and energy read energies and laplacian_energies; verify-bounds
        # reads the survey rows. All three must report one number.
        rng = np.random.default_rng(seed)
        panel = Panel.of([random_hfpr(n, rng) for _ in range(l)])
        kinds = {"energy": spectral.energies(panel),
                 "laplacian": spectral.laplacian_energies(panel)}
        rows = fixture_survey_rows(panel)
        assert len(rows) == 15 * l
        for r in rows:
            want = kinds[r.quantity.split("_")[0]][
                r.seed, CHANNELS.index(r.channel)]
            assert r.value.hex() == float(want).hex(), r

    def test_read_only_arrays(self, experts):
        for kind, one in ((spectral.energies, energy),
                          (spectral.laplacian_energies, laplacian_energy)):
            stacked = kind(experts)
            assert stacked.shape == (len(experts), len(CHANNELS))
            assert one(experts[0]).shape == (len(CHANNELS),)
            for a in (stacked, one(experts[0])):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0

    def test_mixed_sizes_and_no_relations_rejected(self, m1):
        from hfgdm import DimensionMismatch, NeedTwoExperts
        mixed = [m1, random_hfpr(3, np.random.default_rng(1))]
        for kind in (spectral.energies, spectral.laplacian_energies):
            with pytest.raises(DimensionMismatch,
                               match=r"^mixed relation sizes \[3, 4\]$"):
                kind(mixed)
            with pytest.raises(NeedTwoExperts):
                kind([])


class TestSurvey:
    def test_smoke_row_count_and_shape(self):
        rows = bounds_survey(seed=7, count=1, n_range=(2, 2))
        assert len(rows) == 15  # (2 energy + 3 laplacian) x 3 channels
        assert all(r.n == 2 for r in rows)
        quantities = {r.quantity for r in rows}
        assert quantities == {
            "energy_determinant_bounds", "energy_mean_square_upper",
            "laplacian_energy_spread_lower",
            "laplacian_energy_frobenius_upper",
            "laplacian_energy_max_shift_upper"}

    def test_deterministic(self):
        a = bounds_survey(seed=5, count=3, n_range=(3, 5))
        b = bounds_survey(seed=5, count=3, n_range=(3, 5))
        assert a == b

    def test_no_violations_on_modest_run(self):
        rows = bounds_survey(seed=42, count=60, n_range=(3, 8))
        assert len(rows) == 60 * 15
        assert all(r.satisfied for r in rows)

    def test_fixture_rows(self, experts):
        rows = fixture_survey_rows(experts)
        assert len(rows) == 45
        assert all(r.satisfied for r in rows)
        first = rows[0]
        assert (first.seed, first.channel) == (0, "membership")
        assert first.quantity == "energy_determinant_bounds"
        assert first.value == pytest.approx(2.1114877048604, abs=1e-12)
        assert first.bound_lo == pytest.approx(1.9985377561855526, abs=1e-12)
        km = rows[1]
        assert km.quantity == "energy_mean_square_upper"
        assert km.bound_hi == pytest.approx(2.394436802675439, abs=1e-12)
        # every printed bound is numerically satisfied on the fixtures
        for r in rows:
            if r.bound_lo is not None:
                assert r.bound_lo <= r.value + 1e-9
            if r.bound_hi is not None:
                assert r.value <= r.bound_hi + 1e-9


    @pytest.mark.parametrize("n_range, count, blocks", [
        ((3, 8), 600, [256, 256, 88]),
        ((1, 104), 300, [256, 44]),        # 3 * 104^2 * 8 B * 256 < 64 MB
        ((3, 105), 300, [253, 47]),
        ((512, 512), 25, [10, 10, 5]),     # 6 MB a relation
        ((3000, 3000), 2, [1, 1]),         # one relation exceeds the cap
    ])
    def test_block_bytes_capped_from_the_largest_size(
            self, monkeypatch, n_range, count, blocks):
        # Stubs record what would be drawn and evaluated; nothing large
        # is allocated. The sizes drawn, and so the rows, keep their seeds.
        drawn, sizes = [], []

        def draw(n, rng):
            drawn.append(n)
            return n

        def rows(block, first_key):
            sizes.append((len(block), first_key))
            return []
        monkeypatch.setattr(spectral, "random_hfpr", draw)
        monkeypatch.setattr(spectral, "_survey_rows", rows)
        assert bounds_survey(seed=3, count=count, n_range=n_range) == []
        assert [k for k, _ in sizes] == blocks
        assert [key for _, key in sizes] == [
            sum(blocks[:i]) for i in range(len(blocks))]
        lo, hi = n_range
        assert drawn == [int(np.random.default_rng([3, k]).integers(
            lo, hi + 1)) for k in range(count)]


def _survey_relations(seed, count, n_range):
    lo, hi = n_range
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        out.append(random_hfpr(int(rng.integers(lo, hi + 1)), rng))
    return out


class TestDeterminantTerm:
    """|det|^(2/p) of the energy lower bound, at spectra whose eigenvalue
    product leaves the float range."""

    @pytest.mark.parametrize("spectrum, want", [
        ([10.0] * 400, 100.0),                # product 1e400 overflows
        ([-10.0] * 399 + [10.0], 100.0),      # and its sign is dropped
        ([0.1] * 400, 0.01),                  # product 1e-400 underflows
        ([1e-160, 1e-160, 1.0], 10.0 ** (-640.0 / 3.0)),  # subnormal
        ([10.0] * 399 + [0.0], 0.0),          # inf * 0: still a zero det
        ([0.0] + [10.0] * 399, 0.0),
    ])
    def test_log_domain_outside_float_range(self, spectrum, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral._det_term(np.array([spectrum]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_python_pow_where_product_is_normal(self):
        # One stack mixing both paths: the normal rows keep the bytes of
        # Python float pow on the product, as the survey's goldens need.
        w = np.array([[[0.5, -0.2, 0.3], [1e120, 1e120, 1e120]],
                      [[0.0, 0.4, 0.9], [-0.7, 0.1, 0.25]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral._det_term(w)
        for (b, c), want in (((0, 0), abs(0.5 * -0.2 * 0.3) ** (2.0 / 3)),
                             ((1, 0), 0.0),
                             ((1, 1), abs(-0.7 * 0.1 * 0.25) ** (2.0 / 3))):
            assert got[b, c].hex() == want.hex()
        assert got[0, 1] == pytest.approx(1e240, rel=1e-12)

    def test_survey_at_800_alternatives(self):
        # The eigenvalue product of an 800 x 800 channel overflows. The
        # determinant rows must carry the finite lower bound that slogdet
        # gives, and no row may be reported violated.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = bounds_survey(seed=5, count=1, n_range=(800, 800))
        assert len(rows) == 15 and all(r.satisfied for r in rows)
        h, = _survey_relations(5, 1, (800, 800))
        det_rows = [r for r in rows
                    if r.quantity == "energy_determinant_bounds"]
        for k, row in enumerate(det_rows):
            c = h.values[..., k]
            logdet = np.linalg.slogdet(c)[1]
            w2 = np.square(c[np.triu_indices(800, 1)]).sum()
            lo = math.sqrt(800 * 799 * math.exp(logdet / 400) + 2.0 * w2)
            assert row.bound_lo == pytest.approx(lo, rel=1e-9)
            assert row.bound_lo <= row.value <= row.bound_hi


class TestStackedAgainstScalarReference:
    @pytest.mark.parametrize("seed", [1, 9, 42])
    @pytest.mark.parametrize("block", [7, spectral.SURVEY_BLOCK])
    def test_survey_rows_equal_reference(self, seed, block, monkeypatch):
        # n = 1..12 gives n = 1 and 2 and groups of mixed size; a block of
        # 7 spreads the instances over several blocks.
        monkeypatch.setattr(spectral, "SURVEY_BLOCK", block)
        relations = _survey_relations(seed, 40, (1, 12))
        assert {1, 2} <= {h.n for h in relations}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bounds_survey(seed=seed, count=40, n_range=(1, 12))
        want = [row for k, h in enumerate(relations)
                for row in survey_rows_reference(k, h)]
        assert exact(got) == exact(want)

    @pytest.mark.parametrize("seed, k, n_range",
                             [(42, 138, (3, 8)), (83, 20, (1, 12))])
    def test_pow_terms_match_python_pow(self, seed, k, n_range):
        # On these survey instances numpy's array power differs from
        # Python's float pow in the last bit of a printed bound: psi1^2 in
        # the max-shift bound of the first, (2W/p)^2 in the mean-square
        # bound of the second.
        rng = np.random.default_rng([seed, k])
        h = random_hfpr(int(rng.integers(n_range[0], n_range[1] + 1)), rng)
        assert exact(fixture_survey_rows([h])) == \
            exact(survey_rows_reference(0, h))

    def test_fixture_rows_equal_reference(self, experts):
        relations = list(experts) + [
            random_hfpr(n, np.random.default_rng(n)) for n in (2, 7, 4, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fixture_survey_rows(relations)
        want = [row for k, h in enumerate(relations)
                for row in survey_rows_reference(k, h)]
        assert exact(got) == exact(want)

    def test_identity_residuals_and_scales_equal_reference(self, experts):
        relations = list(experts) + [
            random_hfpr(n, np.random.default_rng(n)) for n in (1, 2, 9)]
        for h in relations:
            residuals, scales = _identity_check(group_sums(h))
            got = [(name, identity, float(r), float(sc))
                   for name, rs, ss in zip(CHANNELS, residuals[0], scales[0])
                   for identity, r, sc in zip(IDENTITY_NAMES, rs, ss)]
            want = [(name, identity, r, sc) for (name, identity, r),
                    (_, _, sc) in zip(identity_residuals_reference(h),
                                      identity_scales_reference(h))]
            assert got == want


class TestIdentityFailure:
    def test_single_relation_names_first_channel_and_identity(
            self, m1, monkeypatch):
        monkeypatch.setattr(spectral, "IDENTITY_TOL", -1.0)
        with pytest.raises(IdentityViolated) as err:
            fixture_survey_rows([m1])
        want = identity_residuals_reference(m1)[0]
        assert (err.value.channel, err.value.identity,
                err.value.residual) == want

    def test_first_failing_instance_wins_over_group_order(self, monkeypatch):
        # The zero relation (instance 0, n = 3) has exact-zero residuals;
        # instances 1 (n = 5) and 2 (n = 3) do not. With a zero tolerance
        # both fail. The n = 3 group is evaluated first, but instance 1
        # comes first and must be the one reported.
        zero = make_hfpr(np.zeros((3, 3, 3)))
        b = random_hfpr(5, np.random.default_rng(5))
        c = random_hfpr(3, np.random.default_rng(3))
        want = next(x for x in identity_residuals_reference(b) if x[2] > 0)
        assert any(x[2] > 0 for x in identity_residuals_reference(c))
        assert not any(x[2] > 0 for x in identity_residuals_reference(zero))
        monkeypatch.setattr(spectral, "IDENTITY_TOL", 0.0)
        with pytest.raises(IdentityViolated) as err:
            fixture_survey_rows([zero, b, c])
        assert (err.value.channel, err.value.identity,
                err.value.residual) == want

    def test_survey_reports_first_failing_instance(self, monkeypatch):
        # The tolerance sits at the largest scaled residual of the first
        # block of 7 instances, so the first instance over it lies in a
        # later block and in another size group than instance 0.
        seed, count, n_range = 6, 40, (1, 12)
        relations = _survey_relations(seed, count, n_range)
        judged = [list(zip(identity_residuals_reference(h),
                           identity_scales_reference(h)))
                  for h in relations]
        tol = max(r / sc for pairs in judged[:7]
                  for (_, _, r), (_, _, sc) in pairs)
        k, want = next((k, x) for k, pairs in enumerate(judged)
                       for x, (_, _, sc) in pairs if x[2] > tol * sc)
        assert k >= 7 and relations[k].n != relations[0].n
        monkeypatch.setattr(spectral, "IDENTITY_TOL", tol)
        monkeypatch.setattr(spectral, "SURVEY_BLOCK", 7)
        with pytest.raises(IdentityViolated) as err:
            bounds_survey(seed=seed, count=count, n_range=n_range)
        assert (err.value.channel, err.value.identity,
                err.value.residual) == want


class TestSurveyArguments:
    """bounds_survey checks its arguments before drawing anything."""

    @pytest.mark.parametrize("given_args, name", [
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"count": -3}, "count"),
        ({"count": True}, "count"),
        ({"n_range": (5, 3)}, "n_range"),
        ({"n_range": (3.5, 4)}, "n_range"),
        ({"n_range": (3, 4.0)}, "n_range"),
        ({"n_range": (0, 3)}, "n_range"),
    ])
    def test_out_of_range_argument_is_named(self, monkeypatch, given_args,
                                            name):
        def draw(n, rng):
            raise AssertionError("drew before checking the arguments")
        monkeypatch.setattr(spectral, "random_hfpr", draw)
        args = {"seed": 1, "count": 2, "n_range": (3, 4)} | given_args
        with pytest.raises(ParameterOutOfRange, match=rf"^{name}\b"):
            bounds_survey(**args)

    def test_count_zero_gives_no_rows(self):
        assert bounds_survey(seed=1, count=0) == []

    def test_numpy_integers_accepted(self):
        got = bounds_survey(seed=np.int64(5), count=np.int32(3),
                            n_range=(np.int64(3), np.uint8(5)))
        assert got == bounds_survey(seed=5, count=3, n_range=(3, 5))

    def test_numpy_integer_shown_as_a_plain_int(self):
        with pytest.raises(ParameterOutOfRange) as err:
            bounds_survey(count=np.int64(-1))
        assert str(err.value) == "count = -1 must be an integer of at least 0"


class TestBlockPass:
    """Each size group's sums are scattered into one block, which is
    bounded and checked once; every row must keep the bytes of the
    one-relation reference however the instances fall into blocks and
    groups."""

    def test_no_relations_give_no_rows(self):
        assert fixture_survey_rows([]) == []

    def test_rows_are_tuples_in_column_order(self, m1):
        row = fixture_survey_rows([m1])[0]
        assert isinstance(row, tuple)
        assert SurveyRow._fields == ("seed", "n", "channel", "quantity",
                                     "value", "bound_lo", "bound_hi",
                                     "satisfied")
        assert tuple(row) == (row.seed, row.n, row.channel, row.quantity,
                              row.value, row.bound_lo, row.bound_hi,
                              row.satisfied)

    @pytest.mark.parametrize("block", [3, 256])
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 30),
           ends=st.tuples(st.integers(1, 12), st.integers(1, 12)))
    @settings(max_examples=15, deadline=None)
    def test_survey_equals_reference(self, block, seed, count, ends):
        n_range = (min(ends), max(ends))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "SURVEY_BLOCK", block)
            got = bounds_survey(seed=seed, count=count, n_range=n_range)
        want = [row for k, h in enumerate(
                    _survey_relations(seed, count, n_range))
                for row in survey_rows_reference(k, h)]
        assert exact(got) == exact(want)


class TestScaling:
    """Energy and Laplacian energy are homogeneous of degree 1: scaling a
    relation by t in (0, 1] scales both by t, and so every bound side the
    survey prints, except the mean-square bound, whose hypothesis
    2 sum w^2 >= p is not scale-free. t stays at or above 1e-6, where the
    squares and products the bounds form stay normal floats; far below it
    they underflow, and no float computation can keep the property."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10),
           l=st.integers(1, 4),
           t=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_energies_scale_by_t(self, seed, n, l, t):
        rng = np.random.default_rng(seed)
        rels = [random_hfpr(n, rng) for _ in range(l)]
        scaled = [make_hfpr(t * h.values) for h in rels]
        for kind in (spectral.energies, spectral.laplacian_energies):
            np.testing.assert_allclose(kind(scaled), t * kind(rels),
                                       rtol=1e-12, atol=0.0)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10),
           t=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_survey_rows_scale_by_t(self, seed, n, t):
        h = random_hfpr(n, np.random.default_rng(seed))
        rows = fixture_survey_rows([h])
        scaled = fixture_survey_rows([make_hfpr(t * h.values)])
        for r, s in zip(rows, scaled):
            assert (s.channel, s.quantity) == (r.channel, r.quantity)
            sides = [("value", r.value, s.value),
                     ("bound_lo", r.bound_lo, s.bound_lo)]
            if r.quantity != "energy_mean_square_upper":
                sides.append(("bound_hi", r.bound_hi, s.bound_hi))
            for field, v, sv in sides:
                if v is None:
                    assert sv is None, (r.quantity, field)
                else:
                    assert sv == pytest.approx(t * v, rel=1e-12, abs=0.0), \
                        (r.channel, r.quantity, field)
