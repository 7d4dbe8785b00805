"""Energies, Laplacian energies, bounds, identities, and the survey."""
import math

import numpy as np
import pytest

from hfgdm import (
    CHANNELS,
    NotSymmetric,
    ParameterOutOfRange,
    bounds_survey,
    channel,
    check_energy_bounds,
    check_laplacian_bounds,
    eigen_identities,
    energy,
    laplacian,
    laplacian_energy,
    make_hfpr,
    symmetric_eigenvalues,
)
from hfgdm.spectral import fixture_survey_rows


def uniform_k3(w):
    """n = 3 relation with every off-diagonal triple (w, w, w)."""
    a = np.full((3, 3, 3), float(w))
    for i in range(3):
        a[i, i] = 0.0
    return make_hfpr(a)


class TestSymmetricEigenvalues:
    def test_fixture_membership_spectrum(self, m1):
        got = symmetric_eigenvalues(channel(m1, "membership"))
        assert np.allclose(got.eigenvalues,
                           [1.0557, -0.2557, -0.4, -0.4], atol=1e-4)
        # exact: -0.4 twice plus the roots of x^2 - 0.8x - 0.27
        exact = sorted([(0.8 + math.sqrt(1.72)) / 2,
                        (0.8 - math.sqrt(1.72)) / 2, -0.4, -0.4],
                       reverse=True)
        assert np.allclose(got.eigenvalues, exact, atol=1e-12)

    def test_two_by_two_exact(self):
        got = symmetric_eigenvalues(np.array([[0.0, 0.37], [0.37, 0.0]]))
        assert np.allclose(got.eigenvalues, [0.37, -0.37], atol=1e-15)

    def test_zero_matrix(self):
        got = symmetric_eigenvalues(np.zeros((4, 4)))
        assert np.array_equal(got.eigenvalues, np.zeros(4))

    def test_descending_order_and_identities(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (6, 6))
        a = (a + a.T) / 2
        got = np.asarray(symmetric_eigenvalues(a).eigenvalues)
        assert np.all(np.diff(got) <= 1e-15)
        assert got.sum() == pytest.approx(np.trace(a), abs=1e-9)
        assert (got ** 2).sum() == pytest.approx((a ** 2).sum(), abs=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(np.array([[0.0, 0.2], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, at):
        # LAPACK would return a finite, wrong spectrum for a NaN entry, and
        # NaN slips past the symmetry tolerance, so finiteness is checked
        # first and names the entry.
        a = np.array([[0.0, 0.3], [0.3, 1.0]])
        a[at] = bad
        with pytest.raises(ParameterOutOfRange,
                           match=rf"entry \({at[0]}, {at[1]}\) = .*not finite"):
            symmetric_eigenvalues(a)


class TestEnergy:
    def test_fixture_energies_published(self, experts):
        published = [(2.1114, 2.2436, 1.3062),
                     (1.4223, 2.7133, 0.9292),
                     (1.6317, 2.0204, 1.8034)]
        for h, want in zip(experts, published):
            assert np.allclose(energy(h).as_array(), want, atol=1e-3)

    def test_first_expert_membership_closed_form(self, m1):
        # E = 0.8 + sqrt(1.72): quartic factors as in the kernel test.
        assert energy(m1).e_mu == pytest.approx(0.8 + math.sqrt(1.72),
                                                abs=1e-12)

    def test_zero_relation(self):
        assert energy(make_hfpr(np.zeros((3, 3, 3)))).as_tuple() == (0, 0, 0)

    def test_permutation_invariance(self, m2):
        perm = [2, 0, 3, 1]
        shuffled = make_hfpr(m2.values[np.ix_(perm, perm)])
        assert np.allclose(energy(shuffled).as_array(),
                           energy(m2).as_array(), atol=1e-9)

    def test_scaling_homogeneity(self, m3):
        scaled = make_hfpr(m3.values * 0.5)
        assert np.allclose(energy(scaled).as_array(),
                           0.5 * energy(m3).as_array(), atol=1e-9)


class TestLaplacian:
    def test_structure(self, m1):
        lap = laplacian(channel(m1, "membership"))
        assert np.allclose(np.diag(lap), (1.1, 1.1, 1.1, 0.9), atol=1e-12)
        assert np.allclose(lap - np.diag(np.diag(lap)),
                           -channel(m1, "membership").values, atol=1e-12)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_fixture_membership_laplacian_spectrum(self, m1):
        got = symmetric_eigenvalues(laplacian(channel(m1, "membership")))
        assert np.allclose(got.eigenvalues, [1.5, 1.5, 1.2, 0.0], atol=1e-9)

    def test_laplacian_spectrum_properties(self, experts):
        for h in experts:
            for name in CHANNELS:
                c = channel(h, name)
                eig = np.asarray(symmetric_eigenvalues(laplacian(c))
                                 .eigenvalues)
                two_s = c.values.sum()
                assert eig.sum() == pytest.approx(two_s, abs=1e-9)
                assert eig.min() == pytest.approx(0.0, abs=1e-8)

    def test_zero_matrix(self):
        from hfgdm import ChannelMatrix
        z = ChannelMatrix(values=np.zeros((3, 3)), channel="membership")
        assert not laplacian(z).any()


class TestLaplacianEnergy:
    def test_fixture_values(self, experts):
        computed = [(2.1, 2.2, 1.3), (1.8, 2.7, 1.0), (1.6, 2.0, 2.4)]
        for h, want in zip(experts, computed):
            assert np.allclose(laplacian_energy(h).as_array(), want,
                               atol=1e-9)

    def test_first_expert_membership_by_hand(self, m1):
        # shift 2S/n = 1.05 against spectrum {1.5, 1.5, 1.2, 0}:
        # 0.45 + 0.45 + 0.15 + 1.05 = 2.10 exactly.
        assert laplacian_energy(m1).e_mu == pytest.approx(2.10, abs=1e-12)

    def test_zero_relation(self):
        le = laplacian_energy(make_hfpr(np.zeros((2, 2, 3))))
        assert le.as_tuple() == (0, 0, 0)

    def test_scaling_homogeneity(self, m2):
        scaled = make_hfpr(m2.values * 0.25)
        assert np.allclose(laplacian_energy(scaled).as_array(),
                           0.25 * laplacian_energy(m2).as_array(), atol=1e-9)


class TestEnergyBounds:
    def test_fixture_membership_closed_forms(self, m1):
        s = check_energy_bounds(m1)[0]
        assert s.channel == "membership"
        # det = product of eigenvalues = 0.16 * (-0.27) = -0.0432 exactly
        lo = math.sqrt(12 * math.sqrt(0.0432) + 1.5)
        assert s.bound_lo == pytest.approx(lo, abs=1e-12)
        # summary upper bound: Frobenius sqrt(2 * 4 * 0.75) = sqrt(6); the
        # mean-square bound is tighter but out of hypothesis here
        assert s.bound_hi == pytest.approx(math.sqrt(6), abs=1e-12)
        assert s.satisfied
        km = {c.quantity: c for c in s.checks}["energy_mean_square_upper"]
        assert km.upper == pytest.approx(
            0.375 + math.sqrt(3 * (1.5 - 0.375 ** 2)), abs=1e-12)
        assert not km.applicable
        assert km.satisfied

    def test_mean_square_bound_out_of_hypothesis_case(self):
        # Equal-weight triangle with w = 0.2: the raw bound expression is
        # exceeded (0.8 > 0.7635...) but its hypothesis 2 sum(w^2) >= p
        # fails, so the check is vacuously satisfied and flagged
        # inapplicable.
        s = check_energy_bounds(uniform_k3(0.2))[0]
        km = {c.quantity: c for c in s.checks}["energy_mean_square_upper"]
        assert km.value > km.upper
        assert not km.applicable
        assert km.satisfied
        assert s.satisfied

    def test_mean_square_bound_equality_case(self):
        # Complete graph with unit membership: energy 4 equals the bound,
        # and the hypothesis 2 * 3 >= 3 holds.
        a = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    a[i, j] = (1.0, 0.0, 0.0)
        s = check_energy_bounds(make_hfpr(a))[0]
        km = {c.quantity: c for c in s.checks}["energy_mean_square_upper"]
        assert km.applicable
        assert km.satisfied
        assert km.value == pytest.approx(4.0, abs=1e-9)
        assert km.upper == pytest.approx(4.0, abs=1e-9)

    def test_all_fixture_channels_satisfied(self, experts):
        for h in experts:
            for s in check_energy_bounds(h):
                assert s.satisfied
                assert s.bound_lo <= s.value + 1e-9
                assert s.value <= s.bound_hi + 1e-9


class TestLaplacianBounds:
    def test_fixture_membership_closed_forms(self, m1):
        s = check_laplacian_bounds(m1)[0]
        # aux = sum(w^2) + dev/2 = 0.75 + 0.015 = 0.765
        assert s.aux == pytest.approx(0.765, abs=1e-12)
        assert s.bound_lo == pytest.approx(2 * math.sqrt(0.765), abs=1e-12)
        by_name = {c.quantity: c for c in s.checks}
        assert by_name["laplacian_energy_frobenius_upper"].upper == \
            pytest.approx(math.sqrt(8 * 0.765), abs=1e-12)
        # largest shifted eigenvalue 1.5 - 1.05 = 0.45
        assert by_name["laplacian_energy_max_shift_upper"].upper == \
            pytest.approx(0.45 + math.sqrt(3 * (1.53 - 0.45 ** 2)),
                          abs=1e-12)
        assert s.bound_hi == pytest.approx(2.4456202043475104, abs=1e-12)
        assert s.satisfied

    def test_all_fixture_channels_satisfied(self, experts):
        for h in experts:
            for s in check_laplacian_bounds(h):
                assert s.satisfied


class TestEigenIdentities:
    def test_fixture_membership(self, m1):
        s = eigen_identities(m1)[0]
        assert dict(s.residuals)["laplacian_trace"] == pytest.approx(
            0.0, abs=1e-12)
        assert max(abs(r) for _, r in s.residuals) < 1e-12
        assert np.allclose(sorted(s.shifted, reverse=True),
                           (0.45, 0.45, 0.15, -1.05), atol=1e-9)
        assert sum(s.shifted) == pytest.approx(0.0, abs=1e-12)
        assert sum(x ** 2 for x in s.shifted) == pytest.approx(
            2 * 0.765, abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        from hfgdm import random_hfpr
        for _ in range(5):
            h = random_hfpr(6, rng)
            for s in eigen_identities(h):
                assert max(abs(r) for _, r in s.residuals) < 1e-8


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
