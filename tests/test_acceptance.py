"""Acceptance checklist: every gate criterion at its stated tolerance.

Each passing test prints one ``criterion N...: PASS`` line (shown with
``pytest -rA`` or ``-s``; under ``pytest -v`` the test outcome itself is
the pass/fail line). Expected failures are strict xfails reserved for
published values that are internally inconsistent with the other
published values they are supposed to follow from; each such test's
docstring states the honest computed value and the inconsistency, and
the suite fails if any of them unexpectedly starts passing.
"""
import time

import numpy as np
import pytest

from hfgdm import (
    Panel,
    aggregate_hfpr,
    energy,
    laplacian_energy,
    make_hfpr,
    pair_similarity,
    random_hfpr,
    rank,
    similarity_weights,
    uncertainty_scores,
)
from hfgdm._kernels import eigenvalues
from hfgdm.cli import main
from hfgdm.errors import TripleOutOfRange
from hfgdm.pipeline import Overrides, PipelineConfig, run
from hfgdm import bounds_survey
from hfgdm.spectral import _group_sums, _identity_check, _laplacians

from shared import PUBLISHED_C, PUBLISHED_C2, PUBLISHED_PAIRS
from test_kernels import eigs_2x2, eigs_3x3

ABS = {"energy": 1e-3, "scores": 1e-3, "stage": 1e-3, "table": 2e-3,
       "pairs": 1e-4}


# --------------------------------------------------------------- criterion 1

def test_criterion_1_energy_fixtures(experts):
    """Adjacency energies of the three case-study relations, 1e-3, < 1 s."""
    pins = [(2.1114, 2.2436, 1.3062),
            (1.4223, 2.7133, 0.9292),
            (1.6317, 2.0204, 1.8034)]
    start = time.perf_counter()
    got = [energy(h) for h in experts]
    elapsed = time.perf_counter() - start
    for g, p in zip(got, pins):
        assert np.allclose(g, p, atol=ABS["energy"])
    assert elapsed < 1.0
    print(f"criterion 1 (energy fixtures, 1e-3, {elapsed:.3f}s): PASS")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_laplacian_energy_consistent_cells(experts):
    """The seven published Laplacian-energy cells that recompute, 1e-3."""
    got = [laplacian_energy(h) for h in experts]
    cells = {(0, 0): 2.1000, (0, 2): 1.3000,
             (1, 0): 1.8000, (1, 1): 2.7000,
             (2, 0): 1.6000, (2, 1): 2.0000, (2, 2): 2.4000}
    for (b, c), pin in cells.items():
        assert got[b][c] == pytest.approx(pin, abs=ABS["energy"])
    print("criterion 2 (7 consistent Laplacian-energy cells, 1e-3): PASS")


def test_criterion_2_analytic_oracle(m1):
    """Membership Laplacian of the first relation has a closed-form
    spectrum {1.5, 1.5, 1.2, 0}, mean shift 1.05, so its Laplacian energy
    is exactly 2.10."""
    spec = np.sort(eigenvalues(_laplacians(m1.values[..., 0])))[::-1]
    assert np.allclose(spec, (1.5, 1.5, 1.2, 0.0), atol=1e-12)
    le = laplacian_energy(m1)[0]
    assert le == pytest.approx(2.10, abs=1e-12)
    print("criterion 2 (analytic oracle, exact): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="published cell 2.1639 is inconsistent with the published "
           "relation it is computed from")
def test_criterion_2_published_hesitancy_cell_first_relation(experts):
    """The published table gives 2.1639 for the second channel of the
    first relation. The channel's weights sum to 2.2, its Laplacian
    spectrum is fixed by the same matrix the other (reproducible) cells
    use, and the mean-deviation sum evaluates to 2.2000 exactly; no
    rounding of the published inputs reaches 2.1639."""
    got = laplacian_energy(experts[0])[1]  # honest: 2.2000
    assert got == pytest.approx(2.1639, abs=ABS["energy"])


@pytest.mark.xfail(
    strict=True,
    reason="published cell 0.9290 is inconsistent with the published "
           "relation it is computed from")
def test_criterion_2_published_beta_cell_second_relation(experts):
    """The published table gives 0.9290 for the third channel of the
    second relation; recomputing from the published matrix gives 1.0000
    exactly (the adjacent cells of the same table recompute to 1e-9)."""
    got = laplacian_energy(experts[1])[2]  # honest: 1.0000
    assert got == pytest.approx(0.9290, abs=ABS["energy"])


# --------------------------------------------------------------- criterion 3

def test_criterion_3_energy_score_rows(experts):
    """Per-expert energy normalization reproduces all three published
    objective-score rows, 1e-3."""
    got = uncertainty_scores(experts, "energy", "per_expert")
    pins = [(0.3730, 0.3963, 0.2307),
            (0.2808, 0.5357, 0.1835),
            (0.2991, 0.3703, 0.3306)]
    assert np.allclose(got, pins, atol=ABS["scores"])
    print("criterion 3 (energy score rows, 1e-3): PASS")


def test_criterion_3_laplacian_score_first_column(experts):
    """Per-channel Laplacian normalization reproduces the published
    first-column scores 0.3818 / 0.3273 / 0.2909, 1e-3."""
    got = uncertainty_scores(experts, "laplacian", "per_channel")
    assert np.allclose(got[:, 0], (0.3818, 0.3273, 0.2909),
                       atol=ABS["scores"])
    print("criterion 3 (Laplacian score first column, 1e-3): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="published second/third-column scores normalize the two "
           "non-recomputable Laplacian-energy cells")
def test_criterion_3_laplacian_score_other_columns(experts):
    """Published rows (0.3818, 0.3153, 0.2808), (0.3273, 0.3934, 0.2007),
    (0.2909, 0.2914, 0.5185) embed 2.1639 and 0.9290 in their column
    normalizations, so the second and third columns cannot recompute.
    Honest columns: (0.3188, 0.3913, 0.2899) and (0.2766, 0.2128, 0.5106).
    """
    got = uncertainty_scores(experts, "laplacian", "per_channel")
    pins = [(0.3818, 0.3153, 0.2808),
            (0.3273, 0.3934, 0.2007),
            (0.2909, 0.2914, 0.5185)]
    assert np.allclose(got, pins, atol=ABS["scores"])


# --------------------------------------------------------------- criterion 4

def test_criterion_4_weight_stages(experts):
    """With the published pairwise similarities injected: ca, the
    first blended row, and the first final-weight row recompute, 1e-3."""
    start = time.perf_counter()
    ca = similarity_weights(experts, pairwise=PUBLISHED_PAIRS)
    assert np.allclose(ca, (0.3274, 0.3392, 0.3334), atol=ABS["stage"])
    from hfgdm import blend_scores
    c1 = uncertainty_scores(experts, "energy", "per_expert")
    _, c2, c = blend_scores(c1, ca, eta=0.5, gamma_blend=0.5)
    assert np.allclose(c2[0], (0.3502, 0.3678, 0.2821), atol=ABS["stage"])
    assert np.allclose(c[0], (0.3616, 0.3821, 0.2564), atol=ABS["stage"])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4 (weight stages, 1e-3, {elapsed:.3f}s): PASS")


def test_criterion_4_published_downstream_chain(experts):
    """Aggregated entry, ideal similarities, and the reproducible ratio
    closeness values. The published final-weight matrix is injected at
    the aggregation stage because its third-component entries for the
    second and third experts are not the blend of the published inputs
    (published 0.2692/0.3734 vs blended 0.2210/0.3319); the published
    downstream numbers follow from the published matrix, so that matrix
    is the right input for checking the stages after it."""
    start = time.perf_counter()
    cfg = PipelineConfig(
        gamma_grid=(0.5,), closeness_mode="ratio",
        overrides=Overrides(pair_similarity=PUBLISHED_PAIRS,
                            c=PUBLISHED_C))
    rep = run(experts, cfg)
    assert np.allclose(rep.aggregated[0, 0, 1],
                       (0.2936, 0.4285, 0.2532), atol=ABS["stage"])
    assert rep.s_plus[0, 0] == pytest.approx(0.3567, abs=ABS["stage"])
    assert rep.s_minus[0, 0] == pytest.approx(0.5071, abs=ABS["stage"])
    assert rep.f[0, 0] == pytest.approx(0.7034, abs=ABS["table"])
    assert rep.f[0, 2] == pytest.approx(0.6040, abs=ABS["table"])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4 (downstream chain, {elapsed:.3f}s): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="published in-text ratio values for the second and fourth "
           "alternatives disagree with the published matrices by 5e-3")
def test_criterion_4_ratio_closeness_second_and_fourth(experts):
    """Even with the published final-weight matrix injected, the ratio
    closeness of the second and fourth alternatives computes to 0.6491
    and 0.6116; the published in-text values 0.6541 and 0.6166 are each
    0.0050 higher, beyond the 2e-3 gate, while the first and third
    alternatives match. The uniform offset suggests a transcription slip
    in the published sentence rather than a different computation."""
    cfg = PipelineConfig(
        gamma_grid=(0.5,), closeness_mode="ratio",
        overrides=Overrides(pair_similarity=PUBLISHED_PAIRS,
                            c=PUBLISHED_C))
    f = run(experts, cfg).f[0]
    assert f[1] == pytest.approx(0.6541, abs=ABS["table"])
    assert f[3] == pytest.approx(0.6166, abs=ABS["table"])


def test_criterion_4_relative_gamma_zero_row(experts):
    """Relative closeness at gamma 0 reproduces the published table row
    (0.4276, 0.4098, 0.3900, 0.3934) within 2e-3 when the published
    blended matrix is injected (its third-component entry for the third
    expert, 0.4161, is likewise not the blend of the published inputs,
    honest value 0.3320)."""
    cfg = PipelineConfig(
        gamma_grid=(0.0,),
        overrides=Overrides(pair_similarity=PUBLISHED_PAIRS,
                            c=PUBLISHED_C2))
    f = run(experts, cfg).f[0]
    assert np.allclose(f, (0.4276, 0.4098, 0.3900, 0.3934),
                       atol=ABS["table"])
    print("criterion 4 (relative gamma-0 table row, 2e-3): PASS")


def test_criterion_4_ranking_every_configuration(experts):
    """t1 > t2 > t4 > t3 in every published-table configuration and on
    the honest no-injection path."""
    grid = (0.0, 0.3, 0.5, 0.7, 1.0)
    configs = [
        PipelineConfig(gamma_grid=grid, closeness_mode=mode,
                       overrides=ov)
        for mode in ("relative", "ratio")
        for ov in (Overrides(pair_similarity=PUBLISHED_PAIRS),
                   Overrides())
    ] + [
        PipelineConfig(mode="laplacian", gamma_grid=grid,
                       closeness_mode=mode,
                       overrides=Overrides(pair_similarity=PUBLISHED_PAIRS))
        for mode in ("relative", "ratio")
    ]
    for cfg in configs:
        assert run(experts, cfg).ranking.tolist() == [[0, 1, 3, 2]] * 5
    print("criterion 4 (ranking in every configuration): PASS")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_declared_nonreproducible_and_substitute(experts,
                                                             tmp_path):
    """The published pairwise-similarity magnitudes exceed 1 while the
    similarity measure is bounded by 1, so they cannot be regenerated;
    the substitute acceptance holds: computed pairwise similarities match
    the hand-derived oracle to 1e-4 and the no-override run emits the
    ranking plus a per-stage discrepancy report."""
    for value in PUBLISHED_PAIRS.values():
        assert value > 1.0
    s12 = pair_similarity(experts[0], experts[1])
    s13 = pair_similarity(experts[0], experts[2])
    s23 = pair_similarity(experts[1], experts[2])
    assert max(s12, s13, s23) <= 1.0
    assert s12 == pytest.approx(0.8678, abs=ABS["pairs"])
    assert s13 == pytest.approx(0.8328, abs=ABS["pairs"])
    assert s23 == pytest.approx(0.8123, abs=ABS["pairs"])

    out = tmp_path / "honest.json"
    assert main(["run", "smartphone.json", "--format", "json",
                 "--out", str(out)]) == 0
    import json
    payload = json.loads(out.read_text())
    assert all(r["ranking"] == ["t1", "t2", "t4", "t3"]
               for r in payload["runs"])
    rows = payload["discrepancies"]
    assert len(rows) == 10
    assert all({"quantity", "computed", "published", "delta"} <= set(r)
               for r in rows)
    print("criterion 5 (declared non-reproducible + substitute, 1e-4): PASS")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_property_suites():
    """1000 seeded random relations (n in 3..8): spectral identities
    within 1e-8, zero bound violations, aggregation closure under shared
    convex expert weights, pairwise-similarity symmetry and range, and
    mode-independent rankings. Under 30 s total."""
    start = time.perf_counter()

    rows = bounds_survey(seed=42, count=1000, n_range=(3, 8))
    assert len(rows) == 1000 * 15
    violations = [r for r in rows if not r.satisfied]
    assert violations == []

    rng = np.random.default_rng(202)
    residual_max = 0.0
    for _ in range(60):
        h = random_hfpr(int(rng.integers(3, 9)), rng)
        residuals, _ = _identity_check(_group_sums(Panel.of([h]).channels))
        residual_max = max(residual_max, float(residuals.max()))
    assert residual_max < 1e-8

    rng = np.random.default_rng(303)
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        l = int(rng.integers(2, 6))
        group = tuple(random_hfpr(n, rng) for _ in range(l))
        w = rng.uniform(0, 1, l)
        w = w / w.sum() * rng.uniform(0.2, 1.0)
        agg = aggregate_hfpr(group, np.repeat(w[:, None], 3, axis=1))
        assert agg.values.sum(axis=2).max() <= 1.0 + 1e-9

    rng = np.random.default_rng(404)
    for _ in range(500):
        n = int(rng.integers(3, 9))
        a, b = random_hfpr(n, rng), random_hfpr(n, rng)
        s_ab, s_ba = pair_similarity(a, b), pair_similarity(b, a)
        assert s_ab == s_ba
        assert 1.0 / n - 1e-12 <= s_ab <= 1.0 + 1e-12

    rng = np.random.default_rng(505)
    for _ in range(200):
        h = random_hfpr(int(rng.integers(3, 9)), rng)
        assert np.array_equal(rank(h, "relative")[3], rank(h, "ratio")[3])

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 6 (property suites, {elapsed:.1f}s): PASS")


def test_criterion_6_closure_premise_requires_shared_weights():
    """The closure guarantee is convexity of the aggregation in each
    expert and so needs one weight per expert shared across the three
    channels. With channel-independent weights the premise 'each channel's
    weights sum to at most 1' does NOT imply closure: one-hot channel
    weights over experts concentrated on different channels push the
    aggregated component sum to 2.7, and the constructor rejects it."""
    def concentrated(triple):
        a = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    a[i, j] = triple
        return make_hfpr(a)

    group = (concentrated((0.9, 0.05, 0.05)),
             concentrated((0.05, 0.9, 0.05)),
             concentrated((0.05, 0.05, 0.9)))
    with pytest.raises(TripleOutOfRange):
        aggregate_hfpr(group, np.eye(3))
    print("criterion 6 (closure premise boundary documented): PASS")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_eigensolver_oracle_equivalence():
    """Library eigenvalues agree with characteristic-polynomial closed
    forms on 1000 random 2x2 and 1000 random 3x3 symmetric matrices to
    1e-9."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        a = rng.uniform(-5, 5, (2, 2))
        a = (a + a.T) / 2
        got = np.sort(eigenvalues(a))
        assert np.allclose(got, np.sort(eigs_2x2(a)), atol=1e-9)
    for _ in range(1000):
        a = rng.uniform(-5, 5, (3, 3))
        a = (a + a.T) / 2
        got = np.sort(eigenvalues(a))
        assert np.allclose(got, np.sort(eigs_3x3(a)), atol=1e-9)
    print("criterion 7 (eigensolver oracle equivalence, 1e-9): PASS")
