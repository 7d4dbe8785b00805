"""Output checkers for the benchmark workloads.

Each checker recomputes what it checks from the inputs with numpy alone
(spectra from numpy.linalg.eigvalsh), or tests a property the method must
have. None compares against a stored copy of the program's output. A
checker returns None on a correct output and raises CheckFailed naming the
first mismatch otherwise.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

ENERGY_TOL = 1e-9
PUBLISHED_CA_TOL = 1e-4
AGGREGATE_TOL = 1e-12
SCORE_TOL = 1e-12

CHANNELS = ("membership", "nonmembership", "hesitancy")
ENERGY_QUANTITIES = ("energy_determinant_bounds", "energy_mean_square_upper")
LAPLACIAN_QUANTITIES = ("laplacian_energy_spread_lower",
                        "laplacian_energy_frobenius_upper",
                        "laplacian_energy_max_shift_upper")
SURVEY_HEADER = ["seed", "n", "channel", "quantity", "value",
                 "bound_lo", "bound_hi", "satisfied"]
ROWS_PER_INSTANCE = len(CHANNELS) * (len(ENERGY_QUANTITIES)
                                     + len(LAPLACIAN_QUANTITIES))


class CheckFailed(Exception):
    """An output that the method's definition or its inputs contradict."""


def _close(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, want {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        raise CheckFailed(f"{what}: off by {err:.3g} (tolerance {tol:g})")


def relation_energies(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy and Laplacian energy per channel of one (n, n, 3) relation.

    Energy is the sum of absolute adjacency eigenvalues. Laplacian energy
    is the sum of |lambda - 2S/n| over the Laplacian spectrum, S being the
    channel's total upper-triangle weight.
    """
    n = rel.shape[0]
    iu = np.triu_indices(n, 1)
    e = np.empty(3)
    le = np.empty(3)
    for k in range(3):
        a = rel[:, :, k]
        e[k] = np.abs(np.linalg.eigvalsh(a)).sum()
        lap = np.diag(a.sum(axis=1)) - a
        shift = 2.0 * a[iu].sum() / n
        le[k] = np.abs(np.linalg.eigvalsh(lap) - shift).sum()
    return e, le


def _check_energies(data: dict, ids, rels: np.ndarray) -> None:
    for ident, rel in zip(ids, rels):
        e, le = relation_energies(rel)
        _close(f"energy of {ident}", data["energy"][ident], e, ENERGY_TOL)
        _close(f"laplacian_energy of {ident}",
               data["laplacian_energy"][ident], le, ENERGY_TOL)


def _check_records(data: dict, labels) -> None:
    """f = s+/(s+ + s-), and each ranking orders the labels by f, best first."""
    if not data["runs"]:
        raise CheckFailed("no gamma records")
    for r in data["runs"]:
        where = f"gamma {r['gamma_blend']}"
        s_plus = np.asarray(r["s_plus"], dtype=float)
        s_minus = np.asarray(r["s_minus"], dtype=float)
        f = np.asarray(r["f"], dtype=float)
        _close(f"{where}: f", f, s_plus / (s_plus + s_minus), SCORE_TOL)
        ranking = r["ranking"]
        if sorted(ranking) != sorted(labels):
            raise CheckFailed(f"{where}: ranking {ranking} is not a "
                              f"permutation of {list(labels)}")
        order = [labels.index(t) for t in ranking]
        if any(f[a] < f[b] for a, b in zip(order, order[1:])):
            raise CheckFailed(f"{where}: ranking {ranking} does not sort f "
                              "in descending order")


def check_casestudy(text: str, labels, ids, rels: np.ndarray, mode: str,
                    published_ranking, published_ca=None) -> None:
    """One `run ... --format json` output on the case-study document.

    Every gamma record ranks the alternatives as published, energies match
    eigvalsh, and when the published pair similarities were injected
    (published_ca given) the weights ca match the published ones to 1e-4.
    """
    data = json.loads(text)
    if data["mode"] != mode:
        raise CheckFailed(f"mode {data['mode']!r}, want {mode!r}")
    _check_energies(data, ids, rels)
    _check_records(data, list(labels))
    for r in data["runs"]:
        if r["ranking"] != list(published_ranking):
            raise CheckFailed(
                f"gamma {r['gamma_blend']}: ranking {r['ranking']}, "
                f"published {list(published_ranking)}")
    if published_ca is not None:
        _close("ca against the published ca", data["ca"], published_ca,
               PUBLISHED_CA_TOL)


def survey_relation(seed: int, k: int, n_range: tuple[int, int]
                    ) -> np.ndarray:
    """Instance k of the survey with this seed, as an (n, n, 3) array.

    Follows the documented draw: numpy.random.default_rng([seed, k]) gives
    n in the closed range, then each upper-triangle triple draws three
    uniforms, is divided by their sum when that exceeds 1, is rounded to
    4 decimals, and is redrawn on a rounding overflow.
    """
    rng = np.random.default_rng([seed, k])
    lo, hi = n_range
    n = int(rng.integers(lo, hi + 1))
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
    return a


def check_survey(text: str, seed: int, count: int,
                 n_range: tuple[int, int]) -> None:
    """One `verify-bounds --seed S --count K` CSV.

    Instances 0..K-1 appear in order with 15 rows each, one per channel and
    bound quantity; every row is satisfied; n matches the documented draw
    and each value equals the eigvalsh energy or Laplacian energy.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SURVEY_HEADER:
        raise CheckFailed(f"header {rows[:1]}, want {SURVEY_HEADER}")
    body = rows[1:]
    if len(body) != count * ROWS_PER_INSTANCE:
        raise CheckFailed(f"{len(body)} rows for {count} instances, want "
                          f"{ROWS_PER_INSTANCE} per instance")
    want_keys = ([(c, q) for c in CHANNELS for q in ENERGY_QUANTITIES]
                 + [(c, q) for c in CHANNELS for q in LAPLACIAN_QUANTITIES])
    for k in range(count):
        rel = survey_relation(seed, k, n_range)
        e, le = relation_energies(rel)
        block = body[k * ROWS_PER_INSTANCE:(k + 1) * ROWS_PER_INSTANCE]
        for row, (chan, quantity) in zip(block, want_keys):
            where = f"instance {k} {chan} {quantity}"
            if (int(row[0]), row[2], row[3]) != (k, chan, quantity):
                raise CheckFailed(f"{where}: row reads {row[:4]}")
            if int(row[1]) != rel.shape[0]:
                raise CheckFailed(f"{where}: n = {row[1]}, the draw gives "
                                  f"{rel.shape[0]}")
            if row[7] != "true":
                raise CheckFailed(f"{where}: not satisfied")
            want = (e if quantity in ENERGY_QUANTITIES
                    else le)[CHANNELS.index(chan)]
            _close(f"{where}: value", float(row[4]), want, ENERGY_TOL)


def check_panel(text: str, labels, ids, rels: np.ndarray) -> None:
    """One `run` output on a panel whose weights are all 1/l.

    The aggregate of every gamma record is the entrywise mean of the expert
    relations, ca sums to 1, the similarity degrees lie in [1/n, 1],
    f = s+/(s+ + s-) with the ranking sorting f, and energies match eigvalsh.
    """
    data = json.loads(text)
    n = rels.shape[1]
    mean = rels.mean(axis=0)
    _check_energies(data, ids, rels)
    _check_records(data, list(labels))
    for r in data["runs"]:
        _close(f"gamma {r['gamma_blend']}: aggregate against the mean",
               r["aggregated"], mean, AGGREGATE_TOL)
    ca = np.asarray(data["ca"], dtype=float)
    if ca.shape != (len(ids),) or not abs(ca.sum() - 1.0) <= SCORE_TOL:
        raise CheckFailed(f"ca sums to {ca.sum()!r}, want 1")
    degrees = np.asarray(data["similarity_degrees"], dtype=float)
    if degrees.shape != (len(ids),) or not np.all(
            (degrees >= 1.0 / n - SCORE_TOL) & (degrees <= 1.0 + SCORE_TOL)):
        raise CheckFailed(f"similarity degrees {degrees} outside [1/n, 1]")
