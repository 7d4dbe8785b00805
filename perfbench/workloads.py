"""The benchmark's workloads: seeded inputs and one CLI invocation per op.

A workload hands out operation i as the argv of one `hfgdm.cli.main` call
plus the checker for its output. round_size operations make a round, and
a run always attempts whole rounds.

- casestudy: the bundled smartphone document through the three `run`
  invocations the README documents, all with JSON output. The inputs are
  fixed; the seed does not change them.
- survey: operation i is `verify-bounds --seed 1000000 * seed + i --count
  SURVEY_COUNT` with the default n range 3..8. Each operation checks a
  batch of SURVEY_COUNT fresh relations, so a run's median does not hang
  on the sizes that one batch happened to draw.
- panel: one document with PANEL_N alternatives and PANEL_EXPERTS experts,
  drawn from the seed by this module (not by `hfgdm generate`), with every
  weight set to 1/l through config.overrides.c so that aggregation always
  closes. Every operation runs it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks

SURVEY_COUNT = 10
SURVEY_N_RANGE = (3, 8)
SURVEY_SEED_STRIDE = 1_000_000
PANEL_N = 10
PANEL_EXPERTS = 12


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    check: Callable[[str], None]


def _relations(doc: dict) -> np.ndarray:
    return np.array([e["hfpr"] for e in doc["experts"]], dtype=float)


class CaseStudy:
    round_size = 3

    def __init__(self, seed: int, root: str, workdir: str):
        path = os.path.join(root, "src", "hfgdm", "data", "smartphone.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        labels = doc["alternatives"]
        ids = [e["id"] for e in doc["experts"]]
        common = dict(labels=labels, ids=ids, rels=_relations(doc),
                      published_ranking=doc["published"]["ranking"])
        json_out = ("--format", "json")
        self.round = (
            Operation(("run", "smartphone.json") + json_out,
                      partial(checks.check_casestudy, mode="energy",
                              **common)),
            Operation(("run", "smartphone.json", "--mode", "laplacian")
                      + json_out,
                      partial(checks.check_casestudy, mode="laplacian",
                              **common)),
            Operation(("run", "smartphone.json", "--override-similarity",
                       "paper") + json_out,
                      partial(checks.check_casestudy, mode="energy",
                              published_ca=doc["published"]["ca"], **common)),
        )

    def op(self, i: int) -> Operation:
        return self.round[i % self.round_size]


class Survey:
    round_size = 1

    def __init__(self, seed: int, root: str, workdir: str,
                 count: int = SURVEY_COUNT):
        self.base = SURVEY_SEED_STRIDE * seed
        self.count = count

    def op(self, i: int) -> Operation:
        s = self.base + i
        lo, hi = SURVEY_N_RANGE
        return Operation(
            ("verify-bounds", "--seed", str(s), "--count", str(self.count),
             "--n-range", f"{lo}:{hi}"),
            partial(checks.check_survey, seed=s, count=self.count,
                    n_range=SURVEY_N_RANGE))


def panel_document(seed: int, n: int = PANEL_N,
                   l: int = PANEL_EXPERTS) -> dict:
    """A scenario document of l random symmetric relations over n labels.

    Each upper-triangle triple draws three uniforms, is divided by their
    sum when that exceeds 1, and is truncated to 4 decimals, so every
    triple is valid without a redraw.
    """
    rng = np.random.default_rng(seed)
    experts = []
    for b in range(l):
        a = np.zeros((n, n, 3))
        for i in range(n):
            for j in range(i + 1, n):
                t = rng.uniform(0.0, 1.0, 3)
                s = t.sum()
                if s > 1.0:
                    t = t / s
                a[i, j] = a[j, i] = np.floor(t * 1e4) / 1e4
        experts.append({"id": f"e{b + 1}", "hfpr": a.tolist()})
    return {
        "alternatives": [f"a{i + 1}" for i in range(n)],
        "experts": experts,
        "config": {"mode": "energy",
                   "overrides": {"c": [[1.0 / l] * 3] * l}},
    }


class Panel:
    round_size = 1

    def __init__(self, seed: int, root: str, workdir: str,
                 n: int = PANEL_N, l: int = PANEL_EXPERTS):
        doc = panel_document(seed, n, l)
        path = os.path.join(workdir, f"panel-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.operation = Operation(
            ("run", path, "--format", "json"),
            partial(checks.check_panel, labels=doc["alternatives"],
                    ids=[e["id"] for e in doc["experts"]],
                    rels=_relations(doc)))

    def op(self, i: int) -> Operation:
        return self.operation


WORKLOADS = {"casestudy": CaseStudy, "survey": Survey, "panel": Panel}
