"""The bundled case study's expert relations and published values,
written out for the tests, and small helpers. Test modules import them
from here; conftest builds its fixtures from them."""
import json
from pathlib import Path

import numpy as np

from hfgdm import make_hfpr

# The bundled smartphone scenario's three expert matrices, written out so
# unit tests do not depend on JSON parsing.
M1_ROWS = [
    [(0.0, 0.0, 0.0), (0.4, 0.2, 0.3), (0.4, 0.3, 0.2), (0.3, 0.4, 0.2)],
    [(0.4, 0.2, 0.3), (0.0, 0.0, 0.0), (0.4, 0.3, 0.2), (0.3, 0.5, 0.2)],
    [(0.4, 0.3, 0.2), (0.4, 0.3, 0.2), (0.0, 0.0, 0.0), (0.3, 0.5, 0.2)],
    [(0.3, 0.4, 0.2), (0.3, 0.5, 0.2), (0.3, 0.5, 0.2), (0.0, 0.0, 0.0)],
]
M2_ROWS = [
    [(0.0, 0.0, 0.0), (0.3, 0.5, 0.1), (0.4, 0.3, 0.2), (0.1, 0.5, 0.2)],
    [(0.3, 0.5, 0.1), (0.0, 0.0, 0.0), (0.3, 0.5, 0.1), (0.1, 0.5, 0.1)],
    [(0.4, 0.3, 0.2), (0.3, 0.5, 0.1), (0.0, 0.0, 0.0), (0.1, 0.4, 0.2)],
    [(0.1, 0.5, 0.2), (0.1, 0.5, 0.1), (0.1, 0.4, 0.2), (0.0, 0.0, 0.0)],
]
M3_ROWS = [
    [(0.0, 0.0, 0.0), (0.2, 0.3, 0.4), (0.3, 0.4, 0.1), (0.3, 0.3, 0.4)],
    [(0.2, 0.3, 0.4), (0.0, 0.0, 0.0), (0.2, 0.4, 0.1), (0.2, 0.2, 0.5)],
    [(0.3, 0.4, 0.1), (0.2, 0.4, 0.1), (0.0, 0.0, 0.0), (0.4, 0.4, 0.1)],
    [(0.3, 0.3, 0.4), (0.2, 0.2, 0.5), (0.4, 0.4, 0.1), (0.0, 0.0, 0.0)],
]

LABELS = ("t1", "t2", "t3", "t4")

# The repository root; the package's data directory in the source tree,
# where parse_input opens a bundled name; the case-study document there.
REPO = Path(__file__).resolve().parent.parent
BUNDLED_DIR = REPO / "src" / "hfgdm" / "data"
SMARTPHONE_DOC = BUNDLED_DIR / "smartphone.json"

# Stage-iii pairwise similarity override used by the published case study
# (keys are 0-based expert index pairs).
PUBLISHED_PAIRS = {(0, 1): 1.9856, (1, 2): 2.0579, (0, 2): 1.9155}

# Published per-expert weight vectors at gamma_blend = 0.5 (energy path),
# as printed in the case study; used as a stage-vi injection in tests that
# reproduce downstream published numbers.
PUBLISHED_C = [
    [0.3616, 0.3821, 0.2564],
    [0.2925, 0.4866, 0.2692],
    [0.3062, 0.3626, 0.3734],
]

# Printed squared/intermediate weight table at gamma = 0 (energy path).
PUBLISHED_C2 = [
    [0.3502, 0.3678, 0.2821],
    [0.3041, 0.4375, 0.2584],
    [0.3133, 0.3548, 0.4161],
]


def build(rows, labels=LABELS):
    return make_hfpr(np.asarray(rows, dtype=float), labels=labels)


def with_membership(c):
    """A relation's (n, n, 3) array whose membership channel is c and
    whose other two channels are zero."""
    a = np.zeros(np.shape(c) + (3,))
    a[..., 0] = c
    return a


def edited(path, value):
    """The bundled document, decoded, with the field at path (a key tuple)
    set. An int in path indexes a list."""
    doc = json.loads(SMARTPHONE_DOC.read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key] if isinstance(key, int) else \
            parent.setdefault(key, {})
    parent[path[-1]] = value
    return doc
