"""The README's Library code block runs as written.

It names the public functions and result forms a reader starts from, so
a renamed or deleted export, or a result whose form changed, fails here
rather than only in the docs.
"""
import json
import re
import warnings
from pathlib import Path

import numpy as np

from hfgdm.cli import parse_input
from hfgdm.fixtures import read_text

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_block_runs_on_the_case_study():
    doc = parse_input("smartphone.json")
    raw = json.loads(read_text("smartphone.json"))
    h1, h2, h3 = doc.experts
    namespace = {"triples": raw["experts"][0]["hfpr"],
                 "h1": h1, "h2": h2, "h3": h3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(library_block(), str(README), "exec"), namespace)
    assert np.array_equal(namespace["h"].values, h1.values)
    assert all(r.satisfied for r in namespace["rows"])
    assert namespace["report"].energies.shape == (3, 3)
