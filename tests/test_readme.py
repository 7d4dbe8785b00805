"""The README's Library code block and Command line block run as written,
and the errors its Scenario documents section quotes are printed as quoted.

They name the public functions, result forms, commands and errors a
reader starts from, so a renamed or deleted export, a result whose form
changed, a stale documented command or a stale quoted error fails here
rather than only in the docs.
"""
import contextlib
import io
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np

from hfgdm.cli import main, parse_input

from shared import SMARTPHONE_DOC, edited

README = Path(__file__).resolve().parent.parent / "README.md"


def section_block(heading: str, language: str) -> str:
    """The one code block of that language in the README section."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    assert len(blocks) == 1, f"{heading} holds one {language} block"
    return blocks[0]


def library_block() -> str:
    return section_block("Library", "python")


def test_library_block_runs_on_the_case_study():
    doc = parse_input("smartphone.json")
    raw = json.loads(SMARTPHONE_DOC.read_text(encoding="utf-8"))
    h1, h2, h3 = doc.experts
    namespace = {"triples": raw["experts"][0]["hfpr"],
                 "h1": h1, "h2": h2, "h3": h3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(library_block(), str(README), "exec"), namespace)
    assert np.array_equal(namespace["h"].values, h1.values)
    assert all(r.satisfied for r in namespace["rows"])
    assert namespace["report"].energies.shape == (3, 3)
    assert namespace["panel"].channels.shape == (3, 3, 4, 4)


def test_command_line_block_runs(tmp_path, monkeypatch):
    # Each documented hfgdm line, comments dropped, in a fresh working
    # directory: it must exit 0 and write the file its --out names.
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in
             section_block("Command line", "sh").splitlines()]
    lines = [argv for argv in lines if argv]
    assert lines
    for argv in lines:
        assert argv[0] == "hfgdm", argv
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv[1:])
        assert rc == 0, (argv, err.getvalue())
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), argv


def four_experts_with_colon_ids():
    doc = edited(("config", "overrides", "pair_similarity"), {"a:b:c": 1.0})
    doc["experts"].append(dict(doc["experts"][0]))
    for expert, ident in zip(doc["experts"], ("a", "a:b", "b:c", "c")):
        expert["id"] = ident
    return doc


SMARTPHONE_TEXT = SMARTPHONE_DOC.read_text(encoding="utf-8")
# Each error example the Scenario documents section quotes, with the
# document, edited from the bundled one, whose run prints it.
ERROR_EXAMPLES = {
    "error: key 'eta' is given twice": SMARTPHONE_TEXT.replace(
        '"eta": 0.5', '"eta": 0.5, "eta": 0.5', 1),
    "error: config.eta = '0.5' is not a number":
        edited(("config", "eta"), "0.5"),
    "error: experts[0].hfpr is not an array of real numbers":
        edited(("experts", 0, "hfpr"), "x"),
    "error: vertex_attrs[1]: mu1 = 1.5 outside [0, 1]":
        edited(("vertex_attrs",), [[0.5, 0.3], [1.5, 0.2]] * 2),
    "error: vertex_attrs[0]: grades = 'ab' is not a sequence":
        edited(("vertex_attrs",), ["ab", "cd", "ef", "gh"]),
    "error: experts[1].hfpr: mu + gamma + beta = 1.3 at entry (0, 1) "
    "exceeds 1": edited(("experts", 1, "hfpr", 0, 1), [0.6, 0.4, 0.3]),
    "error: alternatives[2] = 'a' appears more than once":
        edited(("alternatives",), ["a", "b", "a", "c"]),
    "error: alternatives[1] = 1 is not a string":
        edited(("alternatives",), ["a", 1, "b", "c"]),
    "error: published.ca must be a list of 3 numbers, one per expert":
        edited(("published", "ca"), [0.3, 0.4]),
    "error: config.overrides.pair_similarity.e1:e2 is -1.0; it must be "
    "positive": edited(("config", "overrides", "pair_similarity"),
                       {"e1:e2": -1.0}),
    "error: config.overrides.pair_similarity gives e1:e2 and e2:e1; the "
    "measure is symmetric, so give it once":
        edited(("config", "overrides", "pair_similarity"),
               {"e1:e2": 1.0, "e2:e1": 1.0}),
    "error: pair key 'a:b:c' splits into two expert ids in more than one "
    "way": four_experts_with_colon_ids(),
    "error: published.pair_similarity.e1:e2 is -1.0; it must be positive":
        edited(("published", "pair_similarity"), {"e1:e2": -1.0}),
    "error: ca must sum to 1, got 2.7":
        edited(("config", "overrides", "ca"), [0.9, 0.9, 0.9]),
    "error: number 1e999 is not a finite float": SMARTPHONE_TEXT.replace(
        '"eta": 0.5', '"eta": 1e999', 1),
}


def test_scenario_document_errors_are_quoted_verbatim(tmp_path):
    # Every backticked error the section quotes, its line breaks read as
    # spaces, is what `hfgdm run` prints for its listed document, and no
    # listed document has lost its quote.
    section = README.read_text().split("\n### Scenario documents\n", 1)[1]
    section = section.split("\n#", 1)[0]
    quoted = {" ".join(m.split())
              for m in re.findall(r"`(error: [^`]*)`", section)}
    assert quoted == set(ERROR_EXAMPLES)
    for message, doc in ERROR_EXAMPLES.items():
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                        encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", str(path)])
        assert (rc, out.getvalue(), err.getvalue()) == (
            2, "", message + "\n"), message
