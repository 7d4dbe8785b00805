"""The README's Library code block and Command line block run as written.

They name the public functions, result forms and commands a reader
starts from, so a renamed or deleted export, a result whose form
changed, or a stale documented command fails here rather than only in
the docs.
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

from shared import SMARTPHONE_DOC

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
