"""Command-line interface: parsing, output formats, exit codes."""
import contextlib
import copy
import csv
import dataclasses
import errno
import fnmatch
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hfgdm.cli as cli
import hfgdm.spectral as spectral
from hfgdm import energy, laplacian_energy
from hfgdm.cli import _emit_json, main, parse_input
from hfgdm.errors import (AsymmetricEntry, DiagonalNotZero,
                          DimensionMismatch, EdgeExceedsVertexBound,
                          ParameterOutOfRange, SchemaViolation,
                          TripleOutOfRange, ValidationError)
from hfgdm.spectral import SurveyRow

from shared import BUNDLED_DIR, REPO, SMARTPHONE_DOC, edited

RUN_JSON_ARGS = ["run", "smartphone.json", "--format", "json"]
# Directory that holds the imported ``hfgdm`` package, for child processes.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parent.parent)
CSV_HEADER = "seed,n,channel,quantity,value,bound_lo,bound_hi,satisfied"
DATA = Path(__file__).resolve().parent / "data"
SHARED_DOC = str(DATA / "shared_weights.json")
PANEL_DOC = str(DATA / "panel_shared.json")
ESCAPES_DOC = str(DATA / "escapes.json")
SMARTPHONE_TEXT = SMARTPHONE_DOC.read_text(encoding="utf-8")
SMARTPHONE = json.loads(SMARTPHONE_TEXT)


@pytest.fixture(scope="module")
def run_json(tmp_path_factory):
    """One canonical machine-format run of the bundled document."""
    path = tmp_path_factory.mktemp("cli") / "run.json"
    assert main(RUN_JSON_ARGS + ["--out", str(path)]) == 0
    return json.loads(path.read_text()), path.read_bytes()


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestParseInput:
    def test_bundled_name_resolves(self):
        doc = parse_input("smartphone.json")
        assert doc.experts[0].labels == ("t1", "t2", "t3", "t4")
        assert doc.expert_ids == ("e1", "e2", "e3")
        assert len(doc.experts) == 3
        assert doc.experts[0].n == 4
        assert set(doc.published) == {"pair_similarity",
                                      "similarity_degrees", "ca", "ranking"}
        assert doc.config.mode == "energy"
        assert doc.config.eta == 0.5
        assert doc.config.gamma_grid == (0.0, 0.3, 0.5, 0.7, 1.0)

    def test_fixture_matches_test_matrices(self, experts):
        doc = parse_input("smartphone.json")
        for bundled, local in zip(doc.experts, experts):
            assert np.array_equal(bundled.values, local.values)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_input("no-such-document.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaViolation, match="invalid JSON"):
            parse_input(str(path))

    def test_nesting_beyond_the_decoder_exits_2(self, tmp_path, capsys):
        # json.loads recurses once per bracket and runs out of stack.
        path = tmp_path / "deep.json"
        path.write_text('{"alternatives": ' + "[" * 100_000
                        + "]" * 100_000 + "}")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "JSON nested too deeply" in captured.err

    def test_unknown_fields_rejected_everywhere(self, tmp_path):
        base = json.loads(SMARTPHONE_TEXT)
        for mutate, message in [
            (lambda d: d.__setitem__("extra", 1), "extra"),
            (lambda d: d["config"].__setitem__("tuning", 1), "tuning"),
            (lambda d: d["published"].__setitem__("notes", []), "notes"),
            (lambda d: d["config"].__setitem__(
                "overrides", {"c9": []}), "c9"),
        ]:
            doc = json.loads(json.dumps(base))
            mutate(doc)
            with pytest.raises(SchemaViolation, match=message):
                parse_input(write_doc(tmp_path, doc))

    def test_missing_required_fields(self, tmp_path):
        base = json.loads(SMARTPHONE_TEXT)
        for field in ("alternatives", "experts"):
            doc = json.loads(json.dumps(base))
            del doc[field]
            with pytest.raises(SchemaViolation, match=field):
                parse_input(write_doc(tmp_path, doc))

    def test_duplicate_expert_ids(self, tmp_path):
        doc = json.loads(SMARTPHONE_TEXT)
        doc["experts"][1]["id"] = "e1"
        with pytest.raises(SchemaViolation, match="unique"):
            parse_input(write_doc(tmp_path, doc))

    def test_relation_validation_propagates(self, tmp_path):
        doc = json.loads(SMARTPHONE_TEXT)
        doc["experts"][0]["hfpr"][0][1] = [0.9, 0.9, 0.9]
        with pytest.raises(TripleOutOfRange):
            parse_input(write_doc(tmp_path, doc))

    def test_pair_override_keys_validated(self, tmp_path):
        base = json.loads(SMARTPHONE_TEXT)
        for key in ("e1:e1", "e9:e1", "e1", "e1:e2:e3"):
            doc = json.loads(json.dumps(base))
            doc["config"]["overrides"] = {"pair_similarity": {key: 1.0}}
            with pytest.raises(SchemaViolation, match="pair key"):
                parse_input(write_doc(tmp_path, doc))

    def test_pair_override_parsed_to_indices(self, tmp_path):
        doc = json.loads(SMARTPHONE_TEXT)
        doc["config"]["overrides"] = {
            "pair_similarity": {"e2:e3": 1.9, "e1:e3": 1.8}}
        parsed = parse_input(write_doc(tmp_path, doc))
        assert parsed.config.overrides.pair_similarity == {
            (1, 2): 1.9, (0, 2): 1.8}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_exits_2(self, tmp_path, capsys, token):
        # Let through, a NaN pair similarity with an aggregated override
        # runs to the end and prints bare nan tokens, which are not JSON.
        doc = json.loads(SMARTPHONE_TEXT)
        doc["config"]["overrides"] = {
            "pair_similarity": {"e1:e2": float("nan")},
            "aggregated": doc["experts"][0]["hfpr"]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc).replace("NaN", token))
        assert token in path.read_text()
        assert main(["run", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"number {token} is not a finite float" in captured.err

    @pytest.mark.parametrize("big", ["1e999", "1" + "0" * 400])
    def test_overflowing_number_rejected(self, tmp_path, big):
        doc = json.loads(SMARTPHONE_TEXT)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"eta": 0.5', f'"eta": {big}'))
        assert big in path.read_text()
        with pytest.raises(SchemaViolation,
                           match=f"number {big} is not a finite float"):
            parse_input(str(path))

    def test_vertex_attrs_length_checked(self, tmp_path):
        # The one entry's beta1 fault is reported before the length.
        doc = json.loads(SMARTPHONE_TEXT)
        doc["vertex_attrs"] = [[0.5, 0.3, 0.1]]
        with pytest.raises(ParameterOutOfRange, match="vertex_attrs"):
            parse_input(write_doc(tmp_path, doc))


class TestRunCommand:
    def test_json_shape(self, run_json):
        payload, _ = run_json
        assert set(payload) == {
            "mode", "normalization", "eta", "closeness", "convention",
            "overridden", "alternatives", "experts", "energy",
            "laplacian_energy", "c1", "similarity_degrees", "ca", "runs",
            "discrepancies"}
        assert payload["mode"] == "energy"
        assert payload["normalization"] == "per_expert"
        assert payload["convention"] == "vector"
        assert payload["overridden"] == []
        assert [r["gamma_blend"] for r in payload["runs"]] == \
            [0.0, 0.3, 0.5, 0.7, 1.0]
        assert set(payload["runs"][0]) == {
            "gamma_blend", "c2", "c", "c_used", "aggregated",
            "s_plus", "s_minus", "f", "ranking"}

    def test_json_values(self, run_json):
        payload, _ = run_json
        assert np.allclose(payload["energy"]["e1"],
                           (2.1114877048604002, 2.2435260904755427,
                            1.3062257748298549), atol=1e-12)
        assert np.allclose(payload["laplacian_energy"]["e2"],
                           (1.8, 2.7, 1.0), atol=1e-9)
        assert np.allclose(payload["c1"][0], (0.3730, 0.3963, 0.2307),
                           atol=1e-3)
        assert np.allclose(payload["similarity_degrees"],
                           (0.8503, 0.8400, 0.8225), atol=1e-4)
        assert np.allclose(payload["ca"], (0.3384, 0.3343, 0.3273),
                           atol=1e-4)
        for r in payload["runs"]:
            assert r["ranking"] == ["t1", "t2", "t4", "t3"]

    def test_floats_round_trip_bit_exact(self, run_json, experts):
        from hfgdm.pipeline import PipelineConfig, run as run_pipeline
        payload, _ = run_json
        report = run_pipeline(experts, PipelineConfig())

        def same_bits(text_value, array):
            got = np.array(text_value, dtype=float)
            assert got.shape == array.shape
            assert got.tobytes() == array.tobytes()

        for name in ("c1", "similarity_degrees", "ca"):
            same_bits(payload[name], getattr(report, name))
        for k, r in enumerate(payload["runs"]):
            same_bits(r["c2"], report.c2)
            for name in ("c", "c_used", "aggregated", "s_plus", "s_minus",
                         "f"):
                same_bits(r[name], getattr(report, name)[k])

    def test_discrepancy_report(self, run_json):
        payload, _ = run_json
        rows = payload["discrepancies"]
        kinds = [r["quantity"].split()[0] for r in rows]
        assert kinds == ["pair_similarity"] * 3 + ["similarity_degree"] * 3 \
            + ["ca"] * 3 + ["ranking"]
        # the published pairwise similarities sit on a different scale than
        # the computed ones (that is what the override mode is for), so the
        # first six rows disagree by construction
        assert all(r["delta"] > 0.5 for r in rows[:6])
        assert all(r["delta"] < 0.02 for r in rows[6:9])
        assert rows[-1]["delta"] == 0.0
        assert rows[-1]["published"] == "t1 > t2 > t4 > t3"

    def test_override_similarity_paper(self, tmp_path):
        out = tmp_path / "ov.json"
        rc = main(RUN_JSON_ARGS + ["--override-similarity", "paper",
                                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["overridden"] == ["pair_similarity"]
        # degrees recomputed from the injected pairwise values
        assert np.allclose(payload["similarity_degrees"],
                           (1.95055, 2.02175, 1.9867), atol=1e-12)
        assert np.allclose(payload["ca"], (0.3274, 0.3392, 0.3334),
                           atol=1e-3)
        rows = payload["discrepancies"]
        assert [r["quantity"] for r in rows] == ["ranking (all gamma values)"]
        assert rows[0]["delta"] == 0.0

    def test_table_format(self, capsys):
        assert main(["run", "smartphone.json"]) == 0
        out = capsys.readouterr().out
        assert "pipeline run: mode=energy" in out
        assert "similarity weights ca:" in out
        assert "t1 > t2 > t4 > t3" in out
        assert "discrepancies vs published values:" in out
        assert "laplacian energy" in out

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "flags.json"
        rc = main(RUN_JSON_ARGS + [
            "--mode", "laplacian", "--gamma", "0.25,0.75", "--eta", "0.3",
            "--closeness", "ratio", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "laplacian"
        assert payload["normalization"] == "per_channel"
        assert payload["eta"] == 0.3
        assert payload["closeness"] == "ratio"
        assert [r["gamma_blend"] for r in payload["runs"]] == [0.25, 0.75]

    def test_laplacian_override_published_row(self, tmp_path):
        out = tmp_path / "lap.json"
        rc = main(RUN_JSON_ARGS + [
            "--mode", "laplacian", "--gamma", "1.0",
            "--override-similarity", "paper", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert np.allclose(payload["runs"][0]["f"],
                           (0.4532, 0.4376, 0.4142, 0.4203), atol=2e-3)

    def test_deterministic_output(self, run_json, tmp_path):
        _, raw = run_json
        again = tmp_path / "again.json"
        assert main(RUN_JSON_ARGS + ["--out", str(again)]) == 0
        assert again.read_bytes() == raw

    def test_out_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(RUN_JSON_ARGS + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())
        assert [p.name for p in tmp_path.iterdir()] == ["o.json"]

    def test_missing_input_exits_2(self, capsys):
        assert main(["run", "nope.json"]) == 2
        captured = capsys.readouterr()
        assert "input not found" in captured.err
        assert captured.out == ""

    def test_bad_gamma_exits_2(self, capsys):
        assert main(RUN_JSON_ARGS + ["--gamma", "0.5,zebra"]) == 2
        assert "gamma" in capsys.readouterr().err
        # An empty grid is refused too, not read as "no flag".
        assert main_output(RUN_JSON_ARGS + ["--gamma="]) == (
            2, "", "error: cannot parse gamma grid ''\n")

    def test_unknown_override_name_exits_2(self, capsys):
        assert main(RUN_JSON_ARGS + ["--override-similarity", "other"]) == 2
        assert "paper" in capsys.readouterr().err

    def test_override_without_published_block_exits_2(self, tmp_path, capsys):
        doc = json.loads(SMARTPHONE_TEXT)
        del doc["published"]
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--override-similarity", "paper"]) == 2
        assert "published" in capsys.readouterr().err

    def test_invalid_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(RUN_JSON_ARGS + ["--mode", "hybrid"])
        assert info.value.code == 2

    def test_pair_override_in_both_orientations_exits_2(self, tmp_path,
                                                         capsys):
        # Accepted, e1:e2 and e2:e1 would give e1 and e2 different values
        # of one symmetric pair (degrees 0.6500 and 0.8500).
        doc = json.loads(SMARTPHONE_TEXT)
        pairs = {"e1:e2": 0.5, "e2:e1": 0.9, "e1:e3": 0.8, "e2:e3": 0.8}
        doc["config"]["overrides"] = {"pair_similarity": pairs}
        assert main(["run", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config.overrides.pair_similarity gives e1:e2 and e2:e1; "
            "the measure is symmetric, so give it once\n")
        # The reversed key alone is the pair, given once.
        del pairs["e1:e2"]
        assert main(["run", write_doc(tmp_path, doc), "--format",
                     "json"]) == 0
        degrees = json.loads(capsys.readouterr().out)["similarity_degrees"]
        assert degrees == pytest.approx([0.85, 0.85, 0.8], abs=1e-15)


class TestEnergyCommand:
    def test_json_matches_library(self, capsys):
        assert main(["energy", "smartphone.json", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        doc = parse_input("smartphone.json")
        for ident, h in zip(doc.expert_ids, doc.experts):
            assert payload["energy"][ident] == energy(h).tolist()
            assert payload["laplacian_energy"][ident] == \
                laplacian_energy(h).tolist()

    def test_table(self, capsys):
        assert main(["energy", "smartphone.json"]) == 0
        out = capsys.readouterr().out
        assert "laplacian energy" in out
        assert "2.1115, 2.2435, 1.3062".replace(", ", ",") in out


survey_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e308, 1 / 3, 0.1]), st.floats())


class TestVerifyBounds:
    def test_small_survey_clean(self, tmp_path):
        out = tmp_path / "survey.csv"
        rc = main(["verify-bounds", "--seed", "7", "--count", "5",
                   "--n-range", "3:5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5 * 15
        assert all(line.endswith(",true") for line in lines[1:])
        again = tmp_path / "survey2.csv"
        assert main(["verify-bounds", "--seed", "7", "--count", "5",
                     "--n-range", "3:5", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_fixture_survey(self, tmp_path):
        out = tmp_path / "fix.csv"
        assert main(["verify-bounds", "--fixtures", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 45
        assert "%.17g" % 2.394436802675439 in out.read_text()
        assert all(line.endswith(",true") for line in lines[1:])

    def test_survey_at_1024_alternatives_exits_0_quietly(self, capsys):
        # The rounding residual of the Laplacian trace identity reaches
        # 1.7e-8 here, over an absolute 1e-8 budget; judged relative to
        # the size of the sides it is about 1e-13, and the survey passes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-bounds", "--count", "1", "--seed", "5",
                         "--n-range", "1024:1024"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1 + 15
        assert all(line.endswith(",true") for line in lines[1:])

    def test_violation_exits_3(self, monkeypatch, capsys):
        rows = [SurveyRow(seed=0, n=3, channel="membership",
                          quantity="energy", value=9.0,
                          bound_lo=0.5, bound_hi=2.0, satisfied=False)]
        monkeypatch.setattr(cli, "bounds_survey", lambda **kw: rows)
        assert main(["verify-bounds", "--count", "1"]) == 3
        captured = capsys.readouterr()
        assert "1 bound violation(s) found" in captured.err
        assert captured.out.splitlines()[1].endswith(",false")

    @given(rows=st.lists(st.builds(
        SurveyRow, seed=st.integers(0, 10 ** 12), n=st.integers(1, 64),
        channel=st.sampled_from(["membership", "nonmembership", "hesitancy"]),
        quantity=st.sampled_from(["energy_determinant_bounds",
                                  "laplacian_energy_spread_lower"]),
        value=survey_floats, bound_lo=st.none() | survey_floats,
        bound_hi=st.none() | survey_floats, satisfied=st.booleans()),
        max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_row_writer(self, rows):
        # The one-template CSV against csv.writer with one %.17g format
        # per float, the way the rows were written before.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow([
                r.seed, r.n, r.channel, r.quantity, "%.17g" % r.value,
                "" if r.bound_lo is None else "%.17g" % r.bound_lo,
                "" if r.bound_hi is None else "%.17g" % r.bound_hi,
                "true" if r.satisfied else "false"])
        assert cli._survey_csv(rows) == buf.getvalue()

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["verify-bounds", "--count", "0"]) == 2
        assert main(["verify-bounds", "--n-range", "5"]) == 2
        assert main(["verify-bounds", "--n-range", "8:3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args, message", [
        (["--count", "0"], "count = 0 must be an integer of at least 1"),
        (["--count", "-3"], "count = -3 must be an integer of at least 1"),
        (["--seed", "-1"], "seed = -1 must be an integer of at least 0"),
        (["--n-range", "5:3"],
         "n_range hi = 3 must be an integer of at least 5"),
        (["--n-range", "0:3"],
         "n_range lo = 0 must be an integer of at least 1"),
        (["--n-range", "3.5:4"], "cannot parse n range '3.5:4', want LO:HI"),
    ])
    def test_bad_arguments_print_core_messages(self, args, message):
        # Only the LO:HI text parse is the CLI's own; every integer is
        # refused by core's rule, under the name bounds_survey gives it.
        assert main_output(["verify-bounds", *args]) == (
            2, "", f"error: {message}\n")

    def test_negative_seed_exits_2(self, capsys):
        # numpy rejects a negative seed; it is refused as input first.
        assert main(["verify-bounds", "--seed", "-5", "--count", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seed = -5 must be an integer of at least 0\n")


@pytest.mark.parametrize("argv, name, n", [
    (["generate", "--n", str(10**20)], "n", 10**20),
    (["generate", "--n", str(2**63)], "n", 2**63),
    (["verify-bounds", "--count", "1", "--n-range", f"1:{10**20}"],
     "n_range hi", 10**20),
    (["verify-bounds", "--count", "1", "--n-range", f"{2**32}:{2**32}"],
     "n_range hi", 2**32),
], ids=["generate-1e20", "generate-2^63", "survey-1e20", "survey-2^32"])
def test_size_numpy_cannot_hold_exits_2(argv, name, n):
    # Refused before anything is allocated.
    assert main_output(argv) == (
        2, "", f"error: {name} = {n} is too large for an (n, n, 3) array\n")


# An integer flag refused by core's rule: the name the library gives the
# value, the value as given, and the least value the rule accepts.
FLAG_REFUSAL = re.compile(
    r"error: (seed|count|n_range lo|n_range hi|n|experts) = (-?\d+) must be "
    r"an integer of at least (\d+)\n")


@given(command=st.sampled_from(["generate", "verify-bounds"]),
       seed=st.integers(-5, 2 ** 70), n=st.integers(-3, 8),
       experts=st.integers(-3, 4), count=st.integers(-3, 3),
       lo=st.integers(-2, 8), hi=st.integers(-2, 8))
@settings(max_examples=200, deadline=None)
def test_integer_flags_read_by_core_rules(command, seed, n, experts, count,
                                          lo, hi):
    # Kept to small sizes and counts: every accepted flag set does the work.
    # Each flag is given as --flag=VALUE, so a negative n range is not read
    # as an option.
    if command == "generate":
        flags = {"seed": seed, "n": n, "experts": experts}
        least = {"seed": 0, "n": 2, "experts": 2}
        argv = ["generate", f"--seed={seed}", f"--n={n}",
                f"--experts={experts}"]
    else:
        flags = {"seed": seed, "count": count, "n_range lo": lo,
                 "n_range hi": hi}
        least = {"seed": 0, "count": 1, "n_range lo": 1, "n_range hi": lo}
        argv = ["verify-bounds", f"--seed={seed}", f"--count={count}",
                f"--n-range={lo}:{hi}"]
    refused = {name for name, v in flags.items() if v < least[name]}
    rc, out, err = main_output(argv)
    if not refused:
        assert rc in ((0,) if command == "generate" else (0, 3)), err
        if command == "generate":
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "gen.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(out)
                doc = parse_input(path)
            assert (len(doc.experts), doc.experts[0].n) == (experts, n)
        else:
            assert out.startswith(CSV_HEADER + "\n")
        return
    assert (rc, out) == (2, "")
    match = FLAG_REFUSAL.fullmatch(err)
    assert match, err
    name, value, at_least = match.groups()
    assert name in refused
    assert (int(value), int(at_least)) == (flags[name], least[name])


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--out", str(a)]) == 0
        assert main(["generate", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        assert main(["generate", "--seed", "2", "--out", str(c)]) == 0
        assert c.read_bytes() != a.read_bytes()

    def test_round_trips_through_parse_input(self, tmp_path):
        path = tmp_path / "gen.json"
        assert main(["generate", "--seed", "3", "--n", "5",
                     "--experts", "4", "--out", str(path)]) == 0
        doc = parse_input(str(path))
        assert doc.experts[0].labels == ("t1", "t2", "t3", "t4", "t5")
        assert doc.expert_ids == ("e1", "e2", "e3", "e4")
        for h in doc.experts:
            assert h.values.sum(axis=2).max() <= 1.0 + 1e-9

    def test_emitter_fixed_point(self, tmp_path):
        path = tmp_path / "gen.json"
        assert main(["generate", "--seed", "4", "--out", str(path)]) == 0
        text = path.read_text()
        assert _emit_json(json.loads(text)) + "\n" == text

    def test_energy_accepts_generated(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        assert main(["generate", "--seed", "5", "--out", str(path)]) == 0
        assert main(["energy", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["energy"]) == {"e1", "e2", "e3"}

    def test_run_propagates_aggregate_validation(self, tmp_path, capsys):
        # Random relations need not stay closed under score-weighted
        # aggregation; the resulting validation failure is an input-domain
        # error, reported on stderr with exit code 2.
        path = tmp_path / "gen.json"
        assert main(["generate", "--seed", "1", "--out", str(path)]) == 0
        assert main(["run", str(path)]) == 2
        assert "exceeds 1" in capsys.readouterr().err

    def test_closure_failure_names_stage_and_gamma(self, tmp_path):
        path = str(tmp_path / "gen.json")
        assert main(["generate", "--seed", "1", "--n", "5", "--experts", "4",
                     "--out", path]) == 0
        assert main_output(["run", path]) == (
            2, "", "error: stage vii (aggregation) at gamma_blend = 0: "
            "mu + gamma + beta = 1.085199015764041 at entry (0, 1) "
            "exceeds 1\n")

    @pytest.mark.parametrize("flag", ["n", "experts"])
    def test_degenerate_sizes_exit_2(self, flag):
        assert main_output(["generate", f"--{flag}", "1"]) == (
            2, "", f"error: {flag} = 1 must be an integer of at least 2\n")

    def test_negative_seed_exits_2(self, capsys):
        assert main(["generate", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seed = -1 must be an integer of at least 0\n")


class TestFloatFormat:
    def test_round_trip_exactness(self):
        for x in (0.1, 1 / 3, np.pi, 2.1114877048604002, 1e-300,
                  12345.678901234567, 5e-324):
            assert float(_emit_json(x)) == x

    def test_integers_stay_short(self):
        assert _emit_json(1.0) == "1"
        assert _emit_json(0.5) == "0.5"


# Arrays of one to three axes, zero-length ones included, mixing edge
# values into arbitrary floats.
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    elements=st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, 1 / 3]),
                       st.floats()))


class TestArrayEmitter:
    @given(a=float_arrays, indent=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_nested_lists(self, a, indent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _emit_json(a, indent) == _emit_json(a.tolist(), indent)

    @given(labels=st.lists(st.text(), min_size=1, max_size=6),
           indent=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_label_lists_match_one_string_at_a_time(self, labels, indent):
        want = "[" + ", ".join(json.dumps(x) for x in labels) + "]"
        assert _emit_json(labels, indent) == want
        assert _emit_json(tuple(labels), indent) == want

    def test_zero_length_axes(self):
        assert _emit_json(np.zeros(0)) == "[]"
        assert _emit_json(np.zeros((0, 3))) == "[]"
        assert _emit_json(np.zeros((2, 0))) == "[\n  [],\n  []\n]"


def _reference_template(shape, indent):
    if not shape[0]:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    inner = "  " * (indent + 1)
    row = _reference_template(shape[1:], indent + 1)
    return ("[\n" + inner + (",\n" + inner).join([row] * shape[0])
            + "\n" + "  " * indent + "]")


def reference_emit_json(obj, indent=0):
    """The emitter that formats one value at a time, kept as the
    reference for the one-template emitter."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        return _reference_template(obj.shape, indent) % tuple(
            obj.ravel().tolist())
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: "
                 f"{reference_emit_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, np.integer,
                                  np.floating)) or v is None for v in items)
        if flat:
            return "[" + ", ".join(reference_emit_json(v, indent + 1)
                                   for v in items) + "]"
        parts = [f"{inner}{reference_emit_json(v, indent + 1)}"
                 for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1,
                     1 / 3]),
    st.floats())
edge_texts = st.one_of(
    st.sampled_from(["", "%", "%s", "%%", "%d%s%", "100%", '"', '\\"', "\\",
                     "\u00e9", "t\u00e9%s\"", "\u65e5\u672c", "\n\t",
                     "\ud800"]),
    st.text(max_size=8))
emit_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), edge_floats, edge_texts,
    edge_floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                            min_side=0, max_side=4),
               elements=edge_floats))
emit_payloads = st.recursive(
    emit_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(edge_texts, inner, max_size=4),
    max_leaves=25)


class TestEmitterMatchesReference:
    @given(obj=emit_payloads, indent=st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, obj, indent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _emit_json(obj, indent) == reference_emit_json(obj, indent)

    def test_edge_values_spelled_out(self):
        payload = {"%s": [-0.0, 0.0, 5e-324, 1.7976931348623157e308],
                   "a": np.array([[[-0.0]], [[0.0]]]), "b": np.zeros((0,)),
                   'q"\\': ["%", "\u00e9", 1, True, None, {}, []]}
        assert _emit_json(payload) == reference_emit_json(payload)
        assert '"%s": [-0, 0, 4.9406564584124654e-324, ' \
            '1.7976931348623157e+308]' in _emit_json(payload)

    @pytest.mark.parametrize("bad", [np.array(1.0), np.arange(3), np.bool_(1),
                                     {1, 2}])
    def test_unserializable_values_raise_as_before(self, bad):
        for emit in (_emit_json, reference_emit_json):
            with pytest.raises(TypeError, match="cannot serialize"):
                emit({"x": [1.5, bad]})


class TestSubprocess:
    """End-to-end checks through a real interpreter boundary."""

    def _run(self, args, cwd=None):
        env = dict(os.environ)
        # The child runs in a foreign cwd, where a relative PYTHONPATH entry
        # (such as the uninstalled ``PYTHONPATH=src``) resolves to nothing;
        # put the directory holding the package under test first, absolute.
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "hfgdm", *args],
            capture_output=True, cwd=cwd, env=env, timeout=120)

    def test_bundled_resolution_from_any_cwd(self, tmp_path, run_json):
        """A child process in a foreign cwd writes the same bytes as the
        in-process run: output depends on neither."""
        _, raw = run_json
        proc = self._run(RUN_JSON_ARGS, cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == raw

    def test_local_file_shadows_bundled_name(self, tmp_path):
        doc = json.loads(SMARTPHONE_TEXT)
        doc["alternatives"] = ["p1", "p2", "p3", "p4"]
        # the published ranking names the alternatives, so it follows them
        doc["published"]["ranking"] = [
            "p" + t[1:] for t in doc["published"]["ranking"]]
        (tmp_path / "smartphone.json").write_text(json.dumps(doc))
        proc = self._run(["run", "smartphone.json", "--format", "json"],
                         cwd=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["alternatives"] == ["p1", "p2", "p3", "p4"]


def main_output(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def field_name(path):
    """A key tuple as the document field name an error message uses."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


E1_HFPR = SMARTPHONE["experts"][0]["hfpr"]


# One wrong-typed field each, with the error every command that parses
# the document gives: the core rule for the value's kind, named by its
# document path, or a SchemaViolation for a fault in the document's own
# shape. Every one of these once escaped as an uncaught TypeError,
# ValueError or AttributeError: "internal error", exit 1.
NOT_A_NUMBER = ParameterOutOfRange, "{} = {!r} is not a number"
NOT_A_SEQUENCE = ParameterOutOfRange, "{} = {!r} is not a sequence"
NOT_AN_ARRAY = ParameterOutOfRange, "{} is not an array of real numbers"
NOT_ONE_PER_EXPERT = (SchemaViolation,
                      "{} must be a list of 3 numbers, one per expert")
WRONG_TYPED = [
    (("config", "eta"), "abc", NOT_A_NUMBER),
    (("config", "eta"), [1], NOT_A_NUMBER),
    (("config", "eta"), None, NOT_A_NUMBER),
    (("config", "gamma_grid"), "ab", NOT_A_SEQUENCE),
    (("config", "gamma_grid"), 5, NOT_A_SEQUENCE),
    (("config", "gamma_grid"), {"0.5": 1}, NOT_A_SEQUENCE),
    (("config", "gamma_grid"), [0.0, "x"], (
        ParameterOutOfRange, "{}[1] = 'x' is not a number")),
    (("config", "overrides", "c1"), "x", NOT_AN_ARRAY),
    (("config", "overrides", "ca"), [[1], [1, 2]], NOT_AN_ARRAY),
    (("config", "overrides", "c"), [[True, 0, 0]] * 3, NOT_AN_ARRAY),
    (("config", "overrides", "aggregated"), [[1], [1, 2]], NOT_AN_ARRAY),
    (("config", "overrides", "pair_similarity"), {"e1:e2": "x"}, (
        ParameterOutOfRange, "{}.e1:e2 = 'x' is not a number")),
    (("published", "ca"), ["x", 0.3, 0.4], NOT_ONE_PER_EXPERT),
    (("published", "pair_similarity"), [1, 2], (
        SchemaViolation, "field '{}' must be an object")),
    (("published", "ranking"), 5, (
        SchemaViolation, "{} must be a list of every alternative exactly "
        "once")),
    (("vertex_attrs",), [1, 2, 3, 4], (
        ParameterOutOfRange, "{}[0]: grades = 1 is not a sequence")),
    (("vertex_attrs",), ["ab", "cd", "ef", "gh"], (
        ParameterOutOfRange, "{}[0]: grades = 'ab' is not a sequence")),
    # numpy reads these as numbers; the schema does not.
    (("config", "eta"), "0.5", NOT_A_NUMBER),
    (("config", "eta"), True, NOT_A_NUMBER),
    (("config", "overrides", "pair_similarity"), {"e1:e2": "0.9"}, (
        ParameterOutOfRange, "{}.e1:e2 = '0.9' is not a number")),
    (("published", "pair_similarity"), {"e1:e2": "0.9"}, (
        ParameterOutOfRange, "{}.e1:e2 = '0.9' is not a number")),
    (("published", "ca"), [True, 0.3, 0.4], NOT_ONE_PER_EXPERT),
    (("experts", 0, "hfpr"), [[[str(x) for x in t] for t in row]
                              for row in E1_HFPR], NOT_AN_ARRAY),
    (("experts", 0, "hfpr"), [[[False if x == 0 else x for x in t]
                               for t in row] for row in E1_HFPR],
     NOT_AN_ARRAY),
]


def case_id(path, value):
    text = repr(value)
    if len(text) > 60:
        text = text[:57] + "..."
    return f"{field_name(path)}={text}"


@pytest.mark.parametrize(
    "path, value, error", WRONG_TYPED,
    ids=[case_id(p, v) for p, v, _ in WRONG_TYPED])
def test_wrong_typed_field_exits_2_naming_it(tmp_path, path, value, error):
    kind, message = error[0], error[1].format(field_name(path), value)
    doc = write_doc(tmp_path, edited(path, value))
    with pytest.raises(ValidationError) as info:
        parse_input(doc)
    assert (type(info.value), str(info.value)) == (kind, message)
    for argv in (["run", doc], ["energy", doc],
                 ["verify-bounds", "--fixtures", doc]):
        assert main_output(argv) == (2, "", f"error: {message}\n"), argv


# A non-finite number must be refused wherever it stands, whether the
# field wants numbers or strings: the first, hook-free decode must never
# let one through. A 5000-digit int is beyond Python's int-string limit.
MARK = 0.123456789012345
NON_FINITE_FIELDS = [
    (("experts", 1, "hfpr"), [[[MARK if (i, j, k) == (0, 1, 0) else x
                                for k, x in enumerate(t)]
                               for j, t in enumerate(row)]
                              for i, row in enumerate(E1_HFPR)]),
    (("vertex_attrs",), [[MARK, 0.3]] + [[0.5, 0.3]] * 3),
    (("config", "eta"), MARK),
    (("config", "gamma_grid"), [0.0, MARK]),
    (("config", "overrides", "c1"), [[MARK, 0.3, 0.3]] * 3),
    (("config", "overrides", "ca"), [MARK, 0.3, 0.3]),
    (("config", "overrides", "c"), [[0.3, MARK, 0.3]] * 3),
    (("config", "overrides", "aggregated"), [[[MARK, 0, 0]] * 4] * 4),
    (("config", "overrides", "pair_similarity"), {"e1:e2": MARK}),
    (("published", "pair_similarity"), {"e1:e2": MARK}),
    (("published", "similarity_degrees"), [MARK, 0.5, 0.5]),
    (("published", "ca"), [MARK, 0.3, 0.3]),
    (("alternatives",), ["a", MARK, "c", "d"]),
    (("experts", 0, "id"), MARK),
    (("config", "mode"), MARK),
    (("published", "ranking"), [MARK]),
]
NON_FINITE_TOKENS = ["1e999", "1" + "0" * 400, "9" * 5000, "NaN",
                     "-Infinity"]


@pytest.mark.parametrize("token", NON_FINITE_TOKENS,
                         ids=["1e999", "int400", "int5000", "NaN",
                              "-Infinity"])
@pytest.mark.parametrize("path, value", NON_FINITE_FIELDS,
                         ids=[field_name(p) for p, _ in NON_FINITE_FIELDS])
def test_non_finite_number_exits_2_in_any_field(tmp_path, path, value,
                                                token):
    text = json.dumps(edited(path, value))
    assert repr(MARK) in text
    doc = tmp_path / "doc.json"
    doc.write_text(text.replace(repr(MARK), token))
    rc, out, err = main_output(["run", str(doc), "--format", "json"])
    assert (rc, out) == (2, "")
    assert err == f"error: number {token} is not a finite float\n"


def test_repeated_key_cannot_hide_a_non_finite_number(tmp_path):
    # Every value is checked, and a key given twice is refused.
    text = json.dumps(SMARTPHONE).replace(
        '"eta": 0.5', '"eta": 1e999, "eta": 0.25')
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert main_output(["run", str(doc)]) == (
        2, "", "error: number 1e999 is not a finite float\n")
    doc.write_text(text.replace("1e999", "0.75"))
    assert main_output(["run", str(doc)]) == (
        2, "", "error: key 'eta' is given twice\n")


def _state(value):
    """A parsed document, or any part of it, as plain comparable values;
    floats and arrays by their bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _state(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((_state(k), _state(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_state(v) for v in value)
    return value


def _outcome(decode, text):
    try:
        return _state(cli._document(decode(text)))
    except SchemaViolation as e:
        return (type(e), str(e))
    except ValidationError as e:
        return (type(e), str(e))


def _fast_decode(text):
    return json.loads(text, object_pairs_hook=cli._unique_keys)


@pytest.mark.parametrize(
    "path", ["smartphone.json"] + sorted(
        str(p.relative_to(DATA)) for p in DATA.rglob("*.json")))
def test_both_decoders_give_equal_documents(path):
    text = SMARTPHONE_TEXT if path == "smartphone.json" else \
        (DATA / path).read_text(encoding="utf-8")
    fast = _outcome(_fast_decode, text)
    assert fast == _outcome(cli._strict_loads, text)
    if not path.startswith("golden"):
        assert fast[0] == "InputDocument"


# Number tokens and object keys in smartphone.json's own text.
NUMBER_TOKEN = re.compile(
    r"(?<=[\[,:\s])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
KEY_TOKEN = re.compile(r'"[^"]*":\s*')
# What a mutation writes in place of a number, or as a repeated key's value.
TOKENS = ["1e999", "1" + "0" * 400, "9" * 5000, "NaN", "-Infinity", "-0",
          "0.25", '"0.5"', "true", "false", "null",
          "[" * 40 + "0.5" + "]" * 40, "[" * 3000 + "]" * 3000]


@st.composite
def mutated_texts(draw):
    """smartphone.json's text after one to three mutations: a number
    replaced by a token or respelled, a key given twice, truncation, a
    stray character, or a byte order mark."""
    text = SMARTPHONE_TEXT
    for _ in range(draw(st.integers(1, 3))):
        # A respelled number keeps its value, so that some texts parse.
        kind = draw(st.sampled_from(("number", "respell") * 2
                                    + ("repeat", "truncate", "stray", "bom")))
        if kind in ("number", "respell"):
            spans = [m.span() for m in NUMBER_TOKEN.finditer(text)]
            if spans:
                a, b = draw(st.sampled_from(spans))
                token = draw(st.sampled_from(TOKENS)) if kind == "number" \
                    else "%.17e" % float(text[a:b])
                text = text[:a] + token + text[b:]
        elif kind == "repeat":
            keys = list(KEY_TOKEN.finditer(text))
            if keys:
                key = draw(st.sampled_from(keys))
                text = (text[:key.start()] + key.group()
                        + draw(st.sampled_from(TOKENS)) + ", "
                        + text[key.start():])
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind == "stray":
            k = draw(st.integers(0, len(text)))
            text = text[:k] + draw(st.sampled_from(",:[]{}\"")) + text[k:]
        else:
            text = "\ufeff" + text
    return text


@given(text=mutated_texts())
@example(text=SMARTPHONE_TEXT.replace('"eta": 0.5', '"eta": 0.5, "eta": 0.5'))
@example(text=SMARTPHONE_TEXT.replace('"eta": 0.5', '"eta": NaN'))
@example(text=SMARTPHONE_TEXT.replace('"eta": 0.5', '"eta": -0'))
@settings(max_examples=300, deadline=None)
def test_parse_input_equals_the_strict_decode_converted(fuzz_path, text):
    # Every text either parses to the document the strict decode gives,
    # or fails with the same error type and message.
    fuzz_path.write_text(text, encoding="utf-8")
    try:
        got = _state(parse_input(str(fuzz_path)))
    except ValidationError as e:
        got = (type(e), str(e))
    assert got == _outcome(cli._strict_loads, text)


@pytest.mark.parametrize("eta, error", [
    (0.5, None), ("0.5", "config.eta = '0.5' is not a number")])
def test_parse_input_converts_a_document_once(tmp_path, monkeypatch, eta,
                                              error):
    calls = []
    document = cli._document

    def counted(raw):
        calls.append(raw)
        return document(raw)

    monkeypatch.setattr(cli, "_document", counted)
    path = write_doc(tmp_path, edited(("config", "eta"), eta))
    if error is None:
        assert parse_input(path).config.eta == eta
    else:
        with pytest.raises(ParameterOutOfRange) as info:
            parse_input(path)
        assert (type(info.value), str(info.value)) == (ParameterOutOfRange,
                                                       error)
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_empty_pair_override_runs_as_no_override(tmp_path, fmt):
    doc = write_doc(tmp_path, edited(
        ("config", "overrides", "pair_similarity"), {}))
    assert parse_input(doc).config.overrides.stage_names() == ()
    want = main_output(["run", "smartphone.json", "--format", fmt])
    assert want[0] == 0
    assert main_output(["run", doc, "--format", fmt]) == want


def test_overflowing_similarity_degrees_exit_2_with_one_error_line(tmp_path):
    # Pair similarities of 1e308 sum to an infinite degree total; that
    # must be one error naming the degrees, not a numpy warning first.
    huge = {"e1:e2": 1e308, "e1:e3": 1e308, "e2:e3": 1e308}
    doc = write_doc(tmp_path, edited(
        ("config", "overrides", "pair_similarity"), huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = main_output(["run", doc])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: similarity degrees")


@pytest.mark.parametrize("pairs, named", [
    ({"e1:e2": -0.5, "e1:e3": -0.5, "e2:e3": -0.5}, "e1:e2 is -0.5"),
    ({"e1:e2": 0.9, "e1:e3": 0.0, "e2:e3": 0.9}, "e1:e3 is 0.0"),
], ids=["all-negative", "one-zero"])
def test_non_positive_pair_override_exits_2_naming_it(tmp_path, pairs, named):
    doc = write_doc(tmp_path, edited(
        ("config", "overrides", "pair_similarity"), pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = main_output(["run", doc])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: config.overrides.pair_similarity.{named}")


def test_duplicate_alternative_labels_exit_2_naming_one(tmp_path):
    doc = write_doc(tmp_path, edited(("alternatives",), ["a", "b", "a", "c"]))
    rc, out, err = main_output(["run", doc])
    assert (rc, out) == (2, "")
    assert err == "error: alternative label 'a' appears more than once\n"
    with pytest.raises(SchemaViolation) as info:
        parse_input(doc)
    assert info.value.field == "alternatives"


# -- paths that cannot be read or written ------------------------------------

# Each command's arguments before the path under test: the input document
# it reads, and, given an --out after them, the output it writes.
READS = {"run": ["run"], "verify-bounds": ["verify-bounds", "--fixtures"]}
WRITES = {"run": ["run", "smartphone.json"],
          "verify-bounds": ["verify-bounds", "--count", "2"]}


@pytest.mark.parametrize("command", sorted(READS))
def test_unreadable_input_exits_2_naming_it(tmp_path, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main_output(READS[command] + [str(folder)]) == (
        2, "", f"error: cannot read input {folder}: "
        f"{os.strerror(errno.EISDIR)}\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff{}")
    rc, out, err = main_output(READS[command] + [str(binary)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot read input {binary}: 'utf-8' codec")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", sorted(READS))
def test_missing_input_is_still_not_found(tmp_path, command):
    missing = str(tmp_path / "nope.json")
    assert main_output(READS[command] + [missing]) == (
        2, "", f"error: input not found: {missing}\n")


@pytest.mark.parametrize("command", sorted(WRITES))
def test_unwritable_out_exits_2_naming_it(tmp_path, command):
    # A missing directory and an existing directory, neither by mode bits:
    # the tests may run as a user whom no mode stops.
    missing = tmp_path / "no-such-dir" / "out.txt"
    folder = tmp_path / "folder"
    folder.mkdir()
    for out, errnum in ((missing, errno.ENOENT), (folder, errno.EISDIR)):
        assert main_output(WRITES[command] + ["--out", str(out)]) == (
            2, "", f"error: cannot write output {out}: "
            f"{os.strerror(errnum)}\n")
    # No temp file is left, and the directory stays as it was.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]
    assert list(folder.iterdir()) == []


def test_energy_and_fixture_survey_check_published_and_overrides(tmp_path):
    for path, value in [(("published", "ranking"), 5),
                        (("config", "overrides", "c1"), "x")]:
        doc = write_doc(tmp_path, edited(path, value))
        for argv in (["energy", doc], ["verify-bounds", "--fixtures", doc]):
            rc, out, err = main_output(argv)
            assert (rc, out) == (2, "")
            assert ".".join(path) in err


# Published vectors the discrepancy rows would have cut short or padded
# out: one value per expert, and each alternative ranked once.
PUBLISHED_MISFITS = [
    ("ca", [0.3], "a list of 3 numbers, one per expert"),
    ("ca", [0.3, 0.3, 0.2, 0.2], "a list of 3 numbers, one per expert"),
    ("similarity_degrees", [1.0, 1.0, 1.0, 1.0],
     "a list of 3 numbers, one per expert"),
    ("similarity_degrees", [], "a list of 3 numbers, one per expert"),
    ("ranking", ["zz"], "a list of every alternative exactly once"),
    ("ranking", ["t1", "t2", "t4"], "a list of every alternative exactly once"),
    ("ranking", ["t1", "t2", "t4", "t3", "zz"],
     "a list of every alternative exactly once"),
    ("ranking", ["t1", "t2", "t4", "t4"],
     "a list of every alternative exactly once"),
]


@pytest.mark.parametrize("key, value, what", PUBLISHED_MISFITS,
                         ids=[f"{k}={v}" for k, v, _ in PUBLISHED_MISFITS])
def test_published_vectors_fit_the_document(tmp_path, key, value, what):
    doc = write_doc(tmp_path, edited(("published", key), value))
    message = f"error: published.{key} must be {what}\n"
    for argv in (["run", doc], ["run", doc, "--format", "json"],
                 ["energy", doc], ["verify-bounds", "--fixtures", doc]):
        assert main_output(argv) == (2, "", message), argv


def test_published_ranking_may_list_alternatives_in_any_order(tmp_path):
    doc = write_doc(tmp_path, edited(("published", "ranking"),
                                     ["t3", "t1", "t4", "t2"]))
    rc, out, _ = main_output(["run", doc, "--format", "json"])
    assert rc == 0
    row = json.loads(out)["discrepancies"][-1]
    assert (row["published"], row["delta"]) == ("t3 > t1 > t4 > t2", 1.0)


@pytest.mark.parametrize("pairs, message", [
    ({"e1:e2": -1, "e1:e3": 0.8, "e2:e3": 0.8},
     "error: config.overrides.pair_similarity.e1:e2 is -1.0; "
     "it must be positive\n"),
    ({"e1:e2": 0.5, "e2:e1": 0.9, "e1:e3": 0.8, "e2:e3": 0.8},
     "error: config.overrides.pair_similarity gives e1:e2 and e2:e1; "
     "the measure is symmetric, so give it once\n"),
], ids=["negative", "both-orientations"])
def test_every_command_checks_pair_overrides_as_run_does(tmp_path, pairs,
                                                         message):
    doc = write_doc(tmp_path, edited(
        ("config", "overrides", "pair_similarity"), pairs))
    for argv in (["run", doc], ["energy", doc],
                 ["verify-bounds", "--fixtures", doc]):
        assert main_output(argv) == (2, "", message), argv


# Override values of the wrong shape or sign, and run's message for each.
# An aggregated relation of another size fails its labels while it is read.
OVERRIDE_MISFITS = [
    ("c1", [[0.3, 0.3, 0.4]] * 2,
     "c1 override must have shape (3, 3), got (2, 3)"),
    ("c1", [[-0.3, 0.3, 0.4]] * 3,
     "c1 override components must be nonnegative"),
    ("ca", [0.5, 0.5], "ca override must have shape (3,), got (2,)"),
    ("ca", [1.2, -0.1, -0.1], "ca override components must be nonnegative"),
    ("c", [[0.3, 0.3, 0.4]] * 4,
     "c override must have shape (3, 3), got (4, 3)"),
    ("c", [[0.3, -0.3, 0.4]] * 3, "c override components must be nonnegative"),
    ("aggregated", [row[:3] for row in E1_HFPR[:3]],
     "config.overrides.aggregated: 4 labels for an n = 3 relation"),
]


@pytest.mark.parametrize(
    "key, value, message", OVERRIDE_MISFITS,
    ids=["c1-shape", "c1-negative", "ca-shape", "ca-negative", "c-shape",
         "c-negative", "aggregated-size"])
def test_every_command_refuses_the_overrides_run_refuses(tmp_path, key, value,
                                                         message):
    doc = write_doc(tmp_path, edited(("config", "overrides", key), value))
    for argv in (["run", doc], ["run", doc, "--format", "json"],
                 ["energy", doc], ["energy", doc, "--format", "json"],
                 ["verify-bounds", "--fixtures", doc]):
        assert main_output(argv) == (2, "", f"error: {message}\n"), argv


def two_experts(edit):
    """smartphone.json's first two experts, without the published block,
    after edit(hfpr) has changed experts[1]'s matrix in place or returned
    a new one."""
    doc = copy.deepcopy(SMARTPHONE)
    del doc["published"]
    doc["experts"] = doc["experts"][:2]
    hfpr = doc["experts"][1]["hfpr"]
    doc["experts"][1]["hfpr"] = edit(hfpr) or hfpr
    return doc


def set_entry(i, j, triple, mirror=True):
    """An edit that sets entry (i, j), and (j, i) too if mirror."""
    def edit(hfpr):
        hfpr[i][j] = triple
        if mirror:
            hfpr[j][i] = triple
    return edit


def halved_under_vertex_bounds(edit):
    """Both experts halved, which keeps them inside vertex bounds of
    (0.4, 0.25, 0.35) at every alternative, then edit on experts[1].
    experts[0] is checked first, so an error naming experts[1] shows
    that the bounds hold before the edit."""
    doc = two_experts(lambda hfpr: None)
    for expert in doc["experts"]:
        expert["hfpr"] = [[[x / 2 for x in t] for t in row]
                          for row in expert["hfpr"]]
    doc["vertex_attrs"] = [[0.4, 0.25]] * 4
    edit(doc["experts"][1]["hfpr"])
    return doc


# One case per make_hfpr rule, broken in experts[1]: the document, the
# error's type, its (i, j) (None where it has none) and its message.
RELATION_FAULTS = {
    "range": (two_experts(set_entry(0, 1, [-0.1, 0.5, 0.1])), TripleOutOfRange,
              (0, 1), "mu = -0.1 at entry (0, 1) outside [0, 1]"),
    "sum": (two_experts(set_entry(0, 1, [0.9, 0.3, 0.1], False)),
            TripleOutOfRange, (0, 1),
            "mu + gamma + beta = 1.3 at entry (0, 1) exceeds 1"),
    "diagonal": (two_experts(set_entry(2, 2, [0.1, 0, 0])),
                 DiagonalNotZero, (2, None),
                 "diagonal entry (2, 2) = (0.1, 0.0, 0.0) must be exactly "
                 "(0, 0, 0)"),
    "asymmetry": (two_experts(set_entry(1, 0, [0.2, 0.5, 0.1], False)),
                  AsymmetricEntry, (1, 0),
                  "entry (1, 0) does not mirror (0, 1)"),
    "vertex": (halved_under_vertex_bounds(set_entry(0, 1, [0.45, 0.1, 0.1])),
               EdgeExceedsVertexBound, (0, 1),
               "entry (0, 1) exceeds its vertex bounds"),
    "shape": (two_experts(lambda h: [row[:2] for row in h[:3]]),
              DimensionMismatch, (None, None),
              "expected an (n, n, 3) array of triples, got shape (3, 2, 3)"),
    "labels": (two_experts(lambda h: [row[:3] for row in h[:3]]),
               DimensionMismatch, (None, None),
               "4 labels for an n = 3 relation"),
}


@pytest.mark.parametrize("rule", RELATION_FAULTS)
def test_a_relation_error_names_its_expert(tmp_path, rule):
    doc, kind, entry, message = RELATION_FAULTS[rule]
    path = write_doc(tmp_path, doc)
    for argv in (["run", path], ["energy", path],
                 ["verify-bounds", "--fixtures", path]):
        assert main_output(argv) == (
            2, "", f"error: experts[1].hfpr: {message}\n"), argv
    with pytest.raises(kind) as e:
        parse_input(path)
    assert type(e.value) is kind
    assert (getattr(e.value, "i", None), getattr(e.value, "j", None)) == entry


@pytest.mark.parametrize("entry, kind, message", [
    ([1.5, 0.2], ParameterOutOfRange,
     "vertex_attrs[1]: mu1 = 1.5 outside [0, 1]"),
    ([0.5, 0.2, 0.9], ParameterOutOfRange,
     "vertex_attrs[1]: beta1 = 0.9 but 1 - mu1 - gamma1 = 0.3"),
    # A wrong number of grades is core's arity fault, named by its entry.
    ([0.5], ParameterOutOfRange,
     "vertex_attrs[1] = [0.5] is not (mu1, gamma1) or (mu1, gamma1, beta1)"),
])
def test_a_vertex_attrs_error_names_its_entry(tmp_path, entry, kind, message):
    path = write_doc(tmp_path, edited(
        ("vertex_attrs",), [[0.5, 0.3], entry, [0.5, 0.3], [0.5, 0.3]]))
    for argv in (["run", path], ["energy", path],
                 ["verify-bounds", "--fixtures", path]):
        assert main_output(argv) == (2, "", f"error: {message}\n"), argv
    with pytest.raises(kind) as e:
        parse_input(path)
    assert type(e.value) is kind


@pytest.mark.parametrize("where", ["--eta", "--gamma", "config.eta",
                                   "config.gamma_grid"])
def test_a_signed_zero_is_echoed_as_zero(tmp_path, where):
    # -0 and 0 compute the same numbers; the echo of eta and of the grid
    # must not tell them apart either.
    def argv(zero):
        if where == "--eta":
            return ["run", "smartphone.json", "--eta", zero]
        if where == "--gamma":
            return ["run", "smartphone.json", f"--gamma={zero},0.5"]
        value = float(zero)
        if where == "config.gamma_grid":
            value = [value, 0.5]
        doc = edited(tuple(where.split(".")), value)
        return ["run", write_doc(tmp_path, doc, f"{zero}.json")]

    for fmt in ([], ["--format", "json"]):
        got = main_output(argv("-0") + fmt)
        assert got == main_output(argv("0") + fmt)
        assert got[0] == 0


def test_override_shape_is_reported_before_a_published_field(tmp_path):
    doc = edited(("config", "overrides", "c1"), [[0.3, 0.3, 0.4]] * 2)
    doc["published"]["ranking"] = 5
    assert main_output(["energy", write_doc(tmp_path, doc)]) == (
        2, "", "error: c1 override must have shape (3, 3), got (2, 3)\n")


def test_ca_sum_is_a_stage_rule_that_only_run_reaches(tmp_path):
    doc = write_doc(tmp_path, edited(("config", "overrides", "ca"),
                                     [0.9, 0.9, 0.9]))
    assert main_output(["run", doc]) == (
        2, "", "error: ca must sum to 1, got 2.7\n")
    assert main_output(["energy", doc])[0] == 0


@pytest.mark.parametrize("pairs, message", [
    ({"e1:e2": -1.0, "e1:e3": 0.8, "e2:e3": 0.8},
     "error: published.pair_similarity.e1:e2 is -1.0; it must be positive\n"),
    ({"e1:e2": 0.8, "e3:e1": 0.0},
     "error: published.pair_similarity.e3:e1 is 0.0; it must be positive\n"),
    ({"e1:e2": 0.5, "e2:e1": 0.9, "e1:e3": 0.8},
     "error: published.pair_similarity gives e1:e2 and e2:e1; "
     "the measure is symmetric, so give it once\n"),
], ids=["negative", "zero", "both-orientations"])
def test_published_pairs_meet_the_override_rule(tmp_path, pairs, message):
    # --override-similarity paper injects these pairs, so every command
    # refuses them on parse as that flag would, naming the published key
    # as written rather than an override the document does not have.
    doc = write_doc(tmp_path, edited(("published", "pair_similarity"), pairs))
    for argv in (["run", doc], ["run", doc, "--override-similarity", "paper"],
                 ["energy", doc], ["verify-bounds", "--fixtures", doc]):
        assert main_output(argv) == (2, "", message), argv


def test_published_pairs_keep_their_keys_as_written(tmp_path):
    doc = write_doc(tmp_path, edited(("published", "pair_similarity"),
                                     {"e2:e1": 1.9856, "e1:e3": 1.9155}))
    rc, out, _ = main_output(["run", doc, "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["discrepancies"]
    assert [r["quantity"] for r in rows[:2]] == [
        "pair_similarity e2:e1", "pair_similarity e1:e3"]


def test_expert_id_with_a_colon_can_be_named_in_a_pair_key(tmp_path):
    doc = copy.deepcopy(SMARTPHONE)
    doc["experts"][0]["id"] = "e:1"
    doc["published"]["pair_similarity"] = {
        "e:1:e2": 1.9856, "e2:e3": 2.0579, "e:1:e3": 1.9155}
    path = write_doc(tmp_path, doc)
    assert parse_input(path).published["pair_similarity"] == {
        (0, 1): 1.9856, (1, 2): 2.0579, (0, 2): 1.9155}
    paper = ["--override-similarity", "paper", "--format", "json"]
    renamed = main_output(["run", path] + paper)
    plain = main_output(["run", "smartphone.json"] + paper)
    assert renamed == (0, plain[1].replace('"e1', '"e:1'), "")


def test_pair_key_read_two_ways_exits_2_naming_it(tmp_path):
    # a:b:c is a with b:c and a:b with c; neither reading is preferred.
    doc = copy.deepcopy(SMARTPHONE)
    doc["experts"].append(copy.deepcopy(doc["experts"][0]))
    for expert, ident in zip(doc["experts"], ("a", "a:b", "b:c", "c")):
        expert["id"] = ident
    doc["config"]["overrides"] = {"pair_similarity": {"a:b:c": 1.0}}
    del doc["published"]
    with pytest.raises(SchemaViolation) as info:
        parse_input(write_doc(tmp_path, doc))
    assert info.value.field == "config.overrides.pair_similarity.a:b:c"
    assert main_output(["run", write_doc(tmp_path, doc)]) == (
        2, "", "error: pair key 'a:b:c' splits into two expert ids in "
        "more than one way\n")


def test_expert_without_hfpr_exits_2_naming_it(tmp_path):
    doc = copy.deepcopy(SMARTPHONE)
    del doc["experts"][1]["hfpr"]
    assert main_output(["run", write_doc(tmp_path, doc)]) == (
        2, "", "error: missing hfpr matrix\n")


def test_computation_error_exits_1(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for argv in (["run", "smartphone.json"], ["energy", "smartphone.json"]):
        assert main_output(argv) == (
            1, "", "error: symmetric eigensolver failed: "
            "Eigenvalues did not converge\n")


def test_an_unexpected_exception_exits_1_as_an_internal_error(monkeypatch):
    # The defensive branch: an exception that is neither a typed input
    # error nor a ComputationError exits 1 with one line on stderr.
    def fail(relations):
        raise KeyError("boom")
    monkeypatch.setattr(cli, "energies", fail)
    assert main_output(["energy", "smartphone.json"]) == (
        1, "", "internal error: KeyError('boom')\n")


def test_bundled_documents_ship_where_parse_input_opens_them():
    # Each bundled name lies in the source tree's data directory, matches
    # the package-data glob that puts it in a built package, and is the
    # file parse_input opens for it. tomllib is in the standard library
    # from Python 3.11.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["hfgdm"]
    assert cli.BUNDLED
    for name in cli.BUNDLED:
        assert (BUNDLED_DIR / name).is_file(), name
        assert any(fnmatch.fnmatch(f"data/{name}", g) for g in globs), name
        assert (Path(cli._DATA_DIR) / name).read_bytes() == \
            (BUNDLED_DIR / name).read_bytes()


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON output")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

FUZZED_FIELDS = (
    [("config", key) for key in ("mode", "score_normalization", "eta",
                                 "gamma_grid", "closeness",
                                 "blend_convention")]
    + [("config", "overrides", key) for key in ("c1", "pair_similarity",
                                                "ca", "c", "aggregated")]
    + [("published", key) for key in ("pair_similarity",
                                      "similarity_degrees", "ca", "ranking")]
    + [("vertex_attrs",), ("alternatives",), ("experts",)])


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(path=st.sampled_from(FUZZED_FIELDS), value=json_values)
@settings(max_examples=150, deadline=None)
def test_any_one_field_exits_0_or_2(fuzz_path, path, value):
    """Whatever one field holds, the CLI either succeeds with well-formed
    output or rejects the document as invalid input."""
    fuzz_path.write_text(json.dumps(edited(path, value)))
    doc = str(fuzz_path)
    for argv in (["run", doc], ["run", doc, "--format", "json"],
                 ["run", doc, "--override-similarity", "paper"]):
        rc, out, err = main_output(argv)
        assert rc in (0, 2), (argv, err)
        if rc == 2:
            assert out == ""
        elif "json" in argv:
            json.loads(out, parse_constant=_reject_constant)


# Committed outputs of the documented invocations. Tables must match byte
# for byte; JSON and CSV must keep every key, string and row, with numbers
# within 1e-12 (output is byte-deterministic per machine; another numpy or
# LAPACK build may move a last digit). To regenerate one after an intended
# change, redirect the listed invocation into its file, e.g.
# `python -m hfgdm run smartphone.json > tests/data/golden/run_smartphone.txt`.
GOLDENS = {
    "run_smartphone.txt": ["run", "smartphone.json"],
    "run_smartphone.json": ["run", "smartphone.json", "--format", "json"],
    "run_smartphone_laplacian.txt": ["run", "smartphone.json",
                                     "--mode", "laplacian"],
    "run_smartphone_laplacian.json": ["run", "smartphone.json", "--mode",
                                      "laplacian", "--format", "json"],
    "run_smartphone_paper.txt": ["run", "smartphone.json",
                                 "--override-similarity", "paper"],
    "run_smartphone_paper.json": ["run", "smartphone.json",
                                  "--override-similarity", "paper",
                                  "--format", "json"],
    "energy_smartphone.txt": ["energy", "smartphone.json"],
    "energy_smartphone.json": ["energy", "smartphone.json",
                               "--format", "json"],
    "verify_bounds_fixtures.csv": ["verify-bounds", "--fixtures"],
    "verify_bounds_count40_seed9.csv": ["verify-bounds", "--count", "40",
                                        "--seed", "9"],
    "verify_bounds_count60_seed3_n1-12.csv": ["verify-bounds", "--count",
                                              "60", "--seed", "3",
                                              "--n-range", "1:12"],
    "run_shared_weights.txt": ["run", SHARED_DOC],
    "run_shared_weights.json": ["run", SHARED_DOC, "--format", "json"],
    "run_panel_shared.txt": ["run", PANEL_DOC],
    "run_panel_shared.json": ["run", PANEL_DOC, "--format", "json"],
    "run_escapes.json": ["run", ESCAPES_DOC, "--format", "json"],
}


def assert_json_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool)
        assert abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want, where


def _csv_cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def assert_matches_golden(name, out):
    """out as the golden of that name: tables byte for byte, JSON and CSV
    with every key, string and row, and numbers within 1e-12."""
    want = (DATA / "golden" / name).read_text(encoding="utf-8")
    if name.endswith(".txt"):
        assert out == want
    elif name.endswith(".json"):
        assert_json_close(json.loads(out), json.loads(want))
    else:
        got_rows = list(csv.reader(io.StringIO(out)))
        want_rows = list(csv.reader(io.StringIO(want)))
        assert len(got_rows) == len(want_rows)
        for got, want in zip(got_rows, want_rows):
            assert_json_close([_csv_cell(c) for c in got],
                              [_csv_cell(c) for c in want])


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name):
    rc, out, _ = main_output(GOLDENS[name])
    assert rc == 0
    assert_matches_golden(name, out)


def test_survey_golden_byte_for_byte():
    # n = 1..12 puts n = 1 and 2 and many size groups into one block; every
    # printed bound keeps its last digit, not just its value within 1e-12.
    name = "verify_bounds_count60_seed3_n1-12.csv"
    rc, out, err = main_output(GOLDENS[name])
    assert (rc, err) == (0, "")
    assert out == (DATA / "golden" / name).read_text(encoding="utf-8")


def test_escaped_strings_match_golden_byte_for_byte():
    # Labels and ids holding %s, a quote and a non-ASCII letter: every
    # string literal must keep its exact escaped bytes, which the parsed
    # comparison above cannot see.
    literal = re.compile(r'"(?:[^"\\]|\\.)*"')
    rc, out, _ = main_output(GOLDENS["run_escapes.json"])
    want = (DATA / "golden" / "run_escapes.json").read_text(encoding="utf-8")
    assert rc == 0
    assert literal.findall(out) == literal.findall(want)
    assert '"t%s1", "t\\"2", "t\\u00e93", "t4 100%"' in out


@pytest.fixture
def one_ulp_solver(monkeypatch):
    """The eigensolver with every nonzero eigenvalue moved one ulp away
    from zero: a deterministic stand-in for another LAPACK build."""
    solve = spectral.eigenvalues

    def shifted(a):
        w = solve(a)
        return np.where(w == 0.0, w, np.nextafter(w, np.copysign(np.inf, w)))

    monkeypatch.setattr(spectral, "eigenvalues", shifted)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_goldens_hold_under_a_one_ulp_solver(one_ulp_solver, name):
    rc, out, _ = main_output(GOLDENS[name])
    assert rc == 0
    assert_matches_golden(name, out)


def test_one_ulp_solver_moves_survey_bytes_within_1e_12(one_ulp_solver):
    # The n = 1..12 survey keeps every value within 1e-12 but not its last
    # digits. If test_survey_golden_byte_for_byte fails on a machine where
    # this test passes, its solver's last bit, not the code, moved it.
    name = "verify_bounds_count60_seed3_n1-12.csv"
    rc, out, err = main_output(GOLDENS[name])
    assert (rc, err) == (0, "")
    assert_matches_golden(name, out)
    assert out != (DATA / "golden" / name).read_text(encoding="utf-8")
