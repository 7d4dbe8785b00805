"""Command-line interface: parsing, output formats, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hfgdm.cli as cli
from hfgdm import energy
from hfgdm.cli import _emit_json, _fmt_float, main, parse_input
from hfgdm.errors import SchemaViolation, TripleOutOfRange
from hfgdm.fixtures import read_text
from hfgdm.spectral import SurveyRow

RUN_JSON_ARGS = ["run", "smartphone.json", "--format", "json"]
# Directory that holds the imported ``hfgdm`` package, for child processes.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parent.parent)
CSV_HEADER = "seed,n,channel,quantity,value,bound_lo,bound_hi,satisfied"


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
        assert doc.alternatives == ("t1", "t2", "t3", "t4")
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

    def test_unknown_fields_rejected_everywhere(self, tmp_path):
        base = json.loads(read_text("smartphone.json"))
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
        base = json.loads(read_text("smartphone.json"))
        for field in ("alternatives", "experts"):
            doc = json.loads(json.dumps(base))
            del doc[field]
            with pytest.raises(SchemaViolation, match=field):
                parse_input(write_doc(tmp_path, doc))

    def test_duplicate_expert_ids(self, tmp_path):
        doc = json.loads(read_text("smartphone.json"))
        doc["experts"][1]["id"] = "e1"
        with pytest.raises(SchemaViolation, match="unique"):
            parse_input(write_doc(tmp_path, doc))

    def test_relation_validation_propagates(self, tmp_path):
        doc = json.loads(read_text("smartphone.json"))
        doc["experts"][0]["hfpr"][0][1] = [0.9, 0.9, 0.9]
        with pytest.raises(TripleOutOfRange):
            parse_input(write_doc(tmp_path, doc))

    def test_pair_override_keys_validated(self, tmp_path):
        base = json.loads(read_text("smartphone.json"))
        for key in ("e1:e1", "e9:e1", "e1", "e1:e2:e3"):
            doc = json.loads(json.dumps(base))
            doc["config"]["overrides"] = {"pair_similarity": {key: 1.0}}
            with pytest.raises(SchemaViolation, match="pair key"):
                parse_input(write_doc(tmp_path, doc))

    def test_pair_override_parsed_to_indices(self, tmp_path):
        doc = json.loads(read_text("smartphone.json"))
        doc["config"]["overrides"] = {
            "pair_similarity": {"e2:e3": 1.9, "e1:e3": 1.8}}
        parsed = parse_input(write_doc(tmp_path, doc))
        assert parsed.config.overrides.pair_similarity == {
            (1, 2): 1.9, (0, 2): 1.8}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_exits_2(self, tmp_path, capsys, token):
        # Let through, a NaN pair similarity with an aggregated override
        # runs to the end and prints bare nan tokens, which are not JSON.
        doc = json.loads(read_text("smartphone.json"))
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
        doc = json.loads(read_text("smartphone.json"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"eta": 0.5', f'"eta": {big}'))
        assert big in path.read_text()
        with pytest.raises(SchemaViolation,
                           match=f"number {big} is not a finite float"):
            parse_input(str(path))

    def test_vertex_attrs_length_checked(self, tmp_path):
        doc = json.loads(read_text("smartphone.json"))
        doc["vertex_attrs"] = [[0.5, 0.3, 0.1]]
        with pytest.raises(SchemaViolation, match="vertex_attrs"):
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
        assert tuple(payload["runs"][-1]["f"]) == report.records[-1].f
        assert tuple(payload["ca"]) == tuple(report.ca)

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

    def test_unknown_override_name_exits_2(self, capsys):
        assert main(RUN_JSON_ARGS + ["--override-similarity", "other"]) == 2
        assert "paper" in capsys.readouterr().err

    def test_override_without_published_block_exits_2(self, tmp_path, capsys):
        doc = json.loads(read_text("smartphone.json"))
        del doc["published"]
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--override-similarity", "paper"]) == 2
        assert "published" in capsys.readouterr().err

    def test_invalid_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(RUN_JSON_ARGS + ["--mode", "hybrid"])
        assert info.value.code == 2


class TestEnergyCommand:
    def test_json_matches_library(self, capsys):
        assert main(["energy", "smartphone.json", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        doc = parse_input("smartphone.json")
        for ident, h in zip(doc.expert_ids, doc.experts):
            assert tuple(payload["energy"][ident]) == energy(h).as_tuple()

    def test_table(self, capsys):
        assert main(["energy", "smartphone.json"]) == 0
        out = capsys.readouterr().out
        assert "laplacian energy" in out
        assert "2.1115, 2.2435, 1.3062".replace(", ", ",") in out


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
        assert _fmt_float(2.394436802675439) in out.read_text()
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

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["verify-bounds", "--count", "0"]) == 2
        assert main(["verify-bounds", "--n-range", "5"]) == 2
        assert main(["verify-bounds", "--n-range", "8:3"]) == 2
        capsys.readouterr()


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
        assert doc.alternatives == ("t1", "t2", "t3", "t4", "t5")
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

    def test_degenerate_sizes_exit_2(self, capsys):
        assert main(["generate", "--n", "1"]) == 2
        assert main(["generate", "--experts", "1"]) == 2
        capsys.readouterr()


class TestFloatFormat:
    def test_round_trip_exactness(self):
        for x in (0.1, 1 / 3, np.pi, 2.1114877048604002, 1e-300,
                  12345.678901234567, 5e-324):
            assert float(_fmt_float(x)) == x

    def test_integers_stay_short(self):
        assert _fmt_float(1.0) == "1"
        assert _fmt_float(0.5) == "0.5"


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
        doc = json.loads(read_text("smartphone.json"))
        doc["alternatives"] = ["p1", "p2", "p3", "p4"]
        (tmp_path / "smartphone.json").write_text(json.dumps(doc))
        proc = self._run(["run", "smartphone.json", "--format", "json"],
                         cwd=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["alternatives"] == ["p1", "p2", "p3", "p4"]
