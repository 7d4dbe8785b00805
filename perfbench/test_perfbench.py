"""Tests of the benchmark's own checkers, tracer and command.

Run from the repository root: python -m pytest perfbench -q

Each checker must accept the program's real output and reject a copy
corrupted in one place. The traced counts on the case study must equal
the counts worked out by hand from the code.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import tracing
import workloads
from hfgdm import cli, pipeline, spectral

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _out(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def _edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


@pytest.fixture(scope="module")
def casestudy(tmp_path_factory):
    wl = workloads.CaseStudy(0, ROOT, str(tmp_path_factory.mktemp("cs")))
    return [(op, _out(op.argv)) for op in wl.round]


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    wl = workloads.Panel(5, ROOT, str(tmp_path_factory.mktemp("panel")),
                         n=5, l=4)
    op = wl.op(0)
    return op, _out(op.argv)


@pytest.fixture(scope="module")
def survey():
    op = workloads.Survey(7, ROOT, ".", count=4).op(0)
    return op, _out(op.argv)


# -- checkers accept real output ------------------------------------------

def test_casestudy_outputs_pass(casestudy):
    for op, text in casestudy:
        op.check(text)


def test_survey_output_passes(survey):
    op, text = survey
    op.check(text)


def test_panel_output_passes(panel):
    op, text = panel
    op.check(text)


# -- checkers reject corrupted output -------------------------------------

def _swap_ranking(data):
    r = data["runs"][2]["ranking"]
    r[0], r[1] = r[1], r[0]


@pytest.mark.parametrize("edit", [
    _swap_ranking,
    lambda d: d["energy"]["e2"].__setitem__(1, d["energy"]["e2"][1] + 1e-6),
    lambda d: d["laplacian_energy"]["e3"].__setitem__(
        0, d["laplacian_energy"]["e3"][0] - 1e-6),
], ids=["swapped-ranking", "energy-moved", "laplacian-energy-moved"])
def test_casestudy_rejects(casestudy, edit):
    for op, text in casestudy:
        with pytest.raises(checks.CheckFailed):
            op.check(_edit_json(text, edit))


def test_casestudy_rejects_ca_off_the_published(casestudy):
    op, text = casestudy[2]
    assert "--override-similarity" in op.argv
    with pytest.raises(checks.CheckFailed):
        op.check(_edit_json(text, lambda d: d["ca"].__setitem__(
            0, d["ca"][0] + 2e-4)))


def _edit_csv_row(text: str, index: int, column: int, value) -> str:
    lines = text.splitlines()
    cells = lines[index].split(",")
    cells[column] = value(cells[column])
    lines[index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_survey_rejects_row_flipped_to_unsatisfied(survey):
    op, text = survey
    with pytest.raises(checks.CheckFailed, match="not satisfied"):
        op.check(_edit_csv_row(text, 17, 7, lambda _: "false"))


def test_survey_rejects_value_moved(survey):
    op, text = survey
    with pytest.raises(checks.CheckFailed, match="value"):
        op.check(_edit_csv_row(text, 30, 4,
                               lambda v: repr(float(v) + 1e-6)))


def test_survey_rejects_missing_instance(survey):
    op, text = survey
    lines = text.splitlines()
    with pytest.raises(checks.CheckFailed, match="rows"):
        op.check("\n".join(lines[:-checks.ROWS_PER_INSTANCE]) + "\n")


def test_panel_rejects_aggregate_off_the_mean(panel):
    op, text = panel

    def edit(d):
        d["runs"][1]["aggregated"][0][1][2] += 1e-9
    with pytest.raises(checks.CheckFailed, match="mean"):
        op.check(_edit_json(text, edit))


def test_panel_rejects_ca_not_summing_to_one(panel):
    op, text = panel
    with pytest.raises(checks.CheckFailed, match="ca"):
        op.check(_edit_json(text, lambda d: d["ca"].__setitem__(
            0, d["ca"][0] + 1e-6)))


def test_panel_rejects_swapped_ranking(panel):
    op, text = panel
    with pytest.raises(checks.CheckFailed, match="ranking"):
        op.check(_edit_json(text, _swap_ranking))


# -- traced counts ----------------------------------------------------------

def test_casestudy_counts_per_run_call():
    experts = cli.parse_input("smartphone.json").experts
    with tracing.Tracer() as tracer:
        tracer.begin_op()
        pipeline.run(experts)
        tracer.end_op(0)
    got = tracer.per_layer()
    assert got["kernels.solves"] == 27
    assert got["kernels.distinct"] == 18
    assert got["similarity.pair.calls"] == 6
    assert got["similarity.pair.distinct"] == 3
    assert got["pipeline.aggregate.calls"] == 5
    assert got["core.make_hfpr.calls"] == 5


def test_casestudy_counts_per_cli_round(casestudy):
    with tracing.Tracer(keep_ops=1) as tracer:
        for op, _ in casestudy:
            tracer.begin_op()
            text = _out(op.argv)
            tracer.end_op(len(text))
    got = tracer.per_layer()
    # Each invocation runs the pipeline once: 27 solves of 18 matrices.
    # The energy and Laplacian runs make 6 pair calls inside run() and 3
    # more for the published comparison; the paper override makes none.
    assert got["kernels.solves"] == 27
    assert got["kernels.distinct"] == 18
    assert got["similarity.pair.calls"] == (9 + 9 + 0) / 3
    assert got["similarity.pair.distinct"] == (3 + 3 + 0) / 3
    assert got["pipeline.run.calls"] == 1
    assert got["core.make_hfpr.calls"] == 3 + 5
    assert got["cli.out_bytes"] == sum(len(t) for _, t in casestudy) / 3
    # Self times partition the one root span, cli.main, exactly.
    fids = {name: fid for fid, name in enumerate(tracer.names)}
    assert sum(tracer.self_ns) == tracer.incl_ns[fids["cli.main"]]
    roots = [s for s in tracer.kept_spans() if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["cli.main"]


def test_survey_counts_per_instance():
    op = workloads.Survey(3, ROOT, ".", count=4).op(0)
    with tracing.Tracer() as tracer:
        tracer.begin_op()
        _out(op.argv)
        tracer.end_op(0)
    got = tracer.per_layer()
    assert got["kernels.solves"] == 9 * 4
    assert got["kernels.distinct"] == 6 * 4
    assert got["core.make_hfpr.calls"] == 4
    assert got["pipeline.run.calls"] == 0
    assert got["similarity.pair.calls"] == 0


def test_tracer_restores_every_binding():
    before = (pipeline.energy, pipeline.make_hfpr, cli.run_pipeline,
              spectral.random_hfpr)
    with tracing.Tracer():
        assert pipeline.energy is not before[0]
        assert cli.run_pipeline is not before[2]
    assert (pipeline.energy, pipeline.make_hfpr, cli.run_pipeline,
            spectral.random_hfpr) == before


# -- the command ------------------------------------------------------------

def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_last(trace):
    proc = _bench(ROOT, "--workload", "casestudy", "--seed", "2",
                  "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % 3 == 0
    want = set(tracing.PER_LAYER) if trace == "1" else {
        "op_ms_p50", "setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == want


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, "--workload", "casestudy", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
