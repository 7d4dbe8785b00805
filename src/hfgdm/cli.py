"""Command-line interface: run, energy, verify-bounds, generate.

Input is a single strict-schema JSON document per scenario (see
parse_input). Machine output serializes every float with 17 significant
digits so documents round-trip exactly; tables render 4 decimal places
and mirror the published case-study table column order (gamma, score
vectors, similarities to the ideals, closeness, ranking) for eyeball
diffing. All output is written once, atomically, at the end of a run.

Exit codes: 0 success, 1 internal error, 2 input validation failure,
3 bound violation in verify-bounds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .core import HFPR, make_hfpr, random_hfpr
from .errors import ComputationError, SchemaViolation, ValidationError
from .pipeline import (
    CLOSENESS_MODES,
    CONVENTIONS,
    MODES,
    NORMALIZATIONS,
    Overrides,
    PipelineConfig,
    RankingReport,
    run as run_pipeline,
)
from .similarity import pair_similarity
from .spectral import bounds_survey, energy, fixture_survey_rows, laplacian_energy

_TOP_KEYS = {"alternatives", "experts", "config", "published", "vertex_attrs"}
_CONFIG_KEYS = {"mode", "score_normalization", "eta", "gamma_grid",
                "closeness", "blend_convention", "overrides"}
_OVERRIDE_KEYS = {"pair_similarity", "ca", "c1", "c", "aggregated"}
_PUBLISHED_KEYS = {"pair_similarity", "similarity_degrees", "ca", "ranking"}


@dataclass(frozen=True)
class InputDocument:
    """One parsed and validated scenario document."""

    alternatives: tuple[str, ...]
    expert_ids: tuple[str, ...]
    experts: tuple[HFPR, ...]
    config: PipelineConfig
    published: dict | None


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _emit_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 17 sig digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, np.integer,
                                  np.floating)) or v is None for v in items)
        if flat:
            return "[" + ", ".join(_emit_json(v, indent + 1) for v in items) + "]"
        parts = [f"{inner}{_emit_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaViolation(where, f"field {where!r} must be an object")
    return obj


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaViolation(
            f"{where}.{sorted(unknown)[0]}",
            f"unknown field {sorted(unknown)[0]!r} in {where}")


def _finite(token: str, parse=float):
    """Parse a JSON number token; NaN, Infinity and overflow are errors."""
    if not math.isfinite(float(token)):
        raise SchemaViolation("json", f"number {token} is not a finite float")
    return parse(token)


def _pair_key_to_indices(key: str, ids: tuple[str, ...],
                         where: str) -> tuple[int, int]:
    parts = key.split(":")
    if len(parts) != 2 or parts[0] not in ids or parts[1] not in ids \
            or parts[0] == parts[1]:
        raise SchemaViolation(
            f"{where}.{key}",
            f"pair key {key!r} must be two distinct expert ids joined by ':'")
    return ids.index(parts[0]), ids.index(parts[1])


def parse_input(path: str) -> InputDocument:
    """Parse and validate a scenario document; strict schema.

    A path that does not exist on disk but names a bundled fixture
    (smartphone.json) resolves to the bundled copy, so documented example
    invocations work from any directory. NaN, Infinity and numbers that
    overflow a float are rejected, so no non-finite value enters a run.
    """
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif fixtures.is_bundled(path):
        text = fixtures.read_text(path)
    else:
        raise FileNotFoundError(path)
    try:
        raw = json.loads(text, parse_float=_finite, parse_constant=_finite,
                         parse_int=lambda token: _finite(token, int))
    except json.JSONDecodeError as e:
        raise SchemaViolation(
            "json", f"invalid JSON at line {e.lineno}: {e.msg}") from None

    raw = _require_mapping(raw, "document")
    _check_keys(raw, _TOP_KEYS, "document")
    for required in ("alternatives", "experts"):
        if required not in raw:
            raise SchemaViolation(required, f"missing field {required!r}")

    alternatives = raw["alternatives"]
    if not isinstance(alternatives, list) or not alternatives \
            or not all(isinstance(x, str) for x in alternatives):
        raise SchemaViolation(
            "alternatives", "alternatives must be a nonempty list of labels")
    alternatives = tuple(alternatives)
    n = len(alternatives)

    vertex_attrs = raw.get("vertex_attrs")
    if vertex_attrs is not None:
        if not isinstance(vertex_attrs, list) or len(vertex_attrs) != n:
            raise SchemaViolation(
                "vertex_attrs", f"vertex_attrs must list {n} entries")

    experts_raw = raw["experts"]
    if not isinstance(experts_raw, list) or not experts_raw:
        raise SchemaViolation(
            "experts", "experts must be a nonempty list")
    ids = []
    relations = []
    for k, item in enumerate(experts_raw):
        item = _require_mapping(item, f"experts[{k}]")
        _check_keys(item, {"id", "hfpr"}, f"experts[{k}]")
        if "id" not in item or not isinstance(item["id"], str):
            raise SchemaViolation(f"experts[{k}].id", "expert id must be a string")
        if "hfpr" not in item:
            raise SchemaViolation(f"experts[{k}].hfpr", "missing hfpr matrix")
        ids.append(item["id"])
        try:
            matrix = np.asarray(item["hfpr"], dtype=float)
        except (TypeError, ValueError):
            raise SchemaViolation(
                f"experts[{k}].hfpr", "hfpr must be an n x n x 3 numeric array"
            ) from None
        relations.append(
            make_hfpr(matrix, labels=alternatives, vertex_attrs=vertex_attrs))
    if len(set(ids)) != len(ids):
        raise SchemaViolation("experts", "expert ids must be unique")
    ids = tuple(ids)

    config_raw = raw.get("config", {})
    config_raw = _require_mapping(config_raw, "config")
    _check_keys(config_raw, _CONFIG_KEYS, "config")
    overrides = Overrides()
    if "overrides" in config_raw:
        ov_raw = _require_mapping(config_raw["overrides"], "config.overrides")
        _check_keys(ov_raw, _OVERRIDE_KEYS, "config.overrides")
        pair = None
        if "pair_similarity" in ov_raw:
            mapping = _require_mapping(
                ov_raw["pair_similarity"], "config.overrides.pair_similarity")
            pair = {
                _pair_key_to_indices(k, ids, "config.overrides.pair_similarity"):
                    float(v)
                for k, v in mapping.items()}
        aggregated = None
        if "aggregated" in ov_raw:
            aggregated = make_hfpr(
                np.asarray(ov_raw["aggregated"], dtype=float),
                labels=alternatives)
        overrides = Overrides(
            pair_similarity=pair,
            c1=ov_raw.get("c1"),
            ca=ov_raw.get("ca"),
            c=ov_raw.get("c"),
            aggregated=aggregated,
        )

    config = PipelineConfig(
        mode=config_raw.get("mode", "energy"),
        score_normalization=config_raw.get("score_normalization", "auto"),
        eta=float(config_raw.get("eta", 0.5)),
        gamma_grid=tuple(config_raw.get("gamma_grid",
                                        (0.0, 0.3, 0.5, 0.7, 1.0))),
        closeness_mode=config_raw.get("closeness", "relative"),
        blend_convention=config_raw.get("blend_convention", "auto"),
        overrides=overrides,
    )

    published = raw.get("published")
    if published is not None:
        published = _require_mapping(published, "published")
        _check_keys(published, _PUBLISHED_KEYS, "published")

    return InputDocument(
        alternatives=alternatives,
        expert_ids=ids,
        experts=tuple(relations),
        config=config,
        published=published,
    )


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)


def _vector_cell(values) -> str:
    return ",".join(f"{v:.4f}" for v in values)


def _ranking_str(labels, ranking) -> str:
    return " > ".join(labels[i] for i in ranking)


def _discrepancies(doc: InputDocument, report: RankingReport) -> list[dict]:
    """Computed-vs-published comparison rows for every comparable stage."""
    published = doc.published or {}
    out: list[dict] = []
    overridden = set(report.overridden)

    def add(quantity: str, computed, published_value):
        out.append({
            "quantity": quantity,
            "computed": computed,
            "published": published_value,
            "delta": abs(float(computed) - float(published_value)),
        })

    if "pair_similarity" in published and "pair_similarity" not in overridden:
        for key, pub in published["pair_similarity"].items():
            i, j = _pair_key_to_indices(key, doc.expert_ids,
                                        "published.pair_similarity")
            add(f"pair_similarity {key}",
                pair_similarity(doc.experts[i], doc.experts[j]), pub)
    if "similarity_degrees" in published \
            and report.similarity_degrees is not None \
            and not overridden & {"pair_similarity"}:
        for ident, computed, pub in zip(doc.expert_ids,
                                        report.similarity_degrees,
                                        published["similarity_degrees"]):
            add(f"similarity_degree {ident}", computed, pub)
    if "ca" in published and not overridden & {"pair_similarity", "ca"}:
        for ident, computed, pub in zip(doc.expert_ids, report.ca,
                                        published["ca"]):
            add(f"ca {ident}", computed, pub)
    if "ranking" in published:
        want = tuple(published["ranking"])
        got = {_ranking_str(report.labels, r.ranking) for r in report.records}
        out.append({
            "quantity": "ranking (all gamma values)",
            "computed": " | ".join(sorted(got)),
            "published": " > ".join(want),
            "delta": 0.0 if got == {" > ".join(want)} else 1.0,
        })
    return out


def _report_json(doc: InputDocument, report: RankingReport) -> dict:
    runs = []
    for r in report.records:
        runs.append({
            "gamma_blend": r.gamma_blend,
            "c2": [list(row) for row in r.scores.c2],
            "c": [list(row) for row in r.scores.c],
            "c_used": [list(row) for row in r.c_used],
            "aggregated": [[list(t) for t in row] for row in r.aggregated.values],
            "s_plus": list(r.s_plus),
            "s_minus": list(r.s_minus),
            "f": list(r.f),
            "ranking": [report.labels[i] for i in r.ranking],
        })
    payload = {
        "mode": report.mode,
        "normalization": report.normalization,
        "eta": report.eta,
        "closeness": report.closeness_mode,
        "convention": report.convention,
        "overridden": list(report.overridden),
        "alternatives": list(report.labels),
        "experts": list(doc.expert_ids),
        "energy": {ident: list(e.as_tuple())
                   for ident, e in zip(doc.expert_ids, report.energies)},
        "laplacian_energy": {
            ident: list(e.as_tuple())
            for ident, e in zip(doc.expert_ids, report.laplacian_energies)},
        "c1": [list(row) for row in report.c1],
        "similarity_degrees": (None if report.similarity_degrees is None
                               else list(report.similarity_degrees)),
        "ca": list(report.ca),
        "runs": runs,
    }
    if doc.published is not None:
        payload["discrepancies"] = _discrepancies(doc, report)
    return payload


def _report_table(doc: InputDocument, report: RankingReport) -> str:
    lines = []
    lines.append(
        f"pipeline run: mode={report.mode}  "
        f"normalization={report.normalization}  eta={report.eta:.4f}  "
        f"closeness={report.closeness_mode}  convention={report.convention}")
    if report.overridden:
        lines.append("overridden stages: " + ", ".join(report.overridden))
    lines.append("")

    rows = [["expert", "energy", "laplacian energy", "c1"]]
    for ident, e, le, c1 in zip(doc.expert_ids, report.energies,
                                report.laplacian_energies, report.c1):
        rows.append([ident, _vector_cell(e.as_tuple()),
                     _vector_cell(le.as_tuple()), _vector_cell(c1)])
    lines.append(_table(rows))
    lines.append("")

    if report.similarity_degrees is not None:
        degree_cells = "  ".join(
            f"{ident}={v:.4f}"
            for ident, v in zip(doc.expert_ids, report.similarity_degrees))
        lines.append(f"similarity degrees: {degree_cells}")
    lines.append("similarity weights ca: " + _vector_cell(report.ca))
    lines.append("")

    header = ["gamma"] + [f"c({ident})" for ident in doc.expert_ids] \
        + ["s_plus", "s_minus", "f", "ranking"]
    rows = [header]
    for r in report.records:
        rows.append(
            [f"{r.gamma_blend:.4f}"]
            + [_vector_cell(c_row) for c_row in r.c_used]
            + [_vector_cell(r.s_plus), _vector_cell(r.s_minus),
               _vector_cell(r.f), _ranking_str(report.labels, r.ranking)])
    lines.append(_table(rows))

    if doc.published is not None:
        lines.append("")
        lines.append("discrepancies vs published values:")
        rows = [["quantity", "computed", "published", "|delta|"]]
        for d in _discrepancies(doc, report):
            computed = d["computed"]
            pub = d["published"]
            rows.append([
                d["quantity"],
                computed if isinstance(computed, str) else f"{computed:.4f}",
                pub if isinstance(pub, str) else f"{float(pub):.4f}",
                f"{d['delta']:.4f}",
            ])
        lines.append(_table(rows))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _merged_config(doc: InputDocument, args) -> PipelineConfig:
    config = doc.config
    kwargs = {}
    if getattr(args, "mode", None):
        kwargs["mode"] = args.mode
    if getattr(args, "normalization", None):
        kwargs["score_normalization"] = args.normalization
    if getattr(args, "eta", None) is not None:
        kwargs["eta"] = args.eta
    if getattr(args, "gamma", None):
        try:
            kwargs["gamma_grid"] = tuple(
                float(x) for x in args.gamma.split(","))
        except ValueError:
            raise SchemaViolation(
                "--gamma", f"cannot parse gamma grid {args.gamma!r}") from None
    if getattr(args, "closeness", None):
        kwargs["closeness_mode"] = args.closeness
    overrides = config.overrides
    if getattr(args, "override_similarity", None):
        if args.override_similarity != "paper":
            raise SchemaViolation(
                "--override-similarity",
                "the only named override set is 'paper' (published values "
                "bundled with the fixture)")
        published = doc.published or {}
        if "pair_similarity" not in published:
            raise SchemaViolation(
                "published.pair_similarity",
                "input document carries no published pairwise similarities")
        pair = {
            _pair_key_to_indices(k, doc.expert_ids, "published.pair_similarity"):
                float(v)
            for k, v in published["pair_similarity"].items()}
        overrides = Overrides(
            pair_similarity=pair, c1=overrides.c1, ca=overrides.ca,
            c=overrides.c, aggregated=overrides.aggregated)
    if kwargs or overrides is not config.overrides:
        config = PipelineConfig(
            mode=kwargs.get("mode", config.mode),
            score_normalization=kwargs.get("score_normalization",
                                           config.score_normalization),
            eta=kwargs.get("eta", config.eta),
            gamma_grid=kwargs.get("gamma_grid", config.gamma_grid),
            closeness_mode=kwargs.get("closeness_mode", config.closeness_mode),
            blend_convention=config.blend_convention,
            overrides=overrides,
        )
    return config


def cmd_run(args) -> int:
    doc = parse_input(args.input)
    config = _merged_config(doc, args)
    report = run_pipeline(doc.experts, config)
    if args.format == "json":
        text = _emit_json(_report_json(doc, report)) + "\n"
    else:
        text = _report_table(doc, report)
    _write_output(text, args.out)
    return 0


def cmd_energy(args) -> int:
    doc = parse_input(args.input)
    energies = [energy(h) for h in doc.experts]
    lap = [laplacian_energy(h) for h in doc.experts]
    if args.format == "json":
        payload = {
            "alternatives": list(doc.alternatives),
            "energy": {ident: list(e.as_tuple())
                       for ident, e in zip(doc.expert_ids, energies)},
            "laplacian_energy": {ident: list(e.as_tuple())
                                 for ident, e in zip(doc.expert_ids, lap)},
        }
        text = _emit_json(payload) + "\n"
    else:
        rows = [["expert", "energy", "laplacian energy"]]
        for ident, e, le in zip(doc.expert_ids, energies, lap):
            rows.append([ident, _vector_cell(e.as_tuple()),
                         _vector_cell(le.as_tuple())])
        text = _table(rows) + "\n"
    _write_output(text, args.out)
    return 0


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise SchemaViolation(
            "--n-range", f"cannot parse n range {text!r}, want LO:HI") from None
    if lo < 1 or hi < lo:
        raise SchemaViolation("--n-range", f"invalid n range {text!r}")
    return lo, hi


def cmd_verify_bounds(args) -> int:
    if args.fixtures is not None:
        doc = parse_input(args.fixtures)
        rows = fixture_survey_rows(doc.experts)
    else:
        if args.count < 1:
            raise SchemaViolation("--count", "count must be at least 1")
        rows = bounds_survey(seed=args.seed, count=args.count,
                             n_range=_parse_n_range(args.n_range))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "n", "channel", "quantity", "value",
                     "bound_lo", "bound_hi", "satisfied"])
    violations = 0
    for r in rows:
        if not r.satisfied:
            violations += 1
        writer.writerow([
            r.seed, r.n, r.channel, r.quantity, _fmt_float(r.value),
            "" if r.bound_lo is None else _fmt_float(r.bound_lo),
            "" if r.bound_hi is None else _fmt_float(r.bound_hi),
            "true" if r.satisfied else "false",
        ])
    _write_output(buf.getvalue(), args.out)
    if violations:
        print(f"{violations} bound violation(s) found", file=sys.stderr)
        return 3
    return 0


def cmd_generate(args) -> int:
    if args.n < 2:
        raise SchemaViolation("--n", "need at least 2 alternatives")
    if args.experts < 2:
        raise SchemaViolation("--experts", "need at least 2 experts")
    labels = [f"t{i + 1}" for i in range(args.n)]
    experts = []
    for e in range(args.experts):
        rng = np.random.default_rng([args.seed, e])
        h = random_hfpr(args.n, rng, labels=labels)
        experts.append({
            "id": f"e{e + 1}",
            "hfpr": [[list(t) for t in row] for row in h.values],
        })
    payload = {
        "alternatives": labels,
        "experts": experts,
        "config": {
            "mode": "energy",
            "score_normalization": "auto",
            "eta": 0.5,
            "gamma_grid": [0.0, 0.3, 0.5, 0.7, 1.0],
            "closeness": "relative",
        },
    }
    _write_output(_emit_json(payload) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfgdm",
        description="Energy, Laplacian energy, and similarity-based group "
                    "decision ranking over hesitancy fuzzy preference "
                    "relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_format=True):
        p.add_argument("input", help="scenario JSON document; the bundled "
                                     "name smartphone.json resolves when no "
                                     "such file exists")
        if with_format:
            p.add_argument("--format", choices=("table", "json"),
                           default="table")
        p.add_argument("--out", default=None,
                       help="write output to this file atomically")

    p_run = sub.add_parser("run", help="execute the nine-stage pipeline")
    add_io(p_run)
    p_run.add_argument("--mode", choices=MODES, default=None)
    p_run.add_argument("--normalization",
                       choices=NORMALIZATIONS, default=None)
    p_run.add_argument("--eta", type=float, default=None)
    p_run.add_argument("--gamma", default=None,
                       help="comma-separated gamma_blend grid, e.g. 0,0.5,1")
    p_run.add_argument("--closeness", choices=CLOSENESS_MODES, default=None)
    p_run.add_argument("--override-similarity", default=None,
                       dest="override_similarity", metavar="NAME",
                       help="'paper' injects the published stage-iii "
                            "pairwise similarities shipped with the fixture")
    p_run.set_defaults(func=cmd_run)

    p_energy = sub.add_parser(
        "energy", help="print energy and Laplacian energy per expert")
    add_io(p_energy)
    p_energy.set_defaults(func=cmd_energy)

    p_verify = sub.add_parser(
        "verify-bounds",
        help="random bounds survey as CSV; exit 3 on any violation")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--count", type=int, default=1000)
    p_verify.add_argument("--n-range", default="3:8", dest="n_range",
                          metavar="LO:HI")
    p_verify.add_argument("--fixtures", nargs="?", const="smartphone.json",
                          default=None, metavar="DOC",
                          help="check the relations of this document instead "
                               "of random instances (default: the bundled "
                               "fixture)")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify_bounds)

    p_gen = sub.add_parser(
        "generate", help="emit a random scenario document on stdout")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--experts", type=int, default=3)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: input not found: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ComputationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
