"""Command-line interface: run, energy, verify-bounds, generate.

Input is a single strict-schema JSON document per scenario (see
parse_input), local or bundled, read by one path and checked once on
parse by every command: each value by the core rule for its kind (labels
by _labels, as make_hfpr reads them), named by its document path, so
only a fault in the document's own shape is a SchemaViolation. Its
overrides pass Overrides.checked, and both its pair maps, override and
published, the pair rule (_resolve_pairwise) naming a key as written, so
energy and verify-bounds --fixtures refuse every override that run
refuses; ca summing to 1 and finite similarity degrees are stage rules
that only run reaches. Integer flags, like document values, are read by
core's rules, named as the library names them, and a survey flag left
out takes bounds_survey's default.
Machine output serializes every float with 17 significant digits so
documents round-trip exactly. A report is laid out in one walk as a
%-template with a slot per float (a float array or tuple gives the same
bytes as its nested lists; every number of a run is an array, laid out
through one cached template per shape); each distinct float is formatted
once and the template filled in one step.
Tables render 4 decimal places and mirror the published case-study table
column order (gamma, score vectors, similarities to the ideals,
closeness, ranking) for eyeball diffing. All output is written once,
atomically, at the end of a run.

Exit codes: 0 success, 1 internal error, 2 input validation failure or
an input or --out path that cannot be read or written, 3 bound violation
in verify-bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .core import (Panel, _integer, _labels, _real, _real_array, _sequence,
                   _size, _vertex_attrs, make_hfpr, random_hfpr)
from .errors import (ComputationError, ParameterOutOfRange, SchemaViolation,
                     ValidationError, in_context)
from .pipeline import (
    MODES,
    NORMALIZATIONS,
    Overrides,
    PipelineConfig,
    RankingReport,
    run as run_pipeline,
)
from .similarity import CLOSENESS_MODES, _resolve_pairwise, pair_similarity
from .spectral import (SurveyRow, bounds_survey, energies,
                       fixture_survey_rows, laplacian_energies)

_TOP_KEYS = {"alternatives", "experts", "config", "published", "vertex_attrs"}
# Documents in the package's data directory, which parse_input opens by name.
BUNDLED = ("smartphone.json",)
_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass(frozen=True)
class InputDocument:
    """One parsed and validated scenario document.

    experts is the Panel of the expert relations, labelled by the
    alternatives, which run and the spectra take without a second check.
    published holds converted values: pair_similarity maps expert index
    pairs to floats, similarity_degrees and ca are float arrays of one
    value per expert, ranking is a tuple naming every alternative once.
    """

    expert_ids: tuple[str, ...]
    experts: Panel
    config: PipelineConfig
    published: dict | None


# The string encoder json.dumps itself uses (json's C one when present).
_encode_string = json.encoder.encode_basestring_ascii
# Values whose list _emit_json keeps on one line.
_SCALARS = (int, float, str, bool, np.integer, np.floating)


def _string(s: str) -> str:
    """A JSON string literal, as json.dumps writes it, with % doubled for
    a %-template."""
    return _encode_string(s).replace("%", "%%")


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple[int, ...], indent: int) -> str:
    """The layout _emit_json gives nested lists of this shape, with a %s
    slot per float in row-major order; built once per shape and indent."""
    if not shape[0]:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%s"] * shape[0]) + "]"
    inner = "  " * (indent + 1)
    row = _array_template(shape[1:], indent + 1)
    return ("[\n" + inner + (",\n" + inner).join([row] * shape[0])
            + "\n" + "  " * indent + "]")


def _emit_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 17 sig digits.

    One walk of obj lays out the text as a %-template with a slot per
    float, then each distinct float (by bit pattern, so -0.0 stays apart
    from 0.0) is formatted once and the template filled in one step.
    """
    parts: list[str] = []
    floats: list[float] = []
    _layout(obj, indent, parts, floats)
    template = "".join(parts)
    bits = np.array(floats, dtype=float).view(np.uint64)
    distinct, slot = np.unique(bits, return_inverse=True)
    values = tuple(distinct.view(np.float64).tolist())
    text = ("%.17g," * len(values) % values).split(",")
    return template % tuple(map(text.__getitem__, slot.tolist()))


def _layout(obj, indent: int, parts: list[str], floats: list[float]) -> None:
    """Append obj's text to parts, a %s slot in place of each float, and
    its floats to floats in the order of their slots."""
    if isinstance(obj, str):
        parts.append(_string(obj))
    elif isinstance(obj, (float, np.floating)):
        parts.append("%s")
        floats.append(float(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        parts.append(_array_template(obj.shape, indent))
        floats.extend(obj.ravel().tolist())
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for key, value in obj.items():
            parts.append(sep + _string(str(key)) + ": ")
            _layout(value, indent + 1, parts, floats)
            sep = "," + inner
        parts.append("\n" + "  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        if all(v is None or isinstance(v, _SCALARS) for v in obj):
            sep, each, end = "[", ", ", "]"
        else:
            inner = "\n" + "  " * (indent + 1)
            sep, each = "[" + inner, "," + inner
            end = "\n" + "  " * indent + "]"
        for value in obj:
            parts.append(sep)
            _layout(value, indent + 1, parts, floats)
            sep = each
        parts.append(end)
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaViolation(where, f"field {where!r} must be an object")
    return obj


def _finite(token: str, parse=float):
    """Parse a JSON number token; NaN, Infinity and overflow are errors."""
    if not math.isfinite(float(token)):
        raise SchemaViolation("json", f"number {token} is not a finite float")
    return parse(token)


def _pair_map(where: str, mapping, ids: tuple[str, ...]) -> dict:
    """An {"id:id": number} object as {(i, j): float} over expert indices,
    in the orientation each key is written, its values as the pair
    override rule (_resolve_pairwise) reads them, naming a key as written.

    A key is read at the one ':' that leaves two distinct expert ids, so
    an id may itself hold ':'; a key with no such reading, or with more
    than one, is refused."""
    written = {}
    for key, value in _require_mapping(mapping, where).items():
        readings = [(key[:k], key[k + 1:]) for k, ch in enumerate(key)
                    if ch == ":"]
        readings = [(a, b) for a, b in readings
                    if a != b and a in ids and b in ids]
        if len(readings) != 1:
            raise SchemaViolation(f"{where}.{key}", f"pair key {key!r} " + (
                "splits into two expert ids in more than one way" if readings
                else "must be two distinct expert ids joined by ':'"))
        (a, b), = readings
        written[ids.index(a), ids.index(b)] = value
    resolved = _resolve_pairwise(written, len(ids), where, ids)
    return {(i, j): resolved[min(i, j), max(i, j)] for i, j in written}


def _grid(where: str, x) -> tuple[float, ...]:
    """A gamma grid as its floats, entry k named where[k]."""
    return tuple(_real(f"{where}[{k}]", g)
                 for k, g in enumerate(_sequence(where, x)))


# Readers map a document key to the rule that reads its value, called
# with the value's document path as its name. A reader of None hands the
# value on as given: PipelineConfig checks it against its choices.
_CONFIG_READERS = dict.fromkeys(
    ("mode", "score_normalization", "closeness", "blend_convention")) | {
    "eta": _real, "gamma_grid": _grid}
# Document key -> PipelineConfig field, where the two differ. Defaults
# live in PipelineConfig alone.
_CONFIG_FIELD = {"closeness": "closeness_mode"}


def _read(obj, where: str, readers: dict) -> dict:
    """obj, an object whose keys readers all know, with each value read."""
    unknown = _require_mapping(obj, where).keys() - readers.keys()
    if unknown:
        key = min(unknown)
        raise SchemaViolation(f"{where}.{key}",
                              f"unknown field {key!r} in {where}")
    return {key: value if readers[key] is None
            else readers[key](f"{where}.{key}", value)
            for key, value in obj.items()}


def parse_input(path: str) -> InputDocument:
    """Parse and validate a scenario document; strict schema.

    A missing path that names a bundled document (BUNDLED) is opened in the
    package's data directory, so documented example invocations work from
    any directory. Every field is read here, overrides and published values
    too. A value of the wrong type is refused by the core rule for its kind,
    under its document path: "config.eta = '0.5' is not a number" is a
    ParameterOutOfRange, as is a repeated or non-string label (_labels).
    Only a fault in the document's shape (an unknown or missing field, a
    field that must be an object and is not, an expert id, empty
    alternatives, a ranking that is not a permutation of them or another
    published value) is a SchemaViolation naming the field. NaN, Infinity,
    numbers that overflow a float and a key given twice are refused, so no
    unchecked value enters a run.

    The text is decoded by json's C scanner and converted once; a
    non-finite number decodes as inf, nan or a huge int and fails the
    conversion. Only then does _strict_loads decode the text again, to
    name the first decode-level error; if it finds none, the conversion's
    error stands.
    """
    if not os.path.exists(path):
        if path not in BUNDLED:
            raise FileNotFoundError(path)
        path = os.path.join(_DATA_DIR, path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _document(json.loads(text, object_pairs_hook=_unique_keys))
    except (ValueError, TypeError, RecursionError):
        # ValueError covers JSON syntax, int-string limits and every
        # ValidationError, among them an int too large for a float.
        _strict_loads(text)
        raise


def _unique_keys(pairs: list) -> dict:
    """A decoded object as a dict; its first repeated key is refused."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for n, k in enumerate(keys) if k in keys[:n])
        raise SchemaViolation("json", f"key {key!r} is given twice")
    return obj


def _strict_loads(text: str):
    """Decode text as parse_input does, but raise at the first syntax
    error, deep nesting, non-finite number or key given twice."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite,
                          parse_int=lambda token: _finite(token, int),
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaViolation(
            "json", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise SchemaViolation("json", "JSON nested too deeply") from None


def _document(raw) -> InputDocument:
    """Read and validate a decoded scenario document."""
    raw = _read(raw, "document", dict.fromkeys(_TOP_KEYS))
    for required in ("alternatives", "experts"):
        if required not in raw:
            raise SchemaViolation(required, f"missing field {required!r}")

    alternatives = _labels("alternatives", raw["alternatives"])
    if not alternatives:
        raise SchemaViolation(
            "alternatives", "alternatives must be a nonempty list of labels")
    n = len(alternatives)

    def relation(where, value, vertex_attrs=None):
        entries = _real_array(where, value)
        try:
            return make_hfpr(entries, labels=alternatives,
                             vertex_attrs=vertex_attrs)
        except ValidationError as e:
            raise in_context(e, where) from None

    vertex_attrs = raw.get("vertex_attrs")
    if vertex_attrs is not None:
        vertex_attrs = _vertex_attrs(vertex_attrs, n)

    experts_raw = raw["experts"]
    if not isinstance(experts_raw, list) or not experts_raw:
        raise SchemaViolation(
            "experts", "experts must be a nonempty list")
    ids = []
    relations = []
    for k, item in enumerate(experts_raw):
        item = _read(item, f"experts[{k}]", dict.fromkeys(("id", "hfpr")))
        if "id" not in item or not isinstance(item["id"], str):
            raise SchemaViolation(f"experts[{k}].id", "expert id must be a string")
        if "hfpr" not in item:
            raise SchemaViolation(f"experts[{k}].hfpr", "missing hfpr matrix")
        ids.append(item["id"])
        relations.append(relation(f"experts[{k}].hfpr", item["hfpr"],
                                  vertex_attrs))
    if len(set(ids)) != len(ids):
        raise SchemaViolation("experts", "expert ids must be unique")
    ids = tuple(ids)

    pairs = functools.partial(_pair_map, ids=ids)
    override_readers = {"c1": _real_array, "pair_similarity": pairs,
                        "ca": _real_array, "c": _real_array,
                        "aggregated": relation}
    config = _read(raw.get("config", {}), "config", dict(
        _CONFIG_READERS, overrides=lambda where, v: Overrides(
            **_read(v, where, override_readers))))
    config = PipelineConfig(
        **{_CONFIG_FIELD.get(k, k): v for k, v in config.items()})
    config = replace(config, overrides=config.overrides.checked(len(ids), n))

    def per_expert(where, x):
        with contextlib.suppress(ParameterOutOfRange):
            v = _real_array(where, x)
            if v.shape == (len(ids),) and np.isfinite(v).all():
                return v
        raise SchemaViolation(where, f"{where} must be a list of {len(ids)} "
                                     "numbers, one per expert")

    def ranking(where, x):
        x = _labels(where, x)
        if set(x) == set(alternatives):
            return x
        raise SchemaViolation(
            where, f"{where} must be a list of every alternative exactly once")

    published = raw.get("published")
    if published is not None:
        published = _read(published, "published", {
            "pair_similarity": pairs, "similarity_degrees": per_expert,
            "ca": per_expert, "ranking": ranking})

    return InputDocument(
        expert_ids=ids,
        experts=Panel.of(relations),
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
    overridden = set(report.config.overrides.stage_names())

    def add(quantity: str, computed, published_value):
        out.append({
            "quantity": quantity,
            "computed": computed,
            "published": published_value,
            "delta": abs(float(computed) - float(published_value)),
        })

    if "pair_similarity" in published and "pair_similarity" not in overridden:
        ids = doc.expert_ids
        for (i, j), pub in published["pair_similarity"].items():
            add(f"pair_similarity {ids[i]}:{ids[j]}",
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
        want = published["ranking"]
        got = {_ranking_str(report.labels, r) for r in report.ranking}
        out.append({
            "quantity": "ranking (all gamma values)",
            "computed": " | ".join(sorted(got)),
            "published": " > ".join(want),
            "delta": 0.0 if got == {" > ".join(want)} else 1.0,
        })
    return out


def _report_json(doc: InputDocument, report: RankingReport) -> dict:
    config = report.config
    runs = [{
        "gamma_blend": gamma,
        "c2": report.c2,
        "c": report.c[k],
        "c_used": report.c_used[k],
        "aggregated": report.aggregated[k],
        "s_plus": report.s_plus[k],
        "s_minus": report.s_minus[k],
        "f": report.f[k],
        "ranking": [report.labels[i] for i in report.ranking[k]],
    } for k, gamma in enumerate(config.gamma_grid)]
    payload = {
        "mode": config.mode,
        "normalization": config.score_normalization,
        "eta": config.eta,
        "closeness": config.closeness_mode,
        "convention": config.blend_convention,
        "overridden": list(config.overrides.stage_names()),
        "alternatives": list(report.labels),
        "experts": list(doc.expert_ids),
        "energy": dict(zip(doc.expert_ids, report.energies)),
        "laplacian_energy": dict(zip(doc.expert_ids,
                                     report.laplacian_energies)),
        "c1": report.c1,
        "similarity_degrees": report.similarity_degrees,
        "ca": report.ca,
        "runs": runs,
    }
    if doc.published is not None:
        payload["discrepancies"] = _discrepancies(doc, report)
    return payload


def _report_table(doc: InputDocument, report: RankingReport) -> str:
    config = report.config
    overridden = config.overrides.stage_names()
    lines = [f"pipeline run: mode={config.mode}  normalization="
             f"{config.score_normalization}  eta={config.eta:.4f}  closeness="
             f"{config.closeness_mode}  convention={config.blend_convention}"]
    if overridden:
        lines.append("overridden stages: " + ", ".join(overridden))
    lines.append("")

    rows = [["expert", "energy", "laplacian energy", "c1"]]
    for ident, e, le, c1 in zip(doc.expert_ids, report.energies,
                                report.laplacian_energies, report.c1):
        rows.append([ident, _vector_cell(e), _vector_cell(le),
                     _vector_cell(c1)])
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
    for k, gamma in enumerate(config.gamma_grid):
        rows.append(
            [f"{gamma:.4f}"]
            + [_vector_cell(c_row) for c_row in report.c_used[k]]
            + [_vector_cell(report.s_plus[k]), _vector_cell(report.s_minus[k]),
               _vector_cell(report.f[k]),
               _ranking_str(report.labels, report.ranking[k])])
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


class _PathError(Exception):
    """A path a command cannot read or write; main reports it, exit 2."""


def _read_input(path: str) -> InputDocument:
    """parse_input, with a path that is missing, or that exists but cannot
    be read, such as a directory, reported as a _PathError naming it."""
    try:
        return parse_input(path)
    except FileNotFoundError:
        raise _PathError(f"input not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise _PathError(f"cannot read input {path}: "
                         f"{getattr(e, 'strerror', None) or e}") from None


def _write_output(text: str, out_path: str | None) -> None:
    """Write text to stdout, or atomically to out_path: a temp file in its
    directory, renamed over it. A failure leaves no temp file behind and
    is a _PathError naming out_path."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as e:
        raise _PathError(
            f"cannot write output {out_path}: {e.strerror or e}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# run flag -> the PipelineConfig field it sets
_FLAG_FIELD = {"mode": "mode", "normalization": "score_normalization",
               "eta": "eta", "gamma": "gamma_grid",
               "closeness": "closeness_mode"}


def _merged_config(doc: InputDocument, args) -> PipelineConfig:
    changes = {field: getattr(args, flag)
               for flag, field in _FLAG_FIELD.items()
               if getattr(args, flag) is not None}
    if "gamma_grid" in changes:
        try:
            changes["gamma_grid"] = tuple(map(float, args.gamma.split(",")))
        except ValueError:
            raise SchemaViolation("--gamma", f"cannot parse gamma grid "
                                             f"{args.gamma!r}") from None
    if args.override_similarity:
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
        changes["overrides"] = replace(
            doc.config.overrides, pair_similarity=published["pair_similarity"])
    return replace(doc.config, **changes)


def cmd_run(args) -> int:
    doc = _read_input(args.input)
    config = _merged_config(doc, args)
    report = run_pipeline(doc.experts, config)
    if args.format == "json":
        text = _emit_json(_report_json(doc, report)) + "\n"
    else:
        text = _report_table(doc, report)
    _write_output(text, args.out)
    return 0


def cmd_energy(args) -> int:
    doc = _read_input(args.input)
    adjacency = energies(doc.experts)
    lap = laplacian_energies(doc.experts)
    if args.format == "json":
        payload = {
            "alternatives": list(doc.experts[0].labels),
            "energy": dict(zip(doc.expert_ids, adjacency)),
            "laplacian_energy": dict(zip(doc.expert_ids, lap)),
        }
        text = _emit_json(payload) + "\n"
    else:
        rows = [["expert", "energy", "laplacian energy"]]
        for ident, e, le in zip(doc.expert_ids, adjacency, lap):
            rows.append([ident, _vector_cell(e), _vector_cell(le)])
        text = _table(rows) + "\n"
    _write_output(text, args.out)
    return 0


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise SchemaViolation(
            "--n-range", f"cannot parse n range {text!r}, want LO:HI") from None
    return lo, hi


def _survey_csv(rows) -> str:
    """The survey CSV: a header and one line per row, which are tuples in
    column order, by one row format: floats at 17 significant digits, an
    empty field for a missing bound. No field needs CSV quoting: channels
    and quantities are fixed names."""
    return ",".join(SurveyRow._fields) + "\n" + "".join([
        "%d,%d,%s,%s,%.17g,%s,%s,%s\n" % (
            seed, n, channel, quantity, value,
            "" if lo is None else "%.17g" % lo,
            "" if hi is None else "%.17g" % hi,
            "true" if satisfied else "false")
        for seed, n, channel, quantity, value, lo, hi, satisfied in rows])


def cmd_verify_bounds(args) -> int:
    # The survey flags given; bounds_survey's defaults stand for the rest.
    survey = {key: getattr(args, key) for key in ("seed", "count", "n_range")
              if getattr(args, key) is not None}
    if args.fixtures is not None:
        if survey:
            flag = "--" + next(iter(survey)).replace("_", "-")
            raise SchemaViolation(flag, f"--fixtures takes no {flag}")
        rows = fixture_survey_rows(_read_input(args.fixtures).experts)
    else:
        if "count" in survey:
            survey["count"] = _integer("count", survey["count"], 1)
        if "n_range" in survey:
            survey["n_range"] = _parse_n_range(survey["n_range"])
        rows = bounds_survey(**survey)
    _write_output(_survey_csv(rows), args.out)
    violations = sum(not r.satisfied for r in rows)
    if violations:
        print(f"{violations} bound violation(s) found", file=sys.stderr)
        return 3
    return 0


def cmd_generate(args) -> int:
    seed = _integer("seed", args.seed, 0)
    n = _size("n", args.n, 2)
    defaults = PipelineConfig()
    experts = [random_hfpr(n, np.random.default_rng([seed, e]))
               for e in range(_integer("experts", args.experts, 2))]
    payload = {
        "alternatives": experts[0].labels,
        "experts": [{"id": f"e{e + 1}", "hfpr": h.values}
                    for e, h in enumerate(experts)],
        "config": {key: getattr(defaults, _CONFIG_FIELD.get(key, key))
                   for key in ("mode", "score_normalization", "eta",
                               "gamma_grid", "closeness")},
    }
    _write_output(_emit_json(payload) + "\n", args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hfgdm",
        description="Energy, Laplacian energy, and similarity-based group "
                    "decision ranking over hesitancy fuzzy preference "
                    "relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", help="scenario JSON document; the bundled "
                                     "name smartphone.json resolves when no "
                                     "such file exists")
        p.add_argument("--format", choices=("table", "json"), default="table")
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
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--count", type=int)
    p_verify.add_argument("--n-range", dest="n_range", metavar="LO:HI")
    p_verify.add_argument("--fixtures", nargs="?", const=BUNDLED[0],
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
    except (ValidationError, _PathError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ComputationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # defensive: a fault of the program
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1
