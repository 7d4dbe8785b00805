"""The typed-error contract over the whole public surface, as one table.

Every callable of hfgdm.__all__ starts from a valid call on the bundled
case study, and one argument at a time is replaced by each value of a
zoo of wrong and edge values. Each call must return, or raise a
ValidationError or a ComputationError subclass: never a bare TypeError,
ValueError, AttributeError or IndexError, and never a RuntimeWarning,
which the pytest configuration turns into an error. ValidationError
subclasses ValueError, so the class tree is what is checked.

Sizes and counts are unbounded arguments, so the zoo holds only small
ints: a huge count would start that much work. The walk of nested
places adds ints that no float holds, or that Python will not print,
only where a value is not a size or a count.
"""
import warnings

import numpy as np
import pytest

import hfgdm
from hfgdm import (HFPR, ComputationError, DimensionMismatch, Overrides,
                   Panel, ParameterOutOfRange, PipelineConfig, RankingReport,
                   SurveyRow, ValidationError, VertexAttribute,
                   aggregate_hfpr, blend_scores, bounds_survey, closeness,
                   energies, energy, ideal_similarities, laplacian_energies,
                   laplacian_energy, make_hfpr, mean_similarity_degree,
                   pair_similarity, random_hfpr, rank, run,
                   similarity_weights, uncertainty_scores)
from hfgdm.spectral import fixture_survey_rows
from shared import LABELS, M1_ROWS, M2_ROWS, M3_ROWS, PUBLISHED_PAIRS, build

EXPERTS = tuple(build(rows) for rows in (M1_ROWS, M2_ROWS, M3_ROWS))
PANEL = Panel.of(EXPERTS)
AGG = aggregate_hfpr(EXPERTS, np.full((3, 3), 1 / 3))
S_PLUS, S_MINUS, _, _ = rank(AGG)
REPORT = run(EXPERTS)
ROW = fixture_survey_rows(EXPERTS)[0]

ZOO = {
    "None": None,
    "True": True,
    "str": "x",
    "0": 0,
    "1": 1,
    "-1": -1,
    "3": 3,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "-0.0": -0.0,
    "[]": [],
    "ragged": [[0.1, 0.2], [0.3]],
    "dict": {"a": 1},
    "short tuple": (0.5,),
    "wrong-shape array": np.zeros((2, 5)),
    "object array": np.array([object(), 0.5], dtype=object),
    "string array": np.array(["0.1", "0.2"]),
    "other size": random_hfpr(5, np.random.default_rng(0)),
    "lone HFPR": EXPERTS[0],
    "Panel": PANEL,
}

# Each public callable, and a function giving the keyword arguments of a
# valid call on the case study: fresh each time, for random_hfpr's rng.
SURFACE = {
    "HFPR": (HFPR, lambda: dict(values=EXPERTS[0].values, labels=LABELS,
                                vertex_attrs=None)),
    "Panel": (Panel, lambda: dict(relations=PANEL.relations,
                                  channels=PANEL.channels)),
    "Panel.of": (Panel.of, lambda: dict(relations=EXPERTS)),
    "VertexAttribute": (VertexAttribute,
                        lambda: dict(mu1=0.5, gamma1=0.3, beta1=0.2)),
    "Overrides": (Overrides, lambda: dict(
        c1=REPORT.c1, pair_similarity=PUBLISHED_PAIRS, ca=REPORT.ca,
        c=REPORT.c[0], aggregated=AGG)),
    "PipelineConfig": (PipelineConfig, lambda: dict(vars(PipelineConfig()))),
    "RankingReport": (RankingReport, lambda: dict(vars(REPORT))),
    "SurveyRow": (SurveyRow, ROW._asdict),
    "make_hfpr": (make_hfpr, lambda: dict(entries=EXPERTS[0].values,
                                          labels=LABELS, vertex_attrs=None)),
    "random_hfpr": (random_hfpr, lambda: dict(
        n=4, rng=np.random.default_rng(0), labels=LABELS)),
    "energies": (energies, lambda: dict(relations=EXPERTS)),
    "energy": (energy, lambda: dict(h=EXPERTS[0])),
    "laplacian_energies": (laplacian_energies, lambda: dict(relations=EXPERTS)),
    "laplacian_energy": (laplacian_energy, lambda: dict(h=EXPERTS[0])),
    "bounds_survey": (bounds_survey,
                      lambda: dict(seed=42, count=2, n_range=(3, 5))),
    "pair_similarity": (pair_similarity,
                        lambda: dict(a=EXPERTS[0], b=EXPERTS[1])),
    "mean_similarity_degree": (mean_similarity_degree, lambda: dict(
        experts=EXPERTS, b=0, pairwise=PUBLISHED_PAIRS)),
    "ideal_similarities": (ideal_similarities,
                           lambda: dict(agg=AGG, which="positive")),
    "closeness": (closeness, lambda: dict(s_plus=S_PLUS, s_minus=S_MINUS,
                                          mode="relative")),
    "uncertainty_scores": (uncertainty_scores, lambda: dict(
        experts=EXPERTS, mode="energy", normalization="auto")),
    "similarity_weights": (similarity_weights, lambda: dict(
        experts=EXPERTS, pairwise=PUBLISHED_PAIRS)),
    "blend_scores": (blend_scores, lambda: dict(
        c1=REPORT.c1, ca=REPORT.ca, eta=0.5, gamma_blend=0.5,
        convention="auto")),
    "aggregate_hfpr": (aggregate_hfpr,
                       lambda: dict(experts=EXPERTS, c=REPORT.c[0])),
    "rank": (rank, lambda: dict(agg=AGG, closeness_mode="relative")),
    "run": (run, lambda: dict(experts=EXPERTS, config=PipelineConfig())),
}

CASES = [(name, argument, value) for name, (_, valid) in SURFACE.items()
         for argument in valid() for value in ZOO]


def test_the_table_walks_every_public_callable():
    # Every function and constructor of the public surface, the error
    # classes aside, has a valid call here; Panel.of is walked beside its
    # class.
    callables = {name for name in hfgdm.__all__
                 if callable(getattr(hfgdm, name))
                 and not (isinstance(getattr(hfgdm, name), type)
                          and issubclass(getattr(hfgdm, name), Exception))}
    assert len(callables) == 24
    assert set(SURFACE) == callables | {"Panel.of"}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_each_walk_starts_from_a_valid_call(name):
    fn, valid = SURFACE[name]
    fn(**valid())


@pytest.mark.parametrize("name, argument, value", CASES,
                         ids=[f"{name}({argument}={value})"
                              for name, argument, value in CASES])
def test_a_wrong_argument_returns_or_raises_a_typed_error(name, argument,
                                                          value):
    fn, valid = SURFACE[name]
    kwargs = valid()
    kwargs[argument] = ZOO[value]
    try:
        fn(**kwargs)
    except (ValidationError, ComputationError):
        pass


def _one_bad(valid, bad):
    """A copy of the score array valid with its first component bad."""
    a = np.array(valid, dtype=float)
    a.flat[0] = bad
    return a


# Values nested inside a config: the zoo, and right-shaped score arrays
# that each hold one negative, NaN or infinite component.
NESTED = dict(ZOO, **{
    f"{kind} in {name}": _one_bad(valid, bad)
    for kind, bad in (("negative", -0.5), ("nan", np.nan), ("inf", np.inf))
    for name, valid in (("(3, 3)", REPORT.c1), ("(3,)", REPORT.ca))})
OVERRIDE_FIELDS = tuple(vars(Overrides()))
CONFIG_FIELDS = tuple(f for f in vars(PipelineConfig()) if f != "overrides")
NESTED_CASES = (
    [("run", f"overrides.{f}", v) for f in OVERRIDE_FIELDS for v in NESTED]
    + [("checked", f, v) for f in OVERRIDE_FIELDS for v in NESTED]
    + [("run", f, v) for f in CONFIG_FIELDS for v in NESTED])


@pytest.mark.parametrize("how, argument, value", NESTED_CASES,
                         ids=[f"{how}({argument}={value})"
                              for how, argument, value in NESTED_CASES])
def test_a_wrong_nested_value_returns_or_raises_a_typed_error(how, argument,
                                                              value):
    # Each Overrides field through run and through Overrides.checked, and
    # each other PipelineConfig field through run.
    field_name = argument.removeprefix("overrides.")
    try:
        if how == "checked":
            Overrides(**{field_name: NESTED[value]}).checked(3, 4)
        elif argument.startswith("overrides."):
            run(EXPERTS, PipelineConfig(
                overrides=Overrides(**{field_name: NESTED[value]})))
        else:
            run(EXPERTS, PipelineConfig(**{field_name: NESTED[value]}))
    except (ValidationError, ComputationError):
        pass


def _with(valid, value, *places):
    """valid as nested lists, with the element at each place (an index
    tuple) replaced by value."""
    rows = np.asarray(valid).tolist()
    for place in places:
        inner = rows
        for k in place[:-1]:
            inner = inner[k]
        inner[place[-1]] = value
    return rows


def _hashable(value) -> bool:
    try:
        hash((0, value))
    except TypeError:
        return False
    return True


# Values placed inside an otherwise valid list argument: the zoo, and ints
# that no float holds or whose str Python refuses.
INNER = dict(ZOO, **{"10**400": 10 ** 400, "-10**400": -10 ** 400,
                     "10**5000": 10 ** 5000})
C = REPORT.c[0]
# Each place: a call taking the value to put there, and the value that
# makes the call valid.
PLACES = {
    "gamma_grid entry": (lambda v: PipelineConfig(gamma_grid=(0.0, v)), 0.5),
    "VertexAttribute grade": (lambda v: VertexAttribute(0.5, v), 0.3),
    "vertex_attrs grade": (lambda v: make_hfpr(
        np.zeros((4, 4, 3)), vertex_attrs=[(0.5, 0.3)] * 3 + [(v, 0.3)]),
        0.5),
    "relation entry, both twins": (lambda v: make_hfpr(
        _with(EXPERTS[0].values, v, (0, 1, 0), (1, 0, 0))),
        EXPERTS[0].values[0, 1, 0]),
    "label": (lambda v: make_hfpr(EXPERTS[0].values, labels=LABELS[:3] + (v,)),
              "t4"),
    "blend_scores c1 row": (lambda v: blend_scores(
        _with(REPORT.c1, v, (1, 0)), REPORT.ca), REPORT.c1[1, 0]),
    "run c1 override row": (lambda v: run(EXPERTS, PipelineConfig(
        overrides=Overrides(c1=_with(REPORT.c1, v, (1, 0))))),
        REPORT.c1[1, 0]),
    "run c override row": (lambda v: run(EXPERTS, PipelineConfig(
        overrides=Overrides(c=_with(C, v, (1, 0))))), C[1, 0]),
    "aggregation weights row": (lambda v: aggregate_hfpr(
        EXPERTS, _with(C, v, (1, 0))), C[1, 0]),
    "similarity_weights pair value": (lambda v: similarity_weights(
        EXPERTS, {(0, 1): v}), 0.9),
    "run pair value": (lambda v: run(EXPERTS, PipelineConfig(
        overrides=Overrides(pair_similarity={(0, 1): v}))), 0.9),
    "similarity_weights pair key": (lambda v: similarity_weights(
        EXPERTS, {(0, v): 0.9}), 1),
    "closeness element": (lambda v: closeness([0.5, v], [0.5, 0.5]), 0.5),
}
# A pair key must be hashable to be written at all.
PLACE_CASES = [(place, value) for place in PLACES for value in INNER
               if "key" not in place or _hashable(INNER[value])]


@pytest.mark.parametrize("place", sorted(PLACES))
def test_each_place_starts_from_a_valid_value(place):
    # So a refusal in the walk below is the placed value's.
    call, valid = PLACES[place]
    call(valid)


@pytest.mark.parametrize("place, value", PLACE_CASES,
                         ids=[f"{place}={value}"
                              for place, value in PLACE_CASES])
def test_a_wrong_value_in_a_list_returns_or_raises_a_typed_error(place,
                                                                 value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            PLACES[place][0](INNER[value])
        except (ValidationError, ComputationError):
            pass


# Whole arguments that are an int no float holds, or whose str Python
# refuses, beside those the walk above places and REFUSALS pins; each
# raised a bare OverflowError or ValueError.
HUGE_INT_CALLS = {
    "blend_scores eta": lambda: blend_scores(
        REPORT.c1, REPORT.ca, eta=10 ** 400),
    "PipelineConfig mode": lambda: PipelineConfig(mode=10 ** 5000),
    "PipelineConfig gamma_grid": lambda: PipelineConfig(
        gamma_grid=10 ** 5000),
    "make_hfpr one-grade vertex_attrs": lambda: make_hfpr(
        np.zeros((2, 2, 3)), vertex_attrs=[(10 ** 5000,)] * 2),
    "make_hfpr labels": lambda: make_hfpr(np.zeros((2, 2, 3)),
                                          labels=10 ** 5000),
    "closeness mode": lambda: closeness(0.5, 0.5, mode=10 ** 5000),
}


@pytest.mark.parametrize("name", HUGE_INT_CALLS)
def test_a_huge_int_raises_a_typed_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            HUGE_INT_CALLS[name]()


def _two_experts_blending_below_zero():
    # Scores each within -1e-9 of the valid set blend to c components one
    # ulp further below zero, which aggregate_hfpr refuses.
    h = make_hfpr([[[0, 0, 0], [0.3, 0.2, 0.1]], [[0.3, 0.2, 0.1], [0, 0, 0]]])
    return run([h, h], PipelineConfig(
        eta=0.2, gamma_grid=(0.1,), overrides=Overrides(
            c1=np.full((2, 3), -1e-9), ca=[-1e-9, 1 + 1e-9])))


# Calls refused by the group, pair-map, rng, score-pair, score and vertex
# rules, by the config rule, by the sequence rule's refusal of a str,
# bytes, a mapping or a set (in a group, too), by the number and message
# rules' refusal of huge ints, and stage vii's named refusal; several of
# them used to succeed, to warn or to raise a bare error. Each is (what is
# called, the call, the error, its whole message).
REFUSALS = [
    ("Panel.of int", lambda: Panel.of(5), ParameterOutOfRange,
     "relations is of type int, not a sequence of HFPRs"),
    ("run int", lambda: run(5), ParameterOutOfRange,
     "relations is of type int, not a sequence of HFPRs"),
    ("energies lone HFPR", lambda: energies(EXPERTS[0]), ParameterOutOfRange,
     "relations is of type HFPR, not a sequence of HFPRs"),
    ("mean_similarity_degree int", lambda: mean_similarity_degree(5, 0),
     ParameterOutOfRange, "relations is of type int, not a sequence of HFPRs"),
    ("similarity_weights lone HFPR", lambda: similarity_weights(EXPERTS[0]),
     ParameterOutOfRange, "relations is of type HFPR, not a sequence of HFPRs"),
    ("fixture_survey_rows int", lambda: fixture_survey_rows(5),
     ParameterOutOfRange, "relations is of type int, not a sequence of HFPRs"),
    ("similarity_weights pair list",
     lambda: similarity_weights(EXPERTS, [(0, 1)]), ParameterOutOfRange,
     "pair_similarity is of type list, not a mapping"),
    ("similarity_weights empty list", lambda: similarity_weights(EXPERTS, []),
     ParameterOutOfRange, "pair_similarity is of type list, not a mapping"),
    ("run pair override int",
     lambda: run(EXPERTS, PipelineConfig(
         overrides=Overrides(pair_similarity=5))),
     ParameterOutOfRange, "pair_similarity is of type int, not a mapping"),
    ("random_hfpr rng None", lambda: random_hfpr(4, None), ParameterOutOfRange,
     "rng is of type NoneType, not a numpy.random.Generator"),
    ("random_hfpr RandomState",
     lambda: random_hfpr(4, np.random.RandomState(0)), ParameterOutOfRange,
     "rng is of type RandomState, not a numpy.random.Generator"),
    ("closeness two lengths", lambda: closeness(np.ones(3), np.ones(4)),
     DimensionMismatch, "s_plus has shape (3,) but s_minus has shape (4,)"),
    ("closeness array and float", lambda: closeness(np.ones(3), 0.5),
     DimensionMismatch, "s_plus has shape (3,) but s_minus has shape ()"),
    ("closeness inf ratio", lambda: closeness(np.inf, np.inf, "ratio"),
     ParameterOutOfRange, "ideal similarities must be finite"),
    ("closeness float and inf", lambda: closeness(1.0, np.inf),
     ParameterOutOfRange, "ideal similarities must be finite"),
    ("closeness nan", lambda: closeness(np.nan, 0.4), ParameterOutOfRange,
     "ideal similarities must be finite"),
    ("make_hfpr str labels",
     lambda: make_hfpr(EXPERTS[0].values, labels="abcd"), ParameterOutOfRange,
     "labels = 'abcd' is not a sequence"),
    ("run config int", lambda: run(EXPERTS, 5), ParameterOutOfRange,
     "config is of type int, not a PipelineConfig"),
    ("run config empty dict", lambda: run(EXPERTS, {}), ParameterOutOfRange,
     "config is of type dict, not a PipelineConfig"),
    ("PipelineConfig overrides int", lambda: PipelineConfig(overrides=5),
     ParameterOutOfRange, "overrides is of type int, not an Overrides"),
    ("run nan c override",
     lambda: run(EXPERTS, PipelineConfig(
         overrides=Overrides(c=_one_bad(REPORT.c[0], np.nan)))),
     ParameterOutOfRange, "c override components must be nonnegative and "
     "finite"),
    ("run inf c1 override",
     lambda: run(EXPERTS, PipelineConfig(
         overrides=Overrides(c1=_one_bad(REPORT.c1, np.inf)))),
     ParameterOutOfRange, "c1 override components must be nonnegative and "
     "finite"),
    ("checked inf ca override",
     lambda: Overrides(ca=[np.inf, 0, 0]).checked(3, 4), ParameterOutOfRange,
     "ca override components must be nonnegative and finite"),
    ("aggregate_hfpr inf weight",
     lambda: aggregate_hfpr(EXPERTS, [[np.inf, 0.3, 0.3]] * 3),
     ParameterOutOfRange, "c components must be nonnegative and finite"),
    ("blend_scores negative ca",
     lambda: blend_scores(REPORT.c1, [1.2, -0.1, -0.1]), ParameterOutOfRange,
     "ca components must be nonnegative"),
    ("PipelineConfig str gamma_grid",
     lambda: PipelineConfig(gamma_grid="0.5"), ParameterOutOfRange,
     "gamma_grid = '0.5' is not a sequence"),
    ("run c blended below zero", _two_experts_blending_below_zero,
     ParameterOutOfRange, "stage vii (aggregation) at gamma_blend = 0.1: "
     "c components must be nonnegative"),
    ("make_hfpr vertex grade",
     lambda: make_hfpr(np.zeros((2, 2, 3)),
                       vertex_attrs=[(1.5, 0), (0.5, 0.2)]),
     ParameterOutOfRange, "vertex_attrs[0]: mu1 = 1.5 outside [0, 1]"),
    ("PipelineConfig eta past a float", lambda: PipelineConfig(eta=10 ** 400),
     ParameterOutOfRange, "eta is too large for a float"),
    ("bounds_survey count past str",
     lambda: bounds_survey(count=-10 ** 5000), ParameterOutOfRange,
     "count = <int of 16610 bits> must be an integer of at least 0"),
    ("make_hfpr label past str",
     lambda: make_hfpr(np.zeros((2, 2, 3)), labels=["a", 10 ** 5000]),
     ParameterOutOfRange, "labels[1] = <int of 16610 bits> is not a string"),
    # Labels are the one rule's: distinct strs, none converted.
    ("make_hfpr repeated label",
     lambda: make_hfpr(np.zeros((2, 2, 3)), labels=["a", "a"]),
     ParameterOutOfRange, "labels[1] = 'a' appears more than once"),
    ("make_hfpr int labels",
     lambda: make_hfpr(np.zeros((2, 2, 3)), labels=[1, 2]),
     ParameterOutOfRange, "labels[0] = 1 is not a string"),
    # tuple() would read a mapping's keys, a set in an order no caller
    # gave, bytes as ints.
    ("make_hfpr str grades",
     lambda: make_hfpr(np.zeros((2, 2, 3)), vertex_attrs=["ab", "cd"]),
     ParameterOutOfRange, "vertex_attrs[0]: grades = 'ab' is not a sequence"),
    ("make_hfpr mapping labels",
     lambda: make_hfpr(np.zeros((2, 2, 3)), labels={"x": 1, "y": 2}),
     ParameterOutOfRange, "labels = {'x': 1, 'y': 2} is not a sequence"),
    ("make_hfpr bytes labels",
     lambda: make_hfpr(np.zeros((2, 2, 3)), labels=b"xy"),
     ParameterOutOfRange, "labels = b'xy' is not a sequence"),
    ("PipelineConfig mapping gamma_grid",
     lambda: PipelineConfig(gamma_grid={0.5: 1}), ParameterOutOfRange,
     "gamma_grid = {0.5: 1} is not a sequence"),
    ("Panel.of set", lambda: Panel.of(set(EXPERTS)), ParameterOutOfRange,
     "relations is of type set, not a sequence of HFPRs"),
    ("run frozenset", lambda: run(frozenset(EXPERTS)), ParameterOutOfRange,
     "relations is of type frozenset, not a sequence of HFPRs"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_a_refused_call_raises_its_typed_error_and_message(call, error,
                                                           message):
    with pytest.raises(ValidationError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_no_pair_map_is_no_override():
    # None and an empty mapping inject nothing; the weights are computed.
    want = similarity_weights(EXPERTS)
    for none in (None, {}):
        assert np.array_equal(similarity_weights(EXPERTS, none), want)
