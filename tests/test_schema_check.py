"""The scenario checker against jsonschema, which stays a test dependency.

``scenario.validate`` implements only the keywords the two shipped
schemas use.  Its accept/reject decision must equal that of the
validator jsonschema picks for each schema's draft, on valid documents
and on documents mutated the ways a hand-edited file goes wrong.
"""

import copy
from datetime import timedelta

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenosc.scenario import REPORT_SCHEMA, SCENARIO_SCHEMA, SUITES, _require_known, validate

ORACLES = {"scenario": jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA),
           "report": jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)}
SCHEMAS = {"scenario": SCENARIO_SCHEMA, "report": REPORT_SCHEMA}


def accepts(which: str, doc) -> bool:
    try:
        validate(SCHEMAS[which], doc, which)
    except ValueError:
        return False
    return True


def agree(which: str, doc) -> bool:
    decision = accepts(which, doc)
    assert decision == ORACLES[which].is_valid(doc), doc
    return decision


numbers = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
positive = st.floats(1e-3, 1e3) | st.integers(1, 1000)
forcings = st.one_of(
    st.just({"type": "zero"}),
    st.fixed_dictionaries({"type": st.just("constant"), "K": numbers}),
    st.fixed_dictionaries({"type": st.just("sinusoid"), "A": numbers, "Omega": numbers,
                           "phi": numbers}),
    st.fixed_dictionaries({"type": st.just("pulse"), "K": numbers, "t_on": numbers,
                           "t_off": numbers}),
    st.fixed_dictionaries({"type": st.just("tabulated"),
                           "samples": st.lists(st.lists(numbers, min_size=2, max_size=2),
                                               min_size=2, max_size=4)}),
)
scenarios = st.fixed_dictionaries(
    {"params": st.fixed_dictionaries({"m": positive, "omega": positive | st.just(0)}),
     "forcing": forcings,
     "time": st.fixed_dictionaries({"t_max": positive, "samples": st.integers(2, 100)})},
    optional={
        "initial_state": st.fixed_dictionaries({}, optional={"x": numbers, "p": numbers}),
        "quantum": st.fixed_dictionaries({}, optional={"n_initial": st.integers(0, 50),
                                                       "m_max": st.integers(0, 50),
                                                       "tail_tol": positive}),
        "grid": st.fixed_dictionaries({"x_min": numbers, "x_max": numbers,
                                       "points": st.integers(64, 2048), "dt": positive}),
        "frame_points": st.integers(2, 100),
        "tol": positive,
        "output": st.text(max_size=5),
    })
reports = st.fixed_dictionaries({
    "suite": st.sampled_from(SUITES),
    "all_pass": st.booleans(),
    "checks": st.lists(st.fixed_dictionaries({
        "check": st.text(max_size=8),
        "suite": st.sampled_from(["classical", "canonical", "quantum"]),
        "status": st.sampled_from(["pass", "fail"]),
        "max_error": numbers,
        "tolerance": numbers,
    }), min_size=1, max_size=3),
})
DOCUMENTS = {"scenario": scenarios, "report": reports}

# replacement values: wrong types (a bool for a number, 2.0 for an integer),
# values at and below each minimum and at each exclusive minimum, enum
# misses and members of the other enums, arrays of the wrong length
POOL = [True, False, None, 0, 0.0, -0.0, 1, 1.0, 2, 2.0, 2.5, -1, -1e-300, 1e-300, 63, 63.0,
        64, 64.0, 1e300, "x", "zero", "pass", "all", "classical", [], [1.0], [1.0, 2.0],
        [1.0, 2.0, 3.0], [[0.0, 1.0], [1.0, 2.0]], {}, {"type": "zero"}]
EXTRA_KEYS = ["extra", "K", "m", "samples", "x", "check"]


def nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, item in items:
        yield from nodes(item, (*path, key))


def mutate(doc, data):
    """Apply one drawn mutation to ``doc`` in place: drop a key or an
    array entry, replace a value, add a key or grow or shrink an array."""
    found = list(nodes(doc))
    kind = data.draw(st.sampled_from(["drop", "replace", "extra", "resize"]))
    if kind in ("drop", "replace"):
        path, _ = data.draw(st.sampled_from(found[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "replace":
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(POOL)))
        else:
            del parent[path[-1]]
    elif kind == "extra":
        objects = [node for _, node in found if isinstance(node, dict)]
        node = data.draw(st.sampled_from(objects))
        node[data.draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(data.draw(st.sampled_from(POOL)))
    else:
        arrays = [node for _, node in found if isinstance(node, list)]
        if arrays:
            node = data.draw(st.sampled_from(arrays))
            if data.draw(st.booleans()) and node:
                node.pop()
            else:
                node.append(copy.deepcopy(data.draw(st.sampled_from(POOL))))


@pytest.mark.parametrize("which", ["scenario", "report"])
@settings(max_examples=100, deadline=timedelta(seconds=2), database=None)
@given(data=st.data())
def test_valid_documents_are_accepted(which, data):
    assert agree(which, data.draw(DOCUMENTS[which]))


@pytest.mark.parametrize("which", ["scenario", "report"])
@settings(max_examples=600, deadline=timedelta(seconds=2), database=None)
@given(data=st.data())
def test_mutated_documents_get_jsonschemas_decision(which, data):
    doc = copy.deepcopy(data.draw(DOCUMENTS[which]))  # st.just shares its value
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(doc, data)
    agree(which, doc)


BASE = {"params": {"m": 1.0, "omega": 1.0},
        "forcing": {"type": "tabulated", "samples": [[0.0, 0.0], [1.0, 1.0]]},
        "time": {"t_max": 1.0, "samples": 3},
        "grid": {"x_min": -8.0, "x_max": 8.0, "points": 256, "dt": 1e-3}}


@pytest.mark.parametrize("path, value, accepted", [
    (("time", "samples"), 2.0, True),                 # an integral float is an integer
    (("time", "samples"), 2.5, False),
    (("time", "samples"), True, False),               # a bool is neither integer nor number
    (("params", "m"), True, False),
    (("params", "m"), 0, False),                      # at the exclusive minimum
    (("params", "m"), 1e-300, True),
    (("params", "omega"), 0.0, True),                 # at the minimum
    (("params", "omega"), -1e-300, False),
    (("grid", "points"), 63, False),
    (("grid", "points"), 64.0, True),
    (("forcing", "type"), "square", False),           # an enum miss
    (("forcing", "extra"), 1, True),                  # forcing admits any other key
    (("time", "extra"), 1, False),                    # time does not
    (("forcing", "samples", 1), [1.0, 1.0, 0.0], False),
    (("forcing", "samples", 1), [1.0], False),
    (("forcing", "samples"), [[0.0, 0.0]], False),
    (("output",), 1, False),
], ids=lambda v: repr(v) if not isinstance(v, tuple) else ".".join(map(str, v)))
def test_named_mutations(path, value, accepted):
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert agree("scenario", doc) is accepted


@pytest.mark.parametrize("drop", ["params", "forcing", "time"])
def test_dropped_required_block(drop):
    doc = copy.deepcopy(BASE)
    del doc[drop]
    assert agree("scenario", doc) is False


@pytest.mark.parametrize("value, accepted", [
    ("all", True), ("everything", False), (True, False), (1, False),
])
def test_report_suite_enum(value, accepted):
    report = {"suite": value, "all_pass": True,
              "checks": [{"check": "c", "suite": "classical", "status": "pass",
                          "max_error": 0.0, "tolerance": 1.0}]}
    assert agree("report", report) is accepted
    assert accepts("report", {**report, "all_pass": 1}) is False


@pytest.mark.parametrize("enum", [[1], [True], [0.0], [[1]], [{"a": 1}], [[True, "x"]]])
@pytest.mark.parametrize("value", [1, 1.0, True, False, 0, [1], [1.0], [True], {"a": 1.0},
                                   {"a": True}, [True, "x"], [1, "x"]])
def test_enum_uses_json_equality(enum, value):
    # true and 1 differ, 1 and 1.0 do not, at any depth
    schema = {"enum": enum}
    oracle = jsonschema.Draft202012Validator(schema)
    try:
        validate(schema, value, "value")
        decision = True
    except ValueError:
        decision = False
    assert decision == oracle.is_valid(value)


def test_message_names_the_place():
    doc = copy.deepcopy(BASE)
    doc["grid"]["points"] = 32
    with pytest.raises(ValueError, match=r"^scenario\.grid\.points: 32 is less than the minimum 64$"):
        validate(SCENARIO_SCHEMA, doc, "scenario")


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"a": {"type": "number", "maximum": 1}}},
    {"type": "array", "items": {"type": "array", "prefixItems": [{"const": 1}]}},
    {"type": ["number", "null"]},
    {"type": "object", "additionalProperties": {"type": "number"}},
], ids=["pattern", "nested maximum", "nested const", "type list", "additionalProperties schema"])
def test_schema_beyond_the_checker_raises(schema):
    with pytest.raises(ValueError, match="does not implement"):
        _require_known(schema, "schema")


def test_shipped_schemas_stay_within_the_checker():
    for schema in SCHEMAS.values():
        _require_known(schema, "schema")
