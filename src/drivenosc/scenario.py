"""Scenario files: one JSON object describing one reproducible run.

The shipped ``schemas/scenario.schema.json`` is the authoritative wire
format, including all defaults; ``Scenario.from_dict`` checks it before
constructing anything, so malformed configurations fail with a
DomainError (CLI exit code 2) rather than deep inside a computation.

The check is ``validate``, a small checker for exactly the JSON Schema
2020-12 keywords the two shipped schemas use; loading a schema that uses
any other keyword raises, so a schema edit cannot be skipped silently.
jsonschema is needed only by the test suite, which checks the schemas
against their metaschema and ``validate`` against jsonschema's decisions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .classical import OscillatorParams, PhaseState
from .errors import DomainError
from .forcing import ForcingSpec, forcing_from_dict
from .schrodinger import GridSpec


def _load_schema(name: str) -> dict:
    text = resources.files("drivenosc.schemas").joinpath(name).read_text()
    schema = json.loads(text)
    _require_known(schema, name)
    return schema


_KEYWORDS = {"type", "properties", "required", "additionalProperties", "enum", "minimum",
             "exclusiveMinimum", "items", "prefixItems", "minItems", "maxItems"}
_ANNOTATIONS = {"$schema", "title", "description", "default"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _require_known(schema: dict, where: str) -> None:
    """Raise ValueError where ``schema`` uses what ``validate`` does not
    implement: a keyword outside _KEYWORDS and _ANNOTATIONS, a type that
    is not one name, or an ``additionalProperties`` that is a schema."""
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown or schema.get("type", "null") not in (*_TYPES, "number", "integer") \
            or not isinstance(schema.get("additionalProperties", True), bool):
        raise ValueError(f"{where}: the scenario checker does not implement "
                         f"{sorted(unknown) or schema}")
    subschemas = [*schema.get("properties", {}).items(), *enumerate(schema.get("prefixItems", ()))]
    if "items" in schema:
        subschemas.append(("items", schema["items"]))
    for key, sub in subschemas:
        _require_known(sub, f"{where}.{key}")


def _is_type(value, name: str) -> bool:
    """JSON Schema's types: a bool is not a number, an integral float is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, _TYPES[name])


def _json_equal(a, b) -> bool:
    """Equality of JSON values: true and 1 differ, 1 and 1.0 do not."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def validate(schema: dict, value, where: str) -> None:
    """Raise ValueError (never a DomainError: the caller classifies it) at
    the first place ``value`` breaks ``schema``, a schema that passed
    _require_known; ``where`` names ``value`` in the message."""
    if "type" in schema and not _is_type(value, schema["type"]):
        raise ValueError(f"{where}: {value!r} is not of type {schema['type']!r}")
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        raise ValueError(f"{where}: {value!r} is not one of {schema['enum']!r}")
    if _is_type(value, "number"):  # the bounds apply to numbers only
        if "minimum" in schema and value < schema["minimum"]:
            raise ValueError(f"{where}: {value!r} is less than the minimum {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ValueError(f"{where}: {value!r} is not above {schema['exclusiveMinimum']!r}")
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{where}: {key!r} is a required property")
        for key, item in value.items():
            if key in properties:
                validate(properties[key], item, f"{where}.{key}")
            elif not schema.get("additionalProperties", True):
                raise ValueError(f"{where}: {key!r} is not an allowed property")
    elif isinstance(value, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not low <= len(value) <= high:
            raise ValueError(f"{where}: {len(value)} items, outside {low}..{high}")
        prefix = schema.get("prefixItems", ())
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                validate(sub, item, f"{where}[{i}]")


def _check_finite(value, where: str = "scenario") -> None:
    """Refuse NaN and +-inf anywhere in a scenario dict: JSON numbers are
    finite, but Python's json reads NaN, Infinity and 1e999 and the schema
    takes a float NaN for a number."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{where} is the non-finite number {value!r}")


SCENARIO_SCHEMA = _load_schema("scenario.schema.json")
REPORT_SCHEMA = _load_schema("report.schema.json")
SUITES = tuple(REPORT_SCHEMA["properties"]["suite"]["enum"])  # what `verify --suite` takes


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration; see the scenario schema for fields."""

    params: OscillatorParams
    forcing: ForcingSpec
    t_max: float
    samples: int
    initial_state: PhaseState = field(default_factory=lambda: PhaseState(0.0, 0.0))
    n_initial: int = 0
    m_max: int = 16
    tail_tol: float = 1e-9
    grid: GridSpec | None = None
    output: str | None = None

    def resolved_grid(self) -> GridSpec:
        if self.grid is not None:
            return self.grid
        return GridSpec.default(self.params)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _check_finite(data)
        try:
            validate(SCENARIO_SCHEMA, data, "scenario")
        except ValueError as exc:
            raise DomainError(f"scenario config invalid: {exc}") from exc
        # the schema's integers admit integral floats such as 2.0: read them as ints
        params = OscillatorParams(m=data["params"]["m"], omega=data["params"]["omega"])
        init = data.get("initial_state", {})
        quantum = {key: int(value) if key in ("n_initial", "m_max") else value
                   for key, value in data.get("quantum", {}).items()}
        grid = None
        if "grid" in data:
            g = data["grid"]
            grid = GridSpec(x_min=g["x_min"], x_max=g["x_max"],
                            points=int(g["points"]), dt=g["dt"])
        return cls(
            params=params,
            forcing=forcing_from_dict(data["forcing"]),
            t_max=data["time"]["t_max"],
            samples=int(data["time"]["samples"]),
            initial_state=PhaseState(init.get("x", 0.0), init.get("p", 0.0)),
            grid=grid,
            output=data.get("output"),
            **quantum,  # n_initial, m_max, tail_tol; else the field defaults
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read scenario file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"scenario file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
