"""Scenario files: one JSON object describing one reproducible run.

The shipped ``schemas/scenario.schema.json`` is the authoritative wire
format, including all defaults; ``Scenario.from_dict`` validates against
it before constructing anything, so malformed configurations fail with a
DomainError (CLI exit code 2) rather than deep inside a computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from .classical import OscillatorParams, PhaseState
from .errors import DomainError
from .forcing import ForcingSpec, forcing_from_dict
from .schrodinger import GridSpec


def _load_schema(name: str) -> dict:
    text = resources.files("drivenosc.schemas").joinpath(name).read_text()
    return json.loads(text)


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


def _validator(schema: dict):
    """A validator for ``schema`` of the draft its ``$schema`` names.  The
    shipped schemas are checked against their metaschema by the test
    suite, not at every import."""
    return jsonschema.validators.validator_for(schema)(schema)


def validate(validator, data) -> None:
    """Raise the ValidationError that ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        raise error


SCENARIO_SCHEMA = _load_schema("scenario.schema.json")
REPORT_SCHEMA = _load_schema("report.schema.json")
SCENARIO_VALIDATOR = _validator(SCENARIO_SCHEMA)
REPORT_VALIDATOR = _validator(REPORT_SCHEMA)
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
            validate(SCENARIO_VALIDATOR, data)
        except jsonschema.ValidationError as exc:
            raise DomainError(f"scenario config invalid: {exc.message}") from exc
        params = OscillatorParams(m=data["params"]["m"], omega=data["params"]["omega"])
        init = data.get("initial_state", {})
        grid = None
        if "grid" in data:
            g = data["grid"]
            grid = GridSpec(x_min=g["x_min"], x_max=g["x_max"],
                            points=g["points"], dt=g["dt"])
        return cls(
            params=params,
            forcing=forcing_from_dict(data["forcing"]),
            t_max=data["time"]["t_max"],
            samples=data["time"]["samples"],
            initial_state=PhaseState(init.get("x", 0.0), init.get("p", 0.0)),
            grid=grid,
            output=data.get("output"),
            **data.get("quantum", {}),  # n_initial, m_max, tail_tol; else the field defaults
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
