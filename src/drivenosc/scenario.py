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
from .forcing import ForcingSpec, SinusoidForcing, forcing_from_dict
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
    """A validator for ``schema``, checked against its metaschema once."""
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate(validator, data) -> None:
    """Raise the ValidationError that ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        raise error


SCENARIO_SCHEMA = _load_schema("scenario.schema.json")
REPORT_SCHEMA = _load_schema("report.schema.json")
SCENARIO_VALIDATOR = _validator(SCENARIO_SCHEMA)
REPORT_VALIDATOR = _validator(REPORT_SCHEMA)


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

    def resolved_grid(self, dt: float = 1e-3) -> GridSpec:
        if self.grid is not None:
            return self.grid
        return GridSpec.default(self.params, dt=dt)

    @classmethod
    def default(cls) -> "Scenario":
        return cls(
            params=OscillatorParams(m=1.0, omega=1.0),
            forcing=SinusoidForcing(A=1.0, Omega=2.0, phi=0.0),
            t_max=3.141592653589793,
            samples=65,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _check_finite(data)
        try:
            validate(SCENARIO_VALIDATOR, data)
        except jsonschema.ValidationError as exc:
            raise DomainError(f"scenario config invalid: {exc.message}") from exc
        params = OscillatorParams(m=data["params"]["m"], omega=data["params"]["omega"])
        init = data.get("initial_state", {})
        quantum = data.get("quantum", {})
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
            n_initial=quantum.get("n_initial", 0),
            m_max=quantum.get("m_max", 16),
            tail_tol=quantum.get("tail_tol", 1e-9),
            grid=grid,
            output=data.get("output"),
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

    def to_dict(self) -> dict:
        data = {
            "params": {"m": self.params.m, "omega": self.params.omega},
            "forcing": self.forcing.to_dict(),
            "time": {"t_max": self.t_max, "samples": self.samples},
            "initial_state": {"x": self.initial_state.x, "p": self.initial_state.p},
            "quantum": {"n_initial": self.n_initial, "m_max": self.m_max,
                        "tail_tol": self.tail_tol},
        }
        if self.grid is not None:
            data["grid"] = {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                            "points": self.grid.points, "dt": self.grid.dt}
        if self.output is not None:
            data["output"] = self.output
        return data
