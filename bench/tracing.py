"""Spans around the calls into each drivenosc layer, recorded from outside.

``install`` rebinds every name through which the CLI, ``verify`` and the
library's own modules reach a layer's public functions (for example both
``drivenosc.cli.build_frame`` and ``drivenosc.canonical.build_frame``, and
each ``verify.CHECKS[i].fn``) to a wrapper that records a span: name,
start, end, parent span and op id.  Spans are held in memory and written
out at the end.  A span's self time is its duration minus the time its
child spans cover.  ``ForcingSpec.evaluate`` runs about 250k times per
frame, so it is counted, not spanned.

Per-layer metrics are per op: totals over the traced ops divided by the
number of traced ops (``trace.ops``).  ``build_frame`` spends its time in
nested quadrature calls, which have spans of their own, so its self time
is small; ``canonical.build_frame.total_s`` is its inclusive time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import types
from collections import Counter, defaultdict
from time import perf_counter

# The 25 entries of drivenosc.verify.CHECKS, in order.
VERIFY_CHECKS = (
    "propagator_group_law", "propagator_determinant", "quadratic_form_conjugation",
    "evolve_vs_runge_kutta", "moving_ellipse_invariant", "frame_newton_residual",
    "frame_gauge_residual", "hamiltonian_transformation_law", "frame_point_roundtrip",
    "classical_frame_covariance", "frame_cache_vs_exact", "hermite_orthonormality",
    "hermite_generating_function", "gaussian_moment_vs_quadrature",
    "eigenstate_operator_identity", "amplitude_closed_vs_quadrature",
    "transition_row_unitarity", "ground_row_poisson", "amplitude_symmetry",
    "momentum_rep_unitarity", "operator_covariance_position",
    "operator_covariance_momentum", "evolution_covariance_moving",
    "evolution_covariance_lab", "frame_map_roundtrip",
)

# (metric name, unit) for every per-layer metric, in report order.
LAYER_METRICS = (
    [("scenario.from_file.self_s", "s"),
     ("forcing.evaluate.calls", "count"),
     ("quadrature.fixed_gauss_kronrod.calls", "count"),
     ("quadrature.fixed_gauss_kronrod.self_s", "s"),
     ("quadrature.adaptive_gauss_kronrod.calls", "count"),
     ("quadrature.adaptive_gauss_kronrod.self_s", "s"),
     ("classical.evolve.calls", "count"),
     ("classical.evolve.self_s", "s"),
     ("canonical.build_frame.calls", "count"),
     ("canonical.build_frame.self_s", "s"),
     ("canonical.build_frame.total_s", "s"),
     ("canonical.frame_eval.calls", "count"),
     ("canonical.frame_eval.self_s", "s"),
     ("canonical.exact_values.self_s", "s"),
     ("hermite.eigenstate.self_s", "s"),
     ("hermite.gauss_hermite_rule.self_s", "s"),
     ("transitions.probability_row.calls", "count"),
     ("transitions.probability_row.self_s", "s"),
     ("transitions.probability_row.len_mean", "count"),
     ("transitions.overlap_amplitude.calls", "count"),
     ("transitions.overlap_amplitude.self_s", "s"),
     ("schrodinger.evolve_lab.calls", "count"),
     ("schrodinger.evolve_lab.self_s", "s"),
     ("schrodinger.evolve_lab.steps", "count"),
     ("schrodinger.step_us", "us"),
     ("schrodinger.frame_maps.self_s", "s"),
     ("schrodinger.energy_expectation.self_s", "s")]
    + [(f"verify.{name}.self_s", "s") for name in VERIFY_CHECKS]
    + [("cli.write.self_s", "s"),
       ("cli.bytes_written", "bytes"),
       ("setup.import.drivenosc_s", "s"),
       ("setup.import.scipy_interpolate_s", "s"),
       ("setup.import.jsonschema_s", "s"),
       ("trace.ops", "count"),
       ("trace.op_s_mean", "s"),
       ("trace.overhead_ratio", "ratio")]
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span and counter store for one traced pass (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span named ``name`` around every call.

        ``after(args, kwargs, result)`` runs outside the span and may
        record values (row lengths, step counts) for the layer.
        """
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, edge = 0.0, span[START]
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo = max(spans[j][START], edge, span[START])
            hi = min(spans[j][END], span[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span[END] - span[START] - covered)
    return out


def _evolve_steps(signature):
    """Step count of one evolve_lab call, by the solver's own rule:
    floor(span / dt) full steps plus one for a remainder above 1e-12."""
    def count(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        dt = bound.arguments["psi0"].grid.dt
        span = bound.arguments["t_final"] - bound.arguments["t0"]
        full = int(math.floor(span / dt + 1e-12))
        return full + (span - full * dt >= 1e-12 * max(1.0, abs(span)))
    return count


def install(tracer: Tracer, modules: types.SimpleNamespace):
    """Rebind every traced name; returns a function that undoes it."""
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span_at(layer, owners, attr, after=None):
        for owner in owners:
            rebind(owner, attr, tracer.wrap(layer, getattr(owner, attr), after))

    m = modules
    from_file = m.scenario.Scenario.__dict__["from_file"].__func__
    rebind(m.scenario.Scenario, "from_file",
           classmethod(tracer.wrap("scenario.from_file", from_file)))
    rebind(m.forcing.ForcingSpec, "evaluate",
           tracer.counted("forcing.evaluate", m.forcing.ForcingSpec.evaluate))
    span_at("quadrature.fixed_gauss_kronrod", [m.quadrature, m.canonical], "fixed_gauss_kronrod")
    span_at("quadrature.adaptive_gauss_kronrod", [m.quadrature, m.classical],
            "adaptive_gauss_kronrod")
    span_at("classical.evolve", [m.classical, m.drivenosc], "evolve")
    span_at("canonical.build_frame", [m.canonical, m.cli, m.drivenosc], "build_frame")
    for method in ("values", "x_nh", "xdot_nh", "gauge", "f1"):
        span_at("canonical.frame_eval", [m.canonical.CanonicalFrame], method)
    span_at("canonical.exact_values", [m.canonical.CanonicalFrame], "exact_values")
    span_at("hermite.eigenstate", [m.hermite, m.schrodinger, m.drivenosc], "eigenstate")
    span_at("hermite.gauss_hermite_rule", [m.hermite, m.transitions, m.drivenosc],
            "gauss_hermite_rule")

    lengths = tracer.values["transitions.probability_row.len"]
    span_at("transitions.probability_row", [m.transitions, m.drivenosc], "probability_row",
            lambda a, k, row: lengths.append(row.truncation_m))
    span_at("transitions.overlap_amplitude", [m.transitions, m.drivenosc], "overlap_amplitude")

    steps = tracer.values["schrodinger.evolve_lab.steps"]
    count_steps = _evolve_steps(inspect.signature(m.schrodinger.evolve_lab))
    span_at("schrodinger.evolve_lab", [m.schrodinger, m.drivenosc], "evolve_lab",
            lambda a, k, r: steps.append(count_steps(a, k)))
    for frame_map in ("moving_to_lab", "lab_to_moving"):
        span_at("schrodinger.frame_maps", [m.schrodinger, m.drivenosc], frame_map)
    span_at("schrodinger.energy_expectation", [m.schrodinger, m.drivenosc], "energy_expectation")

    rebind(m.verify, "CHECKS", tuple(
        dataclasses.replace(c, fn=tracer.wrap(f"verify.{c.name}", c.fn))
        for c in m.verify.CHECKS))
    span_at("cli.write", [m.cli], "_write_csv")
    json_mod = m.cli.json
    rebind(m.cli, "json", types.SimpleNamespace(
        **{**vars(json_mod), "dump": tracer.wrap("cli.write", json_mod.dump)}))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def layer_metrics(tracer: Tracer, op_count: int) -> dict[str, float]:
    """Per-op totals of calls and self time by layer, plus derived values."""
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
        total_s[span[NAME]] += span[END] - span[START]
    calls.update(tracer.counts)
    per_op = max(op_count, 1)
    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer] / per_op
        elif kind == "self_s":
            out[metric] = self_s[layer] / per_op
        elif kind == "total_s":
            out[metric] = total_s[layer] / per_op
    lengths = tracer.values["transitions.probability_row.len"]
    out["transitions.probability_row.len_mean"] = (
        sum(lengths) / len(lengths) if lengths else 0.0)
    steps = sum(tracer.values["schrodinger.evolve_lab.steps"])
    out["schrodinger.evolve_lab.steps"] = steps / per_op
    out["schrodinger.step_us"] = (
        1e6 * self_s["schrodinger.evolve_lab"] / steps if steps else 0.0)
    return out
