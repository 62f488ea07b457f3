"""Seeded scenario generation for the benchmark workloads.

A workload is an endless sequence of rounds.  A round is one fixed slice
of the workload's command mix, as a list of ``Op``; the benchmark runs
whole rounds, so every run sees the same mix whatever its length.

Parameters that set an op's cost (t_max, n_initial, m_max, the peak
Poisson mean, Omega) are spread over their ranges by a Kronecker
sequence frac(u0 + i * alpha), one irrational alpha per parameter and a
seeded offset u0, so ten ops already cover the parameter box evenly and
the cost mix varies little from seed to seed.  The other parameters are
drawn from the seeded generator.  The program sees only the scenario
files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from oracles import force

# Kronecker steps: the fractional parts of the golden ratio, sqrt(2) and
# sqrt(3), which are linearly independent over the rationals.
ALPHA = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
FORCE_TYPES = ("constant", "sinusoid", "pulse", "tabulated")
# The grid solver evaluates k once per step, at the step midpoint, so it is
# only first order across a jump of k: at dt = 1e-3 a pulse edge leaves a
# ground-overlap error near 4e-4 and fails verify's evolution_covariance
# checks (tolerance 1e-4).  Workloads that run the grid solver use drives
# that are continuous in time, tables that start and end at zero included.
CONTINUOUS_TYPES = ("constant", "sinusoid", "tabulated")
TABLE_KNOTS = 16


@dataclass(frozen=True)
class Op:
    command: str
    scenario: dict
    label: str  # stratum, for the failure summary


def _weyl(u0: float, i: int, axis: int = 0) -> float:
    return (u0 + i * ALPHA[axis]) % 1.0


def peak_lambda(scenario: dict) -> float:
    """Largest Poisson mean of the driven response over [0, t_max].

    lambda(t) = |c(t)|^2 / (2 m w) with c(t) = int_0^t e^{-i w s} k(s) ds,
    by a fine trapezoid; only used to scale drives to a target size.
    """
    m, w = scenario["params"]["m"], scenario["params"]["omega"]
    s = np.linspace(0.0, scenario["time"]["t_max"], 20001)
    f = np.exp(-1j * w * s) * force(scenario["forcing"], s)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(s))])
    return float(np.max(np.abs(c) ** 2) / (2.0 * m * w))


def _scale_drive(scenario: dict, target: float) -> dict:
    """Rescale the force amplitude so the peak Poisson mean is ``target``."""
    gain = math.sqrt(target / peak_lambda(scenario))
    spec = dict(scenario["forcing"])
    for key in ("K", "A"):
        if key in spec:
            spec[key] *= gain
    if "samples" in spec:
        spec["samples"] = [[t, k * gain] for t, k in spec["samples"]]
    return {**scenario, "forcing": spec}


def _drive(kind: str, t_max: float, rng: np.random.Generator,
           omega_range=(0.3, 3.0), continuous: bool = False) -> dict:
    sign = float(rng.choice([-1.0, 1.0]))
    if kind == "constant":
        return {"type": "constant", "K": sign}
    if kind == "sinusoid":
        return {"type": "sinusoid", "A": sign, "Omega": float(rng.uniform(*omega_range)),
                "phi": float(rng.uniform(0.0, 2.0 * math.pi))}
    if kind == "pulse":
        t_on = t_max * float(rng.uniform(0.05, 0.4))
        return {"type": "pulse", "K": sign, "t_on": t_on,
                "t_off": t_on + t_max * float(rng.uniform(0.2, 0.5))}
    knots = np.linspace(0.0, 0.9 * t_max, TABLE_KNOTS)
    knots[1:-1] += rng.uniform(-0.3, 0.3, TABLE_KNOTS - 2) * (knots[1] - knots[0])
    values = rng.uniform(-1.0, 1.0, TABLE_KNOTS)
    if continuous:
        values[[0, -1]] = 0.0
    return {"type": "tabulated",
            "samples": [[float(t), float(k)] for t, k in zip(knots, values)]}


def _params(rng: np.random.Generator) -> dict:
    return {"m": float(rng.uniform(0.8, 1.25)), "omega": float(rng.uniform(0.8, 1.25))}


def frame_sweep(seed: int) -> Iterator[list[Op]]:
    """classical, transitions and survival on one scenario per round.

    The frame (default 1025 nodes) is built twice per round, by
    transitions and survival; n_initial <= 2 keeps rows about 10 long.
    """
    rng = np.random.default_rng([seed, 1])
    u0 = float(rng.random())
    for i in itertools.count():
        kind = FORCE_TYPES[i % len(FORCE_TYPES)]
        t_max = math.pi * (1.0 + 9.0 * _weyl(u0, i))
        scn = {
            "params": _params(rng),
            "forcing": _drive(kind, t_max, rng),
            "time": {"t_max": t_max, "samples": 101},
            "initial_state": {"x": float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1])),
                              "p": float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))},
            "quantum": {"n_initial": i % 3},
        }
        scn = _scale_drive(scn, float(rng.uniform(0.5, 4.0)))
        yield [Op(cmd, scn, kind) for cmd in ("classical", "transitions", "survival")]


def rows_high_n(seed: int) -> Iterator[list[Op]]:
    """transitions only, n_initial 10-40, m_max n+30..n+60, 400 times.

    A round has three ops: a constant and a near-resonant sinusoid drive
    (Omega within 10% of omega) with n in 10-19 swept to a peak lambda
    of 0.5-3, and one drive, alternating between the two kinds, with n in
    20-40 swept to 6-10.  Every op sweeps lambda up from 0 along its 400
    times.  With two low-n ops to one high-n op the median op does the
    whole row work, even while high-n ops fail early.  frame_points = 257
    keeps the single frame build a minority of the op.
    """
    rng = np.random.default_rng([seed, 2])
    u0 = float(rng.random())
    for i in itertools.count():
        ops = []
        high_kind = ("constant", "sinusoid")[i % 2]
        for j, (kind, stratum) in enumerate([("constant", "low"), ("sinusoid", "low"),
                                             (high_kind, "high")]):
            k = 3 * i + j
            u = _weyl(u0, k)
            n = 10 + int(10 * u) if stratum == "low" else 20 + int(21 * u)
            params = _params(rng)
            w = params["omega"]
            t_max = (1.0 if kind == "constant" else float(rng.uniform(1.5, 2.5))) * math.pi / w
            scn = {
                "params": params,
                "forcing": _drive(kind, t_max, rng, omega_range=(0.9 * w, 1.1 * w)),
                "time": {"t_max": t_max, "samples": 400},
                "quantum": {"n_initial": n, "m_max": n + 30 + int(31 * _weyl(u0, k, 1)),
                            "tail_tol": 1e-9},
                "frame_points": 257,
            }
            v = _weyl(u0, k, 2)
            peak = 0.5 + 2.5 * v if stratum == "low" else 6.0 + 4.0 * v
            ops.append(Op("transitions", _scale_drive(scn, peak), f"{kind}/n{stratum}"))
        yield ops


def grid_evolution(seed: int) -> Iterator[list[Op]]:
    """evolve-pde of eigenstate n = 0..8 on the default 1024-point grid.

    dt = 1e-3 (the default); t_max in [pi, 2pi]; drives peak at lambda
    <= 3, so the packet stays far from the grid edges.  No frame is built.
    """
    rng = np.random.default_rng([seed, 3])
    u0 = float(rng.random())
    n0 = int(rng.integers(0, 9))
    for i in itertools.count():
        kind = CONTINUOUS_TYPES[i % len(CONTINUOUS_TYPES)]
        t_max = math.pi * (1.0 + _weyl(u0, i))
        scn = {
            "params": _params(rng),
            "forcing": _drive(kind, t_max, rng, continuous=True),
            "time": {"t_max": t_max, "samples": 9},
            "quantum": {"n_initial": (n0 + i) % 9},
        }
        yield [Op("evolve-pde", _scale_drive(scn, float(rng.uniform(0.3, 3.0))), kind)]


def verify_suite(seed: int) -> Iterator[list[Op]]:
    """verify --suite all, one op per continuous drive type in each round.

    t_max in [pi, 1.25 pi] and Omega in [0.5, 2] keep the cost of an op
    (two frames, exact_values panels, six evolve_lab calls) within a
    narrow band, since a run holds only a few of them.
    """
    rng = np.random.default_rng([seed, 4])
    u0 = float(rng.random())
    for i in itertools.count():
        ops = []
        for j, kind in enumerate(CONTINUOUS_TYPES):
            t_max = math.pi * (1.0 + 0.25 * _weyl(u0, 3 * i + j))
            rate = 0.5 + 1.5 * _weyl(u0, i, 1)
            scn = {
                "params": _params(rng),
                "forcing": _drive(kind, t_max, rng, omega_range=(rate, rate), continuous=True),
                "time": {"t_max": t_max, "samples": 65},
                "initial_state": {"x": float(rng.uniform(-1.0, 1.0)),
                                  "p": float(rng.uniform(-1.0, 1.0))},
            }
            ops.append(Op("verify", _scale_drive(scn, float(rng.uniform(0.3, 2.0))), kind))
        yield ops


WORKLOADS = {
    "frame_sweep": frame_sweep,
    "rows_high_n": rows_high_n,
    "grid_evolution": grid_evolution,
    "verify_suite": verify_suite,
}


def warmup(workload: str) -> list[Op]:
    """Small ops that load lazily imported code before timing starts."""
    scn = {"params": {"m": 1.0, "omega": 1.0},
           "forcing": {"type": "sinusoid", "A": 0.5, "Omega": 1.7, "phi": 0.3},
           "time": {"t_max": 0.5, "samples": 5}, "frame_points": 33}
    commands = {"frame_sweep": ("classical", "transitions", "survival"),
                "rows_high_n": ("transitions",),
                "grid_evolution": ("evolve-pde",),
                "verify_suite": ("verify",)}[workload]
    return [Op(cmd, scn, "warmup") for cmd in commands]
