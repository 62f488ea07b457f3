"""Independent routes that check every output the CLI writes.

Nothing here imports drivenosc.  Each reference value is computed from
the scenario dictionary alone, by a route that shares no algebra with the
program:

* the driven response by DOP853 on the equations of motion, restarted at
  every kink of the force (the program uses Gauss-Kronrod quadrature of
  the Duhamel integral and a spline cache);
* P(n -> m) by the associated-Laguerre form (Cahill & Glauber, Phys. Rev.
  177, 1857, 1969), where the program sums the generating-function
  coefficients;
* the split-operator overlap with the ground state by the same Laguerre
  form at m = 0, i.e. e^-lam lam^n / n!.

A check returns a list of failure reasons; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import eval_genlaguerre, gammaln

RESPONSE_TOL = 1e-8   # trajectory: relative to max(1, |value|)
# lambda of transitions and survival comes from the frame's spline cache,
# which is only O(h^2) accurate in the node interval that holds a force
# jump (measured up to 9.2e-4 for pulse and tabulated drives at h = 0.03),
# so it is held to a coarse guard that still catches a wrong frame.
FRAME_LAMBDA_TOL = 1e-2
INVARIANT_TOL = 1e-8  # conserved form, relative to max(1, |value|)
PROB_TOL = 1e-9       # P(n -> m) and survival, absolute
ROW_EXCESS_TOL = 1e-10
NORM_TOL = 1e-10
OVERLAP_TOL = 1e-4    # split-operator stepping at dt = 1e-3


# -- force and classical response -------------------------------------------

def force(spec: dict, t):
    """k(t) for a scenario ``forcing`` object, vectorised over t."""
    t = np.asarray(t, dtype=float)
    kind = spec["type"]
    if kind == "zero":
        return np.zeros_like(t)
    if kind == "constant":
        return np.full_like(t, spec["K"])
    if kind == "sinusoid":
        return spec["A"] * np.cos(spec["Omega"] * t + spec.get("phi", 0.0))
    if kind == "pulse":
        return np.where((t >= spec["t_on"]) & (t < spec["t_off"]), spec["K"], 0.0)
    if kind == "tabulated":
        ts, ks = np.asarray(spec["samples"], dtype=float).T
        return np.where((t >= ts[0]) & (t <= ts[-1]), np.interp(t, ts, ks), 0.0)
    raise ValueError(f"unknown forcing type {kind!r}")


def _scalar_force(spec: dict):
    """k(t) for one float t, without the per-call array set-up of force()."""
    if spec["type"] == "tabulated":
        ts, ks = np.asarray(spec["samples"], dtype=float).T
        lo, hi = ts[0], ts[-1]
        return lambda t: float(np.interp(t, ts, ks)) if lo <= t <= hi else 0.0
    if spec["type"] == "sinusoid":
        A, Omega, phi = spec["A"], spec["Omega"], spec.get("phi", 0.0)
        return lambda t: A * math.cos(Omega * t + phi)
    return lambda t: float(force(spec, t))


def kinks(spec: dict) -> list[float]:
    """Times where k jumps or bends; the integrator restarts there."""
    if spec["type"] == "pulse":
        return [spec["t_on"], spec["t_off"]]
    if spec["type"] == "tabulated":
        return [t for t, _ in spec["samples"]]
    return []


def response(scenario: dict, times, z0=(0.0, 0.0)) -> np.ndarray:
    """Rows (x, p) of the driven oscillator at ascending ``times`` >= 0."""
    m, w = scenario["params"]["m"], scenario["params"]["omega"]
    spec = scenario["forcing"]
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), 2))
    out[times == 0.0] = z0
    edges = sorted({0.0, float(times[-1]), *(b for b in kinks(spec) if 0.0 < b < times[-1])})
    k = _scalar_force(spec)
    z = list(z0)
    for a, b in zip(edges, edges[1:]):
        # Evaluate k strictly inside (a, b) so the end stages of a step
        # never see the value from across a jump.
        eps = 1e-12 * max(1.0, b)

        def rhs(s, y, a=a, b=b, eps=eps):
            return [y[1] / m, -m * w * w * y[0] + k(min(max(s, a + eps), b - eps))]

        sel = (times > a) & (times <= b)
        t_eval = np.union1d(times[sel], [b])
        sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-12, atol=1e-13,
                        t_eval=t_eval)
        out[sel] = sol.y[:, np.searchsorted(t_eval, times[sel])].T
        z = [float(sol.y[0, -1]), float(sol.y[1, -1])]
    return out


def poisson_mean(scenario: dict, xp: np.ndarray) -> np.ndarray:
    """lambda = (m w x^2 + p^2 / (m w)) / 2 of response rows (x, p)."""
    mw = scenario["params"]["m"] * scenario["params"]["omega"]
    return 0.5 * (mw * xp[:, 0] ** 2 + xp[:, 1] ** 2 / mw)


# -- transition probabilities -------------------------------------------------

def transition_probability(n, m, lam):
    """P(n -> m) at Poisson mean lam, by the associated-Laguerre form

        P = (lo! / hi!) lam^(hi - lo) e^-lam [L_lo^(hi - lo)(lam)]^2,

    lo = min(n, m), hi = max(n, m).  Broadcasts over its arguments.
    """
    n, m, lam = np.broadcast_arrays(np.asarray(n, dtype=np.int64),
                                    np.asarray(m, dtype=np.int64),
                                    np.asarray(lam, dtype=float))
    lo, hi = np.minimum(n, m), np.maximum(n, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_pref = gammaln(lo + 1) - gammaln(hi + 1) + (hi - lo) * np.log(lam) - lam
        p = np.exp(log_pref) * eval_genlaguerre(lo, hi - lo, lam) ** 2
    return np.where(lam == 0.0, (n == m).astype(float), p)


# -- checks, one per CLI command -----------------------------------------------

def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _times(scenario: dict) -> np.ndarray:
    return np.linspace(0.0, scenario["time"]["t_max"], scenario["time"]["samples"])


def _rel_excess(got, ref, tol) -> float:
    """Largest |got - ref| / (tol * max(1, |ref|)); above 1 is a failure."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / (tol * np.maximum(1.0, np.abs(ref)))))


def _check_time_column(t_col, scenario) -> list[str]:
    want = _times(scenario)
    if len(t_col) != len(want) or np.max(np.abs(t_col - want)) > 1e-12 * want[-1]:
        return ["time column differs from the scenario's sample grid"]
    return []


def _check_lambda(scenario, t_col, lam_col) -> list[str]:
    ref = poisson_mean(scenario, response(scenario, t_col))
    if _rel_excess(lam_col, ref, FRAME_LAMBDA_TOL) > 1.0:
        return [f"lambda off the DOP853 response by {np.max(np.abs(lam_col - ref)):.2e}"]
    return []


def check_classical(scenario: dict, out: Path) -> list[str]:
    data = _csv(out / "trajectory.csv")  # t,x,p,x_nh,p_nh,invariant
    bad = _check_time_column(data[:, 0], scenario)
    if bad:
        return bad
    init = scenario.get("initial_state", {})
    z0 = (init.get("x", 0.0), init.get("p", 0.0))
    ref = np.hstack([response(scenario, data[:, 0], z0), response(scenario, data[:, 0])])
    if _rel_excess(data[:, 1:5], ref, RESPONSE_TOL) > 1.0:
        err = np.max(np.abs(data[:, 1:5] - ref))
        bad.append(f"trajectory off the DOP853 reference by {err:.2e}")
    m, w = scenario["params"]["m"], scenario["params"]["omega"]
    form = 0.5 * (m * w * w * z0[0] ** 2 + z0[1] ** 2 / m)
    if _rel_excess(data[:, 5], form, INVARIANT_TOL) > 1.0:
        bad.append(f"invariant drifts by {np.max(np.abs(data[:, 5] - form)):.2e}")
    return bad


def check_transitions(scenario: dict, out: Path) -> list[str]:
    data = _csv(out / "transitions.csv")  # t,n,m,P,lambda
    rows = json.loads((out / "transition_rows.json").read_text())
    t_col = np.array([r["t"] for r in rows])
    bad = _check_time_column(t_col, scenario)
    if bad:
        return bad
    n = scenario.get("quantum", {}).get("n_initial", 0)
    m_max = scenario.get("quantum", {}).get("m_max", 16)
    tail_tol = scenario.get("quantum", {}).get("tail_tol", 1e-9)
    per_time = np.unique(data[:, 0], return_counts=True)[1]
    if len(per_time) != len(rows) or per_time.min() < m_max + 1 or np.any(data[:, 1] != n):
        bad.append("transitions.csv does not hold rows m = 0..m_max for every time")
    ref = transition_probability(n, data[:, 2].astype(np.int64), data[:, 4])
    err = np.abs(data[:, 3] - ref)
    if not np.all(err <= PROB_TOL):
        worst = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
        bad.append(f"P({n}->{int(data[worst, 2])}) off the Laguerre form by {err[worst]:.2e} "
                   f"at lambda={data[worst, 4]:.3g}")
    sums = np.array([math.fsum(r["probabilities"]) for r in rows])
    if np.any(sums < 1.0 - tail_tol) or np.any(sums > 1.0 + ROW_EXCESS_TOL):
        bad.append(f"row sums span [{sums.min():.12f}, {sums.max():.12f}]")
    bad += _check_lambda(scenario, t_col, np.array([r["lambda"] for r in rows]))
    return bad


def check_survival(scenario: dict, out: Path) -> list[str]:
    data = _csv(out / "survival.csv")  # t,lambda,survival
    bad = _check_time_column(data[:, 0], scenario)
    if bad:
        return bad
    err = np.abs(data[:, 2] - np.exp(-data[:, 1]))
    if not np.all(err <= PROB_TOL):
        bad.append(f"survival off exp(-lambda) by {np.max(err):.2e}")
    return bad + _check_lambda(scenario, data[:, 0], data[:, 1])


def check_evolve_pde(scenario: dict, out: Path) -> list[str]:
    log = _csv(out / "evolution.csv")  # t,norm,energy,overlap_ground
    bad = _check_time_column(log[:, 0], scenario)
    if bad:
        return bad
    if not np.all(np.abs(log[:, 1] - 1.0) <= NORM_TOL):
        bad.append(f"norm drifts by {np.max(np.abs(log[:, 1] - 1.0)):.2e}")
    n = scenario.get("quantum", {}).get("n_initial", 0)
    lam = poisson_mean(scenario, response(scenario, log[:, 0]))
    err = np.abs(log[:, 3] - transition_probability(n, 0, lam))
    if not np.all(err <= OVERLAP_TOL):
        bad.append(f"ground overlap off e^-lam lam^n/n! by {np.max(err):.2e}")
    state = _csv(out / "final_state.csv")  # x,re,im,abs2
    final_norm = math.sqrt(math.fsum(state[:, 3]) * (state[1, 0] - state[0, 0]))
    if abs(final_norm - 1.0) > NORM_TOL:
        bad.append(f"final state norm {final_norm:.12f}")
    return bad


def check_verify(out: Path, report_schema: dict, check_names: list[str]) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    try:
        jsonschema.validate(report, report_schema)
    except jsonschema.ValidationError as exc:
        return [f"report.json fails its schema: {exc.message}"]
    bad = []
    if report["all_pass"] is not True:
        failing = [c["check"] for c in report["checks"] if c["status"] != "pass"]
        bad.append(f"verify checks failed: {', '.join(failing)}")
    if [c["check"] for c in report["checks"]] != check_names:
        bad.append("report does not list every check once, in order")
    return bad


CHECKS = {
    "classical": check_classical,
    "transitions": check_transitions,
    "survival": check_survival,
    "evolve-pde": check_evolve_pde,
}
