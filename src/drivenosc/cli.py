"""Command-line front end.

Subcommands (one scenario JSON per run; see schemas/scenario.schema.json):

    classical    trajectory CSV  t,x,p,x_nh,p_nh,invariant
    transitions  long CSV t,n,m,P,lambda  +  per-time JSON rows
    survival     CSV t,lambda,survival
    evolve-pde   evolution log CSV t,norm,energy,overlap_ground
                 + final state CSV x,re,im,abs2
    verify       JSON report of the named checks; exit 0 iff all pass

Exit codes: 0 success, 1 verification failure, 2 configuration error or
unwritable output, 3 numerical failure.  Output is bit-stable for
identical scenarios.
Multiple --scenario flags run independently; --jobs N dispatches them in
parallel (each run is internally deterministic), with N clamped to the
number of scenarios and of CPUs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import classical, schrodinger, transitions
from .canonical import build_frame
from .errors import DomainError, NumericError
from .scenario import REPORT_VALIDATOR, Scenario, validate
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _times(scn: Scenario) -> np.ndarray:
    return np.linspace(0.0, scn.t_max, scn.samples)


def cmd_classical(scn: Scenario, out_dir: Path) -> list[Path]:
    """Sampled trajectory z = U(t) z0 + z_nh(t), with the response z_nh read
    off the scenario frame, and the conserved form of z - z_nh."""
    frame = _scenario_frame(scn)
    z0 = scn.initial_state.as_array()
    rows = []
    for t in _times(scn):
        t = float(t)
        x_nh, xdot_nh, _ = frame.values(t)
        p_nh = scn.params.m * xdot_nh
        x, p = classical.propagator(scn.params, t) @ z0 + (x_nh, p_nh)
        inv = classical.quadratic_invariant(
            scn.params, classical.PhaseState(x - x_nh, p - p_nh))
        rows.append((t, float(x), float(p), x_nh, p_nh, inv))
    path = out_dir / "trajectory.csv"
    _write_csv(path, ["t", "x", "p", "x_nh", "p_nh", "invariant"], rows)
    return [path]


def _scenario_frame(scn: Scenario):
    return build_frame(scn.params, scn.forcing, scn.t_max)


def cmd_transitions(scn: Scenario, out_dir: Path) -> list[Path]:
    """P(n_initial -> m) and the excitation mean: one frame read, one column per time."""
    frame = _scenario_frame(scn)
    csv_rows = []
    json_rows = []
    for t in _times(scn):
        t = float(t)
        d = transitions.DisplacementParams.from_frame(frame, t)
        column = transitions.probability_column(scn.n_initial, d, max(501, scn.m_max + 1))
        row = transitions.probability_row(scn.n_initial, column, scn.tail_tol)
        probs = column[:max(row.truncation_m, scn.m_max + 1)].tolist()  # row or m <= m_max
        lam = d.poisson_mean()
        csv_rows.extend((t, scn.n_initial, m, p, lam) for m, p in enumerate(probs))
        json_rows.append({
            "n": scn.n_initial,
            "t": t,
            "lambda": lam,
            "probabilities": list(row.probabilities),
            "tail_bound": row.tail_bound,
        })
    csv_path = out_dir / "transitions.csv"
    _write_csv(csv_path, ["t", "n", "m", "P", "lambda"], csv_rows)
    json_path = out_dir / "transition_rows.json"
    with open(json_path, "w") as fh:
        json.dump(json_rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


def cmd_survival(scn: Scenario, out_dir: Path) -> list[Path]:
    """Ground-state survival probability over the time grid."""
    frame = _scenario_frame(scn)
    rows = []
    for t in _times(scn):
        t = float(t)
        lam = transitions.DisplacementParams.from_frame(frame, t).poisson_mean()
        rows.append((t, lam, math.exp(-lam)))  # ground_state_survival without a second read
    path = out_dir / "survival.csv"
    _write_csv(path, ["t", "lambda", "survival"], rows)
    return [path]


def cmd_evolve_pde(scn: Scenario, out_dir: Path) -> list[Path]:
    """Grid evolution of the n_initial eigenstate under the forcing."""
    grid = scn.resolved_grid()
    psi = schrodinger.eigenstate_wavefunction(scn.params, scn.n_initial, grid)
    ground = schrodinger.eigenstate_wavefunction(scn.params, 0, grid)
    log_rows = []
    t_prev = 0.0
    for t in _times(scn):
        t = float(t)
        if t > t_prev:
            psi = schrodinger.evolve_lab(scn.params, scn.forcing, psi, t, t0=t_prev)
            t_prev = t
        log_rows.append((
            t,
            psi.norm(),
            schrodinger.energy_expectation(scn.params, psi, scn.forcing, t),
            abs(schrodinger.overlap(ground, psi)) ** 2,
        ))
    log_path = out_dir / "evolution.csv"
    _write_csv(log_path, ["t", "norm", "energy", "overlap_ground"], log_rows)
    state_path = out_dir / "final_state.csv"
    _write_csv(
        state_path, ["x", "re", "im", "abs2"],
        ((float(x), v.real, v.imag, abs(v) ** 2)
         for x, v in zip(grid.x, psi.values)),
    )
    return [log_path, state_path]


def cmd_verify(scn: Scenario, out_dir: Path, suite: str) -> tuple[list[Path], bool]:
    results = run_suite(scn, suite)
    report = {
        "suite": suite,
        "all_pass": all(r.status == "pass" for r in results),
        "checks": [r.to_dict() for r in results],
    }
    validate(REPORT_VALIDATOR, report)
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        print(f"[{r.status.upper():4s}] {r.suite}/{r.check}: "
              f"max_error={r.max_error:.3e} tol={r.tolerance:.1e}")
    return [path], report["all_pass"]


def _run_one(command: str, scenario_path: str, out_override: str | None,
             suite: str, subdir: bool) -> tuple[int, str]:
    """Load, run, and report one scenario; returns (exit_code, message)."""
    try:
        scn = Scenario.from_file(scenario_path)
        out_dir = Path(out_override or scn.output or ".")
        if subdir:
            out_dir = out_dir / Path(scenario_path).stem
        out_dir.mkdir(parents=True, exist_ok=True)

        if command == "verify":
            paths, ok = cmd_verify(scn, out_dir, suite)
            code = EXIT_OK if ok else EXIT_VERIFY_FAILED
        else:
            runner = {
                "classical": cmd_classical,
                "transitions": cmd_transitions,
                "survival": cmd_survival,
                "evolve-pde": cmd_evolve_pde,
            }[command]
            paths = runner(scn, out_dir)
            code = EXIT_OK
        return code, f"{scenario_path}: wrote {', '.join(str(p) for p in paths)}"
    except DomainError as exc:
        return EXIT_CONFIG, f"{scenario_path}: configuration error: {exc}"
    except NumericError as exc:
        return EXIT_NUMERIC, f"{scenario_path}: numerical failure: {exc}"
    except OSError as exc:  # output directory or file not writable
        return EXIT_CONFIG, f"{scenario_path}: cannot write output: {exc}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenosc",
        description="Driven harmonic oscillator: classical runs, transition "
                    "probabilities, grid evolution, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("classical", "export the sampled classical trajectory"),
        ("transitions", "export transition probabilities over time"),
        ("survival", "export the ground-state survival probability"),
        ("evolve-pde", "run the grid solver and export its logs"),
        ("verify", "run named verification checks and write a JSON report"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", action="append", required=False,
                       help="scenario JSON file (repeatable)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--jobs", type=int, default=1,
                       help="run multiple scenarios in parallel")
        if name == "verify":
            p.add_argument("--suite", choices=SUITES, default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenarios = args.scenario
    if not scenarios:
        print("error: at least one --scenario file is required", file=sys.stderr)
        return EXIT_CONFIG
    suite = getattr(args, "suite", "all")
    subdir = len(scenarios) > 1

    jobs = max(1, min(args.jobs, len(scenarios), os.cpu_count() or 1))
    if jobs == 1:
        outcomes = [_run_one(args.command, s, args.out, suite, subdir)
                    for s in scenarios]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, args.command, s, args.out, suite, subdir)
                       for s in scenarios]
            outcomes = [f.result() for f in futures]

    code = EXIT_OK
    for rc, message in outcomes:
        stream = sys.stderr if rc not in (EXIT_OK, EXIT_VERIFY_FAILED) else sys.stdout
        print(message, file=stream)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
