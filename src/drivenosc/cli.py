"""Command-line front end.

Subcommands (one scenario JSON per run; see schemas/scenario.schema.json):

    classical    trajectory CSV  t,x,p,x_nh,p_nh,invariant
    transitions  long CSV t,n,m,P,lambda  +  per-time JSON rows
    survival     CSV t,lambda,survival
    evolve-pde   evolution log CSV t,norm,energy,overlap_ground
                 + final state CSV x,re,im,abs2
    verify       JSON report of the named checks; exit 0 iff all pass

Exit codes: 0 success, 1 verification failure, 2 configuration error or
unwritable output, 3 numerical failure or any other unexpected exception
(reported in one line as "internal failure: <Type>: <message>").  Output
is bit-stable for identical scenarios.
``transitions`` and ``survival`` read one array of lambda = (a^2 + b^2)/2
from one frame read.  Outputs are streamed: CSV is formatted at most
CSV_CHUNK_ROWS rows at a time, and ``transitions`` writes each time's CSV
block and JSON row as its column arrives, holding one block of columns
(transitions.py), so what a writer holds does not grow with the file.
Each file is written under a temporary name beside it and renamed onto
it only when the command succeeds, so a failed run leaves no new or
partial file.  An existing output is replaced (a symlink there becomes
a plain file), and a command's files are renamed one at a time, not
atomically as a set.
Multiple --scenario flags run independently; --jobs N dispatches them in
parallel (each run is internally deterministic), with N clamped to the
number of scenarios and of CPUs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import classical, schrodinger, transitions
from .canonical import build_frame
from .errors import DomainError, NumericError
from .scenario import REPORT_SCHEMA, SUITES, Scenario, validate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# Rows of a CSV block formatted at once: the text and the Python floats of
# one chunk are all a writer holds beyond the block itself.
CSV_CHUNK_ROWS = 1 << 14


class _Staged:
    """``with _Staged(*paths) as temps``: a temporary name beside each path.
    On a clean exit each is renamed onto its path, one at a time; on any
    error all that remain are removed, so a failed run leaves no new or
    partial file."""

    def __init__(self, *paths: Path):
        self.pairs = [(p.with_name(f".{p.name}.{os.getpid()}.tmp"), p) for p in paths]

    def __enter__(self) -> list[Path]:
        return [temp for temp, _ in self.pairs]

    def __exit__(self, exc_type, *_) -> None:
        try:
            if exc_type is None:
                for temp, path in self.pairs:
                    os.replace(temp, path)
        finally:
            for temp, _ in self.pairs:
                temp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """The header, then the rows of each block, every value as %.17g,
    formatted CSV_CHUNK_ROWS rows at a time.

    A block holds one entry per column: a 1-D ndarray (that column's value
    on each row; at least one column is one) or a scalar (the same value
    on every row of the block, formatted once).
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            arrays = [c for c in block if isinstance(c, np.ndarray)]
            line = ",".join("%.17g" if isinstance(c, np.ndarray) else "%.17g" % c
                            for c in block) + "\n"
            rows = len(arrays[0])
            for start in range(0, rows, CSV_CHUNK_ROWS):
                chunk = [c[start:start + CSV_CHUNK_ROWS] for c in arrays]
                count = len(chunk[0])
                values = [None] * (count * len(chunk))
                for j, column in enumerate(chunk):
                    values[j::len(chunk)] = column.tolist()
                fh.write(line * count % tuple(values))


def _times(scn: Scenario) -> np.ndarray:
    return np.linspace(0.0, scn.t_max, scn.samples)


def cmd_classical(scn: Scenario, out_dir: Path) -> list[Path]:
    """Sampled trajectory, its response z_nh and the conserved form of
    z - z_nh, from one read of the scenario frame (``classical.trajectory``)."""
    times = _times(scn)
    x_nh, xdot_nh, _ = build_frame(scn.params, scn.forcing, scn.t_max).values(times)
    z, z_nh, invariant = classical.trajectory(scn.params, scn.initial_state, times,
                                              x_nh, xdot_nh)
    path = out_dir / "trajectory.csv"
    with _Staged(path) as (temp,):
        _write_csv(temp, ["t", "x", "p", "x_nh", "p_nh", "invariant"],
                   [(times, *z.T, *z_nh.T, invariant)])
    return [path]


def _excitation_means(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The sample times and the excitation mean lambda at each, from one
    frame read; NumericError at the first lambda that is not finite."""
    times = _times(scn)
    x_nh, xdot_nh, _ = build_frame(scn.params, scn.forcing, scn.t_max).values(times)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        a, b = transitions.displacements(scn.params, x_nh, xdot_nh)
        lams = transitions.excitation_mean(a, b)
    if not np.isfinite(lams).all():
        i = np.argmin(np.isfinite(lams))  # the first non-finite lambda
        raise NumericError(f"excitation mean lambda = (a^2 + b^2)/2 overflows at "
                           f"t={times[i]:.17g}, (a, b) = ({float(a[i])!r}, {float(b[i])!r})")
    return times, lams


_ROW_JSON = ('  {\n    "lambda": %s,\n    "n": %d,\n    "probabilities": [\n      %s\n'
             '    ],\n    "t": %s,\n    "tail_bound": %s\n  }')


def _row_json(t: float, n: int, lam: float, probabilities, tail_bound: float) -> str:
    """One row's entry in ``json.dump(rows, fh, indent=2, sort_keys=True)``
    of a list of {"n", "t", "lambda", "probabilities", "tail_bound"} dicts
    with finite floats, from one template (json's encoder writes a finite
    float as ``float.__repr__`` does).  That list opens with "[\n",
    separates its entries with ",\n" and closes with "\n]"."""
    return _ROW_JSON % (float.__repr__(lam), n,
                        ",\n      ".join(map(float.__repr__, probabilities)),
                        float.__repr__(t), float.__repr__(tail_bound))


def cmd_transitions(scn: Scenario, out_dir: Path) -> list[Path]:
    """P(n_initial -> m) and the excitation mean: every lambda from one
    frame read, the columns in blocks of times, each only as long as its
    row or m <= m_max needs (at most max(501, m_max + 1) entries).  One
    pass over the columns writes both files, one time after another."""
    n = scn.n_initial
    times, lams = _excitation_means(scn)
    columns = transitions.probability_columns(n, lams, scn.m_max, scn.tail_tol)
    csv_path, json_path = out_dir / "transitions.csv", out_dir / "transition_rows.json"
    with _Staged(csv_path, json_path) as (csv_temp, json_temp), open(json_temp, "w") as fh:
        def blocks():
            """Each time's CSV block; its JSON row is written as the block is made."""
            fh.write("[\n")
            for i, (t, lam, column) in enumerate(zip(times.tolist(), lams.tolist(), columns)):
                row = transitions.probability_row(n, column, scn.tail_tol)
                fh.write((",\n" if i else "")
                         + _row_json(t, n, lam, row.probabilities, row.tail_bound))
                probs = column[:max(row.truncation_m, scn.m_max + 1)]  # row or m <= m_max
                yield t, n, np.arange(probs.size), probs, lam
            fh.write("\n]\n")

        _write_csv(csv_temp, ["t", "n", "m", "P", "lambda"], blocks())
    return [csv_path, json_path]


def cmd_survival(scn: Scenario, out_dir: Path) -> list[Path]:
    """Ground-state survival probability exp(-lambda) over the time grid."""
    times, lams = _excitation_means(scn)
    path = out_dir / "survival.csv"
    with _Staged(path) as (temp,):
        _write_csv(temp, ["t", "lambda", "survival"],
                   [(times, lams, np.fromiter(map(math.exp, -lams), float, lams.size))])
    return [path]


def cmd_evolve_pde(scn: Scenario, out_dir: Path) -> list[Path]:
    """Grid evolution of the n_initial eigenstate under the forcing."""
    grid = scn.resolved_grid()
    psi = schrodinger.eigenstate_wavefunction(scn.params, scn.n_initial, grid)
    ground = schrodinger.eigenstate_wavefunction(scn.params, 0, grid)
    times = _times(scn)
    log = np.empty((times.size, 3))  # norm, energy, overlap_ground at each time
    t_prev = 0.0
    for i, t in enumerate(times.tolist()):
        if t > t_prev:
            psi = schrodinger.evolve_lab(scn.params, scn.forcing, psi, t, t0=t_prev)
            t_prev = t
        row = (psi.norm(), schrodinger.energy_expectation(scn.params, psi, scn.forcing, t),
               abs(schrodinger.overlap(ground, psi)) ** 2)
        if not all(map(math.isfinite, row)):
            raise NumericError(f"evolve-pde: (norm, energy, overlap_ground) = {row} is not "
                               f"finite at t={t:.17g}", partial=psi)
        log[i] = row
    log_path, state_path = out_dir / "evolution.csv", out_dir / "final_state.csv"
    values = psi.values
    with _Staged(log_path, state_path) as (log_temp, state_temp):
        _write_csv(log_temp, ["t", "norm", "energy", "overlap_ground"], [(times, *log.T)])
        _write_csv(state_temp, ["x", "re", "im", "abs2"],
                   [(grid.x, values.real, values.imag,
                     np.fromiter((abs(v) ** 2 for v in values), float, values.size))])
    return [log_path, state_path]


def cmd_verify(scn: Scenario, out_dir: Path, suite: str) -> tuple[list[Path], bool]:
    from .verify import run_suite  # costs import time; only verify runs the checks

    results = run_suite(scn, suite)
    report = {
        "suite": suite,
        "all_pass": all(r.status == "pass" for r in results),
        "checks": [r.to_dict() for r in results],
    }
    validate(REPORT_SCHEMA, report, "report")  # a ValueError: a fault of the program, exit 3
    path = out_dir / "report.json"
    with _Staged(path) as (temp,), open(temp, "w") as fh:
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
    except Exception as exc:  # a fault no class above names: exit 3, never 1
        message = " ".join(str(exc).splitlines())
        return EXIT_NUMERIC, f"{scenario_path}: internal failure: {type(exc).__name__}: {message}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls (each returns a fresh namespace)."""
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
        from concurrent.futures import ProcessPoolExecutor  # costs import time; only --jobs > 1

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
