#!/usr/bin/env python3
"""drivenosc benchmark: seeded CLI workloads with oracle-checked outputs.

    python3 bench/run.py --workload frame_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy.  One client in one process
drives a closed loop: it writes a generated scenario file, calls
``drivenosc.cli.main([command, "--scenario", file, "--jobs", "1", ...])``,
times the call, then checks the outputs against an independent route
(``oracles.py``) before it sends the next op.  Ops run in whole rounds of
the workload's command mix (``workloads.py``) until ``--seconds`` of wall
time have passed.  Warm-up ops run first and are not timed.

An op is one ``cli.main`` call on one scenario.  A failed op exits with
a code other than 0 or writes output that fails its oracle; the run goes
on and counts it.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median over 5 fresh interpreters of ``import drivenosc.cli``,
                 spread over the run
    ops_per_s    successful ops per second of time spent inside cli.main
    op_s_p50     median wall time per op, over every attempted op
    op_s_tail    wall time per op at the highest percentile (p50 at least)
                 that has ten or more samples beyond it
    peak_rss_mb  peak resident memory of this process
    failed_ratio failed ops / attempted ops (printed, and carried by the
                 ``failed``/``attempted`` fields of the result line)

With ``--trace 1`` the run sends every op twice, once untraced and once
with spans around every layer (``tracing.py``), in alternating order,
and reports per-layer metrics per op, the
``python -X importtime`` breakdown of the import, and the tracing
overhead.  Spans are written to ``.bench_out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts every failed op.  ``correct`` is false when an op exited 0 but
its output failed the oracle: a silent wrong answer, as opposed to an
error the program reported itself.  Failed ops are left out of
``ops_per_s``.

Development used seeds 1-10; seeds 2001-2010 were never run while the
benchmark was written and are kept for held-out checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import drivenosc.cli; "
                "print(time.perf_counter() - t); print(drivenosc.cli.__file__)")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {done.stderr.strip()[-500:]}")
    return done


def setup_seconds() -> float:
    """Wall time of ``import drivenosc.cli`` in a fresh interpreter."""
    seconds, path = _fresh_python("-c", IMPORT_PROBE).stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"drivenosc imported from {path}, not from {SRC}")
    return float(seconds)


def import_breakdown(repeats: int) -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds of the named modules.

    ``drivenosc.cli`` is the outermost import, so its cumulative time
    holds the package and everything it pulls in.
    """
    wanted = {"drivenosc.cli": "setup.import.drivenosc_s",
              "scipy.interpolate": "setup.import.scipy_interpolate_s",
              "jsonschema": "setup.import.jsonschema_s"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(repeats):
        totals = dict.fromkeys(samples, 0.0)
        for line in _fresh_python("-X", "importtime", "-c", "import drivenosc.cli").stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in wanted:
                totals[wanted[parts[2].strip()]] = int(parts[1]) * 1e-6
        for metric, value in totals.items():
            samples[metric].append(value)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def load_program():
    """Import drivenosc from this checkout's src/ and return its modules."""
    if not (SRC / "drivenosc" / "cli.py").is_file():
        raise BenchError(f"no drivenosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drivenosc
    from drivenosc import (canonical, classical, cli, forcing, hermite, quadrature,
                           scenario, schrodinger, transitions, verify)
    if not Path(drivenosc.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"drivenosc imported from {drivenosc.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        drivenosc=drivenosc, canonical=canonical, classical=classical, cli=cli,
        forcing=forcing, hermite=hermite, quadrature=quadrature, scenario=scenario,
        schrodinger=schrodinger, transitions=transitions, verify=verify)


class Runner:
    """Runs ops through cli.main in a work directory and checks them."""

    def __init__(self, modules, work: Path):
        self.cli = modules.cli.main
        self.work = work
        self.count = 0
        self.report_schema = json.loads(
            (SRC / "drivenosc" / "schemas" / "report.schema.json").read_text())
        self.check_names = [c.name for c in modules.verify.CHECKS]
        self.failures: dict[str, int] = {}
        self.silent = 0  # ops that exited 0 with output failing the oracle

    def reset(self) -> None:
        self.failures.clear()
        self.silent = 0

    def run(self, op: workloads.Op, call=None) -> tuple[float, bool, int]:
        """(wall seconds, passed, bytes written) of one op."""
        index = self.count
        self.count += 1
        op_dir = self.work / f"op{index}"
        op_dir.mkdir()
        scenario_path = op_dir / "scenario.json"
        scenario_path.write_text(json.dumps(op.scenario))
        out_dir = op_dir / "out"
        argv = [op.command, "--scenario", str(scenario_path), "--out", str(out_dir),
                "--jobs", "1"]
        if op.command == "verify":
            argv += ["--suite", "all"]
        log = io.StringIO()
        call = call or self.cli
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = call(argv)
            except Exception as exc:  # the loop must go on; the op is counted as failed
                code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        reasons = self._check(op, out_dir, code, log.getvalue())
        written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) \
            if out_dir.exists() else 0
        shutil.rmtree(op_dir)
        self.silent += code == 0 and bool(reasons)
        for reason in reasons:
            key = f"{op.command} {op.label}: {reason}"
            self.failures[key] = self.failures.get(key, 0) + 1
        return elapsed, not reasons, written

    def _check(self, op, out_dir, code, log) -> list[str]:
        if code != 0:
            last = log.strip().splitlines()[-1] if log.strip() else ""
            return [f"exit {code}: {last.split(': ', 1)[-1][:120]}"]
        try:
            if op.command == "verify":
                return oracles.check_verify(out_dir, self.report_schema, self.check_names)
            return oracles.CHECKS[op.command](op.scenario, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_rounds(runner: Runner, rounds, seconds: float, probes: int = 0, run=None):
    """Whole rounds until ``seconds`` of wall time have passed.

    ``run(op)`` runs one op and defaults to ``runner.run``.  Between
    rounds, ``probes`` set-up measurements are spread evenly over the
    loop, so they see the same machine as the ops; their time is kept off
    the loop's clock.
    """
    ops, results, setup = [], [], []
    run = run or runner.run
    start, paused = time.perf_counter(), 0.0
    while True:
        if len(setup) < probes and \
                time.perf_counter() - start - paused >= len(setup) * seconds / probes:
            before = time.perf_counter()
            setup.append(setup_seconds())
            paused += time.perf_counter() - before
        for op in next(rounds):
            ops.append(op)
            results.append(run(op))
        if time.perf_counter() - start - paused >= seconds:
            break
    setup += [setup_seconds() for _ in range(probes - len(setup))]
    return ops, results, setup


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, p50 at least, that
    has TAIL_BEYOND or more samples above it."""
    ordered = sorted(times)
    rank = max(len(ordered) - 1 - TAIL_BEYOND, (len(ordered) - 1) // 2)
    if rank == (len(ordered) - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(workload: str, seed: int, seconds: float, modules, runner) -> dict:
    for op in workloads.warmup(workload):
        runner.run(op)
    runner.reset()
    _ops, results, setup = run_rounds(runner, workloads.WORKLOADS[workload](seed), seconds,
                                      probes=SETUP_REPEATS)
    times = [r[0] for r in results]
    passed = sum(r[1] for r in results)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_s_p50": f"n={len(times)}", "op_s_tail": f"p{tail_pct:.1f} of n={len(times)}",
             "setup_s": f"median of {len(setup)}"}
    for name, (value, unit) in metrics.items():
        print(f"{workload:15s} {name:12s} {value:12.6g} {unit:5s} {notes.get(name, '')}")
    failed = len(results) - passed
    print(f"{workload:15s} {'failed_ratio':12s} {failed / len(results):12.6g} {'':5s} "
          f"{failed} of {len(results)}")
    return {"attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer(workload: str, seed: int, seconds: float, modules, runner) -> dict:
    imports = import_breakdown(IMPORTTIME_REPEATS)
    for op in workloads.warmup(workload):
        runner.run(op)
    runner.reset()
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("op", modules.cli.main)
    plain, traced = [], []

    def run_twice(op):
        """The op untraced and traced, the order alternating from op to op."""
        index = len(traced)
        for with_trace in (index % 2 == 1, index % 2 == 0):
            if not with_trace:
                plain.append(runner.run(op))
                continue
            tracer.op = index
            uninstall = tracing.install(tracer, modules)
            try:
                traced.append(runner.run(op, call=traced_main))
            finally:
                uninstall()
        return traced[-1]

    ops, _, _ = run_rounds(runner, workloads.WORKLOADS[workload](seed), seconds, run=run_twice)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.jsonl")

    values = tracing.layer_metrics(tracer, len(ops))
    values.update(imports)
    traced_s = sum(r[0] for r in traced)
    values["cli.bytes_written"] = sum(r[2] for r in traced) / len(ops)
    values["trace.ops"] = float(len(ops))
    values["trace.op_s_mean"] = traced_s / len(ops)
    values["trace.overhead_ratio"] = traced_s / sum(r[0] for r in plain) - 1.0
    units = dict(tracing.LAYER_METRICS)
    for name, _unit in tracing.LAYER_METRICS:
        print(f"{workload:15s} {name:45s} {values[name]:14.6g} {units[name]}")
    results = plain + traced
    failed = sum(not r[1] for r in results)
    return {"attempted": len(results), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in tracing.LAYER_METRICS}}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"{name}: benchmark failed (exit {done.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        modules = load_program()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(modules, work)
        report = (per_layer if args.trace else end_to_end)(
            args.workload, args.seed, args.seconds, modules, runner)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    for reason, count in sorted(runner.failures.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": runner.silent == 0, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
