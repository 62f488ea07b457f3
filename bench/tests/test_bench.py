"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return run.load_program()


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["g", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_are_per_op():
    tracer = tracing.Tracer()
    tracer.spans = [["canonical.build_frame", 0.0, 4.0, -1, 0],
                    ["quadrature.fixed_gauss_kronrod", 1.0, 2.0, 0, 0],
                    ["quadrature.fixed_gauss_kronrod", 2.5, 3.0, 0, 0],
                    ["canonical.build_frame", 10.0, 12.0, -1, 1]]
    tracer.counts["forcing.evaluate"] = 8
    values = tracing.layer_metrics(tracer, op_count=2)
    assert values["canonical.build_frame.calls"] == 1.0
    assert values["canonical.build_frame.self_s"] == pytest.approx((2.5 + 2.0) / 2)
    assert values["canonical.build_frame.total_s"] == pytest.approx(3.0)
    assert values["quadrature.fixed_gauss_kronrod.self_s"] == pytest.approx(0.75)
    assert values["forcing.evaluate.calls"] == 4.0
    assert values["schrodinger.evolve_lab.calls"] == 0.0


@pytest.mark.parametrize("n, m, lam", [(40, 40, 3.0), (40, 45, 2.0), (40, 100, 10.0),
                                       (60, 40, 5.0), (100, 120, 2.0), (45, 0, 9.5)])
def test_laguerre_oracle_matches_mpmath(n, m, lam):
    mpmath.mp.dps = 50
    lo, hi = min(n, m), max(n, m)
    lam_mp = mpmath.mpf(lam)
    want = (mpmath.factorial(lo) / mpmath.factorial(hi) * lam_mp ** (hi - lo)
            * mpmath.exp(-lam_mp) * mpmath.laguerre(lo, hi - lo, lam_mp) ** 2)
    got = float(oracles.transition_probability(n, m, lam))
    assert got == pytest.approx(float(want), rel=1e-10, abs=1e-15)


def test_laguerre_oracle_is_poisson_from_ground_state():
    lam = 2.7
    got = oracles.transition_probability(0, list(range(20)), lam)
    want = [math.exp(-lam) * lam**m / math.factorial(m) for m in range(20)]
    assert got == pytest.approx(want, abs=1e-15)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (29.0, 75.0)
    assert run.tail(times[:12]) == (5.5, 50.0)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_verify_check_names_match_program(modules):
    assert tracing.VERIFY_CHECKS == tuple(c.name for c in modules.verify.CHECKS)


def test_workloads_are_seeded():
    for name, make in workloads.WORKLOADS.items():
        first, again, other = (next(make(seed)) for seed in (3, 3, 4))
        assert first == again, name
        assert first != other, name


SMALL = {"params": {"m": 1.1, "omega": 0.9},
         "forcing": {"type": "sinusoid", "A": 0.7, "Omega": 1.6, "phi": 0.4},
         "time": {"t_max": 2.0, "samples": 9},
         "initial_state": {"x": 0.5, "p": -0.3},
         "quantum": {"n_initial": 1, "m_max": 8},
         "frame_points": 129}
PERTURB = {"classical": ("trajectory.csv", 1), "transitions": ("transitions.csv", 3),
           "survival": ("survival.csv", 2), "evolve-pde": ("evolution.csv", 1)}


def _perturbing(main, filename, column):
    """cli.main, then scale one value of one output column by 1 + 1e-6."""
    def call(argv):
        code = main(argv)
        path = Path(argv[argv.index("--out") + 1]) / filename
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column] = repr(float(cells[column]) * (1 + 1e-6) + 1e-6)
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return code
    return call


@pytest.mark.parametrize("command", sorted(PERTURB))
def test_perturbed_output_counts_as_failed(command, modules, tmp_path):
    runner = run.Runner(modules, tmp_path)
    op = workloads.Op(command, SMALL, "test")
    _, passed, written = runner.run(op)
    assert passed and written > 0 and runner.silent == 0
    _, passed, _ = runner.run(op, call=_perturbing(modules.cli.main, *PERTURB[command]))
    assert not passed
    assert runner.silent == 1  # exit 0 with a wrong answer: the run is not correct


def test_nonzero_exit_counts_as_failed_but_not_silent(modules, tmp_path):
    runner = run.Runner(modules, tmp_path)
    bad = {**SMALL, "quantum": {"n_initial": 1, "tail_tol": -1.0}}
    _, passed, _ = runner.run(workloads.Op("transitions", bad, "test"))
    assert not passed and runner.silent == 0
    assert any("exit 2" in reason for reason in runner.failures)


def test_tracing_spans_every_bound_name_and_uninstalls(modules, tmp_path):
    runner = run.Runner(modules, tmp_path)
    original = modules.cli.build_frame
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, modules)
    try:
        tracer.op = 0
        _, passed, _ = runner.run(workloads.Op("transitions", SMALL, "test"),
                                  call=tracer.wrap("op", modules.cli.main))
    finally:
        uninstall()
    assert passed
    assert modules.cli.build_frame is original
    values = tracing.layer_metrics(tracer, 1)
    assert values["canonical.build_frame.calls"] == 1.0
    assert values["forcing.evaluate.calls"] > 0
    assert values["transitions.probability_row.calls"] == SMALL["time"]["samples"]
    assert values["cli.write.self_s"] > 0.0
    assert {s[tracing.PARENT] for s in tracer.spans if s[0] == "canonical.build_frame"} == {0}
