import concurrent.futures
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest

from scipy.special import eval_genlaguerre, gammaln

from drivenosc import (
    ConstantForcing,
    DisplacementParams,
    DomainError,
    NumericError,
    OscillatorParams,
    PhaseState,
    SinusoidForcing,
    TabulatedForcing,
    probability_column,
    propagator,
    quadratic_invariant,
)
from drivenosc import cli, schrodinger
from drivenosc.canonical import CanonicalFrame, build_frame
from drivenosc.cli import main
from drivenosc.scenario import REPORT_SCHEMA, SCENARIO_SCHEMA, Scenario
from drivenosc.verify import _Context


def write_scenario(tmp_path, name="scn.json", **overrides):
    data = {
        "params": {"m": 1.0, "omega": 1.0},
        "forcing": {"type": "constant", "K": 1.0},
        "time": {"t_max": math.pi, "samples": 24},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_python(*args):
    """Run Python in a fresh interpreter that imports this drivenosc,
    outside pytest's warning filters."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(*args):
    """Run the CLI in a fresh interpreter, outside pytest's warning filters."""
    return run_python("-m", "drivenosc.cli", *args)


def all_finite_csv(path):
    _, rows = read_csv(path)
    return bool(np.all(np.isfinite(rows)))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestScenario:
    def test_defaults_applied(self):
        scn = Scenario.from_dict({
            "params": {"m": 1.0, "omega": 1.0},
            "forcing": {"type": "zero"},
            "time": {"t_max": 1.0, "samples": 2},
        })
        assert scn.initial_state == PhaseState(0.0, 0.0)
        assert scn.n_initial == 0
        assert scn.tail_tol == 1e-9

    def test_schema_rejects_missing_sections(self):
        with pytest.raises(DomainError):
            Scenario.from_dict({"params": {"m": 1.0, "omega": 1.0}})

    def test_schema_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            Scenario.from_dict({
                "params": {"m": 1.0, "omega": 1.0},
                "forcing": {"type": "zero"},
                "time": {"t_max": 1.0, "samples": 2},
                "extra": 1,
            })

    @pytest.mark.parametrize("overrides", [
        {"forcing": {"type": "sinusoid", "A": math.nan, "Omega": 2.0, "phi": 0.0}},
        {"forcing": {"type": "sinusoid", "A": 1.0, "Omega": math.nan, "phi": 0.0}},
        {"forcing": {"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": math.nan}},
        {"forcing": {"type": "tabulated", "samples": [[0.0, 0.0], [math.nan, 1.0], [2.0, 0.0]]}},
        {"quantum": {"tail_tol": math.nan}},
        {"tol": math.nan},
        {"initial_state": {"x": math.inf, "p": 0.0}},
        {"grid": {"x_min": -math.inf, "x_max": 6.0, "points": 256, "dt": 1e-3}},
    ], ids=["A", "Omega", "phi", "knot", "tail_tol", "tol", "initial_x", "grid_x_min"])
    def test_from_dict_refuses_non_finite_numbers(self, overrides):
        data = {
            "params": {"m": 1.0, "omega": 1.0},
            "forcing": {"type": "constant", "K": 1.0},
            "time": {"t_max": 1.0, "samples": 2},
            **overrides,
        }
        with pytest.raises(DomainError, match="non-finite"):
            Scenario.from_dict(data)

    def test_schema_file_is_valid_jsonschema(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


class TestClassicalCommand:
    def test_zero_forcing_response_column_is_zero(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "zero"},
                             initial_state={"x": 1.0, "p": 0.0})
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "x", "p", "x_nh", "p_nh", "invariant"]
        assert np.all(rows[:, 3] == 0.0)
        assert np.all(rows[:, 4] == 0.0)

    def test_rows_match_library_evolution(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.1},
            initial_state={"x": 0.3, "p": -0.2},
        )
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        params = OscillatorParams(1.0, 1.0)
        oracle = build_frame(params, SinusoidForcing(1.0, 2.0, 0.1), math.pi)
        for t, x, p, *_ in rows[::5]:
            x_nh, v_nh, _ = oracle.exact_values(t)  # adaptive quadrature, not the walk
            z = propagator(params, t) @ np.array([0.3, -0.2])
            assert x == pytest.approx(z[0] + x_nh, abs=1e-12)
            assert p == pytest.approx(z[1] + params.m * v_nh, abs=1e-12)

    @pytest.mark.parametrize("forcing", [
        {"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.1},
        {"type": "pulse", "K": 1.2, "t_on": 0.7, "t_off": 2.2},
    ], ids=["sinusoid", "pulse"])
    def test_rows_equal_the_per_sample_loop(self, tmp_path, forcing):
        # the columns are computed over all times at once; each row is bit
        # for bit the per-sample product U(t) z0 + z_nh and its invariant
        scn = write_scenario(tmp_path, params={"m": 1.3, "omega": 0.8}, forcing=forcing,
                             initial_state={"x": 0.4, "p": -0.3},
                             time={"t_max": 3.7, "samples": 57})
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        params = OscillatorParams(1.3, 0.8)
        frame = build_frame(params, Scenario.from_file(str(scn)).forcing, 3.7)
        x_nh, xdot_nh, _ = frame.values(rows[:, 0])
        z0 = np.array([0.4, -0.3])
        for (t, *row), xc, pc in zip(rows.tolist(), x_nh.tolist(), (params.m * xdot_nh).tolist()):
            x, p = propagator(params, t) @ z0 + (xc, pc)
            inv = quadratic_invariant(params, PhaseState(x - xc, p - pc))
            assert row == [x, p, xc, pc, inv]

    def test_overflowing_state_is_a_config_error(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, initial_state={"x": 1.7e308, "p": 1.7e308},
                             time={"t_max": 1.0, "samples": 5})
        with np.errstate(over="ignore"):
            assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert "phase-space point must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_overflowing_invariant_is_a_config_error(self, tmp_path):
        # x - x_nh and p - p_nh are finite, but 0.5 m w^2 x^2 is not
        scn = write_scenario(tmp_path, forcing={"type": "zero"},
                             initial_state={"x": 1e200, "p": 1e200},
                             time={"t_max": 1.0, "samples": 5})
        proc = run_cli("classical", "--scenario", str(scn), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "at t=0" in proc.stderr
        out = tmp_path / "trajectory.csv"
        assert not out.exists() or all_finite_csv(out)

    def test_slow_oscillator_traces_wide_ellipse(self, tmp_path):
        w = 2 * math.pi / 100
        scn = write_scenario(
            tmp_path,
            params={"m": 1.0, "omega": w},
            time={"t_max": 100.0, "samples": 101},
        )
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        t = rows[:, 0]
        np.testing.assert_allclose(rows[:, 3], (1 - np.cos(w * t)) / w**2, atol=1e-10)
        np.testing.assert_allclose(rows[:, 4], np.sin(w * t) / w, atol=1e-10)
        assert rows[:, 3].max() == pytest.approx(2 / w**2, rel=1e-3)


    def test_many_samples_keep_memory_bounded(self, tmp_path):
        # frame reads go in blocks of _CHUNK times: 200001 samples raised the
        # peak RSS by ~70 MB (mostly the CSV rows), where one unblocked read
        # would add ~220 MB more (measured on Linux, numpy 2.4)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def peak_rss_mb(samples):
            scn = write_scenario(tmp_path, name=f"scn{samples}.json",
                                 forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0},
                                 time={"t_max": 10.0, "samples": samples})
            out = tmp_path / str(samples)
            proc = subprocess.Popen(
                [sys.executable, "-m", "drivenosc.cli", "classical", "--scenario", str(scn),
                 "--out", str(out)], env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            return usage.ru_maxrss / 1024.0, out / "trajectory.csv"

        base, _ = peak_rss_mb(2)
        peak, csv_path = peak_rss_mb(200001)
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) == 200002
        assert peak - base < 160.0


class TestTransitionsCommand:
    def test_zero_forcing_keeps_initial_level(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "zero"},
                             quantum={"n_initial": 2, "m_max": 5, "tail_tol": 1e-9})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "transitions.csv")
        assert header == ["t", "n", "m", "P", "lambda"]
        on_level = rows[rows[:, 2] == 2.0]
        np.testing.assert_allclose(on_level[:, 3], 1.0)
        off_level = rows[rows[:, 2] != 2.0]
        np.testing.assert_allclose(off_level[:, 3], 0.0)

    def test_ground_rows_are_poisson(self, tmp_path):
        scn = write_scenario(tmp_path, time={"t_max": math.pi, "samples": 9})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "transitions.csv")
        for t, n, m, prob, lam in rows:
            ref = math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0 \
                else float(m == 0)
            assert abs(prob - ref) < 1e-9

    def test_row_json_structure(self, tmp_path):
        scn = write_scenario(tmp_path, time={"t_max": 1.0, "samples": 5})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "transition_rows.json").read_text())
        assert len(rows) == 5
        for row in rows:
            assert set(row) == {"n", "t", "lambda", "probabilities", "tail_bound"}
            assert row["tail_bound"] <= 1e-9
            assert abs(sum(row["probabilities"]) + row["tail_bound"] - 1.0) < 1e-8

    def test_unresolvable_drive_is_a_numeric_failure(self, tmp_path):
        # ~4e9 frame panels: refused by the panel budget before allocating
        scn = write_scenario(tmp_path, forcing={"type": "sinusoid", "A": 1.0,
                                                "Omega": 1e9, "phi": 0.0},
                             time={"t_max": 1.0, "samples": 5})
        start = time.perf_counter()
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 10.0

    def test_high_level_rows_sum_to_one(self, tmp_path):
        # constant K = 2 displaces by lambda = 2 K^2 = 8 at t = pi
        scn = write_scenario(tmp_path, forcing={"type": "constant", "K": 2.0},
                             time={"t_max": math.pi, "samples": 9},
                             quantum={"n_initial": 30, "tail_tol": 1e-12})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "transition_rows.json").read_text())
        assert rows[-1]["lambda"] == pytest.approx(8.0, rel=1e-9)
        for row in rows:
            assert abs(sum(row["probabilities"]) - 1.0) < 1e-10
        _, csv_rows = read_csv(tmp_path / "transitions.csv")
        for t in np.unique(csv_rows[:, 0]):
            assert csv_rows[csv_rows[:, 0] == t, 3].sum() < 1.0 + 1e-10

    def test_csv_past_the_row_is_the_column(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "pulse", "K": 1.5, "t_on": 1.0,
                                                "t_off": 3.0},
                             time={"t_max": 10.0, "samples": 11},
                             quantum={"n_initial": 2, "m_max": 40, "tail_tol": 1e-9})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, csv_rows = read_csv(tmp_path / "transitions.csv")
        rows = json.loads((tmp_path / "transition_rows.json").read_text())
        loaded = Scenario.from_file(scn)
        frame = build_frame(loaded.params, loaded.forcing, loaded.t_max)
        for row in rows:
            cut = len(row["probabilities"])
            assert cut < 41
            column = probability_column(2, DisplacementParams.from_frame(frame, row["t"]), 41)
            at_t = csv_rows[csv_rows[:, 0] == row["t"]]
            np.testing.assert_array_equal(at_t[:, 2], np.arange(41))
            assert at_t[:cut, 3].tolist() == row["probabilities"]
            assert at_t[cut:, 3].tolist() == column[cut:].tolist()

    def test_rows_past_m_500_when_m_max_reaches_them(self, tmp_path):
        # constant K = 5 displaces by lambda = 2 K^2 = 50 at t = pi: from
        # n = 300 the row runs to m ~ 627, past the 501-entry default column
        scn = write_scenario(tmp_path, forcing={"type": "constant", "K": 5.0},
                             time={"t_max": math.pi, "samples": 9},
                             quantum={"n_initial": 300, "m_max": 1500, "tail_tol": 1e-9})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "transition_rows.json").read_text())
        assert rows[-1]["lambda"] == pytest.approx(50.0, rel=1e-12)
        assert len(rows[-1]["probabilities"]) > 501
        for row in rows:
            total = math.fsum(row["probabilities"])
            assert 1.0 - 1e-9 < total < 1.0 + 1e-10
            assert row["tail_bound"] == pytest.approx(1.0 - total, abs=1e-13)
        _, csv_rows = read_csv(tmp_path / "transitions.csv")
        assert len(csv_rows) == 9 * 1501
        assert np.all((csv_rows[:, 3] >= 0.0) & (csv_rows[:, 3] <= 1.0))
        live = csv_rows[csv_rows[:, 4] > 0.0]
        lo = np.minimum(300, live[:, 2].astype(int))
        hi = np.maximum(300, live[:, 2].astype(int))
        lam = live[:, 4]
        with np.errstate(over="ignore", divide="ignore"):
            ref = np.exp(gammaln(lo + 1) - gammaln(hi + 1) + (hi - lo) * np.log(lam) - lam
                         + 2.0 * np.log(np.abs(eval_genlaguerre(lo, hi - lo, lam))))
        # scipy's Laguerre overflows past m ~ 1340; below that it is itself
        # up to 2.9e-14 off a 50-digit value (n = 300, m = 447, lambda = 15.4)
        finite = np.isfinite(ref)
        assert finite.sum() > 0.8 * len(ref)
        assert np.max(np.abs(live[finite, 3] - ref[finite])) < 5e-14
        assert np.all(live[~finite, 3] == 0.0)
        row = rows[3]  # lambda = 15.4, where scipy's reference is furthest off
        with mpmath.workdps(50):
            lam = mpmath.mpf(row["lambda"])
            for m in (300, 447, 470):
                exact = (mpmath.exp(-lam) * mpmath.factorial(300) / mpmath.factorial(m)
                         * lam ** (m - 300) * mpmath.laguerre(300, m - 300, lam) ** 2)
                assert abs(row["probabilities"][m] - float(exact)) < 2e-14


class TestSilentDrive:
    def test_zero_drive_over_many_periods(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "zero"},
                             time={"t_max": 6e4, "samples": 11})
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert np.all(rows[:, 3:5] == 0.0)

    def test_pulse_tail_over_many_periods(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "pulse", "K": 1.0, "t_on": 1.0,
                                                "t_off": 3.0},
                             time={"t_max": 6e4, "samples": 11})
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        t = rows[1:, 0]  # after the pulse: the free image of its kick (m = omega = 1)
        np.testing.assert_allclose(rows[1:, 3], np.cos(t - 3.0) - np.cos(t - 1.0), atol=1e-9)
        np.testing.assert_allclose(rows[1:, 4], np.sin(t - 1.0) - np.sin(t - 3.0), atol=1e-9)

    def test_frame_points_do_not_count_against_the_panel_budget(self, tmp_path):
        # the key is ignored: the frame's nodes are the walk's own panel
        # edges, so every count writes the same bytes
        forcing = {"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.1}
        for command in ("classical", "transitions", "survival"):
            written = []
            for points in (2, 1025, 200_002):
                scn = write_scenario(tmp_path, forcing=forcing, frame_points=points,
                                     time={"t_max": 1.0, "samples": 3})
                out = tmp_path / f"{command}-{points}"
                assert main([command, "--scenario", str(scn), "--out", str(out)]) == 0
                written.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
            assert written[0] == written[1] == written[2]


class TestOverflowingDrive:
    @pytest.mark.parametrize("command", ["classical", "transitions", "survival"])
    def test_overflowing_response_is_a_numeric_failure(self, tmp_path, capsys, command):
        # K = 1e308 drives the action integral past the largest float
        scn = write_scenario(tmp_path, forcing={"type": "constant", "K": 1e308})
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 3
        assert "response walk" in capsys.readouterr().err


class TestSurvivalCommand:
    @pytest.mark.parametrize("command", ["classical", "transitions", "survival"])
    def test_reads_the_frame_once_per_sample(self, tmp_path, monkeypatch, command):
        reads = []
        values = CanonicalFrame.values

        def counted(self, t):
            reads.append(t)
            return values(self, t)

        monkeypatch.setattr(CanonicalFrame, "values", counted)
        scn = write_scenario(tmp_path)
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        # one batched read covers all 24 sample times
        assert len(reads) == 1
        np.testing.assert_array_equal(reads[0], np.linspace(0.0, math.pi, 24))

    def test_matches_library_survival(self, tmp_path):
        scn = write_scenario(tmp_path)
        assert main(["survival", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "survival.csv")
        assert header == ["t", "lambda", "survival"]
        frame = build_frame(OscillatorParams(1.0, 1.0), ConstantForcing(1.0),
                            math.pi)
        for t, lam, surv in rows[::4]:
            lib = math.exp(-DisplacementParams.from_frame(frame, t).poisson_mean())
            assert surv == pytest.approx(lib, abs=1e-12)
            assert surv == pytest.approx(math.exp(-lam), abs=1e-12)


class TestEvolvePdeCommand:
    def test_log_columns_and_unitarity(self, tmp_path):
        scn = write_scenario(tmp_path, time={"t_max": 1.0, "samples": 5})
        assert main(["evolve-pde", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "evolution.csv")
        assert header == ["t", "norm", "energy", "overlap_ground"]
        np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-9)
        header2, state = read_csv(tmp_path / "final_state.csv")
        assert header2 == ["x", "re", "im", "abs2"]
        assert len(state) == 1024

    def test_boundary_failure_exit_code(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            forcing={"type": "constant", "K": 30.0},
            time={"t_max": 3.0, "samples": 4},
            grid={"x_min": -6.0, "x_max": 6.0, "points": 256, "dt": 1e-3},
        )
        assert main(["evolve-pde", "--scenario", str(scn), "--out", str(tmp_path)]) == 3

    def test_overflowing_table_is_a_numeric_failure(self, tmp_path):
        # k overflows between the knots: the t = 0 energy and every later
        # state are not finite
        scn = write_scenario(tmp_path, forcing={
            "type": "tabulated", "samples": [[0.0, -1.7e308], [1.0, 1.7e308]]},
            time={"t_max": 1.0, "samples": 5})
        proc = run_cli("evolve-pde", "--scenario", str(scn), "--out", str(tmp_path))
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "not finite at t=" in proc.stderr
        for name in ("evolution.csv", "final_state.csv"):
            out = tmp_path / name
            assert not out.exists() or all_finite_csv(out)

    def test_overflowing_energy_prints_only_the_failure_line(self, tmp_path):
        # the t = 0 potential overflows; no numpy warning precedes the message
        scn = write_scenario(tmp_path, forcing={
            "type": "tabulated", "samples": [[0.0, -1.7e308], [1.0, 1.7e308]]},
            time={"t_max": 1.0, "samples": 5})
        proc = run_cli("evolve-pde", "--scenario", str(scn), "--out", str(tmp_path))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{scn}: numerical failure: ")


class TestNonFiniteScenario:
    def test_infinite_grid_edge_is_a_config_error(self, tmp_path):
        scn = write_scenario(tmp_path, grid={"x_min": -math.inf, "x_max": 6.0,
                                             "points": 256, "dt": 1e-3})
        assert "-Infinity" in scn.read_text()
        assert main(["evolve-pde", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "evolution.csv").exists()

    def test_nan_table_knot_is_a_config_error(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={
            "type": "tabulated", "samples": [[0.0, 0.0], [math.nan, 1.0], [2.0, 0.0]]})
        assert "NaN" in scn.read_text()
        assert main(["evolve-pde", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "evolution.csv").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_output_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys, jobs):
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        argv = ["survival", "--jobs", str(jobs), "--out", str(blocker)]
        for i in range(jobs):  # two scenarios go to subdirectories of the file
            argv += ["--scenario", str(write_scenario(tmp_path, name=f"s{i}.json"))]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == jobs
        assert all("cannot write output" in line for line in err)

    def test_unwritable_output_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "trajectory.csv").mkdir()
        scn = write_scenario(tmp_path)
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert "cannot write output" in capsys.readouterr().err


class TestInternalFailure:
    @pytest.mark.parametrize("command, runner", [
        ("survival", "cmd_survival"), ("verify", "cmd_verify")])
    def test_unexpected_exception_exits_3_in_one_line(self, tmp_path, capsys, monkeypatch,
                                                     command, runner):
        def broken(*args):
            raise RuntimeError("no such\ncolumn")

        monkeypatch.setattr(cli, runner, broken)
        scn = write_scenario(tmp_path)
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"{scn}: internal failure: RuntimeError: no such column\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, tmp_path, monkeypatch, exc):
        def interrupted(*args):
            raise exc()

        monkeypatch.setattr(cli, "cmd_classical", interrupted)
        scn = write_scenario(tmp_path)
        with pytest.raises(exc):
            main(["classical", "--scenario", str(scn), "--out", str(tmp_path)])


class TestVerifyCommand:
    def test_default_scenario_all_pass(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.0},
            time={"t_max": math.pi, "samples": 17},
        )
        rc = main(["verify", "--scenario", str(scn), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 15
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_grid_solver_runs_only_on_the_driven_side(self, tmp_path, monkeypatch,
                                                      default_scenario):
        # the unforced side of both covariance checks is the exact
        # e^{-i E_n t} phase per mode: three driven runs and nothing else
        calls = []
        evolve_lab = schrodinger.evolve_lab

        def counted(*args, **kwargs):
            calls.append(args[1])
            return evolve_lab(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "evolve_lab", counted)
        scn = tmp_path / "default.json"
        scn.write_text(json.dumps(default_scenario))
        assert main(["verify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        assert len(calls) == 3
        assert all(spec == Scenario.from_dict(default_scenario).forcing for spec in calls)

    def test_coarse_timestep_fails_covariance(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            time={"t_max": math.pi, "samples": 9},
            grid={"x_min": -12.0, "x_max": 12.0, "points": 1024, "dt": 0.1},
        )
        rc = main(["verify", "--scenario", str(scn), "--suite", "quantum",
                   "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        failed = {c["check"] for c in report["checks"] if c["status"] == "fail"}
        assert "evolution_covariance_moving" in failed
        bad = next(c for c in report["checks"]
                   if c["check"] == "evolution_covariance_moving")
        assert bad["max_error"] > bad["tolerance"]

    def test_safe_times_returns_on_long_sinusoid(self):
        # a sinusoid has no kinks, so no guard band may cover [0, t_max]
        scn = Scenario.from_dict({
            "params": {"m": 1.0, "omega": 1.0},
            "forcing": {"type": "sinusoid", "A": 0.1, "Omega": 5.0, "phi": 0.0},
            "time": {"t_max": 100.0, "samples": 5},
            "frame_points": 1025,
        })
        times = _Context(scn).safe_times(60, seed=201)
        assert len(times) == 60
        assert np.all((times >= 1.0) & (times <= 99.0))

    def test_safe_times_returns_on_dense_table(self):
        # 1001 knots 0.01 apart: the guard bands are sized from the
        # finite-difference step, not the frame spacing, and leave room
        knots = [[0.01 * i, math.sin(0.37 * i)] for i in range(1001)]
        scn = Scenario.from_dict({
            "params": {"m": 1.0, "omega": 1.0},
            "forcing": {"type": "tabulated", "samples": knots},
            "time": {"t_max": 10.0, "samples": 5},
        })
        start = time.perf_counter()
        times = _Context(scn).safe_times(60, seed=201)
        assert time.perf_counter() - start < 5.0
        assert len(times) == 60
        gaps = np.abs(times[:, None] - np.array([k[0] for k in knots])[None, :])
        assert gaps.min() > 1e-4

    def test_safe_times_without_room_is_a_numeric_error(self):
        # knots 1.5e-4 apart on [0, 1]: bands of half-width 1e-4 cover it
        knots = [[1.5e-4 * i, 0.0] for i in range(6668)]
        scn = Scenario(params=OscillatorParams(1.0, 1.0),
                       forcing=TabulatedForcing(knots), t_max=1.0, samples=2)
        start = time.perf_counter()
        with pytest.raises(NumericError, match="safe_times"):
            _Context(scn).safe_times(10, seed=201)
        assert time.perf_counter() - start < 5.0

    def test_zero_omega_runs_only_the_classical_and_canonical_suites(self, tmp_path):
        # the free particle has a response and a frame but no eigenstates
        scn = write_scenario(tmp_path, params={"m": 1.0, "omega": 0.0},
                             forcing={"type": "pulse", "K": -0.8, "t_on": 0.2, "t_off": 0.7},
                             time={"t_max": 1.0, "samples": 5})
        for suite, code in (("classical", 0), ("canonical", 0), ("quantum", 2), ("all", 2)):
            proc = run_cli("verify", "--suite", suite, "--scenario", str(scn),
                           "--out", str(tmp_path / suite))
            assert proc.returncode == code, (suite, proc.stdout, proc.stderr)
            if code == 2:
                assert "omega > 0" in proc.stderr, suite

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": {"m": -1.0, "omega": 1.0}}))
        assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classical", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_scenario_flag(self):
        assert main(["classical"]) == 2


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

scenario, out, report = sys.argv[1:]
seen = {}
import drivenosc
seen["import drivenosc"] = [0, scipy_modules()]
import drivenosc.cli
seen["import drivenosc.cli"] = [0, scipy_modules()]
for command in ("classical", "transitions", "survival", "evolve-pde", "verify"):
    code = drivenosc.cli.main([command, "--scenario", scenario, "--out", out])
    seen[command] = [code, scipy_modules()]
with open(report, "w") as fh:
    json.dump(seen, fh)
"""


class TestColdStart:
    def test_scipy_loads_only_where_an_oracle_runs(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.0},
            time={"t_max": math.pi, "samples": 9},
        )
        report = tmp_path / "seen.json"
        proc = run_python("-c", _SCIPY_PROBE, str(scn), str(tmp_path / "out"), str(report))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(report.read_text())
        for step in ("import drivenosc", "import drivenosc.cli",
                     "classical", "transitions", "survival", "evolve-pde"):
            assert seen[step] == [0, []], step
        # verify still runs both scipy oracles: DOP853 and the Golub-Welsch rule
        code, loaded = seen["verify"]
        assert code == 0
        assert {"scipy.integrate", "scipy.linalg"} <= set(loaded)


class TestDeterminismAndJobs:
    def test_outputs_bit_stable(self, tmp_path):
        scn = write_scenario(tmp_path, forcing={"type": "sinusoid", "A": 0.8,
                                                "Omega": 1.5, "phi": 0.2})
        main(["classical", "--scenario", str(scn), "--out", str(tmp_path / "a")])
        main(["classical", "--scenario", str(scn), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/trajectory.csv").read_bytes() == \
            (tmp_path / "b/trajectory.csv").read_bytes()

    @pytest.mark.parametrize("jobs, scenarios, cpus, workers", [
        (64, 3, 8, 3),
        (64, 5, 2, 2),
        (3, 5, 8, 3),
        (10**9, 4, 4, 4),
        (8, 3, None, None),
        (1, 3, 8, None),
    ])
    def test_jobs_clamped_to_scenarios_and_cpus(self, tmp_path, monkeypatch,
                                                jobs, scenarios, cpus, workers):
        # a recording stand-in for the pool: no process is started
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        paths = [write_scenario(tmp_path, name=f"s{i}.json", forcing={"type": "zero"},
                                time={"t_max": 1.0, "samples": 2})
                 for i in range(scenarios)]
        argv = ["survival", "--jobs", str(jobs), "--out", str(tmp_path / "out")]
        for path in paths:
            argv += ["--scenario", str(path)]
        assert main(argv) == 0
        assert pools == ([] if workers is None else [workers])
        assert len(list((tmp_path / "out").glob("s*/survival.csv"))) == scenarios

    def test_parallel_scenarios(self, tmp_path):
        s1 = write_scenario(tmp_path, name="one.json")
        s2 = write_scenario(tmp_path, name="two.json",
                            forcing={"type": "zero"})
        rc = main(["survival", "--scenario", str(s1), "--scenario", str(s2),
                   "--jobs", "2", "--out", str(tmp_path / "par")])
        assert rc == 0
        assert (tmp_path / "par/one/survival.csv").exists()
        assert (tmp_path / "par/two/survival.csv").exists()
        # zero forcing: survival identically 1
        _, rows = read_csv(tmp_path / "par/two/survival.csv")
        np.testing.assert_allclose(rows[:, 2], 1.0)
