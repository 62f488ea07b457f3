import concurrent.futures
import json
import math
import time

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
    ground_state_survival,
    probability_column,
    propagator,
)
from drivenosc import cli
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

    def test_round_trip(self):
        scn = Scenario.default()
        again = Scenario.from_dict(scn.to_dict())
        assert again.params == scn.params
        assert again.forcing == scn.forcing
        assert again.t_max == scn.t_max

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
        assert len(reads) == 24

    def test_matches_library_survival(self, tmp_path):
        scn = write_scenario(tmp_path)
        assert main(["survival", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "survival.csv")
        assert header == ["t", "lambda", "survival"]
        frame = build_frame(OscillatorParams(1.0, 1.0), ConstantForcing(1.0),
                            math.pi)
        for t, lam, surv in rows[::4]:
            assert surv == pytest.approx(ground_state_survival(frame, t), abs=1e-12)
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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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
