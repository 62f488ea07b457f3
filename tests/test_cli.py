import concurrent.futures
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest

from scipy.special import eval_genlaguerre, gammaln

from drivenosc import (
    ConstantForcing,
    DomainError,
    NumericError,
    OscillatorParams,
    PhaseState,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    probability_column,
    probability_row,
    propagator,
    quadratic_invariant,
)
from drivenosc import canonical, classical, cli, hermite, schrodinger, transitions, verify
from drivenosc.canonical import CanonicalFrame, build_frame
from drivenosc.cli import main
from drivenosc.scenario import REPORT_SCHEMA, SCENARIO_SCHEMA, Scenario
from drivenosc.verify import _Context, run_suite


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

    def test_omitted_blocks_carry_the_schema_defaults(self):
        # the schema records each default once: a scenario holding only the
        # required blocks carries exactly those values, of the same type
        scn = Scenario.from_dict({
            "params": {"m": 1.0, "omega": 1.0},
            "forcing": {"type": "zero"},
            "time": {"t_max": 1.0, "samples": 2},
        })
        defaults = {(block, key): spec["default"]
                    for block, section in SCENARIO_SCHEMA["properties"].items()
                    for key, spec in section.get("properties", {}).items() if "default" in spec}
        assert set(defaults) == {("initial_state", "x"), ("initial_state", "p"),
                                 ("quantum", "n_initial"), ("quantum", "m_max"),
                                 ("quantum", "tail_tol")}
        carried = {(block, key): getattr(scn if block == "quantum" else getattr(scn, block), key)
                   for block, key in defaults}
        assert {k: (v, type(v)) for k, v in carried.items()} \
            == {k: (v, type(v)) for k, v in defaults.items()}

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
        # the only metaschema check: importing drivenosc does not repeat it,
        # so check with the validator class the program itself builds
        for schema in (SCENARIO_SCHEMA, REPORT_SCHEMA):
            cls = jsonschema.validators.validator_for(schema)
            assert cls.META_SCHEMA["$id"].rstrip("#") == schema["$schema"].rstrip("#")
            cls.check_schema(schema)


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

    @pytest.mark.parametrize("m", [1e160, 1e-160, 1e300, 1e-300])
    def test_extreme_mass_keeps_its_invariant(self, tmp_path, m):
        # at m 1e160 the orbit reaches p ~ -7e159: p^2 overflows, though the
        # energy, ~5e159, does not
        scn = write_scenario(tmp_path, params={"m": m, "omega": 1.0},
                             forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
                             initial_state={"x": 1.0, "p": 0.5},
                             time={"t_max": math.pi, "samples": 5})
        assert main(["classical", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        ref = quadratic_invariant(OscillatorParams(m, 1.0), PhaseState(1.0, 0.5))
        assert math.isfinite(ref)
        np.testing.assert_allclose(rows[:, 5], ref, rtol=1e-14)

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
            lam = transitions.excitation_mean(
                *transitions.displacements(loaded.params, *frame.values(row["t"])[:2]))
            column = probability_column(2, lam, 41)
            at_t = csv_rows[csv_rows[:, 0] == row["t"]]
            np.testing.assert_array_equal(at_t[:, 2], np.arange(41))
            assert at_t[:cut, 3].tolist() == row["probabilities"]
            assert at_t[cut:, 3].tolist() == column[cut:].tolist()

    def test_grown_columns_equal_the_full_column_route(self, tmp_path):
        # lambda = 0 at t = 0, rows near lambda = 2 K^2 = 50 that run past
        # the first m_max + ROW_ROOM + 1 entries, and more samples than one block
        scn = write_scenario(tmp_path, forcing={"type": "constant", "K": 5.0},
                             time={"t_max": math.pi, "samples": 1100},
                             quantum={"n_initial": 20, "m_max": 10, "tail_tol": 1e-12})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        loaded = Scenario.from_file(scn)
        times = np.linspace(0.0, loaded.t_max, loaded.samples)
        x_nh, xdot_nh, _ = build_frame(loaded.params, loaded.forcing, loaded.t_max).values(times)
        lines, rows = ["t,n,m,P,lambda"], []
        lams = transitions.excitation_mean(*transitions.displacements(loaded.params, x_nh, xdot_nh))
        for t, lam in zip(times.tolist(), lams.tolist()):
            column = probability_column(20, lam, 501)
            row = probability_row(20, column, 1e-12)
            lines += ["%.17g,%.17g,%.17g,%.17g,%.17g" % (t, 20, m, p, lam)
                      for m, p in enumerate(column[:max(row.truncation_m, 11)].tolist())]
            rows.append({"n": 20, "t": t, "lambda": lam, "probabilities": list(row.probabilities),
                         "tail_bound": row.tail_bound})
        assert rows[0]["lambda"] == 0.0
        assert len(rows) > transitions.BLOCK_ENTRIES // 501
        assert max(len(row["probabilities"]) for row in rows) > 10 + transitions.ROW_ROOM + 1
        assert (tmp_path / "transitions.csv").read_text() == "\n".join(lines) + "\n"
        assert (tmp_path / "transition_rows.json").read_text() == \
            json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_entries_past_the_computed_column_are_not_checked(self, tmp_path, monkeypatch):
        # only the entries a column is computed to (here the first m_max +
        # ROW_ROOM + 1, where every row ends) are checked, so a bad entry
        # further out, which the full 501-entry column holds, fails nothing
        laguerre_column = transitions._laguerre_column

        def bad_past_first(n, lam, m_stop):
            sign, log_mag = laguerre_column(n, lam, m_stop)
            log_mag[..., 16 + transitions.ROW_ROOM + 1:] = 1.0  # P = e^2 > 1
            return sign, log_mag

        scn = write_scenario(tmp_path, time={"t_max": math.pi, "samples": 9},
                             quantum={"n_initial": 2, "m_max": 16})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(transitions, "_laguerre_column", bad_past_first)
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path / "b")]) == 0
        for name in ("transitions.csv", "transition_rows.json"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        with pytest.raises(NumericError):
            probability_column(2, transitions.excitation_mean(1.0, 0.5), 501)

    def test_row_past_m_500_below_m_max_is_a_numeric_failure(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, forcing={"type": "constant", "K": 5.0},
                             time={"t_max": math.pi, "samples": 9},
                             quantum={"n_initial": 300, "m_max": 16})
        assert main(["transitions", "--scenario", str(scn), "--out", str(tmp_path)]) == 3
        assert "did not capture 1 - 1e-09 within m <= 500" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch):
        # the n = 300 row outgrows its 501-entry column only as lambda grows,
        # so rows of earlier times are written before the run fails
        good = write_scenario(tmp_path, name="good.json", time={"t_max": math.pi, "samples": 9})
        bad = write_scenario(tmp_path, name="bad.json", forcing={"type": "constant", "K": 5.0},
                             time={"t_max": math.pi, "samples": 9},
                             quantum={"n_initial": 300, "m_max": 16})
        out = tmp_path / "out"
        assert main(["transitions", "--scenario", str(good), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["transition_rows.json", "transitions.csv"]
        rows = []
        probability_row = transitions.probability_row

        def counted(*args):
            rows.append(probability_row(*args))
            return rows[-1]

        monkeypatch.setattr(transitions, "probability_row", counted)
        for directory, expected in ((tmp_path / "fresh", {}), (out, before)):
            rows.clear()
            assert main(["transitions", "--scenario", str(bad), "--out", str(directory)]) == 3
            assert 0 < len(rows) < 9
            assert {p.name: p.read_bytes() for p in directory.iterdir()} == expected

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


class TestBoundedMemory:
    """Peak traced memory of one in-process run, after an untraced warm-up
    run of the same command.  The output stage holds one block of rows, so
    the peak stays below a bound that holding every row as Python objects
    exceeded about 3x (28.9 MiB for transitions, 49.3 MiB for classical,
    against 6.8 and 13.2 MiB streamed)."""

    @pytest.mark.parametrize("command, samples, bound_mib", [
        ("transitions", 20_000, 10),
        ("classical", 100_000, 16),
        ("survival", 100_000, 12),
    ])
    def test_peak_is_bounded(self, tmp_path, command, samples, bound_mib):
        scn = write_scenario(tmp_path, forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3,
                                                "phi": 0.2},
                             time={"t_max": math.pi, "samples": samples})
        args = [command, "--scenario", str(scn), "--out", str(tmp_path)]
        assert main(args) == 0  # imports and caches load outside the trace
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def per_value_lines(header, blocks):
    """The CSV lines of blocks of 1-D ndarray and scalar columns, each value
    of each array's list formatted on its own as %.17g."""
    lines = [",".join(header)]
    for block in blocks:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
        rows = len(next(c for c in columns if isinstance(c, list)))
        lines += [",".join("%.17g" % (c[i] if isinstance(c, list) else c) for c in columns)
                  for i in range(rows)]
    return lines


class TestWriteCsv:
    def test_blocks_equal_formatting_each_value(self, tmp_path):
        rng = np.random.default_rng(7)
        long = rng.standard_normal(5000)
        blocks = [
            (0.25, 3, np.arange(4), np.array([0.1, -0.0, 1e-300, 2.0 / 3.0]), -0.0),
            (-0.0, 7, np.arange(long.size), long, math.pi),
            (np.array([1.5, -0.0]), 0, np.array([2, 3]), 2.0, np.array([4e-17, 5])),
            (1.5, 0, np.arange(0), np.array([]), 2.0),  # no rows
            (2.5, 40, np.arange(3), np.array([0.25, 0.5, 0.125]), 2.0),  # an index column
            (-1.0, 9, np.arange(2**53 - 10, 2**53), np.full(10, 0.5), 3.0),
        ]
        path = tmp_path / "out.csv"
        cli._write_csv(path, ["a", "b", "c", "d", "e"], blocks)
        expected = per_value_lines(["a", "b", "c", "d", "e"], blocks)
        assert expected[1:3] == ["0.25,3,0,0.10000000000000001,-0", "0.25,3,1,-0,-0"]
        assert expected[5005:5007] == ["1.5,0,2,2,4.0000000000000003e-17", "-0,0,3,2,5"]
        assert expected[5007:5010] == ["2.5,40,0,0.25,2", "2.5,40,1,0.5,2", "2.5,40,2,0.125,2"]
        assert expected[-1] == "-1,9,9007199254740991,0.5,3"
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_ndarray_columns_and_chunk_edges_write_the_list_bytes(self, tmp_path):
        # ndarray columns (contiguous, strided and 2-D transposed views), and
        # blocks that end at, just past and well past a chunk edge, give the
        # bytes of their lists formatted one value at a time
        rng = np.random.default_rng(23)
        edge = cli.CSV_CHUNK_ROWS
        z = rng.standard_normal((edge + 3, 2)) * np.logspace(-300, 300, edge + 3)[:, None]
        z[::7] = -0.0
        t = np.linspace(0.0, math.pi, edge + 3)
        values = rng.standard_normal(2 * edge + 5) + 1j * rng.standard_normal(2 * edge + 5)
        arrays = [
            (t, *z.T, 1.5),
            (0.25, np.arange(edge), rng.random(edge), np.arange(edge, dtype=float)),
            (values.real, -0.0, np.arange(2 * edge + 5), values.imag),
            (np.array([5e-324, 1e308]), 2.0, np.arange(2), np.array([0.1, 0.2])),
            (np.array([]), 1.0, np.arange(0), np.array([])),
        ]
        cli._write_csv(tmp_path / "arrays.csv", ["a", "b", "c", "d"], arrays)
        written = (tmp_path / "arrays.csv").read_text()
        assert written == "\n".join(per_value_lines(["a", "b", "c", "d"], arrays)) + "\n"
        lines = written.splitlines()
        assert len(lines) == 1 + (edge + 3) + edge + (2 * edge + 5) + 2
        for i in (0, edge - 1, edge, edge + 2):  # lines[0] is the header
            assert lines[i + 1] == "%.17g,%.17g,%.17g,1.5" % (t[i], *z[i])


class TestWriteRowsJson:
    def test_equals_json_dump(self):
        rng = np.random.default_rng(11)
        rows = [
            {"n": 0, "t": 0.0, "lambda": 0.0, "probabilities": (1.0,), "tail_bound": 0.0},
            {"n": 3, "t": -0.0, "lambda": 1e-300, "tail_bound": 5e-324,
             "probabilities": (5e-324, -0.0, 1e-300, 2.0 / 3.0, 0.1, 1.5e-7)},
            {"n": 40, "t": 1e16, "lambda": 1e22, "tail_bound": 9.9e-10,
             "probabilities": tuple(rng.random(70).tolist())},
        ]
        for written in (rows, rows[:1]):
            text = "[\n" + ",\n".join(
                cli._row_json(r["t"], r["n"], r["lambda"], r["probabilities"], r["tail_bound"])
                for r in written) + "\n]"
            expected = io.StringIO()
            json.dump(written, expected, indent=2, sort_keys=True)
            assert text == expected.getvalue()


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


class TestOverflowingMean:
    @pytest.mark.parametrize("command", ["transitions", "survival"])
    def test_overflowing_lambda_is_a_numeric_failure(self, tmp_path, command):
        # a and b stay finite, but a^2 + b^2 overflows from t = 0.5 on
        scn = write_scenario(tmp_path, params={"m": 1.0, "omega": 1e-6},
                             forcing={"type": "constant", "K": 6e151},
                             time={"t_max": 1.0, "samples": 3},
                             initial_state={"x": 0.1, "p": 0.0})
        proc = run_cli(command, "--scenario", str(scn), "--out", str(tmp_path))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{scn}: numerical failure: excitation mean lambda = "
                                   "(a^2 + b^2)/2 overflows at t=0.5, (a, b) = (7.49")
        assert [p.name for p in tmp_path.iterdir()] == ["scn.json"]


class TestOverflowingScale:
    @pytest.mark.parametrize("command", ["transitions", "survival"])
    def test_overflowing_mass_over_omega_is_no_failure(self, tmp_path, command):
        # m / omega = 1e310 overflows, sqrt(m / omega) = 1e155 does not, and
        # at t = 0 xdot_nh = 0: b must be 0, not 0 * inf = nan
        scn = write_scenario(tmp_path, params={"m": 1e300, "omega": 1e-10},
                             forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
                             time={"t_max": 3.0, "samples": 5})
        proc = run_cli(command, "--scenario", str(scn), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, rows = read_csv(tmp_path / f"{command}.csv")
        assert np.unique(rows[:, 0]).size == 5
        lams = rows[:, header.index("lambda")]
        assert np.all((0.0 <= lams) & (lams < 1e-280))
        if command == "survival":
            assert rows[:, 2].tolist() == [1.0] * 5
        else:  # the ground state stays put: P(0 -> 0) = exp(-lambda) = 1
            rows_json = json.loads((tmp_path / "transition_rows.json").read_text())
            assert [r["probabilities"][0] for r in rows_json] == [1.0] * 5


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
            a, b = transitions.displacements(frame.params, *frame.values(t)[:2])
            lib = math.exp(-transitions.excitation_mean(a, b))
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


_GRID = {"x_min": -10.0, "x_max": 10.0, "points": 512, "dt": 1e-3}


class TestIntegralFloats:
    """The schema's integers admit integral floats such as 11.0 (JSON
    Schema 2020-12); a scenario spelling them so runs as its int spelling."""

    @pytest.mark.parametrize("command, block, ints", [
        *[(c, "time", {"t_max": 1.0, "samples": 11})
          for c in ("classical", "transitions", "survival", "evolve-pde")],
        ("transitions", "quantum", {"n_initial": 1, "m_max": 5}),
        *[(c, "grid", _GRID)
          for c in ("classical", "transitions", "survival", "evolve-pde", "verify")],
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_same_bytes_as_the_int_scenario(self, tmp_path, command, block, ints):
        written = []
        for spelling in (ints, {k: float(v) for k, v in ints.items()}):
            name = "float" if written else "int"
            scn = write_scenario(
                tmp_path, name=f"{name}.json",
                forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
                **{"time": {"t_max": 1.0, "samples": 9}, block: spelling})
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / name)]) == 0
            written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert written[0] and written[0] == written[1]


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


# frame reads per finite-difference check on the default scenario
_BATCHED_READS = {"frame_newton_residual": 2, "frame_gauge_residual": 2,
                  "hamiltonian_transformation_law": 6, "frame_cache_vs_exact": 1}


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

    def test_short_window_keeps_differences_inside_the_frame(self, tmp_path):
        # at t_max 1e-4 a step of 1e-5 max(1, t) would read past t_max; the
        # step is capped at 1% of t_max, so every check runs on the window
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.0},
            time={"t_max": 1e-4, "samples": 9},
        )
        assert main(["verify", "--scenario", str(scn), "--suite", "all",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["checks"]) == 25

    def test_very_short_window_passes_the_transformation_law(self, tmp_path):
        # at t_max 1e-8 the step is 1e-10: differencing F1 whole would carry
        # the rounding of its t-independent x eta term, ~eps |F1| / h
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
            time={"t_max": 1e-8, "samples": 9},
        )
        assert main(["verify", "--scenario", str(scn), "--suite", "canonical",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        law = next(c for c in report["checks"] if c["check"] == "hamiltonian_transformation_law")
        assert law["status"] == "pass" and law["tolerance"] == 1e-6

    @staticmethod
    def run_one_check(monkeypatch, scenario, name):
        check, = [c for c in verify.CHECKS if c.name == name]
        monkeypatch.setattr(verify, "CHECKS", (check,))
        result, = run_suite(Scenario.from_dict(scenario), check.suite)
        return result

    @pytest.mark.parametrize("name, reads", _BATCHED_READS.items())
    def test_difference_checks_read_the_frame_once_per_quantity(
            self, monkeypatch, default_scenario, name, reads):
        # the batched read the commands ship, not one read per time: the law
        # reads F1, x_nh and the centre on the scenario and doubled-mass frames
        calls = []
        resume = canonical._resume

        def counted(*args):
            calls.append(args[-1].size)
            return resume(*args)

        monkeypatch.setattr(canonical, "_resume", counted)
        assert self.run_one_check(monkeypatch, default_scenario, name).status == "pass"
        assert len(calls) <= reads, calls

    @pytest.mark.parametrize("name", _BATCHED_READS)
    def test_a_nan_in_a_frame_read_fails_the_check(self, monkeypatch, default_scenario, name):
        # NaN at the last time of the first read: a reduction that skips
        # NaN, as max(worst, nan) does, would report the other times' error
        calls = []
        resume = canonical._resume

        def poisoned(*args):
            x, p, j = resume(*args)
            if not calls:
                x, p, j = (np.append(v[:-1], math.nan) for v in (x, p, j))
            calls.append(args[-1].size)
            return x, p, j

        monkeypatch.setattr(canonical, "_resume", poisoned)
        result = self.run_one_check(monkeypatch, default_scenario, name)
        assert calls[0] > 1
        assert result.status == "fail" and math.isnan(result.max_error)

    def test_a_nan_error_fails_its_check(self, monkeypatch, default_scenario):
        # run_suite alone reduces a check's errors, so a NaN among them is
        # the max_error whatever the other errors are
        check = verify.Check("poisoned", "classical", 1e-12, lambda ctx: [0.0, math.nan, 0.0])
        monkeypatch.setattr(verify, "CHECKS", (check,))
        result, = run_suite(Scenario.from_dict(default_scenario), "classical")
        assert result.status == "fail" and math.isnan(result.max_error)

    @pytest.mark.parametrize("name, module, oracle", [
        ("amplitude_closed_vs_quadrature", transitions, "overlap_by_quadrature"),
        ("gaussian_moment_vs_quadrature", hermite, "gaussian_integral")])
    def test_a_nan_from_an_oracle_fails_the_check(self, monkeypatch, default_scenario,
                                                  name, module, oracle):
        # NaN at the second call only, so a reduction that skips NaN would
        # see the other draws' finite errors and pass
        calls = []
        original = getattr(module, oracle)

        def poisoned(*args, **kwargs):
            calls.append(args)
            value = original(*args, **kwargs)
            return math.nan if len(calls) == 2 else value

        monkeypatch.setattr(module, oracle, poisoned)
        result = self.run_one_check(monkeypatch, default_scenario, name)
        assert len(calls) > 2
        assert result.status == "fail" and math.isnan(result.max_error)

    def test_every_check_returns_its_errors(self, default_scenario):
        # each check hands run_suite all its errors, not their maximum
        ctx = _Context(Scenario.from_dict(default_scenario))
        for check in verify.CHECKS:
            errors = check.fn(ctx)
            assert type(errors) is np.ndarray and errors.size > 0, check.name
            assert errors.dtype.kind == "f" and np.all(errors >= 0.0), check.name

    @pytest.mark.parametrize("m", [1e300, 1e-300])
    def test_extreme_mass_oracle_fails_without_warnings(self, tmp_path, m):
        # the oracle agrees with evolve to rounding, but errors of ~1e285
        # meet the check's absolute 1e-8 tolerance: the check fails, and
        # no overflow warning reaches stderr
        scn = write_scenario(tmp_path, params={"m": m, "omega": 1.0},
                             forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
                             time={"t_max": math.pi, "samples": 5})
        proc = run_cli("verify", "--suite", "classical", "--scenario", str(scn),
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "[FAIL] classical/evolve_vs_runge_kutta" in proc.stdout

    def test_extreme_mass_grid_overflow_is_one_line(self, tmp_path):
        # at m = 1e300 the lab-frame state is not finite: the run exits 3
        # with its one-line message, and no numpy overflow warning besides
        scn = write_scenario(tmp_path, params={"m": 1e300, "omega": 1.0},
                             forcing={"type": "sinusoid", "A": 1.0, "Omega": 1.3, "phi": 0.2},
                             time={"t_max": math.pi, "samples": 5})
        proc = run_cli("verify", "--suite", "all", "--scenario", str(scn),
                       "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"{scn}: numerical failure: moving_to_lab: the state is not finite"]

    def test_grid_solver_runs_only_on_the_driven_side(self, tmp_path, monkeypatch,
                                                      default_scenario):
        # the unforced side of both covariance checks is the exact
        # e^{-i E_n t} phase per mode: the three driven states are stepped
        # together in one stacked run, and nothing else is stepped
        stacked, single = [], []
        evolve_states, evolve_lab = schrodinger.evolve_states, schrodinger.evolve_lab

        def counted_states(params, spec, states, *args, **kwargs):
            stacked.append((spec, len(states)))
            return evolve_states(params, spec, states, *args, **kwargs)

        def counted_lab(*args, **kwargs):
            single.append(args[1])
            return evolve_lab(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "evolve_states", counted_states)
        monkeypatch.setattr(schrodinger, "evolve_lab", counted_lab)
        scn = tmp_path / "default.json"
        scn.write_text(json.dumps(default_scenario))
        assert main(["verify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        assert stacked == [(Scenario.from_dict(default_scenario).forcing, 3)]
        assert single == []

    def test_overflowing_invariant_exits_as_classical_does(self, tmp_path, default_scenario):
        # the ellipse check runs the classical command's own trajectory, so
        # an energy that overflows is the same configuration error in both
        default_scenario["initial_state"] = {"x": 1e200, "p": 1e200}
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(default_scenario))
        runs = [run_cli(*command, "--scenario", str(scn), "--out", str(tmp_path / command[0]))
                for command in (["classical"], ["verify", "--suite", "classical"])]
        assert [proc.returncode for proc in runs] == [2, 2]
        assert "phase-space point must be finite, with a finite invariant" in runs[0].stderr
        assert runs[1].stderr == runs[0].stderr

    def test_ellipse_check_reads_the_shipped_trajectory(self, monkeypatch, default_scenario):
        # a drift in classical.trajectory's invariant column is what the
        # check sees: it passes unpatched and fails with a 1e-6 drift
        scn = Scenario.from_dict({**default_scenario, "initial_state": {"x": 0.4, "p": -0.3}})

        def ellipse():
            result, = [r for r in run_suite(scn, "classical")
                       if r.check == "moving_ellipse_invariant"]
            return result

        assert ellipse().status == "pass"
        trajectory = classical.trajectory

        def drifting(*args):
            z, z_nh, invariant = trajectory(*args)
            return z, z_nh, invariant + 1e-6 * np.linspace(0.0, 1.0, len(invariant))

        monkeypatch.setattr(classical, "trajectory", drifting)
        drifted = ellipse()
        assert drifted.status == "fail"
        assert drifted.max_error == pytest.approx(1e-6, rel=1e-3)

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

    def test_malformed_report_is_an_internal_failure(self, tmp_path, capsys, monkeypatch):
        # a report that breaks report.schema.json is the program's fault, so it
        # exits 3 like any internal failure, never 2 like a bad scenario
        run_suite = verify.run_suite

        def non_number_error(scn, suite):
            first, *rest = run_suite(scn, suite)
            return [dataclasses.replace(first, max_error=None), *rest]

        monkeypatch.setattr(verify, "run_suite", non_number_error)
        scn = write_scenario(tmp_path)
        assert main(["verify", "--suite", "classical", "--scenario", str(scn),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "internal failure: ValueError: report.checks[0].max_error: None" in err
        assert not (tmp_path / "report.json").exists()

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

def loaded():
    return [scipy_modules(), "drivenosc.verify" in sys.modules, "jsonschema" in sys.modules]

scenario, out, report = sys.argv[1:]
seen = {}
import drivenosc
seen["import drivenosc"] = [0, *loaded()]
import drivenosc.cli
seen["import drivenosc.cli"] = [0, *loaded()]
for command in ("classical", "transitions", "survival", "evolve-pde", "verify"):
    code = drivenosc.cli.main([command, "--scenario", scenario, "--out", out])
    seen[command] = [code, *loaded()]
with open(report, "w") as fh:
    json.dump(seen, fh)
"""

_COLD_STEPS = ("import drivenosc", "import drivenosc.cli",
               "classical", "transitions", "survival", "evolve-pde")


class TestRungeKuttaOracle:
    """verify's RK4 oracle against the response walk of classical.evolve,
    per component, relative to the component's own size."""

    SINUSOID = SinusoidForcing(1.0, 1.3, 0.2)

    @staticmethod
    def relative_gap(params, spec, z0, t):
        got = classical.evolve(params, z0, spec, t)
        ref = verify._rk_reference(params, spec, z0, t)
        return max(abs(ref.x - got.x) / abs(got.x), abs(ref.p - got.p) / abs(got.p))

    def test_light_mass_from_a_moving_start(self):
        # x reaches ~4e299, near the top of the float range
        params = OscillatorParams(1e-300, 1.0)
        assert self.relative_gap(params, self.SINUSOID, PhaseState(0.6, -0.4), math.pi) <= 1e-12

    @pytest.mark.parametrize("m", [1e160, 1e-160, 1e300, 1e-300])
    def test_extreme_mass_from_rest(self, m):
        params = OscillatorParams(m, 1.0)
        assert self.relative_gap(params, self.SINUSOID, PhaseState(0.0, 0.0), 2.0) <= 1e-12

    def test_piece_ending_at_a_pulse_edge(self):
        # t = t_off: k(t_off) is 0, so only a one-sided read of the last
        # piece's end sees the pulse (a two-sided read is off by ~7e-4)
        spec = PulseForcing(1.0, 0.7003, 2.2007)
        params = OscillatorParams(1.3, 0.8)
        assert self.relative_gap(params, spec, PhaseState(0.6, -0.4), spec.t_off) <= 1e-12

    def test_one_force_read_per_pass(self, monkeypatch):
        # a piece runs at h and at h/2, each pass one array read of k
        calls = []
        evaluate = PulseForcing.evaluate

        def counted(self, t):
            calls.append(np.size(t))
            return evaluate(self, t)

        monkeypatch.setattr(PulseForcing, "evaluate", counted)
        spec = PulseForcing(1.0, 0.7003, 2.2007)
        verify._rk_reference(OscillatorParams(1.3, 0.8), spec, PhaseState(0.6, -0.4), 3.0)
        assert len(calls) == 6  # three pieces, two passes each
        assert all(n > 1 for n in calls)


class TestColdStart:
    @pytest.fixture(scope="class")
    def seen(self, tmp_path_factory):
        """[exit code, scipy modules loaded, drivenosc.verify loaded,
        jsonschema loaded] after each step of one fresh interpreter, the
        five commands in turn."""
        tmp_path = tmp_path_factory.mktemp("cold")
        scn = write_scenario(
            tmp_path,
            forcing={"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.0},
            time={"t_max": math.pi, "samples": 9},
        )
        report = tmp_path / "seen.json"
        proc = run_python("-c", _SCIPY_PROBE, str(scn), str(tmp_path / "out"), str(report))
        assert proc.returncode == 0, proc.stderr
        return json.loads(report.read_text())

    def test_no_command_loads_scipy(self, seen):
        # verify's Runge-Kutta oracle and Gauss-Hermite rule are numpy code
        for step in (*_COLD_STEPS, "verify"):
            assert seen[step][:2] == [0, []], step

    def test_verify_module_loads_only_for_verify(self, seen):
        for step in _COLD_STEPS:
            assert seen[step][2] is False, step
        assert seen["verify"][2] is True

    def test_no_command_loads_jsonschema(self, seen):
        # the scenario and the report are checked by scenario.validate
        for step in (*_COLD_STEPS, "verify"):
            assert seen[step][3] is False, step


class TestParser:
    """One parser serves every main call of a process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_append_state_carries_over(self, tmp_path):
        one = write_scenario(tmp_path, name="one.json")
        two = write_scenario(tmp_path, name="two.json", forcing={"type": "zero"})
        out = tmp_path / "out"
        assert main(["survival", "--scenario", str(one), "--scenario", str(two),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["one", "two"]
        # a single --scenario writes to the output directory itself
        assert main(["survival", "--scenario", str(two), "--out", str(out)]) == 0
        assert (out / "survival.csv").exists()
        assert not (out / "two" / "two").exists()

    def test_bad_suite_exits_2_on_every_call(self, tmp_path, capsys):
        scn = write_scenario(tmp_path)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "everything", "--scenario", str(scn),
                      "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "invalid choice: 'everything'" in capsys.readouterr().err

    def test_suite_choices_are_the_report_schema_enum(self):
        sub, = [a for a in cli.build_parser()._actions if a.dest == "command"]
        suite, = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
        enum = REPORT_SCHEMA["properties"]["suite"]["enum"]
        assert list(suite.choices) == enum
        assert list(verify.SUITES) == enum
        assert suite.default in enum


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
