import math
import time

import numpy as np
import pytest

from drivenosc import (
    ConstantForcing,
    DomainError,
    OscillatorParams,
    PhaseState,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    ZeroForcing,
    evolve,
    laboratory_ellipse,
    propagator,
)
from drivenosc.canonical import build_frame
from drivenosc.classical import _panel_len
from drivenosc.scenario import Scenario


def fd_step(t):
    return 1e-5 * max(1.0, t)


class TestFrameData:
    def test_zero_forcing_frame_is_trivial(self, params11):
        fr = build_frame(params11, ZeroForcing(), 2.0)
        for t in (0.0, 0.7, 1.5, 2.0):
            assert fr.values(t) == (0.0, 0.0, 0.0)

    def test_initial_conditions(self, const_frame_pi):
        assert const_frame_pi.values(0.0) == (0.0, 0.0, 0.0)

    def test_constant_force_gauge_half_period(self, const_frame_pi):
        # integrand reduces to sin^2 here; its antiderivative gives pi/2
        assert const_frame_pi.gauge(math.pi) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_constant_force_gauge_closed_form(self, const_frame_pi):
        for t in (0.3, 1.0, 2.2, 3.0):
            assert const_frame_pi.gauge(t) == pytest.approx(t / 2 - math.sin(2 * t) / 4, abs=1e-11)

    def test_sinusoid_gauge_frozen_oracle_value(self, params11):
        # independent oracle: DOP853 response + QUADPACK action integral
        fr = build_frame(params11, SinusoidForcing(1.0, 2.0, 0.0), 1.0)
        assert fr.gauge(1.0) == pytest.approx(0.05839648352061505, abs=1e-10)

    def test_center_matches_classical_response(self, const_frame_pi, params11):
        for t in (0.4, 1.3, 2.8):
            z = laboratory_ellipse(params11, 1.0, t)
            assert const_frame_pi.x_nh(t) == pytest.approx(z.x, abs=1e-11)
            assert const_frame_pi.xdot_nh(t) == pytest.approx(z.p, abs=1e-11)

    def test_cache_matches_exact_evaluation(self, params11):
        fr = build_frame(params11, SinusoidForcing(0.8, 1.7, 0.5), 3.0)
        rng = np.random.default_rng(12)
        for t in rng.uniform(0.05, 2.95, 5):
            cached = fr.values(float(t))
            exact = fr.exact_values(float(t))
            np.testing.assert_allclose(cached, exact, atol=1e-10)

    def test_reads_exact_next_to_pulse_edges(self):
        # reads between nodes walk through the jump of k instead of
        # interpolating across it
        params = OscillatorParams(1.1, 0.9)
        spec = PulseForcing(K=1.0, t_on=2.0, t_off=17.3)
        fr = build_frame(params, spec, 10 * math.pi)
        for edge in (spec.t_on, spec.t_off):
            for t in (edge - 1e-3, edge + 1e-3):
                x_ref, xdot_ref, _ = fr.exact_values(t)
                x, xdot, _ = fr.values(t)
                assert abs(x - x_ref) < 1e-10
                assert abs(xdot - xdot_ref) < 1e-10

    def test_reads_exact_between_coarse_nodes(self):
        params = OscillatorParams(1.0, 2 * math.pi)
        spec = SinusoidForcing(1.0, 6.0, 0.3)
        fr = build_frame(params, spec, 200.0)
        for t in (0.37, 3.05, 11.9):
            x_ref, xdot_ref, _ = fr.exact_values(t)
            x, xdot, _ = fr.values(t)
            assert abs(x - x_ref) < 1e-10 * max(1.0, abs(x_ref))
            assert abs(xdot - xdot_ref) < 1e-10 * max(1.0, abs(params.m * xdot_ref))

    def test_oracle_makes_one_pass_over_a_dense_table(self, params11):
        # 1001 knots 0.01 apart: the oracle carries the response from node to
        # node instead of integrating over every kink again at each node
        knots = [[0.01 * i, math.sin(0.37 * i)] for i in range(1001)]
        fr = build_frame(params11, TabulatedForcing(knots), 10.0)
        start = time.perf_counter()
        exact = fr.exact_values(2.345)
        assert time.perf_counter() - start < 10.0
        np.testing.assert_allclose(fr.values(2.345), exact, rtol=0.0, atol=1e-12)

    def test_build_evaluates_the_drive_once_per_panel_node(self, monkeypatch):
        # the nodes are the walk's own panel edges: 15 Kronrod nodes per
        # panel the drive needs, and no extra panels for a node grid
        scn = Scenario.default()
        calls = []
        evaluate = SinusoidForcing.evaluate
        monkeypatch.setattr(SinusoidForcing, "evaluate",
                            lambda self, t: calls.append(t) or evaluate(self, t))
        build_frame(scn.params, scn.forcing, scn.t_max)
        panels = math.ceil(scn.t_max / _panel_len(scn.params, scn.forcing))
        assert 0 < len(calls) <= 15 * panels

    def test_out_of_range_rejected(self, const_frame_pi):
        with pytest.raises(DomainError):
            const_frame_pi.x_nh(-0.5)
        with pytest.raises(DomainError):
            const_frame_pi.gauge(math.pi + 0.1)

    def test_bad_build_arguments(self, params11):
        with pytest.raises(DomainError):
            build_frame(params11, ZeroForcing(), 0.0)


class TestResiduals:
    """The frame must satisfy the defining constraints, checked here by
    finite differences of cached values (independent of construction)."""

    @pytest.mark.parametrize("m,w,spec", [
        (1.0, 1.0, ConstantForcing(1.0)),
        (2.0, 1.3, SinusoidForcing(0.9, 2.1, 0.4)),
        (0.7, 2.0, SinusoidForcing(-1.1, 0.9, 1.0)),
    ])
    def test_newton_and_gauge_residuals(self, m, w, spec):
        params = OscillatorParams(m, w)
        fr = build_frame(params, spec, 3.0)
        rng = np.random.default_rng(13)
        for t in rng.uniform(0.05, 2.95, 25):
            t = float(t)
            h = fd_step(t)
            xdd = (fr.xdot_nh(t + h) - fr.xdot_nh(t - h)) / (2 * h)
            assert abs(m * xdd + m * w * w * fr.x_nh(t) - spec.evaluate(t)) < 1e-6
            gdot = (fr.gauge(t + h) - fr.gauge(t - h)) / (2 * h)
            lagr = 0.5 * m * fr.xdot_nh(t) ** 2 - 0.5 * m * w * w * fr.x_nh(t) ** 2 \
                + fr.x_nh(t) * spec.evaluate(t)
            assert abs(gdot - lagr) < 1e-6

    def test_pulse_residual_away_from_edges(self, params11):
        spec = PulseForcing(K=1.2, t_on=0.8, t_off=1.9)
        fr = build_frame(params11, spec, 3.0)
        guard = 4 * 3.0 / 1024
        rng = np.random.default_rng(14)
        count = 0
        for t in rng.uniform(0.05, 2.95, 60):
            t = float(t)
            if min(abs(t - 0.8), abs(t - 1.9)) < guard:
                continue  # the force itself jumps there; residual undefined
            count += 1
            h = fd_step(t)
            xdd = (fr.xdot_nh(t + h) - fr.xdot_nh(t - h)) / (2 * h)
            assert abs(xdd + fr.x_nh(t) - spec.evaluate(t)) < 1e-6
        assert count > 30


class TestGeneratingFunctions:
    def test_zero_forcing_is_identity_generator(self, params11):
        fr = build_frame(params11, ZeroForcing(), 2.0)
        assert fr.f1(0.7, -0.3, 1.1) == pytest.approx(0.7 * -0.3, abs=1e-15)
        assert fr.phase_to_lab(0.5, 1.0) == 0.0
        assert fr.phase_to_moving(0.5, 1.0) == 0.0

    def test_f1_collapses_to_gauge_on_the_center(self, const_frame_pi):
        t = 1.2
        x = const_frame_pi.x_nh(t)
        for eta in (-1.0, 0.0, 2.0):
            assert const_frame_pi.f1(x, eta, t) == pytest.approx(const_frame_pi.gauge(t), abs=1e-12)

    def test_phase_to_lab_on_the_center(self, const_frame_pi):
        for t in (0.5, 1.5, 2.5):
            assert const_frame_pi.phase_to_lab(const_frame_pi.x_nh(t), t) == \
                pytest.approx(const_frame_pi.gauge(t), abs=1e-12)

    def test_phase_values_quarter_period(self, const_frame_pi):
        # x_nh(pi/2) = 1, xdot_nh(pi/2) = 1, G(pi/2) = pi/4
        t = math.pi / 2
        g = const_frame_pi.gauge(t)
        assert g == pytest.approx(math.pi / 4, abs=1e-11)
        assert const_frame_pi.phase_to_lab(2.0, t) == pytest.approx((2 - 1) * 1 + g, abs=1e-10)
        assert const_frame_pi.phase_to_moving(0.0, t) == pytest.approx(-1.0 + g, abs=1e-10)

    def test_f2_half_period(self, const_frame_pi):
        # xdot_nh(pi) = 0, so F2(1, 0, pi) = G(pi) = pi/2
        assert const_frame_pi.f2(1.0, 0.0, math.pi) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_phase_prime_on_negated_center(self, const_frame_pi):
        t = 2.0
        assert const_frame_pi.phase_to_moving(-const_frame_pi.x_nh(t), t) == \
            pytest.approx(const_frame_pi.gauge(t), abs=1e-12)


class TestTransformationLaw:
    """New Hamiltonian = old + dF1/dt, pointwise, at unit and non-unit mass."""

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_k_equals_h_plus_df1dt(self, m):
        params = OscillatorParams(m, 1.1)
        spec = SinusoidForcing(0.9, 1.8, 0.2)
        fr = build_frame(params, spec, 3.0)
        rng = np.random.default_rng(15)
        w = params.omega
        for _ in range(30):
            t = float(rng.uniform(0.05, 2.95))
            x = float(rng.uniform(-2, 2))
            eta = float(rng.uniform(-2, 2))
            h = fd_step(t)
            df1 = (fr.f1(x, eta, t + h) - fr.f1(x, eta, t - h)) / (2 * h)
            xc, vc, _ = fr.values(t)
            xi, p = x - xc, eta + m * vc
            k_new = 0.5 * (eta**2 / m + m * w * w * xi**2)
            h_old = 0.5 * (p**2 / m + m * w * w * x**2) - x * spec.evaluate(t)
            assert abs(k_new - (h_old + df1)) < 1e-6


class TestPointMaps:
    def test_zero_forcing_identity(self, params11):
        fr = build_frame(params11, ZeroForcing(), 2.0)
        z = PhaseState(0.4, -1.1)
        assert fr.to_moving(z, 1.0) == z
        assert fr.to_lab(z, 1.0) == z

    def test_round_trip(self, const_frame_pi):
        rng = np.random.default_rng(16)
        for _ in range(20):
            z = PhaseState(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            t = float(rng.uniform(0.0, math.pi))
            back = const_frame_pi.to_lab(const_frame_pi.to_moving(z, t), t)
            assert back.x == pytest.approx(z.x, abs=1e-12)
            assert back.p == pytest.approx(z.p, abs=1e-12)

    def test_center_maps_to_origin(self, const_frame_pi):
        # at t = pi the response sits at (2, 0)
        z = const_frame_pi.to_moving(PhaseState(2.0, 0.0), math.pi)
        assert z.x == pytest.approx(0.0, abs=1e-10)
        assert z.p == pytest.approx(0.0, abs=1e-10)

    def test_frame_covariance_with_flow(self, params11):
        # moving-frame image of the driven flow is the unforced flow
        spec = SinusoidForcing(1.0, 2.0, 0.0)
        fr = build_frame(params11, spec, 3.0)
        z0 = PhaseState(0.6, -0.2)
        for t in (0.8, 1.7, 2.9):
            x_nh, v_nh, _ = fr.exact_values(t)  # the oracle, not the frame's own walk
            z = propagator(params11, t) @ z0.as_array()
            lhs = fr.to_moving(PhaseState(z[0] + x_nh, z[1] + params11.m * v_nh), t)
            rhs = evolve(params11, fr.to_moving(z0, 0.0), ZeroForcing(), t)
            assert abs(lhs.x - rhs.x) < 1e-6
            assert abs(lhs.p - rhs.p) < 1e-6

