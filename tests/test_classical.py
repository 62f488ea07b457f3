import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
    quadratic_form_matrix,
    quadratic_invariant,
)


def rk_oracle(params, spec, z0, t):
    """Independent reference: direct RK integration of the equations of
    motion, split at forcing discontinuities."""
    def rhs(s, z):
        return [z[1] / params.m, -params.m * params.omega**2 * z[0] + spec.evaluate(s)]
    edges = [0.0, *spec.breakpoints(0.0, t), t]
    z = [z0.x, z0.p]
    for a, b in zip(edges, edges[1:]):
        if b > a:
            sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-12, atol=1e-13)
            z = [float(sol.y[0, -1]), float(sol.y[1, -1])]
    return PhaseState(z[0], z[1])


class TestPropagator:
    def test_identity_at_zero(self):
        for omega in (0.0, 0.7, 2 * math.pi):
            np.testing.assert_allclose(
                propagator(OscillatorParams(1.0, omega), 0.0), np.eye(2), atol=1e-15)

    def test_quarter_period(self):
        u = propagator(OscillatorParams(1.0, math.pi / 2), 1.0)
        np.testing.assert_allclose(
            u, [[0.0, 2.0 / math.pi], [-math.pi / 2, 0.0]], atol=1e-15)

    def test_free_particle_limit(self):
        np.testing.assert_allclose(
            propagator(OscillatorParams(2.0, 0.0), 3.0), [[1.0, 1.5], [0.0, 1.0]], atol=1e-15)

    def test_small_omega_matches_limit(self):
        # series branch at w -> 0 agrees with the w = 0 matrix
        lim = propagator(OscillatorParams(2.0, 0.0), 3.0)
        near = propagator(OscillatorParams(2.0, 1e-8), 3.0)
        np.testing.assert_allclose(near, lim, atol=1e-14)

    def test_group_law(self):
        rng = np.random.default_rng(5)
        for m in (1.0, 2.5):
            for w in (0.5, 1.0, 2 * math.pi):
                p = OscillatorParams(m, w)
                for _ in range(50):
                    t, s = rng.uniform(-6, 6, 2)
                    err = np.max(np.abs(propagator(p, t + s) - propagator(p, t) @ propagator(p, s)))
                    assert err < 1e-12

    def test_symplectic_determinant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = OscillatorParams(float(rng.uniform(0.5, 3)), float(rng.uniform(0, 5)))
            t = float(rng.uniform(-10, 10))
            assert abs(np.linalg.det(propagator(p, t)) - 1.0) < 1e-12

    def test_form_conjugation(self):
        rng = np.random.default_rng(7)
        for m in (1.0, 2.5):
            for w in (0.5, 1.0, 2 * math.pi):
                p = OscillatorParams(m, w)
                form = quadratic_form_matrix(p)
                for _ in range(40):
                    u = propagator(p, float(rng.uniform(-6, 6)))
                    assert np.max(np.abs(u.T @ form @ u - form)) < 1e-12

    def test_nonfinite_time_rejected(self):
        with pytest.raises(DomainError):
            propagator(OscillatorParams(1.0, 1.0), math.nan)
        with pytest.raises(DomainError):
            propagator(OscillatorParams(1.0, 1.0), np.array([0.0, math.inf]))

    def test_array_of_times_stacks_the_scalar_matrices(self):
        # bit for bit, also through the product with a state
        times = np.linspace(-7.0, 40.0, 1001).reshape(7, 143)
        z0 = np.array([0.37, -1.2])
        for p in (OscillatorParams(1.3, 0.8), OscillatorParams(2.0, 0.0)):
            stack = propagator(p, times)
            assert stack.shape == (7, 143, 2, 2)
            single = [propagator(p, t) for t in times.ravel().tolist()]
            assert np.array_equal(stack.reshape(-1, 2, 2), single)
            assert np.array_equal((stack @ z0).reshape(-1, 2), [u @ z0 for u in single])


class TestEvolve:
    def test_full_period_homogeneous(self):
        p = OscillatorParams(1.3, 0.9)
        z = evolve(p, PhaseState(1.0, 0.0), ZeroForcing(), 2 * math.pi / 0.9)
        assert z.x == pytest.approx(1.0, abs=1e-12)
        assert z.p == pytest.approx(0.0, abs=1e-12)

    def test_constant_force_half_period(self):
        # driven response from rest: x = K(1 - cos t), p = K sin t at m = w = K = 1
        p = OscillatorParams(1.0, 1.0)
        z = evolve(p, PhaseState(0.0, 0.0), ConstantForcing(1.0), math.pi)
        assert z.x == pytest.approx(2.0, abs=1e-12)
        assert z.p == pytest.approx(0.0, abs=1e-12)

    def test_sinusoid_frozen_oracle_value(self):
        # DOP853 at rtol 1e-13 gives (0.04233158904882588, -0.7726462157786769)
        p = OscillatorParams(1.0, 1.0)
        spec = SinusoidForcing(A=1.0, Omega=2.0, phi=0.0)
        z = evolve(p, PhaseState(0.3, -0.2), spec, 1.7)
        assert z.x == pytest.approx(0.04233158904882588, abs=1e-8)
        assert z.p == pytest.approx(-0.7726462157786769, abs=1e-8)

    def test_against_rk_oracle_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            params = OscillatorParams(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.3, 3.0)))
            kind = rng.integers(0, 3)
            if kind == 0:
                spec = SinusoidForcing(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 4)),
                                       float(rng.uniform(0, 2 * math.pi)))
            elif kind == 1:
                t_on = float(rng.uniform(0.1, 1.5))
                spec = PulseForcing(float(rng.uniform(-2, 2)), t_on, t_on + float(rng.uniform(0.2, 2)))
            else:
                spec = TabulatedForcing(samples=tuple(
                    (float(t), float(rng.uniform(-1, 1)))
                    for t in np.linspace(0, 6, 7)))
            z0 = PhaseState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            t = float(rng.uniform(0.5, 5.0))
            got = evolve(params, z0, spec, t)
            ref = rk_oracle(params, spec, z0, t)
            assert abs(got.x - ref.x) < 1e-8
            assert abs(got.p - ref.p) < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            evolve(OscillatorParams(1, 1), PhaseState(0, 0), ZeroForcing(), -1.0)

    def test_unforced_flow_at_long_times(self):
        # a zero force is one exact propagator step, however many periods
        params, z0, t = OscillatorParams(1.3, 2.0), PhaseState(0.4, -0.7), 1e7
        z = evolve(params, z0, ZeroForcing(), t)
        assert (z.x, z.p) == tuple(propagator(params, t) @ z0.as_array())


class TestNonhomogeneous:
    def test_zero_forcing(self):
        z = evolve(OscillatorParams(1.0, 1.0), PhaseState(0.0, 0.0), ZeroForcing(), 4.0)
        assert (z.x, z.p) == (0.0, 0.0)

    def test_constant_quarter_period(self):
        z = evolve(OscillatorParams(1.0, 1.0), PhaseState(0.0, 0.0), ConstantForcing(1.0),
                   math.pi / 2)
        assert z.x == pytest.approx(1.0, abs=1e-12)
        assert z.p == pytest.approx(1.0, abs=1e-12)

    def test_sinusoid_frozen_oracle_value(self):
        # DOP853 reference at t = 2: (0.07916559477215568, -0.8076341391471754)
        z = evolve(OscillatorParams(1.0, 1.0), PhaseState(0.0, 0.0),
                   SinusoidForcing(1.0, 2.0, 0.0), 2.0)
        assert z.x == pytest.approx(0.07916559477215568, abs=1e-8)
        assert z.p == pytest.approx(-0.8076341391471754, abs=1e-8)


class TestQuadraticInvariant:
    def test_point_values(self):
        assert quadratic_invariant(OscillatorParams(1, 2), PhaseState(1, 0)) == pytest.approx(2.0)
        assert quadratic_invariant(OscillatorParams(1, 1), PhaseState(0, 3)) == pytest.approx(4.5)
        assert quadratic_invariant(OscillatorParams(2, 3), PhaseState(1, 2)) == pytest.approx(10.0)

    @pytest.mark.parametrize("m", [1e160, 1e-160, 1e300, 1e-300])
    def test_finite_wherever_the_energy_is(self, m):
        # m (w x)^2 and p^2 / m each equal the energy, m/2 or 1/(2m), while
        # x^2 or p^2 alone overflows
        if m > 1.0:
            z, energy = PhaseState(math.sqrt(0.5), -m * math.sqrt(0.5)), 0.5 * m
        else:
            z, energy = PhaseState(math.sqrt(0.5) / m, math.sqrt(0.5)), 0.5 / m
        assert quadratic_invariant(OscillatorParams(m, 1.0), z) == pytest.approx(energy, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        ZeroForcing(),
        ConstantForcing(0.7),
        SinusoidForcing(1.0, 2.0, 0.3),
        PulseForcing(1.0, 0.4, 1.1),
    ])
    def test_conserved_in_moving_frame(self, spec):
        # <z - z_nh, Q (z - z_nh)> stays at its initial value along the flow
        params = OscillatorParams(1.5, 1.2)
        z0 = PhaseState(0.8, -0.5)
        ref = quadratic_invariant(params, z0)
        for t in np.linspace(0.1, 4.0, 9):
            z = evolve(params, z0, spec, float(t))
            znh = evolve(params, PhaseState(0.0, 0.0), spec, float(t))
            inv = quadratic_invariant(params, PhaseState(z.x - znh.x, z.p - znh.p))
            assert abs(inv - ref) / max(1.0, abs(ref)) < 1e-8


class TestLaboratoryEllipse:
    def test_starts_at_origin(self):
        z = laboratory_ellipse(OscillatorParams(1, 1), 1.0, 0.0)
        assert (z.x, z.p) == (0.0, 0.0)

    def test_half_period(self):
        z = laboratory_ellipse(OscillatorParams(1, 1), 1.0, math.pi)
        assert z.x == pytest.approx(2.0)
        assert z.p == pytest.approx(0.0, abs=1e-15)

    def test_fast_oscillator_point(self):
        # quarter period of w = 2 pi: 1 - cos(wt) = 1, sin(wt) = 1
        # (RK oracle: x = 0.025330295910584208, p = 0.15915494309189523)
        z = laboratory_ellipse(OscillatorParams(1.0, 2 * math.pi), 1.0, 0.25)
        assert z.x == pytest.approx(1.0 / (4 * math.pi**2))
        assert z.p == pytest.approx(1.0 / (2 * math.pi))

    @pytest.mark.parametrize("m,w,K", [(1.0, 1.0, 1.0), (2.0, 1.3, -0.7), (0.5, 2 * math.pi, 2.0)])
    def test_matches_response_integral(self, m, w, K):
        # closed form must agree with the quadrature route at every mass
        params = OscillatorParams(m, w)
        for t in (0.3, 1.1, 2.9):
            closed = laboratory_ellipse(params, K, t)
            numeric = evolve(params, PhaseState(0.0, 0.0), ConstantForcing(K), t)
            assert closed.x == pytest.approx(numeric.x, abs=1e-11)
            assert closed.p == pytest.approx(numeric.p, abs=1e-11)

    def test_free_particle_rejected(self):
        with pytest.raises(DomainError):
            laboratory_ellipse(OscillatorParams(1.0, 0.0), 1.0, 1.0)


class TestValidation:
    def test_mass_must_be_positive(self):
        with pytest.raises(DomainError):
            OscillatorParams(0.0, 1.0)
        with pytest.raises(DomainError):
            OscillatorParams(-1.0, 1.0)

    def test_omega_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            OscillatorParams(1.0, -0.5)

    def test_phase_state_must_be_finite(self):
        with pytest.raises(DomainError):
            PhaseState(math.inf, 0.0)
