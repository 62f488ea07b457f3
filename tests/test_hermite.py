import math

import numpy as np
import pytest

from drivenosc import hermite
from drivenosc import (
    DomainError,
    OscillatorParams,
    eigen_energy,
    eigenstate,
    gauss_hermite_rule,
    gaussian_integral,
    generating_function_partial,
    hermite_poly,
)


def series_coefficient_oracle(n, x):
    """n-th Taylor coefficient (times n!) of e^{2xu - u^2}: the explicit
    double-factorial sum, sharing nothing with the recurrence."""
    return math.factorial(n) * sum(
        (-1.0) ** j * (2.0 * x) ** (n - 2 * j) / (math.factorial(j) * math.factorial(n - 2 * j))
        for j in range(n // 2 + 1)
    )


class TestHermitePoly:
    def test_low_orders(self):
        assert hermite_poly(0, 0.37) == 1.0
        assert hermite_poly(1, 0.5) == 1.0
        assert hermite_poly(2, 1.0) == 2.0
        assert hermite_poly(3, 1.0) == -4.0

    def test_vs_series_oracle(self):
        rng = np.random.default_rng(20)
        for n in range(16):
            for x in rng.uniform(-2, 2, 6):
                ref = series_coefficient_oracle(n, float(x))
                got = hermite_poly(n, float(x))
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_array_input(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(hermite_poly(2, x), 4 * x**2 - 2)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            hermite_poly(-1, 0.0)


class TestGeneratingFunction:
    def test_at_origin(self):
        assert generating_function_partial(0.0, 0.0, 0) == 1.0

    def test_converges_to_exponential(self):
        assert generating_function_partial(1.0, 0.1, 30) == pytest.approx(
            math.exp(2 * 0.1 - 0.01), abs=1e-12)
        assert generating_function_partial(-0.5, 0.3, 40) == pytest.approx(
            math.exp(2 * -0.5 * 0.3 - 0.09), abs=1e-12)


class TestGaussianIntegral:
    def test_reference_points(self):
        assert gaussian_integral(0.0) == pytest.approx(math.sqrt(math.pi))
        assert gaussian_integral(2.0) == pytest.approx(math.sqrt(math.pi) * math.e)
        assert gaussian_integral(2.0j) == pytest.approx(math.sqrt(math.pi) / math.e)

    def test_vs_quadrature(self):
        nodes, weights = gauss_hermite_rule(80)
        rng = np.random.default_rng(21)
        for _ in range(30):
            z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            if abs(z) > 5.0:
                continue
            quad = complex(np.sum(weights * np.exp(z * nodes)))
            assert abs(gaussian_integral(z) - quad) < 1e-10


class TestEigenstate:
    def test_ground_state_peak(self):
        p = OscillatorParams(1.0, 1.0)
        assert eigenstate(p, 0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_odd_parity_zero_at_origin(self):
        p = OscillatorParams(1.0, 1.0)
        assert eigenstate(p, 1, 0.0) == 0.0

    def test_scaled_parameters(self):
        p = OscillatorParams(2.0, 3.0)
        assert eigenstate(p, 0, 0.5) == pytest.approx(
            (6.0 / math.pi) ** 0.25 * math.exp(-0.75), abs=1e-14)

    def test_orthonormality_gauss_rule(self):
        # scaled to the e^{-y^2} weight, the integrand is pure polynomial
        p = OscillatorParams(1.3, 0.8)
        scale = math.sqrt(p.m * p.omega)
        nodes, weights = gauss_hermite_rule(40)
        for n in range(13):
            hn = hermite_poly(n, nodes)
            for m in range(n, 13):
                hm = hermite_poly(m, nodes)
                val = float(np.sum(weights * hn * hm)) * math.exp(
                    -0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1)
                            + math.lgamma(m + 1) + math.log(math.pi)))
                assert abs(val - (1.0 if n == m else 0.0)) < 1e-10
        # and the assembled eigenstates agree on a dense grid
        x = np.linspace(-14.0 / scale, 14.0 / scale, 8001)
        dx = x[1] - x[0]
        for n in range(0, 13, 3):
            fn = eigenstate(p, n, x)
            for m in range(n, 13, 3):
                fm = eigenstate(p, m, x)
                val = float(np.trapezoid(fn * fm, dx=dx))
                assert abs(val - (1.0 if n == m else 0.0)) < 1e-10

    def test_large_order_stays_finite_and_normalized(self):
        p = OscillatorParams(1.0, 1.0)
        x = np.linspace(-30.0, 30.0, 16385)
        vals = eigenstate(p, 150, x)
        assert np.all(np.isfinite(vals))
        norm = float(np.trapezoid(vals * vals, dx=x[1] - x[0]))
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_grid_eigenvalue_identity(self):
        # spectral Hamiltonian applied on a grid reproduces E_n psi_n
        p = OscillatorParams(1.0, 1.0)
        n_pts = 1024
        half = 12.0
        dx = 2 * half / n_pts
        x = -half + dx * np.arange(n_pts)
        k2 = (2 * math.pi * np.fft.fftfreq(n_pts, d=dx)) ** 2
        for n in range(9):
            psi = eigenstate(p, n, x)
            hpsi = np.fft.ifft(k2 / (2 * p.m) * np.fft.fft(psi)).real \
                + 0.5 * p.m * p.omega**2 * x**2 * psi
            assert np.max(np.abs(hpsi - eigen_energy(p, n) * psi)) < 1e-6

    def test_free_particle_rejected(self):
        with pytest.raises(DomainError):
            eigenstate(OscillatorParams(1.0, 0.0), 0, 0.0)

    def test_fractional_order_rejected(self):
        with pytest.raises(DomainError):
            eigenstate(OscillatorParams(1.0, 1.0), 1.5, 0.0)


class TestEigenEnergy:
    def test_values(self):
        assert eigen_energy(OscillatorParams(1.0, 1.0), 0) == 0.5
        assert eigen_energy(OscillatorParams(1.0, 2.0), 3) == 7.0

    def test_uniform_spacing(self):
        p = OscillatorParams(1.0, 1.7)
        gaps = [eigen_energy(p, n + 1) - eigen_energy(p, n) for n in range(6)]
        np.testing.assert_allclose(gaps, p.omega)

    def test_rayleigh_quotient_oracle(self):
        # independent of the closed form: <psi, K psi> on a grid
        p = OscillatorParams(1.0, 2.0)
        n_pts = 1024
        half = 12.0 / math.sqrt(2.0)
        dx = 2 * half / n_pts
        x = -half + dx * np.arange(n_pts)
        k2 = (2 * math.pi * np.fft.fftfreq(n_pts, d=dx)) ** 2
        for n in (0, 3):
            psi = eigenstate(p, n, x)
            hpsi = np.fft.ifft(k2 / (2 * p.m) * np.fft.fft(psi)).real \
                + 0.5 * p.m * p.omega**2 * x**2 * psi
            rayleigh = float(np.sum(psi * hpsi) * dx)
            assert rayleigh == pytest.approx(eigen_energy(p, n), abs=1e-10)


class TestGaussHermiteRule:
    def test_single_node(self):
        nodes, weights = gauss_hermite_rule(1)
        assert nodes[0] == 0.0
        assert weights[0] == pytest.approx(math.sqrt(math.pi))

    def test_two_nodes_closed_form(self):
        nodes, weights = gauss_hermite_rule(2)
        np.testing.assert_allclose(nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
        np.testing.assert_allclose(weights, [math.sqrt(math.pi) / 2] * 2, atol=1e-15)

    def test_fourth_moment(self):
        nodes, weights = gauss_hermite_rule(20)
        assert float(np.sum(weights * nodes**4)) == pytest.approx(
            0.75 * math.sqrt(math.pi), abs=1e-13)

    def test_polynomial_exactness(self):
        # even moments of e^{-x^2}: (2j-1)!! sqrt(pi) / 2^j
        order = 12
        nodes, weights = gauss_hermite_rule(order)
        for j in range(order):  # degree 2j <= 2*order - 2
            ref = math.sqrt(math.pi) * math.prod(range(1, 2 * j, 2)) / 2.0**j
            got = float(np.sum(weights * nodes ** (2 * j)))
            assert got == pytest.approx(ref, rel=1e-12)

    def test_symmetry(self):
        nodes, weights = gauss_hermite_rule(15)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])

    def test_order_limits(self):
        with pytest.raises(DomainError):
            gauss_hermite_rule(0)
        with pytest.raises(DomainError):
            gauss_hermite_rule(201)


class TestGaussHermiteRuleCache:
    @pytest.mark.parametrize("order", [1, 2, 60, 80, 200])
    def test_cached_rule_is_bit_equal_to_a_fresh_one(self, order):
        nodes, weights = gauss_hermite_rule(order)
        fresh_nodes, fresh_weights = hermite._rule.__wrapped__(order)
        np.testing.assert_array_equal(nodes, fresh_nodes)
        np.testing.assert_array_equal(weights, fresh_weights)
        again = gauss_hermite_rule(float(order))
        assert again[0] is nodes and again[1] is weights

    def test_returned_arrays_reject_writes(self):
        nodes, weights = gauss_hermite_rule(60)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights *= 2.0
        assert gauss_hermite_rule(60)[1][0] == hermite._rule.__wrapped__(60)[1][0]

    @pytest.mark.parametrize("order", [0, -3, 2.5, 201, 10**6])
    def test_bad_orders_raise_before_the_cache(self, order):
        with pytest.raises(DomainError):
            gauss_hermite_rule(order)
