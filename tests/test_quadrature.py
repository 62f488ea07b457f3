import math

import numpy as np
import pytest
from scipy.integrate import quad

from drivenosc.errors import NumericError
from drivenosc.quadrature import (
    adaptive_gauss_kronrod,
    fixed_gauss_kronrod,
)


def test_gauss_kronrod_vector_integrand():
    got = adaptive_gauss_kronrod(lambda s: np.array([math.sin(s), math.cos(s)]),
                                 0.0, math.pi, tol=1e-12)
    np.testing.assert_allclose(got, [2.0, 0.0], atol=1e-12)


def test_gauss_kronrod_oscillatory_vs_quadpack():
    f = lambda s: math.cos(40.0 * s) * math.exp(-0.3 * s)
    ref, _ = quad(f, 0.0, 3.0, epsabs=1e-13, limit=200)
    got = adaptive_gauss_kronrod(lambda s: np.array([f(s)]), 0.0, 3.0, tol=1e-12)
    assert got[0] == pytest.approx(ref, abs=1e-11)


def test_gauss_kronrod_budget_exhaustion_carries_partial():
    f = lambda s: np.array([math.sin(1e4 * s)])
    with pytest.raises(NumericError) as exc:
        adaptive_gauss_kronrod(f, 0.0, 1.0, tol=1e-14, limit=3)
    assert exc.value.partial is not None


def test_gauss_kronrod_empty_interval():
    np.testing.assert_array_equal(
        adaptive_gauss_kronrod(lambda s: np.array([1.0, 2.0]), 1.5, 1.5), [0.0, 0.0])


def test_fixed_rule_polynomial_exact():
    got = fixed_gauss_kronrod(lambda s: np.array([s**6]), -1.0, 2.0)
    assert got[0] == pytest.approx((2.0**7 + 1.0) / 7.0, rel=1e-14)


def test_fixed_rule_panels_resolve_oscillation():
    f = lambda s: np.array([math.cos(20.0 * s)])
    ref = math.sin(20.0 * 2.0) / 20.0
    coarse = fixed_gauss_kronrod(f, 0.0, 2.0)[0]
    fine = fixed_gauss_kronrod(f, 0.0, 2.0, panel_len=0.0125)[0]
    assert abs(fine - ref) < 1e-14
    assert abs(fine - ref) <= abs(coarse - ref)


def test_fixed_rule_respects_breakpoints():
    f = lambda s: np.array([1.0 if s < 0.5 else 3.0])
    got = fixed_gauss_kronrod(f, 0.0, 1.0, breakpoints=[0.5])[0]
    assert got == pytest.approx(2.0, abs=1e-14)
