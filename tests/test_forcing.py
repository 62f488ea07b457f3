import dataclasses
import math

import numpy as np
import pytest

from drivenosc import (
    ConstantForcing,
    DomainError,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    ZeroForcing,
    forcing_from_dict,
)
from drivenosc.forcing import _VARIANTS

ALL_SPECS = [
    ZeroForcing(),
    ConstantForcing(K=2.0),
    SinusoidForcing(A=1.0, Omega=math.pi, phi=0.0),
    PulseForcing(K=1.5, t_on=0.5, t_off=2.0),
    TabulatedForcing(samples=((0.0, 0.0), (1.0, 2.0), (2.5, -1.0))),
]


def reference(spec, t):
    """k(t) at one time, straight from the definition of each variant."""
    if isinstance(spec, ZeroForcing):
        return 0.0
    if isinstance(spec, ConstantForcing):
        return spec.K
    if isinstance(spec, SinusoidForcing):
        return spec.A * math.cos(spec.Omega * t + spec.phi)
    if isinstance(spec, PulseForcing):
        return spec.K if spec.t_on <= t < spec.t_off else 0.0
    for (t0, k0), (t1, k1) in zip(spec.samples, spec.samples[1:]):
        if t == t0 or t == t1:
            return k0 if t == t0 else k1
        if t0 < t < t1:  # on halved knots, so that k1 - k0 cannot overflow
            return 2.0 * (0.5 * k0 + (0.5 * k1 - 0.5 * k0) * (t - t0) / (t1 - t0))
    return 0.0


class TestEvaluate:
    def test_zero(self):
        assert ZeroForcing().evaluate(3.7) == 0.0

    def test_constant(self):
        assert ConstantForcing(K=2.0).evaluate(5.0) == 2.0

    def test_sinusoid_quarter_period(self):
        # cos(pi/2) = 0
        assert SinusoidForcing(A=1.0, Omega=math.pi, phi=0.0).evaluate(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_pulse_window(self):
        p = PulseForcing(K=1.5, t_on=0.5, t_off=2.0)
        assert p.evaluate(0.4) == 0.0
        assert p.evaluate(1.0) == 1.5
        assert p.evaluate(2.1) == 0.0
        # a negative K leaves +0.0 off the pulse, not -0.0
        for t in (0.4, np.array([0.4, 2.1])):
            off = PulseForcing(K=-1.5, t_on=0.5, t_off=2.0).evaluate(t)
            assert np.all(np.copysign(1.0, off) == 1.0)

    def test_tabulated_interpolation_and_outside(self):
        t = TabulatedForcing(samples=((0.0, 0.0), (1.0, 2.0), (2.5, -1.0)))
        assert t.evaluate(0.5) == pytest.approx(1.0)
        assert t.evaluate(1.75) == pytest.approx(0.5)
        assert t.evaluate(-0.1) == 0.0
        assert t.evaluate(3.0) == 0.0

    def test_tabulated_exact_at_samples(self):
        samples = ((0.0, 0.3), (0.7, -1.2), (1.1, 0.9), (4.0, 2.0))
        t = TabulatedForcing(samples=samples)
        for ts, ks in samples:
            assert t.evaluate(ts) == ks  # exact, not approximate

    def test_tabulated_line_between_knots_whose_difference_overflows(self):
        spec = TabulatedForcing(samples=((0.0, -1e308), (1.0, 1e308), (2.0, 0.0)))
        np.testing.assert_array_equal(spec.evaluate(np.array([0.25, 0.5, 0.75, 1.5])),
                                      [-5e307, 0.0, 5e307, 5e307])
        assert spec.evaluate(0.25) == -5e307

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_nonfinite_time_rejected(self, spec):
        with pytest.raises(DomainError):
            spec.evaluate(math.inf)
        with pytest.raises(DomainError):
            spec.evaluate(math.nan)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                spec.evaluate(np.array([0.5, bad, 1.0]))

    @pytest.mark.parametrize("spec", ALL_SPECS + [
        TabulatedForcing(samples=tuple((0.3 * i - 0.6, math.sin(1.7 * i)) for i in range(16))),
        # k1 - k0 overflows: a knot still returns its own value, not inf * 0
        TabulatedForcing(samples=((0.0, -1e308), (1.0, 1e308), (2.0, 0.0))),
        # integers from JSON still give a float time by time and float64 arrays
        forcing_from_dict({"type": "constant", "K": 2}),
        forcing_from_dict({"type": "sinusoid", "A": 3, "Omega": 2}),
        forcing_from_dict({"type": "pulse", "K": -3, "t_on": 0.5, "t_off": 2}),
    ])
    def test_array_matches_scalar(self, spec):
        # pulse edges, every knot and both table ends exactly, points just
        # beside them, times outside the table and a spread in between
        special = [0.5, 2.0, -1.0, 0.0, 1e-300]
        if isinstance(spec, TabulatedForcing):
            special += [t for t, _ in spec.samples]
        special = np.array(special)
        ts = np.concatenate([special, np.nextafter(special, -np.inf),
                             np.nextafter(special, np.inf), np.linspace(-3.0, 6.0, 401)])
        expected = np.array([reference(spec, float(t)) for t in ts])
        scalar = np.array([spec.evaluate(float(t)) for t in ts])
        batched = spec.evaluate(ts)
        assert type(spec.evaluate(0.3)) is float
        assert type(batched) is np.ndarray and batched.dtype == np.float64
        assert batched.shape == ts.shape
        np.testing.assert_array_equal(scalar, batched)
        if isinstance(spec, SinusoidForcing):  # numpy's cos against math.cos
            np.testing.assert_allclose(batched, expected, rtol=0.0, atol=1e-15 * abs(spec.A))
        elif isinstance(spec, TabulatedForcing):
            times, ks = np.array(spec.samples).T
            knot = np.isin(ts, times)
            outside = (ts < times[0]) | (ts > times[-1])
            np.testing.assert_array_equal(batched[knot], ks[np.searchsorted(times, ts[knot])])
            np.testing.assert_array_equal(batched[outside], 0.0)
            # between knots, two roundings of the same line: 2 ulp of the knot values
            np.testing.assert_allclose(batched, expected, rtol=0.0,
                                       atol=2 * np.spacing(np.max(np.abs(ks))))
        else:
            np.testing.assert_array_equal(batched, expected)
        np.testing.assert_array_equal(spec.evaluate(np.stack([ts, ts])), np.stack([batched, batched]))
        assert spec.evaluate(np.array([])).shape == (0,)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_deterministic(self, spec):
        for t in (0.0, 0.31, 1.78, 2.4):
            assert spec.evaluate(t) == spec.evaluate(t)


class TestVanishes:
    @pytest.mark.parametrize("spec, t0, t1, expected", [
        (ZeroForcing(), 0.0, 1e9, True),
        (ConstantForcing(K=0.0), 0.0, 5.0, True),
        (ConstantForcing(K=2.0), 0.0, 5.0, False),
        (SinusoidForcing(A=0.0, Omega=3.0), 0.0, 5.0, True),
        (SinusoidForcing(A=1.0, Omega=3.0), 0.0, 5.0, False),
        (PulseForcing(K=1.5, t_on=0.5, t_off=2.0), 0.0, 0.5, True),
        (PulseForcing(K=1.5, t_on=0.5, t_off=2.0), 2.0, 9.0, True),
        (PulseForcing(K=1.5, t_on=0.5, t_off=2.0), 0.0, 0.6, False),
        (PulseForcing(K=1.5, t_on=0.5, t_off=2.0), 1.9, 9.0, False),
        (TabulatedForcing(samples=((1.0, 2.0), (2.5, -1.0))), 0.0, 1.0, True),
        (TabulatedForcing(samples=((1.0, 2.0), (2.5, -1.0))), 2.5, 7.0, True),
        (TabulatedForcing(samples=((1.0, 2.0), (2.5, -1.0))), 0.0, 1.1, False),
    ])
    def test_only_where_the_force_is_zero(self, spec, t0, t1, expected):
        assert spec.vanishes(t0, t1) is expected
        if expected:  # spot-check the claim on the open interval
            for u in (0.25, 0.5, 0.75):
                assert spec.evaluate(t0 + u * (t1 - t0)) == 0.0


class TestValidation:
    def test_pulse_needs_ordered_window(self):
        with pytest.raises(DomainError):
            PulseForcing(K=1.0, t_on=2.0, t_off=1.0)

    def test_tabulated_needs_two_samples(self):
        with pytest.raises(DomainError):
            TabulatedForcing(samples=((0.0, 1.0),))

    def test_tabulated_needs_increasing_times(self):
        with pytest.raises(DomainError):
            TabulatedForcing(samples=((0.0, 1.0), (0.0, 2.0)))


class TestSerialization:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec):
        # the JSON object's keys are the spec's field names, for every variant
        kind = {cls: name for name, cls in _VARIANTS.items()}[type(spec)]
        clone = forcing_from_dict({"type": kind, **dataclasses.asdict(spec)})
        assert clone == spec
        for t in (0.0, 0.6, 1.3, 3.3):
            assert clone.evaluate(t) == spec.evaluate(t)

    def test_unknown_type_rejected(self):
        with pytest.raises(DomainError):
            forcing_from_dict({"type": "sawtooth"})

    def test_bad_fields_rejected(self):
        with pytest.raises(DomainError):
            forcing_from_dict({"type": "constant", "amplitude": 1.0})
