"""Time-dependent driving force k(t).

A force profile is one of five variants: zero, constant, sinusoid, a
rectangular pulse, or a tabulated series with linear interpolation.  Each
is smooth except at the finitely many kinks listed by ``breakpoints``
(pulse edges, table knots), where the integration routines split;
``vanishes`` tells where k is zero, which the response walk steps over.

``evaluate`` takes one time or an ndarray of times.  Each variant has one
kernel, ``_values``, plain numpy arithmetic that takes either: the
response walk and the frame reads call it once per block, the oracles
point by point.

All specs are frozen dataclasses: immutable, hashable and safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ForcingSpec:
    """Base class for force profiles; subclasses implement k(t)."""

    def evaluate(self, t):
        """Force at time t, or at every time of an ndarray t (same shape).
        Pure and deterministic."""
        if type(t) is np.ndarray:
            if not np.all(np.isfinite(t)):
                raise DomainError(f"time must be finite, got {float(t[~np.isfinite(t)][0])!r}")
            return self._values(t)
        if not math.isfinite(t):
            raise DomainError(f"time must be finite, got {t!r}")
        return float(self._values(t))

    def _values(self, t):
        """k at a float or elementwise over an ndarray, as float64."""
        raise NotImplementedError

    def breakpoints(self, t0: float, t1: float) -> tuple[float, ...]:
        """Times in (t0, t1) where k has a kink or a jump.

        Quadrature routines split integration intervals here instead of
        discovering the kinks adaptively.
        """
        return ()

    def vanishes(self, t0: float, t1: float) -> bool:
        """True if k is known to be zero on all of (t0, t1).

        The response walk crosses such a span in one exact propagator step.
        """
        return False

    def oscillation_rate(self) -> float:
        """Fastest angular rate in k(t); 0 for non-oscillatory profiles.

        Lets quadrature panels be sized to resolve the integrand.
        """
        return 0.0


@dataclass(frozen=True)
class ZeroForcing(ForcingSpec):
    def _values(self, t):
        return 0.0 * t + 0.0  # 0.0 * t alone is -0.0 at a negative t

    def vanishes(self, t0, t1):
        return True


@dataclass(frozen=True)
class ConstantForcing(ForcingSpec):
    K: float

    def _values(self, t):
        return self.K + 0.0 * t

    def vanishes(self, t0, t1):
        return self.K == 0.0


@dataclass(frozen=True)
class SinusoidForcing(ForcingSpec):
    """k(t) = A cos(Omega t + phi)."""

    A: float
    Omega: float
    phi: float = 0.0

    def _values(self, t):
        return self.A * np.cos(self.Omega * t + self.phi)

    def vanishes(self, t0, t1):
        return self.A == 0.0

    def oscillation_rate(self):
        return abs(self.Omega)


@dataclass(frozen=True)
class PulseForcing(ForcingSpec):
    """Constant force K switched on over [t_on, t_off), zero elsewhere."""

    K: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if not (self.t_on < self.t_off):
            raise DomainError(f"pulse needs t_on < t_off, got [{self.t_on}, {self.t_off}]")

    def _values(self, t):
        # + 0.0 makes an integer K float and the -0.0 of a negative K off the pulse 0.0
        return self.K * ((self.t_on <= t) & (t < self.t_off)) + 0.0

    def breakpoints(self, t0, t1):
        return tuple(p for p in (self.t_on, self.t_off) if t0 < p < t1)

    def vanishes(self, t0, t1):
        return self.K == 0.0 or t1 <= self.t_on or t0 >= self.t_off


@dataclass(frozen=True)
class TabulatedForcing(ForcingSpec):
    """Piecewise-linear interpolation of (time, force) samples.

    Returns 0 outside the sampled range: the force is switched off where
    no data defines it.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        samples = tuple((float(t), float(k)) for t, k in self.samples)
        object.__setattr__(self, "samples", samples)
        if len(samples) < 2:
            raise DomainError("tabulated forcing needs at least 2 samples")
        times, ks = np.array(samples).T
        if np.any(np.diff(times) <= 0):
            raise DomainError("tabulated forcing needs strictly increasing times")
        # knots scaled by a power of two into [-1, 1], so that no slope
        # np.interp forms overflows; exact for knots above 2^-1021 of the largest
        e = math.frexp(float(np.max(np.abs(ks))))[1]
        object.__setattr__(self, "_knots", (times, np.ldexp(ks, -e), e))

    def _values(self, t):
        times, ks, e = self._knots
        return np.ldexp(np.interp(t, times, ks, left=0.0, right=0.0), e)

    def breakpoints(self, t0, t1):
        times = self._knots[0]
        lo, hi = np.searchsorted(times, t0, side="right"), np.searchsorted(times, t1, side="left")
        return tuple(times[lo:hi].tolist())

    def vanishes(self, t0, t1):
        times = self._knots[0]
        return bool(t1 <= times[0] or t0 >= times[-1])


_VARIANTS = {
    "zero": ZeroForcing,
    "constant": ConstantForcing,
    "sinusoid": SinusoidForcing,
    "pulse": PulseForcing,
    "tabulated": TabulatedForcing,
}


def forcing_from_dict(data: dict) -> ForcingSpec:
    """Rebuild a ForcingSpec from its JSON object form."""
    if not isinstance(data, dict) or "type" not in data:
        raise DomainError(f"forcing JSON must be an object with a 'type' key, got {data!r}")
    kind = data["type"]
    if kind not in _VARIANTS:
        raise DomainError(f"unknown forcing type {kind!r}")
    fields = {k: v for k, v in data.items() if k != "type"}
    if kind == "tabulated":
        try:
            fields["samples"] = tuple((float(t), float(k)) for t, k in fields["samples"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad tabulated samples: {exc}") from exc
    try:
        return _VARIANTS[kind](**fields)
    except TypeError as exc:
        raise DomainError(f"bad fields for forcing type {kind!r}: {exc}") from exc
