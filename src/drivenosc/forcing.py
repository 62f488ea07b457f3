"""Time-dependent driving force k(t).

A force profile is one of five variants: zero, constant, sinusoid, a
rectangular pulse, or a tabulated series with linear interpolation.  Each
is smooth except at the finitely many kinks listed by ``breakpoints``
(pulse edges, table knots), where the integration routines split;
``vanishes`` tells where k is zero, which the response walk steps over.

``evaluate`` takes one time or an ndarray of times.  Each variant has a
scalar ``_value``, which the oracles call point by point, and a numpy
``_values``, which the response walk and the frame reads call once per
block.

All specs are frozen dataclasses: immutable, hashable, safe to share
between threads, and serializable to a small JSON object.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
        return self._value(t)

    def _value(self, t: float) -> float:
        raise NotImplementedError

    def _values(self, t: np.ndarray) -> np.ndarray:
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

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroForcing(ForcingSpec):
    def _value(self, t):
        return 0.0

    def _values(self, t):
        return np.zeros(t.shape)

    def vanishes(self, t0, t1):
        return True

    def to_dict(self):
        return {"type": "zero"}


@dataclass(frozen=True)
class ConstantForcing(ForcingSpec):
    K: float

    def _value(self, t):
        return self.K

    def _values(self, t):
        return np.full(t.shape, float(self.K))

    def vanishes(self, t0, t1):
        return self.K == 0.0

    def to_dict(self):
        return {"type": "constant", "K": self.K}


@dataclass(frozen=True)
class SinusoidForcing(ForcingSpec):
    """k(t) = A cos(Omega t + phi)."""

    A: float
    Omega: float
    phi: float = 0.0

    def _value(self, t):
        return self.A * math.cos(self.Omega * t + self.phi)

    def _values(self, t):
        return self.A * np.cos(self.Omega * t + self.phi)

    def vanishes(self, t0, t1):
        return self.A == 0.0

    def oscillation_rate(self):
        return abs(self.Omega)

    def to_dict(self):
        return {"type": "sinusoid", "A": self.A, "Omega": self.Omega, "phi": self.phi}


@dataclass(frozen=True)
class PulseForcing(ForcingSpec):
    """Constant force K switched on over [t_on, t_off), zero elsewhere."""

    K: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if not (self.t_on < self.t_off):
            raise DomainError(f"pulse needs t_on < t_off, got [{self.t_on}, {self.t_off}]")

    def _value(self, t):
        return self.K if self.t_on <= t < self.t_off else 0.0

    def _values(self, t):
        return np.where((self.t_on <= t) & (t < self.t_off), float(self.K), 0.0)

    def breakpoints(self, t0, t1):
        return tuple(p for p in (self.t_on, self.t_off) if t0 < p < t1)

    def vanishes(self, t0, t1):
        return self.K == 0.0 or t1 <= self.t_on or t0 >= self.t_off

    def to_dict(self):
        return {"type": "pulse", "K": self.K, "t_on": self.t_on, "t_off": self.t_off}


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
        times = [t for t, _ in samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("tabulated forcing needs strictly increasing times")
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_knots", np.array(samples).T)

    def _value(self, t):
        times = self._times
        if t < times[0] or t > times[-1]:
            return 0.0
        i = bisect_right(times, t)
        if i == len(times):
            return self.samples[-1][1]
        if i == 0:
            return self.samples[0][1]
        (t0, k0), (t1, k1) = self.samples[i - 1], self.samples[i]
        if t == t0:
            return k0
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def _values(self, t):
        times, ks = self._knots
        i = np.clip(np.searchsorted(times, t, side="right"), 1, len(times) - 1)
        t0, t1, k0, k1 = times[i - 1], times[i], ks[i - 1], ks[i]
        with np.errstate(over="ignore", invalid="ignore"):  # masked below
            k = k0 + (k1 - k0) * (t - t0) / (t1 - t0)
        k = np.where(t == t0, k0, np.where(t == times[-1], ks[-1], k))
        return np.where((t < times[0]) | (t > times[-1]), 0.0, k)

    def breakpoints(self, t0, t1):
        times = self._times
        return tuple(times[bisect_right(times, t0):bisect_left(times, t1)])

    def vanishes(self, t0, t1):
        return t1 <= self._times[0] or t0 >= self._times[-1]

    def to_dict(self):
        return {"type": "tabulated", "samples": [[t, k] for t, k in self.samples]}


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
