"""Classical driven oscillator: exact propagator plus response integral.

Equations of motion for H = p^2/2m + m w^2 x^2/2 - x k(t):

    d/dt (x, p) = A (x, p) + (0, k(t)),   A = [[0, 1/m], [-m w^2, 0]]

The homogeneous flow is the exact matrix exponential U(t) = exp(A t); the
driven solution is U(t) z0 plus the convolution of U with (0, k).  The flow
preserves the quadratic form diag(m w^2/2, 1/(2m)): orbits in the frame of
the zero-initial-condition response z_nh(t) are ellipses of constant
"energy", which is the main conserved diagnostic exported here.

w = 0 is the free-particle limit; sin(w t)/w goes over to t there, so the
propagator needs no separate branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .forcing import ForcingSpec
from .quadrature import adaptive_gauss_kronrod


@dataclass(frozen=True)
class OscillatorParams:
    """Mass and angular frequency defining both Hamiltonians."""

    m: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"mass must be positive and finite, got {self.m!r}")
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise DomainError(f"omega must be >= 0 and finite, got {self.omega!r}")


@dataclass(frozen=True)
class PhaseState:
    """A phase-space point (position, momentum)."""

    x: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise DomainError(f"phase-space point must be finite, got ({self.x!r}, {self.p!r})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.p])


def _sin_over_omega(omega: float, t):
    """sin(w t)/w elementwise, as t sinc(w t / pi): equal to t at w = 0."""
    return t * np.sinc(omega * t / math.pi)


def propagator(params: OscillatorParams, t: float) -> np.ndarray:
    """Homogeneous-flow matrix U(t); symplectic, U(t+s) = U(t)U(s)."""
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    m, w = params.m, params.omega
    c = math.cos(w * t)
    s1 = _sin_over_omega(w, t)  # sin(wt)/w
    return np.array([[c, s1 / m], [-m * w * w * s1, c]])


def quadratic_form_matrix(params: OscillatorParams) -> np.ndarray:
    """Matrix of the conserved form: diag(m w^2 / 2, 1/(2m))."""
    return np.diag([0.5 * params.m * params.omega**2, 0.5 / params.m])


def quadratic_invariant(params: OscillatorParams, z: PhaseState) -> float:
    """<z, Q z> with Q = diag(m w^2/2, 1/(2m)) — the unforced energy."""
    return 0.5 * (params.m * params.omega**2 * z.x**2 + z.p**2 / params.m)


def _duhamel(params: OscillatorParams, spec: ForcingSpec, t0: float, t1: float,
             tol: float) -> np.ndarray:
    """Integral of U(t1 - s) (0, k(s)) over [t0, t1]."""
    m, w = params.m, params.omega

    def integrand(s: float) -> np.ndarray:
        k = spec.evaluate(s)
        dt = t1 - s
        # scalar sin(w dt)/w: np.sinc would cost ~10 us per call here
        sin_over_w = math.sin(w * dt) / w if w else dt
        return np.array([sin_over_w / m * k, math.cos(w * dt) * k])

    return adaptive_gauss_kronrod(
        integrand, t0, t1, tol=tol, breakpoints=spec.breakpoints(t0, t1)
    )


def evolve(params: OscillatorParams, z0: PhaseState, spec: ForcingSpec,
           t: float, tol: float = 1e-10) -> PhaseState:
    """State at time t >= 0: U(t) z0 plus the driven response integral."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"evolve needs finite t >= 0, got {t!r}")
    z = propagator(params, t) @ z0.as_array()
    if t > 0.0:
        z = z + _duhamel(params, spec, 0.0, t, tol)
    return PhaseState(float(z[0]), float(z[1]))


def nonhomogeneous(params: OscillatorParams, spec: ForcingSpec, t: float,
                   tol: float = 1e-10) -> PhaseState:
    """Zero-initial-condition response z_nh(t): the moving frame's center."""
    return evolve(params, PhaseState(0.0, 0.0), spec, t, tol)


def laboratory_ellipse(params: OscillatorParams, K: float, t: float) -> PhaseState:
    """Closed form of z_nh(t) for constant force K:

        x_nh = K (1 - cos(w t)) / (m w^2),   p_nh = K sin(w t) / w

    (momentum convention p = m xdot).  Matches nonhomogeneous() for every
    mass; needs w > 0, since the w = 0 orbit is no longer an ellipse.
    """
    w = params.omega
    if w <= 0.0:
        raise DomainError("laboratory ellipse needs omega > 0")
    x = K * (1.0 - math.cos(w * t)) / (params.m * w * w)
    p = K * math.sin(w * t) / w
    return PhaseState(x, p)
