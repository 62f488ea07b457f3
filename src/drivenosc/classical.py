"""Classical driven oscillator: exact propagator plus the response walk.

Equations of motion for H = p^2/2m + m w^2 x^2/2 - x k(t):

    d/dt (x, p) = A (x, p) + (0, k(t)),   A = [[0, 1/m], [-m w^2, 0]]

The homogeneous flow is the exact matrix exponential U(t) = exp(A t); the
driven solution is U(t) z0 plus the zero-initial-condition response
z_nh(t), the convolution of U with (0, k).  The flow preserves the
quadratic form diag(m w^2/2, 1/(2m)): orbits in the frame of z_nh are
ellipses of constant "energy", which is the main conserved diagnostic
exported here.

This module owns the one response kernel, ``_walk``: it carries
(x, p, J = integral_0^t x k ds) across 15-point Kronrod panels, exact to
rounding.  ``evolve``, ``nonhomogeneous`` and the canonical frame all run
on it.  ``_duhamel`` integrates the convolution directly by adaptive
Gauss-Kronrod, with no carried state and no spectral matrix, and serves
only as the independent oracle behind ``CanonicalFrame.exact_values``.

w = 0 is the free-particle limit; sin(w t)/w goes over to t there, so the
propagator needs no separate branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .forcing import ForcingSpec
from .quadrature import _KRONROD_NODES, _KRONROD_WEIGHTS, adaptive_gauss_kronrod

# Most panels one walk may add to its stops and the kinks of k (about 2 s),
# and panels per vectorized block (a few MB of temporaries).
_PANEL_BUDGET = 200_000
_CHUNK = 2048


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


def _spectral_matrix(nodes: np.ndarray) -> np.ndarray:
    """S[i, j] = integral_{-1}^{x_i} l_j(s) ds for the Lagrange basis l_j on
    the nodes x_i, so S @ f(x) is the running integral of the interpolant
    of f.  Built in the Legendre basis, where both steps are well posed."""
    leg = np.polynomial.legendre
    eye = np.eye(len(nodes))
    running = np.stack([leg.legval(nodes, leg.legint(c, lbnd=-1.0)) for c in eye], axis=1)
    return np.linalg.solve(leg.legvander(nodes, len(nodes) - 1).T, running.T).T


_SPECTRAL = _spectral_matrix(_KRONROD_NODES)


def _panel_len(params: OscillatorParams, spec: ForcingSpec) -> float:
    rate = max(params.omega, spec.oscillation_rate())
    return 0.25 / rate if rate > 0.0 else math.inf


def _walk(params: OscillatorParams, spec: ForcingSpec, t0: float, t1: float,
          x0: float, p0: float, j0: float):
    """Panel edges of [t0, t1] and (x, p, J) of the response at each, from
    (x0, p0, j0) at t0, where p = m xdot and J(t) = integral_0^t x k ds.

    Panel edges are t0, t1, the kinks of k and splits to ``_panel_len``;
    a span where k vanishes is one panel.  On a panel [a, b] the state is
    z(u) = U(u - a) (z(a) + c(u)) with c(u) = integral_a^u U(a - s) (0, k(s)) ds:
    the 15-point Kronrod rule gives c(b) and the spectral matrix gives c at
    the interior nodes, where x feeds the rule for J.  k is smooth on each
    panel, so all of it is exact to rounding.  More than ``_PANEL_BUDGET``
    splits, or a state that leaves the floats, raises NumericError.
    """
    m, w = params.m, params.omega
    pts = np.union1d([t0, t1], spec.breakpoints(t0, t1))
    lengths = np.diff(pts)
    quiet = np.array([spec.vanishes(a, b) for a, b in zip(pts[:-1], pts[1:])], dtype=bool)
    with np.errstate(over="ignore"):  # an overflow is an infinite count
        counts = np.maximum(np.ceil(lengths / _panel_len(params, spec)), 1.0)
    counts[quiet] = 1.0
    splits = float(np.sum(counts)) - len(counts)
    if not splits <= _PANEL_BUDGET:
        raise NumericError(f"response walk over [{pts[0]}, {pts[-1]}] needs {splits:.3g} "
                           f"panel splits, over the budget of {_PANEL_BUDGET}")
    counts = counts.astype(int)
    seg = np.repeat(np.arange(len(lengths)), counts)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
    edges = np.append(pts[seg] + lengths[seg] * step / counts[seg], pts[-1])
    live = ~quiet[seg]  # panels where k is evaluated

    xs, ps, js = (np.empty(len(edges)) for _ in range(3))
    xs[0], ps[0], js[0] = x0, p0, j0
    with np.errstate(over="ignore", invalid="ignore"):  # checked per block
        for lo in range(0, len(edges) - 1, _CHUNK):
            hi = min(lo + _CHUNK, len(edges) - 1)
            a, b = edges[lo:hi], edges[lo + 1:hi + 1]
            half = 0.5 * (b - a)
            u = (a + half)[:, None] + half[:, None] * _KRONROD_NODES
            k, rows = np.zeros(u.shape), live[lo:hi]
            k[rows] = np.reshape([spec.evaluate(s) for s in u[rows].ravel()], (-1, u.shape[1]))
            tau = a[:, None] - u
            cos_tau, sin_tau = np.cos(w * tau), _sin_over_omega(w, tau)
            fx, fp = sin_tau / m * k, cos_tau * k  # U(a - u) (0, k(u))
            end_x, end_p = half * (fx @ _KRONROD_WEIGHTS), half * (fp @ _KRONROD_WEIGHTS)

            cos_h, sin_h = np.cos(w * (b - a)), _sin_over_omega(w, b - a)
            x, p = xs[lo], ps[lo]
            for i in range(len(a)):
                x, p = x + end_x[i], p + end_p[i]
                x, p = cos_h[i] * x + sin_h[i] / m * p, cos_h[i] * p - m * w * w * sin_h[i] * x
                xs[lo + i + 1], ps[lo + i + 1] = x, p

            # x at the interior nodes: U(u - a) = U(-tau) applied to z(a) + c(u)
            x_u = (cos_tau * (xs[lo:hi, None] + half[:, None] * (fx @ _SPECTRAL.T))
                   - sin_tau / m * (ps[lo:hi, None] + half[:, None] * (fp @ _SPECTRAL.T)))
            js[lo + 1:hi + 1] = js[lo] + np.cumsum(half * ((x_u * k) @ _KRONROD_WEIGHTS))
            if not (math.isfinite(xs[hi]) and math.isfinite(ps[hi]) and math.isfinite(js[hi])):
                block = slice(lo + 1, hi + 1)  # non-finite stays non-finite
                finite = np.isfinite(xs[block]) & np.isfinite(ps[block]) & np.isfinite(js[block])
                raise NumericError(f"response walk over [{pts[0]}, {pts[-1]}] left the "
                                   f"floating-point range at t = {edges[block][~finite][0]:.6g}")
    return edges, xs, ps, js


def nonhomogeneous(params: OscillatorParams, spec: ForcingSpec, t: float) -> PhaseState:
    """Zero-initial-condition response z_nh(t), by one walk from 0: the
    moving frame's center."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"the response needs finite t >= 0, got {t!r}")
    _, xs, ps, _ = _walk(params, spec, 0.0, t, 0.0, 0.0, 0.0)
    return PhaseState(float(xs[-1]), float(ps[-1]))


def evolve(params: OscillatorParams, z0: PhaseState, spec: ForcingSpec,
           t: float) -> PhaseState:
    """State at time t >= 0: U(t) z0 plus the driven response z_nh(t)."""
    znh = nonhomogeneous(params, spec, t)
    z = propagator(params, t) @ z0.as_array()
    return PhaseState(float(z[0]) + znh.x, float(z[1]) + znh.p)


def _duhamel(params: OscillatorParams, spec: ForcingSpec, t0: float, t1: float,
             tol: float) -> np.ndarray:
    """Integral of U(t1 - s) (0, k(s)) over [t0, t1] by adaptive quadrature;
    the walk's independent oracle (see ``CanonicalFrame.exact_values``)."""
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
