"""Classical driven oscillator: exact propagator plus the response walk.

Equations of motion for H = p^2/2m + m w^2 x^2/2 - x k(t):

    d/dt (x, p) = A (x, p) + (0, k(t)),   A = [[0, 1/m], [-m w^2, 0]]

The homogeneous flow is the exact matrix exponential U(t) = exp(A t); the
driven solution is U(t) z0 plus the zero-initial-condition response
z_nh(t), the convolution of U with (0, k).  The flow preserves the
quadratic form diag(m w^2/2, 1/(2m)): orbits in the frame of z_nh are
ellipses of constant "energy", which is the main conserved diagnostic
exported here.

This module owns the one response kernel, ``_panels``: it carries
(x, p, J = integral_0^t x k ds) across 15-point Kronrod panels, exact to
rounding.  ``_walk`` chains it over [0, t1] and ``_resume`` reads the
state at any batch of times from a walk's stored edges.  ``evolve`` and
the canonical frame run on it, and ``trajectory`` turns a frame read into
the sampled orbit and its conserved energy.  ``_duhamel``
integrates the convolution directly by adaptive Gauss-Kronrod, with no
carried state and no spectral matrix, and serves only as the independent
oracle behind ``CanonicalFrame.exact_values``.

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
# and panels or frame reads per vectorized block (a few MB of temporaries).
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


def propagator(params: OscillatorParams, t) -> np.ndarray:
    """Homogeneous-flow matrix U(t); symplectic, U(t+s) = U(t)U(s).  For an
    ndarray of times, the stack of U at each time, shape t.shape + (2, 2)."""
    m, w = params.m, params.omega
    if type(t) is np.ndarray:
        if not np.all(np.isfinite(t)):
            raise DomainError(f"time must be finite, got {float(t[~np.isfinite(t)][0])!r}")
        c = np.cos(w * t)
    elif math.isfinite(t):
        c = math.cos(w * t)
    else:
        raise DomainError(f"time must be finite, got {t!r}")
    s1 = _sin_over_omega(w, t)  # sin(wt)/w
    u = np.array([[c, s1 / m], [-m * w * w * s1, c]])
    # contiguous, so that U @ z runs the same product kernel as for one matrix
    return u if u.ndim == 2 else np.ascontiguousarray(np.moveaxis(u, (0, 1), (-2, -1)))


def quadratic_form_matrix(params: OscillatorParams) -> np.ndarray:
    """Matrix of the conserved form: diag(m w^2 / 2, 1/(2m))."""
    return np.diag([0.5 * params.m * params.omega**2, 0.5 / params.m])


def _energy(params: OscillatorParams, x, p):
    """(m (w x)^2 + p (p / m)) / 2 for floats or arrays: no product
    overflows unless the energy does."""
    m, wx = params.m, params.omega * x
    return 0.5 * (m * wx * wx + p * (p / m))


def quadratic_invariant(params: OscillatorParams, z: PhaseState) -> float:
    """<z, Q z> with Q = diag(m w^2/2, 1/(2m)) — the unforced energy."""
    return _energy(params, z.x, z.p)


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


def _panels(params: OscillatorParams, spec: ForcingSpec, a: np.ndarray, b: np.ndarray,
            live: np.ndarray, x, p, chained: bool = False):
    """Cross the panels [a_i, b_i] from the state (x_i, p_i) at a_i: returns
    (x, p) at each b_i and each panel's share integral_a^b x k ds of J.

    On a panel the state is z(u) = U(u - a) (z(a) + c(u)) with
    c(u) = integral_a^u U(a - s) (0, k(s)) ds: the 15-point Kronrod rule
    gives c(b) and the spectral matrix gives c at the interior nodes, where
    x feeds the rule for J.  k is smooth on each panel, so all of it is
    exact to rounding.  k is evaluated in one call on the panels marked
    ``live`` and is zero on the rest.  With ``chained`` the panels are
    consecutive and (x, p) is the state at a_0 alone: each panel starts
    where the one before it ends.
    """
    m, w = params.m, params.omega
    half = 0.5 * (b - a)
    u = (a + half)[:, None] + half[:, None] * _KRONROD_NODES
    k = np.zeros(u.shape)
    if live.any():
        k[live] = spec.evaluate(u[live])
    tau = a[:, None] - u
    cos_tau, sin_tau = np.cos(w * tau), _sin_over_omega(w, tau)
    fx, fp = sin_tau / m * k, cos_tau * k  # U(a - u) (0, k(u))
    end_x, end_p = half * (fx @ _KRONROD_WEIGHTS), half * (fp @ _KRONROD_WEIGHTS)

    cos_h, sin_h = np.cos(w * (b - a)), _sin_over_omega(w, b - a)
    if chained:
        x_b, p_b = np.empty(len(a)), np.empty(len(a))
        x_i, p_i = x, p
        for i in range(len(a)):
            x_i, p_i = x_i + end_x[i], p_i + end_p[i]
            x_i, p_i = (cos_h[i] * x_i + sin_h[i] / m * p_i,
                        cos_h[i] * p_i - m * w * w * sin_h[i] * x_i)
            x_b[i], p_b[i] = x_i, p_i
        x, p = np.append(x, x_b[:-1]), np.append(p, p_b[:-1])
    else:
        x_c, p_c = x + end_x, p + end_p
        x_b = cos_h * x_c + sin_h / m * p_c
        p_b = cos_h * p_c - m * w * w * sin_h * x_c

    # x at the interior nodes: U(u - a) = U(-tau) applied to z(a) + c(u)
    x_u = (cos_tau * (x[:, None] + half[:, None] * (fx @ _SPECTRAL.T))
           - sin_tau / m * (p[:, None] + half[:, None] * (fp @ _SPECTRAL.T)))
    return x_b, p_b, half * ((x_u * k) @ _KRONROD_WEIGHTS)


def _walk(params: OscillatorParams, spec: ForcingSpec, t1: float):
    """Panel edges of [0, t1], which panels k is live on, and (x, p, J) of
    the response at each edge, from rest at t = 0, where p = m xdot and
    J(t) = integral_0^t x k ds.

    Panel edges are 0, t1, the kinks of k and splits to ``_panel_len``;
    a span where k vanishes is one panel, not live.  ``live[i]`` is for
    the panel that starts at edge i, and the last edge, which starts none,
    is not live.  ``_panels`` crosses the panels in blocks of ``_CHUNK``.
    More than ``_PANEL_BUDGET`` splits, or a state that leaves the floats,
    raises NumericError.
    """
    pts = np.union1d([0.0, t1], spec.breakpoints(0.0, t1))
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
    live = np.append(~quiet[seg], False)

    xs, ps, js = (np.zeros(len(edges)) for _ in range(3))  # from rest at edges[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked per block
        for lo in range(0, len(edges) - 1, _CHUNK):
            hi = min(lo + _CHUNK, len(edges) - 1)
            block = slice(lo + 1, hi + 1)
            xs[block], ps[block], dj = _panels(params, spec, edges[lo:hi], edges[block],
                                               live[lo:hi], xs[lo], ps[lo], chained=True)
            js[block] = js[lo] + np.cumsum(dj)
            # non-finite stays non-finite, so the block's last edge tells
            if not (math.isfinite(xs[hi]) and math.isfinite(ps[hi]) and math.isfinite(js[hi])):
                finite = np.isfinite(xs[block]) & np.isfinite(ps[block]) & np.isfinite(js[block])
                raise NumericError(f"response walk over [{pts[0]}, {pts[-1]}] left the "
                                   f"floating-point range at t = {edges[block][~finite][0]:.6g}")
    return edges, live, xs, ps, js


def _resume(params: OscillatorParams, spec: ForcingSpec, edges, live, xs, ps, js,
            ts: np.ndarray):
    """(x, p, J) at the times ts in [edges[0], edges[-1]], each resumed from
    the walk's state at the edge at or before it.  [edge, t] lies inside
    one panel, so ``_panels`` crosses each independently, in blocks of
    ``_CHUNK`` times; a state that leaves the floats raises NumericError."""
    i = np.searchsorted(edges, ts, side="right") - 1
    x, p, j = (np.empty(len(ts)) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for lo in range(0, len(ts), _CHUNK):
            block, e = slice(lo, lo + _CHUNK), i[lo:lo + _CHUNK]
            x[block], p[block], dj = _panels(params, spec, edges[e], ts[block], live[e],
                                             xs[e], ps[e])
            j[block] = js[e] + dj
    bad = ~(np.isfinite(x) & np.isfinite(p) & np.isfinite(j))
    if bad.any():
        raise NumericError(f"frame read left the floating-point range at t = {ts[bad][0]:.6g}")
    return x, p, j


def evolve(params: OscillatorParams, z0: PhaseState, spec: ForcingSpec,
           t: float) -> PhaseState:
    """State at time t >= 0: U(t) z0 plus the response z_nh(t) from rest,
    by one walk from 0; from z0 = 0 it is the moving frame's center."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"the response needs finite t >= 0, got {t!r}")
    _, _, xs, ps, _ = _walk(params, spec, t)
    z = propagator(params, t) @ z0.as_array()
    return PhaseState(float(z[0]) + float(xs[-1]), float(z[1]) + float(ps[-1]))


def trajectory(params: OscillatorParams, z0: PhaseState, times: np.ndarray,
               x_nh: np.ndarray, xdot_nh: np.ndarray):
    """The orbit from z0 sampled at ``times``, given the frame read there:
    (z, z_nh, invariant) with z = U(t) z0 + z_nh, z_nh = (x_nh, m xdot_nh)
    as (samples, 2) arrays, and the unforced energy of z - z_nh, which the
    flow conserves.  DomainError at the first time that energy is not finite."""
    z_nh = np.stack([x_nh, params.m * xdot_nh], axis=1)
    z = propagator(params, times) @ z0.as_array() + z_nh
    rel = z - z_nh
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rel makes it non-finite
        invariant = _energy(params, rel[:, 0], rel[:, 1])
    if not np.all(np.isfinite(invariant)):
        i = int(np.argmin(np.isfinite(invariant)))
        x, p = rel[i].tolist()
        raise DomainError(f"phase-space point must be finite, with a finite invariant, "
                          f"got ({x!r}, {p!r}) at t={times[i]:.17g}")
    return z, z_nh, invariant


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

    (momentum convention p = m xdot).  Matches evolve() from rest for every
    mass; needs w > 0, since the w = 0 orbit is no longer an ellipse.
    """
    w = params.omega
    if w <= 0.0:
        raise DomainError("laboratory ellipse needs omega > 0")
    x = K * (1.0 - math.cos(w * t)) / (params.m * w * w)
    p = K * math.sin(w * t) / w
    return PhaseState(x, p)
