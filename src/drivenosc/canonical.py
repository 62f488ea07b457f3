"""Moving frame that absorbs the driving force.

The frame is carried by the zero-initial-condition response of the driven
oscillator: its position x_nh(t), velocity xdot_nh(t), and the accumulated
gauge phase

    G(t) = integral_0^t [ m xdot_nh^2/2 - m w^2 x_nh^2/2 + x_nh k ] ds,

i.e. the classical action along the response orbit.  With G chosen this
way, the type-1 generating function in (old position, new momentum)

    F1(x, eta, t) = (x - x_nh)(eta + m xdot_nh) + G(t)

maps the driven Hamiltonian exactly onto the unforced one: new coordinates
are (xi, eta) = (x - x_nh, p - m xdot_nh), and K = H + dF1/dt holds
pointwise.  At zero new momentum, F1(x, 0, t) = (x - x_nh) m xdot_nh + G
is the phase of the quantum frame change in :mod:`drivenosc.schrodinger`:
``moving_to_lab`` attaches e^{i F1(x, 0, t)} and ``lab_to_moving`` its
adjoint e^{-i F1(x, 0, t)}, so the two maps are exact inverses.  ``_f1``
is the one place the formula is written.

A frame keeps the state of one response walk over [0, t_max] (see
``classical._walk``) at every panel edge: the kinks of k and the splits
that resolve the fastest of w and the drive.  There is no spline: a read
at any t resumes the walk from the stored state at the edge at or before
t, which is at most one panel, so every read is exact to rounding.  An
array of times is read in one batched pass (``classical._resume``); a
single time is read as a one-element array.  The walk carries
(x_nh, p_nh, J) with J(t) = integral_0^t x_nh k ds, and G comes from
the identity

    G(t) = x_nh p_nh / 2 + J(t) / 2,   p_nh = m xdot_nh,

which follows from the equation of motion (derived in NOTES.md).  The
walk itself lives in :mod:`drivenosc.classical`; this module keeps the
frame reads, the generating function and the point maps.
``exact_values`` is the independent oracle: adaptive quadrature for z_nh
and fixed panels for G, the response carried from node to node.  It too
reads an array of times in one pass, in ascending order, each read
resuming from the one before, so a batch costs about one read at its
largest time.

Frames are immutable once built and safe to evaluate concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import (OscillatorParams, PhaseState, _duhamel, _panel_len, _resume, _walk,
                        propagator)
from .errors import DomainError
from .forcing import ForcingSpec
from .quadrature import fixed_gauss_kronrod


def _lagrangian(params: OscillatorParams, spec: ForcingSpec, x: float,
                xdot: float, t: float) -> float:
    m, w = params.m, params.omega
    return 0.5 * m * xdot * xdot - 0.5 * m * w * w * x * x + x * spec.evaluate(t)


def _f1(m: float, x, eta, center):
    """F1(x, eta) = (x - x_nh)(eta + m xdot_nh) + G for center =
    (x_nh, xdot_nh, G), one frame read."""
    xc, vc, g = center
    return (x - xc) * (eta + m * vc) + g


class CanonicalFrame:
    """Frame data (x_nh, xdot_nh, G) over [0, t_max]; see module docstring."""

    def __init__(self, params, spec, edges, live, xs, ps, js):
        self.params = params
        self.spec = spec
        self.t_max = float(edges[-1])
        self._edges = edges
        self._live = live
        self._states = (xs, ps, js)

    def _clamp(self, ts: np.ndarray) -> np.ndarray:
        if ts.ndim != 1:
            raise DomainError(f"times must be a float or a 1-D array, got shape {ts.shape}")
        slack = 1e-12 * max(1.0, self.t_max)
        bad = ~(np.isfinite(ts) & (ts >= -slack) & (ts <= self.t_max + slack))
        if bad.any():
            raise DomainError(f"t={float(ts[bad][0])!r} outside frame range [0, {self.t_max}]")
        return np.clip(ts, 0.0, self.t_max)

    def _read(self, t):
        """(x_nh, xdot_nh, G) at t, resumed from the edge at or before t.

        t is a float, read as a one-element array, or a 1-D ndarray of
        times, read in one pass that returns three arrays; any other
        ndarray is a DomainError."""
        if type(t) is not np.ndarray:
            return tuple(float(v[0]) for v in self._read(np.array([t], dtype=float)))
        ts = self._clamp(t.astype(float, copy=False))
        x, p, j = _resume(self.params, self.spec, self._edges, self._live, *self._states, ts)
        return x, p / self.params.m, 0.5 * (x * p + j)

    # -- frame data ---------------------------------------------------------

    def x_nh(self, t: float) -> float:
        """Position of the moving center."""
        return self._read(t)[0]

    def xdot_nh(self, t: float) -> float:
        """Velocity of the moving center."""
        return self._read(t)[1]

    def gauge(self, t: float) -> float:
        """Accumulated action phase G(t)."""
        return self._read(t)[2]

    def values(self, t):
        """(x_nh, xdot_nh, G) at a time t, or three arrays for a 1-D
        ndarray of times."""
        return self._read(t)

    def exact_values(self, t):
        """(x_nh, xdot_nh, G) by adaptive quadrature, independent of the walk.

        t is a float, read as a batch of one, or a 1-D ndarray of times,
        read in one pass that returns three arrays.  The pass visits the
        times in ascending order and carries the values from each read time
        s0 to the next t: z <- U(t - s0) z + _duhamel(s0, t), and G gains
        the action over [s0, t].  The action integrand carries z_nh from one
        quadrature node to the next in the same way, across reads, so each
        stretch of time and each kink of k is integrated over once.
        """
        if type(t) is not np.ndarray:
            return tuple(float(v[0]) for v in self.exact_values(np.array([t], dtype=float)))
        ts = self._clamp(t.astype(float, copy=False))
        params, spec = self.params, self.spec
        panel_len = _panel_len(params, spec)
        s_prev, z_prev = 0.0, np.zeros(2)  # last node s' and z_nh(s')

        def integrand(s):
            nonlocal s_prev, z_prev
            z_prev = (propagator(params, s - s_prev) @ z_prev
                      + _duhamel(params, spec, s_prev, s, 1e-13))
            s_prev = s
            return np.array([_lagrangian(params, spec, z_prev[0], z_prev[1] / params.m, s)])

        out = np.zeros((3, ts.size))
        s0, z, g = 0.0, np.zeros(2), 0.0  # last read time and its values
        for i in np.argsort(ts, kind="stable").tolist():
            t_i = float(ts[i])
            if t_i > s0:
                z = propagator(params, t_i - s0) @ z + _duhamel(params, spec, s0, t_i, 1e-12)
                g = g + float(fixed_gauss_kronrod(
                    integrand, s0, t_i, breakpoints=spec.breakpoints(s0, t_i),
                    panel_len=panel_len)[0])
                s0 = t_i
            out[:, i] = z[0], z[1] / params.m, g
        return out[0], out[1], out[2]

    # -- generating function -----------------------------------------------

    def f1(self, x, eta, t: float):
        """Mixed generating function in (old position, new momentum)."""
        return _f1(self.params.m, x, eta, self.values(t))

    # -- point maps ----------------------------------------------------------

    def to_moving(self, z: PhaseState, t: float) -> PhaseState:
        """(xi, eta) = (x - x_nh, p - m xdot_nh)."""
        xc, vc, _ = self.values(t)
        return PhaseState(z.x - xc, z.p - self.params.m * vc)

    def to_lab(self, z: PhaseState, t: float) -> PhaseState:
        xc, vc, _ = self.values(t)
        return PhaseState(z.x + xc, z.p + self.params.m * vc)


def build_frame(params: OscillatorParams, spec: ForcingSpec, t_max: float) -> CanonicalFrame:
    """Construct the frame by one response walk over [0, t_max], keeping
    the state at every panel edge."""
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    return CanonicalFrame(params, spec, *_walk(params, spec, t_max))
