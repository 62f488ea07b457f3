"""Moving frame that absorbs the driving force.

The frame is carried by the zero-initial-condition response of the driven
oscillator: its position x_nh(t), velocity xdot_nh(t), and the accumulated
gauge phase

    G(t) = integral_0^t [ m xdot_nh^2/2 - m w^2 x_nh^2/2 + x_nh k ] ds,

i.e. the classical action along the response orbit.  With G chosen this
way, the mixed-variable generating functions

    F1(x, eta, t) = (x - x_nh)(eta + m xdot_nh) + G(t)
    F2(xi, p, t)  = (xi + x_nh)(p - m xdot_nh) + G(t)

map the driven Hamiltonian exactly onto the unforced one: new coordinates
are (xi, eta) = (x - x_nh, p - m xdot_nh), and K = H + dF1/dt holds
pointwise.  The same data feeds the quantum shift-plus-phase maps in
:mod:`drivenosc.schrodinger`, via the phases

    phase_to_lab(x, t)     = (x - x_nh) m xdot_nh + G(t)
    phase_to_moving(xi, t) = -(xi + x_nh) m xdot_nh + G(t).

A frame stores (x_nh, xdot_nh, G) at ``grid_points`` uniform nodes.  There
is no spline: a read at any t resumes the response walk from the node at
or before t (see ``classical._walk``), so every read is exact to rounding and
``grid_points`` (the scenario's ``frame_points``) sets only the cost split
between building and reading.  The walk gets G from the identity

    G(t) = x_nh p_nh / 2 + (1/2) integral_0^t x_nh k ds,   p_nh = m xdot_nh,

which follows from the equation of motion (derived in NOTES.md).  The
walk itself lives in :mod:`drivenosc.classical`; this module keeps the
frame reads, the generating functions and the maps.  ``exact_values`` is
the independent oracle: adaptive quadrature for z_nh and one pass of
fixed panels for G, the response carried from node to node.

Frames are immutable once built and safe to evaluate concurrently.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .classical import OscillatorParams, PhaseState, _duhamel, _panel_len, _walk, propagator
from .errors import DomainError
from .forcing import ForcingSpec
from .quadrature import fixed_gauss_kronrod


def _lagrangian(params: OscillatorParams, spec: ForcingSpec, x: float,
                xdot: float, t: float) -> float:
    m, w = params.m, params.omega
    return 0.5 * m * xdot * xdot - 0.5 * m * w * w * x * x + x * spec.evaluate(t)


class CanonicalFrame:
    """Frame data (x_nh, xdot_nh, G) over [0, t_max]; see module docstring."""

    def __init__(self, params, spec, grid, x_nodes, xdot_nodes, g_nodes):
        self.params = params
        self.spec = spec
        self.grid = grid
        self.t_max = float(grid[-1])
        self._nodes = (x_nodes, xdot_nodes, g_nodes)

    def _clamp(self, t: float) -> float:
        slack = 1e-12 * max(1.0, self.t_max)
        if not math.isfinite(t) or t < -slack or t > self.t_max + slack:
            raise DomainError(f"t={t!r} outside frame range [0, {self.t_max}]")
        return min(max(t, 0.0), self.t_max)

    def _read(self, t: float) -> tuple[float, float, float]:
        """(x_nh, xdot_nh, G) at t, walked on from the node at or before t."""
        t = self._clamp(t)
        j = int(np.searchsorted(self.grid, t, side="right")) - 1
        x, xdot, g = (float(a[j]) for a in self._nodes)
        if t == self.grid[j]:
            return x, xdot, g
        m = self.params.m
        xs, ps, js = _walk(self.params, self.spec, np.array([self.grid[j], t]),
                           x, m * xdot, 2.0 * g - m * x * xdot)
        return float(xs[1]), float(ps[1] / m), float(0.5 * (xs[1] * ps[1] + js[1]))

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

    def values(self, t: float) -> tuple[float, float, float]:
        return self._read(t)

    def exact_values(self, t: float) -> tuple[float, float, float]:
        """(x_nh, xdot_nh, G) by adaptive quadrature, independent of the walk.

        One pass: the action integrand carries z_nh from one quadrature node
        to the next, z(s) = U(s - s') z(s') + _duhamel(s', s), so each kink
        of k is integrated over once (a node out of order restarts from 0).
        """
        t = self._clamp(t)
        params, spec = self.params, self.spec
        z = _duhamel(params, spec, 0.0, t, 1e-12)
        s_prev, z_prev = 0.0, np.zeros(2)  # last node s' and z_nh(s')

        def integrand(s):
            nonlocal s_prev, z_prev
            if s < s_prev:
                s_prev, z_prev = 0.0, np.zeros(2)
            z_prev = (propagator(params, s - s_prev) @ z_prev
                      + _duhamel(params, spec, s_prev, s, 1e-13))
            s_prev = s
            return np.array([_lagrangian(params, spec, z_prev[0], z_prev[1] / params.m, s)])

        g = fixed_gauss_kronrod(
            integrand, 0.0, t,
            breakpoints=spec.breakpoints(0.0, t),
            panel_len=_panel_len(params, spec),
        )
        return float(z[0]), float(z[1] / params.m), float(g[0])

    # -- generating functions and phases ------------------------------------

    def f1(self, x, eta, t: float):
        """Mixed generating function in (old position, new momentum)."""
        xc, vc, g = self.values(t)
        return (x - xc) * (eta + self.params.m * vc) + g

    def f2(self, xi, p, t: float):
        """Mixed generating function in (new position, old momentum)."""
        xc, vc, g = self.values(t)
        return (xi + xc) * (p - self.params.m * vc) + g

    def phase_to_lab(self, x, t: float):
        """Phase attached when mapping a moving-frame state to the lab."""
        xc, vc, g = self.values(t)
        return (x - xc) * self.params.m * vc + g

    def phase_to_moving(self, xi, t: float):
        """Phase attached when mapping a lab state to the moving frame."""
        xc, vc, g = self.values(t)
        return -(xi + xc) * self.params.m * vc + g

    # -- point maps ----------------------------------------------------------

    def to_moving(self, z: PhaseState, t: float) -> PhaseState:
        """(xi, eta) = (x - x_nh, p - m xdot_nh)."""
        xc, vc, _ = self.values(t)
        return PhaseState(z.x - xc, z.p - self.params.m * vc)

    def to_lab(self, z: PhaseState, t: float) -> PhaseState:
        xc, vc, _ = self.values(t)
        return PhaseState(z.x + xc, z.p + self.params.m * vc)

    # -- export ---------------------------------------------------------------

    def write_csv(self, path) -> None:
        """Dump the node values as rows t,x_nh,xdot_nh,G."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_nh", "xdot_nh", "G"])
            for t in self.grid:
                x, v, g = self.values(float(t))
                writer.writerow([f"{t:.17g}", f"{x:.17g}", f"{v:.17g}", f"{g:.17g}"])


def build_frame(params: OscillatorParams, spec: ForcingSpec, t_max: float,
                grid_points: int = 1025) -> CanonicalFrame:
    """Construct the frame by one response walk across the whole grid.

    ``grid_points`` sets only where the walk keeps its state (and so how
    far a read has to walk).
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")

    grid = np.linspace(0.0, t_max, grid_points)
    x, p, j = _walk(params, spec, grid, 0.0, 0.0, 0.0)
    return CanonicalFrame(params, spec, grid, x, p / params.m, 0.5 * (x * p + j))
