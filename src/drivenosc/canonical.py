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
or before t (see ``_walk``), so every read is exact to rounding and
``grid_points`` (the scenario's ``frame_points``) sets only the cost split
between building and reading.  The walk gets G from the identity

    G(t) = x_nh p_nh / 2 + (1/2) integral_0^t x_nh k ds,   p_nh = m xdot_nh,

which follows from the equation of motion (derived in NOTES.md).
Independent quadrature evaluation remains available for verification via
``exact_values``.

Frames are immutable once built and safe to evaluate concurrently.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .classical import OscillatorParams, PhaseState, _sin_over_omega, nonhomogeneous
from .errors import DomainError, NumericError
from .forcing import ForcingSpec
from .quadrature import _KRONROD_NODES, _KRONROD_WEIGHTS, fixed_gauss_kronrod

# Most panels one walk may take (about 2 s), and panels per vectorized
# block (a few MB of temporaries).
_PANEL_BUDGET = 200_000
_CHUNK = 2048


def _spectral_matrix(nodes: np.ndarray) -> np.ndarray:
    """S[i, j] = integral_{-1}^{x_i} l_j(s) ds for the Lagrange basis l_j on
    the nodes x_i, so S @ f(x) is the running integral of the interpolant
    of f.  Built in the Legendre basis, where both steps are well posed."""
    leg = np.polynomial.legendre
    eye = np.eye(len(nodes))
    running = np.stack([leg.legval(nodes, leg.legint(c, lbnd=-1.0)) for c in eye], axis=1)
    return np.linalg.solve(leg.legvander(nodes, len(nodes) - 1).T, running.T).T


_SPECTRAL = _spectral_matrix(_KRONROD_NODES)


def _lagrangian(params: OscillatorParams, spec: ForcingSpec, x: float,
                xdot: float, t: float) -> float:
    m, w = params.m, params.omega
    return 0.5 * m * xdot * xdot - 0.5 * m * w * w * x * x + x * spec.evaluate(t)


def _panel_len(params: OscillatorParams, spec: ForcingSpec) -> float:
    rate = max(params.omega, spec.oscillation_rate())
    return 0.25 / rate if rate > 0.0 else math.inf


def _walk(params: OscillatorParams, spec: ForcingSpec, stops: np.ndarray,
          x0: float, p0: float, j0: float):
    """(x, p, J) of the response at ascending ``stops``, from (x0, p0, j0)
    at stops[0], where p = m xdot and J(t) = integral_0^t x k ds.

    Panel edges are the stops, the kinks of k and splits to ``_panel_len``.
    On a panel [a, b] the state is z(u) = U(u - a) (z(a) + c(u)) with
    c(u) = integral_a^u U(a - s) (0, k(s)) ds: the 15-point Kronrod rule
    gives c(b) and the spectral matrix gives c at the interior nodes, where
    x feeds the rule for J.  k is smooth on each panel, so all of it is
    exact to rounding.
    """
    m, w = params.m, params.omega
    pts = np.union1d(stops, spec.breakpoints(float(stops[0]), float(stops[-1])))
    lengths = np.diff(pts)
    with np.errstate(over="ignore"):  # an overflow is an infinite count
        counts = np.maximum(np.ceil(lengths / _panel_len(params, spec)), 1.0)
    total = float(np.sum(counts))
    if not total <= _PANEL_BUDGET:
        raise NumericError(f"frame walk over [{pts[0]}, {pts[-1]}] needs {total:.3g} "
                           f"panels, over the budget of {_PANEL_BUDGET}")
    counts = counts.astype(int)
    seg = np.repeat(np.arange(len(lengths)), counts)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
    edges = np.append(pts[seg] + lengths[seg] * step / counts[seg], pts[-1])

    xs, ps, js = (np.empty(len(edges)) for _ in range(3))
    xs[0], ps[0], js[0] = x0, p0, j0
    for lo in range(0, len(edges) - 1, _CHUNK):
        hi = min(lo + _CHUNK, len(edges) - 1)
        a, b = edges[lo:hi], edges[lo + 1:hi + 1]
        half = 0.5 * (b - a)
        u = (a + half)[:, None] + half[:, None] * _KRONROD_NODES
        k = np.array([spec.evaluate(s) for s in u.ravel()]).reshape(u.shape)
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
    at = np.searchsorted(edges, stops)
    return xs[at], ps[at], js[at]


class CanonicalFrame:
    """Frame data (x_nh, xdot_nh, G) over [0, t_max]; see module docstring."""

    def __init__(self, params, spec, grid, x_nodes, xdot_nodes, g_nodes, tol):
        self.params = params
        self.spec = spec
        self.grid = grid
        self.t_max = float(grid[-1])
        self.tol = tol
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
        """(x_nh, xdot_nh, G) by direct quadrature, independent of the walk."""
        t = self._clamp(t)
        tol = min(self.tol, 1e-12)
        z = nonhomogeneous(self.params, self.spec, t, tol=tol)

        def integrand(s):
            zs = nonhomogeneous(self.params, self.spec, s, tol=1e-13)
            return np.array([_lagrangian(self.params, self.spec, zs.x,
                                         zs.p / self.params.m, s)])

        g = fixed_gauss_kronrod(
            integrand, 0.0, t,
            breakpoints=self.spec.breakpoints(0.0, t),
            panel_len=_panel_len(self.params, self.spec),
        )
        return z.x, z.p / self.params.m, float(g[0])

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
                grid_points: int = 1025, tol: float = 1e-10) -> CanonicalFrame:
    """Construct the frame by one response walk across the whole grid.

    ``grid_points`` sets only where the walk keeps its state (and so how
    far a read has to walk); ``tol`` is kept for ``exact_values``.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")

    grid = np.linspace(0.0, t_max, grid_points)
    x, p, j = _walk(params, spec, grid, 0.0, 0.0, 0.0)
    return CanonicalFrame(params, spec, grid, x, p / params.m, 0.5 * (x * p + j), tol)
