"""Gauss-Kronrod quadrature kernels behind the verification oracles.

Two routines, both deterministic, for vector-valued integrands.  Both
serve only ``CanonicalFrame.exact_values``, the quadrature oracle for the
response walk in :mod:`drivenosc.classical`, which calls each once per
stretch between consecutive read times of its batch:

* ``adaptive_gauss_kronrod`` -- a global worst-interval-first refinement of
  the 7/15 Gauss-Kronrod pair.  Used for the inhomogeneous-response
  integral, where the integrand is a smooth 2-vector away from known
  breakpoints (``classical._duhamel``).
* ``fixed_gauss_kronrod`` -- non-adaptive 15-point panels, for integrands
  that are analytic on panels of a known length (the oracle's action).

Known non-smooth points (pulse edges, table knots) are passed in as
``breakpoints`` so neither routine has to discover them.  The 15-point
nodes and weights are also the panel rule of the response walk.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError

# 7/15 Gauss-Kronrod pair on [-1, 1] (positive abscissae; rule is symmetric).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
# Gauss-7 weights, aligned with the odd-index (embedded) abscissae above.
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Positions of the embedded Gauss-7 nodes within the 15-node layout.
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_GAUSS_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])


def _segments(a: float, b: float, breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    pts = sorted(p for p in breakpoints if a < p < b)
    edges = [a] + pts + [b]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def _gk15(f: Callable[[float], np.ndarray], a: float, b: float):
    """One 15-point Kronrod pass; returns (value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.array([np.asarray(f(mid + half * x), dtype=float) for x in _KRONROD_NODES])
    kron = half * np.tensordot(_KRONROD_WEIGHTS, vals, axes=1)
    gauss = half * np.tensordot(_GAUSS_WEIGHTS, vals[_GAUSS_IDX], axes=1)
    # |K15 - G7| overestimates the K15 error; conservative but safe.
    err = float(np.max(np.abs(kron - gauss)))
    return kron, max(err, 1e-300)


def adaptive_gauss_kronrod(
    f: Callable[[float], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
    limit: int = 4000,
) -> np.ndarray:
    """Integrate a vector-valued f over [a, b] to ~tol (absolute, with a
    relative floor at the integral's own scale).

    Raises NumericError (carrying the partial estimate) if the interval
    budget is exhausted first.
    """
    if b == a:
        probe = np.asarray(f(a), dtype=float)
        return np.zeros_like(probe)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    heap = []
    total = None
    total_err = 0.0
    for lo, hi in _segments(a, b, breakpoints):
        val, err = _gk15(f, lo, hi)
        total = val if total is None else total + val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, err))

    n = len(heap)
    while heap:
        scale = max(1.0, float(np.max(np.abs(total))))
        if total_err <= tol * scale:
            return sign * total
        if n >= limit:
            raise NumericError(
                f"quadrature did not converge within {limit} subintervals "
                f"(error estimate {total_err:.3e})",
                partial=sign * total,
            )
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        lval, lerr = _gk15(f, lo, mid)
        rval, rerr = _gk15(f, mid, hi)
        total = total - val + lval + rval
        total_err = total_err - err + lerr + rerr
        heapq.heappush(heap, (-lerr, lo, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, mid, hi, rval, rerr))
        n += 1
    return sign * (total if total is not None else 0.0)


def fixed_gauss_kronrod(
    f: Callable[[float], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
    panel_len: float | None = None,
) -> np.ndarray:
    """Non-adaptive 15-point panels over [a, b], split at breakpoints.

    Intended for integrands that are analytic between the given
    breakpoints and resolved by panels of length <= panel_len; a single
    15-point rule on such a panel is accurate to rounding.
    """
    if b == a:
        return np.zeros_like(np.asarray(f(a), dtype=float))
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    total = None
    for lo, hi in _segments(a, b, breakpoints):
        n = 1 if panel_len is None else max(1, int(np.ceil((hi - lo) / panel_len)))
        edges = np.linspace(lo, hi, n + 1)
        for p0, p1 in zip(edges, edges[1:]):
            val, _ = _gk15(f, p0, p1)
            total = val if total is None else total + val
    return sign * total
