"""Hermite polynomials, oscillator eigenstates, and quadrature support.

Physicists' convention throughout: H_{n+1} = 2 x H_n - 2 n H_{n-1} with
H_0 = 1, H_1 = 2x, matching the generating function e^{2xu - u^2}.
Natural units with hbar = 1.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .classical import OscillatorParams
from .errors import DomainError

_MAX_RULE_ORDER = 200
_UNIT = OscillatorParams(1.0, 1.0)  # eigenstate(_UNIT, n, x) = psi_n(x)


def _check_n(n) -> int:
    if n != int(n) or n < 0:
        raise DomainError(f"quantum number must be a non-negative integer, got {n!r}")
    return int(n)


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    Parameters
    ----------
    n : int
        polynomial order, >= 0
    x : float or ndarray
        evaluation point(s)

    Evaluated by the three-term recurrence; exact for the polynomial sizes
    double precision can hold.
    """
    n = _check_n(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def generating_function_partial(x: float, u: float, N: int) -> float:
    """Partial sum sum_{n<=N} u^n H_n(x) / n!.

    Converges to e^{2xu - u^2} as N grows; used to cross-check the
    recurrence against the generating function.
    """
    N = _check_n(N)
    total = 1.0
    h_prev, h = 1.0, 2.0 * x
    term = 1.0  # u^n / n! at n = 0
    for n in range(1, N + 1):
        term *= u / n
        total += term * h
        h, h_prev = 2.0 * x * h - 2.0 * n * h_prev, h
    return total


def gaussian_integral(z: complex) -> complex:
    """Closed form of the Gaussian moment integral:

        integral e^{z x} e^{-x^2} dx = sqrt(pi) e^{z^2 / 4}

    for any complex z.
    """
    return math.sqrt(math.pi) * cmath.exp(z * z / 4.0)


def _require_well(params: OscillatorParams) -> None:
    if params.omega <= 0.0:
        raise DomainError("oscillator eigenstates need omega > 0")


def eigenstate(params: OscillatorParams, n: int, x):
    """Normalized eigenstate psi_n(x) of the unforced oscillator.

    psi_n(x) = (2^n n!)^{-1/2} (m w / pi)^{1/4} H_n(sqrt(m w) x)
               e^{-m w x^2 / 2}

    Evaluated with the normalized recurrence

        phi_0 = pi^{-1/4} e^{-y^2/2},
        phi_n = sqrt(2/n) y phi_{n-1} - sqrt((n-1)/n) phi_{n-2},

    which keeps every intermediate O(1), so arbitrary n evaluates without
    overflow.  Real-valued.
    """
    n = _check_n(n)
    _require_well(params)
    scale = math.sqrt(params.m * params.omega)
    y = np.asarray(x, dtype=float) * scale
    phi_prev = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n == 0:
        out = math.sqrt(scale) * phi_prev
        return out if out.ndim else float(out)
    phi = math.sqrt(2.0) * y * phi_prev
    for k in range(2, n + 1):
        phi, phi_prev = (
            math.sqrt(2.0 / k) * y * phi - math.sqrt((k - 1.0) / k) * phi_prev,
            phi,
        )
    out = math.sqrt(scale) * phi
    return out if out.ndim else float(out)


def eigen_energy(params: OscillatorParams, n: int) -> float:
    """E_n = w (n + 1/2) with hbar = 1."""
    n = _check_n(n)
    _require_well(params)
    return params.omega * (n + 0.5)


def gauss_hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating f(x) e^{-x^2} exactly for
    polynomials f of degree <= 2*order - 1.

    Parameters
    ----------
    order : int
        number of nodes, 1 <= order <= 200 (beyond that the symmetric
        tridiagonal eigenproblem is no longer reliably accurate)

    Golub-Welsch nodes, the eigenvalues of the Jacobi matrix from numpy's
    dense symmetric solver; weights e^{-x^2} / (order psi_{order-1}(x)^2), which
    unlike squared eigenvector components keep their relative accuracy in
    the far tails.  Against 40-digit mpmath at orders 40-200 the nodes lie
    within 7e-14 absolute (4e-15 relative) and the weights within 5e-12
    relative: the outer nodes' error, amplified through e^{-x^2}.

    Each order is computed once per process and the same two read-only
    arrays are returned on every later call.
    """
    if order != int(order) or order < 1:
        raise DomainError(f"rule order must be a positive integer, got {order!r}")
    if order > _MAX_RULE_ORDER:
        raise DomainError(f"rule order {order} exceeds stable limit {_MAX_RULE_ORDER}")
    return _rule(int(order))


@functools.lru_cache(maxsize=_MAX_RULE_ORDER)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of `gauss_hermite_rule`: nodes from the dense Jacobi matrix
    of the Hermite recurrence (zero diagonal, subdiagonal sqrt(j / 2))."""
    nodes = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, order) / 2.0), -1))
    weights = np.exp(-nodes * nodes) / (order * eigenstate(_UNIT, order - 1, nodes) ** 2)
    # polish the exact symmetry of the rule
    rule = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    for arr in rule:
        arr.setflags(write=False)
    return rule
