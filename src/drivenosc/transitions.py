"""Transition probabilities between oscillator eigenstates under driving.

Driving displaces an eigenstate rigidly along the classical response
orbit, so the overlap of the evolved n-th eigenstate with the m-th
eigenstate depends only on two dimensionless displacement parameters

    a = sqrt(m w) x_nh(t),      b = xdot_nh(t) sqrt(m / w).

Up to a global phase (dropped here; only magnitudes are observable), the
overlap is the scaled Hermite-Gaussian integral

    A(n, m) = C(m, n) * integral H_m(x+a) H_n(x) e^{-ixb}
              e^{-(x+a)^2/2} e^{-x^2/2} dx,
    C(m, n) = (2^{m+n} m! n! pi)^{-1/2},

a displacement-operator matrix element.  With beta = (a - ib)/sqrt(2),
lambda = |beta|^2, lo = min(n, m) and hi = max(n, m) it is evaluated as

    A(n, m) = e^{iab/2} e^{-lambda/2} sqrt(lo!/hi!) lambda^{(hi-lo)/2}
              u^{hi-lo} L_lo^{(hi-lo)}(lambda),
    u = beta/|beta| (m >= n),   u = -conj(beta)/|beta| (m < n),

for a whole column m = 0 .. M-1 at once; a row is the column's shortest
prefix holding 1 - tail_tol.  NOTES.md derives the form from the
generating-function k-sum, which cancels catastrophically, so is not used;
``overlap_by_quadrature`` is the independent oracle for the closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalFrame
from .classical import OscillatorParams
from .errors import DomainError, NumericError
from .hermite import _check_n, gauss_hermite_rule, hermite_poly


@dataclass(frozen=True)
class DisplacementParams:
    """Dimensionless displacement (a, b) of the response orbit."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"displacement must be finite, got ({self.a!r}, {self.b!r})")

    @classmethod
    def series(cls, params: OscillatorParams, x_nh: np.ndarray,
               xdot_nh: np.ndarray) -> list["DisplacementParams"]:
        """One displacement per frame value (x_nh[i], xdot_nh[i]), as read
        by ``CanonicalFrame.values`` for an array of times."""
        if params.omega <= 0.0:
            raise DomainError("displacement parameters need omega > 0")
        a = math.sqrt(params.m * params.omega) * x_nh
        b = xdot_nh * math.sqrt(params.m / params.omega)
        return [cls(a=a_i, b=b_i) for a_i, b_i in zip(a.tolist(), b.tolist())]

    @classmethod
    def from_frame(cls, frame: CanonicalFrame, t: float) -> "DisplacementParams":
        x, xdot, _ = frame.values(np.array([t], dtype=float))
        return cls.series(frame.params, x, xdot)[0]

    def poisson_mean(self) -> float:
        """lambda = (a^2 + b^2)/2, the mean excitation from the ground state."""
        return 0.5 * (self.a * self.a + self.b * self.b)


@dataclass(frozen=True)
class TransitionRow:
    """P(n -> m) for m = 0 .. truncation_m - 1 at one time."""

    n: int
    probabilities: tuple[float, ...]
    truncation_m: int
    tail_bound: float

    def __post_init__(self):
        if not _valid_row(self.probabilities):
            raise DomainError("transition probabilities must lie in [0, 1] and sum to at most 1")


def _valid_row(probs) -> bool:
    """Each entry in [0, 1] and the sum at most 1, up to rounding; NaN fails."""
    p = np.asarray(probs, dtype=float)
    return bool(np.all((p >= -1e-12) & (p <= 1.0 + 1e-12)) and p.sum() <= 1.0 + 1e-10)


def _laguerre_column(n: int, lam: float, m_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |A(n, m)| (the Laguerre form above) for m = 0 .. m_stop-1."""
    m = np.arange(m_stop)
    if lam == 0.0:
        return np.ones(m_stop), np.where(m == n, 0.0, -np.inf)
    gap = np.abs(m - n)
    # lag * e^scale = L_k^{(gap)}(lam), raised in degree k by the increments
    # inc * e^scale = L_k^{(gap-1)}(lam) (accurate as lam -> 0; see NOTES.md).
    # Entry m stops at k = min(m, n), so step k only moves the entries m > k.
    lag, inc, scale = np.ones(m_stop), np.ones(m_stop), np.zeros(m_stop)
    for k in range(min(n, m_stop - 1)):
        moving, step = lag[k + 1:], inc[k + 1:]
        step *= k + gap[k + 1:]
        step -= lam * moving
        step /= k + 1
        moving += step
        if np.abs(moving).max() > 1e150:  # rescale long before overflow
            f = np.maximum(np.abs(moving), 1.0)
            moving /= f
            step /= f
            scale[k + 1:] += np.log(f)
    with np.errstate(divide="ignore"):  # an exact zero of L has log -inf
        log_mag = scale + np.log(np.abs(lag)) + gap * (0.5 * math.log(lam)) - 0.5 * lam
    # log(hi!/lo!) = sum of log k over lo < k <= hi, summed outward from n so
    # that its rounding scales with the gap, not with log n!
    log_ratio = np.zeros(max(n + 1, m_stop))
    log_ratio[n + 1:] = np.cumsum(np.log(np.arange(n + 1, log_ratio.size)))
    log_ratio[:n] = np.cumsum(np.log(np.arange(n, 0, -1)))[::-1]
    return np.sign(lag), log_mag - 0.5 * log_ratio[:m_stop]


def overlap_amplitude(n: int, m: int, d: DisplacementParams) -> complex:
    """Closed-form overlap A(n, m) at displacement d, global phase dropped."""
    n, m = _check_n(n), _check_n(m)
    sign, log_mag = _laguerre_column(n, d.poisson_mean(), m + 1)
    theta = math.atan2(-d.b, d.a if m >= n else -d.a)  # arg u
    return complex(sign[m]) * cmath.exp(log_mag[m] + 1j * (0.5 * d.a * d.b + abs(m - n) * theta))


def probability_column(n: int, d: DisplacementParams, m_stop: int) -> np.ndarray:
    """P(n -> m) for m = 0 .. m_stop-1; NumericError if any value is invalid."""
    probs = np.exp(2.0 * _laguerre_column(_check_n(n), d.poisson_mean(), m_stop)[1])
    if not _valid_row(probs):
        raise NumericError(f"transition row from n={n} is not finite or not in [0, 1]",
                           partial=tuple(probs.tolist()))
    return probs


def overlap_by_quadrature(n: int, m: int, d: DisplacementParams, order: int) -> complex:
    """The overlap integral evaluated directly by Gauss-Hermite quadrature.

    Completing the square in e^{-(x+a)^2/2} e^{-x^2/2} centres the weight:
    with y = x + a/2 the integrand becomes
    H_m(y+a/2) H_n(y-a/2) e^{-iyb} e^{ia b/2} e^{-a^2/4} against e^{-y^2},
    which an ``order``-point rule handles once order covers the polynomial
    degree plus the oscillation of e^{-iyb} (n + m + 10 points or more).
    Shares no algebra with overlap_amplitude - this is the oracle side of
    the pair.
    """
    n, m = _check_n(n), _check_n(m)
    nodes, weights = gauss_hermite_rule(order)
    hm = hermite_poly(m, nodes + 0.5 * d.a)
    hn = hermite_poly(n, nodes - 0.5 * d.a)
    acc = complex(np.sum(weights * hm * hn * np.exp(-1j * d.b * nodes)))
    const = math.exp(-0.25 * d.a**2) * cmath.exp(0.5j * d.a * d.b)
    norm = math.exp(
        -0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1) + math.lgamma(m + 1)
                + math.log(math.pi))
    )
    return acc * const * norm


def probability_row(n: int, column: np.ndarray, tail_tol: float) -> TransitionRow:
    """Shortest prefix of a P(n -> m) column (m = 0, 1, ...) whose mass
    exceeds 1 - tail_tol; NumericError if the whole column holds less."""
    if tail_tol <= 0.0:
        raise DomainError(f"tail_tol must be positive, got {tail_tol!r}")
    n = _check_n(n)
    cumulative = np.cumsum(column)  # non-decreasing, so searchable
    stop = int(np.searchsorted(cumulative, 1.0 - tail_tol, side="right")) + 1
    if stop > len(column):
        raise NumericError(f"transition row from n={n} did not capture 1 - {tail_tol} "
                           f"within m <= {len(column) - 1}", partial=tuple(column.tolist()))
    return TransitionRow(
        n=n, probabilities=tuple(column[:stop].tolist()),
        truncation_m=stop, tail_bound=max(0.0, 1.0 - float(cumulative[stop - 1])),
    )
