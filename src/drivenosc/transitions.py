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
from scipy.special import gammaln

from .canonical import CanonicalFrame
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
    def from_frame(cls, frame: CanonicalFrame, t: float) -> "DisplacementParams":
        params = frame.params
        if params.omega <= 0.0:
            raise DomainError("displacement parameters need omega > 0")
        x, xdot, _ = frame.values(t)
        return cls(
            a=math.sqrt(params.m * params.omega) * x,
            b=xdot * math.sqrt(params.m / params.omega),
        )

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

    def total(self) -> float:
        return sum(self.probabilities)


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
    # log(lo!/hi!) = -|log m! - log n!|, since log m! does not decrease in m
    return np.sign(lag), log_mag - 0.5 * np.abs(gammaln(m + 1) - gammaln(n + 1))


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


def transition_probability(n: int, m: int, frame: CanonicalFrame, t: float) -> float:
    """P(n -> m) at time t: squared overlap with the frame's displacement."""
    d = DisplacementParams.from_frame(frame, t)
    return abs(overlap_amplitude(n, m, d)) ** 2


@dataclass(frozen=True)
class OracleResult:
    """Quadrature value plus metadata about the rule that produced it."""

    value: complex
    order: int
    warning: str | None = None


def overlap_by_quadrature(n: int, m: int, d: DisplacementParams, order: int) -> OracleResult:
    """The overlap integral evaluated directly by Gauss-Hermite quadrature.

    Completing the square in e^{-(x+a)^2/2} e^{-x^2/2} centres the weight:
    with y = x + a/2 the integrand becomes
    H_m(y+a/2) H_n(y-a/2) e^{-iyb} e^{ia b/2} e^{-a^2/4} against e^{-y^2},
    which an ``order``-point rule handles once order covers the polynomial
    degree plus the oscillation of e^{-iyb}.  Shares no algebra with
    overlap_amplitude - this is the oracle side of the pair.
    """
    n, m = _check_n(n), _check_n(m)
    min_order = n + m + 10
    warning = None
    if order < min_order:
        warning = f"order {order} below recommended minimum {min_order}; accuracy not certified"
    nodes, weights = gauss_hermite_rule(order)
    hm = hermite_poly(m, nodes + 0.5 * d.a)
    hn = hermite_poly(n, nodes - 0.5 * d.a)
    osc = [cmath.exp(-1j * d.b * y) for y in nodes]
    acc = 0.0 + 0.0j
    for w, pm, pn, e in zip(weights, hm, hn, osc):
        acc += w * pm * pn * e
    const = math.exp(-0.25 * d.a**2) * cmath.exp(0.5j * d.a * d.b)
    norm = math.exp(
        -0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1) + math.lgamma(m + 1)
                + math.log(math.pi))
    )
    return OracleResult(value=acc * const * norm, order=order, warning=warning)


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


def ground_state_survival(frame: CanonicalFrame, t: float) -> float:
    """P(0 -> 0) at time t: exp(-(a^2 + b^2)/2)."""
    d = DisplacementParams.from_frame(frame, t)
    return math.exp(-d.poisson_mean())
