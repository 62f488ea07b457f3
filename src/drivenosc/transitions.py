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

for a whole column m = 0 .. M-1 at once, and for a block of times (one
lambda each) at once.  Each entry depends only on (n, m, lambda), so a
shorter column is a bit-exact prefix of a longer one, and probabilities
take lambda alone (``excitation_mean`` of the ``displacements`` a, b),
while the amplitude pair, whose phase needs both, takes (a, b).
A row is the column's shortest prefix holding 1 - tail_tol;
``probability_columns`` computes each time for its row only (the route
the ``transitions`` command and verify's row checks share).  NOTES.md
derives the form from the generating-function k-sum, which cancels
catastrophically, so is not used; ``overlap_by_quadrature`` is its oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classical import OscillatorParams
from .errors import DomainError, NumericError
from .hermite import _check_n, gauss_hermite_rule, hermite_poly

# A column runs to m = max(COLUMN_ENTRIES - 1, m_max) at most, and first
# to m = m_max + ROW_ROOM.  On the benchmark's transitions ops (seeds 1-10,
# 780,600 sample times) a row ended at most 33 entries past m_max: 0.008%
# of the rows_high_n times, and none of frame_sweep's, need more than the
# first length; those are recomputed once at the full length.
COLUMN_ENTRIES = 501
ROW_ROOM = 32
# A block of columns holds at most BLOCK_ENTRIES entries, so memory does
# not grow with the number of sample times.
BLOCK_ENTRIES = 1 << 19


def _root(m: float, w: float, power: int) -> float:
    """sqrt(m w^power), power 1 or -1, from the frexp parts of m and w:
    finite wherever the root is (inf where it overflows), and bit for bit
    math.sqrt(m * w**power) wherever m * w**power is a normal float."""
    (fm, em), (fw, ew) = math.frexp(m), math.frexp(w)
    k, odd = divmod(em + power * ew, 2)
    return float(np.ldexp(math.sqrt(math.ldexp(fm * fw if power > 0 else fm / fw, odd)), k))


def displacements(params: OscillatorParams, x_nh, xdot_nh) -> tuple[np.ndarray, np.ndarray]:
    """a = sqrt(m w) x_nh and b = xdot_nh sqrt(m / w) of frame value arrays."""
    if params.omega <= 0.0:
        raise DomainError("displacement parameters need omega > 0")
    return _root(params.m, params.omega, 1) * x_nh, xdot_nh * _root(params.m, params.omega, -1)


def excitation_mean(a, b):
    """lambda = |beta|^2 = (a^2 + b^2)/2 of floats or arrays: the mean excitation."""
    return 0.5 * (a * a + b * b)


def _check_displacement(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"displacement must be finite, got ({a!r}, {b!r})")


def _check_tail_tol(tail_tol: float) -> None:
    if not tail_tol > 0.0:  # NaN fails too
        raise DomainError(f"tail_tol must be positive, got {tail_tol!r}")


@dataclass(frozen=True)
class TransitionRow:
    """P(n -> m) for m = 0 .. truncation_m - 1 at one time."""

    n: int
    probabilities: tuple[float, ...]
    tail_bound: float

    def __post_init__(self):
        if not _valid_row(self.probabilities):
            raise DomainError("transition probabilities must lie in [0, 1] and sum to at most 1")

    @property
    def truncation_m(self) -> int:
        return len(self.probabilities)


def _valid_row(probs) -> bool:
    """Each entry in [0, 1] and the sum at most 1, up to rounding; NaN fails."""
    return bool(_valid_rows(np.asarray(probs, dtype=float)))


def _valid_rows(p: np.ndarray) -> np.ndarray:
    """``_valid_row`` along the last axis: one decision per row of a block
    (an empty row passes).  Each row is summed on its own, in the order a
    1-D sum takes."""
    return ((p.min(axis=-1, initial=0.0) >= -1e-12) & (p.max(axis=-1, initial=0.0) <= 1.0 + 1e-12)
            & (p.sum(axis=-1) <= 1.0 + 1e-10))


def _laguerre_column(n: int, lam, m_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |A(n, m)| (the Laguerre form above) for m = 0 .. m_stop-1.

    A scalar lam gives one column, an array one row per entry; DomainError
    for a negative m_stop or a negative or non-finite lam.  Each entry
    depends only on (n, m, lam), so a shorter column is an exact prefix of
    a longer one.
    """
    if m_stop < 0:
        raise DomainError(f"m_stop must be >= 0, got {m_stop!r}")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    bad = lams[~((lams >= 0.0) & (lams < math.inf))]  # NaN fails both
    if bad.size:
        raise DomainError(f"excitation mean lambda must be finite and >= 0, got {float(bad[0])!r}")
    rate = lams[:, None]
    m = np.arange(m_stop)
    gap = np.abs(m - n)
    # lag * e^scale = L_k^{(gap)}(lam), raised in degree k by the increments
    # inc * e^scale = L_k^{(gap-1)}(lam) (accurate as lam -> 0; see NOTES.md).
    # Entry m stops at k = min(m, n), so step k only moves the entries m > k.
    shape = (lams.size, m_stop)
    lag, inc, scale = np.ones(shape), np.ones(shape), np.zeros(shape)
    for k in range(min(n, m_stop - 1)):
        moving, step = lag[:, k + 1:], inc[:, k + 1:]
        step *= k + gap[k + 1:]
        step -= rate * moving
        step /= k + 1
        moving += step
        size = np.abs(moving)
        big = size > 1e150  # rescale an entry long before it overflows
        if big.any():
            f = np.where(big, size, 1.0)
            moving /= f
            step /= f
            scale[:, k + 1:] += np.log(f)
    # math.log per lam: np.log over the array can differ in the last bit
    half_log = np.array([[0.5 * math.log(x) if x > 0.0 else 0.0] for x in lams.tolist()])
    with np.errstate(divide="ignore"):  # an exact zero of L has log -inf
        log_mag = scale + np.log(np.abs(lag)) + gap * half_log - 0.5 * rate
    # log(hi!/lo!) = sum of log k over lo < k <= hi, summed outward from n so
    # that its rounding scales with the gap, not with log n!
    log_ratio = np.zeros(max(n + 1, m_stop))
    log_ratio[n + 1:] = np.cumsum(np.log(np.arange(n + 1, log_ratio.size)))
    log_ratio[:n] = np.cumsum(np.log(np.arange(n, 0, -1)))[::-1]
    log_mag -= 0.5 * log_ratio[:m_stop]
    sign = np.sign(lag)
    still = lams == 0.0  # no displacement: A(n, m) is exactly delta_nm
    sign[still] = 1.0
    log_mag[still] = np.where(m == n, 0.0, -np.inf)
    if np.ndim(lam) == 0:
        return sign[0], log_mag[0]
    return sign, log_mag


def overlap_amplitude(n: int, m: int, a: float, b: float) -> complex:
    """Closed-form overlap A(n, m) at displacement (a, b), global phase dropped."""
    n, m = _check_n(n), _check_n(m)
    _check_displacement(a, b)
    sign, log_mag = _laguerre_column(n, excitation_mean(a, b), m + 1)
    theta = math.atan2(-b, a if m >= n else -a)  # arg u
    return complex(sign[m]) * cmath.exp(log_mag[m] + 1j * (0.5 * a * b + abs(m - n) * theta))


def _row_stop(cumulative: np.ndarray, tail_tol: float) -> np.ndarray:
    """Length of the shortest prefix whose mass exceeds 1 - tail_tol, along
    the last axis of the partial sums; one past the end where none does."""
    return (cumulative <= 1.0 - tail_tol).sum(axis=-1) + 1


def _checked(n: int, probs: np.ndarray) -> np.ndarray:
    if not _valid_row(probs):
        raise NumericError(f"transition row from n={n} is not finite or not in [0, 1]",
                           partial=tuple(probs.tolist()))
    return probs


def probability_column(n: int, lam: float, m_stop: int) -> np.ndarray:
    """P(n -> m) for m = 0 .. m_stop-1 at lam; NumericError if any value is invalid."""
    return _checked(n, np.exp(2.0 * _laguerre_column(_check_n(n), lam, m_stop)[1]))


def probability_columns(n: int, lams, m_max: int, tail_tol: float) -> Iterator[np.ndarray]:
    """P(n -> m) at each lambda of the 1-D array lams, as far as its row
    (cut at 1 - tail_tol) or m <= m_max needs; DomainError for a tail_tol
    that is not positive, a negative m_max or a negative or non-finite
    lambda, NumericError at the first invalid column.

    A column is first m_max + ROW_ROOM + 1 entries long, computed a block
    of times at once; one whose row has not ended there is the full
    ``probability_column`` of max(COLUMN_ENTRIES, m_max + 1) entries, where
    ``probability_row`` fails if the row has not ended either.  Each is a
    prefix of the full column, and only its computed entries are checked,
    once per block; ``_checked`` words the failure of an invalid row.
    """
    n = _check_n(n)
    _check_tail_tol(tail_tol)
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max!r}")
    lams = np.asarray(lams, dtype=float)
    full = max(COLUMN_ENTRIES, m_max + 1)
    first = min(m_max + ROW_ROOM + 1, full)
    rows = max(1, BLOCK_ENTRIES // full)
    for start in range(0, lams.size, rows):
        probs = np.exp(2.0 * _laguerre_column(n, lams[start:start + rows], first)[1])
        ended = _row_stop(np.cumsum(probs, axis=1), tail_tol) <= first
        valid = _valid_rows(probs)
        for lam, column, done, ok in zip(lams[start:start + rows].tolist(), probs,
                                         ended.tolist(), valid.tolist()):
            if not done:
                yield probability_column(n, lam, full)
            else:
                yield column if ok else _checked(n, column)


def overlap_by_quadrature(n: int, m: int, a: float, b: float, order: int) -> complex:
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
    _check_displacement(a, b)
    nodes, weights = gauss_hermite_rule(order)
    hm = hermite_poly(m, nodes + 0.5 * a)
    hn = hermite_poly(n, nodes - 0.5 * a)
    acc = complex(np.sum(weights * hm * hn * np.exp(-1j * b * nodes)))
    const = math.exp(-0.25 * a**2) * cmath.exp(0.5j * a * b)
    norm = math.exp(
        -0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1) + math.lgamma(m + 1)
                + math.log(math.pi))
    )
    return acc * const * norm


def probability_row(n: int, column: np.ndarray, tail_tol: float) -> TransitionRow:
    """Shortest prefix of a P(n -> m) column (m = 0, 1, ...) whose mass
    exceeds 1 - tail_tol; NumericError if the whole column holds less."""
    _check_tail_tol(tail_tol)
    n = _check_n(n)
    cumulative = np.cumsum(column)
    stop = int(_row_stop(cumulative, tail_tol))
    if stop > len(column):
        raise NumericError(f"transition row from n={n} did not capture 1 - {tail_tol} "
                           f"within m <= {len(column) - 1}", partial=tuple(column.tolist()))
    return TransitionRow(
        n=n, probabilities=tuple(column[:stop].tolist()),
        tail_bound=max(0.0, 1.0 - float(cumulative[stop - 1])),
    )
