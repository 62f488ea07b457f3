"""Grid-based quantum evolution and the frame-change unitaries.

States live on a uniform periodic grid (endpoint excluded, FFT layout).
Time stepping is second-order Strang splitting (Strang 1968; Feit, Fleck
& Steiger 1982): half potential step, spectral kinetic step, half
potential step, with the driving force k_j evaluated at the midpoint of
step j.  Every factor is a pure phase, so the discrete norm is conserved
to rounding.

The stepper advances a (k, points) stack of states that share one grid,
one force and one time span (``evolve_states``; ``evolve_lab`` is the
stack of one).  Every phase below broadcasts over the rows and each
kinetic step is one FFT pair along the last axis, so each row is
bit-equal to the same state stepped alone, while k states cost less than
k separate runs: one 1024-point FFT pair of a 3-state stack costs about
1.8 times that of one state on a 2-vCPU host.

One state check, on the stack before the first step, every 256 steps and
at the end, and on each frame map's output: each row must be finite and
hold at most 1e-10 of its mass in the outer 5% of the grid on either side.

The steps run in blocks of at most 256, the boundary-check interval.
Within a block the half potential step that ends step j and the one that
starts step j + 1 are both multiplications by functions of x, so they
commute and fuse into one exact phase,

    e^{-i (dt/2) V_j} e^{-i (dt/2) V_{j+1}} = e^{-i dt V_h} e^{i (dt/2)(k_j + k_{j+1}) x},

with V_h = m w^2 x^2/2 and V_j = V_h - x k_j.  A block of n steps thus
costs n + 1 potential multiplies instead of 2n, with only its first and
last factor a half step, so the state between blocks is the true state
at a whole-step time; the fused product differs from the unfused one
only by rounding.  k is read once per block, at all its midpoints, and
not at all over a block where ``spec.vanishes``.  The drive phase e^{icx}
is never formed over the whole grid: with x_l = x_min + dx (q a + b) on
the (points/q, q) view of the state, q = 2^floor(bitlen(points)/2), it is
e^{ic (x_min + q dx a)} times e^{ic dx b}, two short factors per step
that are exact to rounding (7e-15 at c = 3.7 on the default grid).

The frame-change maps are shift-plus-phase operators built from a
:class:`~drivenosc.canonical.CanonicalFrame`, the phase being the type-1
generating function at zero new momentum, F1(x, 0, t) =
(x - x_nh) m xdot_nh + G:

    moving_to_lab:  phi -> e^{i F1(x, 0, t)} phi(x - x_nh(t))
    lab_to_moving:  psi -> (e^{-i F1(x, 0, t)} psi)(xi + x_nh(t))

The second is the adjoint of the first, its factors taken in reverse
order, so each map is the exact inverse of the other, global phase
included.  Each map reads the frame once.

Shifts are applied in the momentum representation (exact for band-limited
states).  These two maps intertwine the driven and unforced evolutions:
lab_to_moving(evolve_lab(psi, t), t) equals the unforced evolution of psi,
sum_n c_n e^{-i E_n t} phi_n for psi = sum_n c_n phi_n, which is the
central covariance property the test suite drives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalFrame, _f1
from .classical import OscillatorParams
from .errors import BoundaryError, DomainError, NumericError
from .forcing import ForcingSpec
from .hermite import eigenstate

_BOUNDARY_FRACTION = 0.05
_BOUNDARY_MASS = 1e-10
# Steps per block of the split-operator stepper: the boundary-check interval,
# and the steps that share one force read.
_BLOCK = 256


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid: x_j = x_min + j dx, j = 0 .. points-1."""

    x_min: float
    x_max: float
    points: int
    dt: float

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise DomainError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.points < 64 or self.points & (self.points - 1):
            raise DomainError(f"points must be a power of two >= 64, got {self.points}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers of the grid."""
        return 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.dx)

    @classmethod
    def default(cls, params: OscillatorParams) -> "GridSpec":
        """x in [-12, 12]/sqrt(m w), 1024 points, dt 1e-3.  It holds the
        eigenstates n <= 37 (n = 38 puts 2.1e-10 of its mass in the outer
        5%); a larger n needs a scenario ``grid`` block."""
        if params.omega <= 0.0:
            raise DomainError("default grid needs omega > 0")
        half = 12.0 / math.sqrt(params.m * params.omega)
        return cls(x_min=-half, x_max=half, points=1024, dt=1e-3)


@dataclass(frozen=True)
class WaveFunction:
    """Complex state samples on a grid; a frozen snapshot."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.grid.points,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid points {self.grid.points}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        with np.errstate(over="ignore"):  # an overflow is an infinite norm; callers check it
            return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.grid.dx)

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.values / n)


def _check_states(grid: GridSpec, values: np.ndarray, context: str) -> None:
    """The state check on a (points,) state or a (k, points) stack: the
    first failing row is named ("stack row i" past one) and kept as partial."""
    rows = values.reshape(-1, grid.points)
    edge = max(1, int(_BOUNDARY_FRACTION * grid.points))
    with np.errstate(over="ignore"):  # an overflow is an infinite mass, caught below
        density = np.abs(rows) ** 2 * grid.dx
        mass = density[:, :edge].sum(axis=1) + density[:, -edge:].sum(axis=1)
        total = density.sum(axis=1)  # not finite wherever mass is not
    failing = ~np.isfinite(total) | (mass > _BOUNDARY_MASS * np.maximum(total, 1e-30))
    if not failing.any():
        return
    i = int(np.argmax(failing))
    where = context if len(rows) == 1 else f"{context}, stack row {i}"
    partial = WaveFunction(grid, rows[i])
    if not math.isfinite(total[i]):
        raise NumericError(f"{where}: the state is not finite", partial=partial)
    raise BoundaryError(f"{where}: boundary region holds mass {mass[i]:.3e}; enlarge the grid",
                        partial=partial)


def eigenstate_wavefunction(params: OscillatorParams, n: int, grid: GridSpec) -> WaveFunction:
    return WaveFunction(grid, eigenstate(params, n, grid.x).astype(complex))


def coherent_wavefunction(params: OscillatorParams, x0: float, p0: float,
                          grid: GridSpec) -> WaveFunction:
    """Displaced ground state with <x> = x0 and <p> = p0."""
    vals = eigenstate(params, 0, grid.x - x0) * np.exp(1j * p0 * grid.x)
    return WaveFunction(grid, vals).normalized()


def overlap(psi1: WaveFunction, psi2: WaveFunction) -> complex:
    """<psi1, psi2> = sum conj(psi1) psi2 dx; grids must match."""
    if psi1.grid != psi2.grid:
        raise DomainError("overlap needs both states on the same grid")
    return complex(np.sum(np.conj(psi1.values) * psi2.values) * psi1.grid.dx)


def momentum_representation(psi: WaveFunction) -> WaveFunction:
    """Unitary map to the momentum representation,

        Psi(p) = (2 pi)^{-1/2} integral e^{-ipx} Psi(x) dx,

    discretized so the grid norm is preserved exactly.  The result lives
    on the conjugate grid p in [-pi/dx, pi/dx), ascending.
    """
    grid = psi.grid
    n = grid.points
    transformed = np.fft.fft(psi.values)
    p_fft = grid.wavenumbers
    spectral = grid.dx / math.sqrt(2.0 * math.pi) * np.exp(-1j * p_fft * grid.x_min) * transformed
    dp = 2.0 * math.pi / (n * grid.dx)
    p_min = -0.5 * n * dp
    p_grid = GridSpec(x_min=p_min, x_max=p_min + n * dp, points=n, dt=grid.dt)
    return WaveFunction(p_grid, np.fft.fftshift(spectral))


def _shift_values(grid: GridSpec, values: np.ndarray, shift: float) -> np.ndarray:
    """values(x - shift) via the momentum representation (band-limited exact)."""
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * grid.wavenumbers * shift))


def evolve_lab(params: OscillatorParams, spec: ForcingSpec, psi0: WaveFunction,
               t_final: float, t0: float = 0.0) -> WaveFunction:
    """Driven evolution under -(1/2m) d^2/dx^2 + m w^2 x^2/2 - x k(t),
    from t0 to t_final, by split-operator stepping of psi0.grid.dt."""
    return evolve_states(params, spec, (psi0,), t_final, t0)[0]


def evolve_states(params: OscillatorParams, spec: ForcingSpec, states: Sequence[WaveFunction],
                  t_final: float, t0: float = 0.0) -> tuple[WaveFunction, ...]:
    """``evolve_lab`` of every state in ``states`` (all on one grid), stepped
    together as one (k, points) stack; row i of the result is bit-equal to
    ``evolve_lab`` of ``states[i]``.  A boundary or finiteness failure names
    the row and keeps that row's state as ``partial``."""
    states = tuple(states)
    if not states:
        raise DomainError("evolve_states needs at least one state")
    grid = states[0].grid
    if any(psi.grid != grid for psi in states):
        raise DomainError("evolve_states needs every state on the same grid")
    if not (math.isfinite(t_final) and t_final >= t0):
        raise DomainError(f"need t0 <= t_final, got [{t0}, {t_final}]")
    if any(abs(psi.norm() - 1.0) > 1e-6 for psi in states):
        raise DomainError("evolve: initial state must be normalized")
    vals = np.stack([psi.values for psi in states])
    _check_states(grid, vals, "initial state")

    dt = grid.dt
    span = t_final - t0
    n_full = int(math.floor(span / dt + 1e-12))
    remainder = span - n_full * dt
    if remainder < 1e-12 * max(1.0, abs(span)):
        remainder = 0.0

    # a lone state steps as its (points,) row: the broadcast multiplies and
    # FFTs of a (1, points) stack add ~2.5 us (3%) to a 1024-point step
    # (2-vCPU host, 57 of 60 paired blocks)
    block = vals[0] if len(states) == 1 else vals
    for start in range(0, n_full, _BLOCK):
        end = min(start + _BLOCK, n_full)
        _strang_block(params, spec, block, grid, t0 + start * dt, dt, end - start)
        if end % _BLOCK == 0:
            _check_states(grid, vals, f"evolution at t={t0 + end * dt:.6g}")
    if remainder > 0.0:
        _strang_block(params, spec, block, grid, t0 + n_full * dt, remainder, 1)

    _check_states(grid, vals, f"final state at t={t_final:.6g}")
    return tuple(WaveFunction(grid, row) for row in vals)


def _strang_block(params: OscillatorParams, spec: ForcingSpec, vals: np.ndarray,
                  grid: GridSpec, t_a: float, dt: float, steps: int) -> None:
    """Advance vals, a (points,) state or a (k, points) stack, in place by
    `steps` Strang steps of dt from t_a, with the potential steps fused and
    k read at every midpoint in one evaluate call (see the module
    docstring).  Every phase broadcasts over the rows, and each kinetic
    step is one FFT pair along the last axis."""
    v = 0.5 * params.m * params.omega**2 * grid.x**2
    ends = np.exp(-0.5j * dt * v)
    inner = np.exp(-1j * dt * v)
    kin = np.exp(-1j * dt / (2.0 * params.m) * grid.wavenumbers**2)

    driven = not spec.vanishes(t_a, t_a + steps * dt)
    if driven:
        half = 0.5 * dt * spec.evaluate(t_a + (np.arange(steps) + 0.5) * dt)
        c = np.append(half, 0.0) + np.insert(half, 0, 0.0)  # e^{icx} of each multiply
        q = 1 << (grid.points.bit_length() // 2)
        view = vals.reshape(*vals.shape[:-1], -1, q)  # x_min + dx (q a + b) at [..., a, b]
        coarse = grid.x_min + q * grid.dx * np.arange(grid.points // q)
        by_row = np.exp(1j * np.multiply.outer(c, coarse))[:, :, None]
        by_col = np.exp(1j * np.multiply.outer(c, grid.dx * np.arange(q)))[:, None, :]

    spectrum = np.empty_like(vals)
    for j in range(steps + 1):
        vals *= ends if j in (0, steps) else inner
        if driven:
            view *= by_row[j]
            view *= by_col[j]
        if j < steps:
            np.fft.fft(vals, out=spectrum)
            spectrum *= kin
            np.fft.ifft(spectrum, out=vals)


def moving_to_lab(frame: CanonicalFrame, phi: WaveFunction, t: float) -> WaveFunction:
    """Map a moving-frame state to the laboratory frame at time t:
    shift by +x_nh(t), then attach e^{i F1(x, 0, t)}."""
    center = frame.values(t)
    shifted = _shift_values(phi.grid, phi.values, center[0])
    vals = np.exp(1j * _f1(frame.params.m, phi.grid.x, 0.0, center)) * shifted
    _check_states(phi.grid, vals, "moving_to_lab")
    return WaveFunction(phi.grid, vals)


def lab_to_moving(frame: CanonicalFrame, psi: WaveFunction, t: float) -> WaveFunction:
    """Adjoint of ``moving_to_lab``: attach e^{-i F1(x, 0, t)}, then shift
    by -x_nh(t)."""
    center = frame.values(t)
    phased = np.exp(-1j * _f1(frame.params.m, psi.grid.x, 0.0, center)) * psi.values
    vals = _shift_values(psi.grid, phased, -center[0])
    _check_states(psi.grid, vals, "lab_to_moving")
    return WaveFunction(psi.grid, vals)


def kinetic_expectation(params: OscillatorParams, psi: WaveFunction) -> float:
    k2 = psi.grid.wavenumbers**2
    tpsi = np.fft.ifft(k2 / (2.0 * params.m) * np.fft.fft(psi.values))
    return float(np.real(np.sum(np.conj(psi.values) * tpsi) * psi.grid.dx))


def energy_expectation(params: OscillatorParams, psi: WaveFunction,
                       spec: ForcingSpec, t: float) -> float:
    """<psi, H(t) psi>, the driving term -x k(t) included."""
    x = psi.grid.x
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the result is finite
        v = 0.5 * params.m * params.omega**2 * x * x - x * spec.evaluate(t)
        pot = float(np.sum(v * np.abs(psi.values) ** 2) * psi.grid.dx)
    return kinetic_expectation(params, psi) + pot

