"""Grid-based quantum evolution and the frame-change unitaries.

States live on a uniform periodic grid (endpoint excluded, FFT layout).
Time stepping is second-order Strang splitting: half potential step,
spectral kinetic step, half potential step, with the driving force
evaluated at the midpoint of each step.  Every factor is a pure phase, so
the discrete norm is conserved to rounding.

The frame-change maps are shift-plus-phase operators built from a
:class:`~drivenosc.canonical.CanonicalFrame`:

    moving_to_lab:  phi(x)  -> e^{i phase_to_lab(x, t)}  phi(x - x_nh(t))
    lab_to_moving:  psi(xi) -> e^{i phase_to_moving(xi, t)} psi(xi + x_nh(t))

with phase_to_lab(x, t) = (x - x_nh) m xdot_nh + G and
phase_to_moving(xi, t) = -(xi m xdot_nh + G), so each map is the exact
inverse of the other, global phase included.  Each map reads the frame
once.

Shifts are applied in the momentum representation (exact for band-limited
states).  These two maps intertwine the driven and unforced evolutions:
lab_to_moving(evolve_lab(psi, t), t) equals evolve_moving(psi, t), which
is the central covariance property the test suite drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalFrame, _phase_to_lab, _phase_to_moving
from .classical import OscillatorParams
from .errors import BoundaryError, DomainError
from .forcing import ForcingSpec, ZeroForcing
from .hermite import eigenstate

_BOUNDARY_FRACTION = 0.05
_BOUNDARY_MASS = 1e-10


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
    def default(cls, params: OscillatorParams, dt: float = 1e-3) -> "GridSpec":
        """x in [-12, 12]/sqrt(m w), 1024 points; eigenstate tails for
        n <= 10 are below 1e-12 at the edges."""
        if params.omega <= 0.0:
            raise DomainError("default grid needs omega > 0")
        half = 12.0 / math.sqrt(params.m * params.omega)
        return cls(x_min=-half, x_max=half, points=1024, dt=dt)


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
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.grid.dx)

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.values / n)

    def boundary_mass(self) -> float:
        """Probability mass in the outer 5% of the grid on either side."""
        edge = max(1, int(_BOUNDARY_FRACTION * self.grid.points))
        density = np.abs(self.values) ** 2 * self.grid.dx
        return float(np.sum(density[:edge]) + np.sum(density[-edge:]))


def _check_boundary(psi: WaveFunction, context: str) -> None:
    mass = psi.boundary_mass()
    if mass > _BOUNDARY_MASS * max(psi.norm() ** 2, 1e-30):
        raise BoundaryError(
            f"{context}: boundary region holds mass {mass:.3e}; "
            "enlarge the grid", partial=psi,
        )


def eigenstate_wavefunction(params: OscillatorParams, n: int,
                            grid: GridSpec | None = None) -> WaveFunction:
    grid = grid or GridSpec.default(params)
    return WaveFunction(grid, eigenstate(params, n, grid.x).astype(complex))


def coherent_wavefunction(params: OscillatorParams, x0: float, p0: float,
                          grid: GridSpec | None = None) -> WaveFunction:
    """Displaced ground state with <x> = x0 and <p> = p0."""
    grid = grid or GridSpec.default(params)
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


def _shift_values(psi: WaveFunction, shift: float) -> np.ndarray:
    """values(x - shift) via the momentum representation (band-limited exact)."""
    k = psi.grid.wavenumbers
    return np.fft.ifft(np.fft.fft(psi.values) * np.exp(-1j * k * shift))


def _require_normalized(psi: WaveFunction, context: str) -> None:
    if abs(psi.norm() - 1.0) > 1e-6:
        raise DomainError(f"{context}: initial state must be normalized")


def evolve_lab(params: OscillatorParams, spec: ForcingSpec, psi0: WaveFunction,
               t_final: float, t0: float = 0.0) -> WaveFunction:
    """Driven evolution under -(1/2m) d^2/dx^2 + m w^2 x^2/2 - x k(t),
    from t0 to t_final, by split-operator stepping of psi0.grid.dt."""
    grid = psi0.grid
    if not (math.isfinite(t_final) and t_final >= t0):
        raise DomainError(f"need t0 <= t_final, got [{t0}, {t_final}]")
    _require_normalized(psi0, "evolve")
    _check_boundary(psi0, "initial state")

    m, w = params.m, params.omega
    x = grid.x
    k2 = grid.wavenumbers**2
    dt = grid.dt

    span = t_final - t0
    n_full = int(math.floor(span / dt + 1e-12))
    remainder = span - n_full * dt
    if remainder < 1e-12 * max(1.0, abs(span)):
        remainder = 0.0

    kin = np.exp(-1j * k2 / (2.0 * m) * dt)
    harm_half = np.exp(-1j * (0.5 * m * w * w * x * x) * (0.5 * dt))

    vals = psi0.values.copy()
    zero_force = isinstance(spec, ZeroForcing)

    def do_step(step_dt, kin_phase, harm_phase, t_mid):
        nonlocal vals
        if zero_force:
            half = harm_phase
        else:
            half = harm_phase * np.exp(1j * x * spec.evaluate(t_mid) * (0.5 * step_dt))
        vals = half * vals
        vals = np.fft.ifft(kin_phase * np.fft.fft(vals))
        vals = half * vals

    t = t0
    for j in range(n_full):
        do_step(dt, kin, harm_half, t + 0.5 * dt)
        t += dt
        if (j + 1) % 256 == 0:
            _check_boundary(WaveFunction(grid, vals), f"evolution at t={t:.6g}")
    if remainder > 0.0:
        kin_r = np.exp(-1j * k2 / (2.0 * m) * remainder)
        harm_r = np.exp(-1j * (0.5 * m * w * w * x * x) * (0.5 * remainder))
        do_step(remainder, kin_r, harm_r, t + 0.5 * remainder)

    out = WaveFunction(grid, vals)
    _check_boundary(out, "final state")
    return out


def evolve_moving(params: OscillatorParams, phi0: WaveFunction, t_final: float,
                  t0: float = 0.0) -> WaveFunction:
    """Unforced evolution (the moving-frame Hamiltonian)."""
    return evolve_lab(params, ZeroForcing(), phi0, t_final, t0=t0)


def moving_to_lab(frame: CanonicalFrame, phi: WaveFunction, t: float) -> WaveFunction:
    """Map a moving-frame state to the laboratory frame at time t:
    shift by +x_nh(t), then attach e^{i phase_to_lab(x, t)}."""
    center = frame.values(t)
    shifted = _shift_values(phi, center[0])
    vals = np.exp(1j * _phase_to_lab(frame.params.m, phi.grid.x, center)) * shifted
    out = WaveFunction(phi.grid, vals)
    _check_boundary(out, "moving_to_lab")
    return out


def lab_to_moving(frame: CanonicalFrame, psi: WaveFunction, t: float) -> WaveFunction:
    """Inverse frame map: shift by -x_nh(t) with phase_to_moving attached."""
    center = frame.values(t)
    shifted = _shift_values(psi, -center[0])
    vals = np.exp(1j * _phase_to_moving(frame.params.m, psi.grid.x, center)) * shifted
    out = WaveFunction(psi.grid, vals)
    _check_boundary(out, "lab_to_moving")
    return out


def kinetic_expectation(params: OscillatorParams, psi: WaveFunction) -> float:
    k2 = psi.grid.wavenumbers**2
    tpsi = np.fft.ifft(k2 / (2.0 * params.m) * np.fft.fft(psi.values))
    return float(np.real(np.sum(np.conj(psi.values) * tpsi) * psi.grid.dx))


def energy_expectation(params: OscillatorParams, psi: WaveFunction,
                       spec: ForcingSpec | None = None, t: float = 0.0) -> float:
    """<psi, H psi> with the driving term included when spec is given."""
    x = psi.grid.x
    v = 0.5 * params.m * params.omega**2 * x * x
    if spec is not None:
        v = v - x * spec.evaluate(t)
    pot = float(np.sum(v * np.abs(psi.values) ** 2) * psi.grid.dx)
    return kinetic_expectation(params, psi) + pot


def position_expectation(psi: WaveFunction) -> float:
    return float(np.sum(psi.grid.x * np.abs(psi.values) ** 2) * psi.grid.dx)


def momentum_expectation(psi: WaveFunction) -> float:
    k = psi.grid.wavenumbers
    ppsi = np.fft.ifft(k * np.fft.fft(psi.values))
    return float(np.real(np.sum(np.conj(psi.values) * ppsi) * psi.grid.dx))


def fidelity(psi1: WaveFunction, psi2: WaveFunction) -> float:
    """|<psi1, psi2>|^2 for unit-norm states: phase-insensitive closeness."""
    return abs(overlap(psi1, psi2)) ** 2


def phase_quotient_defect(psi1: WaveFunction, psi2: WaveFunction) -> float:
    """Grid-norm distance min_phi || e^{i phi} psi1 - psi2 ||.

    Computed by rotating psi1 onto psi2's phase and subtracting pointwise,
    which stays accurate far below the cancellation floor of the
    2 - 2|<psi1, psi2>| form.
    """
    inner = overlap(psi1, psi2)
    rot = inner / abs(inner) if inner != 0.0 else 1.0
    diff = rot * psi1.values - psi2.values
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * psi1.grid.dx)