"""Named verification checks behind the ``verify`` CLI command.

Every check exercises one contract of the library (a conservation law, an
exact identity, or agreement between a closed form and an independent
numerical route) on the configured scenario and reports its worst
observed error against a fixed tolerance.  All randomness is seeded, so a
report is bit-stable for a given scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import canonical, classical, hermite, schrodinger, transitions
from .classical import OscillatorParams, PhaseState
from .errors import NumericError
from .forcing import PulseForcing, SinusoidForcing, ZeroForcing
from .scenario import Scenario


@dataclass(frozen=True)
class CheckResult:
    check: str
    suite: str
    status: str
    max_error: float
    tolerance: float

    def to_dict(self) -> dict:
        return {"check": self.check, "suite": self.suite, "status": self.status,
                "max_error": self.max_error, "tolerance": self.tolerance}


class _Context:
    """Scenario plus lazily built shared objects (frame, grid states)."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params = scenario.params
        self.spec = scenario.forcing
        self._frame = None
        self._grid = None

    @property
    def frame(self):
        if self._frame is None:
            self._frame = canonical.build_frame(self.params, self.spec, self.scenario.t_max)
        return self._frame

    @property
    def grid(self):
        if self._grid is None:
            self._grid = self.scenario.resolved_grid()
        return self._grid

    def safe_times(self, count: int, seed: int, margin: float = 0.01) -> np.ndarray:
        """Random times in the frame range, away from ends and breakpoints
        (finite differences need a smooth neighborhood), or NumericError."""
        rng = np.random.default_rng(seed)
        t_max = self.scenario.t_max
        lo, hi = margin * t_max, (1.0 - margin) * t_max
        guard = 10.0 * 1e-5 * max(1.0, t_max)  # ten finite-difference steps
        breaks = np.asarray(self.spec.breakpoints(0.0, t_max), dtype=float)
        out = []
        for _ in range(100 * count):
            t = float(rng.uniform(lo, hi))
            if np.all(np.abs(t - breaks) > guard):
                out.append(t)
                if len(out) == count:
                    return np.array(out)
        raise NumericError(f"safe_times: guard bands of {breaks.size} breakpoints leave "
                           f"room for {len(out)} of {count} times", partial=np.array(out))


# ---------------------------------------------------------------------------
# classical suite

def _sweep_params():
    return [OscillatorParams(m, w)
            for m in (1.0, 2.5) for w in (0.5, 1.0, 2.0 * math.pi)]


def check_propagator_group_law(ctx) -> float:
    rng = np.random.default_rng(101)
    worst = 0.0
    for params in _sweep_params():
        t, s = rng.uniform(-8.0, 8.0, (170, 2)).T
        err = classical.propagator(params, t + s) \
            - classical.propagator(params, t) @ classical.propagator(params, s)
        worst = max(worst, float(np.max(np.abs(err))))
    return worst


def check_propagator_determinant(ctx) -> float:
    rng = np.random.default_rng(102)
    worst = 0.0
    for params in _sweep_params():
        u = classical.propagator(params, rng.uniform(-8.0, 8.0, 100))
        worst = max(worst, float(np.max(np.abs(np.linalg.det(u) - 1.0))))
    return worst


def check_form_conjugation(ctx) -> float:
    rng = np.random.default_rng(103)
    worst = 0.0
    for params in _sweep_params():
        form = classical.quadratic_form_matrix(params)
        u = classical.propagator(params, rng.uniform(-8.0, 8.0, 100))
        worst = max(worst, float(np.max(np.abs(np.swapaxes(u, -1, -2) @ form @ u - form))))
    return worst


def _rk_reference(params, spec, z0, t):
    """Independent oracle: direct Runge-Kutta integration of the equations
    of motion, split at forcing breakpoints."""
    from scipy.integrate import solve_ivp  # loaded only where the oracle runs

    def rhs(s, z):
        return [z[1] / params.m,
                -params.m * params.omega**2 * z[0] + spec.evaluate(s)]
    edges = [0.0, *spec.breakpoints(0.0, t), t]
    z = [z0.x, z0.p]
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-12, atol=1e-13)
        z = [float(sol.y[0, -1]), float(sol.y[1, -1])]
    return PhaseState(z[0], z[1])


def check_evolve_vs_rk(ctx) -> float:
    rng = np.random.default_rng(104)
    worst = 0.0
    cases = [(ctx.params, ctx.spec)]
    for _ in range(7):
        params = OscillatorParams(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.3, 3.0)))
        if rng.random() < 0.5:
            spec = SinusoidForcing(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 4.0)),
                                   float(rng.uniform(0, 2 * math.pi)))
        else:
            t_on = float(rng.uniform(0.1, 1.5))
            spec = PulseForcing(float(rng.uniform(-2, 2)), t_on, t_on + float(rng.uniform(0.2, 2.0)))
        cases.append((params, spec))
    for params, spec in cases:
        z0 = PhaseState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        t = float(rng.uniform(0.5, 5.0))
        got = classical.evolve(params, z0, spec, t)
        ref = _rk_reference(params, spec, z0, t)
        worst = max(worst, abs(got.x - ref.x), abs(got.p - ref.p))
    return worst


def check_moving_ellipse_invariant(ctx) -> float:
    scn = ctx.scenario
    z0 = scn.initial_state
    if z0.x == 0.0 and z0.p == 0.0:
        z0 = PhaseState(1.0, 0.5)  # origin start makes the check vacuous
    ref = classical.quadratic_invariant(ctx.params, z0)
    scale = max(1.0, abs(ref))
    worst = 0.0
    for t in np.linspace(0.0, scn.t_max, scn.samples):
        z = classical.evolve(ctx.params, z0, ctx.spec, float(t))
        znh = classical.nonhomogeneous(ctx.params, ctx.spec, float(t))
        inv = classical.quadratic_invariant(
            ctx.params, PhaseState(z.x - znh.x, z.p - znh.p))
        worst = max(worst, abs(inv - ref) / scale)
    return worst


# ---------------------------------------------------------------------------
# canonical suite

def check_newton_residual(ctx) -> float:
    frame, params, spec = ctx.frame, ctx.params, ctx.spec
    worst = 0.0
    for t in ctx.safe_times(60, seed=201):
        h = 1e-5 * max(1.0, t)
        xdd = (frame.xdot_nh(t + h) - frame.xdot_nh(t - h)) / (2.0 * h)
        res = params.m * xdd + params.m * params.omega**2 * frame.x_nh(t) - spec.evaluate(t)
        worst = max(worst, abs(res))
    return worst


def check_gauge_residual(ctx) -> float:
    frame, params, spec = ctx.frame, ctx.params, ctx.spec
    worst = 0.0
    for t in ctx.safe_times(60, seed=202):
        h = 1e-5 * max(1.0, t)
        gdot = (frame.gauge(t + h) - frame.gauge(t - h)) / (2.0 * h)
        x, xd = frame.x_nh(t), frame.xdot_nh(t)
        res = gdot - 0.5 * params.m * xd * xd + 0.5 * params.m * params.omega**2 * x * x \
            - x * spec.evaluate(t)
        worst = max(worst, abs(res))
    return worst


def _transformation_law_error(ctx, params) -> float:
    spec, scn = ctx.spec, ctx.scenario
    if params == ctx.params:
        frame = ctx.frame
    else:
        frame = canonical.build_frame(params, spec, scn.t_max)
    rng = np.random.default_rng(203)
    m, w = params.m, params.omega
    worst = 0.0
    for t in ctx.safe_times(30, seed=204):
        x = float(rng.uniform(-2, 2))
        eta = float(rng.uniform(-2, 2))
        h = 1e-5 * max(1.0, t)
        df1 = (frame.f1(x, eta, t + h) - frame.f1(x, eta, t - h)) / (2.0 * h)
        xc, vc, _ = frame.values(t)
        xi, p = x - xc, eta + m * vc
        knew = 0.5 * (eta * eta / m + m * w * w * xi * xi)
        hold = 0.5 * (p * p / m + m * w * w * x * x) - x * spec.evaluate(t)
        worst = max(worst, abs(knew - (hold + df1)))
    return worst


def check_transformation_law(ctx) -> float:
    base = _transformation_law_error(ctx, ctx.params)
    doubled = OscillatorParams(2.0 * ctx.params.m, ctx.params.omega)
    return max(base, _transformation_law_error(ctx, doubled))


def check_frame_roundtrip(ctx) -> float:
    rng = np.random.default_rng(205)
    worst = 0.0
    for t in ctx.safe_times(20, seed=206):
        z = PhaseState(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        back = ctx.frame.to_lab(ctx.frame.to_moving(z, t), t)
        worst = max(worst, abs(back.x - z.x), abs(back.p - z.p))
    return worst


def check_classical_frame_covariance(ctx) -> float:
    rng = np.random.default_rng(207)
    worst = 0.0
    for t in ctx.safe_times(10, seed=208):
        z0 = PhaseState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        lab = _rk_reference(ctx.params, ctx.spec, z0, t)  # independent of the frame's walk
        lhs = ctx.frame.to_moving(lab, t)
        rhs = classical.evolve(ctx.params, ctx.frame.to_moving(z0, 0.0), ZeroForcing(), t)
        worst = max(worst, abs(lhs.x - rhs.x), abs(lhs.p - rhs.p))
    return worst


def check_frame_cache_vs_exact(ctx) -> float:
    worst = 0.0
    for t in ctx.safe_times(6, seed=209):
        cached = ctx.frame.values(t)
        exact = ctx.frame.exact_values(t)
        worst = max(worst, max(abs(c - e) for c, e in zip(cached, exact)))
    return worst


# ---------------------------------------------------------------------------
# quantum suite

def check_hermite_orthonormality(ctx) -> float:
    nodes, weights = hermite.gauss_hermite_rule(40)
    worst = 0.0
    for n in range(13):
        hn = hermite.hermite_poly(n, nodes)
        for m in range(n, 13):
            hm = hermite.hermite_poly(m, nodes)
            norm = math.exp(-0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1)
                                    + math.lgamma(m + 1) + math.log(math.pi)))
            val = float(np.sum(weights * hn * hm)) * norm
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    return worst


def check_generating_function(ctx) -> float:
    rng = np.random.default_rng(301)
    worst = 0.0
    for n in range(16):
        for x in rng.uniform(-2.0, 2.0, 8):
            # Explicit closed sum for the series coefficient of e^{2xu-u^2};
            # no recurrence shared with hermite_poly.
            coeff = sum((-1.0) ** j * (2.0 * x) ** (n - 2 * j)
                        / (math.factorial(j) * math.factorial(n - 2 * j))
                        for j in range(n // 2 + 1))
            ref = math.factorial(n) * coeff
            got = hermite.hermite_poly(n, float(x))
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst


def check_gaussian_moment(ctx) -> float:
    rng = np.random.default_rng(302)
    nodes, weights = hermite.gauss_hermite_rule(80)
    worst = 0.0
    for _ in range(40):
        z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        if abs(z) > 5.0:
            continue
        quad = complex(np.sum(weights * np.exp(z * nodes)))
        worst = max(worst, abs(hermite.gaussian_integral(z) - quad))
    return worst


def check_eigenstate_operator(ctx) -> float:
    params = ctx.params
    grid = schrodinger.GridSpec.default(params)
    k2 = grid.wavenumbers**2
    worst = 0.0
    for n in range(9):
        psi = schrodinger.eigenstate_wavefunction(params, n, grid)
        kin = np.fft.ifft(k2 / (2.0 * params.m) * np.fft.fft(psi.values))
        pot = 0.5 * params.m * params.omega**2 * grid.x**2 * psi.values
        res = kin + pot - hermite.eigen_energy(params, n) * psi.values
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def check_amplitude_vs_quadrature(ctx) -> float:
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(120):
        n, m = int(rng.integers(0, 11)), int(rng.integers(0, 11))
        d = transitions.DisplacementParams(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        closed = transitions.overlap_amplitude(n, m, d)
        oracle = transitions.overlap_by_quadrature(n, m, d, order=60)
        worst = max(worst, abs(closed - oracle))
    return worst


def check_row_unitarity(ctx) -> float:
    rng = np.random.default_rng(304)
    worst = 0.0
    for n in range(6):
        d = transitions.DisplacementParams(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        total = np.cumsum(transitions.probability_column(n, d, 401))
        # the first partial sum above 1 - 1e-12, or the whole column's
        stop = min(int(np.searchsorted(total, 1.0 - 1e-12, side="right")), total.size - 1)
        worst = max(worst, abs(float(total[stop]) - 1.0))
    return worst


def check_ground_row_poisson(ctx) -> float:
    rng = np.random.default_rng(305)
    worst = 0.0
    for _ in range(6):
        d = transitions.DisplacementParams(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        lam = d.poisson_mean()
        got = transitions.probability_column(0, d, 16)
        for m in range(16):
            ref = math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0 else float(m == 0)
            worst = max(worst, abs(float(got[m]) - ref))
    return worst


def check_amplitude_symmetry(ctx) -> float:
    rng = np.random.default_rng(306)
    worst = 0.0
    for _ in range(150):
        n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        d = transitions.DisplacementParams(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        worst = max(worst, abs(abs(transitions.overlap_amplitude(n, m, d))
                               - abs(transitions.overlap_amplitude(m, n, d))))
    return worst


def _random_state(params, grid, rng, n_modes=7):
    return _random_modes(params, grid, rng, n_modes, 0.0)[0]


def _random_modes(params, grid, rng, n_modes, t):
    """A seeded random state psi0 = sum_n c_n phi_n / N and its exact
    unforced evolution sum_n c_n e^{-i E_n t} phi_n / N at t."""
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    modes = [schrodinger.eigenstate_wavefunction(params, i, grid).values
             for i in range(n_modes)]
    start = schrodinger.WaveFunction(grid, sum(c * v for c, v in zip(coeffs, modes)))
    phases = np.exp(-1j * t * np.array([hermite.eigen_energy(params, i) for i in range(n_modes)]))
    evolved = sum(c * v for c, v in zip(coeffs * phases, modes)) / start.norm()
    return start.normalized(), schrodinger.WaveFunction(grid, evolved)


def check_momentum_rep_unitarity(ctx) -> float:
    params = ctx.params
    grid = schrodinger.GridSpec.default(params)
    rng = np.random.default_rng(307)
    worst = 0.0
    for _ in range(5):
        psi = _random_state(params, grid, rng)
        worst = max(worst, abs(schrodinger.momentum_representation(psi).norm() - psi.norm()))
    return worst


def check_operator_covariance_position(ctx) -> float:
    return _operator_covariance(ctx, momentum=False)


def check_operator_covariance_momentum(ctx) -> float:
    return _operator_covariance(ctx, momentum=True)


def _operator_covariance(ctx, momentum: bool) -> float:
    params = ctx.params
    frame = ctx.frame
    grid = ctx.grid
    rng = np.random.default_rng(308 + int(momentum))
    x = grid.x
    k = grid.wavenumbers
    worst = 0.0
    for t in ctx.safe_times(4, seed=309 + int(momentum)):
        phi = _random_state(params, grid, rng)
        mapped = schrodinger.moving_to_lab(frame, phi, t)
        if momentum:
            opphi = schrodinger.WaveFunction(grid, np.fft.ifft(k * np.fft.fft(phi.values)))
            lhs = schrodinger.moving_to_lab(frame, opphi, t).values
            rhs = np.fft.ifft(k * np.fft.fft(mapped.values)) \
                - params.m * frame.xdot_nh(t) * mapped.values
        else:
            opphi = schrodinger.WaveFunction(grid, x * phi.values)
            lhs = schrodinger.moving_to_lab(frame, opphi, t).values
            rhs = (x - frame.x_nh(t)) * mapped.values
        worst = max(worst, math.sqrt(float(np.sum(np.abs(lhs - rhs) ** 2)) * grid.dx))
    return worst


def check_evolution_covariance_moving(ctx) -> float:
    """Driven evolution mapped to the moving frame vs the exact unforced
    evolution, global phase quotiented."""
    grid, frame = ctx.grid, ctx.frame
    t = ctx.scenario.t_max
    rng = np.random.default_rng(310)
    worst = 0.0
    for _ in range(2):
        psi0, direct = _random_modes(ctx.params, grid, rng, 5, t)
        lab = schrodinger.evolve_lab(ctx.params, ctx.spec, psi0, t)
        via = schrodinger.lab_to_moving(frame, lab, t)
        worst = max(worst, schrodinger.phase_quotient_defect(via, direct))
    return worst


def check_evolution_covariance_lab(ctx) -> float:
    """Converse direction: exact unforced evolution mapped to the lab frame
    vs direct driven evolution."""
    grid, frame = ctx.grid, ctx.frame
    t = ctx.scenario.t_max
    rng = np.random.default_rng(311)
    psi0, moving = _random_modes(ctx.params, grid, rng, 5, t)
    via = schrodinger.moving_to_lab(frame, moving, t)
    direct = schrodinger.evolve_lab(ctx.params, ctx.spec, psi0, t)
    return schrodinger.phase_quotient_defect(via, direct)


def check_frame_map_roundtrip(ctx) -> float:
    grid, frame = ctx.grid, ctx.frame
    rng = np.random.default_rng(312)
    psi = _random_state(ctx.params, grid, rng)
    worst = 0.0
    for t in ctx.safe_times(3, seed=313):
        back = schrodinger.lab_to_moving(frame, schrodinger.moving_to_lab(frame, psi, t), t)
        worst = max(worst, 1.0 - schrodinger.fidelity(back, psi))
    return worst


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    tolerance: float
    fn: Callable


CHECKS: tuple[Check, ...] = (
    Check("propagator_group_law", "classical", 1e-12, check_propagator_group_law),
    Check("propagator_determinant", "classical", 1e-12, check_propagator_determinant),
    Check("quadratic_form_conjugation", "classical", 1e-12, check_form_conjugation),
    Check("evolve_vs_runge_kutta", "classical", 1e-8, check_evolve_vs_rk),
    Check("moving_ellipse_invariant", "classical", 1e-8, check_moving_ellipse_invariant),
    Check("frame_newton_residual", "canonical", 1e-6, check_newton_residual),
    Check("frame_gauge_residual", "canonical", 1e-6, check_gauge_residual),
    Check("hamiltonian_transformation_law", "canonical", 1e-6, check_transformation_law),
    Check("frame_point_roundtrip", "canonical", 1e-12, check_frame_roundtrip),
    Check("classical_frame_covariance", "canonical", 1e-6, check_classical_frame_covariance),
    Check("frame_cache_vs_exact", "canonical", 1e-8, check_frame_cache_vs_exact),
    Check("hermite_orthonormality", "quantum", 1e-10, check_hermite_orthonormality),
    Check("hermite_generating_function", "quantum", 1e-9, check_generating_function),
    Check("gaussian_moment_vs_quadrature", "quantum", 1e-10, check_gaussian_moment),
    Check("eigenstate_operator_identity", "quantum", 1e-6, check_eigenstate_operator),
    Check("amplitude_closed_vs_quadrature", "quantum", 1e-10, check_amplitude_vs_quadrature),
    Check("transition_row_unitarity", "quantum", 1e-8, check_row_unitarity),
    Check("ground_row_poisson", "quantum", 1e-9, check_ground_row_poisson),
    Check("amplitude_symmetry", "quantum", 1e-12, check_amplitude_symmetry),
    Check("momentum_rep_unitarity", "quantum", 1e-12, check_momentum_rep_unitarity),
    Check("operator_covariance_position", "quantum", 1e-8, check_operator_covariance_position),
    Check("operator_covariance_momentum", "quantum", 1e-6, check_operator_covariance_momentum),
    Check("evolution_covariance_moving", "quantum", 1e-4, check_evolution_covariance_moving),
    Check("evolution_covariance_lab", "quantum", 1e-4, check_evolution_covariance_lab),
    Check("frame_map_roundtrip", "quantum", 1e-10, check_frame_map_roundtrip),
)

SUITES = ("classical", "canonical", "quantum", "all")


def run_suite(scenario: Scenario, suite: str = "all") -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    ctx = _Context(scenario)
    results = []
    for check in CHECKS:
        if suite != "all" and check.suite != suite:
            continue
        err = float(check.fn(ctx))
        results.append(CheckResult(
            check=check.name, suite=check.suite,
            status="pass" if err < check.tolerance else "fail",
            max_error=err, tolerance=check.tolerance,
        ))
    return results
