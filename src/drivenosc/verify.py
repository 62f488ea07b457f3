"""Named verification checks behind the ``verify`` CLI command.

Every check exercises one contract of the library (a conservation law, an
exact identity, or agreement between a closed form and an independent
numerical route) on the configured scenario and returns every error it
observed as an ndarray.  ``run_suite`` alone reduces them: ``max_error``
is their ``np.max``, so a NaN anywhere fails the check, and it is held
against the check's fixed tolerance.  All randomness is seeded, so a
report is bit-stable for a given scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import canonical, classical, hermite, schrodinger, transitions
from .classical import OscillatorParams, PhaseState
from .errors import NumericError
from .forcing import PulseForcing, SinusoidForcing
from .scenario import SUITES, Scenario


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
    """Scenario plus lazily built shared objects: the frame, the grid, the
    eigenmodes on it, and the driven run of the two evolution covariance
    checks.  A shared object is built by the first check that reads it, so
    its cost is charged to that check: the driven run to whichever
    covariance check runs first."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params = scenario.params
        self.spec = scenario.forcing

    @cached_property
    def frame(self):
        return canonical.build_frame(self.params, self.spec, self.scenario.t_max)

    @cached_property
    def grid(self):
        return self.scenario.resolved_grid()

    @cached_property
    def modes(self):
        """phi_0 .. phi_6 sampled on the scenario grid."""
        return _eigenmodes(self.params, self.grid)

    @cached_property
    def driven(self):
        """Pairs (exact unforced state, driven state) at t_max for three
        seeded states over phi_0 .. phi_4, two drawn from rng 310 and one
        from rng 311, all stepped in one ``evolve_states`` run."""
        t = self.scenario.t_max
        modes = self.modes[:5]
        rng = np.random.default_rng(310)
        draws = [_mix_modes(self.params, self.grid, modes, rng, t) for _ in range(2)]
        draws.append(_mix_modes(self.params, self.grid, modes, np.random.default_rng(311), t))
        lab = schrodinger.evolve_states(self.params, self.spec, [psi0 for psi0, _ in draws], t)
        return tuple((exact, psi) for (_, exact), psi in zip(draws, lab))

    def fd_step(self, t):
        """Central-difference step at t (a float or an ndarray): 1e-5 max(1, t),
        capped at 1% of t_max so that t +- h stays inside the frame."""
        return np.minimum(1e-5 * np.maximum(1.0, t), 0.01 * self.scenario.t_max)

    def safe_times(self, count: int, seed: int) -> np.ndarray:
        """Random times in the middle 98% of the frame range, away from
        breakpoints (finite differences need a smooth neighborhood), or
        NumericError."""
        rng = np.random.default_rng(seed)
        t_max = self.scenario.t_max
        lo, hi = 0.01 * t_max, 0.99 * t_max
        guard = 10.0 * self.fd_step(t_max)  # ten finite-difference steps
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

def _sweep(seed: int, shape) -> list:
    """The six (m, w) of the classical sweep, each with its seeded draw of
    times in [-8, 8) of the given shape."""
    rng = np.random.default_rng(seed)
    return [(OscillatorParams(m, w), rng.uniform(-8.0, 8.0, shape))
            for m in (1.0, 2.5) for w in (0.5, 1.0, 2.0 * math.pi)]


def check_propagator_group_law(ctx) -> np.ndarray:
    u = classical.propagator
    draws = [(params, *ts.T) for params, ts in _sweep(101, (170, 2))]
    return np.abs([u(params, t + s) - u(params, t) @ u(params, s) for params, t, s in draws])


def check_propagator_determinant(ctx) -> np.ndarray:
    return np.abs([np.linalg.det(classical.propagator(params, t)) - 1.0
                   for params, t in _sweep(102, 100)])


def check_form_conjugation(ctx) -> np.ndarray:
    pairs = [(classical.quadratic_form_matrix(params), classical.propagator(params, t))
             for params, t in _sweep(103, 100)]
    return np.abs([np.swapaxes(u, -1, -2) @ form @ u - form for form, u in pairs])


def _rk_reference(params, spec, z0, t):
    """Independent oracle: Hamilton's equations integrated by classical RK4
    (Kutta 1901) on each piece between forcing breakpoints, at a step h
    and at h/2, combined by one Richardson step.  It shares no algebra
    with the response walk: no propagator and no Kronrod nodes."""
    h = 1e-2 / max(1.0, params.omega, spec.oscillation_rate())
    edges = [0.0, *spec.breakpoints(0.0, t), t]
    x, p = z0.x, z0.p
    for a, b in zip(edges, edges[1:]):
        steps = max(1, math.ceil((b - a) / h))
        xh, ph = _rk4(params, spec, x, p, a, b, steps)
        x, p = _rk4(params, spec, x, p, a, b, 2 * steps)
        x, p = x + (x - xh) / 15.0, p + (p - ph) / 15.0
    return PhaseState(x, p)


def _rk4(params, spec, x, p, a, b, steps):
    """(x, p) at b from (x, p) at a in `steps` equal RK4 steps.  k is read
    in one array call at the step ends and midpoints, one-sided at a and
    b, where a jump of k may sit."""
    s = np.linspace(a, b, 2 * steps + 1)
    s[0], s[-1] = np.nextafter(a, b), np.nextafter(b, a)
    k = spec.evaluate(s).tolist()
    m, c, dt = params.m, params.m * params.omega**2, (b - a) / steps
    for i in range(0, 2 * steps, 2):
        v1, f1 = p / m, k[i] - c * x
        v2, f2 = (p + 0.5 * dt * f1) / m, k[i + 1] - c * (x + 0.5 * dt * v1)
        v3, f3 = (p + 0.5 * dt * f2) / m, k[i + 1] - c * (x + 0.5 * dt * v2)
        v4, f4 = (p + dt * f3) / m, k[i + 2] - c * (x + dt * v3)
        x += dt / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        p += dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return x, p


def check_evolve_vs_rk(ctx) -> np.ndarray:
    rng = np.random.default_rng(104)
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
    runs = [(params, spec, PhaseState(*rng.uniform(-1, 1, 2).tolist()),
             float(rng.uniform(0.5, 5.0))) for params, spec in cases]
    return np.abs([classical.evolve(params, z0, spec, t).as_array()
                   - _rk_reference(params, spec, z0, t).as_array() for params, spec, z0, t in runs])


def check_moving_ellipse_invariant(ctx) -> np.ndarray:
    """The energy of z - z_nh along the trajectory `classical` ships, from
    the scenario start, against its value at t = 0."""
    scn = ctx.scenario
    z0 = scn.initial_state
    if z0.x == 0.0 and z0.p == 0.0:
        z0 = PhaseState(1.0, 0.5)  # origin start makes the check vacuous
    times = np.linspace(0.0, scn.t_max, scn.samples)
    x_nh, xdot_nh, _ = ctx.frame.values(times)
    _, _, invariant = classical.trajectory(ctx.params, z0, times, x_nh, xdot_nh)
    ref = classical.quadratic_invariant(ctx.params, z0)
    return np.abs(invariant - ref) / max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# canonical suite: the finite-difference checks read the frame as the
# commands do, one batched read per quantity (t - h and t + h together)

def check_newton_residual(ctx) -> np.ndarray:
    frame, params, spec = ctx.frame, ctx.params, ctx.spec
    t = ctx.safe_times(60, seed=201)
    h = ctx.fd_step(t)
    v_lo, v_hi = np.split(frame.xdot_nh(np.concatenate([t - h, t + h])), 2)
    xdd = (v_hi - v_lo) / (2.0 * h)
    return np.abs(params.m * xdd + params.m * params.omega**2 * frame.x_nh(t) - spec.evaluate(t))


def check_gauge_residual(ctx) -> np.ndarray:
    frame, params, spec = ctx.frame, ctx.params, ctx.spec
    t = ctx.safe_times(60, seed=202)
    h = ctx.fd_step(t)
    g_lo, g_hi = np.split(frame.gauge(np.concatenate([t - h, t + h])), 2)
    gdot = (g_hi - g_lo) / (2.0 * h)
    x, xd, _ = frame.values(t)
    return np.abs(gdot - 0.5 * params.m * xd * xd + 0.5 * params.m * params.omega**2 * x * x
                  - x * spec.evaluate(t))


def _transformation_law_error(ctx, params) -> np.ndarray:
    spec, scn = ctx.spec, ctx.scenario
    if params == ctx.params:
        frame = ctx.frame
    else:
        frame = canonical.build_frame(params, spec, scn.t_max)
    rng = np.random.default_rng(203)
    m, w = params.m, params.omega
    t = ctx.safe_times(30, seed=204)
    x, eta = rng.uniform(-2, 2, (t.size, 2)).T
    h = ctx.fd_step(t)
    around = np.concatenate([t - h, t + h])
    f1_lo, f1_hi = np.split(frame.f1(np.tile(x, 2), 0.0, around), 2)
    x_lo, x_hi = np.split(frame.x_nh(around), 2)
    # F1(x, eta) = F1(x, 0) + (x - x_nh) eta: differencing F1(x, 0) and
    # x_nh leaves out the t-independent x eta, whose rounding over 2h
    # would swamp the check on a short window
    df1 = (f1_hi - f1_lo - (x_hi - x_lo) * eta) / (2.0 * h)
    xc, vc, _ = frame.values(t)
    xi, p = x - xc, eta + m * vc
    knew = 0.5 * (eta * eta / m + m * w * w * xi * xi)
    hold = 0.5 * (p * p / m + m * w * w * x * x) - x * spec.evaluate(t)
    return np.abs(knew - (hold + df1))


def check_transformation_law(ctx) -> np.ndarray:
    doubled = OscillatorParams(2.0 * ctx.params.m, ctx.params.omega)
    return np.concatenate([_transformation_law_error(ctx, ctx.params),
                           _transformation_law_error(ctx, doubled)])


def _phase_states(rng, count: int, half_width: float) -> list:
    """count seeded phase-space points, x and p uniform in +-half_width."""
    return [PhaseState(*z) for z in rng.uniform(-half_width, half_width, (count, 2)).tolist()]


def check_frame_roundtrip(ctx) -> np.ndarray:
    frame = ctx.frame
    zs = _phase_states(np.random.default_rng(205), 20, 2.0)
    return np.abs([frame.to_lab(frame.to_moving(z, t), t).as_array() - z.as_array()
                   for t, z in zip(ctx.safe_times(20, seed=206), zs)])


def check_classical_frame_covariance(ctx) -> np.ndarray:
    frame, params = ctx.frame, ctx.params
    z0s = _phase_states(np.random.default_rng(207), 10, 1.0)
    # the lab side is the RK4 oracle, independent of the frame's walk
    return np.abs([frame.to_moving(_rk_reference(params, ctx.spec, z0, t), t).as_array()
                   - classical.propagator(params, t) @ frame.to_moving(z0, 0.0).as_array()
                   for t, z0 in zip(ctx.safe_times(10, seed=208), z0s)])


def check_frame_cache_vs_exact(ctx) -> np.ndarray:
    t = ctx.safe_times(6, seed=209)
    return np.abs(np.array(ctx.frame.values(t)) - np.array(ctx.frame.exact_values(t)))


# ---------------------------------------------------------------------------
# quantum suite

def check_hermite_orthonormality(ctx) -> np.ndarray:
    nodes, weights = hermite.gauss_hermite_rule(40)
    h = [hermite.hermite_poly(n, nodes) for n in range(13)]

    def overlap(n, m):
        norm = math.exp(-0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1)
                                + math.lgamma(m + 1) + math.log(math.pi)))
        return float(np.sum(weights * h[n] * h[m])) * norm

    return np.abs([overlap(n, m) - float(n == m) for n in range(13) for m in range(n, 13)])


def check_generating_function(ctx) -> np.ndarray:
    rng = np.random.default_rng(301)

    def error(n, x):
        # Explicit closed sum for the series coefficient of e^{2xu-u^2};
        # no recurrence shared with hermite_poly.
        coeff = sum((-1.0) ** j * (2.0 * x) ** (n - 2 * j)
                    / (math.factorial(j) * math.factorial(n - 2 * j))
                    for j in range(n // 2 + 1))
        ref = math.factorial(n) * coeff
        return abs(hermite.hermite_poly(n, x) - ref) / max(1.0, abs(ref))

    return np.array([error(n, x) for n in range(16) for x in rng.uniform(-2.0, 2.0, 8).tolist()])


def check_gaussian_moment(ctx) -> np.ndarray:
    rng = np.random.default_rng(302)
    nodes, weights = hermite.gauss_hermite_rule(80)
    zs = [complex(*z) for z in rng.uniform(-3.5, 3.5, (40, 2)).tolist()]
    return np.abs([hermite.gaussian_integral(z) - complex(np.sum(weights * np.exp(z * nodes)))
                   for z in zs if abs(z) <= 5.0])


def check_eigenstate_operator(ctx) -> np.ndarray:
    params = ctx.params
    grid = schrodinger.GridSpec.default(params)
    k2 = grid.wavenumbers**2

    def residual(n):
        psi = schrodinger.eigenstate_wavefunction(params, n, grid)
        kin = np.fft.ifft(k2 / (2.0 * params.m) * np.fft.fft(psi.values))
        pot = 0.5 * params.m * params.omega**2 * grid.x**2 * psi.values
        return kin + pot - hermite.eigen_energy(params, n) * psi.values

    return np.abs([residual(n) for n in range(9)])


def _displacement(rng, half_width: float) -> transitions.DisplacementParams:
    return transitions.DisplacementParams(float(rng.uniform(-half_width, half_width)),
                                          float(rng.uniform(-half_width, half_width)))


def check_amplitude_vs_quadrature(ctx) -> np.ndarray:
    rng = np.random.default_rng(303)
    draws = [(int(rng.integers(0, 11)), int(rng.integers(0, 11)), _displacement(rng, 3.0))
             for _ in range(120)]
    return np.abs([transitions.overlap_amplitude(n, m, d)
                   - transitions.overlap_by_quadrature(n, m, d, order=60) for n, m, d in draws])


def check_row_unitarity(ctx) -> np.ndarray:
    rng = np.random.default_rng(304)

    def error(n, d):
        # the column the transitions command ships, summed to where its row ends
        column, = transitions.probability_columns(n, [d], ctx.scenario.m_max, 1e-12)
        row = transitions.probability_row(n, column, 1e-12)
        return float(np.cumsum(column)[row.truncation_m - 1]) - 1.0

    return np.abs([error(n, _displacement(rng, 2.0)) for n in range(6)])


def check_ground_row_poisson(ctx) -> np.ndarray:
    rng = np.random.default_rng(305)

    def error(d):
        lam = d.poisson_mean()
        got, = transitions.probability_columns(0, [d], 15, 1e-12)  # covers m <= 15
        ref = [math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0 else float(m == 0)
               for m in range(16)]
        return got[:16] - ref

    return np.abs([error(_displacement(rng, 2.0)) for _ in range(6)])


def check_amplitude_symmetry(ctx) -> np.ndarray:
    """|A(n, m)| against |A(m, n)| at 150 random (n, m, d), read from one
    column block per n over every drawn lambda."""
    rng = np.random.default_rng(306)
    draws = [(rng.integers(0, 12), rng.integers(0, 12), _displacement(rng, 3.0).poisson_mean())
             for _ in range(150)]
    ns, ms, lams = (np.array(v) for v in zip(*draws))
    log_mag = np.array([transitions._laguerre_column(n, lams, 12)[1] for n in range(12)])
    draw = np.arange(150)
    return np.abs(np.exp(log_mag[ns, draw, ms]) - np.exp(log_mag[ms, draw, ns]))


def _random_state(params, grid, modes, rng):
    return _mix_modes(params, grid, modes, rng, 0.0)[0]


def _eigenmodes(params, grid, n_modes=7):
    return [schrodinger.eigenstate_wavefunction(params, i, grid).values
            for i in range(n_modes)]


def _mix_modes(params, grid, modes, rng, t):
    """A seeded random state psi0 = sum_n c_n phi_n / N over the eigenmodes
    phi_0 .. phi_{len(modes)-1} already sampled on grid, and its exact
    unforced evolution sum_n c_n e^{-i E_n t} phi_n / N at t."""
    n_modes = len(modes)
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    start = schrodinger.WaveFunction(grid, sum(c * v for c, v in zip(coeffs, modes)))
    phases = np.exp(-1j * t * np.array([hermite.eigen_energy(params, i) for i in range(n_modes)]))
    evolved = sum(c * v for c, v in zip(coeffs * phases, modes)) / start.norm()
    return start.normalized(), schrodinger.WaveFunction(grid, evolved)


def check_momentum_rep_unitarity(ctx) -> np.ndarray:
    params = ctx.params
    grid = schrodinger.GridSpec.default(params)
    modes = _eigenmodes(params, grid)
    rng = np.random.default_rng(307)
    states = [_random_state(params, grid, modes, rng) for _ in range(5)]
    return np.abs([schrodinger.momentum_representation(psi).norm() - psi.norm()
                   for psi in states])


def check_operator_covariance_position(ctx) -> np.ndarray:
    return _operator_covariance(ctx, momentum=False)


def check_operator_covariance_momentum(ctx) -> np.ndarray:
    return _operator_covariance(ctx, momentum=True)


def _operator_covariance(ctx, momentum: bool) -> np.ndarray:
    params = ctx.params
    frame = ctx.frame
    grid = ctx.grid
    rng = np.random.default_rng(308 + int(momentum))
    x = grid.x
    k = grid.wavenumbers

    def error(t):
        phi = _random_state(params, grid, ctx.modes, rng)
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
        return math.sqrt(float(np.sum(np.abs(lhs - rhs) ** 2)) * grid.dx)

    return np.array([error(t) for t in ctx.safe_times(4, seed=309 + int(momentum))])


def _distance(a, b) -> float:
    """L2 norm of a - b for two states on the same grid."""
    return schrodinger.WaveFunction(a.grid, a.values - b.values).norm()


def check_evolution_covariance_moving(ctx) -> np.ndarray:
    """Driven evolution mapped to the moving frame vs the exact unforced
    evolution, no global phase fitted; the first two driven pairs."""
    t = ctx.scenario.t_max
    return np.array([_distance(schrodinger.lab_to_moving(ctx.frame, lab, t), direct)
                     for direct, lab in ctx.driven[:2]])


def check_evolution_covariance_lab(ctx) -> np.ndarray:
    """Converse direction: exact unforced evolution mapped to the lab frame
    vs direct driven evolution; the third driven pair."""
    moving, direct = ctx.driven[2]
    return np.array([_distance(schrodinger.moving_to_lab(ctx.frame, moving, ctx.scenario.t_max),
                               direct)])


def check_frame_map_roundtrip(ctx) -> np.ndarray:
    frame = ctx.frame
    psi = _random_state(ctx.params, ctx.grid, ctx.modes, np.random.default_rng(312))
    return np.array([
        _distance(schrodinger.lab_to_moving(frame, schrodinger.moving_to_lab(frame, psi, t), t), psi)
        for t in ctx.safe_times(3, seed=313)])


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


def run_suite(scenario: Scenario, suite: str = "all") -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    ctx = _Context(scenario)
    results = []
    for check in CHECKS:
        if suite != "all" and check.suite != suite:
            continue
        err = float(np.max(check.fn(ctx)))
        results.append(CheckResult(
            check=check.name, suite=check.suite,
            status="pass" if err < check.tolerance else "fail",
            max_error=err, tolerance=check.tolerance,
        ))
    return results
