"""Acceptance suite: one test per criterion, each at its contract tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Expensive cross-validation lives here (randomized
oracle sweeps, PDE runs); module-level tests cover the fine-grained
behavior.
"""

import dataclasses
import json
import math
import time

import numpy as np
from scipy.integrate import solve_ivp

from drivenosc import (
    ConstantForcing,
    OscillatorParams,
    PhaseState,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    ZeroForcing,
    eigenstate_wavefunction,
    evolve,
    evolve_lab,
    gauss_hermite_rule,
    gaussian_integral,
    hermite_poly,
    lab_to_moving,
    moving_to_lab,
    overlap,
    overlap_amplitude,
    overlap_by_quadrature,
    probability_column,
    probability_row,
    propagator,
    quadratic_form_matrix,
    quadratic_invariant,
)
from drivenosc.canonical import build_frame
from drivenosc.cli import main
from drivenosc.schrodinger import GridSpec, WaveFunction
from drivenosc.transitions import displacements, excitation_mean


def displacement_at(frame, t):
    """(a, b) at the frame's time t, from one float frame read."""
    return displacements(frame.params, *frame.values(t)[:2])


def report(num, name, max_err, tol):
    status = "PASS" if max_err < tol else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} "
          f"(max_error={max_err:.3e}, tolerance={tol:.1e})", flush=True)
    assert max_err < tol, f"criterion {num} ({name}): {max_err:.3e} >= {tol:.1e}"


SWEEP = [OscillatorParams(m, w) for m in (1.0, 2.5) for w in (0.5, 1.0, 2 * math.pi)]


def test_01_propagator_group_law():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        params = SWEEP[int(rng.integers(0, len(SWEEP)))]
        t, s = rng.uniform(-8.0, 8.0, 2)
        err = np.max(np.abs(propagator(params, t + s)
                            - propagator(params, t) @ propagator(params, s)))
        worst = max(worst, float(err))
    report(1, "propagator group law", worst, 1e-12)


def test_02_quadratic_form_conjugation():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        params = SWEEP[int(rng.integers(0, len(SWEEP)))]
        form = quadratic_form_matrix(params)
        u = propagator(params, float(rng.uniform(-8.0, 8.0)))
        worst = max(worst, float(np.max(np.abs(u.T @ form @ u - form))))
    report(2, "conserved-form conjugation", worst, 1e-12)


def _rk_oracle(params, spec, z0, t):
    def rhs(s, z):
        return [z[1] / params.m,
                -params.m * params.omega**2 * z[0] + spec.evaluate(s)]
    edges = [0.0, *spec.breakpoints(0.0, t), t]
    z = [z0.x, z0.p]
    for a, b in zip(edges, edges[1:]):
        if b > a:
            sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-12, atol=1e-13)
            z = [float(sol.y[0, -1]), float(sol.y[1, -1])]
    return PhaseState(z[0], z[1])


def test_03_evolve_vs_runge_kutta():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for i in range(100):
        params = OscillatorParams(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.3, 3.0)))
        if i % 2 == 0:
            spec = SinusoidForcing(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 4.0)),
                                   float(rng.uniform(0, 2 * math.pi)))
        else:
            t_on = float(rng.uniform(0.1, 1.5))
            spec = PulseForcing(float(rng.uniform(-2, 2)), t_on,
                                t_on + float(rng.uniform(0.2, 2.0)))
        z0 = PhaseState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        t = float(rng.uniform(0.5, 6.0))
        got = evolve(params, z0, spec, t)
        ref = _rk_oracle(params, spec, z0, t)
        worst = max(worst, abs(got.x - ref.x), abs(got.p - ref.p))
    report(3, "evolution vs Runge-Kutta oracle (100 scenarios)", worst, 1e-8)


def test_04_moving_ellipse_invariant():
    specs = [
        ZeroForcing(),
        ConstantForcing(1.0),
        SinusoidForcing(1.0, 2.0, 0.3),
        PulseForcing(1.3, 0.5, 1.6),
        TabulatedForcing(samples=((0.0, 0.2), (1.0, -0.8), (2.5, 1.0), (4.0, 0.0))),
    ]
    params = OscillatorParams(1.4, 1.1)
    z0 = PhaseState(0.9, -0.4)
    ref = quadratic_invariant(params, z0)
    worst = 0.0
    for spec in specs:
        for t in np.linspace(0.0, 4.0, 33):
            z = evolve(params, z0, spec, float(t))
            znh = evolve(params, PhaseState(0.0, 0.0), spec, float(t))
            inv = quadratic_invariant(params, PhaseState(z.x - znh.x, z.p - znh.p))
            worst = max(worst, abs(inv - ref) / max(abs(ref), 1e-30))
    report(4, "moving-ellipse invariant constancy", worst, 1e-8)


def test_05_canonical_identities_both_masses():
    spec = SinusoidForcing(0.9, 1.8, 0.25)
    t_max = 3.0
    worst = 0.0
    for m in (1.0, 2.0):
        params = OscillatorParams(m, 1.2)
        frame = build_frame(params, spec, t_max)
        rng = np.random.default_rng(1005)
        w = params.omega
        for _ in range(40):
            t = float(rng.uniform(0.05, t_max - 0.05))
            h = 1e-5 * max(1.0, t)
            xdd = (frame.xdot_nh(t + h) - frame.xdot_nh(t - h)) / (2 * h)
            worst = max(worst, abs(m * xdd + m * w * w * frame.x_nh(t) - spec.evaluate(t)))
            gdot = (frame.gauge(t + h) - frame.gauge(t - h)) / (2 * h)
            lagr = 0.5 * m * frame.xdot_nh(t) ** 2 \
                - 0.5 * m * w * w * frame.x_nh(t) ** 2 \
                + frame.x_nh(t) * spec.evaluate(t)
            worst = max(worst, abs(gdot - lagr))
            x, eta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            df1 = (frame.f1(x, eta, t + h) - frame.f1(x, eta, t - h)) / (2 * h)
            xc, vc, _ = frame.values(t)
            xi, p = x - xc, eta + m * vc
            k_new = 0.5 * (eta**2 / m + m * w * w * xi**2)
            h_old = 0.5 * (p**2 / m + m * w * w * x**2) - x * spec.evaluate(t)
            worst = max(worst, abs(k_new - (h_old + df1)))
    report(5, "canonical identities (m=1 and m=2)", worst, 1e-6)


def test_06_hermite_eigenstate_suite():
    worst = 0.0
    # orthonormality via the quadrature rule
    nodes, weights = gauss_hermite_rule(40)
    for n in range(13):
        hn = hermite_poly(n, nodes)
        for m in range(n, 13):
            hm = hermite_poly(m, nodes)
            val = float(np.sum(weights * hn * hm)) * math.exp(
                -0.5 * ((n + m) * math.log(2.0) + math.lgamma(n + 1)
                        + math.lgamma(m + 1) + math.log(math.pi)))
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    ortho_worst = worst
    report(6, "orthonormality (n, m <= 12)", ortho_worst, 1e-10)

    # recurrence vs explicit series coefficients of e^{2xu-u^2}
    rng = np.random.default_rng(1006)
    worst = 0.0
    for n in range(16):
        for x in rng.uniform(-2.0, 2.0, 10):
            ref = math.factorial(n) * sum(
                (-1.0) ** j * (2.0 * x) ** (n - 2 * j)
                / (math.factorial(j) * math.factorial(n - 2 * j))
                for j in range(n // 2 + 1))
            worst = max(worst, abs(hermite_poly(n, float(x)) - ref) / max(1.0, abs(ref)))
    report(6, "generating-function coefficients (n <= 15)", worst, 1e-9)

    # closed Gaussian moment vs quadrature for complex arguments
    nodes, weights = gauss_hermite_rule(80)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        if abs(z) > 5.0:
            continue
        quad = complex(np.sum(weights * np.exp(z * nodes)))
        worst = max(worst, abs(gaussian_integral(z) - quad))
    report(6, "Gaussian moment closed form vs quadrature (|z| <= 5)", worst, 1e-10)


def test_07_amplitude_closed_form_vs_oracle():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(500):
        n, m = int(rng.integers(0, 11)), int(rng.integers(0, 11))
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        closed = overlap_amplitude(n, m, a, b)
        oracle = overlap_by_quadrature(n, m, a, b, order=60)
        worst = max(worst, abs(closed - oracle))
    report(7, "closed amplitude vs quadrature oracle (500 triples)", worst, 1e-10)


def _random_frames(seed, count=3, t_max=2.5):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        params = OscillatorParams(float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.6, 1.8)))
        spec = SinusoidForcing(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 3.0)),
                               float(rng.uniform(0, 2 * math.pi)))
        frames.append(build_frame(params, spec, t_max))
    return frames, rng


def test_08_row_unitarity():
    frames, rng = _random_frames(1008)
    worst = 0.0
    for frame in frames:
        for n in range(6):
            t = float(rng.uniform(0.3, 2.4))
            column = probability_column(n, excitation_mean(*displacement_at(frame, t)), 501)
            row = probability_row(n, column, tail_tol=1e-10)
            worst = max(worst, abs(sum(row.probabilities) - 1.0))
    report(8, "transition-row unitarity (n <= 5)", worst, 1e-8)


def test_09_ground_row_poisson_law():
    frames, rng = _random_frames(1009)
    worst = 0.0
    for frame in frames:
        for _ in range(3):
            t = float(rng.uniform(0.3, 2.4))
            a, b = displacement_at(frame, t)
            lam = excitation_mean(a, b)
            for m in range(16):
                got = abs(overlap_amplitude(0, m, a, b)) ** 2
                ref = math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) \
                    if lam > 0 else float(m == 0)
                worst = max(worst, abs(got - ref))
    report(9, "ground-row Poisson law (m <= 15)", worst, 1e-9)


def test_10_ground_state_survival_closed_and_pde():
    params = OscillatorParams(1.0, 1.0)
    frame = build_frame(params, ConstantForcing(1.0), math.pi)
    closed = math.exp(-excitation_mean(*displacement_at(frame, math.pi)))
    report(10, "survival closed form at half period", abs(closed - math.exp(-2.0)), 1e-9)

    start = time.monotonic()
    grid = GridSpec.default(params)
    psi0 = eigenstate_wavefunction(params, 0, grid)
    out = evolve_lab(params, ConstantForcing(1.0), psi0, math.pi)
    pde = abs(overlap(psi0, out)) ** 2
    elapsed = time.monotonic() - start
    report(10, "survival from grid evolution", abs(pde - math.exp(-2.0)), 1e-4)
    assert elapsed < 60.0, f"PDE survival took {elapsed:.1f}s (limit 60s)"


def _se3_defect(params, spec, t_final, dt, frame, seed):
    grid = dataclasses.replace(GridSpec.default(params), dt=dt)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    vals = sum(c * eigenstate_wavefunction(params, i, grid).values
               for i, c in enumerate(coeffs))
    psi0 = WaveFunction(grid, vals).normalized()
    lab = evolve_lab(params, spec, psi0, t_final)
    via = lab_to_moving(frame, lab, t_final)
    direct = evolve_lab(params, ZeroForcing(), psi0, t_final)
    return WaveFunction(grid, via.values - direct.values).norm()


def test_11_evolution_covariance_and_convergence():
    rng = np.random.default_rng(1011)
    worst_defect = 0.0
    ratios = []
    for i in range(5):
        params = OscillatorParams(float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.7, 1.4)))
        # smooth profiles: the stepping order is only clean for smooth k
        if i % 2 == 0:
            spec = SinusoidForcing(float(rng.uniform(-1.2, 1.2)),
                                   float(rng.uniform(0.5, 2.5)),
                                   float(rng.uniform(0, 2 * math.pi)))
        else:
            spec = ConstantForcing(float(rng.uniform(-1.2, 1.2)))
        t_final = float(rng.uniform(1.0, 2 * math.pi))
        frame = build_frame(params, spec, t_final)
        d1 = _se3_defect(params, spec, t_final, 1e-3, frame, seed=2000 + i)
        d2 = _se3_defect(params, spec, t_final, 5e-4, frame, seed=2000 + i)
        worst_defect = max(worst_defect, d1)
        ratios.append(d1 / d2)
    report(11, "frame covariance of evolution (5 scenarios)", worst_defect, 1e-4)
    print(f"[ACCEPTANCE 11] dt-halving defect ratios: "
          f"{', '.join(f'{r:.2f}' for r in ratios)} (expect ~4)", flush=True)
    assert all(3.0 < r < 5.5 for r in ratios), f"second-order ratios off: {ratios}"


def test_12_operator_covariance():
    params = OscillatorParams(1.0, 1.0)
    spec = SinusoidForcing(1.0, 2.0, 0.0)
    t_max = 3.0
    frame = build_frame(params, spec, t_max)
    grid = GridSpec.default(params)
    rng = np.random.default_rng(1012)
    x, k = grid.x, grid.wavenumbers
    worst_pos, worst_mom = 0.0, 0.0
    for t in (0.7, 1.6, 2.8):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        vals = sum(c * eigenstate_wavefunction(params, i, grid).values
                   for i, c in enumerate(coeffs))
        phi = WaveFunction(grid, vals).normalized()
        mapped = moving_to_lab(frame, phi, t)
        lhs = moving_to_lab(frame, WaveFunction(grid, x * phi.values), t)
        rhs = (x - frame.x_nh(t)) * mapped.values
        worst_pos = max(worst_pos, math.sqrt(
            float(np.sum(np.abs(lhs.values - rhs) ** 2)) * grid.dx))
        op_phi = WaveFunction(grid, np.fft.ifft(k * np.fft.fft(phi.values)))
        lhs_m = moving_to_lab(frame, op_phi, t)
        rhs_m = np.fft.ifft(k * np.fft.fft(mapped.values)) \
            - params.m * frame.xdot_nh(t) * mapped.values
        worst_mom = max(worst_mom, math.sqrt(
            float(np.sum(np.abs(lhs_m.values - rhs_m) ** 2)) * grid.dx))
    report(12, "position operator covariance", worst_pos, 1e-8)
    report(12, "momentum operator covariance", worst_mom, 1e-6)


def test_13_ellipse_reproduction_across_frequencies(tmp_path):
    amplitudes = {}
    worst = 0.0
    for tag, w in [("slow", 2 * math.pi / 100), ("unit", 2 * math.pi), ("fast", 200 * math.pi)]:
        period = 2 * math.pi / w
        scn = {
            "params": {"m": 1.0, "omega": w},
            "forcing": {"type": "constant", "K": 1.0},
            "time": {"t_max": period, "samples": 101},
            "tol": 1e-13,
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(scn))
        out = tmp_path / tag
        assert main(["classical", "--scenario", str(path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        t = rows[:, 0]
        x_ref = (1.0 / w) * (1.0 - np.cos(w * t)) / w
        p_ref = (1.0 / w) * np.sin(w * t)
        worst = max(worst,
                    float(np.max(np.abs(rows[:, 3] - x_ref))),
                    float(np.max(np.abs(rows[:, 4] - p_ref))))
        amplitudes[tag] = float(np.max(np.abs(rows[:, 3])))
    report(13, "constant-force ellipse at three frequencies", worst, 1e-10)
    # the ellipse stretches as w -> 0 and shrinks as w -> infinity
    assert amplitudes["slow"] > amplitudes["unit"] > amplitudes["fast"]
