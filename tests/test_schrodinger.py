import dataclasses
import math

import numpy as np
import pytest

from drivenosc import (
    BoundaryError,
    ConstantForcing,
    DomainError,
    GridSpec,
    NumericError,
    OscillatorParams,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    WaveFunction,
    ZeroForcing,
    coherent_wavefunction,
    eigen_energy,
    eigenstate_wavefunction,
    energy_expectation,
    evolve,
    evolve_lab,
    evolve_states,
    lab_to_moving,
    momentum_representation,
    moving_to_lab,
    overlap,
    overlap_amplitude,
)
from drivenosc.canonical import build_frame
from drivenosc.classical import PhaseState
from drivenosc.schrodinger import kinetic_expectation
from drivenosc.transitions import displacements
from drivenosc.verify import _eigenmodes, _mix_modes


def strang_reference(params, spec, psi0, steps):
    """Unfused Strang splitting over (start time, dt) steps: one scalar
    evaluate at each midpoint, and two half potential multiplies per step."""
    grid = psi0.grid
    x = grid.x
    v = 0.5 * params.m * params.omega**2 * x**2
    vals = psi0.values.copy()
    for t, h in steps:
        half = np.exp(-0.5j * h * v) * np.exp(0.5j * h * spec.evaluate(t + 0.5 * h) * x)
        kin = np.exp(-1j * h / (2.0 * params.m) * grid.wavenumbers**2)
        vals = half * vals
        vals = np.fft.ifft(kin * np.fft.fft(vals))
        vals = half * vals
    return vals


class RecordingForcing:
    """Delegates to a spec and records every time it is evaluated at."""

    def __init__(self, spec):
        self.spec = spec
        self.times = []

    def evaluate(self, t):
        self.times.extend(np.atleast_1d(t).tolist())
        return self.spec.evaluate(t)

    def vanishes(self, t0, t1):
        return self.spec.vanishes(t0, t1)


def l2_gap(grid, a, b):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2)) * grid.dx)


def position_expectation(psi):
    return float(np.sum(psi.grid.x * np.abs(psi.values) ** 2) * psi.grid.dx)


def momentum_expectation(psi):
    k = psi.grid.wavenumbers
    ppsi = np.fft.ifft(k * np.fft.fft(psi.values))
    return float(np.real(np.sum(np.conj(psi.values) * ppsi) * psi.grid.dx))


def random_state(params, grid, rng, n_modes=7):
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    vals = sum(c * eigenstate_wavefunction(params, i, grid).values
               for i, c in enumerate(coeffs))
    return WaveFunction(grid, vals).normalized()


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(1.0, -1.0, 1024, 1e-3)
        with pytest.raises(DomainError):
            GridSpec(-1.0, 1.0, 1000, 1e-3)  # not a power of two
        with pytest.raises(DomainError):
            GridSpec(-1.0, 1.0, 32, 1e-3)  # too few points
        with pytest.raises(DomainError):
            GridSpec(-1.0, 1.0, 1024, 0.0)

    def test_default_scaling(self):
        g = GridSpec.default(OscillatorParams(4.0, 1.0))
        assert g.x_max == pytest.approx(6.0)  # 12 / sqrt(4)
        assert g.points == 1024

    def test_axes(self, default_grid):
        assert len(default_grid.x) == default_grid.points
        assert default_grid.x[0] == default_grid.x_min
        # endpoint excluded
        assert default_grid.x[-1] == pytest.approx(default_grid.x_max - default_grid.dx)


class TestWaveFunction:
    def test_norm_and_normalize(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 0, default_grid)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self, default_grid):
        with pytest.raises(DomainError):
            WaveFunction(default_grid, np.zeros(10, dtype=complex))

    def test_values_frozen(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 0, default_grid)
        with pytest.raises(ValueError):
            psi.values[0] = 1.0


class TestMomentumRepresentation:
    def test_gaussian_self_dual(self, default_grid):
        psi = WaveFunction(default_grid, np.exp(-0.5 * default_grid.x**2)).normalized()
        mom = momentum_representation(psi)
        ref = np.exp(-0.5 * mom.grid.x**2)
        ref = ref / math.sqrt(np.sum(ref**2) * mom.grid.dx)
        assert np.max(np.abs(mom.values - ref)) < 1e-10

    def test_unitary(self, params11, default_grid):
        rng = np.random.default_rng(40)
        for _ in range(5):
            psi = random_state(params11, default_grid, rng)
            assert abs(momentum_representation(psi).norm() - psi.norm()) < 1e-12

    def test_double_application_is_parity(self, params11, default_grid):
        psi = coherent_wavefunction(params11, 1.0, 0.7, default_grid)
        twice = momentum_representation(momentum_representation(psi))
        # compare against psi(-x) on the common interior
        flipped = np.interp(-twice.grid.x, default_grid.x, psi.values.real) \
            + 1j * np.interp(-twice.grid.x, default_grid.x, psi.values.imag)
        assert np.max(np.abs(twice.values - flipped)) < 1e-10


class TestOverlap:
    def test_self_overlap(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 3, default_grid)
        assert overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_eigenstates(self, params11, default_grid):
        a = eigenstate_wavefunction(params11, 0, default_grid)
        b = eigenstate_wavefunction(params11, 1, default_grid)
        assert abs(overlap(a, b)) < 1e-10

    def test_grid_mismatch_rejected(self, params11, default_grid):
        other = GridSpec(default_grid.x_min, default_grid.x_max, 512, default_grid.dt)
        with pytest.raises(DomainError):
            overlap(eigenstate_wavefunction(params11, 0, default_grid),
                    eigenstate_wavefunction(params11, 0, other))


class TestEvolution:
    def test_stationary_state_up_to_phase(self, params11, default_grid):
        for n in (0, 2):
            psi0 = eigenstate_wavefunction(params11, n, default_grid)
            out = evolve_lab(params11, ZeroForcing(), psi0, 1.0)
            phase = np.exp(-1j * eigen_energy(params11, n) * 1.0)
            assert np.max(np.abs(out.values - phase * psi0.values)) < 1e-6

    def test_norm_conserved(self, params11, default_grid):
        psi0 = coherent_wavefunction(params11, 1.0, 0.0, default_grid)
        out = evolve_lab(params11, SinusoidForcing(1.0, 2.0, 0.0), psi0, 2.0)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_energy_conserved_without_forcing(self, params11):
        grid = dataclasses.replace(GridSpec.default(params11), dt=2e-4)
        phi0 = coherent_wavefunction(params11, 1.0, 0.5, grid)
        e0 = energy_expectation(params11, phi0, ZeroForcing(), 0.0)
        e1 = energy_expectation(params11, evolve_lab(params11, ZeroForcing(), phi0, 2.0),
                                ZeroForcing(), 0.0)
        assert abs(e1 - e0) < 1e-8

    def test_ground_state_picks_up_half_quantum_phase(self, params11, default_grid):
        psi0 = eigenstate_wavefunction(params11, 0, default_grid)
        out = evolve_lab(params11, ZeroForcing(), psi0, 1.5)
        expected = np.exp(-1j * 0.5 * params11.omega * 1.5)
        got = overlap(psi0, out)
        assert abs(got - expected) < 1e-6

    def test_coherent_center_follows_classical_orbit(self, params11, default_grid):
        phi0 = coherent_wavefunction(params11, 1.0, 0.5, default_grid)
        out = evolve_lab(params11, ZeroForcing(), phi0, 2.0)
        z = evolve(params11, PhaseState(1.0, 0.5), ZeroForcing(), 2.0)
        assert abs(position_expectation(out) - z.x) < 1e-5
        assert abs(momentum_expectation(out) - z.p) < 1e-5

    def test_driven_survival_matches_closed_form(self, params11, default_grid, const_frame_pi):
        psi0 = eigenstate_wavefunction(params11, 0, default_grid)
        out = evolve_lab(params11, ConstantForcing(1.0), psi0, math.pi)
        pde = abs(overlap(psi0, out)) ** 2
        assert abs(pde - math.exp(-2.0)) < 1e-4

    def test_cross_module_transition_probabilities(self, params11, default_grid, const_frame_pi):
        psi1 = eigenstate_wavefunction(params11, 1, default_grid)
        out = evolve_lab(params11, ConstantForcing(1.0), psi1, 2.0)
        a, b = displacements(params11, *const_frame_pi.values(2.0)[:2])
        for m in (0, 1, 2, 3):
            pde = abs(overlap(eigenstate_wavefunction(params11, m, default_grid), out)) ** 2
            closed = abs(overlap_amplitude(1, m, a, b)) ** 2
            assert abs(pde - closed) < 1e-4

    def test_unnormalized_initial_state_rejected(self, params11, default_grid):
        psi = WaveFunction(default_grid, 2.0 * eigenstate_wavefunction(
            params11, 0, default_grid).values)
        with pytest.raises(DomainError):
            evolve_lab(params11, ZeroForcing(), psi, 1.0)

    def test_non_finite_state_is_a_numeric_error(self, params11, default_grid):
        psi = WaveFunction(default_grid, np.full(default_grid.points, np.nan))
        with pytest.raises(NumericError, match="initial state: the state is not finite") as info:
            evolve_lab(params11, ZeroForcing(), psi, 1.0)
        assert not isinstance(info.value, BoundaryError)

    def test_boundary_contamination_detected(self, params11):
        grid = GridSpec(-6.0, 6.0, 256, 1e-3)
        psi0 = coherent_wavefunction(params11, 0.0, 0.0, grid)
        # strong constant push drives the packet off this small grid
        with pytest.raises(BoundaryError):
            evolve_lab(params11, ConstantForcing(30.0), psi0, 3.0)


class TestFusedStepper:
    # 600 steps of 0.01 from t0 = 0.37, then a 0.005 remainder step: blocks
    # [0.37, 2.93], [2.93, 5.49], [5.49, 6.37] and [6.37, 6.375].  The pulse
    # is off over the first and the last block and has an edge inside each
    # of the other two; the table ends inside the third block.
    T0, DT, N_FULL, REMAINDER = 0.37, 0.01, 600, 0.005

    @pytest.mark.parametrize("points", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("spec, free_blocks", [
        (ZeroForcing(), 4),
        (ConstantForcing(0.8), 0),
        (SinusoidForcing(0.7, 1.3, 0.2), 0),
        (TabulatedForcing(((0.0, 0.0), (1.0, 0.8), (2.5, -0.4), (4.0, 0.6), (5.5, 0.0))), 1),
        (PulseForcing(1.0, 3.5, 5.9), 2),
    ], ids=["zero", "constant", "sinusoid", "table", "pulse"])
    def test_matches_unfused_strang(self, params11, points, spec, free_blocks):
        grid = GridSpec(-10.0, 10.0, points, self.DT)
        psi0 = coherent_wavefunction(params11, 0.5, 0.3, grid)
        recording = RecordingForcing(spec)
        t_final = self.T0 + self.N_FULL * self.DT + self.REMAINDER
        out = evolve_lab(params11, recording, psi0, t_final, t0=self.T0)

        steps = [(self.T0 + j * self.DT, self.DT) for j in range(self.N_FULL)]
        steps.append((self.T0 + self.N_FULL * self.DT, self.REMAINDER))
        ref = strang_reference(params11, spec, psi0, steps)
        assert l2_gap(grid, out.values, ref) <= 1e-12

        # every step of a block where k may be nonzero is read once, at its
        # midpoint; a force-free block reads none
        blocks = [steps[i:min(i + 256, self.N_FULL)] for i in range(0, self.N_FULL, 256)]
        blocks.append(steps[-1:])
        driven = [b for b in blocks if not spec.vanishes(b[0][0], b[-1][0] + b[-1][1])]
        assert len(blocks) - len(driven) == free_blocks
        assert len(recording.times) == len(set(recording.times))
        np.testing.assert_allclose(recording.times, [t + 0.5 * h for b in driven for t, h in b],
                                   rtol=0.0, atol=1e-12)

    def test_boundary_error_carries_the_whole_step_state(self, params11):
        grid = GridSpec(-6.0, 6.0, 256, 1e-3)
        psi0 = coherent_wavefunction(params11, 0.0, 0.0, grid)
        spec = ConstantForcing(6.0)
        # the third boundary check, after 768 steps, fires; partial is the
        # reference state there, so the block's closing half step was applied
        with pytest.raises(BoundaryError) as err:
            evolve_lab(params11, spec, psi0, 3.123, t0=0.123)
        assert str(err.value).startswith("evolution at t=0.891: ")
        partial = err.value.partial
        steps = [(0.123 + j * grid.dt, grid.dt) for j in range(768)]
        assert l2_gap(grid, partial.values, strang_reference(params11, spec, psi0, steps)) <= 1e-12
        assert abs(partial.norm() - 1.0) < 1e-12


class TestStackedStepper:
    @pytest.mark.parametrize("spec, t0, t_final", [
        (SinusoidForcing(0.7, 1.3, 0.2), 0.0, 1.0),
        # 2355 steps of 1e-3 and a 0.4e-3 remainder, the pulse on inside
        (PulseForcing(1.0, 0.5, 1.9), 0.1234, 2.4788),
        # every block vanishes: no force read, no drive phase
        (ZeroForcing(), 0.0, 0.7),
    ], ids=["sinusoid", "pulse-remainder", "zero"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_match_separate_runs(self, params11, default_grid, spec, t0, t_final, k):
        rng = np.random.default_rng(49)
        states = [random_state(params11, default_grid, rng, n_modes=5) for _ in range(k)]
        stacked = evolve_states(params11, spec, states, t_final, t0)
        assert len(stacked) == k
        for psi0, row in zip(states, stacked):
            alone = evolve_lab(params11, spec, psi0, t_final, t0=t0)
            assert np.array_equal(row.values, alone.values)

    def test_boundary_error_names_the_failing_row(self, params11):
        grid = GridSpec(-6.0, 6.0, 256, 1e-3)
        still = coherent_wavefunction(params11, 0.0, 0.0, grid)
        fast = coherent_wavefunction(params11, 0.0, 12.0, grid)
        # the row given a large kick reaches the edge by the first check,
        # after 256 steps; the rows at rest stay inside
        with pytest.raises(BoundaryError) as err:
            evolve_states(params11, ZeroForcing(), [still, fast, still], 1.0)
        assert str(err.value).startswith("evolution at t=0.256, stack row 1: ")
        partial = err.value.partial
        steps = [(j * grid.dt, grid.dt) for j in range(256)]
        ref = strang_reference(params11, ZeroForcing(), fast, steps)
        assert l2_gap(grid, partial.values, ref) <= 1e-12

    def test_states_must_share_one_grid(self, params11, default_grid):
        other = GridSpec(default_grid.x_min, default_grid.x_max, 512, default_grid.dt)
        with pytest.raises(DomainError):
            evolve_states(params11, ZeroForcing(),
                          [eigenstate_wavefunction(params11, 0, default_grid),
                           eigenstate_wavefunction(params11, 0, other)], 1.0)
        with pytest.raises(DomainError):
            evolve_states(params11, ZeroForcing(), [], 1.0)


class TestFrameMaps:
    def test_identity_at_time_zero(self, params11, default_grid, const_frame_pi):
        psi = eigenstate_wavefunction(params11, 2, default_grid)
        out = moving_to_lab(const_frame_pi, psi, 0.0)
        assert np.max(np.abs(out.values - psi.values)) < 1e-12
        out2 = lab_to_moving(const_frame_pi, psi, 0.0)
        assert np.max(np.abs(out2.values - psi.values)) < 1e-12

    def test_zero_forcing_identity_any_time(self, params11, default_grid):
        fr = build_frame(params11, ZeroForcing(), 2.0)
        psi = eigenstate_wavefunction(params11, 1, default_grid)
        out = moving_to_lab(fr, psi, 1.3)
        assert np.max(np.abs(out.values - psi.values)) < 1e-12

    def test_norm_preserved(self, params11, default_grid, const_frame_pi):
        rng = np.random.default_rng(41)
        psi = random_state(params11, default_grid, rng)
        assert abs(moving_to_lab(const_frame_pi, psi, 2.0).norm() - 1.0) < 1e-10
        assert abs(lab_to_moving(const_frame_pi, psi, 2.0).norm() - 1.0) < 1e-10

    def test_inverse_pair_is_exact(self, params11, default_grid, const_frame_pi):
        # no global phase quotiented: lab_to_moving undoes moving_to_lab
        psi = eigenstate_wavefunction(params11, 1, default_grid)
        back = lab_to_moving(const_frame_pi, moving_to_lab(const_frame_pi, psi, 2.2), 2.2)
        gap = math.sqrt(np.sum(np.abs(back.values - psi.values) ** 2) * default_grid.dx)
        assert gap < 1e-12

    @pytest.mark.parametrize("spec, t", [
        (ConstantForcing(1.0), 2.2),
        (SinusoidForcing(0.9, 1.7, 0.3), 1.3),
    ], ids=["constant", "sinusoid"])
    def test_maps_are_an_adjoint_pair(self, params11, default_grid, spec, t):
        # <lab_to_moving psi, phi> = <psi, moving_to_lab phi>, and the pair
        # composes to the identity, with no global phase fitted
        fr = build_frame(params11, spec, 3.0)
        rng = np.random.default_rng(48)
        for _ in range(3):
            psi = random_state(params11, default_grid, rng, n_modes=6)
            phi = random_state(params11, default_grid, rng, n_modes=6)
            lhs = overlap(lab_to_moving(fr, psi, t), phi)
            rhs = overlap(psi, moving_to_lab(fr, phi, t))
            assert abs(lhs - rhs) < 1e-14
            back = moving_to_lab(fr, lab_to_moving(fr, psi, t), t)
            assert l2_gap(default_grid, back.values, psi.values) < 1e-14

    def test_position_operator_covariance(self, params11, default_grid, const_frame_pi):
        rng = np.random.default_rng(43)
        x = default_grid.x
        for t in (0.9, 2.4):
            phi = random_state(params11, default_grid, rng)
            mapped = moving_to_lab(const_frame_pi, phi, t)
            lhs = moving_to_lab(const_frame_pi, WaveFunction(default_grid, x * phi.values), t)
            rhs = (x - const_frame_pi.x_nh(t)) * mapped.values
            assert math.sqrt(np.sum(np.abs(lhs.values - rhs) ** 2) * default_grid.dx) < 1e-8

    def test_momentum_operator_covariance(self, params11, default_grid, const_frame_pi):
        rng = np.random.default_rng(44)
        k = default_grid.wavenumbers
        m = params11.m
        for t in (0.9, 2.4):
            phi = random_state(params11, default_grid, rng)
            mapped = moving_to_lab(const_frame_pi, phi, t)
            op_phi = WaveFunction(default_grid, np.fft.ifft(k * np.fft.fft(phi.values)))
            lhs = moving_to_lab(const_frame_pi, op_phi, t)
            rhs = np.fft.ifft(k * np.fft.fft(mapped.values)) \
                - m * const_frame_pi.xdot_nh(t) * mapped.values
            assert math.sqrt(np.sum(np.abs(lhs.values - rhs) ** 2) * default_grid.dx) < 1e-6

    def test_momentum_covariance_needs_mass_factor(self):
        # at m != 1 the momentum shift must be m * xdot_nh: the residual
        # vanishes with the factor and is O(1) without it
        params = OscillatorParams(2.0, 1.0)
        grid = GridSpec.default(params)
        fr = build_frame(params, ConstantForcing(1.0), 3.0)
        rng = np.random.default_rng(47)
        k = grid.wavenumbers
        t = 2.0
        phi = random_state(params, grid, rng)
        mapped = moving_to_lab(fr, phi, t)
        op_phi = WaveFunction(grid, np.fft.ifft(k * np.fft.fft(phi.values)))
        lhs = moving_to_lab(fr, op_phi, t).values
        shift = fr.xdot_nh(t) * mapped.values
        spectral = np.fft.ifft(k * np.fft.fft(mapped.values))
        with_mass = math.sqrt(np.sum(np.abs(lhs - (spectral - params.m * shift)) ** 2) * grid.dx)
        without_mass = math.sqrt(np.sum(np.abs(lhs - (spectral - shift)) ** 2) * grid.dx)
        assert with_mass < 1e-6
        assert without_mass > 0.1 * abs(fr.xdot_nh(t))


class TestEvolutionCovariance:
    def test_moving_frame_image_of_driven_evolution(self, params11, default_grid):
        spec = SinusoidForcing(0.9, 1.7, 0.3)
        t = 2.0
        fr = build_frame(params11, spec, t)
        rng = np.random.default_rng(45)
        psi0 = random_state(params11, default_grid, rng, n_modes=5)
        via = lab_to_moving(fr, evolve_lab(params11, spec, psi0, t), t)
        direct = evolve_lab(params11, ZeroForcing(), psi0, t)
        assert l2_gap(default_grid, via.values, direct.values) < 1e-4

    def test_lab_frame_image_of_unforced_evolution(self, params11, default_grid):
        spec = ConstantForcing(1.0)
        t = 2.5
        fr = build_frame(params11, spec, t)
        rng = np.random.default_rng(46)
        psi0 = random_state(params11, default_grid, rng, n_modes=5)
        via = moving_to_lab(fr, evolve_lab(params11, ZeroForcing(), psi0, t), t)
        direct = evolve_lab(params11, spec, psi0, t)
        assert l2_gap(default_grid, via.values, direct.values) < 1e-4

    def test_exact_eigen_phases_match_unforced_stepping(self):
        # verify's unforced reference sum_n c_n e^{-i E_n t} phi_n is the
        # state the split-operator solver reaches with no force, phase and
        # sign included (e^{+i E_n t} would put the gap above 1)
        params = OscillatorParams(1.3, 0.8)
        grid = GridSpec.default(params)
        t = math.pi
        psi0, exact = _mix_modes(params, grid, _eigenmodes(params, grid, 5),
                                 np.random.default_rng(47), t)
        assert np.array_equal(psi0.values,
                              random_state(params, grid, np.random.default_rng(47), 5).values)
        stepped = evolve_lab(params, ZeroForcing(), psi0, t)
        assert l2_gap(grid, exact.values, stepped.values) < 1e-6

    @pytest.mark.parametrize("params, spec, n", [
        (OscillatorParams(1.0, 1.0), SinusoidForcing(1.0, 2.0, 0.0), 0),
        (OscillatorParams(1.3, 0.8), SinusoidForcing(1.0, 2.0, 0.0), 3),
        (OscillatorParams(1.0, 1.0), ConstantForcing(1.0), 1),
    ], ids=["default", "heavy", "constant"])
    def test_frame_map_leaves_no_global_phase(self, params, spec, n):
        # with G the Lagrangian along the response, e^{-iE_n t} phi_n mapped
        # to the lab is the driven state itself: no phase is quotiented here
        # (a leftover exp(i int x_nh k) would put the gap near 2 for the
        # constant drive, whose integral is pi)
        t = math.pi
        grid = GridSpec.default(params)
        phi = eigenstate_wavefunction(params, n, grid)
        moved = WaveFunction(grid, np.exp(-1j * eigen_energy(params, n) * t) * phi.values)
        via = moving_to_lab(build_frame(params, spec, t), moved, t)
        direct = evolve_lab(params, spec, phi, t)
        gap = math.sqrt(np.sum(np.abs(via.values - direct.values) ** 2) * grid.dx)
        assert gap < 1e-5


class TestExpectations:
    def test_kinetic_plus_potential_is_eigenvalue(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 4, default_grid)
        assert energy_expectation(params11, psi, ZeroForcing(), 0.0) == pytest.approx(
            eigen_energy(params11, 4), abs=1e-10)

    def test_kinetic_of_ground_state(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 0, default_grid)
        assert kinetic_expectation(params11, psi) == pytest.approx(0.25, abs=1e-10)

    def test_coherent_state_center(self, params11, default_grid):
        psi = coherent_wavefunction(params11, -0.8, 1.1, default_grid)
        assert position_expectation(psi) == pytest.approx(-0.8, abs=1e-10)
        assert momentum_expectation(psi) == pytest.approx(1.1, abs=1e-10)
