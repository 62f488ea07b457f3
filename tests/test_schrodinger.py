import math

import numpy as np
import pytest

from drivenosc import (
    BoundaryError,
    ConstantForcing,
    DomainError,
    GridSpec,
    OscillatorParams,
    SinusoidForcing,
    WaveFunction,
    ZeroForcing,
    coherent_wavefunction,
    eigen_energy,
    eigenstate_wavefunction,
    energy_expectation,
    evolve,
    evolve_lab,
    evolve_moving,
    lab_to_moving,
    momentum_representation,
    moving_to_lab,
    overlap,
    transition_probability,
)
from drivenosc.canonical import build_frame
from drivenosc.classical import PhaseState
from drivenosc.schrodinger import (
    fidelity,
    kinetic_expectation,
    momentum_expectation,
    phase_quotient_defect,
    position_expectation,
)


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
        grid = GridSpec.default(params11, dt=2e-4)
        phi0 = coherent_wavefunction(params11, 1.0, 0.5, grid)
        e0 = energy_expectation(params11, phi0)
        e1 = energy_expectation(params11, evolve_moving(params11, phi0, 2.0))
        assert abs(e1 - e0) < 1e-8

    def test_ground_state_picks_up_half_quantum_phase(self, params11, default_grid):
        psi0 = eigenstate_wavefunction(params11, 0, default_grid)
        out = evolve_moving(params11, psi0, 1.5)
        expected = np.exp(-1j * 0.5 * params11.omega * 1.5)
        got = overlap(psi0, out)
        assert abs(got - expected) < 1e-6

    def test_coherent_center_follows_classical_orbit(self, params11, default_grid):
        phi0 = coherent_wavefunction(params11, 1.0, 0.5, default_grid)
        out = evolve_moving(params11, phi0, 2.0)
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
        for m in (0, 1, 2, 3):
            pde = abs(overlap(eigenstate_wavefunction(params11, m, default_grid), out)) ** 2
            closed = transition_probability(1, m, const_frame_pi, 2.0)
            assert abs(pde - closed) < 1e-4

    def test_unnormalized_initial_state_rejected(self, params11, default_grid):
        psi = WaveFunction(default_grid, 2.0 * eigenstate_wavefunction(
            params11, 0, default_grid).values)
        with pytest.raises(DomainError):
            evolve_lab(params11, ZeroForcing(), psi, 1.0)

    def test_boundary_contamination_detected(self, params11):
        grid = GridSpec(-6.0, 6.0, 256, 1e-3)
        psi0 = coherent_wavefunction(params11, 0.0, 0.0, grid)
        # strong constant push drives the packet off this small grid
        with pytest.raises(BoundaryError):
            evolve_lab(params11, ConstantForcing(30.0), psi0, 3.0)


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

    def test_inverse_pair_up_to_global_phase(self, params11, default_grid, const_frame_pi):
        rng = np.random.default_rng(42)
        psi = random_state(params11, default_grid, rng)
        back = lab_to_moving(const_frame_pi, moving_to_lab(const_frame_pi, psi, 2.2), 2.2)
        assert fidelity(back, psi) > 1.0 - 1e-10

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
        direct = evolve_moving(params11, psi0, t)
        assert phase_quotient_defect(via, direct) < 1e-4

    def test_lab_frame_image_of_unforced_evolution(self, params11, default_grid):
        spec = ConstantForcing(1.0)
        t = 2.5
        fr = build_frame(params11, spec, t)
        rng = np.random.default_rng(46)
        psi0 = random_state(params11, default_grid, rng, n_modes=5)
        via = moving_to_lab(fr, evolve_moving(params11, psi0, t), t)
        direct = evolve_lab(params11, spec, psi0, t)
        assert phase_quotient_defect(via, direct) < 1e-4

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
        assert energy_expectation(params11, psi) == pytest.approx(
            eigen_energy(params11, 4), abs=1e-10)

    def test_kinetic_of_ground_state(self, params11, default_grid):
        psi = eigenstate_wavefunction(params11, 0, default_grid)
        assert kinetic_expectation(params11, psi) == pytest.approx(0.25, abs=1e-10)

    def test_coherent_state_center(self, params11, default_grid):
        psi = coherent_wavefunction(params11, -0.8, 1.1, default_grid)
        assert position_expectation(psi) == pytest.approx(-0.8, abs=1e-10)
        assert momentum_expectation(psi) == pytest.approx(1.1, abs=1e-10)
