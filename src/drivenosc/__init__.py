"""drivenosc: the harmonically bound particle under a time-dependent force.

Classical side: exact propagator, driven response, conserved quadratic
form, and the moving canonical frame (x_nh, xdot_nh, G) that absorbs the
force.  Quantum side: closed-form transition probabilities between
oscillator eigenstates, their Gauss-Hermite quadrature oracle, and a
split-operator grid solver with the unitary frame-change maps.
"""

from .canonical import CanonicalFrame, build_frame
from .classical import (
    OscillatorParams,
    PhaseState,
    evolve,
    laboratory_ellipse,
    propagator,
    quadratic_form_matrix,
    quadratic_invariant,
)
from .errors import BoundaryError, DomainError, NumericError
from .forcing import (
    ConstantForcing,
    ForcingSpec,
    PulseForcing,
    SinusoidForcing,
    TabulatedForcing,
    ZeroForcing,
    forcing_from_dict,
)
from .hermite import (
    eigen_energy,
    eigenstate,
    gauss_hermite_rule,
    gaussian_integral,
    generating_function_partial,
    hermite_poly,
)
from .schrodinger import (
    GridSpec,
    WaveFunction,
    coherent_wavefunction,
    eigenstate_wavefunction,
    energy_expectation,
    evolve_lab,
    evolve_states,
    lab_to_moving,
    momentum_representation,
    moving_to_lab,
    overlap,
)
from .transitions import (
    TransitionRow,
    overlap_amplitude,
    overlap_by_quadrature,
    probability_column,
    probability_row,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CanonicalFrame",
    "ConstantForcing",
    "DomainError",
    "ForcingSpec",
    "GridSpec",
    "NumericError",
    "OscillatorParams",
    "PhaseState",
    "PulseForcing",
    "SinusoidForcing",
    "TabulatedForcing",
    "TransitionRow",
    "WaveFunction",
    "ZeroForcing",
    "build_frame",
    "coherent_wavefunction",
    "eigen_energy",
    "eigenstate",
    "eigenstate_wavefunction",
    "energy_expectation",
    "evolve",
    "evolve_lab",
    "evolve_states",
    "forcing_from_dict",
    "gauss_hermite_rule",
    "gaussian_integral",
    "generating_function_partial",
    "hermite_poly",
    "lab_to_moving",
    "laboratory_ellipse",
    "momentum_representation",
    "moving_to_lab",
    "overlap",
    "overlap_amplitude",
    "overlap_by_quadrature",
    "probability_column",
    "probability_row",
    "propagator",
    "quadratic_form_matrix",
    "quadratic_invariant",
]
