import copy
import math

import pytest

from drivenosc import ConstantForcing, GridSpec, OscillatorParams
from drivenosc.canonical import build_frame

# A sinusoid scenario, k(t) = cos 2t on m = w = 1 over [0, pi], as its JSON
# object: tests build it with Scenario.from_dict or write it to a file.
DEFAULT_SCENARIO = {
    "params": {"m": 1.0, "omega": 1.0},
    "forcing": {"type": "sinusoid", "A": 1.0, "Omega": 2.0, "phi": 0.0},
    "time": {"t_max": math.pi, "samples": 65},
}


@pytest.fixture
def default_scenario():
    return copy.deepcopy(DEFAULT_SCENARIO)


@pytest.fixture(scope="session")
def params11():
    return OscillatorParams(m=1.0, omega=1.0)


@pytest.fixture(scope="session")
def const_frame_pi(params11):
    """Frame for m=1, w=1, constant K=1 over [0, pi]; x_nh = 1 - cos t,
    xdot_nh = sin t, G = t/2 - sin(2t)/4.  Shared: frames are immutable."""
    return build_frame(params11, ConstantForcing(1.0), math.pi)


@pytest.fixture(scope="session")
def default_grid(params11):
    return GridSpec.default(params11)
