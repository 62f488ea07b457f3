"""Property tests over the quantum-number range the CLI accepts."""

import math
from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenosc import DisplacementParams
from drivenosc.transitions import probability_column


@settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
@given(n=st.integers(0, 300),
       lam=st.floats(0.0, 50.0),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_row_is_a_probability_distribution(n, lam, angle):
    r = math.sqrt(2.0 * lam)
    d = DisplacementParams(r * math.cos(angle), r * math.sin(angle))
    # the row's mass lies below (sqrt(n) + sqrt(lam))^2 plus a few widths
    probs = probability_column(n, d, 2 * n + 200)
    assert np.all(np.isfinite(probs))
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert abs(probs.sum() - 1.0) < 1e-10
