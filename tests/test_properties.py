"""Property tests over the quantum-number range the CLI accepts."""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenosc import NumericError, probability_column, probability_row


@settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
@given(n=st.integers(0, 300),
       lam=st.floats(0.0, 50.0))
def test_row_is_a_probability_distribution(n, lam):
    # the row's mass lies below (sqrt(n) + sqrt(lam))^2 plus a few widths
    probs = probability_column(n, lam, 2 * n + 200)
    assert np.all(np.isfinite(probs))
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert abs(probs.sum() - 1.0) < 1e-10


@settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
@given(n=st.integers(0, 60),
       lam=st.floats(0.0, 40.0),
       tail_tol=st.floats(1e-12, 1e-3))
def test_row_is_the_shortest_prefix_holding_the_mass(n, lam, tail_tol):
    column = probability_column(n, lam, 501)
    row = probability_row(n, column, tail_tol)
    probs = list(row.probabilities)
    assert row.truncation_m == len(probs)
    assert probs == column[:len(probs)].tolist()
    # the row holds 1 - tail_tol and one entry fewer would not (up to rounding)
    assert math.fsum(probs) > 1.0 - tail_tol - 1e-15
    assert math.fsum(probs[:-1]) <= 1.0 - tail_tol + 1e-15
    assert row.tail_bound == pytest.approx(max(0.0, 1.0 - math.fsum(probs)), abs=1e-13)
    with pytest.raises(NumericError):
        probability_row(n, column[:len(probs) - 1], tail_tol)
