import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from drivenosc import (
    ConstantForcing,
    DomainError,
    NumericError,
    OscillatorParams,
    TransitionRow,
    ZeroForcing,
    overlap_amplitude,
    overlap_by_quadrature,
    probability_column,
    probability_row,
)
from drivenosc import transitions, verify
from drivenosc.canonical import build_frame
from drivenosc.transitions import _laguerre_column, _valid_row, _valid_rows


def poisson(lam, m):
    if lam == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1))


def displacement_at(frame, t):
    """(a, b) at the frame's time t, from one float frame read."""
    return transitions.displacements(frame.params, *frame.values(t)[:2])


def lam_at(frame, t):
    """lambda at the frame's time t."""
    return transitions.excitation_mean(*displacement_at(frame, t))


def survival(frame, t):
    """P(0 -> 0) at the frame's time t: exp(-lambda)."""
    return math.exp(-lam_at(frame, t))


def row_at(n, frame, t, tail_tol):
    """probability_row cut from the 501-entry column at the frame's time t."""
    return probability_row(n, probability_column(n, lam_at(frame, t), 501), tail_tol)


def laguerre_magnitude(n, m, a, b):
    """Displaced-state overlap magnitude from the associated-Laguerre
    closed form; an independent cross-check of the coefficient sum."""
    lam = transitions.excitation_mean(a, b)
    lo, hi = min(n, m), max(n, m)
    return math.exp(-lam / 2) * math.sqrt(math.factorial(lo) / math.factorial(hi)) \
        * lam ** ((hi - lo) / 2) * abs(eval_genlaguerre(lo, hi - lo, lam))


class TestDisplacementParams:
    """The displacement (a, b) of a frame read, and its finiteness check."""

    def test_from_frame_scaling(self):
        params = OscillatorParams(2.0, 3.0)
        fr = build_frame(params, ConstantForcing(1.0), 2.0)
        t = 1.2
        a, b = displacement_at(fr, t)
        assert a == pytest.approx(math.sqrt(6.0) * fr.x_nh(t), abs=1e-12)
        assert b == pytest.approx(fr.xdot_nh(t) * math.sqrt(2.0 / 3.0), abs=1e-12)
        # the float read is the 1-D array read, bit for bit
        arrays = transitions.displacements(params, *fr.values(np.array([t]))[:2])
        assert [a, b] == [float(v[0]) for v in arrays]

    def test_needs_confining_well(self):
        params = OscillatorParams(1.0, 0.0)
        fr = build_frame(params, ConstantForcing(1.0), 1.0)
        with pytest.raises(DomainError):
            displacement_at(fr, 0.5)

    def test_scales_are_roots_taken_apart_by_powers_of_two(self):
        # bit-equal to math.sqrt where the product or quotient is a normal
        # float, and finite where only that intermediate overflows
        rng = np.random.default_rng(12)
        for m, w in np.exp(rng.uniform(-700.0, 700.0, (20_000, 2))).tolist():
            for power, q in ((1, m * w), (-1, m / w)):
                if 2.2250738585072014e-308 <= q < math.inf:
                    assert transitions._root(m, w, power) == math.sqrt(q)
        assert transitions._root(1e300, 1e-10, -1) == pytest.approx(1e155, rel=1e-15)
        assert transitions._root(1e-300, 1e-10, 1) == pytest.approx(1e-155, rel=1e-15)
        a, b = transitions.displacements(OscillatorParams(1e300, 1e-10), np.array([1e-300, 0.0]),
                                         np.array([0.0, 1e-300]))
        assert a.tolist() == [pytest.approx(1e-155, rel=1e-15), 0.0]
        assert b.tolist() == [0.0, pytest.approx(1e-145, rel=1e-15)]

    def test_finite_required(self):
        for a, b in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(DomainError, match=r"displacement must be finite, got \("):
                overlap_amplitude(0, 1, a, b)
            with pytest.raises(DomainError, match=r"displacement must be finite, got \("):
                overlap_by_quadrature(0, 1, a, b, order=20)


class TestOverlapAmplitude:
    def test_zero_displacement_is_exact_identity(self):
        for n in range(6):
            assert overlap_amplitude(n, n, 0.0, 0.0) == 1.0 + 0.0j
            for m in range(6):
                if m != n:
                    assert overlap_amplitude(n, m, 0.0, 0.0) == 0.0 + 0.0j

    def test_single_quantum_magnitude(self):
        # quadrature oracle gives e^{-1/4}/sqrt(2) ~ 0.55066 at a=1, b=0
        ref = math.exp(-0.25) / math.sqrt(2.0)
        assert abs(overlap_amplitude(0, 1, 1.0, 0.0)) == pytest.approx(ref, abs=1e-12)
        assert abs(overlap_amplitude(1, 0, 1.0, 0.0)) == pytest.approx(ref, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(150):
            n, m = int(rng.integers(0, 11)), int(rng.integers(0, 11))
            a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            closed = overlap_amplitude(n, m, a, b)
            oracle = overlap_by_quadrature(n, m, a, b, order=60)
            assert abs(closed - oracle) < 1e-10

    def test_detailed_balance_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            assert abs(abs(overlap_amplitude(n, m, a, b))
                       - abs(overlap_amplitude(m, n, a, b))) < 1e-12

    def test_block_log_magnitude_equals_the_pair_form(self):
        # one column block per n over many lambdas holds, bit for bit, the
        # entry overlap_amplitude reads for each pair, m < n and m > n alike,
        # and the exact delta_nm of the still branch at lambda = 0
        rng = np.random.default_rng(33)
        ds = [(0.0, 0.0)] + [(a, b) for a, b in rng.uniform(-3, 3, (40, 2)).tolist()]
        lams = np.array([transitions.excitation_mean(a, b) for a, b in ds])
        for n in range(12):
            _, block = _laguerre_column(n, lams, 12)
            for m in range(12):
                pairs = np.array([_laguerre_column(n, lam, m + 1)[1][m] for lam in lams.tolist()])
                assert np.array_equal(block[:, m], pairs)
                magnitudes = [abs(overlap_amplitude(n, m, a, b)) for a, b in ds]
                np.testing.assert_allclose(np.exp(block[:, m]), magnitudes, rtol=1e-15, atol=0)

    def test_symmetry_check_matches_the_pair_form(self):
        # verify's amplitude_symmetry on its column blocks against the same
        # draws checked one overlap_amplitude pair at a time
        rng = np.random.default_rng(306)
        worst = 0.0
        for _ in range(150):
            n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            worst = max(worst, abs(abs(overlap_amplitude(n, m, a, b))
                                   - abs(overlap_amplitude(m, n, a, b))))
        assert np.max(verify.check_amplitude_symmetry(None)) == worst

    def test_log_space_path_continuous_at_threshold(self):
        # n + m = 30 runs the direct path, 31 the log-space path; compare
        # both against the quadrature oracle
        for n, m in [(15, 15), (16, 15), (15, 16), (20, 14)]:
            oracle = overlap_by_quadrature(n, m, 1.4, -0.9, order=80)
            assert abs(overlap_amplitude(n, m, 1.4, -0.9) - oracle) < 1e-10

    def test_laguerre_cross_check(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 11))
            a, b = float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5))
            assert abs(overlap_amplitude(n, m, a, b)) == pytest.approx(
                laguerre_magnitude(n, m, a, b), abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            overlap_amplitude(-1, 0, 1.0, 0.0)


class TestQuadratureOracle:
    def test_no_displacement(self):
        r = overlap_by_quadrature(0, 0, 0.0, 0.0, order=20)
        assert r == pytest.approx(1.0, abs=1e-13)

    def test_pure_position_displacement(self):
        r = overlap_by_quadrature(0, 0, 2.0, 0.0, order=40)
        assert abs(r) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_stable_under_order_doubling(self):
        v40 = overlap_by_quadrature(3, 5, 1.3, -2.2, order=40)
        v80 = overlap_by_quadrature(3, 5, 1.3, -2.2, order=80)
        assert abs(v40 - v80) < 1e-12


class TestTransitionProbability:
    def test_initial_time_certainty(self, params11, const_frame_pi):
        a, b = displacement_at(const_frame_pi, 0.0)
        assert abs(overlap_amplitude(0, 0, a, b)) ** 2 == pytest.approx(1.0)

    def test_unit_displacement_survival(self):
        # a^2 + b^2 = 1 gives survival e^{-1/2}
        a = b = math.sqrt(0.5)
        assert abs(overlap_amplitude(0, 0, a, b)) ** 2 == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    def test_poisson_point(self):
        assert abs(overlap_amplitude(0, 2, 1.0, 1.0)) ** 2 == pytest.approx(
            math.exp(-1.0) / 2.0, abs=1e-12)


class TestProbabilityRow:
    def test_zero_forcing_row(self, params11):
        fr = build_frame(params11, ZeroForcing(), 1.0)
        row = row_at(0, fr, 0.7, tail_tol=1e-9)
        assert row.probabilities[0] == 1.0
        assert all(p == 0.0 for p in row.probabilities[1:])
        assert row.tail_bound <= 1e-9

    def test_ground_row_is_poisson(self, const_frame_pi):
        t = math.pi / 2
        row = row_at(0, const_frame_pi, t, tail_tol=1e-12)
        lam = lam_at(const_frame_pi, t)
        for m, p in enumerate(row.probabilities[:16]):
            assert abs(p - poisson(lam, m)) < 1e-9

    def test_rows_sum_to_one(self, const_frame_pi):
        for n in range(6):
            row = row_at(n, const_frame_pi, 2.0, tail_tol=1e-10)
            assert abs(sum(row.probabilities) - 1.0) < 1e-8
            assert row.truncation_m == len(row.probabilities)

    def test_large_mean_uses_log_space(self):
        # lambda = 40.5: hundreds of terms, factorials far beyond double range
        total = sum(abs(overlap_amplitude(0, m, 9.0, 0.0)) ** 2 for m in range(140))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_row_limit_overflow_raises(self, params11):
        frame = build_frame(params11, ConstantForcing(30.0), math.pi)
        # x_nh(pi) = 60 -> lambda = 1800: cannot converge within m <= 500
        with pytest.raises(NumericError) as exc:
            row_at(0, frame, math.pi, tail_tol=1e-9)
        assert exc.value.partial is not None

    def test_bad_tail_tol(self, const_frame_pi):
        with pytest.raises(DomainError):
            row_at(0, const_frame_pi, 1.0, tail_tol=0.0)

    # a NaN tail_tol passed `tail_tol <= 0.0`, probability_columns read no
    # tail_tol at all, and a negative length fell through to numpy
    @pytest.mark.parametrize("call, message", [
        (lambda: probability_row(0, probability_column(0, 2.0, 40), math.nan),
         "tail_tol must be positive, got nan"),
        *[(lambda t=t: list(transitions.probability_columns(0, np.array([2.0]), 16, t)),
           f"tail_tol must be positive, got {t!r}") for t in (0.0, -1.0, math.nan)],
        (lambda: list(transitions.probability_columns(0, np.array([2.0]), -40, 1e-9)),
         "m_max must be >= 0, got -40"),
        (lambda: probability_column(0, 2.0, -3), "m_stop must be >= 0, got -3"),
    ], ids=["row-nan-tol", "columns-zero-tol", "columns-negative-tol", "columns-nan-tol",
            "columns-negative-m_max", "column-negative-m_stop"])
    def test_bad_tolerance_or_length_is_a_domain_error(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


class TestGroundStateSurvival:
    def test_zero_forcing(self, params11):
        fr = build_frame(params11, ZeroForcing(), 1.0)
        assert survival(fr, 0.8) == 1.0

    def test_half_period_constant_force(self, const_frame_pi):
        # x_nh = 2, xdot_nh = 0 at t = pi: survival e^{-2}
        assert survival(const_frame_pi, math.pi) == pytest.approx(
            math.exp(-2.0), abs=1e-9)

    def test_unit_displacement(self):
        assert math.exp(-transitions.excitation_mean(1.0, 1.0)) == pytest.approx(math.exp(-1.0))

    def test_equals_zero_zero_probability(self, const_frame_pi):
        for t in (0.5, 1.5, 3.0):
            assert survival(const_frame_pi, t) == pytest.approx(
                abs(overlap_amplitude(0, 0, *displacement_at(const_frame_pi, t))) ** 2, abs=1e-14)


class TestTransitionRowType:
    def test_rejects_invalid_probability(self):
        with pytest.raises(DomainError):
            TransitionRow(n=0, probabilities=(1.2,), tail_bound=0.0)

    def test_rejects_oversubscribed_row(self):
        with pytest.raises(DomainError):
            TransitionRow(n=0, probabilities=(0.7, 0.7), tail_bound=0.0)

    def test_length_is_read_from_the_probabilities(self):
        row = TransitionRow(n=0, probabilities=(0.5, 0.25, 0.25), tail_bound=0.0)
        assert [f.name for f in dataclasses.fields(row)] == ["n", "probabilities", "tail_bound"]
        assert row.truncation_m == 3


def laguerre_probabilities(n, m, lam):
    """P(n -> m) from scipy's associated Laguerre polynomial, factorials in
    log space; an independent route to the column for large n and m."""
    lo, hi = np.minimum(n, m), np.maximum(n, m)
    log_pref = gammaln(lo + 1) - gammaln(hi + 1) + (hi - lo) * np.log(lam) - lam
    with np.errstate(divide="ignore"):
        return np.exp(log_pref + 2.0 * np.log(np.abs(eval_genlaguerre(lo, hi - lo, lam))))


def mpmath_log_magnitudes(n, lam, m_stop, m_start=0):
    """log |A(n, m)| for m = m_start .. m_stop-1 at 160 digits, L_lo^{(hi-lo)}
    summed term by term from its power series: shares no step with the
    degree recurrence or with the double-precision factorials."""
    out = []
    with mpmath.workdps(160):  # the series cancels by ~10^54 at n 100, lam 80
        x = mpmath.mpf(lam)
        for m in range(m_start, m_stop):
            lo, hi = min(n, m), max(n, m)
            term = total = mpmath.binomial(hi, lo)
            for i in range(lo):
                term = term * -x * (lo - i) / ((i + 1) * (hi - lo + i + 1))
                total += term
            out.append(0.5 * (mpmath.loggamma(lo + 1) - mpmath.loggamma(hi + 1))
                       + 0.5 * (hi - lo) * mpmath.log(x) - x / 2 + mpmath.log(abs(total)))
    return np.array([float(v) for v in out])


def displacement(lam, angle):
    """(a, b) at polar angle angle whose lambda is lam."""
    r = math.sqrt(2.0 * lam)
    return r * math.cos(angle), r * math.sin(angle)


class TestHighQuantumNumbers:
    def test_laguerre_probabilities_up_to_n_300(self):
        rng = np.random.default_rng(40)
        for n in (0, 1, 7, 30, 40, 100, 200, 300):
            for lam in (1e-6, 0.5, 3.0, 8.0, 20.0, 50.0):
                d = displacement(lam, float(rng.uniform(0.0, 2.0 * math.pi)))
                m_stop = 2 * n + 200
                probs = probability_column(n, transitions.excitation_mean(*d), m_stop)
                ref = laguerre_probabilities(n, np.arange(m_stop), transitions.excitation_mean(*d))
                assert np.max(np.abs(probs - ref)) < 1e-12
                assert abs(probs.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("n, lam", [(0, 80.0), (7, 15.4), (30, 0.5), (100, 80.0),
                                        (300, 1e-3), (300, 15.4)])
    def test_log_magnitudes_match_mpmath_across_the_column(self, n, lam):
        _, log_mag = _laguerre_column(n, lam, 501)
        exact = mpmath_log_magnitudes(n, lam, 501)
        # the form adds terms as large as log hi! and lam / 2, so its
        # rounding is relative to their size (at most 1.3e-15 of it here)
        hi = np.maximum(np.arange(501), n)
        scale = 1.0 + lam + np.array([math.lgamma(k + 1) for k in hi])
        assert np.max(np.abs(log_mag - exact) / scale) < 5e-15

    def test_log_magnitudes_near_the_diagonal_carry_only_the_gap_rounding(self):
        # log(lo!/hi!) over a gap of a few k must not inherit the rounding of
        # log n! (~1414 here), which put these entries ~1e-13 off
        n, lam = 300, 1e-3
        _, log_mag = _laguerre_column(n, lam, n + 4)
        exact = mpmath_log_magnitudes(n, lam, n + 4, m_start=n - 3)
        assert np.max(np.abs(log_mag[n - 3:] - exact)) < 1e-14

    @pytest.mark.parametrize("n, lam, short, long", [(0, 2.5, 20, 60), (40, 9.0, 60, 501),
                                                     (300, 15.4, 340, 800),
                                                     (2000, 0.3, 2100, 2600)])
    def test_shorter_column_is_an_exact_prefix(self, n, lam, short, long):
        # each entry rescales on its own size, so a column's length moves no
        # bit of its entries (at n = 2000 a rescale over the whole slice did)
        sign, log_mag = _laguerre_column(n, lam, long)
        head_sign, head = _laguerre_column(n, lam, short)
        assert np.array_equal(head, log_mag[:short])
        assert np.array_equal(head_sign, sign[:short])

    @pytest.mark.parametrize("n, m_stop", [(0, 40), (40, 501), (300, 800), (2000, 2600)])
    def test_block_of_lambdas_equals_the_single_columns(self, n, m_stop):
        lams = np.array([0.0, 1e-6, 0.3, 15.4, 80.0])
        signs, block = _laguerre_column(n, lams, m_stop)
        assert block.shape == (lams.size, m_stop)
        for lam, sign_row, row in zip(lams.tolist(), signs, block):
            sign, log_mag = _laguerre_column(n, lam, m_stop)
            assert np.array_equal(row, log_mag)
            assert np.array_equal(sign_row, sign)

    def test_matches_order_200_quadrature_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            total = int(rng.integers(0, 191))
            n = int(rng.integers(0, total + 1))
            a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            oracle = overlap_by_quadrature(n, total - n, a, b, order=200)
            assert abs(overlap_amplitude(n, total - n, a, b) - oracle) < 1e-10

    def test_n_2000_is_finite_or_numeric_error(self, const_frame_pi):
        for lam in (0.01, 20.0, 2000.0):
            probs = probability_column(2000, transitions.excitation_mean(*displacement(lam, 0.3)),
                                       2600)
            assert np.all(np.isfinite(probs))
        with pytest.raises(NumericError) as exc:
            row_at(2000, const_frame_pi, 2.0, tail_tol=1e-9)
        assert np.all(np.isfinite(exc.value.partial))

    # negative, NaN, and the inf of a mean that overflows: no row exists
    @pytest.mark.parametrize("lam", [-1.0, math.nan, transitions.excitation_mean(1e200, 0.0)])
    def test_mean_outside_its_domain_is_a_domain_error(self, lam):
        with pytest.raises(DomainError, match="lambda must be finite and >= 0"):
            probability_column(0, lam, 8)
        with pytest.raises(DomainError, match=f"got {lam!r}"):
            list(transitions.probability_columns(0, [0.5, lam, 2.0], 16, 1e-9))

    def test_row_rejects_nan(self):
        with pytest.raises(DomainError):
            TransitionRow(n=0, probabilities=(math.nan,), tail_bound=0.0)


class TestBlockValidity:
    def test_block_decides_each_row_as_valid_row(self):
        edges = np.array([
            [0.5, 0.5, 0.0],
            [-1e-12, 0.5, 0.5],  # at the lower bound
            [-1e-11, 0.5, 0.5],  # below it
            [1.0 + 1e-12, 0.0, 0.0],  # at the upper bound
            [1.0 + 1e-11, 0.0, 0.0],  # above it, summing to less than 1 + 1e-10
            [0.5, 0.5 + 1e-10, 0.0],
            [0.5, 0.5 + 2e-10, 0.0],  # every entry in range, the sum above
            [math.nan, 0.0, 0.0],
            [math.inf, 0.0, 0.0],
            [0.5, -math.inf, 0.0],
            [0.5, math.nan, math.inf],
        ])
        assert _valid_rows(edges).tolist() == [_valid_row(r.tolist()) for r in edges]
        assert _valid_rows(edges).tolist() == [True, True, False, True, False, True, False,
                                               False, False, False, False]
        assert _valid_rows(np.empty((2, 0))).tolist() == [True, True]
        assert _valid_row([]) and _valid_row(np.empty(0))  # an empty row passes
        # long rows whose sums straddle 1 + 1e-10 by a few units in the last place
        rng = np.random.default_rng(17)
        for length in (2, 7, 49, 130, 501):
            block = rng.random((200, length))
            block /= block.sum(axis=1, keepdims=True)
            block *= 1.0 + 1e-10 + rng.integers(-4, 5, size=(200, 1)) * 2.2e-16
            decided = _valid_rows(block).tolist()
            assert decided == [_valid_row(r.tolist()) for r in block]
            assert 0 < sum(decided) < 200

    @pytest.mark.parametrize("fault", ["nan", "above_one", "sum"])
    def test_fault_inside_the_computed_prefix_fails_with_the_row(self, monkeypatch, fault):
        # the block check passes rows 0 and 2 and hands row 1 to _checked,
        # whose message and partial (the computed prefix) are unchanged;
        # a bad entry past the prefix, held only by a full-length column,
        # still fails nothing
        n, m_max = 2, 16
        first = m_max + transitions.ROW_ROOM + 1
        lams = np.array([transitions.excitation_mean(*displacement(lam, 0.3))
                         for lam in (0.5, 1.0, 1.5)])
        clean = list(transitions.probability_columns(n, lams, m_max, 1e-9))
        assert [len(c) for c in clean] == [first] * 3

        bad_lam = lams[1]

        def faulty(n_, lam, m_stop):
            sign, log_mag = _laguerre_column(n_, lam, m_stop)
            log_mag[..., first:] = 1.0  # P = e^2 > 1
            for i in np.flatnonzero(np.atleast_1d(lam) == bad_lam):
                row = np.atleast_2d(log_mag)[i]
                if fault == "nan":
                    row[3] = math.nan
                elif fault == "above_one":
                    row[:] = -math.inf
                    row[0] = 0.5 * math.log1p(1e-11)
                else:
                    row += 0.5 * math.log((1.0 + 2e-10) / math.fsum(np.exp(2.0 * row)))
            return sign, log_mag

        monkeypatch.setattr(transitions, "_laguerre_column", faulty)
        columns = transitions.probability_columns(n, lams, m_max, 1e-9)
        assert next(columns).tolist() == clean[0].tolist()
        with pytest.raises(NumericError) as exc:
            next(columns)
        assert str(exc.value) == "transition row from n=2 is not finite or not in [0, 1]"
        expected = np.exp(2.0 * faulty(n, lams, first)[1][1])
        assert len(exc.value.partial) == first
        assert not _valid_row(expected)
        assert isinstance(exc.value.partial, tuple)
        np.testing.assert_array_equal(np.array(exc.value.partial), expected)
        assert list(transitions.probability_columns(n, lams[::2], m_max, 1e-9))[1].tolist() == \
            clean[2].tolist()
        with pytest.raises(NumericError):
            probability_column(n, lams[0], 501)
