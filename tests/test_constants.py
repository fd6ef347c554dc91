"""Closed-form constants against independent oracles.

Reference values were computed separately at 30+ significant digits from the
defining series/integrals (partial sums with explicit remainder control) and
are frozen below.  Anchors shared with the classical N = 1 theory (geometric
and harmonic digit means, Lévy exponent, Loch-type constant) agree with the
published classical digits.  Live oracles used here: adaptive quadrature for
the density normalization and the dilogarithm, scipy's Spence function for
the dilogarithm, raw partial sums with two-sided tail bounds for the
digit means, and (when installed) 30-digit mpmath sums that check the
reported tail bounds, plus mpmath's Hurwitz zeta for the local one.
"""

import functools
import itertools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import spence

from ncfrac import (
    ConstantsReport,
    cdf,
    density,
    dilog_theta,
    frequency,
    holder_mean,
    khinchin,
    lambda_asymptotic,
    levy_L,
    levy_lambda,
    loch,
    lower_bounds,
    lyapunov_const,
)
from ncfrac import constants
from ncfrac.cli import main
from ncfrac.constants import _hurwitz_zeta

# frozen 30-digit references (see module docstring)
K_GEOMETRIC = {
    1: 2.685452001065306445,   # classical value
    2: 5.412651679209027614,
    3: 8.136460059488264131,
    5: 13.578959171884308169,
    10: 27.175974248133229584,
}
K_HARMONIC_1 = 1.745405662407346863  # classical value
K_HOLDER = {
    (100, -1.0): 199.667229016297922599,
    (100, 0.5): 400.664622820882225126,
    (1, 0.5): 4.533095114977819974,
    (2, -1.0): 3.704751334824942075,
}
LAMBDA = {
    1: 1.186569110415625453,
    2: 1.105925511114570315,
    3: 1.074217534148243616,
    5: 1.046503447714429145,
    10: 1.024079856209573343,
}
THETA_HALF = 0.448414206923646202
FREQ_RATIO_5_7 = 1.788813717119151804


class TestDensity:
    def test_classical_endpoints(self):
        assert density(1, 0.0) == pytest.approx(1 / math.log(2), abs=1e-15)
        assert density(1, 1.0 - 1e-15) == pytest.approx(1 / (2 * math.log(2)), abs=1e-12)

    def test_normalization_by_quadrature(self):
        for N in range(1, 21):
            total, err = integrate.quad(lambda x: density(N, x), 0, 1)
            assert err < 1e-12
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            density(1, 1.0)
        with pytest.raises(ValueError):
            density(1, -0.1)


class TestCdf:
    def test_endpoints(self):
        for N in (1, 4, 9):
            assert cdf(N, 0.0) == 0.0
            assert cdf(N, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_self_consistency_spot(self):
        t, N = 0.37, 3
        lhs = cdf(N, 1 + t)
        rhs = cdf(N, t) + cdf(N, N / (N + t))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_self_consistency_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            N = rng.randint(1, 10)
            t = rng.uniform(0, 10)
            assert cdf(N, 1 + t) == pytest.approx(cdf(N, t) + cdf(N, N / (N + t)), abs=1e-12)

    def test_preimage_interval_sum_recovers_cdf(self):
        # mass of (0, alpha) equals the summed masses of its branch preimages
        K = 100_000
        for N in (1, 3, 7):
            for alpha in (0.25, 0.5, 0.9):
                k = np.arange(N, K + 1, dtype=np.float64)
                terms = np.log1p(1.0 / k) - np.log1p(1.0 / (k + alpha))
                partial = float(terms.sum()) / math.log1p(1.0 / N)
                tail = math.log1p(alpha / (K + 1)) / math.log1p(1.0 / N)
                assert partial + tail == pytest.approx(cdf(N, alpha), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            cdf(2, -0.5)


class TestFrequency:
    def test_classical_digit_frequencies(self):
        assert frequency(1, 1) == pytest.approx(2 - math.log(3) / math.log(2), abs=1e-15)
        assert frequency(1, 2) == pytest.approx(0.169925001442312363, abs=1e-15)

    def test_sum_to_one_with_tail(self):
        K = 1_000_000
        for N in (1, 2, 10):
            total = sum(frequency(N, M) for M in range(N, 2000))
            tail = math.log1p(1.0 / 2000) / math.log1p(1.0 / N)
            assert total + tail == pytest.approx(1.0, abs=1e-12)

    def test_ratio_independent_of_index(self):
        values = [frequency(N, 5) / frequency(N, 7) for N in (1, 2, 3, 4, 5)]
        for v in values:
            assert v == pytest.approx(FREQ_RATIO_5_7, abs=1e-14)
            assert v == pytest.approx(values[0], abs=1e-14)

    def test_impossible_digit_rejected(self):
        with pytest.raises(ValueError):
            frequency(3, 2)

    @pytest.mark.parametrize("N", [10**160, 10**300])
    def test_digit_beyond_squared_float_range(self, N):
        # M*(M+2) exceeds the float range, though the frequency, about 1/N, does not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for M in (N, N + 1, N + 2, 7 * N):
                exact = mpmath.log1p(mpmath.mpf(1) / (M * (M + 2))) / mpmath.log1p(mpmath.mpf(1) / N)
                assert abs(frequency(N, M) - exact) <= 0.5 * math.ulp(float(exact)), M

    def test_small_index_with_digit_beyond_squared_float_range(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for N, M in ((1, 10**155), (3, 10**160), (10**15, 10**160), (2**53 + 1, 10**200)):
                exact = mpmath.log1p(mpmath.mpf(1) / (M * (M + 2))) / mpmath.log1p(mpmath.mpf(1) / N)
                assert abs(frequency(N, M) - exact) <= 2 * math.ulp(float(exact)), (N, M)


class TestKhinchinMean:
    def test_frozen_references(self):
        for N, expected in K_GEOMETRIC.items():
            assert khinchin(N) == pytest.approx(expected, abs=1e-12)

    def test_brute_force_sandwich(self):
        # the raw defining series, partial sums plus the crude integral tail
        # bound (log K + 1)/K, must bracket the reported log-value
        for N in (1, 2, 5):
            K = 2_000_000
            k = np.arange(N, K + 1, dtype=np.float64)
            partial = float(np.sum(np.log(k) * np.log1p(1.0 / (k * (k + 2)))))
            tail_bound = (math.log(K) + 1.0) / K
            log_value = math.log(khinchin(N)) * math.log1p(1.0 / N)
            assert partial < log_value <= partial + tail_bound

    def test_scales_like_e_times_n(self):
        assert khinchin(1000) / 1000 == pytest.approx(math.e, rel=2e-3)

    @pytest.mark.parametrize("N", [1, 2, 3, 2048, 10**6, 10**15, 10**300])
    def test_own_series_gives_the_reports_value(self, N):
        # khinchin sums its single-index series itself; a report reads the same float
        assert khinchin(N).hex() == ConstantsReport.compute(N, ()).khinchin.hex()

    def test_overflow_is_named(self):
        N = 2**1024 - 2**971
        with pytest.raises(OverflowError) as error:
            khinchin(N)
        assert str(error.value) == f"khinchin at N = {N} is beyond the float range"


class TestHolderMean:
    def test_frozen_references(self):
        assert holder_mean(1, -1.0) == pytest.approx(K_HARMONIC_1, abs=1e-12)
        for (N, r), expected in K_HOLDER.items():
            assert holder_mean(N, r) == pytest.approx(expected, rel=1e-12)

    def test_divergent_orders_signal_infinity(self):
        for N in (1, 2, 5, 2**1024 - 2**971):
            for r in (1.0, 1.5, 2.0):
                assert math.isinf(holder_mean(N, r))
        # there khinchin, about e N, overflows, but a divergent mean does not need it
        with pytest.raises(OverflowError, match="khinchin"):
            holder_mean(2**1024 - 2**971, 0.0)

    def test_non_finite_orders_below_one_rejected(self):
        for r in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                holder_mean(2, r)
            with pytest.raises(ValueError):
                ConstantsReport.compute(2, rs=(r,))
        assert math.isinf(holder_mean(2, math.inf))

    def test_order_zero_dispatches_to_geometric(self):
        assert holder_mean(3, 0.0) == khinchin(3)

    def test_orders_near_zero_against_mpmath(self):
        # S**(1/r) multiplies the rounding of S by 1/|r|: about 5e-9 at |r| = 1e-6
        mpmath = pytest.importorskip("mpmath")
        for N in (1, 50):
            for r in (-1e-4, 1e-4, -1e-6, 1e-6):
                with mpmath.workdps(30):
                    exact = _mpmath_digit_mean(mpmath, N, r) ** (1 / mpmath.mpf(r))
                    assert abs(holder_mean(N, r) - exact) <= 1e-8 * exact, (N, r)

    def test_orders_too_close_to_zero_rejected(self):
        for r in (1e-7, -1e-7, 1e-16, -1e-20, 1e-320, 5e-324):
            with pytest.raises(ValueError, match="r = 0 is the geometric mean"):
                holder_mean(2, r)
            with pytest.raises(ValueError, match="out of reach"):
                ConstantsReport.compute(2, rs=(-1.0, r))

    def test_continuity_at_order_zero(self):
        for N in (1, 4):
            below = holder_mean(N, -1e-4)
            above = holder_mean(N, 1e-4)
            assert below == pytest.approx(khinchin(N), abs=1e-4 * khinchin(N))
            assert above == pytest.approx(khinchin(N), abs=1e-4 * khinchin(N))

    def test_brute_force_sandwich(self):
        # partial sums of k**r * log(1+1/(k(k+2))) bracket the series with the
        # crude tail bound K**(r-1)/(1-r)
        N, r = 2, 0.5
        K = 2_000_000
        k = np.arange(N, K + 1, dtype=np.float64)
        partial = float(np.sum(k**r * np.log1p(1.0 / (k * (k + 2)))))
        tail_bound = K ** (r - 1.0) / (1.0 - r)
        series = holder_mean(N, r) ** r * math.log1p(1.0 / N)
        assert partial < series <= partial + tail_bound

    def test_large_index_limit_laws(self):
        assert holder_mean(100, -1.0) / 100 == pytest.approx(2.0, rel=0.01)
        assert holder_mean(100, 0.5) / 100 == pytest.approx(4.0, rel=0.02)

    def test_underflowing_weights_rejected(self):
        # the series sum, about N**(r-1)/(1-r), is below the smallest normal double:
        # it underflows, or is subnormal and loses digits, as at (10**77, -3)
        for N, r in ((200, -1000.0), (3000, -100.0), (10**200, -1.0), (10**110, -2.0),
                     (10**77, -3.0)):
            with pytest.raises(ValueError):
                holder_mean(N, r)
            with pytest.raises(ValueError):
                ConstantsReport.compute(N, rs=(r,))
        # 1000**-100 is still normal; reference from a 50-digit direct sum
        assert holder_mean(1000, -100.0) == pytest.approx(1046.723884297902406, rel=4e-16)


class TestDilog:
    def test_endpoint_values(self):
        assert dilog_theta(0.0) == 0.0
        assert dilog_theta(1.0) == pytest.approx(math.pi**2 / 12, abs=1e-15)

    def test_half_against_quadrature(self):
        numeric, err = integrate.quad(lambda t: math.log1p(t) / t, 0, 0.5)
        assert err < 1e-12
        assert dilog_theta(0.5) == pytest.approx(numeric, abs=1e-10)
        assert dilog_theta(0.5) == pytest.approx(THETA_HALF, abs=1e-14)

    def test_against_spence(self):
        # Theta(x) = -Li2(-x) and scipy's spence(z) is Li2(1-z)
        for x in (0.1, 0.3, 0.5, 0.8, 0.97):
            assert dilog_theta(x) == pytest.approx(-float(spence(1.0 + x)), abs=1e-13)

    def test_against_mpmath_polylog(self):
        # Landen's identity gives a positive series in x/(1+x) <= 1/2, even at x = 1
        mpmath = pytest.importorskip("mpmath")
        xs = [1.0 / N for N in range(1, 3001)] + [0.5, 0.97, 0.999999, 1.0]
        with mpmath.workdps(30):
            for x in xs:
                exact = -mpmath.polylog(2, -mpmath.mpf(x))
                assert abs(dilog_theta(x) - exact) <= 5e-16 * exact, x

    def test_domain(self):
        with pytest.raises(ValueError):
            dilog_theta(1.5)
        with pytest.raises(ValueError):
            dilog_theta(-0.2)


class TestGrowthConstants:
    def test_frozen_lambda_values(self):
        for N, expected in LAMBDA.items():
            assert levy_lambda(N) == pytest.approx(expected, abs=1e-14)

    def test_classical_anchor(self):
        assert levy_lambda(1) == pytest.approx(math.pi**2 / (12 * math.log(2)), abs=1e-15)

    def test_strictly_decreasing(self):
        values = [levy_lambda(N) for N in range(1, 1001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_limit_one(self):
        assert levy_lambda(10**6) == pytest.approx(1.0, abs=1e-6)

    def test_lyapunov_strictly_increasing(self):
        values = [lyapunov_const(N) for N in range(1, 1001)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_linked_formulas(self):
        for N in (1, 2, 7, 40):
            lam = levy_lambda(N)
            assert lyapunov_const(N) == 2 * lam + math.log(N)
            assert levy_L(N) == lam + math.log(N)
            assert loch(N) == math.log(10) / lyapunov_const(N)

    def test_classical_loch_constant(self):
        assert loch(1) == pytest.approx(0.970270114392033926, abs=1e-14)


class TestAsymptotic:
    def test_matches_series_at_moderate_index(self):
        # true gap is ~5.9e-9 at N=50 and ~6e-13 at N=500
        assert abs(lambda_asymptotic(50) - levy_lambda(50)) < 1e-8
        assert abs(lambda_asymptotic(500) - levy_lambda(500)) < 1e-12

    def test_poor_at_small_index_but_same_ballpark(self):
        assert lambda_asymptotic(1) == pytest.approx(levy_lambda(1), abs=0.05)

    def test_limit(self):
        assert lambda_asymptotic(10**9) == pytest.approx(1.0, abs=1e-9)


class TestLowerBounds:
    def test_classical_values(self):
        lyap, denom = lower_bounds(1)
        phi = (1 + math.sqrt(5)) / 2
        assert lyap == pytest.approx(2 * math.log(phi), abs=1e-15)
        assert denom == pytest.approx(math.log(phi), abs=1e-15)

    def test_formula_at_four(self):
        lyap, denom = lower_bounds(4)
        assert lyap == pytest.approx(2 * math.log((math.sqrt(8) + 2) / 2), abs=1e-15)
        assert denom == pytest.approx(math.log((math.sqrt(32) + 4) / 2), abs=1e-15)

    def test_finite_where_n_squared_is_not_a_float(self):
        for N in (10**155, 10**300):
            for bound in lower_bounds(N):
                assert bound == pytest.approx(math.log(N), rel=1e-15)

    def test_algebraic_identity(self):
        for N in range(1, 101):
            lyap, denom = lower_bounds(N)
            assert abs(2 * denom - math.log(N) - lyap) < 1e-12


class TestConstantsReport:
    def test_internal_consistency(self):
        report = ConstantsReport.compute(2, rs=(-1.0, 0.5, 1.0))
        assert report.lyapunov == 2 * report.levy_lambda + math.log(2)
        assert report.levy_L == report.levy_lambda + math.log(2)
        assert report.loch == math.log(10) / report.lyapunov
        assert report.khinchin == pytest.approx(K_GEOMETRIC[2], abs=1e-12)

    def test_divergent_entries_serialized_as_text(self):
        record = ConstantsReport.compute(1, rs=(0.5, 1.0)).to_record()
        assert record["holder_mean[r=1]"] == "divergent"
        assert isinstance(record["holder_mean[r=0.5]"], float)

    def test_diagnostics_present(self):
        # each series is cut where its tail bound is below 2**-60 of its first
        # summand, both divided by log(1 + 1/N)
        N = 3
        report = ConstantsReport.compute(N, rs=(-1.0,))
        scale = math.log1p(1 / N)
        terms, bound = report.diagnostics["khinchin"]
        assert terms > 0
        assert 0 <= bound <= 2.0**-60 * math.log1p(1 / N) * math.log1p(1 / (N + 1)) / scale
        terms, bound = report.diagnostics["holder[r=-1]"]
        assert terms > 0
        assert 0 <= bound <= 2.0**-60 * math.log1p(1 / (N * (N + 2))) / N / scale

    def test_record_keys_stable(self):
        record = ConstantsReport.compute(1).to_record()
        for key in (
            "N", "khinchin", "levy_lambda", "levy_L", "lyapunov", "loch",
            "lower_bound_lyapunov", "lower_bound_denominator",
        ):
            assert key in record

    def test_record_is_the_flattened_fields(self):
        # the record, key order included, against a flattening of the report's fields
        rs = (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 2.0)
        reports = list(ConstantsReport.compute_many(range(1, 60), rs=rs))
        assert [report.N for report in reports] == list(range(1, 60))
        for report in reports:
            record = {key: getattr(report, key) for key in (
                "N", "khinchin", "levy_lambda", "levy_L", "lyapunov", "loch",
                "lower_bound_lyapunov", "lower_bound_denominator")}
            assert report.order_labels == ("-1", "-0.5", "0", "0.5", "0.9", "1", "2")
            for label, (r, value) in zip(report.order_labels, report.holder_means):
                assert float(label) == r
                record[f"holder_mean[r={label}]"] = "divergent" if math.isinf(value) else value
            assert list(report.diagnostics) == [
                "khinchin", "holder[r=-1]", "holder[r=-0.5]", "holder[r=0.5]", "holder[r=0.9]"]
            for name, (terms, bound) in report.diagnostics.items():
                record[f"{name}_terms"] = terms
                record[f"{name}_tail_bound"] = bound
            assert list(report.to_record().items()) == list(record.items())
            assert report.to_record() is not report.to_record()

    def test_fields_hold_their_formulas(self):
        # indices over 2048 apart: each is its own anchor, as holder_mean sums it
        for report in ConstantsReport.compute_many([1, 3000, 10**6], rs=(0.0, 0.5, 1.0)):
            N = report.N
            assert report.levy_lambda == levy_lambda(N)
            assert report.levy_L == levy_L(N)
            assert (report.lower_bound_lyapunov, report.lower_bound_denominator) == (
                lower_bounds(N))
            assert report.holder_means == ((0.0, report.khinchin),
                                           (0.5, holder_mean(N, 0.5)), (1.0, math.inf))

    def test_equality_reads_orders_and_values(self):
        assert ConstantsReport.compute(2) == ConstantsReport.compute(2)
        assert ConstantsReport.compute(2) != ConstantsReport.compute(3)
        assert ConstantsReport.compute(2, rs=(0.5, -1.0)) != ConstantsReport.compute(2)
        assert ConstantsReport.compute(2, rs=(0.0,)) != ConstantsReport.compute(2, rs=(-0.0,))
        assert ConstantsReport.compute(2) != object()

    def test_repr_shows_the_record(self):
        report = ConstantsReport.compute(2, rs=(0.5,))
        assert repr(report) == (f"ConstantsReport(_record={report.to_record()!r}, "
                                "_orders=((0.5, '0.5'),))")


@functools.lru_cache(maxsize=None)  # the oracle tests share many (N, r) pairs
def _mpmath_digit_mean(mpmath, N, r):
    """E[w(digit)] at 30 digits, w = log k (r None) or k**r: direct sum to
    K0 = N + 3000, then the convergent expansion
    log(1 + 1/(k(k+2))) = sum_n (-1)**(n+1) (2 - 2**n)/n k**-n summed with
    Hurwitz zeta values (its s-derivative for the log weight) to 1e-40 of
    the direct sum.  The long head leaves less to the tail, whose tiny zeta
    values mpmath gives less accurately at strongly negative r: against an
    80-digit evaluation with K0 = N + 6000 it is within 1.2e-19 at N = 1000
    and 3000 for r = -20, -3 and the log weight."""
    mpf, K0 = mpmath.mpf, N + 3000
    weight = mpmath.log if r is None else (lambda k: mpf(k) ** r)
    head = mpmath.fsum(weight(k) * mpmath.log1p(mpf(1) / (k * (k + 2))) for k in range(N, K0 + 1))
    tail, n = mpf(0), 2
    while True:
        z = -mpmath.zeta(n, K0 + 1, 1) if r is None else mpmath.zeta(n - mpf(r), K0 + 1)
        term = (-1) ** (n + 1) * (2 - mpf(2) ** n) / n * z
        tail += term
        if abs(term) < mpf(10) ** -40 * head:
            return (head + tail) / mpmath.log1p(mpf(1) / N)
        n += 1


ROUNDING_SLACK = 8 * np.finfo(float).eps  # relative, for summation and final powers


class TestMpmathOracle:
    @pytest.mark.parametrize("N", [1, 2, 3, 10, 100])
    def test_tail_bounds_cover_true_error(self, N):
        mpmath = pytest.importorskip("mpmath")
        rs = (-1.0, 0.5, 0.9)
        record = ConstantsReport.compute(N, rs=rs).to_record()
        with mpmath.workdps(30):
            exact = _mpmath_digit_mean(mpmath, N, None)
            error = abs(mpmath.log(khinchin(N)) - exact)
            assert error <= record["khinchin_tail_bound"] + ROUNDING_SLACK * abs(exact)
            for r in rs:
                exact = _mpmath_digit_mean(mpmath, N, r)
                error = abs(mpmath.mpf(holder_mean(N, r)) ** r - exact)
                assert error <= record[f"holder[r={r:g}]_tail_bound"] + ROUNDING_SLACK * exact
            # the dilogarithm is held to its former bound, one 1e-15 term
            scale = mpmath.log1p(mpmath.mpf(1) / N)
            exact = -mpmath.polylog(2, -mpmath.mpf(1) / N) / scale
            error = abs(levy_lambda(N) - exact)
            assert error <= 1e-15 / scale + ROUNDING_SLACK * exact


class TestSingleIndexAgainstMpmath:
    # one index per call is its own anchor: its cutoff comes from its own first summand
    CASES = [(N, r) for N in (2, 30, 70, 100, 128, 250, 1000) for r in (-1.0, -0.5, 0.5, 0.9)]

    @pytest.mark.parametrize("N, r", CASES + [(10, -20.0), (1000, -20.0)])
    def test_power_mean(self, N, r):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = _mpmath_digit_mean(mpmath, N, r) ** (1 / mpmath.mpf(r))
            assert abs(holder_mean(N, r) - exact) <= 1e-15 * exact


BATCH_RS = (-1.0, -0.5, 0.5, 0.9)


@pytest.fixture(scope="module")
def batch():
    """One request for N = 1..3000: every series is one suffix sum walked down."""
    return {report.N: report for report in
            ConstantsReport.compute_many(range(1, 3001), rs=BATCH_RS)}


class TestConstantsBatch:
    @pytest.mark.parametrize("N", [1, 2, 3, 10, 100, 999, 2000, 3000])
    def test_against_mpmath(self, batch, N):
        mpmath = pytest.importorskip("mpmath")
        report = batch[N]
        with mpmath.workdps(30):
            exact = _mpmath_digit_mean(mpmath, N, None)
            assert abs(mpmath.log(report.khinchin) - exact) <= 2e-15 * abs(exact)
            # every order, r = 0.9 included, to within a few units of double rounding
            for r, value in report.holder_means:
                exact = _mpmath_digit_mean(mpmath, N, r)
                assert abs(mpmath.mpf(value) ** r - exact) <= 4e-16 * exact, r

    def test_tail_bounds_meet_tol(self, batch):
        for report in batch.values():
            for terms, bound in report.diagnostics.values():
                assert terms > 0 and 0 <= bound <= 1e-12

    def test_request_order_and_duplicates_kept(self, capsys):
        assert main(["constants", "--n", "5,1,5", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)["results"]
        assert [record["N"] for record in records] == [5, 1, 5]
        assert records[0] == records[2]

    def test_summed_request_is_held_in_columns(self):
        # each of the five series keeps 24 bytes an index (a double, an int64 and
        # a double), 0.34 MiB here; per-index tuples would hold about 3 MiB
        tracemalloc.start()
        try:
            reports = ConstantsReport.compute_many(range(1, 3001), rs=BATCH_RS)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.5 * 2**20
        assert next(reports).N == 1

    @pytest.mark.parametrize("ns, rs, name, N", [
        ([7 * 10**307, 10**308], (), "khinchin", 7 * 10**307),
        ([10**308, 7 * 10**307], (), "khinchin", 10**308),
        ([10**308, 10**300, 7 * 10**307], (0.5,), "holder_mean[r=0.5]", 10**308),
        ([7 * 10**307, 10**308], (0.5,), "holder_mean[r=0.5]", 10**308),
    ])
    def test_first_failing_check_is_named(self, ns, rs, name, N):
        # the power means' root checks run first, in walk order (largest N first),
        # then the khinchin checks in request order
        with pytest.raises(OverflowError) as error:
            ConstantsReport.compute_many(ns, rs)
        assert str(error.value) == f"{name} at N = {N} is beyond the float range"

    def test_sparse_request_anchors_each_index(self):
        # N = 1 lies more than 2048 terms below 10**5, so it is anchored as if alone
        first, _ = ConstantsReport.compute_many([1, 10**5])
        assert first == ConstantsReport.compute(1)


def _loop_suffix_series(ns, offset, summand, tail):
    """The oracle of _suffix_series, bit for bit: one numpy evaluation and one
    Neumaier step per index, in Python floats, with no run split and no shared
    summand array; it yields what _suffix_series yields, in the same order."""
    *tail, (t_next, c_next) = tail
    total = comp = 0.0
    stop = math.inf
    for N in sorted(set(ns), reverse=True):
        first, scale = N + offset, math.log1p(1.0 / N)
        if stop - first > constants._CARRY_TERMS:
            K, limit = max(N + 32, 128), 2.0**-60 * float(summand(float(first)))
            while (omitted := c_next * _hurwitz_zeta(t_next, K + 1)) > limit:
                K *= 2
            total, comp, stop = sum(c * _hurwitz_zeta(t, K + 1) for t, c in tail), 0.0, K + 1
        k = float(first) + np.arange(stop - first, dtype=np.float64)
        segment = float(summand(k).sum())
        running = total + segment
        comp += (total - running) + segment if total >= segment else (segment - running) + total
        total, stop = running, first
        yield N, (total + comp) / scale, K - first + 1, omitted / scale


def _series_args(r):
    """(offset, summand, tail) of the geometric-mean series (r None) or the power mean."""
    if r is None:
        return (1, lambda k: np.log1p(1.0 / (k - 1)) * np.log1p(1.0 / k),
                [(s - 1, c) for s, c in constants._GEOMEAN_TAIL])
    return (0, lambda k: k**r * np.log1p(1.0 / k / (k + 2.0)),
            [((s - 1) - r, c) for s, c in constants._LOG1P_BRANCH_TAIL])


def _bits(sums):
    """The yielded (N, value, terms, bound) tuples as a list, floats in hex."""
    return [(N, value.hex(), terms, bound.hex()) for N, value, terms, bound in sums]


@st.composite
def _requests(draw):
    """Dense runs, steps straddling the carry limit, runs above 2**53 where
    float(first) + j rounds, and single indices; then some duplicates, shuffled."""
    base = draw(st.integers(1, 10**7))
    ns = draw(st.one_of(
        st.integers(1, 400).map(lambda n: list(range(base, base + n))),
        st.lists(st.sampled_from([1, 2, 2047, 2048, 2049]) | st.integers(1, 5000),
                 max_size=40).map(lambda steps: list(itertools.accumulate([base, *steps]))),
        st.lists(st.integers(2**53 - 40, 2**53 + 40), min_size=1, max_size=30),
        st.integers(1, 10**300).map(lambda N: [N]),
    ))
    ns += draw(st.lists(st.sampled_from(ns), max_size=4))
    return draw(st.permutations(ns))


class TestSuffixSeries:
    @settings(max_examples=150, deadline=None)
    @given(ns=_requests(), r=st.none() | st.sampled_from([-20.0, -1.0, -0.5, 0.5, 0.9])
           | st.floats(-3.0, 0.99), chunk=st.sampled_from([1, 3000, 1 << 13]))
    def test_matches_scalar_walk_bit_for_bit(self, ns, r, chunk):
        # the power mean's own precondition: its undivided sum is a normal double
        assume(r is None or all(float(N) ** (r - 1) >= sys.float_info.min for N in ns))
        args = _series_args(r)
        expected = _bits(_loop_suffix_series(ns, *args))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constants, "_CHUNK_TERMS", chunk)
            assert _bits(constants._suffix_series(ns, *args)) == expected

    @pytest.mark.parametrize("ns, r", [
        # dense runs where float(first) + j rounds; forming every k from the lowest
        # first instead moves the last bit of some sums at 2**60, r = -0.5
        (range(2**53 - 60, 2**53 + 60), None),
        (range(2**53 - 60, 2**53 + 60), -1.0),
        (range(2**60 - 60, 2**60 + 60), -0.5),
        # 12 indices 2048 apart: one anchor carried across more than _CHUNK_TERMS terms
        (range(1, 2048 * 12, 2048), None),
        (range(1, 2048 * 12, 2048), 0.5),
    ])
    def test_fixed_requests_match_scalar_walk(self, ns, r):
        args = _series_args(r)
        assert _bits(constants._suffix_series(ns, *args)) == _bits(_loop_suffix_series(ns, *args))

    def test_walk_yields_each_index_once_largest_first(self):
        # duplicates, an anchor (10**6 lies over _CARRY_TERMS above the rest) and a
        # run longer than _CHUNK_TERMS, shuffled: every N comes once, a table built
        # from the walk can lose no entry to a repeat
        ns = [10**6, *range(1, 3 * constants._CHUNK_TERMS, 1000), 5, 5, 10**6, 1]
        random.Random(0).shuffle(ns)
        walk = constants._suffix_series(ns, *_series_args(None))
        assert [N for N, *_ in walk] == sorted(set(ns), reverse=True)


class TestOrderLabels:
    def test_signed_zero_orders_keep_their_own_keys(self):
        for report in ConstantsReport.compute_many([1, 2], rs=(-0.0, 0.0, -1.0)):
            record = report.to_record()
            assert record["holder_mean[r=-0]"] == record["holder_mean[r=0]"] == report.khinchin
            assert [key for key in record if key.startswith("holder_mean")] == [
                "holder_mean[r=-0]", "holder_mean[r=0]", "holder_mean[r=-1]"]

    def test_labels_worked_out_once_per_order(self, monkeypatch):
        label, calls = constants._order_label, []

        def counting(r):
            calls.append(r)
            return label(r)

        monkeypatch.setattr(constants, "_order_label", counting)
        rs = (-1.0, 0.0, 0.5, 2.0)
        records = [report.to_record()
                   for report in ConstantsReport.compute_many(range(1, 60), rs=rs)]
        assert len(records) == 59 and "holder[r=0.5]_terms" in records[-1]
        # once for the report keys, once more inside each summed series
        assert len(calls) == len(rs) + 2


class TestHurwitzZeta:
    """The local Hurwitz zeta over the (s, a) pairs the digit-mean series use:
    s = 2..12 (geometric mean) and 2..9 - r (power means), a = K + 1 for the
    doubling cutoffs K >= 128 and the index-driven cutoffs K = N + 32, and
    a few starts next to those.  The order is passed as t = s - 1, formed as
    (s0 - 1) - r, and checked against mpmath at s = 1 + t exactly."""

    ORDERS = (-1.0, -0.5, 0.5, 0.9, -160.0, -90.0, -50.0, -1e-9, 0.999999)
    STARTS = [2**e + 1 for e in range(6, 25)] + [
        N + d for N in (100, 1000, 3000, 10**6) for d in (1, 33)
    ]

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        ts = [float(s - 1) for s in range(2, 13)] + [(s - 1) - r for r in self.ORDERS
                                                     for s in range(2, 10)]
        for t in ts:
            s = 1.0 + t
            for a in self.STARTS:
                got = _hurwitz_zeta(t, a)
                assert type(got) is float
                digits = s * math.log10(a)  # zeta(s, a) < 10**-digits * (1 + a/(s-1))
                if digits > 340:
                    assert got == 0.0, (s, a)
                    continue
                # mpmath loses relative accuracy on tiny values unless the
                # working precision also covers their exponent
                with mpmath.workdps(30 + math.ceil(digits)):
                    exact = mpmath.zeta(1 + mpmath.mpf(t), a)
                    assert abs(mpmath.mpf(got) - exact) <= 4 * math.ulp(float(exact)), (t, a)

    def test_underflow_returns_zero(self):
        # the power-mean orders s = 2..9 - r at r = -1000
        for s in range(2, 10):
            for a in self.STARTS:
                assert _hurwitz_zeta(s - 1 + 1000.0, a) == 0.0

