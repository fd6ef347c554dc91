"""Convergent recursion, exact integer identities, and approximation rates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncfrac import (
    Convergent,
    ConvergentTrace,
    SampleConfig,
    approximation_rate,
    convergent_sequence,
    determinant_check,
    error_bounds_check,
    evaluate,
    expand,
    fixed_point,
    lower_bounds,
    lyapunov_const,
    sample_rational,
)
from ncfrac.dynamics import _walk

# digit sequences admissible for the index drawn alongside them
admissible_cases = st.integers(min_value=1, max_value=10).flatmap(
    lambda N: st.tuples(
        st.just(N),
        st.lists(st.integers(min_value=N, max_value=N + 40), min_size=1, max_size=25),
    )
)


class TestRecursion:
    def test_two_digit_example(self):
        trace = convergent_sequence([1, 2], 1)
        assert [(c.A, c.B) for c in trace.convergents] == [(0, 1), (1, 1), (2, 3)]
        assert trace.ratio(2) == Fraction(2, 3)
        assert trace.ratio(0) == 0

    def test_unreduced_convention(self):
        trace = convergent_sequence([4], 2)
        assert (trace.final.A, trace.final.B) == (2, 4)  # stays 2/4, not 1/2
        assert trace.ratio(1) == Fraction(1, 2)

    def test_seed_consistency_with_determinant(self):
        # A_0*B_1 - A_1*B_0 = -N at n = 1, for any admissible first digit
        for N, a1 in ((1, 1), (3, 7), (10, 10)):
            trace = convergent_sequence([a1], N)
            c0, c1 = trace.convergents
            assert c0.A * c1.B - c1.A * c0.B == -N

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            convergent_sequence([2, 1], 2)
        with pytest.raises(ValueError):
            convergent_sequence([], 1)


class TestDeterminant:
    def test_known_sequences(self):
        assert determinant_check(convergent_sequence([1, 2, 3], 1))
        assert determinant_check(convergent_sequence([5, 7, 9], 3))

    def test_corrupted_trace_detected(self):
        trace = convergent_sequence([2, 3, 4], 2)
        doctored = list(trace.convergents)
        bad = doctored[2]
        doctored[2] = Convergent(bad.n, bad.A, bad.B + 1)
        corrupted = ConvergentTrace(N=2, coeffs=trace.coeffs, convergents=tuple(doctored))
        assert not determinant_check(corrupted)


@settings(max_examples=200, deadline=None)
@given(admissible_cases)
def test_determinant_identity_random(case):
    N, coeffs = case
    assert determinant_check(convergent_sequence(coeffs, N))


@settings(max_examples=200, deadline=None)
@given(admissible_cases)
def test_growth_bound_random(case):
    N, coeffs = case
    trace = convergent_sequence(coeffs, N)
    for conv in trace.convergents:
        assert conv.B >= N**conv.n


@settings(max_examples=100, deadline=None)
@given(admissible_cases)
def test_reduced_ratio_matches_evaluate(case):
    N, coeffs = case
    trace = convergent_sequence(coeffs, N)
    for n in range(1, trace.depth + 1):
        assert trace.ratio(n) == evaluate(coeffs[:n], N)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=2**200),
    st.integers(min_value=1, max_value=2**200),
    st.integers(min_value=1, max_value=300),
)
def test_kernel_numerators_pair_with_denominators(N, q, p, depth):
    # B_n*p_{n-1} + B_{n-1}*p_n = N**n * q on every prefix of the unreduced orbit
    x = Fraction(p % q or 1, q)
    steps, p_n, p_prev = [], x.numerator, x.denominator
    while p_n and len(steps) < depth:  # the list kernel stepped one digit at a time
        (a,), p_n, p_prev = _walk(p_n, p_prev, N, 1)
        steps.append((a, p_n, p_prev))
    trace = convergent_sequence([a for a, _, _ in steps], N)
    B = [conv.B for conv in trace.convergents]
    for n, (_, p_n, p_prev) in enumerate(steps, start=1):
        assert B[n] * p_prev + B[n - 1] * p_n == N**n * x.denominator


class TestErrorSandwich:
    def test_random_rationals(self):
        rng = random.Random(99)
        for _ in range(40):
            N = rng.choice((1, 2, 3, 4, 5))
            q = rng.randint(10**6, 10**12)
            x = Fraction(rng.randint(1, q - 1), q)
            trace = convergent_sequence(expand(x, N).coeffs, N)
            assert error_bounds_check(trace, x)

    def test_golden_point_approximant(self):
        z = fixed_point(1, 1, digits=80)
        trace = convergent_sequence(expand(z, 1, max_terms=50).coeffs, 1)
        assert error_bounds_check(trace, z)

    def test_terminated_boundary_skips_lower(self):
        # at the final depth x equals A_n/B_n exactly; only the upper bound applies
        x = Fraction(2, 3)
        trace = convergent_sequence(expand(x, 1).coeffs, 1)
        assert error_bounds_check(trace, x)

    def test_tampered_denominator_detected(self):
        # B_1 too large breaks the upper bound at n = 1, B_2 too small the lower one
        x = Fraction(5, 13)
        trace = convergent_sequence(expand(x, 1).coeffs, 1)
        for n, B in ((1, 50), (2, 1)):
            doctored = list(trace.convergents)
            doctored[n] = Convergent(n, doctored[n].A, B)
            assert not error_bounds_check(
                ConvergentTrace(N=1, coeffs=trace.coeffs, convergents=tuple(doctored)), x)

    def test_rejects_mismatched_point(self):
        trace = convergent_sequence(expand(Fraction(2, 3), 1).coeffs, 1)
        with pytest.raises(ValueError):
            error_bounds_check(trace, Fraction(3, 7))


def _fraction_error_bounds_check(trace, x):
    # the sandwich as first written, in Fractions: the reference for the integer form
    x = Fraction(x)
    N = trace.N
    p, q = x.numerator, x.denominator
    npow = N
    for n in range(1, trace.depth + 1):
        conv = trace.convergents[n]
        residual = Fraction(abs(conv.B * p - conv.A * q), q)
        if residual > Fraction(npow, conv.B):
            return False
        if n < trace.depth:
            nxt = trace.convergents[n + 1]
            if not Fraction(npow * N, 4 * nxt.B) < residual:
                return False
        npow *= N
    return True


# a convergent's A or B replaced by 0, a negative value, +-1, a random value or
# a neighbour of its own; None leaves the trace genuine
_tampering = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=30), st.sampled_from("AB"),
              st.one_of(st.sampled_from([0, 1, -1]),
                        st.integers(max_value=-1),
                        st.integers(min_value=-2**80, max_value=2**80),
                        st.sampled_from(["+1", "-1"]))),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=2**64),
       st.integers(min_value=1, max_value=2**64), st.integers(min_value=1, max_value=30),
       _tampering)
@example(1, 13, 5, 30, (1, "B", 0))
@example(1, 13, 5, 30, (1, "B", -1))
@example(1, 13, 5, 30, (2, "B", 0))
@example(1, 3, 2, 30, (2, "A", "+1"))
def test_error_bounds_match_the_fraction_form(N, q, p, max_terms, tampering):
    # the integer statement agrees with the Fraction one on genuine traces and
    # on tampered ones, where the Fraction form's division by B = 0 counts as False
    x = Fraction(p % q or 1, q)
    trace = convergent_sequence(expand(x, N, max_terms=max_terms).coeffs, N)
    if tampering is not None:
        n, field, value = tampering
        n %= trace.depth + 1
        conv = trace.convergents[n]
        if isinstance(value, str):
            value = getattr(conv, field) + int(value)
        doctored = list(trace.convergents)
        doctored[n] = Convergent(n, **{"A": conv.A, "B": conv.B, field: value})
        trace = ConvergentTrace(N=N, coeffs=trace.coeffs, convergents=tuple(doctored))
    try:
        expected = _fraction_error_bounds_check(trace, x)
    except ZeroDivisionError:
        expected = False
    assert error_bounds_check(trace, x) == expected


class TestApproximationRate:
    def test_constant_digit_orbit_rate(self):
        # non-generic orbit: rate tends to the fixed-point Lyapunov exponent
        # 2*log((sqrt(p^2+4N)+p)/2) - log(N), which for N = p = 1 is 2*log(phi)
        z = fixed_point(1, 1, digits=500)
        rate = approximation_rate(z, 1, 300)
        target = 2 * math.log((math.sqrt(5) + 1) / 2)
        assert rate == pytest.approx(target, abs=5e-3)

    def test_matches_fixed_point_formula_other_index(self):
        N, p = 2, 3
        z = fixed_point(N, p, digits=400)
        rate = approximation_rate(z, N, 150)
        target = 2 * math.log((math.sqrt(p * p + 4 * N) + p) / 2) - math.log(N)
        assert rate == pytest.approx(target, abs=2e-2)

    def test_generic_rate_near_lyapunov(self):
        # Monte Carlo oracle: generic points approximate at the a.e. Lyapunov rate
        cfg = SampleConfig(N=1, trials=20, denominator_bits=1024, seed=17)
        rates = [approximation_rate(sample_rational(cfg, t), 1, 400) for t in range(20)]
        mean_rate = sum(rates) / len(rates)
        assert mean_rate == pytest.approx(lyapunov_const(1), rel=0.02)

    def test_error_beyond_termination(self):
        with pytest.raises(ValueError):
            approximation_rate(Fraction(2, 3), 1, 5)

    def test_rejects_depth_below_one(self):
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            approximation_rate(Fraction(2, 3), 1, 0)


class TestDenominatorRateLowerBound:
    def test_constant_digit_trace_approaches_bound(self):
        for N in (1, 2, 3):
            _, bound = lower_bounds(N)
            trace = convergent_sequence([N] * 200, N)
            rate_50 = math.log(trace.convergents[50].B) / 50
            rate_200 = math.log(trace.convergents[200].B) / 200
            assert abs(rate_200 - bound) < abs(rate_50 - bound)
            assert rate_200 >= bound - 0.01

    def test_random_traces_respect_bound_at_depth(self):
        rng = random.Random(5)
        for N in (1, 2, 5):
            _, bound = lower_bounds(N)
            for _ in range(10):
                q = rng.randint(10**15, 10**18)
                x = Fraction(rng.randint(1, q - 1), q)
                trace = convergent_sequence(expand(x, N).coeffs, N)
                rate = math.log(trace.final.B) / trace.depth
                assert rate >= bound - 0.01
