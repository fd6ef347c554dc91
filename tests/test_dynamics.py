"""Exact map dynamics: frozen examples, domain errors, and algebraic properties."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncfrac import (
    Expansion,
    convergent_sequence,
    digit,
    evaluate,
    expand,
    fixed_point,
    frequency,
    gauss_map,
    orbit,
)
from ncfrac import dynamics
from ncfrac.dynamics import DEFAULT_MAX_TERMS, _walk

# map index and a random rational in [0, 1)
unit_fractions = st.tuples(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
).map(lambda t: (t[0], Fraction(t[2] % t[1], t[1])))

# the same with denominators up to 2**256, whose orbits run to a few hundred steps
deep_fractions = st.tuples(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=2**256),
    st.integers(min_value=0, max_value=2**256),
).map(lambda t: (t[0], Fraction(t[2] % t[1], t[1])))


def kernel_steps(x, N, max_terms):
    """(digit, p, q) per step, from the list kernel stepped one digit at a time."""
    p, q, out = x.numerator, x.denominator, []
    while p and len(out) < max_terms:
        (a,), p, q = _walk(p, q, N, 1)
        out.append((a, p, q))
    return out


def plain_walk(p, q, N, max_terms):
    """The kernel's one-digit loop, the reference for its batches."""
    digits = []
    for _ in range(max_terms):
        if not p:
            break
        a, r = divmod(N * q, p)
        digits.append(a)
        p, q = r, p
    return digits, p, q


def fibonacci_pair(bits):
    """Consecutive Fibonacci numbers (F_n, F_n+1) with F_n+1 of the given bit length."""
    p, q = 1, 1
    while q.bit_length() < bits:
        p, q = q, p + q
    return p, q


def scaled_pair(N, digits, shift):
    """(p << shift, q << shift) for the p/q whose expansion is exactly `digits`,
    each >= N and the last > N, so that the walk ends on 0 after the last."""
    x = Fraction(0)
    for a in reversed(digits):
        x = N / (a + x)
    return x.numerator << shift, x.denominator << shift


@st.composite
def big_orbits(draw):
    """(p, q, N): q of 64 to 9000 bits, on both sides of every batch floor, and
    p random, next to the fixed point [N, N, ...] (long runs of digit N), as a
    Fibonacci pair on it, or scaled: a short expansion that ends at or one digit
    before the end of the first or second batch, its p and q shifted past the
    batch floor; N up to 2**40, past the last batched index."""
    N = draw(st.one_of(st.integers(min_value=1, max_value=12),
                       st.integers(min_value=1, max_value=2**40)))
    bits = draw(st.integers(min_value=64, max_value=9000))
    kind = draw(st.sampled_from(["random", "fixed point", "fibonacci", "scaled"]))
    if kind == "fibonacci":
        return (*fibonacci_pair(bits), N)
    if kind == "scaled":
        k = dynamics._batch_length(N)
        length = draw(st.sampled_from([k - 1, k, 2 * k - 1, 2 * k]))
        digits = draw(st.lists(st.integers(min_value=N, max_value=N + 100),
                               min_size=length - 1, max_size=length - 1))
        last = draw(st.integers(min_value=N + 1, max_value=N + 100))
        return (*scaled_pair(N, [*digits, last], 1024 + 320 * N.bit_length() + bits), N)
    q = draw(st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1))
    if kind == "random":
        return draw(st.integers(min_value=1, max_value=q - 1)), q, N
    return (math.isqrt((N * N + 4 * N) * q * q) - N * q) // 2, q, N


def reference_walk(x, N, max_terms):
    """(digit, image) pairs of the first max_terms steps, on reduced Fractions."""
    out = []
    while x != 0 and len(out) < max_terms:
        a = math.floor(N / x)
        x = N / x - a
        out.append((a, x))
    return out


class TestGaussMap:
    def test_zero_maps_to_zero(self):
        assert gauss_map(0, 5) == 0

    def test_hand_computed_values(self):
        assert gauss_map(Fraction(2, 3), 1) == Fraction(1, 2)  # 3/2 -> 1/2
        assert gauss_map(Fraction(1, 2), 2) == 0  # 4 -> 0

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            gauss_map(Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            gauss_map(Fraction(-1, 2), 1)
        with pytest.raises(ValueError):
            gauss_map(1, 1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            gauss_map(0.5, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            gauss_map(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            gauss_map(Fraction(1, 2), -3)
        with pytest.raises(ValueError, match="map index must be a positive integer, got 2.5"):
            gauss_map(Fraction(1, 2), 2.5)


class TestDigit:
    def test_hand_computed_values(self):
        assert digit(Fraction(2, 3), 1) == 1  # floor(3/2)
        assert digit(Fraction(1, 2), 2) == 4

    def test_golden_point_digit(self):
        z = fixed_point(1, 1, digits=60)
        assert digit(z, 1) == 1

    def test_digit_at_least_n(self):
        for N in (1, 2, 7):
            for q in range(2, 40):
                for p in range(1, q):
                    assert digit(Fraction(p, q), N) >= N

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            digit(0, 3)


class TestExpand:
    def test_examples(self):
        assert expand(Fraction(2, 3), 1, 10).coeffs == (1, 2)
        assert expand(Fraction(2, 3), 1, 10).terminated
        assert expand(Fraction(1, 2), 2, 10).coeffs == (4,)
        assert expand(0, 3, 10) == Expansion(N=3, coeffs=(), terminated=True)

    def test_truncation(self):
        exp = expand(Fraction(2, 3), 1, max_terms=1)
        assert exp.coeffs == (1,) and not exp.terminated

    def test_max_terms_zero(self):
        assert expand(Fraction(2, 3), 1, max_terms=0).coeffs == ()
        with pytest.raises(ValueError, match="max_terms must be >= 0, got -1"):
            expand(Fraction(2, 3), 1, max_terms=-1)

    def test_inadmissible_expansion_rejected(self):
        with pytest.raises(ValueError):
            Expansion(N=3, coeffs=(2,), terminated=True)


@pytest.mark.parametrize("N, coeffs, message", [
    (1, (2.5,), "digits must be integers, got 2.5"),
    (1, ("3",), "digits must be integers, got '3'"),
    (1, (0,), "inadmissible digit 0 < N = 1"),
    (2, (1,), "inadmissible digit 1 < N = 2"),
    (1, (True,), "digits must be integers, got True"),
], ids=["fraction", "string", "zero", "below-index", "bool"])
@pytest.mark.parametrize("build", [
    lambda coeffs, N: Expansion(N, coeffs, terminated=True),
    evaluate,
    convergent_sequence,
    lambda coeffs, N: frequency(N, coeffs[0]),
    lambda coeffs, N: fixed_point(N, coeffs[0]),
], ids=["Expansion", "evaluate", "convergent_sequence", "frequency", "fixed_point"])
def test_every_digit_reader_rejects_the_same_digits(build, N, coeffs, message):
    """Digits are integers >= N wherever they are read, with one message for each fault."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(coeffs, N)


class TestEvaluate:
    def test_inverse_of_expand_examples(self):
        assert evaluate([1, 2], 1) == Fraction(2, 3)
        assert evaluate([4], 2) == Fraction(1, 2)

    def test_boundary_single_digit(self):
        # [N] evaluates to N/N = 1: outside the map's domain but a valid fraction
        assert evaluate([3], 3) == 1

    def test_empty_is_zero(self):
        assert evaluate([], 5) == 0

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            evaluate([1], 2)
        with pytest.raises(ValueError):
            evaluate([2, 5, 1], 2)
        with pytest.raises(ValueError):
            evaluate([1.5, 2], 1)

    def test_accepts_integer_like_digits(self):
        import numpy as np

        assert evaluate(np.array([1, 2], dtype=np.int64), 1) == Fraction(2, 3)
        assert frequency(1, np.int64(2)) == frequency(1, 2)
        assert fixed_point(1, np.int64(2)) == fixed_point(1, 2)
        # M * (M + 2) would wrap in int64 here
        assert frequency(1, np.int64(2**40)) == frequency(1, 2**40)


class TestFixedPoint:
    def test_known_values(self):
        # (sqrt(5)-1)/2, sqrt(3)-1, sqrt(2)-1 to 12 decimals
        assert float(fixed_point(1, 1)) == pytest.approx(0.618033988749895, abs=1e-12)
        assert float(fixed_point(2, 2)) == pytest.approx(0.732050807568877, abs=1e-12)
        assert float(fixed_point(1, 2)) == pytest.approx(0.414213562373095, abs=1e-12)

    def test_is_fixed_to_requested_precision(self):
        for N, p in ((1, 1), (2, 3), (5, 9)):
            z = fixed_point(N, p, digits=40)
            assert abs(gauss_map(z, N) - z) < Fraction(1, 10**35)

    def test_precision_scales(self):
        z = fixed_point(1, 1, digits=120)
        err = abs(gauss_map(z, 1) - z)
        assert err < Fraction(1, 10**115)

    def test_rejects_digit_below_index(self):
        with pytest.raises(ValueError):
            fixed_point(3, 2)

    def test_rejects_precision_below_one(self):
        with pytest.raises(ValueError, match="digits must be >= 1, got 0"):
            fixed_point(1, 1, digits=0)


class TestOrbit:
    def test_reaches_zero_and_stops(self):
        points = list(orbit(Fraction(2, 3), 1))
        assert points == [Fraction(2, 3), Fraction(1, 2), Fraction(0)]

    def test_numerators_strictly_decrease(self):
        for N in (1, 2, 5):
            points = list(orbit(Fraction(355, 1130), N))
            numerators = [pt.numerator for pt in points]
            assert all(a > b for a, b in zip(numerators, numerators[1:]))
            assert numerators[-1] == 0


@settings(max_examples=150, deadline=None)
@given(unit_fractions)
def test_round_trip_exact(case):
    N, x = case
    exp = expand(x, N)
    assert exp.terminated
    assert evaluate(exp.coeffs, N) == x


@settings(max_examples=150, deadline=None)
@given(unit_fractions)
def test_digits_admissible(case):
    N, x = case
    assert all(a >= N for a in expand(x, N).coeffs)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=2**64),
       st.integers(min_value=0, max_value=2**64))
def test_last_digit_exceeds_index(N, q, p):
    # the last image before 0 is N/a_n < 1, so no terminated expansion ends in digit N
    exp = expand(Fraction(1 + p % (q - 1), q), N)
    assert exp.terminated
    assert exp.coeffs[-1] > N


@settings(max_examples=150, deadline=None)
@given(unit_fractions)
def test_shift_property(case):
    N, x = case
    shifted = expand(gauss_map(x, N), N)
    assert expand(x, N).coeffs[1:] == shifted.coeffs


@settings(max_examples=100, deadline=None)
@given(unit_fractions)
def test_digit_matches_first_coefficient(case):
    N, x = case
    coeffs = expand(x, N).coeffs
    if x != 0:
        assert coeffs[0] == digit(x, N)


@settings(max_examples=60, deadline=None)
@given(unit_fractions)
def test_prefix_approximation_improves(case):
    N, x = case
    coeffs = expand(x, N).coeffs
    errors = [abs(x - evaluate(coeffs[:n], N)) for n in range(1, len(coeffs) + 1)]
    assert all(a > b for a, b in zip(errors, errors[1:]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(unit_fractions, deep_fractions), st.integers(min_value=0, max_value=400))
def test_kernel_matches_reduced_reference(case, depth):
    # depth cuts deep orbits part way and leaves short ones whole
    N, x = case
    reference = reference_walk(x, N, depth)
    steps = kernel_steps(x, N, depth)
    assert [(a, Fraction(p, q)) for a, p, q in steps] == reference
    # one call walks the same orbit and ends on the same unreduced image
    digits, p, q = _walk(x.numerator, x.denominator, N, depth)
    assert digits == [a for a, _, _ in steps]
    assert (p, q) == (steps[-1][1:] if steps else (x.numerator, x.denominator))
    exp = expand(x, N, depth)
    assert exp.coeffs == tuple(a for a, _ in reference)
    final = reference[-1][1] if reference else x
    assert exp.terminated == (final == 0)


@settings(max_examples=150, deadline=None)
@given(big_orbits(), st.one_of(st.integers(min_value=0, max_value=400),
                               st.just(DEFAULT_MAX_TERMS)))
@example((*fibonacci_pair(9000), 2**23 - 1), DEFAULT_MAX_TERMS)  # the shortest batch, k = 5
# a batch that ends on p_k = 0: a kept batch must end with 0 < p_k < q_k
@example((*scaled_pair(1, [1] * 40 + [2], 1800), 1), DEFAULT_MAX_TERMS)
@example((*scaled_pair(3, [3] * 62 + [4], 1800), 3), DEFAULT_MAX_TERMS)
def test_batched_walk_matches_plain_loop(orbit_case, max_terms):
    # max_terms up to 400 ends most walks part way through a batch
    p, q, N = orbit_case
    assert _walk(p, q, N, max_terms) == plain_walk(p, q, N, max_terms)


def _spy_steps(monkeypatch):
    """Record (n, bit_length(p)) of every call of the plain loop."""
    calls, steps = [], dynamics._steps

    def spy(p, q, N, n, append):
        calls.append((n, p.bit_length()))
        return steps(p, q, N, n, append)

    monkeypatch.setattr(dynamics, "_steps", spy)
    return calls


def test_long_orbits_take_most_digits_in_kept_batches(monkeypatch):
    calls = _spy_steps(monkeypatch)
    rng = random.Random(5)
    for N in (1, 2, 7, 200):
        q = rng.getrandbits(8192) | 1 << 8191
        p = rng.randrange(1, q)
        calls.clear()
        walked = _walk(p, q, N, DEFAULT_MAX_TERMS)
        assert walked == plain_walk(p, q, N, DEFAULT_MAX_TERMS)
        # a batch steps a packed pair of 256 leading bits over 352 bits of fields;
        # each rejected one is followed by k // 2 steps at full width
        k = dynamics._batch_length(N)
        tried = sum(n == k and width <= 608 for n, width in calls)
        rejected = sum(n == k // 2 and width > 608 for n, width in calls)
        assert (tried - rejected) * k > len(walked[0]) / 2


@pytest.mark.parametrize("N", [1, 2, 7, 200])
def test_batch_across_an_unseen_digit_boundary_matches_plain_loop(N):
    # x_{j-1} = N/(a_j + x_j) lies within 2**-5000 of the digit boundary N/a_j,
    # far below what the leading bits resolve, at and around a batch's ends:
    # the certificate must reject such a batch, not keep a digit off by one
    k = dynamics._batch_length(N)
    for at in (1, 2, k // 2, k - 1, k, k + 1, 2 * k):
        for tail in (Fraction(1, 2**5000 + 1), 1 - Fraction(1, 2**5000 + 1)):
            x = tail
            for j in range(at):
                x = N / (N + j % 3 + x)
            p, q = x.numerator, x.denominator
            assert _walk(p, q, N, DEFAULT_MAX_TERMS) == plain_walk(p, q, N, DEFAULT_MAX_TERMS)


def test_every_batch_past_its_lead_is_rejected(monkeypatch):
    # 400 steps outrun any 608-bit packed pair: its loop ends early, or its
    # cofactors fail the bound, so every batch is rejected for 200 plain steps
    calls = _spy_steps(monkeypatch)
    monkeypatch.setattr(dynamics, "_batch_length", lambda N: 400)
    rng = random.Random(6)
    for N in (1, 2, 7):
        q = rng.getrandbits(8192) | 1 << 8191
        p = rng.randrange(1, q)
        assert _walk(p, q, N, 10**6 + 1) == plain_walk(p, q, N, 10**6 + 1)
    tried = sum(n == 400 for n, _ in calls)
    assert tried == sum(n == 200 for n, _ in calls) > 3


def test_orbit_steps_on_the_plain_path(monkeypatch):
    # one digit per call is fewer than a batch holds
    calls = _spy_steps(monkeypatch)
    rng = random.Random(7)
    q = rng.getrandbits(8192) | 1 << 8191
    x = Fraction(rng.randrange(1, q), q)
    points = list(itertools.islice(orbit(x, 1), 200))
    assert len(calls) == 199
    assert all(n == 1 and width > 7000 for n, width in calls)
    digits, p, q = plain_walk(x.numerator, x.denominator, 1, 199)
    assert points[-1] == Fraction(p, q)
