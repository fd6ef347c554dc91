"""Exact dynamics of the interval map x -> {N/x} and its digit expansions.

Everything here is integer arithmetic on rationals: for x = p/q in lowest
terms the map sends p/q to (N*q mod p)/p, so orbits of rationals reach 0 in
finitely many steps and expansion digits come out exactly.  Long orbits
take their digits in certified Lehmer batches read from the leading bits,
which return exactly what the one-digit loop returns (see :func:`_walk`).
No floating point is used anywhere in this module; a double-precision
orbit loses the exact one within a few dozen steps, as
``demos/monte_carlo_checks.py`` shows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "DEFAULT_MAX_TERMS",
    "Expansion",
    "digit",
    "evaluate",
    "expand",
    "fixed_point",
    "gauss_map",
    "orbit",
]

RationalLike = Union[Fraction, int]

#: Denominators grow at least like N**n, so deep expansions get expensive in
#: arbitrary precision; this cap keeps pathological inputs bounded.
DEFAULT_MAX_TERMS = 10_000


def check_index(N: int) -> int:
    """Validate the map index (a positive integer) and return it."""
    if isinstance(N, bool) or not isinstance(N, int):
        raise ValueError(f"map index must be a positive integer, got {N!r}")
    if N < 1:
        raise ValueError(f"map index must be >= 1, got {N}")
    return N


def check_digits(coeffs: Iterable[int], N: int) -> tuple[int, ...]:
    """Validate expansion digits (integers >= N; bools are rejected) and return
    them as a tuple of ints."""
    digits = []
    for a in coeffs:
        try:
            if isinstance(a, bool):
                raise TypeError
            digits.append(operator.index(a))
        except TypeError:
            raise ValueError(f"digits must be integers, got {a!r}") from None
        if digits[-1] < N:
            raise ValueError(f"inadmissible digit {digits[-1]} < N = {N}")
    return tuple(digits)


def _as_unit_rational(x: RationalLike, *, allow_zero: bool = True) -> Fraction:
    """Coerce x to an exact Fraction in [0, 1), rejecting floats outright."""
    if isinstance(x, float):
        raise TypeError(
            "floating-point input would silently break exactness; "
            "pass a Fraction (e.g. Fraction(2, 3))"
        )
    x = Fraction(x)
    if x < 0 or x >= 1:
        raise ValueError(f"point must lie in [0, 1), got {x}")
    if not allow_zero and x == 0:
        raise ValueError("point must be nonzero")
    return x


@dataclass(frozen=True)
class Expansion:
    """Digit sequence of a point under the index-N map.

    ``terminated`` is True iff the orbit reached 0, i.e. the input was a
    rational whose expansion is complete; the infinite-digit convention for
    rationals is represented by this flag, never by a sentinel value.
    """

    N: int
    coeffs: tuple[int, ...]
    terminated: bool

    def __post_init__(self) -> None:
        check_index(self.N)
        object.__setattr__(self, "coeffs", check_digits(self.coeffs, self.N))

    def __len__(self) -> int:
        return len(self.coeffs)


def gauss_map(x: RationalLike, N: int) -> Fraction:
    """One exact step of the map: 0 -> 0, otherwise x -> fractional part of N/x.

    >>> gauss_map(Fraction(2, 3), 1)
    Fraction(1, 2)
    """
    check_index(N)
    x = _as_unit_rational(x)
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    return Fraction(N * q % p, p)


def digit(x: RationalLike, N: int) -> int:
    """Integer part of N/x, the next expansion digit; always >= N for x in (0, 1).

    Undefined at 0 (the orbit has terminated there); callers should consult
    :attr:`Expansion.terminated` instead of probing 0.
    """
    check_index(N)
    x = _as_unit_rational(x, allow_zero=False)
    return N * x.denominator // x.numerator


#: Lehmer batches (Lehmer 1938; Knuth, TAOCP vol. 2, sec. 4.5.2) step the
#: leading _LEAD_BITS bits of p and q, each with a cofactor tag in two fields of
#: _FIELD_BITS bits below them, so a batch costs one short divmod per digit and
#: four products of a full-width integer by a cofactor.
_LEAD_BITS = 256
_FIELD_BITS = 176
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_HALF = 1 << (_FIELD_BITS - 1)
#: shorter batches (N >= 2**23) ran at 0.8-1.15x the plain loop's speed just
#: above their floor
_MIN_BATCH = 5


def _steps(p: int, q: int, N: int, n: int, append) -> tuple[int, int]:
    """The plain loop: up to n exact steps from (p, q), each digit passed to append."""
    for _ in range(n):
        if not p:
            break
        a, r = divmod(N * q, p)
        append(a)
        p, q = r, p
    return p, q


def _batch_length(N: int) -> int:
    """Digits per batch: a step spends about 2*bit_length(N) + 4 bits of the lead."""
    return _LEAD_BITS // (4 + 2 * N.bit_length())


def _cofactors(packed: int) -> tuple[int, int]:
    """(u, v) from the low fields u * 2**F + v of a packed state, each |.| < 2**(F-1)."""
    v = ((packed + _FIELD_HALF) & _FIELD_MASK) - _FIELD_HALF
    u = ((((packed - v) >> _FIELD_BITS) + _FIELD_HALF) & _FIELD_MASK) - _FIELD_HALF
    return u, v


def _walk(p: int, q: int, N: int, max_terms: int) -> tuple[list[int], int, int]:
    """Digits of the first max_terms exact steps of the orbit of p/q, and the last image.

    The step (p, q) -> (N*q mod p, p) skips reduction: the ratio, so every
    digit, is unchanged and p still strictly decreases, so the walk ends at
    the same step.  Stops at 0 or after max_terms steps, and returns the
    digits with the last image as an unreduced pair (p, q), whose q is the
    numerator stepped from (p/q itself when no step was taken).

    While p is longer than 1024 + 320*bit_length(N) bits, where a batch was
    measured to pay, the digits come k = _batch_length(N) at a time.  With
    W = _LEAD_BITS, F = _FIELD_BITS, p' = p >> s and q' = q >> s for
    s = bit_length(p) - W, the plain loop runs k steps on the packed pair
    P = p' * 2**2F + 2**F, Q = q' * 2**2F + 1.  A step is linear, so
    P_k = (u*p' + v*q') * 2**2F + u * 2**F + v, and Q_k likewise with
    (u1, v1), where p_k = u*p + v*q and q_k = u1*p + v1*q are the exact
    states k steps on.  The batch is kept only if

    * k*bit_length(N) + bit_length(max(P, Q)) - bit_length(Q_k) < F - 1.
      Each packed digit after the first is >= N, since Q_{j-1} = P_{j-2} >
      P_{j-1}, so the cofactors grow along the batch; and the packed states
      satisfy N^k Q = |u| Q_k + |u1| P_k and N^k P = |v1| P_k + |v| Q_k.  So
      all four cofactors are below 2**(F-1) and decode exactly.
    * 0 < p_k < q_k.  A loop that stopped early ended on a packed 0, so p_k = 0.

    Then it is exact: going back from x_k = p_k/q_k in (0, 1), each
    x_{j-1} = N/(a_j + x_j) with j >= 2 lies in (0, 1), and so
    floor(N/x_{j-1}) = a_j for every j: the batch's digits and (p_k, q_k) are
    the plain loop's own.  A batch that fails is replaced by k//2 plain
    steps.  Fewer than k steps left, a short p, or k < _MIN_BATCH
    (N >= 2**23) take the plain loop.
    """
    digits: list[int] = []
    append = digits.append
    batch = _batch_length(N)
    width = N.bit_length()
    floor = 1024 + 320 * width
    left = max_terms
    while left >= batch >= _MIN_BATCH and p.bit_length() > floor:
        s = p.bit_length() - _LEAD_BITS
        P = ((p >> s) << 2 * _FIELD_BITS) + (1 << _FIELD_BITS)
        Q = ((q >> s) << 2 * _FIELD_BITS) + 1
        top = max(P, Q).bit_length()
        block: list[int] = []
        P, Q = _steps(P, Q, N, batch, block.append)
        if batch * width + top - Q.bit_length() < _FIELD_BITS - 1:
            u, v = _cofactors(P)
            u1, v1 = _cofactors(Q)
            pk, qk = u * p + v * q, u1 * p + v1 * q
            if 0 < pk < qk:
                digits += block
                p, q = pk, qk
                left -= batch
                continue
        n = batch // 2
        p, q = _steps(p, q, N, n, append)
        left -= n
    p, q = _steps(p, q, N, left, append)
    return digits, p, q


def orbit(x: RationalLike, N: int) -> Iterator[Fraction]:
    """Yield x, T(x), T^2(x), ... exactly, stopping after the first 0."""
    check_index(N)
    x = _as_unit_rational(x)
    yield x
    p, q = x.numerator, x.denominator
    while p:
        _, p, q = _walk(p, q, N, 1)
        yield Fraction(p, q)


def expand(x: RationalLike, N: int, max_terms: int = DEFAULT_MAX_TERMS) -> Expansion:
    """Digit expansion of x, stopping at termination or after max_terms digits.

    The remainder numerators decrease strictly, so every rational terminates.

    >>> expand(Fraction(2, 3), 1).coeffs
    (1, 2)
    """
    check_index(N)
    if max_terms < 0:
        raise ValueError(f"max_terms must be >= 0, got {max_terms}")
    x = _as_unit_rational(x)
    coeffs, p, _ = _walk(x.numerator, x.denominator, N, max_terms)
    return Expansion(N=N, coeffs=coeffs, terminated=p == 0)


def evaluate(coeffs: Sequence[int], N: int) -> Fraction:
    """Exact value of the finite fraction N/(a_1 + N/(a_2 + ...)), reduced.

    Every digit must be >= N.  The empty sequence evaluates to 0 so that
    expand/evaluate round-trip on all rationals in [0, 1), and the single
    digit [N] evaluates to the boundary value 1, which lies outside the
    map's domain but is still a valid finite fraction.
    """
    check_index(N)
    value = Fraction(0)
    for a in reversed(check_digits(coeffs, N)):
        value = Fraction(N, a + value)
    return value


def fixed_point(N: int, p: int, digits: int = 50) -> Fraction:
    """Rational approximation of the period-one point [p, p, p, ...].

    Closed form (sqrt(p*p + 4N) - p) / 2, computed by integer square root so
    the result is within 10**-digits of the true fixed point.  Requires
    p >= N (smaller digits never occur in canonical expansions).

    >>> float(fixed_point(1, 1))  # doctest: +ELLIPSIS
    0.618033988...
    """
    check_index(N)
    p = check_digits((p,), N)[0]
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    scale = 10 ** (digits + 2)
    root = math.isqrt((p * p + 4 * N) * scale * scale)
    return Fraction(root - p * scale, 2 * scale)
