"""Unreduced convergent sequences and their exact integer invariants.

The three-term recursion A_n = a_n*A_{n-1} + N*A_{n-2} (same for B) is
seeded with A_0 = 0, B_0 = 1, A_1 = N, B_1 = a_1.  Those seeds are forced
by the one- and two-digit values N/a_1 and N*a_2/(a_1*a_2 + N) together
with the cross-product identity A_{n-1}*B_n - A_n*B_{n-1} = (-N)**n, which
the seeds satisfy at n = 1.  :func:`_convergents` is the recursion's one
copy.  Convergents are kept unreduced; only :meth:`Convergent.ratio` and
:func:`ncfrac.dynamics.evaluate` reduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .dynamics import RationalLike, check_digits, check_index, expand

__all__ = [
    "Convergent",
    "ConvergentTrace",
    "approximation_rate",
    "convergent_sequence",
    "determinant_check",
    "error_bounds_check",
]


@dataclass(frozen=True)
class Convergent:
    """Unreduced numerator/denominator pair at depth n."""

    n: int
    A: int
    B: int

    def ratio(self) -> Fraction:
        return Fraction(self.A, self.B)


@dataclass(frozen=True)
class ConvergentTrace:
    """Convergents 0..len(coeffs) of a digit sequence, plus the source digits."""

    N: int
    coeffs: tuple[int, ...]
    convergents: tuple[Convergent, ...]

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    @property
    def final(self) -> Convergent:
        return self.convergents[-1]

    def ratio(self, n: int) -> Fraction:
        return self.convergents[n].ratio()


def _convergents(coeffs: Sequence[int], N: int) -> Iterator[Convergent]:
    """Convergents 0..len(coeffs) of digits already checked, one at a time."""
    A2, A1, B2, B1 = 1, 0, 0, 1  # (A_{-1}, B_{-1}) = (1, 0) gives A_1 = N, B_1 = a_1
    yield Convergent(0, A1, B1)
    for n, a in enumerate(coeffs, 1):
        A2, A1 = A1, a * A1 + N * A2
        B2, B1 = B1, a * B1 + N * B2
        yield Convergent(n, A1, B1)


def convergent_sequence(coeffs: Sequence[int], N: int) -> ConvergentTrace:
    """Run the three-term recursion over admissible digits (all >= N).

    >>> t = convergent_sequence([1, 2], 1)
    >>> [(c.A, c.B) for c in t.convergents]
    [(0, 1), (1, 1), (2, 3)]
    """
    check_index(N)
    coeffs = check_digits(coeffs, N)
    if not coeffs:
        raise ValueError("need at least one digit")
    return ConvergentTrace(N=N, coeffs=coeffs, convergents=tuple(_convergents(coeffs, N)))


def determinant_check(trace: ConvergentTrace) -> bool:
    """True iff A_{n-1}*B_n - A_n*B_{n-1} == (-N)**n exactly at every n >= 1."""
    expected = 1
    for n in range(1, trace.depth + 1):
        expected *= -trace.N
        prev, cur = trace.convergents[n - 1], trace.convergents[n]
        if prev.A * cur.B - cur.A * prev.B != expected:
            return False
    return True


def approximation_rate(x: RationalLike, N: int, n: int) -> float:
    """Exponential accuracy -(1/n) * ln|x - A_n/B_n| of the depth-n convergent.

    The difference is formed exactly as a rational and only the final
    logarithm is floating point, so there is no cancellation.  Raises if the
    expansion of x terminates at or before depth n (the difference would be
    zero there).
    """
    check_index(N)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    exp = expand(x, N, max_terms=n + 1)
    if exp.terminated and len(exp) <= n:
        raise ValueError(
            f"expansion of {x} terminates after {len(exp)} digits, before depth {n}"
        )
    conv = next(islice(_convergents(exp.coeffs, N), n, None))
    x = Fraction(x)
    num = abs(x.numerator * conv.B - x.denominator * conv.A)
    den = x.denominator * conv.B
    # big-int logs: math.log takes arbitrary-precision integers exactly
    return (math.log(den) - math.log(num)) / n


def error_bounds_check(trace: ConvergentTrace, x: RationalLike) -> bool:
    """Exact sandwich N**(n+1)/(4*B_{n+1}) < |B_n*x - A_n| <= N**n/B_n, in integers.

    With x = p/q and gap = |B_n*p - A_n*q|, checks gap*B_n <= N**n*q at
    every 1 <= n <= depth and N**(n+1)*q < 4*B_{n+1}*gap at every n < depth;
    at the final depth of a terminated expansion the residual is exactly
    zero, so only the upper bound applies there.  A trace with some
    B_n <= 0 (n >= 1) fails.
    x must be the point whose expansion produced the trace.
    """
    x = Fraction(x)
    N = trace.N
    prefix = expand(x, N, max_terms=trace.depth)
    if prefix.coeffs[: trace.depth] != trace.coeffs:
        raise ValueError("trace digits do not match the expansion of x")
    p, q = x.numerator, x.denominator
    npow = N
    for n in range(1, trace.depth + 1):
        conv = trace.convergents[n]
        gap = abs(conv.B * p - conv.A * q)
        # a B_n <= 0 would flip the cross-multiplied bounds; B_{n+1} is caught at n + 1
        if conv.B <= 0 or gap * conv.B > npow * q:
            return False
        if n < trace.depth and not npow * N * q < 4 * trace.convergents[n + 1].B * gap:
            return False
        npow *= N
    return True
