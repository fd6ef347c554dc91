"""Closed-form analytic objects of the index-N map: invariant density and CDF,
digit frequencies, digit means, dilogarithm, growth-rate constants and the
fixed-point lower bounds.

Series evaluation
-----------------
Each digit mean is a suffix sum S(N) = sum_{k>=N} g(k), divided by
log(1 + 1/N), of a summand decaying like log(k)/k**2 or k**(r-2).  It is
summed directly up to a cutoff K; the rest comes from the 1/k expansion of
log(1 + 1/(k*(k+2))), whose term-by-term sums are Hurwitz zeta values from a
local Euler-Maclaurin evaluation (``_hurwitz_zeta``; no scipy).  The first
omitted order bounds the truncation: ``tol`` controls that bound, and the
report diagnostics carry it.  Summation by parts drops the log(k) factor of
the geometric-mean sum:

    sum_{k>=N} log(k) * log(1 + 1/(k*(k+2)))
        = log(N)*log(1+1/N) + sum_{k>N} log(1+1/(k-1)) * log(1+1/k),

whose summand is even in 1/k, so its tail expansion has only even orders.

One path, ``_suffix_series``, serves every index of a request, walking them
down from the largest with one compensated running sum: a near index adds
just the terms in between, a far one starts a new anchor (K doubled until
the tail bound meets ``tol``, plus the zeta tail at K + 1).  The bound over
log(1 + 1/N) shrinks as N falls, so it meets ``tol`` for every index carried
down from an anchor.  The dilogarithm uses Landen's identity,
-Li2(-x) = Li2(x/(1+x)) + log(1+x)**2/2: positive terms in x/(1+x) <= 1/2.

Everything here is double precision; all advertised tolerances are >= 1e-12
and the tail bounds dominate rounding.  A power mean whose undivided series,
about N**(r-1)/(1-r), is below the smallest normal double is rejected,
since that sum underflows or loses its digits; so is one of order
0 < |r| < 1e-6, since S = 1 + r*E[log digit] + ... and S**(1/r) multiplies
the rounding of S by 1/|r|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dynamics import check_index

__all__ = [
    "ConstantsReport",
    "cdf",
    "density",
    "dilog_theta",
    "frequency",
    "holder_mean",
    "khinchin",
    "lambda_asymptotic",
    "levy_L",
    "levy_lambda",
    "loch",
    "lower_bounds",
    "lyapunov_const",
]

# Tail expansions: (order s, coefficient c) pairs, each summing over k > K to
# c * zeta(s, K + 1); the last pair bounds all the omitted orders.
# sum_{k>K} log(1+1/(k-1))*log(1+1/k) has even orders only; 0.25 > c_12 ~ 0.123
_GEOMEAN_TAIL = ((2, 1.0), (4, 5 / 12), (6, 47 / 180), (8, 319 / 1680), (10, 1879 / 12600),
                 (12, 0.25))
# log(1 + 1/(k*(k+2))), orders k**-2 .. k**-8; 60 > sum_{n>=9} |c_n| k**(9-n), k > 64
_LOG1P_BRANCH_TAIL = ((2, 1.0), (3, -2.0), (4, 3.5), (5, -6.0), (6, 31 / 3), (7, -18.0),
                      (8, 127 / 4), (9, 60.0))

# The widest gap between requested indices that the running suffix sum is
# carried across: its terms cost about the ~8 zeta calls of a fresh anchor, and
# a sparse request such as N = 1 and 10**9 never builds the array in between.
_CARRY_TERMS = 2048

# Euler-Maclaurin corrections B_2j/(2j)! for j = 6..1, nested from the inside
# out; each is paired with 2j - 1 because the order j + 1 correction carries
# the extra factor (s + 2j - 1)(s + 2j)/a**2.  _EM_LAST (j = 7) seeds the nesting
_EM_STEPS = (
    (-691 / 1307674368000, 11.0),
    (1 / 47900160, 9.0),
    (-1 / 1209600, 7.0),
    (1 / 30240, 5.0),
    (-1 / 720, 3.0),
    (1 / 12, 1.0),
)
_EM_LAST = 1 / 74724249600


def density(N: int, x: float) -> float:
    """Invariant density 1/((N + x) * log(1 + 1/N)) on [0, 1); integrates to 1."""
    check_index(N)
    if not 0 <= x < 1:
        raise ValueError(f"density argument must lie in [0, 1), got {x}")
    return 1.0 / ((N + x) * math.log1p(1.0 / N))


def cdf(N: int, t: float) -> float:
    """Distribution function log(1 + t/N)/log(1 + 1/N), extended to all t >= 0.

    Satisfies cdf(N, 0) = 0, cdf(N, 1) = 1 and the self-consistency equation
    F(1 + t) = F(t) + F(N/(N + t)).
    """
    check_index(N)
    if t < 0:
        raise ValueError(f"cdf argument must be >= 0, got {t}")
    return math.log1p(t / N) / math.log1p(1.0 / N)


def frequency(N: int, M: int) -> float:
    """Asymptotic frequency of digit M: log(1 + 1/(M*(M+2)))/log(1 + 1/N).

    Digits below N never occur, so M < N is rejected.  Frequencies over
    M = N, N+1, ... telescope to exactly 1, and ratios of two frequencies do
    not depend on N.
    """
    check_index(N)
    if isinstance(M, bool) or not isinstance(M, int) or M < N:
        raise ValueError(f"digit must be an integer >= N = {N}, got {M!r}")
    try:
        u = 1.0 / (M * (M + 2))
    except OverflowError:
        # u < 1e-308 has log1p(u) = u: the frequency is the correctly rounded
        # quotient N*u times (1/N)/log1p(1/N) = 1 + 1/(2N) - ..., 1.0 beyond 2**53
        scale = 1.0 if N > 2**53 else 1.0 / N / math.log1p(1.0 / N)
        return N / (M * (M + 2)) * scale
    return math.log1p(u) / math.log1p(1.0 / N)


def _checked(quantity: str, N: int, fn, *args) -> float:
    """fn(*args), with an overflow, raised or non-finite, reported as the quantity at N."""
    try:
        value = fn(*args)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise OverflowError(f"{quantity} at N = {N} is beyond the float range")


def _root(S: float, q: float, d: float) -> float:
    """S**(q + d) for a tiny d, as (S * S**(d/q))**q, where S**(d/q) is 1.0 if d = 0."""
    return (S * math.exp(d / q * math.log(S))) ** q


def _hurwitz_zeta(t: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_{k>=0} (a + k)**-s for s = 1 + t > 1, a > 0.

    t = s - 1 is passed as such: a**(1-s) and 1/(s-1) amplify its rounding
    near s = 1.  Euler-Maclaurin at the start point with seven Bernoulli corrections:

        a**(1-s)/(s-1) + a**-s/2 + sum_j B_2j/(2j)! * (s)_(2j-1) * a**(-s-2j+1).

    For a >= 2*s + 28 the first omitted correction is below
    |B_16/16!| * 2**-15 * a**-s, which is under 2**-57 * zeta(s, a) because
    zeta(s, a) > a**(1-s)/(s-1) + a**-s/2 > 2.5 * a**-s there.  Only where a
    is smaller are terms (a + k)**-s summed directly, until it is not.
    Returns 0.0 once a**-s underflows there, where the value itself is
    below twice the smallest subnormal.
    """
    s = 1.0 + t
    a = float(a)
    head = 0.0
    if a < 2.0 * s + 28.0:
        if a**-s == 0.0:
            return 0.0
        m = math.ceil(2.0 * s + 28.0 - a)
        head = math.fsum([(a + k) ** -s for k in range(m)])
        a += m
    w = 1.0 / (a * a)
    h = _EM_LAST
    for c, k in _EM_STEPS:
        h = c + (s + k) * (s + k + 1.0) * w * h
    return head + a**-t * (1.0 / t + (0.5 + s * h / a) / a)


def _suffix_series(ns, offset: int, summand, tail, tol: float):
    """{N: (S / log(1 + 1/N), terms summed directly, tail bound)} for each distinct N
    in ns, S = sum_{k >= N + offset} summand(k), with the tail expansion ``tail``
    of the summand as (s - 1, c) pairs (see the module docstring).
    """
    *tail, (t_next, c_next) = tail
    out = {}
    total = comp = 0.0  # the running sum is total + comp (Neumaier; all terms are positive)
    stop = math.inf  # first index already in the running sum
    for N in sorted(set(ns), reverse=True):
        first, scale = N + offset, math.log1p(1.0 / N)
        if stop - first > _CARRY_TERMS:
            K = max(N + 32, 128)
            while (omitted := c_next * _hurwitz_zeta(t_next, K + 1)) > tol * scale and K < 1 << 24:
                K *= 2
            total, comp, stop = sum(c * _hurwitz_zeta(t, K + 1) for t, c in tail), 0.0, K + 1
        k = float(first) + np.arange(stop - first, dtype=np.float64)
        segment = float(summand(k).sum())
        running = total + segment
        comp += (total - running) + segment if total >= segment else (segment - running) + total
        total, stop = running, first
        out[N] = ((total + comp) / scale, K - first + 1, omitted / scale)
    return out


def _geometric_mean_series(ns, tol: float) -> dict[int, tuple[float, int, float]]:
    """log of the digit geometric mean; {N: (value, terms used, tail bound)}."""
    sums = _suffix_series(ns, 1, lambda k: np.log1p(1.0 / (k - 1)) * np.log1p(1.0 / k),
                          [(s - 1, c) for s, c in _GEOMEAN_TAIL], tol)
    return {N: (math.log(N) + mean, terms, bound) for N, (mean, terms, bound) in sums.items()}


def khinchin(N: int, tol: float = 1e-12) -> float:
    """Almost-sure geometric mean of the digits.

    ``tol`` bounds the series truncation error of the *logarithm* of the
    result (so roughly its relative error).
    """
    return ConstantsReport.compute(N, (), tol).khinchin


def _holder_series(ns, r: float, tol: float) -> dict[int, tuple[float, int, float]]:
    """Power mean of order r; {N: (value, terms, tail bound of the mean of digit**r)}."""
    if not math.isfinite(r):
        raise ValueError(f"order r must be a finite number or >= 1, got {r}")
    for N in ns:
        if abs(r) < 1e-6:
            raise ValueError(f"holder_mean[r={r:g}] at N = {N} is out of reach: orders 0 < |r| < "
                             "1e-6 lose about 1e-16/|r| to rounding; r = 0 is the geometric mean")
        # the undivided sum is about N**(r-1)/(1-r); below the normal range it loses digits
        if float(N) ** (r - 1) < sys.float_info.min:
            raise ValueError(f"holder_mean[r={r:g}] at N = {N} is out of reach: order r = {r} "
                             "is too negative, N**(r-1) underflows")
    sums = _suffix_series(ns, 0, lambda k: k**r * np.log1p(1.0 / k / (k + 2.0)),
                          [((s - 1) - r, c) for s, c in _LOG1P_BRANCH_TAIL], tol)
    # the exponent 1/r as fl(1/r) plus its rounding, formed in rationals
    q, name = 1.0 / r, f"holder_mean[r={r:g}]"
    d = float(1 / Fraction(r) - Fraction(q))
    return {N: (_checked(name, N, _root, mean, q, d), terms, bound)
            for N, (mean, terms, bound) in sums.items()}


def holder_mean(N: int, r: float, tol: float = 1e-12) -> float:
    """Power mean of order r of the digits.

    Diverges for r >= 1 (the plain digit mean is already infinite); the
    divergence is signalled by returning math.inf explicitly.  r = 0 is the
    geometric mean, :func:`khinchin`; 0 < |r| < 1e-6 raises ValueError.
    ``tol`` bounds the truncation error of the underlying series (the r-th
    power of the result).
    """
    return ConstantsReport.compute(N, (r,), tol).holder_means[0][1]


def dilog_theta(x: float) -> float:
    """Integral of log(1+t)/t from 0 to x, which is -Li2(-x), by Landen's identity.

    The series of Li2(x/(1+x)) stops at its first term below 1e-17 * x/(1+x),
    which also bounds the rest, since each term is at most half the one before.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    z = x / (1.0 + x)
    terms, k = [0.5 * math.log1p(x) ** 2, z], 1
    while terms[-1] > 1e-17 * z:
        k += 1
        terms.append(z**k / (k * k))
    return math.fsum(terms)


def levy_lambda(N: int) -> float:
    """Denominator growth exponent above log(N): dilog_theta(1/N)/log(1+1/N).

    Strictly decreasing in N with limit 1; equals pi**2/(12*log(2)) at N = 1.
    """
    check_index(N)
    return dilog_theta(1.0 / N) / math.log1p(1.0 / N)


def lyapunov_const(N: int) -> float:
    """Almost-sure Lyapunov exponent 2*levy_lambda(N) + log(N); increasing in N."""
    return 2.0 * levy_lambda(N) + math.log(N)


def levy_L(N: int) -> float:
    """Almost-sure limit of log(B_n)/n: levy_lambda(N) + log(N)."""
    return levy_lambda(N) + math.log(N)


def loch(N: int) -> float:
    """Decimal digits gained per convergent: log(10)/lyapunov_const(N)."""
    return math.log(10) / lyapunov_const(N)


def lambda_asymptotic(N: int) -> float:
    """Large-N expansion 1 + 1/(4N) - 7/(72N^2) + 1/(18N^3) of levy_lambda.

    The omitted term is O(N**-4), so the estimate is poor at small N and
    excellent beyond N of a few dozen.
    """
    check_index(N)
    n = float(N)
    return 1.0 + 1.0 / (4 * n) - 7.0 / (72 * n * n) + 1.0 / (18 * n**3)


def lower_bounds(N: int) -> tuple[float, float]:
    """Worst-case orbit bounds: (Lyapunov lower bound, log(B_n)/n lower bound).

    Returns (2*log((sqrt(N+4)+sqrt(N))/2), log((sqrt(N^2+4N)+N)/2)); the two
    are algebraically linked by lyapunov = 2*denominator_bound - log(N), and
    both are attained on the constant-digit-N orbit.
    """
    check_index(N)
    lyap = 2.0 * math.log((math.sqrt(N + 4.0) + math.sqrt(float(N))) / 2.0)
    # the root as N*sqrt(1 + 4/N), halved before the sum: finite wherever float(N) is
    denom = math.log(N * math.sqrt(1.0 + 4.0 / N) / 2.0 + N / 2.0)
    return lyap, denom


@dataclass
class ConstantsReport:
    """Every closed-form constant for one index N, with series diagnostics.

    ``holder_means`` pairs each requested order r with its value; divergent
    orders (r >= 1) carry math.inf, which the flat record renders as the
    string "divergent" so no bare infinity leaks into serialized output.
    """

    N: int
    khinchin: float
    holder_means: tuple[tuple[float, float], ...]
    levy_lambda: float
    levy_L: float
    lyapunov: float
    loch: float
    lower_bound_lyapunov: float
    lower_bound_denominator: float
    diagnostics: dict[str, tuple[int, float]] = field(default_factory=dict)

    @classmethod
    def compute(cls, N: int, rs: Sequence[float] = (-1.0, 0.5),
                tol: float = 1e-12) -> "ConstantsReport":
        return cls.compute_many([N], rs, tol)[0]

    @classmethod
    def compute_many(
        cls, ns: Sequence[int], rs: Sequence[float] = (-1.0, 0.5), tol: float = 1e-12
    ) -> list["ConstantsReport"]:
        """One report per requested index, in request order, duplicates kept;
        each digit-mean series is summed once for all of them."""
        ns = [check_index(N) for N in ns]
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {tol}")
        geometric = _geometric_mean_series(ns, tol)
        series = {r: _holder_series(ns, r, tol) for r in rs if not (r >= 1 or r == 0)}
        reports = []
        for N in ns:
            khin = _checked("khinchin", N, math.exp, geometric[N][0])
            diagnostics = {"khinchin": geometric[N][1:]}
            holder: list[tuple[float, float]] = []
            for r in rs:
                if r >= 1:
                    holder.append((r, math.inf))
                elif r == 0:
                    holder.append((r, khin))
                else:
                    holder.append((r, series[r][N][0]))
                    diagnostics[f"holder[r={r:g}]"] = series[r][N][1:]
            lam = levy_lambda(N)
            lyap = 2.0 * lam + math.log(N)
            lyap_bound, denom_bound = lower_bounds(N)
            reports.append(cls(
                N=N, khinchin=khin, holder_means=tuple(holder), levy_lambda=lam,
                levy_L=lam + math.log(N), lyapunov=lyap, loch=math.log(10) / lyap,
                lower_bound_lyapunov=lyap_bound, lower_bound_denominator=denom_bound,
                diagnostics=diagnostics))
        return reports

    def to_record(self) -> dict:
        """Flatten to one JSON/CSV-friendly key-value record."""
        record: dict = {key: getattr(self, key) for key in (
            "N", "khinchin", "levy_lambda", "levy_L", "lyapunov", "loch",
            "lower_bound_lyapunov", "lower_bound_denominator")}
        for r, value in self.holder_means:
            record[f"holder_mean[r={r:g}]"] = "divergent" if math.isinf(value) else value
        for name, (terms, bound) in self.diagnostics.items():
            record[f"{name}_terms"] = terms
            record[f"{name}_tail_bound"] = bound
        return record
