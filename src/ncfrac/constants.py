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
omitted order bounds the truncation, and the report diagnostics carry it.
Summation by parts drops the log(k) factor of the geometric-mean sum:

    sum_{k>=N} log(k) * log(1 + 1/(k*(k+2)))
        = log(N)*log(1+1/N) + sum_{k>N} log(1+1/(k-1)) * log(1+1/k),

whose summand is even in 1/k, so its tail expansion has only even orders.

One path, ``_suffix_series``, serves every index of a request, walking them
down from the largest with one compensated running sum: a near index adds
just the terms in between, a far one starts a new anchor: K doubled until
the bound is below 2**-60 times the first summand, which is below S as all
summands are positive, plus the zeta tail at K + 1.  S grows as N falls, so
the bound stays below 2**-60 * S for every index carried down from it, far
under the rounding of S.

The summand is evaluated in one array over an anchor's run of indices, split
at 8,192 terms so the array stays in cache.  Each index's new terms are one
term or numpy's pairwise ``.sum()`` of its slice; the index adds them to the
running sum with one Neumaier step in Python floats, as a term-by-term loop
would, and is yielded as soon as it is summed.  The dilogarithm uses
Landen's identity, -Li2(-x) = Li2(x/(1+x)) + log(1+x)**2/2: positive terms in
x/(1+x) <= 1/2.

Everything here is double precision.  A power mean whose undivided series,
about N**(r-1)/(1-r), is below the smallest normal double is rejected,
since that sum underflows or loses its digits; so is one of order
0 < |r| < 1e-6, since S = 1 + r*E[log digit] + ... and S**(1/r) multiplies
the rounding of S by 1/|r|.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import _np as np
from .dynamics import check_digits, check_index

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
# The most terms carried across in one array pass; a longer run of indices is
# split, so the arrays stay in cache however many indices a request spaces apart
# (at 2**16, 1000 indices 2048 apart took 1.5 times as long as one pass each).
_CHUNK_TERMS = 1 << 13

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
    M = check_digits((M,), N)[0]
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


def _suffix_series(ns, offset: int, summand, tail):
    """Yield (N, S / log(1 + 1/N), terms summed directly, tail bound) once for each
    distinct N in ns, the largest first, S = sum_{k >= N + offset} summand(k), every
    term positive, with the tail expansion ``tail`` of the summand as (s - 1, c)
    pairs (module docstring).
    """
    *tail, (t_next, c_next) = tail
    # the indices from the largest down, as runs (starts an anchor, [N, ...]); a run
    # that would span over _CHUNK_TERMS ends early and the next carries its sum on
    runs, prev, size = [], math.inf, 0
    for N in sorted(set(ns), reverse=True):
        gap, prev = prev - N, N
        if gap > _CARRY_TERMS or size + gap > _CHUNK_TERMS:
            runs.append((gap > _CARRY_TERMS, [N]))
            size = 0
        else:
            runs[-1][1].append(N)
            size += gap
    for anchor, run in runs:
        if anchor:
            first = run[0] + offset
            K, limit = max(run[0] + 32, 128), 2.0**-60 * float(summand(float(first)))
            while (omitted := c_next * _hurwitz_zeta(t_next, K + 1)) > limit:
                K *= 2
            total, comp, stop = sum(c * _hurwitz_zeta(t, K + 1) for t, c in tail), 0.0, K + 1
        # index i adds the terms k = first_i, ..., stop_i - 1, stop_i being the first k
        # already summed, as float(first_i) + j: above 2**53 that sum rounds, and the
        # terms round as a per-index array would
        firsts = [N + offset for N in run]
        lengths = [stop - firsts[0]] + [a - b for a, b in zip(firsts, firsts[1:])]
        bounds = [0, *itertools.accumulate(lengths)]
        j = np.arange(bounds[-1], dtype=float) - np.repeat(np.array(bounds[:-1], float), lengths)
        terms = summand(np.repeat([float(f) for f in firsts], lengths) + j)
        for N, first, segment, begin, end in zip(run, firsts, terms[bounds[:-1]].tolist(),
                                                 bounds, bounds[1:]):
            if end - begin > 1:
                segment = float(terms[begin:end].sum())
            # the running sum is total + comp (Neumaier; all terms are positive)
            running = total + segment
            comp += (total - running) + segment if total >= segment else (segment - running) + total
            total = running
            scale = math.log1p(1.0 / N)
            yield N, (total + comp) / scale, K - first + 1, omitted / scale
        stop = firsts[-1]


def _columns(rows) -> tuple[array, array, array]:
    """(value, terms, tail bound) rows as three columns: doubles, int64s, doubles."""
    values, terms, bounds = array("d"), array("q"), array("d")
    for value, count, bound in rows:
        values.append(value)
        terms.append(count)
        bounds.append(bound)
    return values, terms, bounds


def _geometric_mean_series(ns) -> tuple[array, array, array]:
    """log of the digit geometric mean, as _columns of (value, terms used, tail
    bound), one entry per distinct N in walk order, the largest N first."""
    return _columns((math.log(N) + mean, terms, bound) for N, mean, terms, bound in _suffix_series(
        ns, 1, lambda k: np.log1p(1.0 / (k - 1)) * np.log1p(1.0 / k),
        [(s - 1, c) for s, c in _GEOMEAN_TAIL]))


def khinchin(N: int) -> float:
    """Almost-sure geometric mean of the digits.

    Its logarithm's series is cut below its rounding (module docstring).
    """
    return _checked("khinchin", N, math.exp, _geometric_mean_series([check_index(N)])[0][0])


def _order_label(r: float) -> str:
    """r as it appears in a key: f"{r:g}" where that reads back as r, else repr(r)."""
    label = f"{r:g}"
    return label if float(label) == r else repr(r)


def _check_order(N: int, r: float) -> None:
    """Reject orders that are neither finite nor divergent (nan, -inf) and
    0 < |r| < 1e-6, where S**(1/r) multiplies the rounding of S by 1/|r|."""
    if math.isnan(r) or r == -math.inf:
        raise ValueError(f"order r must be a finite number or >= 1, got {r}")
    if 0 < abs(r) < 1e-6:
        raise ValueError(f"holder_mean[r={_order_label(r)}] at N = {N} is out of reach: "
                         "orders 0 < |r| < 1e-6 lose about 1e-16/|r| to rounding; "
                         "r = 0 is the geometric mean")


def _holder_series(ns, r: float) -> tuple[array, array, array]:
    """Power mean of order r, as _columns of (value, terms, tail bound of the mean
    of digit**r), one entry per distinct N in walk order, the largest N first; each
    value's overflow check runs in that order."""
    name = f"holder_mean[r={_order_label(r)}]"
    if ns:
        _check_order(ns[0], r)  # N-independent; N only names an index in the message
    for N in ns:
        # the undivided sum is about N**(r-1)/(1-r); below the normal range it loses digits
        if float(N) ** (r - 1) < sys.float_info.min:
            raise ValueError(f"{name} at N = {N} is out of reach: order r = {r} "
                             "is too negative, N**(r-1) underflows")
    # the exponent 1/r as fl(1/r) plus its rounding, formed in rationals
    q = 1.0 / r
    d = float(1 / Fraction(r) - Fraction(q))
    return _columns((_checked(name, N, _root, mean, q, d), terms, bound)
                    for N, mean, terms, bound in _suffix_series(
                        ns, 0, lambda k: k**r * np.log1p(1.0 / k / (k + 2.0)),
                        [((s - 1) - r, c) for s, c in _LOG1P_BRANCH_TAIL]))


def holder_mean(N: int, r: float) -> float:
    """Power mean of order r of the digits.

    Diverges for r >= 1 (the plain digit mean is already infinite); the
    divergence is signalled by returning math.inf explicitly.  r = 0 is the
    geometric mean, :func:`khinchin`; 0 < |r| < 1e-6 raises ValueError.  The
    series of the r-th power is cut below its rounding (module docstring).
    Only the requested mean is summed, so no other constant's overflow near
    the top of the float range can end the call.
    """
    N = check_index(N)
    if r >= 1:
        return math.inf
    return khinchin(N) if r == 0 else _holder_series([N], r)[0][0]


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


@dataclass(slots=True)
class ConstantsReport:
    """Every closed-form constant for one index N, with series diagnostics.

    A report holds the flat record that compute_many builds for it, and each
    field reads off that record: N, khinchin, levy_lambda, levy_L, lyapunov,
    loch, lower_bound_lyapunov and lower_bound_denominator are its entries
    of the same names.  ``holder_means`` pairs each requested order r with
    its value; divergent orders (r >= 1) carry math.inf, which the record
    holds as the string "divergent" so no bare infinity leaks into
    serialized output.  ``order_labels`` names each order in the record's
    keys, as _order_label; ``diagnostics`` maps each summed series to its
    (terms, tail bound).  Two reports are equal when their orders and their
    records are.
    """

    _record: dict
    _orders: tuple[tuple[float, str], ...]

    N = property(lambda self: self._record["N"])
    khinchin = property(lambda self: self._record["khinchin"])
    levy_lambda = property(lambda self: self._record["levy_lambda"])
    levy_L = property(lambda self: self._record["levy_L"])
    lyapunov = property(lambda self: self._record["lyapunov"])
    loch = property(lambda self: self._record["loch"])
    lower_bound_lyapunov = property(lambda self: self._record["lower_bound_lyapunov"])
    lower_bound_denominator = property(lambda self: self._record["lower_bound_denominator"])

    @property
    def holder_means(self) -> tuple[tuple[float, float], ...]:
        values = (self._record[f"holder_mean[r={label}]"] for _, label in self._orders)
        return tuple((r, math.inf if value == "divergent" else value)
                     for (r, _), value in zip(self._orders, values))

    @property
    def order_labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self._orders)

    @property
    def diagnostics(self) -> dict[str, tuple[int, float]]:
        names = ("khinchin", *(f"holder[r={label}]" for _, label in self._orders))
        return {name: (self._record[f"{name}_terms"], self._record[f"{name}_tail_bound"])
                for name in names if f"{name}_terms" in self._record}

    @classmethod
    def compute(cls, N: int, rs: Sequence[float] = (-1.0, 0.5)) -> "ConstantsReport":
        return next(cls.compute_many([N], rs))

    @classmethod
    def compute_many(cls, ns: Sequence[int],
                     rs: Sequence[float] = (-1.0, 0.5)) -> Iterator["ConstantsReport"]:
        """One report per requested index, in request order, duplicates kept;
        each digit-mean series is summed once for all of them.  Every check of
        every index runs before this returns; each report is made as it is read,
        its record keyed in to_record's order by keys formed once here."""
        ns = [check_index(N) for N in ns]
        geometric = _geometric_mean_series(ns)
        series = {r: _holder_series(ns, r) for r in rs if not (r >= 1 or r == 0)}
        # each N's place in the series columns, whose walk takes the distinct N largest first
        position = {N: i for i, N in enumerate(sorted(set(ns), reverse=True))}
        khinchins = [_checked("khinchin", N, math.exp, geometric[0][position[N]]) for N in ns]
        orders = tuple((r, _order_label(r)) for r in rs)
        holder_keys = [(f"holder_mean[r={label}]", r) for r, label in orders]
        diagnostic_keys = [(f"{name}_terms", f"{name}_tail_bound", table) for name, table in (
            ("khinchin", geometric),
            *((f"holder[r={label}]", series[r]) for r, label in orders if r in series))]
        log10 = math.log(10)

        def reports() -> Iterator["ConstantsReport"]:
            for N, khin in zip(ns, khinchins):
                i, log_n = position[N], math.log(N)
                lam = levy_lambda(N)
                lyap = 2.0 * lam + log_n
                lyap_bound, denom_bound = lower_bounds(N)
                record = {"N": N, "khinchin": khin, "levy_lambda": lam, "levy_L": lam + log_n,
                          "lyapunov": lyap, "loch": log10 / lyap,
                          "lower_bound_lyapunov": lyap_bound,
                          "lower_bound_denominator": denom_bound}
                for key, r in holder_keys:
                    record[key] = "divergent" if r >= 1 else khin if r == 0 else series[r][0][i]
                for terms_key, bound_key, (_, terms, bounds) in diagnostic_keys:
                    record[terms_key], record[bound_key] = terms[i], bounds[i]
                yield cls(record, orders)

        return reports()

    def to_record(self) -> dict:
        """The flat JSON/CSV-friendly key-value record, as a copy: N, khinchin,
        levy_lambda, levy_L, lyapunov, loch, the two lower bounds, each
        holder_mean[r=...], then each series' _terms and _tail_bound."""
        return dict(self._record)
