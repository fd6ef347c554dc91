"""Closed-form analytic objects of the index-N map: invariant density and CDF,
digit frequencies, digit means, dilogarithm, growth-rate constants and the
fixed-point lower bounds.

Series evaluation
-----------------
The digit sums all decay polynomially (like log(k)/k**2 or k**(r-2)), so they
are summed directly up to a cutoff K and the remainder is evaluated through
the 1/k expansion of log(1 + 1/(k*(k+2))), whose term-by-term sums are
Hurwitz zeta values.  Those come from a local Euler-Maclaurin evaluation
(``_hurwitz_zeta``), so the package needs numpy but not scipy.  The first
omitted expansion order gives a conservative truncation bound, which is what
the ``tol`` arguments control and what the report diagnostics carry.  The
geometric-mean sum is first rewritten by summation by parts to drop its
log(k) factor:

    sum_{k>=N} log(k) * log(1 + 1/(k*(k+2)))
        = log(N)*log(1+1/N) + sum_{k>N} log(1+1/(k-1)) * log(1+1/k),

whose summand is even in 1/k, so its tail expansion has only even orders.

Everything here is double precision; all advertised tolerances are >= 1e-12
and the tail bounds dominate rounding.  A power mean whose undivided series,
about N**(r-1)/(1-r), is below the smallest normal double is rejected,
since that sum underflows or loses its digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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

# tail of sum_{k>K} log(1+1/(k-1))*log(1+1/k): even orders only
_GEOMEAN_TAIL = ((2, 1.0), (4, 5 / 12), (6, 47 / 180), (8, 319 / 1680), (10, 1879 / 12600))
_GEOMEAN_TAIL_NEXT = 0.25  # safely above the next coefficient c_12 ~ 0.123

# 1/k expansion of log(1 + 1/(k*(k+2))), orders k**-2 .. k**-8
_LOG1P_BRANCH_TAIL = ((2, 1.0), (3, -2.0), (4, 3.5), (5, -6.0), (6, 31 / 3), (7, -18.0), (8, 127 / 4))
_LOG1P_BRANCH_NEXT = 60.0  # > |c_9| = 56.7

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
    return math.log1p(1.0 / (M * (M + 2))) / math.log1p(1.0 / N)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_{k>=0} (a + k)**-s for s > 1, a > 0.

    Euler-Maclaurin at the start point with seven Bernoulli corrections:

        a**(1-s)/(s-1) + a**-s/2 + sum_j B_2j/(2j)! * (s)_(2j-1) * a**(-s-2j+1).

    For a >= 2*s + 28 the first omitted correction is below
    |B_16/16!| * 2**-15 * a**-s, which is under 2**-57 * zeta(s, a) because
    zeta(s, a) > a**(1-s)/(s-1) + a**-s/2 > 2.5 * a**-s there.  Only where a
    is smaller are terms (a + k)**-s summed directly, until it is not.
    Returns 0.0 once a**-s underflows there, where the value itself is
    below twice the smallest subnormal.
    """
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
    return head + a ** (1.0 - s) * (1.0 / (s - 1.0) + (0.5 + s * h / a) / a)


def _zeta_comb(coeffs, start: float, shift: float = 0.0) -> float:
    return sum(c * _hurwitz_zeta(s - shift, start) for s, c in coeffs)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol}")


def _geometric_mean_series(N: int, tol: float) -> tuple[float, int, float]:
    """log of the digit geometric mean; returns (value, terms used, tail bound)."""
    scale = math.log1p(1.0 / N)
    K = max(N + 32, 64)
    zeta_next = _hurwitz_zeta(12, K + 1)
    while _GEOMEAN_TAIL_NEXT * zeta_next > tol * scale and K < 1 << 24:
        K *= 2
        zeta_next = _hurwitz_zeta(12, K + 1)
    k = np.arange(N + 1, K + 1, dtype=np.float64)
    partial = math.log(N) * scale + float(np.sum(np.log1p(1.0 / (k - 1)) * np.log1p(1.0 / k)))
    tail = _zeta_comb(_GEOMEAN_TAIL, K + 1)
    bound = _GEOMEAN_TAIL_NEXT * zeta_next / scale
    return (partial + tail) / scale, K - N, bound


def khinchin(N: int, tol: float = 1e-12) -> float:
    """Almost-sure geometric mean of the digits.

    ``tol`` bounds the series truncation error of the *logarithm* of the
    result (so roughly its relative error).
    """
    check_index(N)
    _check_tol(tol)
    log_value, _, _ = _geometric_mean_series(N, tol)
    return math.exp(log_value)


def _holder_series(N: int, r: float, tol: float) -> tuple[float, int, float]:
    """Mean of digit**r under the invariant measure; (value, terms, tail bound)."""
    if not math.isfinite(r):
        raise ValueError(f"order r must be a finite number or >= 1, got {r}")
    # the undivided sum is about N**(r-1)/(1-r); below the normal range it loses digits
    if float(N) ** (r - 1) < sys.float_info.min:
        raise ValueError(f"order r = {r} is too negative for N = {N}: N**(r-1) underflows")
    scale = math.log1p(1.0 / N)
    K = max(N, 128)
    zeta_next = _hurwitz_zeta(9 - r, K + 1)
    while _LOG1P_BRANCH_NEXT * zeta_next > tol * scale and K < 1 << 24:
        K *= 2
        zeta_next = _hurwitz_zeta(9 - r, K + 1)
    k = np.arange(N, K + 1, dtype=np.float64)
    partial = float(np.sum(k**r * np.log1p(1.0 / (k * (k + 2.0)))))
    tail = _zeta_comb(_LOG1P_BRANCH_TAIL, K + 1, shift=r)
    bound = _LOG1P_BRANCH_NEXT * zeta_next / scale
    return (partial + tail) / scale, K - N + 1, bound


def holder_mean(N: int, r: float, tol: float = 1e-12) -> float:
    """Power mean of order r of the digits.

    Diverges for r >= 1 (the plain digit mean is already infinite); the
    divergence is signalled by returning math.inf explicitly.  r = 0 is the
    geometric mean and dispatches to :func:`khinchin`.  ``tol`` bounds the
    truncation error of the underlying series (the r-th power of the result).
    """
    check_index(N)
    _check_tol(tol)
    if r >= 1:
        return math.inf
    if r == 0:
        return khinchin(N, tol)
    value, _, _ = _holder_series(N, r, tol)
    return value ** (1.0 / r)


def dilog_theta(x: float) -> float:
    """Integral of log(1+t)/t from 0 to x, via its alternating power series.

    The series is summed until the next term drops below 1e-15 (which also
    bounds the truncation error); the endpoint x = 1, where the alternating
    series crawls, returns the closed-form value pi**2/12.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    if x == 0:
        return 0.0
    if x == 1:
        return math.pi**2 / 12
    total = 0.0
    k0 = 1
    chunk = 64
    while True:
        k = np.arange(k0, k0 + chunk, dtype=np.float64)
        terms = x**k / (k * k)
        signs = np.where(k % 2 == 1, 1.0, -1.0)
        total += float(np.sum(signs * terms))
        if terms[-1] <= 1e-15:
            return total
        k0 += chunk
        chunk = min(2 * chunk, 1 << 20)


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
    denom = math.log((math.sqrt(N * N + 4.0 * N) + N) / 2.0)
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
    def compute(
        cls, N: int, rs: Sequence[float] = (-1.0, 0.5), tol: float = 1e-12
    ) -> "ConstantsReport":
        check_index(N)
        _check_tol(tol)
        log_k, k_terms, k_bound = _geometric_mean_series(N, tol)
        diagnostics = {"khinchin": (k_terms, k_bound)}
        holder: list[tuple[float, float]] = []
        for r in rs:
            if r >= 1:
                holder.append((r, math.inf))
            elif r == 0:
                holder.append((r, math.exp(log_k)))
            else:
                value, terms, bound = _holder_series(N, r, tol)
                holder.append((r, value ** (1.0 / r)))
                diagnostics[f"holder[r={r:g}]"] = (terms, bound)
        lam = levy_lambda(N)
        lyap = 2.0 * lam + math.log(N)
        lyap_bound, denom_bound = lower_bounds(N)
        return cls(
            N=N,
            khinchin=math.exp(log_k),
            holder_means=tuple(holder),
            levy_lambda=lam,
            levy_L=lam + math.log(N),
            lyapunov=lyap,
            loch=math.log(10) / lyap,
            lower_bound_lyapunov=lyap_bound,
            lower_bound_denominator=denom_bound,
            diagnostics=diagnostics,
        )

    def to_record(self) -> dict:
        """Flatten to one JSON/CSV-friendly key-value record."""
        record: dict = {
            "N": self.N,
            "khinchin": self.khinchin,
            "levy_lambda": self.levy_lambda,
            "levy_L": self.levy_L,
            "lyapunov": self.lyapunov,
            "loch": self.loch,
            "lower_bound_lyapunov": self.lower_bound_lyapunov,
            "lower_bound_denominator": self.lower_bound_denominator,
        }
        for r, value in self.holder_means:
            record[f"holder_mean[r={r:g}]"] = "divergent" if math.isinf(value) else value
        for name, (terms, bound) in self.diagnostics.items():
            record[f"{name}_terms"] = terms
            record[f"{name}_tail_bound"] = bound
        return record
