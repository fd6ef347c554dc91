"""Empirical verification of the almost-everywhere laws by exact orbit sampling.

"Almost every point" is realized as random rationals with large denominators:
a trial draws p/q with q a random `denominator_bits`-bit integer, expands it
exactly, and averages observables along the orbit.  Exact arithmetic
sidesteps floating-point orbit divergence entirely, so the exact orbit is
ground truth for its full length.

Trials are independent: trial t reads the stream of ``PCG64(seed).jumped(t)``,
which begins t jumps of (phi - 1) * 2**128 draws (mod 2**128) into the seed's
own PCG64 stream, so results do not depend on execution order.  No per-trial
bit generator is built: one PCG64 is advanced to the first trial's start and,
after each trial's draw, on to the next trial's (see :func:`_sample_pairs`).
On 2 vCPUs with numpy 2.4 a 512-bit sample costs about 12 us in the Monte
Carlo loop and a lone :func:`sample_rational` call about 35 us.  The
stream's raw words are taken as bytes exactly as numpy's ``Generator.bytes``
would return them.  Each trial walks its reduced (p, q) once with the
list-returning exact kernel of :mod:`ncfrac.dynamics` and feeds every
requested observable from that one digit list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

from . import _np as np
from . import constants
from .dynamics import DEFAULT_MAX_TERMS, Expansion, _walk, check_index, expand, fixed_point

__all__ = [
    "OBSERVABLES",
    "EstimateReport",
    "SampleConfig",
    "birkhoff_estimate",
    "bound_achievement",
    "levy_estimate",
    "lyapunov_estimate",
    "orbit_estimates",
    "sample_orbit",
    "sample_rational",
]

OBSERVABLES = ("log-digit", "digit-power", "digit-indicator", "log-derivative",
               "denominator-growth")


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling plan for one index N."""

    N: int
    trials: int = 200
    denominator_bits: int = 512
    max_terms: int = DEFAULT_MAX_TERMS
    seed: int = 0

    def __post_init__(self) -> None:
        check_index(self.N)
        for name, least in (("trials", 1), ("denominator_bits", 64), ("max_terms", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or operator.index(value) < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if isinstance(self.seed, bool) or operator.index(self.seed) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class EstimateReport:
    """One empirical estimate next to its closed-form target.

    ``per_trial_std`` is the sample standard deviation of the per-trial
    statistics (on the averaging scale of the estimator, e.g. log scale for
    the geometric mean); divide by sqrt(trials) for the standard error.
    The deviations are derived from value and target once, on first read:
    NaN unless both are finite, and the relative one also at a zero target.
    Non-finite values (divergent observables) are serialized as strings so
    no bare infinity leaks into machine-readable output.
    """

    quantity: str
    value: float
    target: float
    per_trial_std: float = 0.0
    trials: int = 1
    terms: int = 0
    extras: dict = field(default_factory=dict)

    @cached_property
    def abs_deviation(self) -> float:
        if math.isfinite(self.value) and math.isfinite(self.target):
            return abs(self.value - self.target)
        return math.nan

    @cached_property
    def rel_deviation(self) -> float:
        return self.abs_deviation / abs(self.target) if self.target != 0 else math.nan

    def to_record(self) -> dict:
        def clean(v):
            if isinstance(v, list):
                return [clean(x) for x in v]
            if isinstance(v, float) and not math.isfinite(v):
                return "divergent" if math.isinf(v) else None
            return v

        record = {key: clean(getattr(self, key)) for key in (
            "quantity", "value", "target", "abs_deviation", "rel_deviation", "per_trial_std",
            "trials", "terms")}
        record.update({k: clean(v) for k, v in self.extras.items()})
        return record


# PCG64.jumped's step: (phi - 1) * 2**128 draws (O'Neill 2014)
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _sample_pairs(cfg: SampleConfig, trials: range) -> Iterator[tuple[int, int]]:
    """Reduced (p, q) of each trial's sample, for consecutive trial indices.

    Trial t reads the stream of ``PCG64(cfg.seed).jumped(t)``: one bit
    generator is advanced by start * _JUMP to the first trial's start, and
    after each trial by _JUMP less the words that trial read, which is the
    next trial's start.  Each draw reads the next 4*ceil(nbytes/4) bytes of
    the stream as little-endian words and keeps the first nbytes =
    ceil(bits/8): exactly numpy's ``Generator.bytes(nbytes)``.  The first
    draw gives q's low bits, and p is drawn until 1 <= p < q.
    """
    bits = cfg.denominator_bits
    nbytes = (bits + 7) // 8
    words = -(-nbytes // 4)  # raw 64-bit words per two draws
    top = 1 << (bits - 1)
    bitgen = np.random.PCG64(cfg.seed)
    bitgen.advance(trials.start * _JUMP)
    raw = bitgen.random_raw

    def draw() -> tuple[int, int, int]:
        """(p, q) and the raw words read."""
        q = used = 0
        while True:
            chunk = raw(words).astype("<u8", copy=False).tobytes()
            used += words
            for start in (0, 4 * words):
                value = int.from_bytes(chunk[start:start + nbytes], "big")
                if not q:
                    q = top | value & (top - 1)
                elif 1 <= (p := value & (2 * top - 1)) < q:
                    g = math.gcd(p, q)
                    return p // g, q // g, used

    for _ in trials:
        p, q, used = draw()
        yield p, q
        bitgen.advance(_JUMP - used)


def sample_rational(cfg: SampleConfig, trial: int = 0) -> Fraction:
    """Random p/q with q an exact `denominator_bits`-bit integer, p uniform in [1, q).

    The one-trial case of the sampler that :func:`orbit_estimates` runs over
    every trial (see :func:`_sample_pairs`).
    """
    if operator.index(trial) < 0:
        raise ValueError(f"trial must be a non-negative integer, got {trial}")
    return Fraction(*next(_sample_pairs(cfg, range(trial, trial + 1))))


def sample_orbit(cfg: SampleConfig, trial: int = 0) -> Expansion:
    """Exact expansion of one sampled rational, truncated at cfg.max_terms.

    Expansion length before termination (denominators cannot outgrow q) lies
    between denominator_bits * log(2) / levy_L(N) and
    denominator_bits * log(2) / levy_lambda(N); the two bounds meet at N = 1.
    """
    return expand(sample_rational(cfg, trial), cfg.N, cfg.max_terms)


def _growth_rate(digits: list[int], log_ratio: float, x_n: float, N: int) -> float:
    """log(B_n)/n of one orbit from log_ratio = log(x_0 * ... * x_{n-1}) and its last image x_n.

    x_0 * ... * x_{n-1} = N^n / (B_n + x_n * B_{n-1}), with rho_n = B_{n-1} / B_n
    from rho_k = 1 / (a_k + N * rho_{k-1}), rho_0 = 0; a terminated orbit has
    x_n = 0, where log1p(x_n * rho_n) = 0 needs no rho.
    """
    n = len(digits)
    if x_n == 0:
        return (n * math.log(N) - log_ratio) / n
    rho = 0.0
    for a in digits:
        try:
            rho = 1.0 / (a + N * rho)
        except OverflowError:  # a is beyond the float range, where N * rho <= 1 is negligible
            rho = 1 / a
    return (n * math.log(N) - log_ratio - math.log1p(x_n * rho)) / n


def _lyapunov_rate(n: int, log_ratio: float, N: int) -> float:
    """Mean of log(N / x_k^2) over n steps; log_ratio is log(x_0 * ... * x_{n-1})."""
    return (n * math.log(N) - 2.0 * log_ratio) / n


def _digit_power(a: int, r: float) -> float:
    """a**r as exp(r log a); 1 at digit 1 even for r = inf, inf past the float range."""
    if a == 1:
        return 1.0
    try:
        return math.exp(r * math.log(a))
    except OverflowError:
        return math.inf


def _divergence_report(cfg: SampleConfig, quantity: str, r: float, orbits: list[list[int]],
                       terms: int) -> EstimateReport:
    """Running means of digit**r over every orbit's digits in turn; no finite estimate exists."""
    # float addition past the float range gives inf without raising
    sums = list(accumulate(_digit_power(a, r) for digits in orbits for a in digits))
    marks = [n for n in (100, 300, 1000, 3000, 10000, 30000, 100000) if n <= terms]
    if not marks or marks[-1] != terms:
        marks.append(terms)
    return EstimateReport(
        quantity, math.inf, math.inf,
        trials=cfg.trials,
        terms=terms,
        extras={
            "diverges": True,
            "checkpoints": marks,
            "running_means": [sums[n - 1] / n for n in marks],
        },
    )


def _pooled(cfg: SampleConfig, quantity: str, target: float, stat: Callable,
            pool: Callable = lambda grand, means: (grand, {})) -> tuple[Callable, Callable]:
    """(stat, report) of a request whose report pools its per-trial means.

    pool(grand, means) gives the value and extras from the grand mean and the
    array of per-trial means; by default the value is the grand mean.
    """

    def report(means: list[float], terms: int) -> EstimateReport:
        means = np.array(means)
        grand = float(means.mean())
        std = float(means.std(ddof=1)) if cfg.trials > 1 else 0.0
        value, extras = pool(grand, means)
        return EstimateReport(
            quantity, value, target,
            per_trial_std=std, trials=cfg.trials, terms=terms, extras=extras,
        )

    return stat, report


def _resolve(cfg: SampleConfig, observable: str, param) -> tuple[Callable, Callable]:
    """A request's per-trial stat(digits, log_ratio, x_n) and its report(stats, terms).

    Each branch checks its request and works out its label and target (M = N
    by default) before any sampling, so a target function rejects what it
    cannot evaluate without drawing a sample, and a parameter given to an
    observable that takes none raises ValueError.
    """
    N = cfg.N
    if param is not None and observable in ("log-digit", "log-derivative", "denominator-growth"):
        raise ValueError(f"{observable} takes no parameter, got {param!r}")
    if observable == "log-digit":
        quantity = "geometric-mean"
        return _pooled(cfg, quantity, constants.khinchin(N),
                       lambda digits, *_: sum(map(math.log, digits)) / len(digits),
                       lambda grand, means: (constants._checked(quantity, N, math.exp, grand),
                                             {"scale": "log", "log_value": grand}))
    if observable == "digit-power":
        if param is None:
            raise ValueError("digit-power needs the exponent r")
        if param == 0:
            raise ValueError("order 0 is the geometric mean; use the log-digit observable")
        target = constants.holder_mean(N, param)
        label = constants._order_label(param)
        quantity = f"digit-power[r={label}]"
        if param >= 1:  # diverges: a diagnostic over the trials' digits, with no series behind it
            return lambda digits, *_: digits, partial(_divergence_report, cfg, quantity, param)
        return _pooled(
            cfg, quantity, target,
            lambda digits, *_: sum(math.exp(param * math.log(a)) for a in digits) / len(digits),
            lambda grand, means: (grand ** (1.0 / param),
                                  {"scale": f"power[{label}]", "power_mean": grand}))
    if observable == "digit-indicator":
        param = N if param is None else param
        return _pooled(cfg, f"digit-frequency[M={param}]", constants.frequency(N, param),
                       lambda digits, *_: digits.count(param) / len(digits))
    if observable == "log-derivative":
        return _pooled(cfg, "lyapunov", constants.lyapunov_const(N),
                       lambda digits, log_ratio, _: _lyapunov_rate(len(digits), log_ratio, N))
    if observable == "denominator-growth":
        return _pooled(
            cfg, "denominator-growth", constants.levy_L(N),
            lambda *orbit: _growth_rate(*orbit, N),
            lambda grand, means: (grand, {"min_rate": float(means.min()),
                                          "denominator_bound": constants.lower_bounds(N)[1]}))
    raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")


def orbit_estimates(cfg: SampleConfig, observables: Sequence[tuple]) -> list[EstimateReport]:
    """One report per (observable, parameter) pair, from one exact pass per orbit.

    Observables (OBSERVABLES) and their targets: "log-digit", khinchin;
    "digit-power" with exponent r, holder_mean (r >= 1 yields a divergence
    diagnostic instead); "digit-indicator" with digit M (default N),
    frequency; "log-derivative", lyapunov_const; "denominator-growth",
    log(B_n)/n at the deepest n, levy_L, with the minimum per-trial rate and
    the denominator lower bound, which every trial must respect, in extras.
    Each request's resolver (:func:`_resolve`) works out its target before the
    first orbit is sampled, so a request that its target function rejects
    fails without drawing a sample; a divergent power's per-trial statistic
    is the trial's digit list, and its report pools them in trial order.

    The pass builds no convergent.  The orbit's product telescopes,
    x_0 * ... * x_{n-1} = N^n / (B_n + x_n * B_{n-1}), so the same log ratio
    gives the Lyapunov sum and log(B_n) (see :func:`_growth_rate`), where the
    ratio B_{n-1}/B_n comes from a float recursion over the digits, run only
    on a truncated orbit: a terminated one has x_n = 0.
    """
    requests = [_resolve(cfg, name, param) for name, param in observables]
    stats: list[list] = [[] for _ in requests]
    terms = 0
    for p0, q0 in _sample_pairs(cfg, range(cfg.trials)):
        digits, p, q = _walk(p0, q0, cfg.N, cfg.max_terms)
        # q is the last numerator stepped from: x_0 * ... * x_{n-1} = q / q0
        log_ratio = math.log(q) - math.log(q0)
        for (stat, _), out in zip(requests, stats):
            out.append(stat(digits, log_ratio, p / q))
        terms += len(digits)
    return [report(out, terms) for (_, report), out in zip(requests, stats)]


def birkhoff_estimate(
    cfg: SampleConfig,
    observable: str,
    *,
    r: Optional[float] = None,
    M: Optional[int] = None,
) -> EstimateReport:
    """Orbit average of one observable against its closed-form space average.

    observable is one of OBSERVABLES (see :func:`orbit_estimates`); r is the
    exponent of "digit-power" and M the digit of "digit-indicator"; either
    given to another observable raises ValueError before any sample is drawn.
    """
    param, stray, name = (r, M, "M") if observable == "digit-power" else (M, r, "r")
    if stray is not None:
        raise ValueError(f"{observable} takes no {name}, got {name} = {stray!r}")
    return orbit_estimates(cfg, [(observable, param)])[0]


def lyapunov_estimate(cfg: SampleConfig) -> EstimateReport:
    """Mean of log|T'| along exact orbits; target 2*levy_lambda(N) + log(N)."""
    return birkhoff_estimate(cfg, "log-derivative")


def levy_estimate(cfg: SampleConfig) -> EstimateReport:
    """Per-trial log(B_n)/n at the deepest available n; target levy_L(N).

    B_n is not built: x_0 * ... * x_{n-1} = N^n / (B_n + x_n * B_{n-1}) gives
    log(B_n) from the orbit itself (see :func:`orbit_estimates`).
    """
    return birkhoff_estimate(cfg, "denominator-growth")


def bound_achievement(N: int, depth: int = 200) -> list[EstimateReport]:
    """Check that the constant-digit-N orbit attains both worst-case bounds.

    Returns two reports.  Denominator growth: the trace of `depth` constant
    digits has log(B_n)/n -> the denominator bound, but with an intrinsic
    O(1/n) offset (log B_n = n*log(rho) + log(c) + o(1)); the headline value
    is therefore the drift-free increment log(B_n) - log(B_{n-1}), which
    converges exponentially, while the plain Cesaro value and its deviation
    history stay available in extras.  Lyapunov: the orbit of a fixed-point
    approximation p_0/q_0 sharp enough to survive `depth` exact steps is
    averaged directly.

    Its k = depth digit-N steps (p, q) -> (N*q - N*p, p) are not walked: the
    recursion B_n = N*(B_{n-1} + B_{n-2}) above gives the pair they reach,
    p_k = (-1)**k * (B_k*p_0 - N*B_{k-1}*q_0) and q_k = p_{k-1}.  If
    0 < p_k < q_k, all k digits are N (Lehmer 1938, as in the batches of
    dynamics._walk): going back from x_k = p_k/q_k in (0, 1), each
    x_{j-1} = N/(N + x_j) lies in (N/(N + 1), 1), whose digit is N.
    Conversely an all-N orbit ends on this pair with p_k > 0, since digit N
    leaves no remainder only at x = 1.  So the check fails exactly where an
    exact walk finds another digit, and q_k is the walk's own last numerator.
    fixed_point rounds down, and the error grows about N-fold a step with
    alternating sign, so at odd k it ends towards x = 1, about 1/N away, and
    needs about (k + 1)*log10(N) digits.  Where the first precision,
    k*levy_L(N)/log(10) + 60, falls short of that (N = 10**67 at k = 11),
    twice as many digits are used, which exceed it; extras["precision_digits"]
    reports the digits used.
    """
    check_index(N)
    if depth < 10:
        raise ValueError(f"depth must be >= 10, got {depth}")
    lyap_bound, denom_bound = constants.lower_bounds(N)

    # B_n = N * (B_{n-1} + B_{n-2}) from B_{-1} = 0, B_0 = 1, ending on B_k, B_{k-1}
    # and B_{k-2}; log B_n only where read
    logged = {*range(20, depth + 1, 20), depth - 1, depth}
    log_b, b3, b2, b1 = {}, 0, 0, 1
    for n in range(1, depth + 1):
        b3, b2, b1 = b2, b1, N * (b1 + b2)
        if n in logged:
            log_b[n] = math.log(b1)
    cesaro_history = {
        n: abs(log_b[n] / n - denom_bound) for n in range(20, depth + 1, 20)
    }
    denom_report = EstimateReport(
        "denominator-growth[const-digit]",
        log_b[depth] - log_b[depth - 1],
        denom_bound,
        trials=1,
        terms=depth,
        extras={
            "estimator": "increment",
            "cesaro": log_b[depth] / depth,
            "cesaro_deviation": abs(log_b[depth] / depth - denom_bound),
            "cesaro_deviation_by_depth": cesaro_history,
        },
    )

    # enough digits that `depth` steps cannot burn through the approximation
    first = int(depth * constants.levy_L(N) / math.log(10)) + 60
    sign = -1 if depth % 2 else 1
    for digits in (first, 2 * first):
        z = fixed_point(N, N, digits=digits)
        p0, q0 = z.numerator, z.denominator
        p = sign * (b1 * p0 - N * b2 * q0)
        q = sign * (N * b3 * q0 - b2 * p0)
        if 0 < p < q:
            break
    else:
        raise RuntimeError("fixed-point approximation ran out of precision")
    log_ratio = math.log(q) - math.log(q0)
    lyap_report = EstimateReport(
        "lyapunov[const-digit]",
        _lyapunov_rate(depth, log_ratio, N),
        lyap_bound,
        trials=1,
        terms=depth,
        extras={"precision_digits": digits},
    )
    return [denom_report, lyap_report]

