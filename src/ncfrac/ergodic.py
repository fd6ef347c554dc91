"""Empirical verification of the almost-everywhere laws by exact orbit sampling.

"Almost every point" is realized as random rationals with large denominators:
a trial draws p/q with q a random `denominator_bits`-bit integer, expands it
exactly, and averages observables along the orbit.  Exact arithmetic
sidesteps floating-point orbit divergence entirely: a double-precision
shadow orbit loses roughly lyapunov/log(2) mantissa bits per step and its
digits go wrong within a few dozen steps (see :func:`shadow_divergence_step`),
while the exact orbit is ground truth for its full length.

Trials are independent: each trial reads its own PCG64 stream, seeded by
(seed, trial index), so results do not depend on execution order.  The
stream's raw words are taken as bytes exactly as numpy's ``Generator.bytes``
would return them (see :func:`sample_rational`).  Each trial walks its orbit
once with the list-returning exact kernel of :mod:`ncfrac.dynamics` and
feeds every requested observable from that one digit list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import constants
from .convergents import convergent_sequence
from .dynamics import Expansion, RationalLike, _walk, check_index, expand, fixed_point

__all__ = [
    "OBSERVABLES",
    "EstimateReport",
    "SampleConfig",
    "birkhoff_estimate",
    "bound_achievement",
    "float_shadow_digits",
    "levy_estimate",
    "lyapunov_estimate",
    "orbit_estimates",
    "sample_orbit",
    "sample_rational",
    "shadow_divergence_step",
]

OBSERVABLES = ("log-digit", "digit-power", "digit-indicator", "log-derivative",
               "denominator-growth")


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling plan for one index N."""

    N: int
    trials: int = 200
    denominator_bits: int = 512
    max_terms: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        check_index(self.N)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.denominator_bits < 64:
            raise ValueError(f"denominator_bits must be >= 64, got {self.denominator_bits}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass
class EstimateReport:
    """One empirical estimate next to its closed-form target.

    ``per_trial_std`` is the sample standard deviation of the per-trial
    statistics (on the averaging scale of the estimator, e.g. log scale for
    the geometric mean); divide by sqrt(trials) for the standard error.
    Non-finite values (divergent observables) are serialized as strings so
    no bare infinity leaks into machine-readable output.
    """

    quantity: str
    value: float
    target: float
    abs_deviation: float
    rel_deviation: float
    per_trial_std: float
    trials: int
    terms: int
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_value(cls, quantity: str, value: float, target: float, *,
                   per_trial_std: float = 0.0, trials: int = 1, terms: int = 0,
                   extras: Optional[dict] = None) -> "EstimateReport":
        finite = math.isfinite(value) and math.isfinite(target)
        abs_dev = abs(value - target) if finite else math.nan
        rel_dev = abs_dev / abs(target) if finite and target != 0 else math.nan
        return cls(quantity, value, target, abs_dev, rel_dev, per_trial_std, trials, terms,
                   dict(extras or {}))

    def to_record(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return "divergent" if math.isinf(v) else None
            return v

        record = {key: clean(getattr(self, key)) for key in (
            "quantity", "value", "target", "abs_deviation", "rel_deviation", "per_trial_std",
            "trials", "terms")}
        record.update({k: clean(v) for k, v in self.extras.items()})
        return record


def sample_rational(cfg: SampleConfig, trial: int = 0) -> Fraction:
    """Random p/q with q an exact `denominator_bits`-bit integer, p uniform in [1, q).

    Each draw reads the next 4*ceil(nbytes/4) bytes of the (seed, trial) PCG64
    output as little-endian words and keeps the first nbytes = ceil(bits/8):
    exactly numpy's ``Generator.bytes(nbytes)``, without its per-call cost.
    """
    bits = cfg.denominator_bits
    nbytes = (bits + 7) // 8
    step = -(-nbytes // 4) * 4
    raw = np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(trial,))).random_raw
    stream = b""
    top = 1 << (bits - 1)
    for start in itertools.count(0, step):
        if len(stream) < start + nbytes:
            stream += raw(step // 4).astype("<u8").tobytes()  # two draws
        draw = int.from_bytes(stream[start:start + nbytes], "big")
        if start == 0:
            q = top | draw & (top - 1)
        elif 1 <= (p := draw & (2 * top - 1)) < q:
            return Fraction(p, q)


def sample_orbit(cfg: SampleConfig, trial: int = 0) -> Expansion:
    """Exact expansion of one sampled rational, truncated at cfg.max_terms.

    Expansion length is about denominator_bits * log(2) / levy_L(N) before
    termination (denominators cannot outgrow q).
    """
    return expand(sample_rational(cfg, trial), cfg.N, cfg.max_terms)


def _check_observable(cfg: SampleConfig, observable: str, param) -> tuple[str, Optional[float]]:
    """Validate one (observable, parameter) request; fill in the default digit M = N."""
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")
    if observable == "digit-power":
        if param is None:
            raise ValueError("digit-power needs the exponent r")
        if param == 0:
            raise ValueError("order 0 is the geometric mean; use the log-digit observable")
    elif observable == "digit-indicator":
        param = cfg.N if param is None else param
        if param < cfg.N:
            raise ValueError(f"digit {param} can never occur (digits are >= {cfg.N})")
    return observable, param


def _trial_mean(observable: str, param, digits: list[int], log_ratio: float, x_n: float,
                N: int) -> float:
    """Per-trial mean of one observable.

    log_ratio is log(x_0 * ... * x_{n-1}) and x_n the last image (0 when the
    orbit terminated).
    """
    n = len(digits)
    if observable == "log-digit":
        return sum(map(math.log, digits)) / n
    if observable == "digit-power":
        return sum(math.exp(param * math.log(a)) for a in digits) / n
    if observable == "digit-indicator":
        return digits.count(param) / n
    if observable == "log-derivative":
        # sum of log(N / x_k^2)
        return (n * math.log(N) - 2.0 * log_ratio) / n
    # denominator-growth: x_0 * ... * x_{n-1} = N^n / (B_n + x_n * B_{n-1}),
    # with rho_n = B_{n-1} / B_n from rho_k = 1 / (a_k + N * rho_{k-1}), rho_0 = 0
    rho = 0.0
    for a in digits:
        try:
            rho = 1.0 / (a + N * rho)
        except OverflowError:  # a is beyond the float range, where N * rho <= 1 is negligible
            rho = 1 / a
    return (n * math.log(N) - log_ratio - math.log1p(x_n * rho)) / n


def _divergence_report(cfg: SampleConfig, r: float, digits: list[int]) -> EstimateReport:
    """Running means of digit**r pooled over trials; no finite estimate exists."""
    powers = np.array([math.exp(r * math.log(a)) for a in digits])
    running = np.cumsum(powers) / np.arange(1, len(powers) + 1)
    marks = [n for n in (100, 300, 1000, 3000, 10000, 30000, 100000) if n <= len(powers)]
    if not marks or marks[-1] != len(powers):
        marks.append(len(powers))
    return EstimateReport.from_value(
        f"digit-power[r={r:g}]",
        math.inf,
        math.inf,
        trials=cfg.trials,
        terms=int(len(powers)),
        extras={
            "diverges": True,
            "checkpoints": marks,
            "running_means": [float(running[n - 1]) for n in marks],
        },
    )


def _estimate_report(cfg: SampleConfig, observable: str, param, means: list[float],
                     terms: int) -> EstimateReport:
    """Pool per-trial means into one report against the closed-form target."""
    means = np.array(means)
    grand = float(means.mean())
    std = float(means.std(ddof=1)) if cfg.trials > 1 else 0.0
    value, extras = grand, {}
    if observable == "log-digit":
        quantity, target = "geometric-mean", constants.khinchin(cfg.N)
        value = constants._checked(quantity, cfg.N, math.exp, grand)
        extras = {"scale": "log", "log_value": grand}
    elif observable == "digit-power":
        quantity, value = f"digit-power[r={param:g}]", grand ** (1.0 / param)
        target = constants.holder_mean(cfg.N, param)
        extras = {"scale": f"power[{param:g}]", "power_mean": grand}
    elif observable == "digit-indicator":
        quantity, target = f"digit-frequency[M={param}]", constants.frequency(cfg.N, param)
    elif observable == "log-derivative":
        quantity, target = "lyapunov", constants.lyapunov_const(cfg.N)
    else:
        quantity, target = "denominator-growth", constants.levy_L(cfg.N)
        _, denom_bound = constants.lower_bounds(cfg.N)
        extras = {"min_rate": float(means.min()), "denominator_bound": denom_bound}
    return EstimateReport.from_value(
        quantity, value, target,
        per_trial_std=std, trials=cfg.trials, terms=terms, extras=extras,
    )


def orbit_estimates(cfg: SampleConfig, observables: Sequence[tuple]) -> list[EstimateReport]:
    """One report per (observable, parameter) pair, from one exact pass per orbit.

    Observables (OBSERVABLES) and their targets: "log-digit", khinchin;
    "digit-power" with exponent r, holder_mean (r >= 1 yields a divergence
    diagnostic instead); "digit-indicator" with digit M (default N),
    frequency; "log-derivative", lyapunov_const; "denominator-growth",
    log(B_n)/n at the deepest n, levy_L, with the minimum per-trial rate and
    the denominator lower bound, which every trial must respect, in extras.

    The pass builds no convergent.  The orbit's product telescopes,
    x_0 * ... * x_{n-1} = N^n / (B_n + x_n * B_{n-1}), so the same log ratio
    gives the Lyapunov sum and log(B_n) = n*log(N) - log(x_0 ... x_{n-1})
    - log1p(x_n * B_{n-1}/B_n), where the ratio B_{n-1}/B_n comes from a
    float recursion over the digits and x_n is 0 on a terminated orbit.
    """
    requests = [_check_observable(cfg, name, param) for name, param in observables]
    # a divergent power has no per-trial mean; its report pools every digit
    means = [None if name == "digit-power" and param >= 1 else [] for name, param in requests]
    pooled: list[int] = []
    terms = 0
    for trial in range(cfg.trials):
        x = sample_rational(cfg, trial)
        digits, p, q = _walk(x.numerator, x.denominator, cfg.N, cfg.max_terms)
        # q is the last numerator stepped from: x_0 * ... * x_{n-1} = q / x.denominator
        log_ratio = math.log(q) - math.log(x.denominator)
        for (name, param), out in zip(requests, means):
            if out is not None:
                out.append(_trial_mean(name, param, digits, log_ratio, p / q, cfg.N))
        if None in means:
            pooled.extend(digits)
        terms += len(digits)
    return [
        _divergence_report(cfg, param, pooled) if out is None
        else _estimate_report(cfg, name, param, out, terms)
        for (name, param), out in zip(requests, means)
    ]


def birkhoff_estimate(
    cfg: SampleConfig,
    observable: str,
    *,
    r: Optional[float] = None,
    M: Optional[int] = None,
) -> EstimateReport:
    """Orbit average of one observable against its closed-form space average.

    observable is one of OBSERVABLES (see :func:`orbit_estimates`); r is the
    exponent of "digit-power" and M the digit of "digit-indicator".
    """
    return orbit_estimates(cfg, [(observable, r if observable == "digit-power" else M)])[0]


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
    approximation sharp enough to survive `depth` exact steps is averaged
    directly.
    """
    check_index(N)
    if depth < 10:
        raise ValueError(f"depth must be >= 10, got {depth}")
    lyap_bound, denom_bound = constants.lower_bounds(N)

    trace = convergent_sequence([N] * depth, N)
    log_b = [math.log(c.B) if c.B > 1 else 0.0 for c in trace.convergents]
    cesaro_history = {
        n: abs(log_b[n] / n - denom_bound) for n in range(20, depth + 1, 20)
    }
    denom_report = EstimateReport.from_value(
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
    digits = int(depth * constants.levy_L(N) / math.log(10)) + 60
    z = fixed_point(N, N, digits=digits)
    coeffs, _, q = _walk(z.numerator, z.denominator, N, depth)
    if coeffs != [N] * depth:
        raise RuntimeError("fixed-point approximation ran out of precision")
    log_ratio = math.log(q) - math.log(z.denominator)
    lyap_report = EstimateReport.from_value(
        "lyapunov[const-digit]",
        _trial_mean("log-derivative", None, coeffs, log_ratio, 0.0, N),
        lyap_bound,
        trials=1,
        terms=depth,
        extras={"precision_digits": digits},
    )
    return [denom_report, lyap_report]


def float_shadow_digits(x: RationalLike, N: int, max_terms: int = 200) -> list[int]:
    """Digits from a double-precision orbit. Inaccurate by design: diagnostic only."""
    check_index(N)
    y = float(Fraction(x))
    digits = []
    while len(digits) < max_terms:
        if not 0.0 < y < 1.0:
            break
        a = math.floor(N / y)
        digits.append(a)
        y = N / y - a
    return digits


def shadow_divergence_step(x: RationalLike, N: int, max_terms: int = 200) -> Optional[int]:
    """First index where the float shadow's digits part from the exact ones.

    None means no divergence was observed within max_terms; at double
    precision the shadow loses about lyapunov_const(N)/log(2) bits per step,
    so for generic points divergence shows up within a few dozen steps.
    """
    exact = expand(x, N, max_terms).coeffs
    shadow = float_shadow_digits(x, N, max_terms)
    for i, a in enumerate(shadow):
        if i >= len(exact) or exact[i] != a:
            return i
    if len(shadow) < min(len(exact), max_terms):
        return len(shadow)
    return None
