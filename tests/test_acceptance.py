"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live); the asserted tolerances are pinned here and nowhere else.  Monte Carlo
criteria are seed-fixed (seed 0) and therefore deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from ncfrac import (
    SampleConfig,
    bound_achievement,
    build_model,
    cdf,
    convergent_sequence,
    determinant_check,
    error_bounds_check,
    evaluate,
    expand,
    holder_mean,
    khinchin,
    lambda_asymptotic,
    levy_lambda,
    lower_bounds,
    orbit_estimates,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_digit_geometric_mean_constants():
    published = {1: 2.685452, 2: 5.412652, 3: 8.136460}
    worst = 0.0
    slowest = 0.0
    for N, expected in published.items():
        start = time.perf_counter()
        value = khinchin(N)
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(value - expected))
        slowest = max(slowest, elapsed)
    ok = worst < 1e-5 and slowest < 1.0
    _line(1, ok, f"K_1..K_3 vs published 6-digit values: worst |diff|={worst:.2e} "
                 f"(tol 1e-5), slowest call {slowest * 1e3:.1f}ms (limit 1s)")


def test_criterion_02_levy_exponent_anchor():
    closed_form = math.pi**2 / (12 * math.log(2))
    impl_gap = abs(levy_lambda(1) - closed_form)
    # independent series oracle: alternating sum of (-1)^(k-1)/k^2, error
    # bounded by the first omitted term 1/(K+1)^2
    k = np.arange(1, 4_000_001, dtype=np.float64)
    series = float(np.sum(np.where(k % 2 == 1, 1.0, -1.0) / (k * k)))
    series_gap = abs(series / math.log(2) - closed_form)
    ok = impl_gap < 1e-12 and series_gap < 1e-12
    _line(2, ok, f"levy_lambda(1) vs pi^2/(12 log 2): impl |diff|={impl_gap:.2e}, "
                 f"raw-series |diff|={series_gap:.2e} (tol 1e-12)")


def test_criterion_03_limit_laws_at_desk_scale():
    geo = abs(khinchin(1000) / 1000 / math.e - 1)
    harmonic = abs(holder_mean(100, -1.0) / 100 / 2.0 - 1)
    half = abs(holder_mean(100, 0.5) / 100 / 4.0 - 1)
    lam = abs(levy_lambda(1000) - 1.0)
    ok = geo < 0.002 and harmonic < 0.01 and half < 0.02 and lam < 1e-3
    _line(3, ok, f"K_1000/1000 vs e rel={geo:.2e} (0.2%), K_(100,-1)/100 vs 2 "
                 f"rel={harmonic:.2e} (1%), K_(100,1/2)/100 vs 4 rel={half:.2e} (2%), "
                 f"|levy_lambda(1000)-1|={lam:.2e} (1e-3)")


def test_criterion_04_asymptotic_expansion():
    gap_50 = abs(lambda_asymptotic(50) - levy_lambda(50))
    gap_500 = abs(lambda_asymptotic(500) - levy_lambda(500))
    ok = gap_50 < 1e-6 and gap_500 < 1e-8
    _line(4, ok, f"cubic 1/N expansion: |diff|(N=50)={gap_50:.2e} (tol 1e-6), "
                 f"|diff|(N=500)={gap_500:.2e} (tol 1e-8)")


def test_criterion_05_exact_identity_property_suite():
    rng = random.Random(20240808)
    start = time.perf_counter()
    cases = 0
    for N in (1, 2, 3, 5, 10):
        for _ in range(2000):
            q = rng.randint(10**4, 10**9)
            x = Fraction(rng.randint(1, q - 1), q)
            exp = expand(x, N)
            assert exp.terminated
            assert evaluate(exp.coeffs, N) == x, "round trip broke"
            trace = convergent_sequence(exp.coeffs, N)
            assert determinant_check(trace), "determinant identity broke"
            assert all(c.B >= N**c.n for c in trace.convergents), "growth bound broke"
            assert error_bounds_check(trace, x), "error sandwich broke"
            cases += 1
    elapsed = time.perf_counter() - start
    ok = cases == 10_000 and elapsed < 30.0
    _line(5, ok, f"determinant/growth/round-trip/sandwich exact on {cases} random "
                 f"rationals, N in (1,2,3,5,10), in {elapsed:.1f}s (limit 30s)")


def test_criterion_06_cdf_self_consistency():
    rng = random.Random(777)
    worst = 0.0
    for N in range(1, 11):
        for _ in range(1000):
            t = rng.uniform(0.0, 10.0)
            gap = abs(cdf(N, 1 + t) - cdf(N, t) - cdf(N, N / (N + t)))
            worst = max(worst, gap)
    ok = worst < 1e-12
    _line(6, ok, f"F(1+t) = F(t) + F(N/(N+t)) over 10^3 t per N, N=1..10: "
                 f"worst |gap|={worst:.2e} (tol 1e-12)")


def test_criterion_07_birkhoff_suite():
    start = time.perf_counter()
    worst = 0.0
    details = []
    for N in (1, 2, 5):
        cfg = SampleConfig(N=N, trials=200, denominator_bits=512, seed=0)
        estimates = orbit_estimates(cfg, [("log-digit", None), ("digit-indicator", None),
                                          ("log-derivative", None), ("denominator-growth", None)])
        for report in estimates:
            worst = max(worst, report.rel_deviation)
        details.append(f"N={N} worst={max(r.rel_deviation for r in estimates):.3%}")
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 120.0
    _line(7, ok, "geometric mean, digit frequency, lyapunov, log(B_n)/n at "
                 f"trials=200 bits=512 seed=0: {'; '.join(details)} "
                 f"(tol 2%), {elapsed:.1f}s (limit 2min)")


def test_criterion_08_bound_achievement():
    worst = 0.0
    for N in (1, 2, 3):
        denom_report, lyap_report = bound_achievement(N, depth=200)
        worst = max(worst, denom_report.abs_deviation, lyap_report.abs_deviation)
    identity_worst = 0.0
    for N in range(1, 101):
        lyap, denom = lower_bounds(N)
        identity_worst = max(identity_worst, abs(2 * denom - math.log(N) - lyap))
    ok = worst < 1e-3 and identity_worst < 1e-12
    _line(8, ok, f"constant-digit orbit at depth 200 attains both bounds: worst "
                 f"|dev|={worst:.2e} (tol 1e-3); bound identity N=1..100 worst "
                 f"|gap|={identity_worst:.2e} (tol 1e-12)")


def test_criterion_09_transfer_operator_recovery():
    worst_l1 = 0.0
    slowest = 0.0
    monotone = True
    for N in (1, 2, 3, 5, 10):
        errors = {}
        for m in (32, 128, 512):
            start = time.perf_counter()
            errors[m] = build_model(N, m).l1_error
            slowest = max(slowest, time.perf_counter() - start)
        worst_l1 = max(worst_l1, errors[512])
        monotone = monotone and errors[32] > errors[128] > errors[512]
    ok = worst_l1 < 0.01 and monotone and slowest < 60.0
    _line(9, ok, f"stationary density L1 error at m=512, N in (1,2,3,5,10): worst "
                 f"{worst_l1:.2e} (tol 0.01), strictly decreasing over m=32/128/512: "
                 f"{monotone}, slowest build {slowest:.2f}s (limit 1min/N)")


def test_criterion_10_divergence_diagnostics():
    inf_ok = all(math.isinf(holder_mean(N, 1.0)) for N in (1, 2, 5))
    cfg = SampleConfig(N=1, trials=200, denominator_bits=512, seed=0)
    (report,) = orbit_estimates(cfg, [("digit-power", 1.0)])
    marks = report.extras["checkpoints"]
    means = report.extras["running_means"]
    early_bound = means[marks.index(1000)]
    grows = means[-1] > early_bound and math.isinf(report.value)
    ok = inf_ok and grows
    trail = ", ".join(f"{m}:{v:.1f}" for m, v in zip(marks, means))
    _line(10, ok, f"order-1 digit mean signals +inf: {inf_ok}; running mean "
                  f"outgrows its value at 1000 terms ({early_bound:.1f}): "
                  f"checkpoints {trail}")
