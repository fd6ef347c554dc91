"""
Monte Carlo orbit averages against the closed forms
---------------------------------------------------

Sample random 512-bit rationals, expand them exactly, and compare orbit
averages with their analytic targets: digit geometric mean, digit frequency,
Lyapunov exponent, and denominator growth.  Also demonstrate why exact
arithmetic is the ground truth: a double-precision shadow orbit loses roughly
lyapunov_const(N)/log(2) mantissa bits per step, so its digits go wrong within
a few dozen steps, while the exact orbit is right for its full length.
"""

import math

from ncfrac import SampleConfig, bound_achievement, expand, orbit_estimates, sample_rational


def shadow_divergence_step(x, N, max_terms=200):
    """First index where the double-precision orbit of x parts from the exact
    digits of expand(x, N, max_terms), by its digit or by ending sooner or
    later; None if the two agree up to max_terms or to their common end."""
    exact = expand(x, N, max_terms).coeffs
    y = float(x)
    for i, a in enumerate(exact):
        if not 0.0 < y < 1.0 or math.floor(N / y) != a:
            return i
        y = N / y - a
    return len(exact) if len(exact) < max_terms and 0.0 < y < 1.0 else None


for N in (1, 2, 5):
    cfg = SampleConfig(N=N, trials=200, denominator_bits=512, seed=0)
    print(f"\nindex N = {N} (200 trials, 512-bit denominators, seed 0)")
    print(f"  typical expansion length: {len(expand(sample_rational(cfg, 0), N))} digits")
    for report in orbit_estimates(cfg, [("log-digit", None), ("digit-indicator", None),
                                        ("log-derivative", None), ("denominator-growth", None)]):
        print(f"  {report.quantity:<24} empirical {report.value:>10.5f}   "
              f"target {report.target:>10.5f}   off by {report.rel_deviation:.3%}")

print("\nthe plain digit mean has no limit; its running mean keeps climbing:")
cfg = SampleConfig(N=1, trials=200, denominator_bits=512, seed=0)
(report,) = orbit_estimates(cfg, [("digit-power", 1.0)])
for mark, mean in zip(report.extras["checkpoints"], report.extras["running_means"]):
    print(f"  after {mark:>6} digits: running mean {mean:7.2f}")

print("\nworst-case orbit: constant digit N attains the lower bounds (depth 200)")
for N in (1, 2, 3):
    denom_report, lyap_report = bound_achievement(N, depth=200)
    print(f"  N={N}: log(B_n) increment {denom_report.value:.6f} vs bound "
          f"{denom_report.target:.6f}; orbit Lyapunov {lyap_report.value:.6f} vs "
          f"bound {lyap_report.target:.6f}")

print("\nfloat shadowing failure (exact digits vs double-precision digits):")
for trial in range(3):
    x = sample_rational(cfg, trial)
    step = shadow_divergence_step(x, 1)
    print(f"  trial {trial}: first digit mismatch at step {step}")
