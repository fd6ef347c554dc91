"""Monte Carlo orbit statistics: determinism, targets, and diagnostics.

All sampling is seed-fixed, so every asserted band below is a deterministic
regression check; the bands were chosen after inspecting the seeded values
and sit well inside the tolerances the estimators are designed for.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncfrac import (
    SampleConfig,
    birkhoff_estimate,
    bound_achievement,
    convergent_sequence,
    evaluate,
    expand,
    frequency,
    levy_L,
    levy_estimate,
    levy_lambda,
    lower_bounds,
    lyapunov_const,
    lyapunov_estimate,
    orbit,
    orbit_estimates,
    sample_orbit,
    sample_rational,
)
from ncfrac import ergodic
from ncfrac.dynamics import _walk, fixed_point

ORBIT_GOLDEN = Path(__file__).parent / "data" / "orbit_estimates_golden.json"
CFG = SampleConfig(N=1, trials=50, denominator_bits=256, seed=11)
CFG3 = SampleConfig(N=3, trials=50, denominator_bits=256, seed=11)


class TestSampling:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(N=0)
        with pytest.raises(ValueError):
            SampleConfig(N=1, trials=0)
        with pytest.raises(ValueError):
            SampleConfig(N=1, denominator_bits=32)
        with pytest.raises(ValueError, match="max_terms must be >= 1, got 0"):
            SampleConfig(N=1, max_terms=0)

    @pytest.mark.parametrize("name, fraction", [
        ("trials", 2.5), ("denominator_bits", 100.5), ("max_terms", 2.5)])
    def test_counts_must_be_integers(self, monkeypatch, name, fraction):
        # True would pass for a count of 1 and a float would reach the sampler only
        # after the targets are computed: both are refused before any draw
        draws = []
        monkeypatch.setattr(ergodic, "_sample_pairs", lambda cfg, trials: draws.append(cfg))
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            levy_estimate(SampleConfig(N=1, **{name: True}))
        with pytest.raises(TypeError):
            levy_estimate(SampleConfig(N=1, **{name: fraction}))
        assert draws == []

    def test_denominator_has_requested_bits(self):
        for trial in range(5):
            x = sample_rational(CFG, trial)
            assert x.denominator.bit_length() <= 256
            # before reduction q has exactly 256 bits; reduction rarely bites
            assert 0 < x < 1

    def test_deterministic_and_order_independent(self):
        batch = [sample_rational(CFG, t) for t in range(8)]
        again = [sample_rational(CFG, t) for t in reversed(range(8))]
        assert batch == list(reversed(again))

    def test_same_seed_same_expansion(self):
        assert sample_orbit(CFG, 3) == sample_orbit(CFG, 3)

    @pytest.mark.parametrize("bits", [64, 72, 96, 100, 512, 513, 4096])
    def test_raw_stream_matches_generator_bytes(self, bits):
        # the draws Generator.bytes makes on trial t's stream, PCG64(seed).jumped(t)
        def reference(cfg, trial):
            rng = np.random.Generator(np.random.PCG64(cfg.seed).jumped(trial))
            nbytes = (bits + 7) // 8
            q = 1 << (bits - 1) | int.from_bytes(rng.bytes(nbytes), "big") & ((1 << (bits - 1)) - 1)
            while True:
                p = int.from_bytes(rng.bytes(nbytes), "big") & ((1 << bits) - 1)
                if 1 <= p < q:
                    return p, q

        # seeds of up to seven 32-bit words; trials of up to three, whose
        # jumps wrap far past 2**128
        for seed in (0, 1, 11, 900, 2**40 + 3, 2**128 + 5, 2**200 + 1):
            cfg = SampleConfig(N=1, denominator_bits=bits, seed=seed)
            for trial in (*range(31), 2**32, 2**70):
                p, q = reference(cfg, trial)
                assert sample_rational(cfg, trial) == Fraction(p, q), (seed, trial)

    def test_consecutive_trials_match_one_trial_calls(self):
        # each trial reads its own number of words before the jump to the next
        # trial's start: three per draw pair at 96 bits, seventeen at 513 bits
        for bits in (96, 513):
            cfg = SampleConfig(N=1, denominator_bits=bits, seed=7)
            for trials in (range(12), range(2**64 - 2, 2**64 + 10)):
                pairs = list(ergodic._sample_pairs(cfg, trials))
                expected = [sample_rational(cfg, t) for t in trials]
                assert [Fraction(p, q) for p, q in pairs] == expected, (bits, trials)
                assert all(math.gcd(p, q) == 1 for p, q in pairs)

    def test_negative_seed_or_trial_rejected(self):
        # the config rejects a seed before any sample is drawn, a bool too
        for seed in (-1, True):
            with pytest.raises(ValueError,
                               match=f"^seed must be a non-negative integer, got {seed}$"):
                SampleConfig(N=1, seed=seed)
        with pytest.raises(TypeError):
            SampleConfig(N=1, seed=1.0)
        with pytest.raises(ValueError, match="^trial must be a non-negative integer, got -1$"):
            sample_rational(CFG, -1)

    def test_different_trials_differ(self):
        assert sample_rational(CFG, 0) != sample_rational(CFG, 1)

    def test_expansion_length_law_classical(self):
        cfg = SampleConfig(N=1, trials=20, denominator_bits=512, seed=1)
        lengths = [len(sample_orbit(cfg, t)) for t in range(20)]
        predicted = 512 * math.log(2) / levy_L(1)
        assert np.mean(lengths) == pytest.approx(predicted, rel=0.05)
        # beyond N = 1 the length lies strictly between the two bounds
        for N in (2, 5, 10):
            cfg = SampleConfig(N=N, trials=20, denominator_bits=512, seed=1)
            mean = np.mean([len(sample_orbit(cfg, t)) for t in range(20)])
            assert 512 * math.log(2) / levy_L(N) < mean < 512 * math.log(2) / levy_lambda(N)

    def test_larger_index_gives_shorter_expansions(self):
        cfg1 = SampleConfig(N=1, trials=10, denominator_bits=512, seed=1)
        cfg10 = SampleConfig(N=10, trials=10, denominator_bits=512, seed=1)
        len1 = np.mean([len(sample_orbit(cfg1, t)) for t in range(10)])
        len10 = np.mean([len(sample_orbit(cfg10, t)) for t in range(10)])
        assert len10 < len1


class TestBirkhoffEstimates:
    def test_geometric_mean(self):
        report = birkhoff_estimate(CFG, "log-digit")
        assert report.quantity == "geometric-mean"
        assert report.rel_deviation < 0.025
        assert report.trials == 50

    def test_digit_frequency_default_digit(self):
        report = birkhoff_estimate(CFG3, "digit-indicator")
        assert report.target == frequency(3, 3)
        assert report.rel_deviation < 0.03

    def test_digit_frequency_other_digit(self):
        report = birkhoff_estimate(CFG, "digit-indicator", M=2)
        assert report.target == frequency(1, 2)
        assert report.rel_deviation < 0.05

    def test_harmonic_digit_mean(self):
        report = birkhoff_estimate(CFG, "digit-power", r=-1.0)
        assert report.rel_deviation < 0.02

    def test_impossible_indicator_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_estimate(CFG3, "digit-indicator", M=2)

    def test_unknown_observable_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_estimate(CFG, "entropy")

    def test_power_needs_exponent(self):
        with pytest.raises(ValueError):
            birkhoff_estimate(CFG, "digit-power")

    def test_power_order_zero_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_estimate(CFG, "digit-power", r=0.0)

    @pytest.mark.parametrize("r", [1e-7, -1e-7, 1e-320])
    def test_power_order_too_close_to_zero_rejected_before_sampling(self, monkeypatch, r):
        def no_sampling(cfg, trials):
            raise AssertionError("sampled an orbit for an order that is out of reach")

        monkeypatch.setattr("ncfrac.ergodic._sample_pairs", no_sampling)
        with pytest.raises(ValueError, match="out of reach: .*r = 0 is the geometric mean"):
            orbit_estimates(SampleConfig(N=1), [("log-digit", None), ("digit-power", r)])

    @pytest.mark.parametrize("r", [math.nan, -math.inf])
    def test_non_finite_power_order_rejected_before_sampling(self, monkeypatch, r):
        calls = []
        monkeypatch.setattr("ncfrac.ergodic._sample_pairs",
                            lambda cfg, trials: calls.append(trials))
        with pytest.raises(ValueError, match="order r must be a finite number or >= 1"):
            orbit_estimates(SampleConfig(N=1), [("log-digit", None), ("digit-power", r)])
        assert calls == []

    @pytest.mark.parametrize("N, request_, error, message", [
        (10**200, ("digit-power", -1.0), ValueError, r"holder_mean\[r=-1\] .* out of reach"),
        (2**1024 - 2**971, ("log-digit", None), OverflowError, "khinchin .* float range"),
        (3, ("digit-indicator", 2), ValueError, "inadmissible digit 2 < N = 3$"),
        (3, ("digit-indicator", 2.5), ValueError, "digits must be integers, got 2.5"),
        (1, ("log-digit", 7), ValueError, "^log-digit takes no parameter, got 7$"),
        (1, ("log-derivative", 3), ValueError, "^log-derivative takes no parameter, got 3$"),
        (1, ("denominator-growth", 0.5), ValueError,
         r"^denominator-growth takes no parameter, got 0\.5$"),
    ], ids=["power-order-underflows", "khinchin-overflows", "digit-below-index",
            "fractional-digit", "log-digit-parameter", "log-derivative-parameter",
            "denominator-growth-parameter"])
    def test_unreachable_target_rejected_before_sampling(self, monkeypatch, N, request_,
                                                         error, message):
        calls = []
        monkeypatch.setattr("ncfrac.ergodic._sample_pairs",
                            lambda cfg, trials: calls.append(trials))
        with pytest.raises(error, match=message):
            orbit_estimates(SampleConfig(N=N), [("log-derivative", None), request_])
        assert calls == []

    @pytest.mark.parametrize("observable, params, message", [
        ("digit-indicator", {"r": 0.5}, r"^digit-indicator takes no r, got r = 0\.5$"),
        ("log-digit", {"r": -1.0}, r"^log-digit takes no r, got r = -1\.0$"),
        ("digit-power", {"r": -1.0, "M": 2}, "^digit-power takes no M, got M = 2$"),
        ("log-digit", {"M": 7}, "^log-digit takes no parameter, got 7$"),
    ], ids=["r-to-digit-indicator", "r-to-log-digit", "M-to-digit-power", "M-to-log-digit"])
    def test_stray_parameter_rejected_before_sampling(self, monkeypatch, observable, params,
                                                      message):
        calls = []
        monkeypatch.setattr("ncfrac.ergodic._sample_pairs",
                            lambda cfg, trials: calls.append(trials))
        with pytest.raises(ValueError, match=message):
            birkhoff_estimate(SampleConfig(N=1), observable, **params)
        assert calls == []

    def test_infinite_power_order_still_divergent(self, monkeypatch):
        calls = []
        sample_pairs = ergodic._sample_pairs

        def counting(cfg, trials):
            # one sample per trial, counted as the orbit loop takes it
            for trial, pair in zip(trials, sample_pairs(cfg, trials)):
                calls.append(trial)
                yield pair

        monkeypatch.setattr("ncfrac.ergodic._sample_pairs", counting)
        cfg = SampleConfig(N=1, trials=4, denominator_bits=128, seed=1)
        (report,) = orbit_estimates(cfg, [("digit-power", math.inf)])
        assert calls == [0, 1, 2, 3]
        assert report.quantity == "digit-power[r=inf]" and report.extras["diverges"] is True
        assert report.to_record()["value"] == "divergent"

    def test_deviation_fields_consistent(self):
        report = birkhoff_estimate(CFG, "log-digit")
        assert report.abs_deviation == abs(report.value - report.target)
        assert report.rel_deviation == report.abs_deviation / report.target
        # no deviation without a finite value and target, nor a relative one at a zero target
        for value, target, deviations in ((math.inf, 2.0, (math.nan, math.nan)),
                                          (2.0, -math.inf, (math.nan, math.nan)),
                                          (-3.0, 0.0, (3.0, math.nan))):
            report = ergodic.EstimateReport("q", value, target)
            assert np.array_equal((report.abs_deviation, report.rel_deviation), deviations,
                                  equal_nan=True)

    def test_reports_are_reproducible(self):
        a = birkhoff_estimate(CFG, "log-digit")
        b = birkhoff_estimate(CFG, "log-digit")
        assert a == b

    def test_one_pass_matches_single_observable_calls(self):
        cfg = SampleConfig(N=2, trials=12, denominator_bits=256, max_terms=90, seed=4)
        requests = [
            ("log-digit", None), ("digit-indicator", None), ("digit-indicator", 3),
            ("digit-power", -1.0), ("digit-power", 1.5), ("log-derivative", None),
            ("denominator-growth", None),
        ]
        singles = [
            birkhoff_estimate(cfg, "log-digit"),
            birkhoff_estimate(cfg, "digit-indicator"),
            birkhoff_estimate(cfg, "digit-indicator", M=3),
            birkhoff_estimate(cfg, "digit-power", r=-1.0),
            birkhoff_estimate(cfg, "digit-power", r=1.5),
            lyapunov_estimate(cfg),
            levy_estimate(cfg),
        ]
        reports = orbit_estimates(cfg, requests)
        assert reports == singles
        # the records were captured once trial t read PCG64(seed).jumped(t)
        records = json.loads(json.dumps([report.to_record() for report in reports]))
        assert records == json.loads(ORBIT_GOLDEN.read_text())


class TestDivergentObservable:
    def test_running_mean_outgrows_early_bound(self):
        cfg = SampleConfig(N=1, trials=200, denominator_bits=512, seed=0)
        report = birkhoff_estimate(cfg, "digit-power", r=1.0)
        assert math.isinf(report.value) and math.isinf(report.target)
        assert report.extras["diverges"] is True
        marks = report.extras["checkpoints"]
        means = report.extras["running_means"]
        # the mean keeps climbing past any level it held early on
        fixed_bound = means[marks.index(1000)]
        assert means[-1] > fixed_bound
        # and the growth is the expected logarithmic one, within a wide band
        ratio = means[-1] * math.log(2) / math.log(marks[-1])
        assert 0.5 < ratio < 2.0

    def test_square_mean_grows_fast(self):
        cfg = SampleConfig(N=1, trials=60, denominator_bits=256, seed=2)
        report = birkhoff_estimate(cfg, "digit-power", r=2.0)
        means = report.extras["running_means"]
        assert means[-1] > 3 * means[0]

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 200.0, math.inf])
    def test_divergent_record_is_strict_json(self, r):
        # digit 1 to the power inf and digit powers past the float range are
        # inf, never nan or an OverflowError
        cfg = SampleConfig(N=1, trials=20, denominator_bits=128, seed=1)
        report = birkhoff_estimate(cfg, "digit-power", r=r)
        assert not any(math.isnan(v) for v in report.extras["running_means"])
        json.dumps(report.to_record(), allow_nan=False)

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_running_means_are_the_pooled_power_sums(self, r):
        cfg = SampleConfig(N=1, trials=20, denominator_bits=128, seed=1)
        report = birkhoff_estimate(cfg, "digit-power", r=r)
        digits = [a for trial in range(cfg.trials) for a in sample_orbit(cfg, trial).coeffs]
        powers = np.array([math.exp(r * math.log(a)) for a in digits])
        running = np.cumsum(powers) / np.arange(1, len(digits) + 1)
        marks = report.extras["checkpoints"]
        assert report.extras["running_means"] == [float(running[n - 1]) for n in marks]

    def test_divergent_record_serializes_without_inf(self):
        cfg = SampleConfig(N=1, trials=5, denominator_bits=128, seed=1)
        record = birkhoff_estimate(cfg, "digit-power", r=1.5).to_record()
        assert record["value"] == "divergent"
        assert record["target"] == "divergent"


class TestLyapunovAndLevy:
    def test_lyapunov_estimate(self):
        report = lyapunov_estimate(CFG)
        assert report.target == lyapunov_const(1)
        assert report.rel_deviation < 0.025

    def test_lyapunov_equals_per_step_sum(self):
        # the estimator telescopes sum log(N / x_k^2); check it against the
        # step-by-step sum over reduced orbit points, whole and truncated
        for N, max_terms in ((1, 10_000), (3, 10_000), (2, 40)):
            cfg = SampleConfig(N=N, trials=1, denominator_bits=256, max_terms=max_terms, seed=6)
            points = list(orbit(sample_rational(cfg, 0), N))[:-1][:max_terms]
            direct = sum(math.log(N) - 2 * (math.log(x.numerator) - math.log(x.denominator))
                         for x in points) / len(points)
            assert lyapunov_estimate(cfg).value == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("N", [1, 2, 3, 1000])
    @pytest.mark.parametrize("bits, max_terms", [(256, 10_000), (4096, 10_000), (4096, 40),
                                                 (4096, 90)])
    def test_levy_rate_equals_convergent_denominator(self, N, bits, max_terms):
        # the estimator never builds B_n: x_0 ... x_{n-1} = N^n / (B_n + x_n B_{n-1});
        # check it against the big-integer recursion, on terminated and truncated orbits
        for seed in range(3):
            cfg = SampleConfig(N=N, trials=1, denominator_bits=bits, max_terms=max_terms,
                               seed=seed)
            exp = expand(sample_rational(cfg, 0), N, max_terms)
            assert exp.terminated == (max_terms == 10_000)
            B = convergent_sequence(exp.coeffs, N).final.B
            assert levy_estimate(cfg).value == pytest.approx(math.log(B) / len(exp), rel=1e-13)

    @staticmethod
    def _full_rho_rate(digits, log_ratio, x_n, N):
        # the denominator-growth rate with the rho recursion always run
        rho = 0.0
        for a in digits:
            try:
                rho = 1.0 / (a + N * rho)
            except OverflowError:
                rho = 1 / a
        n = len(digits)
        return (n * math.log(N) - log_ratio - math.log1p(x_n * rho)) / n

    @pytest.mark.parametrize("N", [1, 2, 5, 10**6])
    @pytest.mark.parametrize("max_terms", [10_000, 12])
    def test_rate_skips_rho_only_on_terminated_orbits(self, N, max_terms):
        cfg = SampleConfig(N=N, trials=12, denominator_bits=512, max_terms=max_terms, seed=3)
        rates = []
        for p0, q0 in ergodic._sample_pairs(cfg, range(cfg.trials)):
            digits, p, q = _walk(p0, q0, N, max_terms)
            assert (p == 0) == (max_terms == 10_000)
            log_ratio = math.log(q) - math.log(q0)
            full = self._full_rho_rate(digits, log_ratio, p / q, N)
            rate = ergodic._growth_rate(digits, log_ratio, p / q, N)
            assert rate == full
            if p:  # a truncated orbit still takes its rho term
                assert rate != (len(digits) * math.log(N) - log_ratio) / len(digits)
            rates.append(full)
        report = levy_estimate(cfg)
        assert report.value == float(np.mean(rates))
        assert report.extras["min_rate"] == min(rates)

    def test_rate_past_the_float_range(self):
        # a digit beyond the float range takes the rho recursion's overflow branch
        x = evaluate([2, 10**400, 3, 5], 2)
        digits, p, q = _walk(x.numerator, x.denominator, 2, 3)
        assert digits == [2, 10**400, 3] and p
        rate = ergodic._growth_rate(digits, math.log(q) - math.log(x.denominator), p / q, 2)
        assert rate == math.log(convergent_sequence(digits, 2).final.B) / 3

    def test_levy_estimate(self):
        report = levy_estimate(CFG3)
        assert report.target == levy_L(3)
        assert report.rel_deviation < 0.01

    def test_levy_floor_respected(self):
        report = levy_estimate(CFG)
        _, bound = lower_bounds(1)
        assert report.extras["min_rate"] >= bound - 0.01

    def test_standard_error_scaling(self):
        # doubling the trial count should shrink the standard error ~sqrt(2)
        small = birkhoff_estimate(SampleConfig(N=1, trials=100, denominator_bits=256, seed=3), "log-digit")
        large = birkhoff_estimate(SampleConfig(N=1, trials=200, denominator_bits=256, seed=3), "log-digit")
        se_small = small.per_trial_std / math.sqrt(small.trials)
        se_large = large.per_trial_std / math.sqrt(large.trials)
        assert 1.2 < se_small / se_large < 1.7

    def test_longer_orbits_tighten_estimates(self):
        # a per-trial mean over an orbit four times as long spreads about
        # sqrt(128/512) = 0.5 as wide; one deviation against another is a coin
        # toss, the spread of 100 trials is not
        for estimator in (lambda c: birkhoff_estimate(c, "log-digit"), lyapunov_estimate):
            short = estimator(SampleConfig(N=1, trials=100, denominator_bits=128, seed=5))
            long = estimator(SampleConfig(N=1, trials=100, denominator_bits=512, seed=5))
            assert long.per_trial_std < 0.8 * short.per_trial_std


class TestBoundAchievement:
    def test_both_bounds_attained(self):
        for N in (1, 2, 3):
            denom_report, lyap_report = bound_achievement(N, depth=200)
            assert denom_report.abs_deviation < 1e-3
            assert lyap_report.abs_deviation < 1e-3

    def test_cesaro_drift_documented(self):
        # the plain average log(B_n)/n misses the limit by ~|log(phi/sqrt(5))|/n,
        # which at depth 200 is 1.6e-3; the increment estimator removes it
        denom_report, _ = bound_achievement(1, depth=200)
        assert 1.2e-3 < denom_report.extras["cesaro_deviation"] < 2.2e-3
        assert denom_report.abs_deviation < 1e-12

    def test_cesaro_deviation_shrinks_with_depth(self):
        denom_report, _ = bound_achievement(2, depth=200)
        history = denom_report.extras["cesaro_deviation_by_depth"]
        depths = sorted(history)
        assert depths[0] == 20
        values = [history[d] for d in depths]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("N", [1, 2, 7, 10**6])
    def test_denominators_are_the_convergent_recursion(self, N):
        depth = 60
        denom_report, _ = bound_achievement(N, depth=depth)
        trace = convergent_sequence([N] * depth, N)
        log_b = [math.log(c.B) if c.B > 1 else 0.0 for c in trace.convergents]
        assert denom_report.value == log_b[depth] - log_b[depth - 1]
        assert denom_report.extras["cesaro"] == log_b[depth] / depth

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            bound_achievement(1, depth=5)


def _walked_lyapunov_record(N: int, depth: int) -> dict:
    """The Lyapunov report of bound_achievement as an exact walk checks it: the
    fixed-point approximation's orbit walked `depth` steps and its digits
    compared, at the first precision and, where that fails, at twice it."""
    first = int(depth * levy_L(N) / math.log(10)) + 60
    for digits in (first, 2 * first):
        z = fixed_point(N, N, digits=digits)
        coeffs, _, q = _walk(z.numerator, z.denominator, N, depth)
        if coeffs == [N] * depth:
            break
    else:
        raise RuntimeError("fixed-point approximation ran out of precision")
    log_ratio = math.log(q) - math.log(z.denominator)
    return ergodic.EstimateReport(
        "lyapunov[const-digit]", (depth * math.log(N) - 2.0 * log_ratio) / depth,
        lower_bounds(N)[0], trials=1, terms=depth,
        extras={"precision_digits": digits}).to_record()


bound_indices = st.one_of(
    st.integers(min_value=1, max_value=60),
    st.builds(lambda k, d: 2**k + d, st.integers(min_value=2, max_value=500),
              st.integers(min_value=-1, max_value=1)),
    st.integers(min_value=1, max_value=10**150),
)


class TestBoundCertificate:
    """bound_achievement certifies the constant-digit orbit from B_n, walking no step."""

    @settings(max_examples=120, deadline=None)
    @given(bound_indices, st.integers(min_value=10, max_value=400))
    @example(10**67, 11)
    @example(10**100, 13)
    @example(10**150, 201)
    @example(1, 400)
    @example(2**64, 399)
    def test_matches_the_walk(self, N, depth):
        try:
            expected = _walked_lyapunov_record(N, depth)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                bound_achievement(N, depth)
            return
        _, lyap_report = bound_achievement(N, depth)
        assert lyap_report.to_record() == expected

    def test_walks_no_orbit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bound_achievement walked an orbit")

        monkeypatch.setattr(ergodic, "_walk", refuse)
        for N in (1, 2, 1000):
            assert bound_achievement(N, 200)[1].abs_deviation < 1e-3

    @pytest.mark.parametrize("N, depth", [(10**67, 11), (10**100, 13), (10**150, 201)],
                             ids=["1e67-11", "1e100-13", "1e150-201"])
    def test_odd_depth_at_large_N_doubles_its_precision(self, N, depth):
        # the first precision's margin is short of the error's growth towards x = 1
        first = int(depth * levy_L(N) / math.log(10)) + 60
        z = fixed_point(N, N, digits=first)
        assert _walk(z.numerator, z.denominator, N, depth)[0] != [N] * depth
        denom_report, lyap_report = bound_achievement(N, depth)
        assert lyap_report.extras["precision_digits"] == 2 * first
        assert denom_report.abs_deviation < 1e-3
        assert lyap_report.abs_deviation < 1e-3

    def test_first_precision_kept_where_it_suffices(self):
        for N in (1, 2, 1000, 10**67):
            _, lyap_report = bound_achievement(N, 200)
            assert lyap_report.extras["precision_digits"] == int(
                200 * levy_L(N) / math.log(10)) + 60

    def test_refuses_a_coarse_approximation(self, monkeypatch):
        # 5 digits cannot survive 200 steps: the certificate fails at both precisions
        monkeypatch.setattr(ergodic, "fixed_point",
                            lambda N, p, digits: fixed_point(N, p, digits=5))
        for N in (1, 7):
            with pytest.raises(RuntimeError, match="ran out of precision"):
                bound_achievement(N, 200)


class TestFixedPointOrbits:
    def test_constant_digit_orbits_hit_their_exact_exponent(self):
        # non-generic orbits: along [p, p, p, ...] the derivative average is
        # exactly 2*log((sqrt(p^2+4N)+p)/2) - log(N), not the a.e. value,
        # and it can be made arbitrarily large by taking p large
        from ncfrac import fixed_point, gauss_map

        for N, p in ((1, 2), (2, 3), (3, 5)):
            z = fixed_point(N, p, digits=200)
            total = 0.0
            x = z
            for _ in range(100):
                total += math.log(N) - 2 * (math.log(x.numerator) - math.log(x.denominator))
                x = gauss_map(x, N)
            average = total / 100
            target = 2 * math.log((math.sqrt(p * p + 4 * N) + p) / 2) - math.log(N)
            assert average == pytest.approx(target, abs=1e-9)
            assert expand(z, N, 100).coeffs == (p,) * 100

    def test_exponent_grows_with_digit(self):
        values = [
            2 * math.log((math.sqrt(p * p + 4) + p) / 2) for p in (1, 5, 50, 500)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
