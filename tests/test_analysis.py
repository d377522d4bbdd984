"""Tests for repro.analysis: bounds, drift, expectation, concentration, stats."""

import math

import numpy as np
import pytest

from repro.analysis import (
    bcn16_consensus_upper,
    binomial_tail_exact,
    chernoff_upper_above_2mu,
    chernoff_upper_multiplicative,
    coalescence_drift_function,
    coalescence_expected_upper,
    coalescence_time_bound,
    empirical_mean_next_counts,
    estimate_coalescence_drift,
    exact_expected_counts_ac,
    exact_expected_counts_two_choices,
    fit_power_law,
    fit_power_law_with_log_correction,
    footnote2_identity_gap,
    mann_whitney_less,
    mean_confidence_interval,
    min_bias_three_majority,
    min_bias_two_choices,
    pairwise_meeting_probability,
    phase1_target_colors,
    phase_amplification_failure,
    theorem5_tail_bound,
    three_majority_consensus_upper,
    two_choices_symmetry_breaking_lower,
    two_choices_threshold,
    variable_drift_bound,
    voter_reduction_upper,
)
from repro.core import Configuration
from repro.core.ac_process import ThreeMajorityFunction, VoterFunction
from repro.graphs import CompleteGraph
from repro.processes import ThreeMajority, TwoChoices, Voter


class TestBounds:
    def test_three_majority_upper_sublinear(self):
        for n in (10**3, 10**4, 10**5):
            assert three_majority_consensus_upper(n) < n

    def test_three_majority_upper_monotone(self):
        values = [three_majority_consensus_upper(n) for n in (100, 1000, 10000)]
        assert values[0] < values[1] < values[2]

    def test_two_choices_threshold(self):
        assert two_choices_threshold(1, 1000, gamma=18.0) == math.ceil(18 * math.log(1000))
        assert two_choices_threshold(500, 1000, gamma=18.0) == 1000

    def test_two_choices_lower_grows_almost_linearly(self):
        lower_small = two_choices_symmetry_breaking_lower(10**3, 1)
        lower_big = two_choices_symmetry_breaking_lower(10**5, 1)
        # Growth ratio close to 100 / (log ratio).
        assert lower_big / lower_small > 40

    def test_voter_reduction_validates(self):
        with pytest.raises(ValueError):
            voter_reduction_upper(10, 0)

    def test_coalescence_constant(self):
        assert coalescence_expected_upper(100, 5) == pytest.approx(400.0)

    def test_bcn16_polynomial_in_k(self):
        assert bcn16_consensus_upper(10**6, 10) < bcn16_consensus_upper(10**6, 50)

    def test_phase1_target(self):
        n = 10**4
        target = phase1_target_colors(n)
        assert 1 <= target <= n
        assert target == pytest.approx(n**0.25 * math.log(n) ** 0.125, rel=0.1)

    def test_bias_scales_ordered(self):
        n = 10**4
        assert min_bias_two_choices(n) <= min_bias_three_majority(n, 4)


class TestDriftTheorem:
    def test_constant_drift_linear_time(self):
        # h(x) = c constant: E[T] <= x_min/c + (x0 - x_min)/c = x0/c.
        bound = variable_drift_bound(100.0, 1.0, lambda x: 0.5)
        assert bound == pytest.approx(200.0)

    def test_quadratic_drift_closed_form(self):
        # h(x) = x^2/(10n): bound = 10n/k + 10n(1/k - 1/n) <= 20n/k.
        n, k = 1000, 10
        bound = coalescence_time_bound(n, k)
        closed = 10 * n / k + 10 * n * (1 / k - 1 / n)
        assert bound == pytest.approx(closed, rel=1e-6)
        assert bound <= 20 * n / k

    def test_bound_zero_when_start_below_min(self):
        assert variable_drift_bound(1.0, 5.0, lambda x: 1.0) == 0.0

    def test_validates_x_min(self):
        with pytest.raises(ValueError):
            variable_drift_bound(10.0, 0.0, lambda x: 1.0)

    def test_drift_function_values(self):
        h = coalescence_drift_function(100)
        assert h(10) == pytest.approx(0.1)

    def test_meeting_probability(self):
        assert pairwise_meeting_probability(50) == pytest.approx(0.02)

    def test_empirical_drift_satisfies_paper_hypothesis(self, rng):
        # E[X_t - X_{t+1} | X_t = x] >= x^2/(10 n) on the complete graph.
        n, x = 100, 20
        drop, sem = estimate_coalescence_drift(CompleteGraph(n), x, 400, rng)
        paper = x * x / (10 * n)
        assert drop + 4 * sem > paper
        # And close to the exact birthday-ish value: E[drop] = x - E[#occupied].
        exact = x - n * (1 - (1 - 1 / n) ** x)
        assert abs(drop - exact) < 5 * sem + 0.05

    def test_empirical_drift_validates(self, rng):
        with pytest.raises(ValueError):
            estimate_coalescence_drift(CompleteGraph(10), 1, 10, rng)


class TestExpectation:
    def test_footnote2_zero_for_many_configs(self):
        for counts in ([5, 5], [9, 1], [4, 3, 2, 1], [1] * 10, [97, 2, 1]):
            assert footnote2_identity_gap(Configuration(counts)) < 1e-10

    def test_exact_ac_expectation(self):
        config = Configuration([6, 2])
        expected = exact_expected_counts_ac(VoterFunction(), config)
        assert expected == pytest.approx([6.0, 2.0])

    def test_two_choices_closed_form(self):
        config = Configuration([5, 5])
        expected = exact_expected_counts_two_choices(config)
        assert expected == pytest.approx([5.0, 5.0])

    def test_empirical_matches_exact_two_choices(self, rng):
        config = Configuration([12, 4])
        exact = exact_expected_counts_two_choices(config)
        empirical = empirical_mean_next_counts(TwoChoices(), config, 4000, rng)
        assert empirical == pytest.approx(exact, abs=0.25)

    def test_empirical_matches_exact_three_majority(self, rng):
        config = Configuration([12, 4])
        exact = exact_expected_counts_ac(ThreeMajorityFunction(), config)
        empirical = empirical_mean_next_counts(ThreeMajority(), config, 4000, rng)
        assert empirical == pytest.approx(exact, abs=0.25)

    def test_empirical_matches_exact_voter(self, rng):
        config = Configuration([10, 6])
        empirical = empirical_mean_next_counts(Voter(), config, 4000, rng)
        assert empirical == pytest.approx([10.0, 6.0], abs=0.25)

    def test_empirical_validates(self, rng):
        with pytest.raises(ValueError):
            empirical_mean_next_counts(Voter(), Configuration([2, 2]), 0, rng)


class TestConcentration:
    def test_chernoff_dominates_exact_binomial(self):
        n, p = 1000, 0.01
        mu = n * p
        for delta in (0.5, 1.0, 2.0):
            bound = chernoff_upper_multiplicative(mu, delta)
            exact = binomial_tail_exact(n, p, int(math.ceil((1 + delta) * mu)))
            assert bound >= exact - 1e-12

    def test_chernoff_validates(self):
        with pytest.raises(ValueError):
            chernoff_upper_multiplicative(-1.0, 1.0)
        with pytest.raises(ValueError):
            chernoff_upper_multiplicative(1.0, 0.0)

    def test_above_2mu_bound_dominates_exact(self):
        n, p = 2000, 0.002
        mu = n * p
        threshold = 30.0
        bound = chernoff_upper_above_2mu(mu, threshold)
        exact = binomial_tail_exact(n, p, int(max(threshold, 2 * mu)))
        assert bound >= exact - 1e-12

    def test_binomial_tail_edges(self):
        assert binomial_tail_exact(10, 0.5, 0) == 1.0
        assert binomial_tail_exact(10, 0.0, 1) == 0.0

    def test_phase_amplification(self):
        assert phase_amplification_failure(0.5, 10) == pytest.approx(2**-10)
        with pytest.raises(ValueError):
            phase_amplification_failure(0.0, 3)

    def test_theorem5_bound_is_whp(self):
        # The paper claims n^{-3} via a slightly loose Chernoff chain; our
        # rigorous variant (exponent (s - mu)/3 instead of s/3) still gives
        # the w.h.p. statement the theorem needs: o(n^{-2}) per color.
        for n in (10**3, 10**4, 10**5):
            assert theorem5_tail_bound(n, ell=1, gamma=18.0) <= n**-2.0

    def test_theorem5_bound_monotone_in_gamma(self):
        weak = theorem5_tail_bound(10**4, 1, gamma=18.0)
        strong = theorem5_tail_bound(10**4, 1, gamma=36.0)
        assert strong <= weak


class TestStatistics:
    def test_fit_recovers_exponent(self):
        x = np.asarray([100, 200, 400, 800, 1600], dtype=float)
        y = 3.0 * x**0.75
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(0.75, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_with_noise(self, rng):
        x = np.geomspace(64, 4096, 7)
        y = 2.0 * x**0.5 * np.exp(rng.normal(0, 0.05, size=7))
        fit = fit_power_law(x, y)
        lo, hi = fit.exponent_ci95()
        assert lo < 0.5 < hi or abs(fit.exponent - 0.5) < 0.1

    def test_fit_validates(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, -3], [1, 2, 3])

    def test_fit_matches_linregress(self):
        # scipy.stats.linregress is the reference for the closed form.
        # Its stderr uses (1 - r²), which itself loses ~1e-8 near r² = 1,
        # hence the looser stderr tolerance.
        from scipy import stats

        gen = np.random.default_rng(20170217)
        for trial in range(400):
            m = int(gen.integers(3, 13))
            if trial % 2:
                x = np.sort(gen.uniform(1.0, 1e5, m))
            else:
                x = np.geomspace(16, 2 ** int(gen.integers(6, 16)), m)
            noise = 10 ** gen.uniform(-12, 0)
            y = (
                math.exp(gen.uniform(-5, 5))
                * x ** gen.uniform(-2, 2)
                * np.exp(noise * gen.standard_normal(m))
            )
            fit = fit_power_law(x, y)
            ref = stats.linregress(np.log(x), np.log(y))
            assert fit.exponent == pytest.approx(ref.slope, rel=1e-12)
            assert fit.prefactor == pytest.approx(math.exp(ref.intercept), rel=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-12)
            assert fit.exponent_stderr == pytest.approx(ref.stderr, rel=1e-6, abs=1e-7)

    def test_fit_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_power_law([64, 64, 64], [1, 2, 3])
        fit = fit_power_law([16, 32, 64], [5.0, 5.0, 5.0])
        assert fit.exponent == 0.0
        assert fit.prefactor == pytest.approx(5.0)
        assert math.isnan(fit.r_squared) and math.isnan(fit.exponent_stderr)

    def test_log_correction(self):
        x = np.asarray([100, 400, 1600, 6400], dtype=float)
        y = x**0.75 * np.log(x) ** 0.875
        fit = fit_power_law_with_log_correction(x, y, 0.875)
        assert fit.exponent == pytest.approx(0.75, abs=1e-9)

    def test_predict(self):
        x = np.asarray([10, 100, 1000], dtype=float)
        fit = fit_power_law(x, 5 * x)
        assert fit.predict(50.0) == pytest.approx(250.0, rel=1e-6)

    def test_summary_string(self):
        x = np.asarray([10.0, 100.0, 1000.0])
        assert "R²" in fit_power_law(x, x).summary()

    def test_confidence_interval(self):
        mean, lo, hi = mean_confidence_interval(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert lo < mean < hi
        with pytest.raises(ValueError):
            mean_confidence_interval(np.asarray([1.0]))

    def test_mann_whitney_direction(self, rng):
        fast = rng.normal(10, 1, size=200)
        slow = rng.normal(20, 1, size=200)
        assert mann_whitney_less(fast, slow) < 1e-6
        assert mann_whitney_less(slow, fast) > 0.5
