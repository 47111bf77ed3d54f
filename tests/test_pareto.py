"""Pareto interpolation: bracket selection, fractile formulas, exactness."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import topshares as ts
from topshares import pareto
from topshares.errors import FractileNotCoveredError, ParetoFitError
from topshares.pareto import ParetoBracketFit, pi_share_from_stats, select_bracket

from conftest import (
    TwoParetoMixture,
    estimate,
    pareto_population_tabulation,
    random_tabulation,
)


def stats_with_fractions(fractions):
    """Minimal stats whose top fractions are as given (valid fits everywhere)."""
    fractions = np.asarray(fractions, dtype=float)
    k = len(fractions)
    thresholds = np.linspace(1000.0, 100.0, k)
    from topshares.tabulation import CumulativeStats
    return CumulativeStats(
        thresholds=thresholds,
        counts=np.ones(k, dtype=np.int64),
        count_above=(fractions * 1e6).astype(np.int64),
        income_above=np.ones(k),
        top_fraction=fractions,
        mean_above=thresholds * 2.0,
        pareto_coefficient=np.full(k, 2.0),
        pareto_exponent=np.full(k, 2.0),
        bracket_fraction=np.diff(fractions, prepend=0.0),
        bracket_mean=thresholds * 1.5,
        population=10**6,
        total_income=1e9,
    )


class TestSelectBracket:
    def test_1920_top_decile_selects_2000_threshold(self, table_1920):
        stats = ts.cumulate(table_1920)
        fit = select_bracket(stats, 0.10)
        assert fit.threshold == 2000.0
        assert fit.top_fraction == pytest.approx(0.1094751, abs=2e-6)
        assert fit.exponent == pytest.approx(1.873, abs=2e-3)

    def test_exact_match_has_distance_zero(self, table_1920):
        stats = ts.cumulate(table_1920)
        p = float(stats.top_fraction[3])
        fit = select_bracket(stats, p)
        assert fit.top_fraction == p

    def test_absolute_distance_rule(self):
        stats = stats_with_fractions([0.05, 0.089, 0.125, 0.4])
        fit = select_bracket(stats, 0.10)
        assert fit.top_fraction == 0.089  # distance 0.011 beats 0.025

    def test_exact_tie_goes_to_larger_fraction(self):
        stats = stats_with_fractions([0.08, 0.12, 0.5])
        fit = select_bracket(stats, 0.10)
        assert fit.top_fraction == 0.12

    def test_uncovered_fractile_raises(self, table_1920):
        stats = ts.cumulate(table_1920)
        with pytest.raises(FractileNotCoveredError):
            select_bracket(stats, 0.50)

    def test_zero_threshold_bracket_cannot_fit(self):
        tab = ts.Tabulation(
            year=1, brackets=(ts.IncomeBracket(50.0, 10, 10 * 70.0),
                              ts.IncomeBracket(0.0, 90, 90 * 20.0)),
            population=100, total_income=5000.0)
        stats = ts.cumulate(tab)
        with pytest.raises(ParetoFitError):
            select_bracket(stats, stats.covered_fraction)

    def test_invalid_fractile_rejected(self, table_1920):
        stats = ts.cumulate(table_1920)
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                select_bracket(stats, p)

    def test_coefficient_at_or_below_one_is_hard_error(self):
        # corrupt data (cumulative mean at the threshold) must raise, not clamp
        stats = stats_with_fractions([0.05, 0.2])
        bad = stats.pareto_coefficient.copy()
        bad.flags.writeable = True
        bad[:] = [1.0, 0.9]
        object.__setattr__(stats, "pareto_coefficient", bad)
        with pytest.raises(ParetoFitError, match="must exceed 1"):
            select_bracket(stats, 0.05)


def one_bracket_law(threshold, top_fraction, coefficient, exponent, population=10**6):
    """Stats whose top bracket, the nearest to every fractile up to 0.45,
    carries the given local Pareto law."""
    stats = stats_with_fractions([top_fraction, 0.9])
    return dataclasses.replace(
        stats, thresholds=np.array([threshold, threshold / 2.0]),
        pareto_coefficient=np.array([coefficient, 2.0]),
        pareto_exponent=np.array([exponent, 2.0]), population=population)


class TestThresholdAt:
    def test_1920_top_decile_threshold(self, table_1920):
        # the printed law of the $2,000 class starts the top decile at
        # $2,099.04; the law fitted to the table puts mass p above t_p
        printed = one_bracket_law(2000.0, 0.1094751, 2.15, 1.873)
        assert pi_share_from_stats(printed, 0.10).threshold == pytest.approx(
            2099.04, abs=0.01)
        stats = ts.cumulate(table_1920)
        est = pi_share_from_stats(stats, 0.10)
        fit = select_bracket(stats, 0.10)
        assert fit.top_fraction * (est.threshold / fit.threshold) ** -fit.exponent == \
            pytest.approx(0.10, rel=1e-12)

    def test_exact_at_fitted_fraction(self, table_1920):
        stats = ts.cumulate(table_1920)
        for k in range(stats.num_brackets):
            p_k = float(stats.top_fraction[k])
            assert pi_share_from_stats(stats, p_k).threshold == stats.thresholds[k]

    def test_power_law_scaling(self):
        # halving p doubles t under exponent 1; multiplies by sqrt(2) under 2
        unit = one_bracket_law(100.0, 0.2, 2.0, 1.0)
        assert pi_share_from_stats(unit, 0.1).threshold == pytest.approx(
            2 * pi_share_from_stats(unit, 0.2).threshold)
        sq = one_bracket_law(100.0, 0.2, 2.0, 2.0)
        assert pi_share_from_stats(sq, 0.1).threshold == pytest.approx(
            math.sqrt(2.0) * pi_share_from_stats(sq, 0.2).threshold)


class TestTopIncomeAt:
    def test_direct_product(self):
        # returns * coefficient * threshold: 10 * 2 * 1
        stats = one_bracket_law(1.0, 0.01, 2.0, 2.0, population=1000)
        assert pi_share_from_stats(stats, 0.01).top_income == pytest.approx(20.0)

    def test_exact_at_fitted_fraction_against_cumulative(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            for k in range(stats.num_brackets):
                p_k = float(stats.top_fraction[k])
                est = pi_share_from_stats(stats, p_k)
                assert est.top_income == pytest.approx(
                    float(stats.income_above[est.bracket]), rel=1e-10)

    def test_matches_quadrature_of_fitted_density(self, table_1920):
        # independent oracle: integrate y f(y) dy over [t(p), inf) for the
        # fitted local Pareto law, F(y) = 1 - p_k (y/t_k)^-a
        stats = ts.cumulate(table_1920)
        fit = select_bracket(stats, 0.10)
        est = pi_share_from_stats(stats, 0.10)
        a, t_k, p_k = fit.exponent, fit.threshold, fit.top_fraction

        def integrand(y):
            return y * a * p_k * t_k ** a * y ** (-a - 1.0)

        oracle, err = integrate.quad(integrand, est.threshold, np.inf)
        assert est.top_income / stats.population == pytest.approx(oracle, rel=1e-9)


class TestEstimateSharePI:
    def test_exact_at_every_tabulated_fraction(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            for k in range(stats.num_brackets):
                p_k = float(stats.top_fraction[k])
                est = estimate(tab, p_k, "PI")
                exact = float(stats.income_above[k]) / stats.total_income
                assert est.share == pytest.approx(exact, rel=1e-10)

    def test_exact_pareto_population_close_to_closed_form(self):
        tab = pareto_population_tabulation(2.0, 1.0, 10**6, 20)
        est = estimate(tab, 0.05, "PI")
        analytic = 0.05 ** 0.5
        assert abs(est.share / analytic - 1.0) < 0.005

    def test_1920_top_percent_reference_bracket_sign(self, table_1920):
        est = estimate(table_1920, 0.01, "PI")
        stats = ts.cumulate(table_1920)
        assert stats.top_fraction[est.bracket] < 0.0117

    def test_share_estimate_fields(self, table_1920):
        est = estimate(table_1920, 0.10, "PI")
        assert est.method == "PI"
        assert 0.0 < est.share < 1.0
        assert est.threshold >= 1000.0
        assert est.top_income <= ts.cumulate(table_1920).total_income
        assert not est.extrapolated

    def test_deep_tail_is_flagged_extrapolated(self, table_1920):
        stats = ts.cumulate(table_1920)
        p = float(stats.top_fraction[0]) / 10.0
        est = estimate(table_1920, p, "PI")
        assert est.extrapolated
        assert est.bracket == 0

    def test_uncovered_propagates(self, table_1920):
        with pytest.raises(FractileNotCoveredError):
            estimate(table_1920, 0.9, "PI")


class TestProperties:
    def test_share_estimate_invariants(self, table_1920):
        stats = ts.cumulate(table_1920)
        tabs = [table_1920, pareto_population_tabulation(2.0, 1.0, 10**6, 20)]
        for tab in tabs:
            st = ts.cumulate(tab)
            covered = st.covered_fraction
            bottom = float(st.thresholds[-1])
            for p in np.geomspace(1e-6, 1.0, 25) * covered:
                est = estimate(tab, float(p), "PI")
                assert 0.0 <= est.share <= 1.0
                assert est.threshold >= bottom
                assert est.top_income <= st.total_income
        assert stats.covered_fraction < 0.2  # filers are a thin top slice

    def test_monotone_within_shared_bracket(self, table_1920):
        # S nondecreasing and t nonincreasing in p while the fit is shared
        stats = ts.cumulate(table_1920)
        grid = np.linspace(0.09, 0.12, 40)
        estimates = [pi_share_from_stats(stats, p) for p in grid]
        assert {est.bracket for est in estimates} == {select_bracket(stats, 0.10).bracket}
        t_vals = [est.threshold for est in estimates]
        s_vals = [est.top_income for est in estimates]
        assert all(a >= b for a, b in zip(t_vals, t_vals[1:]))
        assert all(a <= b for a, b in zip(s_vals, s_vals[1:]))

    def test_bias_direction_above_target_underestimates(self):
        # with the local exponent declining toward the top, a reference
        # bracket at p_k > p yields less than the bracket at p itself
        mixture = TwoParetoMixture()
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = float(rng.uniform(0.02, 0.10))
            delta = float(rng.uniform(0.05, 0.30))
            base = np.geomspace(1e-3, 1.0, 20)
            # clear a window around p so the planted fraction is selected
            grid = np.append(base[np.abs(np.log(base / p)) > np.log(1.7)],
                             p * (1.0 + delta))
            tab = mixture.tabulation(grid)
            stats = ts.cumulate(tab)
            a_k = stats.pareto_exponent[
                (stats.top_fraction >= 0.008) & (stats.top_fraction <= 0.12)]
            assert np.all(np.diff(a_k) > 0)  # declining toward the top
            est = pi_share_from_stats(stats, p)
            assert stats.top_fraction[est.bracket] > p
            # oracle anchored at p itself (the exactness identity)
            at_p = mixture.partial_above(mixture.quantile(p)) / mixture.mean
            assert est.share < at_p


def reference_select_bracket(stats, p):
    """The per-cell select_bracket the array selection replaced."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"fractile must be in (0, 1], got {p}")
    covered = stats.covered_fraction
    if p > covered:
        raise FractileNotCoveredError(p, covered)
    distance = np.abs(stats.top_fraction - p)
    best = np.flatnonzero(distance == distance.min())[-1]
    coef = float(stats.pareto_coefficient[best])
    threshold = float(stats.thresholds[best])
    if threshold <= 0:
        raise ParetoFitError("no Pareto law at a zero threshold", bracket=int(best))
    if not np.isfinite(coef) or coef <= 1.0:
        raise ParetoFitError(f"local Pareto coefficient {coef} must exceed 1",
                             bracket=int(best))
    return ParetoBracketFit(int(best), threshold, float(stats.top_fraction[best]), coef,
                            float(stats.pareto_exponent[best]))


def reference_pi_share(stats, p):
    """The per-cell pi_share_from_stats the array path replaced."""
    fit = reference_select_bracket(stats, p)
    t_p = fit.threshold * (fit.top_fraction / p) ** (1.0 / fit.exponent)
    s_p = stats.population * p * fit.coefficient * t_p
    return ts.ShareEstimate(p, t_p, s_p, s_p / stats.total_income, "PI", fit.bracket,
                            p < float(stats.top_fraction[0]))


def _described(value):
    """A fit or estimate by its repr, an error by type, message and bracket."""
    if isinstance(value, Exception):
        return type(value), str(value), getattr(value, "bracket", None)
    return repr(value)


def _outcome(call, *args):
    try:
        return _described(call(*args))
    except Exception as err:  # compared, not hidden
        return _described(err)


def test_array_selection_matches_scalar_reference():
    # random tables, tables with tied and repeated fractions, coefficients
    # at or below 1 and zero thresholds; fractiles at, between and beyond
    # the tabulated fractions, one per covered fraction, and invalid ones
    rng = np.random.default_rng(23)
    stats = [ts.cumulate(random_tabulation(rng)) for _ in range(60)]
    stats += [stats_with_fractions([0.01, 0.02, 0.02, 0.05, 0.1, 0.1, 0.3])
              for _ in range(2)]
    flat = stats_with_fractions([0.01, 0.03, 0.05, 0.2])
    stats.append(dataclasses.replace(
        flat, pareto_coefficient=np.array([2.0, 1.0, np.nan, 0.5]),
        thresholds=np.array([3.0, 2.0, 1.0, 0.0])))
    fractiles = [0.5, 0.1, 0.05, 0.03, 0.02, 0.015, 0.01, 0.004, 1e-6, 1.0, 0.0, -0.1,
                 1.5, math.nan, *(s.covered_fraction for s in stats[:5]),
                 *(float(f) for f in stats[0].top_fraction)]
    fractiles += [math.nextafter(f, 1.0) for f in fractiles[:8]]
    fits = pareto._fits(stats, fractiles)
    estimates = pareto.pi_shares(stats, fractiles)
    for s, fit_row, estimate_row in zip(stats, fits, estimates):
        for p, fit, estimate in zip(fractiles, fit_row, estimate_row):
            expected = _outcome(reference_select_bracket, s, p)
            assert _described(fit) == _outcome(select_bracket, s, p) == expected
            assert _described(estimate) == _outcome(pi_share_from_stats, s, p) \
                == _outcome(reference_pi_share, s, p)
    assert sum(isinstance(f, ParetoBracketFit) for row in fits for f in row) > 1000


def test_non_finite_pi_estimate_is_a_fit_error():
    # the local coefficient at a 2e-300 threshold is about 5e306: the top
    # income overflows to inf, once reported as a share
    stats = ts.cumulate(ts.Tabulation(1950, (ts.IncomeBracket(2e-300, 300, 3e9),
                                             ts.IncomeBracket(1e-300, 200, 3e-298)),
                                      1000, 1e10))
    with pytest.raises(ParetoFitError, match="must be finite"):
        pi_share_from_stats(stats, 0.4)
    [[low, high]] = pareto.pi_shares([stats], [0.4, 0.3])
    assert isinstance(low, ParetoFitError) and isinstance(high, ParetoFitError)
    assert low.bracket == 1 and select_bracket(stats, 0.4).bracket == 1
