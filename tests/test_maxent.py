"""Maximum-entropy estimator: rate solves, density queries, recovery.

Closed forms are checked against independent oracles: high-precision mpmath
evaluation for the kernels, scipy quadrature for integrals, and a raw
golden-section/Brent maximization of the auxiliary objective for the rates.
"""

import dataclasses
import hashlib
import math
import struct
import sys
import tracemalloc
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, optimize

import topshares as ts
from topshares import maxent
from topshares.errors import (
    FractileNotCoveredError,
    InfeasibleOrderingError,
    MeanOnBoundaryError,
    TopsharesError,
)
from topshares.maxent import build_density, solve_rate

from conftest import (
    estimate,
    pareto_population_tabulation,
    random_tabulation,
    stats_from_masses,
)


def raw_objective(lam, t_lo, t_hi, y):
    """The auxiliary objective evaluated naively (test-side oracle)."""
    if lam == 0.0:
        return y * 0.0 - math.log(t_hi - t_lo)
    return y * lam - math.log((math.exp(lam * t_hi) - math.exp(lam * t_lo)) / lam)


def oracle_rate(t_lo, t_hi, y):
    """Maximize the raw objective in 50-digit arithmetic by ternary search
    (independent of the package's Newton solver and kernels)."""
    mpmath.mp.dps = 50
    t_lo, t_hi, y = mpmath.mpf(t_lo), mpmath.mpf(t_hi), mpmath.mpf(y)

    def j(lam):
        if lam == 0:
            return -mpmath.log(t_hi - t_lo)
        return y * lam - mpmath.log(
            (mpmath.exp(lam * t_hi) - mpmath.exp(lam * t_lo)) / lam)

    width = t_hi - t_lo
    lo, hi = -mpmath.mpf(1), mpmath.mpf(1)
    while j(lo / width) < j(2 * lo / width):
        lo *= 2
    while j(hi / width) < j(2 * hi / width):
        hi *= 2
    lo, hi = 2 * lo / width, 2 * hi / width
    for _ in range(220):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if j(m1) < j(m2):
            lo = m1
        else:
            hi = m2
    return float((lo + hi) / 2)


def shifted_objective(lam, width, y_offset):
    """Raw bounded-bracket objective in lower-edge coordinates (overflow-safe
    for |lam|*width <= 600; naive arithmetic otherwise)."""
    if lam == 0.0:
        return -math.log(width)
    return y_offset * lam - math.log((math.exp(lam * width) - 1.0) / lam)


def oracle_jstar(thresholds, masses, means):
    """Attained divergence at candidate thresholds, computed from scratch:
    scipy Brent maximization of the raw objective per bracket."""
    total = 0.0
    k_total = len(thresholds)
    for k in range(k_total):
        q, y, lo = masses[k], means[k], thresholds[k]
        if k == 0:
            lam = -1.0 / (y - lo)  # analytic stationary point of the tail
            val = lam * (y - lo) + math.log(-lam)
        else:
            width = thresholds[k - 1] - lo
            res = optimize.minimize_scalar(
                lambda lam: -shifted_objective(lam, width, y - lo),
                bounds=(-600.0 / width, 600.0 / width), method="bounded",
                options={"xatol": 1e-13 / width})
            val = -res.fun
        total += q * (val + math.log(q))
    return total


class TestKernels:
    @pytest.mark.parametrize("u", [1e-10, *np.geomspace(1e-7, 1e-1, 31).tolist(),
                                   0.5, 5.0, 50.0])
    def test_mean_frac_against_mpmath(self, u):
        # absolute error a tenth of the rate solve's residual tolerance, also
        # where the direct form cancels (|u| below 1e-2 takes the series)
        mpmath.mp.dps = 50
        for sign in (1.0, -1.0):
            x = sign * u
            exact = float(1 / (1 - mpmath.exp(-mpmath.mpf(x))) - 1 / mpmath.mpf(x))
            assert abs(maxent._mean_frac(x) - exact) <= 0.1 * maxent.MEAN_RESIDUAL_TOL
            assert maxent._mean_frac(x) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("u", [1e-10, 1e-6, 1e-3, 1.0, 30.0, -30.0])
    def test_iexp_against_mpmath(self, u):
        mpmath.mp.dps = 50
        exact = float(mpmath.expm1(mpmath.mpf(u)) / mpmath.mpf(u))
        assert maxent._iexp(u) == pytest.approx(exact, rel=1e-12)

    def test_mean_frac_symmetry_and_monotonicity(self):
        grid = np.linspace(-40.0, 40.0, 201)
        vals = [maxent._mean_frac(u) for u in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for u in (0.3, 2.0, 17.0):
            assert maxent._mean_frac(u) + maxent._mean_frac(-u) == \
                pytest.approx(1.0, abs=1e-14)

    def test_mean_frac_deriv_matches_finite_difference(self):
        for u in (0.5, 3.0, -2.0, 0.02):
            h = 1e-6
            fd = (maxent._mean_frac(u + h) - maxent._mean_frac(u - h)) / (2 * h)
            assert maxent._mean_frac_deriv(u) == pytest.approx(fd, rel=1e-6)

    def test_log_iexp_extremes(self):
        mpmath.mp.dps = 60
        for u in (-800.0, -40.0, -1.0, 1e-9, 1.0, 40.0, 800.0):
            exact = float(mpmath.log(mpmath.expm1(mpmath.mpf(u)) / mpmath.mpf(u)))
            assert maxent._log_iexp(u) == pytest.approx(exact, rel=1e-12)


class TestSolveRate:
    def test_midpoint_mean_is_uniform(self):
        assert solve_rate(0.0, 1.0, 0.5) == 0.0
        assert solve_rate(10.0, 30.0, 20.0) == 0.0

    def test_unbounded_closed_form(self):
        rate = solve_rate(4_000_000.0, math.inf, 7_480_000.0)
        assert rate == pytest.approx(-1.0 / 3_480_000.0, rel=1e-15)
        # cross-check: it is the stationary point of the raw objective
        eps = abs(rate) * 1e-4
        j0 = rate * (7_480_000.0 - 4_000_000.0) + math.log(-rate)
        for lam in (rate - eps, rate + eps):
            assert lam * 3_480_000.0 + math.log(-lam) < j0

    def test_upper_mean_solved_by_rootfinding(self):
        rate = solve_rate(0.0, 1.0, 0.75)
        assert rate > 0.0
        assert maxent._mean_frac(rate) == pytest.approx(0.75, abs=1e-10)
        assert rate == pytest.approx(oracle_rate(0.0, 1.0, 0.75), rel=1e-7)

    @pytest.mark.parametrize("t_lo,t_hi,y", [
        (0.0, 1.0, 0.25),
        (2000.0, 3000.0, 2100.0),
        (2000.0, 3000.0, 2999.0),
        (5.0, 5.001, 5.0009),
        (0.0, 1.0, 0.5000001),
    ])
    def test_matches_brent_oracle(self, t_lo, t_hi, y):
        mine = solve_rate(t_lo, t_hi, y)
        ref = oracle_rate(t_lo, t_hi, y)
        width = t_hi - t_lo
        # compare through the (stiff) mean map rather than raw rates
        assert maxent._mean_frac(mine * width) == pytest.approx(
            maxent._mean_frac(ref * width), abs=1e-9)

    def test_mean_residual_tolerance_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            lo = float(rng.uniform(0.0, 1e5))
            width = float(10.0 ** rng.uniform(-3, 5))
            r = float(rng.uniform(1e-6, 1 - 1e-6))
            y = lo + r * width
            if y <= lo or y >= lo + width:
                continue
            rate = solve_rate(lo, lo + width, y)
            mean = lo + width * maxent._mean_frac(rate * width)
            assert abs(mean - y) <= 1e-10 * width

    def test_boundary_means_rejected(self):
        with pytest.raises(MeanOnBoundaryError):
            solve_rate(0.0, 1.0, 0.0)
        with pytest.raises(MeanOnBoundaryError):
            solve_rate(0.0, 1.0, 1.0)
        with pytest.raises(MeanOnBoundaryError):
            solve_rate(0.0, 1.0, 1.2)
        with pytest.raises(MeanOnBoundaryError):
            solve_rate(5.0, math.inf, 5.0)

    def test_boundary_at_float_resolution_rejected(self):
        # strictly inside mathematically, on the edge in double precision
        with pytest.raises(MeanOnBoundaryError):
            solve_rate(1e16, 1e16 + 4.0, 1e16 + 2e-16)

    def test_extreme_interior_means_still_converge(self):
        for r in (1e-12, 1 - 1e-12):
            rate = solve_rate(0.0, 1.0, r)
            assert abs(maxent._mean_frac(rate) - r) <= 1e-10

    def test_newton_never_leaves_sign_change_interval(self, monkeypatch):
        # instrument the mean kernel: once evaluations straddle the root,
        # every later evaluation must stay inside the tightest straddle
        real = maxent._mean_frac

        def run_case(t_lo, t_hi, y):
            width = t_hi - t_lo
            r = (y - t_lo) / width
            below, above = -math.inf, math.inf
            violations = []

            def spy(u):
                nonlocal below, above
                if not below < u < above and below > -math.inf:
                    violations.append((u, below, above))
                value = real(u)
                if value < r:
                    below = max(below, u)
                elif value > r:
                    above = min(above, u)
                return value

            monkeypatch.setattr(maxent, "_mean_frac", spy)
            try:
                rate = solve_rate(t_lo, t_hi, y)
            finally:
                monkeypatch.setattr(maxent, "_mean_frac", real)
            assert not violations, violations
            assert abs(real(rate * width) - r) <= 1e-10

        rng = np.random.default_rng(19)
        for _ in range(60):
            lo = float(rng.uniform(0, 1000.0))
            width = float(10.0 ** rng.uniform(-2, 4))
            y = lo + width * float(rng.uniform(1e-4, 1 - 1e-4))
            run_case(lo, lo + width, y)

    def test_langevin_bounds_against_mpmath(self):
        # the closed-form bracket of the rate solve: 1 - 1/u < M(u) <
        # 1/2 + u/12 for u > 0, mirrored for u < 0 as M(-u) = 1 - M(u)
        mpmath.mp.dps = 60
        for u in np.geomspace(1e-6, 100.0, 57).tolist():
            u = mpmath.mpf(u)
            m = 1 / (1 - mpmath.exp(-u)) - 1 / u
            m_neg = 1 / (1 - mpmath.exp(u)) + 1 / u
            assert 1 - 1 / u < m < mpmath.mpf(0.5) + u / 12, u
            assert m_neg == pytest.approx(1 - m, rel=mpmath.mpf(10) ** -50)
            assert mpmath.mpf(0.5) - u / 12 < m_neg < 1 / u, u

    @pytest.mark.parametrize("r", [
        1e-300, math.nextafter(0.01, 0.0), 0.01, math.nextafter(0.01, 1.0),
        math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
        math.nextafter(0.99, 0.0), 0.99, math.nextafter(0.99, 1.0),
        1.0 - 2.0 ** -53])
    def test_closed_form_bracket_straddles_the_computed_root(self, r):
        # the bracket ends 12(r - 1/2) and the tail asymptote, 1/(1 - r) or
        # -1/r, straddle the root of the shipped kernel: a residual of the
        # wrong sign at an end is a rounding error within the tolerance, so
        # that end is itself a root; and the solve returns a root inside them
        tol = maxent.MEAN_RESIDUAL_TOL
        series = 12.0 * (r - 0.5)
        tail = 1.0 / (1.0 - r) if r > 0.5 else -1.0 / r
        lo, hi = min(series, tail), max(series, tail)
        assert maxent._mean_frac(lo) - r <= tol and maxent._mean_frac(hi) - r >= -tol
        u = solve_rate(0.0, 1.0, r)
        assert lo <= u <= hi
        assert abs(maxent._mean_frac(u) - r) <= maxent.MEAN_RESIDUAL_TOL

    def test_newton_start_lies_in_the_closed_form_bracket(self, monkeypatch):
        # the inverse-Langevin start, clipped, is the first point the solve
        # evaluates: finite and inside the bracket, also where 1 - |2r - 1|
        # is tiny or r sits at 1/2 to within an ulp
        near = np.geomspace(1e-300, 1e-15, 301)
        r = np.concatenate((np.linspace(0.0, 1.0, 100_001)[1:-1], near, 1.0 - near,
                            0.5 - near, 0.5 + near, [2.0 ** -1022, 1.0 - 2.0 ** -53,
                                                     math.nextafter(0.5, 0.0),
                                                     math.nextafter(0.5, 1.0)]))
        r = r[(r > 0.0) & (r < 1.0) & (r != 0.5)]
        starts, real = [], maxent._mean_frac
        monkeypatch.setattr(maxent, "_mean_frac",
                            lambda u: (starts.append(u.copy()), real(u))[1])
        maxent._solve_rates(0.0, 1.0, r)
        series = 12.0 * (r - 0.5)
        tail = np.where(r > 0.5, 1.0 / (1.0 - r), -1.0 / r)
        assert len(starts[0]) == len(r)
        assert np.all((np.minimum(series, tail) <= starts[0])
                      & (starts[0] <= np.maximum(series, tail)))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(t_lo=st.floats(-1e12, 1e12), width=st.floats(1e-9, 1e12),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(t_lo=0.0, width=1.0, frac=0.8944432833145982)  # once a wrong root
    @example(t_lo=0.0, width=1.0, frac=0.5000005)  # once lost to cancellation
    @example(t_lo=0.0, width=1.0, frac=1e-300)
    @example(t_lo=0.0, width=1.0, frac=1.0 - 2.0 ** -53)
    def test_every_rate_meets_its_residual_bound(self, t_lo, width, frac):
        t_hi = t_lo + width
        y = t_lo + frac * width
        try:
            rate = solve_rate(t_lo, t_hi, y)
        except MeanOnBoundaryError:
            # only a mean on the boundary at float resolution is refused
            assert not (t_lo < y < t_hi
                        and 0.0 < (r := (y - t_lo) / (t_hi - t_lo)) < 1.0
                        and math.isfinite(1.0 / r))
            return
        r = (y - t_lo) / (t_hi - t_lo)
        u = rate * (t_hi - t_lo)
        assert abs(maxent._mean_frac(u) - r) <= maxent.MEAN_RESIDUAL_TOL

    def test_objective_derivative_strictly_decreasing(self):
        # concavity of the auxiliary objective on the search interval
        t_lo, t_hi, y = 10.0, 20.0, 16.0
        lams = np.linspace(-2.0, 2.0, 41)
        h = 1e-6
        derivs = [(raw_objective(l + h, t_lo, t_hi, y)
                   - raw_objective(l - h, t_lo, t_hi, y)) / (2 * h)
                  for l in lams]
        assert all(b < a for a, b in zip(derivs, derivs[1:]))


def piece_columns(density, k):
    """lower, upper, mass, rate and mean of piece k of a density."""
    upper = math.inf if k == 0 else float(density.thresholds[k - 1])
    return (float(density.thresholds[k]), upper, float(density.mass[k]),
            float(density.rate[k]), float(density.mean[k]))


def histogram_tab():
    # both bracket means at midpoints: the density is a two-step histogram
    return ts.Tabulation(
        year=1, brackets=(ts.IncomeBracket(100.0, 10, 10 * 150.0),
                          ts.IncomeBracket(50.0, 30, 30 * 75.0)),
        population=100, total_income=5000.0)


class TestBuildDensity:
    def test_midpoint_means_give_uniform_pieces(self):
        tab = ts.Tabulation(
            year=1, brackets=(ts.IncomeBracket(100.0, 10, 10 * 120.0),
                              ts.IncomeBracket(60.0, 30, 30 * 80.0),
                              ts.IncomeBracket(50.0, 10, 10 * 55.0)),
            population=100, total_income=5000.0)
        d = build_density(ts.cumulate(tab))
        assert d.rate[1] == 0.0
        assert d.rate[2] == 0.0
        assert maxent._density_at(*piece_columns(d, 1)[:4], 70.0) == \
            pytest.approx(0.3 / 40.0)

    def test_table_1920_moment_matching(self, table_1920):
        stats = ts.cumulate(table_1920)
        d = build_density(stats)
        assert math.fsum(d.mass) == pytest.approx(stats.covered_fraction, rel=1e-12)
        for k in range(len(d.thresholds)):
            lower, upper, mass, rate, _ = piece_columns(d, k)
            assert mass == pytest.approx(float(stats.bracket_fraction[k]))
            if math.isinf(upper):
                mean = lower - 1.0 / rate
            else:
                w = upper - lower
                mean = lower + w * maxent._mean_frac(rate * w)
            assert mean == pytest.approx(float(stats.bracket_mean[k]), rel=1e-10)

    def test_exponential_sample_recovers_common_rate(self):
        # unit-rate exponential micro data: all five pieces should agree on
        # the generating rate (bracket means only weakly identify the rate
        # of a narrow bracket, hence the wide brackets and large sample)
        rng = np.random.Generator(np.random.PCG64(9))
        incomes = -np.log1p(-rng.random(10_000_000))  # inversion, rate 1
        from topshares import microbench as mb
        sample = mb.MicroSample.from_incomes(incomes)
        thresholds = [5.0, 3.0, 1.8, 0.9, 0.3]
        d = build_density(ts.cumulate(mb.tabulate(sample, thresholds)))
        rates = list(d.rate)
        assert all(abs(r / -1.0 - 1.0) < 0.01 for r in rates)

    def test_boundary_mean_propagates_bracket_index(self):
        stats = stats_from_masses([0.2, 0.3], [5.0, 2.5],
                                  thresholds=[4.0, 2.0])
        with pytest.raises(MeanOnBoundaryError) as err:
            # the bottom mean 2.5 sits below a bottom threshold of 2.6
            build_density(dataclasses.replace(stats, thresholds=np.array([4.0, 2.6])))
        assert err.value.bracket == 1

    def test_thresholds_must_decrease(self):
        stats = stats_from_masses([0.2, 0.3], [5.0, 2.5], thresholds=[4.0, 2.0])
        for thresholds in ([2.0, 4.0], [4.0, 4.0]):
            with pytest.raises(ValueError, match="strictly decreasing"):
                build_density(dataclasses.replace(stats, thresholds=np.array(thresholds)))

    def test_empty_bracket_becomes_zero_mass_piece(self):
        tab = ts.Tabulation(
            year=1, brackets=(ts.IncomeBracket(100.0, 10, 10 * 150.0),
                              ts.IncomeBracket(80.0, 0, 0.0),
                              ts.IncomeBracket(50.0, 30, 30 * 70.0)),
            population=100, total_income=5000.0)
        stats = ts.cumulate(tab)
        d = build_density(stats)
        assert d.mass[1] == 0.0
        assert d.pdf(90.0) == 0.0
        # queries stay consistent around the empty stripe
        assert d.quantile_top(float(stats.top_fraction[0])) == 100.0
        assert d.quantile_top(float(stats.top_fraction[1])) == 100.0
        assert d.cdf(90.0) == pytest.approx(d.cdf(80.0))
        est = estimate(tab, stats.covered_fraction, "ME")
        assert est.share == pytest.approx(
            float(stats.income_above[-1]) / stats.total_income, rel=1e-12)


class TestDistributionQueries:
    def test_cdf_support_edges(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        bottom = d.support_bottom
        assert d.cdf(bottom) == 0.0
        assert d.cdf(1e13) == pytest.approx(d.covered_fraction, rel=1e-12)
        with pytest.raises(ValueError):
            d.cdf(bottom - 1.0)

    def test_cdf_matches_quadrature(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        points = [float(t) for t in d.thresholds]
        for y in (1500.0, 2000.0, 3500.0, 9999.0, 25_000.0, 5_000_000.0):
            oracle, err = integrate.quad(
                d.pdf, d.support_bottom, y,
                points=[t for t in points if t <= y], limit=200)
            assert err < 1e-11
            assert d.cdf(y) == pytest.approx(oracle, abs=1e-9)

    def test_cdf_strictly_increasing_on_support(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        # nondecreasing everywhere on a raw income grid
        ys = np.geomspace(d.support_bottom, 1e7, 200)
        vals = [d.cdf(y) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # strictly increasing wherever the mass step is representable:
        # quantile-spaced points carry equal mass increments by construction
        covered = d.covered_fraction
        qs = [d.quantile_top(p) for p in np.geomspace(1e-7, 1.0, 120) * covered]
        vals = [d.cdf(y) for y in qs[::-1]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quantile_at_tabulated_fractions_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            d = build_density(stats)
            for k in range(stats.num_brackets):
                assert d.quantile_top(float(stats.top_fraction[k])) == \
                    float(stats.thresholds[k])

    def test_uniform_bottom_piece_midpoint(self):
        tab = histogram_tab()
        stats = ts.cumulate(tab)
        d = build_density(stats)
        q_bottom = float(stats.bracket_fraction[-1])
        covered = stats.covered_fraction
        p = q_bottom / 2.0 + (covered - q_bottom)
        assert d.quantile_top(p) == pytest.approx(75.0)

    def test_quantile_cdf_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            d = build_density(stats)
            covered = d.covered_fraction
            for p in rng.uniform(1e-6, 1.0, size=40) * covered:
                y = d.quantile_top(float(p))
                back = covered - d.cdf(y)
                assert back == pytest.approx(p, rel=1e-10)

    def test_uncovered_fractile_raises(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        with pytest.raises(FractileNotCoveredError):
            d.quantile_top(0.5)

    def test_tail_frac_complements_cdf_frac(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        for k in range(len(d.thresholds)):
            lower, upper, mass, rate, _ = piece_columns(d, k)
            if mass == 0.0:
                continue
            top = lower + 3.0 if math.isinf(upper) else upper
            for s in (0.1, 0.5, 0.9):
                y = lower + s * (top - lower)
                assert (maxent._tail_frac(lower, upper, rate, y)
                        + maxent._cdf_frac(lower, upper, rate, y)) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_tail_frac_keeps_relative_precision_for_tiny_tails(self):
        mpmath.mp.dps = 50
        for rate in (2.5, -2.5, 40.0):
            y = 3.0 - 1e-9  # tail mass around 1e-9 of the piece
            lam = mpmath.mpf(rate)
            ref = float((mpmath.exp(lam * 3) - mpmath.exp(lam * y))
                        / (mpmath.exp(lam * 3) - mpmath.exp(lam * 1)))
            assert maxent._tail_frac(1.0, 3.0, rate, y) == pytest.approx(ref, rel=1e-9)

    def test_partial_expectation_matches_quadrature(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        points = [float(t) for t in d.thresholds]
        top = float(d.thresholds[0])
        for y in (1200.0, 2000.0, 7777.0, 100_000.0):
            inner, _ = integrate.quad(lambda x: x * d.pdf(x), y, top,
                                      points=[t for t in points if y <= t],
                                      limit=200)
            lower, _, mass, rate, _ = piece_columns(d, 0)
            # analytic unbounded-tail remainder above the top threshold
            tail = mass * (lower - 1.0 / rate) if y <= top else 0.0
            oracle = inner + tail
            assert d.partial_expectation_above(y) == pytest.approx(oracle, rel=1e-9)


class TestEstimateShareME:
    def test_exact_at_tabulated_fractions(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            for k in range(stats.num_brackets):
                est = estimate(tab, float(stats.top_fraction[k]), "ME")
                exact = float(stats.income_above[k]) / stats.total_income
                assert est.share == pytest.approx(exact, rel=1e-10)

    def test_exact_pareto_population_close_to_closed_form(self):
        tab = pareto_population_tabulation(2.0, 1.0, 10**6, 30)
        est = estimate(tab, 0.10, "ME")
        assert abs(est.share / 0.10 ** 0.5 - 1.0) < 0.01

    def test_mid_sample_fractile_against_micro_oracle(self):
        from topshares import microbench as mb
        sample = mb.generate(mb.LognormalDist(0.0, 1.0), 200_000, seed=5)
        thresholds = mb.quantile_thresholds(sample, 20)
        tab = mb.tabulate(sample, thresholds)
        est = estimate(tab, 0.50, "ME")
        oracle = mb.oracle_share(sample, 0.50)
        assert abs(est.share / oracle - 1.0) < 5e-3

    def test_deep_tail_flagged_extrapolated(self, table_1920):
        stats = ts.cumulate(table_1920)
        p = float(stats.top_fraction[0]) / 20.0
        est = estimate(table_1920, p, "ME")
        assert est.extrapolated
        assert est.method == "ME"
        assert est.threshold > float(stats.thresholds[0])


class TestRateZeroContinuity:
    def test_queries_approach_uniform_branch(self):
        # |rate * width| -> 0: every closed form meets its uniform limit
        lo, width, q = 10.0, 4.0, 0.25
        for u in (1e-12, -1e-12, 1e-9, -1e-9):
            rate = u / width
            hi = lo + width
            for y in (10.5, 12.0, 13.9):
                assert maxent._cdf_frac(lo, hi, rate, y) == pytest.approx(
                    maxent._cdf_frac(lo, hi, 0.0, y), rel=1e-9)
                assert maxent._density_at(lo, hi, q, rate, y) == pytest.approx(
                    maxent._density_at(lo, hi, q, 0.0, y), rel=1e-9)
            for frac in (0.1, 0.5, 0.9):
                assert maxent._quantile_upper(lo, hi, rate, frac) == pytest.approx(
                    maxent._quantile_upper(lo, hi, 0.0, frac), rel=1e-9)
            for y in (10.5, 12.0, 13.9):
                t_val = q * (1 - maxent._cdf_frac(lo, hi, rate, y)) * (
                    y + (lo + width - y) * maxent._mean_frac(rate * (lo + width - y)))
                f_val = q * (1 - maxent._cdf_frac(lo, hi, 0.0, y)) * (
                    y + 0.5 * (lo + width - y))
                assert t_val == pytest.approx(f_val, rel=1e-9)

    def test_solve_rate_continuous_at_symmetric_mean(self):
        lo, width = 5.0, 2.0
        for eps in (1e-13, -1e-13):
            rate = solve_rate(lo, lo + width, lo + width * (0.5 + eps))
            assert abs(rate * width) < 1e-9


class TestRecoverThresholds:
    def exponential_stats(self, rate, thresholds, t_bottom):
        """Exact bracket masses/means of a shifted exponential truth."""
        t = np.asarray(thresholds, dtype=float)
        surv = np.exp(-rate * (t - t_bottom))
        q, y = [], []
        for k in range(len(t)):
            upper_s = surv[k - 1] if k > 0 else 0.0
            q.append(surv[k] - upper_s)
            if k == 0:
                y.append(t[0] + 1.0 / rate)
            else:
                w = t[k - 1] - t[k]
                y.append(t[k] + w * maxent._mean_frac(-rate * w))
        return stats_from_masses(q, y, thresholds=t)

    def test_k3_single_exponential_truth_recovered(self):
        t_true = np.array([4.0, 2.5, 1.0])
        stats = self.exponential_stats(0.5, t_true, 1.0)
        sol = ts.recover_thresholds(stats, 1.0)
        assert sol.converged
        np.testing.assert_allclose(sol.thresholds, t_true, rtol=1e-6)
        # at the optimum the density is continuous across boundaries
        d = build_density(dataclasses.replace(stats, thresholds=sol.thresholds))
        for k in range(2):
            b = float(sol.thresholds[k])
            above = maxent._density_at(*piece_columns(d, k)[:4], b)
            jump = above - maxent._density_at(*piece_columns(d, k + 1)[:4], b)
            assert abs(jump) < 1e-8 * above

    def test_fixed_point_returns_optimum_unchanged(self):
        t_true = np.array([6.0, 3.0, 2.0, 1.0])
        stats = self.exponential_stats(0.8, t_true, 1.0)
        sol = ts.recover_thresholds(stats, 1.0)
        np.testing.assert_allclose(sol.thresholds, t_true, rtol=1e-6)
        assert sol.grad_norm <= 1e-10 * (1 + abs(sol.objective))

    def test_k2_matches_golden_section_oracle(self):
        # discontinuous two-piece truth: compare against a brute-force scan
        lam_low = -0.3
        t1, t_bottom = 3.0, 1.0
        q1 = 0.3
        w = t1 - t_bottom
        y1 = t1 + 1.0
        y2 = t_bottom + w * maxent._mean_frac(lam_low * w)
        stats = stats_from_masses([q1, 1 - q1], [y1, y2], thresholds=[t1, t_bottom])
        sol = ts.recover_thresholds(stats, t_bottom)

        grid = np.linspace(y2 + 1e-9, y1 - 1e-9, 4001)
        values = [oracle_jstar([t, t_bottom], [q1, 1 - q1], [y1, y2])
                  for t in grid]
        i = int(np.argmin(values))
        spacing = grid[1] - grid[0]
        assert abs(sol.thresholds[0] - grid[i]) <= spacing + 1e-3 * grid[i]
        assert sol.objective <= values[i] + 1e-8

    def test_realistic_bracket_count_recovered(self):
        # single-exponential truth at a dozen brackets: the minimizer is the
        # generating grid (continuous density), found fast and precisely
        rate = 0.7
        t_true = np.linspace(1.0 + 0.35 * 11, 1.0, 12)
        stats = self.exponential_stats(rate, t_true, 1.0)
        sol = ts.recover_thresholds(stats, 1.0)
        assert sol.converged
        assert sol.iterations <= 50
        np.testing.assert_allclose(sol.thresholds, t_true, rtol=1e-8)

    def test_flat_objective_at_float_floor_still_converges(self):
        # a K=8 lognormal tabulation where the full Newton step near the
        # optimum cuts the gradient from ~4e-9 to ~2e-16 but raises the
        # objective (about -10.8) by one ulp; an Armijo-only line search
        # refuses that step and stops at twice the gradient tolerance
        thresholds = [345179.3972763353, 280306.71860647737, 222953.3931892919,
                      172431.2757542555, 128028.56029812014, 88918.20847552374,
                      53756.58835666201, 14852.475119053279]
        counts = [7675, 13490, 37202, 102590, 282911, 780178, 2151480, 5933090]
        sums = [3237149812.3779297, 4137481838.6651344, 9161958344.912594,
                19796052805.28444, 41324757235.16641, 81787349544.63606,
                146704163129.95096, 194931749227.85547]
        tab = ts.Tabulation(
            year=0, brackets=tuple(ts.IncomeBracket(t, n, s) for t, n, s
                                   in zip(thresholds, counts, sums)),
            population=10_000_000, total_income=651404860520.5037)
        stats = ts.cumulate(tab)
        sol = ts.recover_thresholds(stats, thresholds[-1])
        assert sol.converged
        assert sol.grad_norm <= 1e-10 * (1 + abs(sol.objective))
        assert sol.thresholds[-1] == thresholds[-1]
        means = stats.bracket_mean
        for k in range(len(thresholds) - 1):
            assert means[k + 1] < sol.thresholds[k] < means[k]

    def test_iterations_count_newton_steps(self, monkeypatch):
        # the tabulation of test_flat_objective_at_float_floor_still_converges:
        # a cap of the reported count converges, one step fewer does not
        thresholds = [345179.3972763353, 280306.71860647737, 222953.3931892919,
                      172431.2757542555, 128028.56029812014, 88918.20847552374,
                      53756.58835666201, 14852.475119053279]
        counts = [7675, 13490, 37202, 102590, 282911, 780178, 2151480, 5933090]
        sums = [3237149812.3779297, 4137481838.6651344, 9161958344.912594,
                19796052805.28444, 41324757235.16641, 81787349544.63606,
                146704163129.95096, 194931749227.85547]
        tab = ts.Tabulation(
            year=0, brackets=tuple(ts.IncomeBracket(t, n, s) for t, n, s
                                   in zip(thresholds, counts, sums)),
            population=10_000_000, total_income=651404860520.5037)
        stats = ts.cumulate(tab)
        sol = ts.recover_thresholds(stats, thresholds[-1])
        assert sol.converged and sol.iterations >= 1
        monkeypatch.setattr(maxent, "MAX_ITERATIONS", sol.iterations)
        capped = ts.recover_thresholds(stats, thresholds[-1])
        assert capped.converged and capped.iterations == sol.iterations
        np.testing.assert_array_equal(capped.thresholds, sol.thresholds)
        monkeypatch.setattr(maxent, "MAX_ITERATIONS", sol.iterations - 1)
        short = ts.recover_thresholds(stats, thresholds[-1])
        assert not short.converged and short.iterations == sol.iterations - 1

    def test_infeasible_inputs_rejected(self):
        stats = stats_from_masses([0.5, 0.5], [2.0, 3.0], thresholds=[2.5, 1.0])
        with pytest.raises(InfeasibleOrderingError):
            ts.recover_thresholds(stats, 1.0)  # means not increasing upward
        stats2 = stats_from_masses([0.5, 0.5], [3.0, 2.0], thresholds=[2.5, 1.0])
        with pytest.raises(InfeasibleOrderingError):
            ts.recover_thresholds(stats2, 2.5)  # bottom above bottom mean

    def test_non_finite_bottom_threshold_rejected(self):
        # -inf sits below every mean, so only a finiteness check can name it
        stats = stats_from_masses([0.5, 0.5], [3.0, 2.0], thresholds=[2.5, 1.0])
        with pytest.raises(InfeasibleOrderingError, match="must be finite"):
            ts.recover_thresholds(stats, -math.inf)
        for t_bottom in (math.nan, math.inf):
            with pytest.raises(InfeasibleOrderingError, match="must sit below"):
                ts.recover_thresholds(stats, t_bottom)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(2, 60), rate=st.floats(0.2, 2.0),
           span=st.floats(1.0, 12.0), data=st.data())
    def test_recovery_returns_exponential_truth(self, k, rate, span, data):
        # single-rate exponential truth over K brackets: the density is
        # continuous, so the generating thresholds are the optimum; ``span``
        # is rate times the covered income range, so the top bracket holds
        # e^-span of the mass
        weights = np.array(data.draw(st.lists(
            st.floats(0.1, 1.0), min_size=k - 1, max_size=k - 1)))
        gaps = weights * (span / rate) / weights.sum()
        t_true = 1.0 + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
        stats = self.exponential_stats(rate, t_true, 1.0)
        sol = ts.recover_thresholds(stats, 1.0)
        assert sol.converged
        np.testing.assert_allclose(sol.thresholds, t_true, rtol=1e-6)
        y = stats.bracket_mean
        inner = sol.thresholds[:-1]
        assert np.all((y[1:] < inner) & (inner < y[:-1]))


def lognormal_ladder_stats(k: int, mu: float = math.log(3e4), sigma: float = 0.8,
                           population: int = 10_000_000):
    """Tabulation of a lognormal at K top fractions on a geometric ladder
    from 0.1% to 90%: integer cumulative counts, thresholds at the survival
    quantiles, bracket incomes from the closed-form partial expectation."""
    counts_above = [round(f * population) for f in np.geomspace(1e-3, 0.9, k)]
    thresholds = [math.exp(mu - sigma * NormalDist().inv_cdf(c / population))
                  for c in counts_above]

    def partial_above(t):
        z = (math.log(t) - mu - sigma * sigma) / (sigma * math.sqrt(2.0))
        return population * math.exp(mu + 0.5 * sigma * sigma) * 0.5 * math.erfc(z)

    partial = [partial_above(t) for t in thresholds]
    sums = [partial[0]] + [b - a for a, b in zip(partial, partial[1:])]
    counts = [counts_above[0]] + [b - a for a, b in zip(counts_above, counts_above[1:])]
    tab = ts.Tabulation(
        year=0, brackets=tuple(ts.IncomeBracket(t, n, s) for t, n, s
                               in zip(thresholds, counts, sums)),
        population=population, total_income=1.3 * math.fsum(sums))
    return ts.cumulate(tab)


def flat_objective_stats():
    """The K = 8 tabulation of test_flat_objective_at_float_floor_still_converges."""
    thresholds = [345179.3972763353, 280306.71860647737, 222953.3931892919,
                  172431.2757542555, 128028.56029812014, 88918.20847552374,
                  53756.58835666201, 14852.475119053279]
    counts = [7675, 13490, 37202, 102590, 282911, 780178, 2151480, 5933090]
    sums = [3237149812.3779297, 4137481838.6651344, 9161958344.912594,
            19796052805.28444, 41324757235.16641, 81787349544.63606,
            146704163129.95096, 194931749227.85547]
    tab = ts.Tabulation(
        year=0, brackets=tuple(ts.IncomeBracket(t, n, s) for t, n, s
                               in zip(thresholds, counts, sums)),
        population=10_000_000, total_income=651404860520.5037)
    return ts.cumulate(tab)


def solution_digest(sol) -> str:
    """SHA-256 over every field of a ThresholdSolution, bit for bit."""
    h = hashlib.sha256(np.ascontiguousarray(sol.thresholds, dtype="<f8").tobytes())
    h.update(struct.pack("<ddq?", sol.objective, sol.grad_norm,
                         sol.iterations, sol.converged))
    return h.hexdigest()


# These digests depend on the bits of numpy's exp, expm1, log, log1p and sin,
# which follow the SIMD code path numpy dispatches to on the host CPU.
RECOVERY_DIGESTS = {
    "ladder-8": "de9ad7ab81a219371b810ecafb443395f9b98ae3ce1ab68ac08baa516577da8d",
    "ladder-20": "a4e6194bd1ad2660bd416201a4179064504c01691cf6fc5dd756e2305f389186",
    "ladder-40": "2cf486c8f82e83a5cbce13bf9d31c080b8cef3d62c1106284c7026d1f6aa2eba",
    "ladder-60": "af40a97d652ed807289a06fe39f3997498fa970dedb4c514fd47e3a1989c0df3",
    "flat-8": "b080f4c68708ebeff48ec73c9dfee156316b0d3029f4709a52ae45fa96450584",
}


@pytest.mark.parametrize("case", sorted(RECOVERY_DIGESTS))
def test_recovery_bits_pinned(case):
    # every bit of each recovery is pinned; a change that moves one
    # re-records the digest with a per-digest diff of the solutions
    kind, k = case.rsplit("-", 1)
    stats = flat_objective_stats() if kind == "flat" else lognormal_ladder_stats(int(k))
    sol = ts.recover_thresholds(stats, float(stats.thresholds[-1]))
    assert sol.converged
    assert solution_digest(sol) == RECOVERY_DIGESTS[case]


@pytest.mark.parametrize("k", [8, 60])
def test_gradient_entry_reads_only_neighbouring_thresholds(k):
    # the premise of the tridiagonal Hessian: moving threshold j changes the
    # density jumps at j-1, j and j+1 and leaves every other one bit-identical
    stats = lognormal_ladder_stats(k)
    t = stats.thresholds.astype(float)
    y = stats.bracket_mean
    _, base, _ = maxent._divergence(stats, t)
    for j in sorted({0, 1, k // 2, k - 3, k - 2}):
        moved = t.copy()
        moved[j] += 0.25 * (y[j] - t[j])  # stays between the means it separates
        _, grad, _ = maxent._divergence(stats, moved)
        band = np.zeros(k - 1, dtype=bool)
        band[max(j - 1, 0):j + 2] = True
        np.testing.assert_array_equal(grad[~band], base[~band])
        assert grad[j] != base[j]


@pytest.mark.parametrize("k", [3, 8, 20, 60])
def test_one_rate_solve_per_line_search_trial(monkeypatch, k):
    # each _divergence call (the start and each line-search trial) is one
    # rate solve and yields the Hessian of the next step; on the ladders
    # every full Newton step is accepted, so a recovery makes 1 + iterations
    calls = {"divergence": 0, "solve": 0}
    divergence, solve_rates = maxent._divergence, maxent._solve_rates

    def counting_divergence(*args):
        calls["divergence"] += 1
        return divergence(*args)

    def counting_solve_rates(*args):
        calls["solve"] += 1
        return solve_rates(*args)

    monkeypatch.setattr(maxent, "_divergence", counting_divergence)
    monkeypatch.setattr(maxent, "_solve_rates", counting_solve_rates)
    stats = lognormal_ladder_stats(k)
    sol = ts.recover_thresholds(stats, float(stats.thresholds[-1]))
    assert sol.converged and sol.iterations >= 1
    assert calls == {"divergence": 1 + sol.iterations, "solve": 1 + sol.iterations}


def test_line_search_halves_a_step_and_converges(monkeypatch):
    # draw 51 of random_tabulation on seed 0 (K = 12): one full Newton step
    # is refused, so the recovery makes more _divergence calls than 1 +
    # iterations (11 calls for 9 steps when this was pinned)
    rng = np.random.default_rng(0)
    for _ in range(51):
        random_tabulation(rng)
    stats = ts.cumulate(random_tabulation(rng))
    calls = [0]
    divergence = maxent._divergence

    def counting_divergence(*args):
        calls[0] += 1
        return divergence(*args)

    monkeypatch.setattr(maxent, "_divergence", counting_divergence)
    sol = ts.recover_thresholds(stats, float(stats.thresholds[-1]))
    assert stats.num_brackets == 12
    assert sol.converged
    assert calls[0] > 1 + sol.iterations
    y = stats.bracket_mean
    inner = sol.thresholds[:-1]
    assert np.all((y[1:] < inner) & (inner < y[:-1]))


def test_exhausted_line_search_returns_the_last_accepted_iterate(monkeypatch):
    # past the first two Newton steps every trial reads an objective one
    # higher, so no step lowers it and the search halves the step until it
    # gives up: the recovery stops unconverged at the second iterate, as a
    # run capped at two steps leaves it
    stats = lognormal_ladder_stats(8)
    t_bottom = float(stats.thresholds[-1])
    with monkeypatch.context() as cap:  # undone before the line search runs
        cap.setattr(maxent, "MAX_ITERATIONS", 2)
        capped = ts.recover_thresholds(stats, t_bottom)
    assert capped.iterations == 2 and not capped.converged
    calls = [0]
    divergence = maxent._divergence

    def raised_divergence(*args):
        calls[0] += 1
        value, grad, hess = divergence(*args)
        return value + (1.0 if calls[0] > 3 else 0.0), grad, hess

    monkeypatch.setattr(maxent, "_divergence", raised_divergence)
    sol = ts.recover_thresholds(stats, t_bottom)
    assert not sol.converged and sol.iterations == 2
    assert calls[0] == 3 + 60  # the start, two accepted steps, 60 refused trials
    np.testing.assert_array_equal(sol.thresholds, capped.thresholds)
    assert (sol.objective, sol.grad_norm) == (capped.objective, capped.grad_norm)


@pytest.mark.parametrize("k", [8, 20, 40, 60])
def test_ladder_rate_solves_take_at_most_four_mean_evaluations(monkeypatch, k):
    # on a ladder's brackets the initial guess lies close to the root and
    # the closed-form bracket costs no evaluation: at most 4 mean
    # evaluations per rate solve on average (20, 17, 19 and 23 in the 5, 5,
    # 5 and 6 solves of K = 8, 20, 40 and 60 when this was pinned)
    evaluations, per_solve = [0], []
    mean_frac, solve_rates = maxent._mean_frac, maxent._solve_rates

    def counting_mean_frac(u):
        evaluations[0] += 1
        return mean_frac(u)

    def counting_solve_rates(*args):
        before = evaluations[0]
        out = solve_rates(*args)
        per_solve.append(evaluations[0] - before)
        return out

    monkeypatch.setattr(maxent, "_mean_frac", counting_mean_frac)
    monkeypatch.setattr(maxent, "_solve_rates", counting_solve_rates)
    stats = lognormal_ladder_stats(k)
    assert ts.recover_thresholds(stats, float(stats.thresholds[-1])).converged
    assert per_solve and sum(per_solve) <= 4 * len(per_solve), per_solve


@pytest.mark.parametrize("k", [8, 20, 40, 60])
def test_ladder_rate_solves_take_at_most_two_newton_rounds(monkeypatch, k):
    # from the inverse-Langevin start every bounded element of every rate
    # solve of a ladder recovery converges in at most two Newton rounds: a
    # solve evaluates the mean at its start and once per round
    evaluations, per_solve = [0], []
    mean_frac, solve_rates = maxent._mean_frac, maxent._solve_rates

    def counting_mean_frac(u):
        evaluations[0] += 1
        return mean_frac(u)

    def counting_solve_rates(*args):
        before = evaluations[0]
        out = solve_rates(*args)
        per_solve.append(evaluations[0] - before)
        return out

    monkeypatch.setattr(maxent, "_mean_frac", counting_mean_frac)
    monkeypatch.setattr(maxent, "_solve_rates", counting_solve_rates)
    stats = lognormal_ladder_stats(k)
    assert ts.recover_thresholds(stats, float(stats.thresholds[-1])).converged
    assert per_solve and max(per_solve) <= 1 + 2, per_solve


def steep_stats():
    """K = 4 brackets on [10, inf), [6, 10), [3, 6), [1, 3) whose middle
    pieces are steep at their given thresholds: u = rate * width is about
    +60 on [6, 10) and -60 on [3, 6)."""
    return stats_from_masses([0.1, 0.2, 0.3, 0.4],
                             [12.0, 6.0 + 4.0 * (1.0 - 1.0 / 60.0), 3.0 + 3.0 / 60.0, 2.2],
                             thresholds=[10.0, 6.0, 3.0, 1.0])


def hessian_cases():
    """(name, stats, thresholds): ladders at their tabulated thresholds and
    at the box midpoints where recovery starts, and the steep pieces."""
    cases = []
    for k in (8, 20):
        stats = lognormal_ladder_stats(k)
        y = stats.bracket_mean
        cases.append((f"ladder-{k}", stats, stats.thresholds.astype(float)))
        cases.append((f"midpoints-{k}", stats,
                      np.append(0.5 * (y[1:] + y[:-1]), stats.thresholds[-1])))
    stats = steep_stats()
    cases.append(("steep", stats, stats.thresholds.astype(float)))
    return cases


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("case", hessian_cases(), ids=lambda c: c[0])
def test_hessian_matches_central_differences_of_the_gradient(case):
    _, stats, t = case
    _, _, band = maxent._divergence(stats, t)
    hess = dense(*band)
    fd = np.zeros_like(hess)
    for j in range(len(t) - 1):
        h = 1e-6 * (stats.bracket_mean[j] - stats.bracket_mean[j + 1])
        plus, minus = t.copy(), t.copy()
        plus[j] += h
        minus[j] -= h
        fd[:, j] = (maxent._divergence(stats, plus)[1]
                    - maxent._divergence(stats, minus)[1]) / (2.0 * h)
    # the whole matrix: the band, and zeros off it
    assert np.max(np.abs(hess - fd)) <= 1e-7 * np.max(np.abs(hess))


def test_newton_direction_matches_a_dense_solve():
    # the Thomas sweep against LAPACK on random well-conditioned positive
    # definite bands, diagonally dominant or not, of every size a recovery
    # meets
    rng = np.random.default_rng(31)
    for n in [1, 2, 3, *rng.integers(4, 80, 40).tolist()]:
        for dominant in (True, False):
            off = rng.normal(size=n - 1)
            if dominant:
                diag = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off)) \
                    + rng.uniform(0.1, 2.0, n)
            else:  # L L^T of a random bidiagonal L, |subdiagonal| < diagonal
                a, b = rng.uniform(1.0, 2.0, n), rng.uniform(-0.9, 0.9, n - 1)
                diag, off = a * a + np.append(0.0, b * b), a[:-1] * b
            grad = rng.normal(size=n)
            expected = np.linalg.solve(dense(diag, off), -grad)
            direction = maxent._newton_direction(diag, off, grad)
            assert np.max(np.abs(direction - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("diag,off", [
    ([0.0, 1.0], [1.0]),  # zero first pivot
    ([1.0, 1.0], [1.0]),  # zero second pivot
    ([1.0, 2.0, 1.0], [1.0, 1.0]),  # zero last pivot
    ([1e-300, 1.0], [1e10]),  # the pivot after it overflows
    ([-1.0, -2.0], [0.5]),  # definite, but an ascent direction
], ids=["first", "second", "last", "overflow", "ascent"])
def test_newton_direction_falls_back_to_steepest_descent(diag, off):
    grad = np.array([0.5, -2.0, 1.0][:len(diag)])
    direction = maxent._newton_direction(np.array(diag), np.array(off), grad)
    np.testing.assert_array_equal(direction, -grad)


def mp_gradient(stats, t):
    """The density-jump gradient at mpmath's working precision: every
    bounded piece's tilt solved by its root finder on the raw mean
    condition."""
    q = [mpmath.mpf(float(v)) for v in stats.bracket_fraction]
    y = [mpmath.mpf(float(v)) for v in stats.bracket_mean]

    def edges(k):  # densities at the lower and upper edge of piece k
        lo, hi = t[k], t[k - 1]
        w = hi - lo
        r = (y[k] - lo) / w
        guess = solve_rate(float(lo), float(hi), float(y[k])) * float(w)
        u = mpmath.findroot(lambda u: 1 / (1 - mpmath.exp(-u)) - 1 / u - r, guess)
        f_lo = q[k] * u / (w * mpmath.expm1(u))
        return f_lo, f_lo * mpmath.exp(u)

    f_lo, f_hi = zip(*[edges(k) for k in range(1, len(t))])
    return [a - b for a, b in zip([q[0] / (y[0] - t[0]), *f_lo], f_hi)]


@pytest.mark.parametrize("case", [c for c in hessian_cases()
                                  if c[0] in ("ladder-8", "steep")],
                         ids=lambda c: c[0])
def test_hessian_against_mpmath(case):
    _, stats, t = case
    hess = dense(*maxent._divergence(stats, t)[2])
    mpmath.mp.dps = 40
    t_mp = [mpmath.mpf(float(v)) for v in t]
    for i in range(len(t) - 1):
        def grad_at(x, i=i):
            moved = list(t_mp)
            moved[i] = x
            return mp_gradient(stats, moved)
        column = [mpmath.diff(lambda x, j=j: grad_at(x)[j], t_mp[i])
                  for j in range(max(i - 1, 0), min(i + 2, len(t) - 1))]
        got = hess[max(i - 1, 0):i + 2, i]
        for g, ref in zip(got, column):
            assert abs(g - float(ref)) <= 1e-9 * abs(float(ref)), (i, g, ref)


def piece_bits(density) -> bytes:
    return np.array([density.thresholds, density.mass, density.rate,
                     density.mean]).tobytes()


def densities(stats):
    """``maxent._densities`` of tabulations at their own thresholds."""
    return maxent._densities(ts.tabulation._stack(
        [(s.thresholds, s.bracket_fraction, s.bracket_mean, s.top_fraction)
         for s in stats]))


def test_stacked_density_build_matches_each_year_alone(table_1920):
    # one rate solve over every year gives each year the density it gets
    # alone; a year with a mean on its bracket boundary fails by itself
    rng = np.random.default_rng(23)
    stats = [ts.cumulate(table_1920)]
    stats += [ts.cumulate(random_tabulation(rng)) for _ in range(40)]
    stats.insert(20, stats_from_masses([0.2, 0.3], [5.0, 2.0], thresholds=[4.0, 2.0]))
    # a failed year's rows are queried with the rest, so a mean of -inf in
    # the year of a +inf top mean must not stop the batch
    stats.append(dataclasses.replace(stats[0], bracket_mean=np.array(
        [math.inf, -math.inf, *stats[0].bracket_mean[2:]])))
    ((lower, _, mass, rate, mean, above), starts, sizes), errors = densities(stats)
    for i, (one, a, n, error) in enumerate(zip(stats, starts, sizes, errors)):
        if i in (20, len(stats) - 1):
            assert isinstance(error, MeanOnBoundaryError)
            assert error.bracket == 1
            with pytest.raises(MeanOnBoundaryError) as err:
                build_density(one)
            assert str(err.value) == str(error)
            continue
        assert error is None
        alone = build_density(one)
        rows = slice(a, a + n)
        assert np.array([lower[rows], mass[rows], rate[rows], mean[rows]]).tobytes() \
            == piece_bits(alone)
        assert lower[rows].tobytes() == alone.thresholds.tobytes()
        assert above[rows].tobytes() == alone.mass_above.tobytes()
    fractiles = (0.5, 0.1, 0.01, 1e-5)
    for one, outcomes in zip(stats, maxent.estimate_shares(stats, fractiles)):
        [alone] = maxent.estimate_shares([one], fractiles)
        assert [(p, m, repr(o)) for p, m, o in outcomes] == \
            [(p, m, repr(o)) for p, m, o in alone]


def batch_of_years(table_1920):
    """The 41 tabulations of test_stacked_density_build_matches_each_year_alone,
    a year with a mean on its bracket boundary (index 20) and one with an
    empty middle bracket (last)."""
    rng = np.random.default_rng(23)
    stats = [ts.cumulate(table_1920)]
    stats += [ts.cumulate(random_tabulation(rng)) for _ in range(40)]
    stats.insert(20, stats_from_masses([0.2, 0.3], [5.0, 2.0], thresholds=[4.0, 2.0]))
    stats.append(ts.cumulate(ts.Tabulation(
        year=1, brackets=(ts.IncomeBracket(100.0, 10, 10 * 150.0),
                          ts.IncomeBracket(80.0, 0, 0.0),
                          ts.IncomeBracket(50.0, 30, 30 * 70.0)),
        population=100, total_income=5000.0)))
    return stats


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_batched_me_cells_equal_scalar_queries(table_1920):
    # one estimate_shares call answers every ME cell of every year as the
    # year's density answers it one scalar query at a time, errors included
    stats = batch_of_years(table_1920)
    fractiles = [0.5, 0.1, 0.01, 1e-5, 1e-12, 0.0, -0.1, math.nan, 1.5]
    fractiles += [float(s.top_fraction[-1]) for s in stats]  # p == covered
    for s in stats[::8]:
        f = s.top_fraction
        fractiles += [float(p) for p in f]  # tabulated fractions
        fractiles += [float(p) for p in (f[1:] + f[:-1]) / 2]  # between them
        fractiles += [float(f[-1]) * (1 + 1e-9)]  # just above covered
    outcomes = maxent.estimate_shares(stats, fractiles, ("ME",))
    counts = {"estimate": 0, "uncovered": 0, "not positive": 0}
    for i, (one, year) in enumerate(zip(stats, outcomes)):
        assert [(p, m) for p, m, _ in year] == [(p, "ME") for p in fractiles]
        if i == 20:
            with pytest.raises(MeanOnBoundaryError) as err:
                build_density(one)
            assert {(type(o), str(o)) for _, _, o in year} == \
                {(MeanOnBoundaryError, str(err.value))}
            continue
        density = build_density(one)
        for p, _, est in year:
            try:
                t = density.quantile_top(p)
                top = density.population * density.partial_expectation_above(t)
                alone = maxent.me_share_from_density(density, p)
            except ValueError as err:
                assert type(est) is type(err) and str(est) == str(err), (i, p)
                if isinstance(err, FractileNotCoveredError):
                    assert (err.fractile, err.covered) == (p, density.covered_fraction)
                    counts["uncovered"] += 1
                else:
                    assert str(err) == f"fractile must be in (0, 1], got {p}"
                    counts["not positive"] += 1
                continue
            assert isinstance(est, ts.ShareEstimate), (i, p, est)
            assert repr(est) == repr(alone)
            assert all(type(v) is float for v in (est.threshold, est.top_income,
                                                   est.share))
            assert same_bits(est.threshold, t) and same_bits(est.top_income, top)
            assert same_bits(est.share, top / density.total_income)
            counts["estimate"] += 1
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("p", [1.5, 0.0, -0.1, math.nan])
def test_pi_and_me_reject_a_fractile_alike(table_1920, p):
    # one fractile rule: PI, ME and a density's quantile query give the
    # same error type and message for a fractile outside (0, 1], also where
    # returns exceed the population, so that the brackets cover about 2
    total = sum(b.count for b in table_1920.brackets)
    for tab in (table_1920, dataclasses.replace(table_1920, population=total // 2)):
        stats = ts.cumulate(tab)
        [[(_, _, pi), (_, _, me)]] = maxent.estimate_shares([stats], [p], ("PI", "ME"))
        with pytest.raises(ValueError) as err:
            build_density(stats).quantile_top(p)
        assert {(type(e), str(e)) for e in (pi, me, err.value)} == \
            {(ValueError, f"fractile must be in (0, 1], got {p}")}, stats.covered_fraction


def test_array_queries_equal_scalar_queries(table_1920):
    # each density query answers an array elementwise, bit for bit, in the
    # input's shape; the first input a scalar call rejects raises the same
    rng = np.random.default_rng(5)
    years = batch_of_years(table_1920)
    del years[20]  # the boundary-mean year has no density
    for one in years:
        density = build_density(one)
        t = density.thresholds
        ys = np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                             rng.uniform(t[-1], 2 * t[0], 23), [4 * t[0], 1e300]))
        ys = ys[ys >= t[-1]]
        ps = np.concatenate((density.mass_above, rng.uniform(0, 1, 24)
                             * density.covered_fraction, [1e-300]))
        for query, xs in ((density.pdf, ys), (density.cdf, ys),
                          (density.partial_expectation_above, ys),
                          (density.quantile_top, ps)):
            xs = xs[: len(xs) // 2 * 2]
            scalar = np.array([query(float(x)) for x in xs])
            assert all(type(query(float(x))) is float for x in xs[:3])
            assert query(xs).tobytes() == scalar.tobytes(), query
            assert query(xs.reshape(2, -1)).tobytes() == scalar.tobytes()
            assert query(xs.reshape(2, -1)).shape == (2, len(xs) // 2)
        assert density.pdf(np.array([t[-1] - 1.0, -np.inf])).tolist() == [0.0, 0.0]
        covered = density.covered_fraction
        for query, ok, bad in ((density.cdf, t[0], t[-1] - 1.0),
                               (density.quantile_top, covered, 0.0),
                               (density.quantile_top, covered, 2 * covered)):
            with pytest.raises(ValueError) as alone:
                query(float(bad))
            with pytest.raises(type(alone.value)) as batched:
                query(np.array([ok, bad, bad / 3]))
            assert str(batched.value) == str(alone.value)


def piece_by_interval(thresholds, y) -> int:
    """The piece [t_k, t_{k-1}) holding y: the highest whose lower threshold
    is at or below y; the bottom piece when none is (y below the bottom or
    NaN)."""
    return next((k for k, t in enumerate(thresholds) if t <= y),
                len(thresholds) - 1)


def test_piece_index_matches_interval_definition():
    rng = np.random.default_rng(11)
    densities = [build_density(stats_from_masses([0.2, 0.3, 0.5], [9.0, 3.0, 0.5],
                                                 thresholds=[6.0, 1.0, 0.0]))]
    densities += [build_density(ts.cumulate(random_tabulation(rng)))
                  for _ in range(50)]
    for density in densities:
        t = density.thresholds
        probes = [-math.inf, math.inf, math.nan, -1.0, 0.0, -0.0]
        for edge in t:
            probes += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf)]
        probes += list(rng.uniform(t[-1] / 2, 2 * t[0], 20))
        index = maxent._piece_index(ts.tabulation._stack([density._columns]),
                                    np.array([probes]))
        assert index.tolist() == [[piece_by_interval(t, y) for y in probes]], t


def test_segmented_counts_match_per_year_searchsorted(table_1920):
    # one search over a stack of years counts as each year's own
    # np.searchsorted did: on and beside every threshold and
    # every mass_above (repeated by an empty bracket), below the bottom, at
    # +-inf and at NaN
    stats = batch_of_years(table_1920)
    stack, _ = densities(stats)
    (lower, *_, above), starts, sizes = stack
    assert above[starts[-1] + 1] == above[starts[-1]]  # the empty bracket
    edges = np.concatenate([lower, above, [0.0, -0.0, -1.0, math.inf, -math.inf,
                                           math.nan]])
    probes = np.concatenate([edges, np.nextafter(edges, -math.inf),
                             np.nextafter(edges, math.inf)])
    values = np.tile(probes, (len(stats), 1))
    rows = [slice(a, a + n) for a, n in zip(starts, sizes)]
    assert maxent._below(above, starts, sizes, values).tolist() == \
        [np.searchsorted(above[r], probes).tolist() for r in rows]
    assert maxent._piece_index(stack, values).tolist() == \
        [(r.start + np.minimum(np.searchsorted(-lower[r], -probes), n - 1)).tolist()
         for r, n in zip(rows, sizes)]


def test_segmented_counts_on_random_stacks_with_ties():
    # stacks of 1 to 6 years of 1 to 8 ascending entries drawn from a small
    # pool, so that entries tie within and across years, against queries
    # from the same pool and NaN
    rng = np.random.default_rng(3)
    pool = np.array([-math.inf, -2.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 7.0, math.inf])
    for _ in range(300):
        sizes = rng.integers(1, 9, size=rng.integers(1, 7))
        starts = np.cumsum(sizes) - sizes
        column = np.concatenate([np.sort(rng.choice(pool, n)) for n in sizes])
        values = rng.choice(np.append(pool, math.nan), (len(sizes), 12))
        expected = [np.searchsorted(column[a:a + n], row).tolist()
                    for a, n, row in zip(starts, sizes, values)]
        assert maxent._below(column, starts, sizes, values).tolist() == expected


def test_one_density_queries_hold_memory_linear_in_points():
    # each query searches the density's own pieces: a K-by-m comparison of
    # every point with every piece once peaked at about 54 MiB at this size
    tab = pareto_population_tabulation(2.0, 1.0, 10**6, 30)
    density = build_density(ts.cumulate(tab))
    m = 200_000
    for query, points in (
            (density.pdf, np.geomspace(density.support_bottom / 2,
                                       2 * density.thresholds[0], m)),
            (density.quantile_top, np.linspace(density.covered_fraction / m,
                                               density.covered_fraction, m))):
        tracemalloc.start()
        try:
            query(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20, (query.__name__, peak / 2**20)


@st.composite
def accepted_tabulations(draw):
    """Tabulations that ``validate`` accepts: 2-12 brackets, thresholds 0
    or in [smallest positive normal, 1e12], means anywhere in their brackets
    (on the lower edge included), empty brackets below the top, incomes in
    units of 1 or 1000."""
    k = draw(st.integers(2, 12))
    thresholds = sorted(draw(st.lists(st.floats(sys.float_info.min, 1e12), min_size=k,
                                      max_size=k, unique=True)), reverse=True)
    if draw(st.booleans()):
        thresholds[-1] = 0.0
    unit = draw(st.sampled_from([1.0, 1000.0]))
    brackets = []
    for i, lower in enumerate(thresholds):
        count = draw(st.integers(1 if i == 0 else 0, 10**6))
        if i == 0:
            mean = lower * draw(st.floats(1.0, 1e6, exclude_min=True))
        else:
            upper = thresholds[i - 1]
            mean = lower + (upper - lower) * draw(st.floats(0.0, 1.0,
                                                            exclude_max=True))
        brackets.append(ts.IncomeBracket(lower, count, count * mean / unit))
    returns = sum(b.count for b in brackets)
    income = sum(b.income_sum for b in brackets)
    tab = ts.Tabulation(
        year=1950, brackets=tuple(brackets),
        population=returns + draw(st.integers(0, 10**6)),
        total_income=income * draw(st.floats(1.0, 3.0)))
    assume(not ts.validate(tab))
    return tab


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tab=accepted_tabulations())
@example(tab=ts.Tabulation(  # a subnormal mean position once gave NaN, "ok"
    year=1950, brackets=(ts.IncomeBracket(1.0, 1, 2.0),
                         ts.IncomeBracket(0.0, 2, 4.450147717014407e-309)),
    population=3, total_income=3.0))
def test_every_accepted_tabulation_gives_a_finite_share_or_a_typed_error(tab):
    [outcomes] = maxent.estimate_shares([ts.cumulate(tab)],
                                        (0.9, 0.5, 0.1, 0.01, 1e-4))
    for p, method, est in outcomes:
        if isinstance(est, Exception):
            assert isinstance(est, (TopsharesError, ValueError)), (p, method)
        else:
            assert all(map(math.isfinite, (est.share, est.threshold,
                                           est.top_income))), (p, method, est)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tab=accepted_tabulations())
def test_both_methods_exact_at_tabulated_fractions(tab):
    # at a tabulated fraction p_k the ME threshold is the k-th threshold
    # exactly (the first k when empty brackets repeat p_k), and both methods
    # reproduce the tabulated income above it
    stats = ts.cumulate(tab)
    fractions = [float(p) for p in stats.top_fraction]
    [outcomes] = maxent.estimate_shares([stats], fractions)
    for p, method, est in outcomes:
        if isinstance(est, Exception):
            continue
        k = fractions.index(p)
        if method == "ME":
            assert est.threshold == float(stats.thresholds[k]), (k, est)
        exact = float(stats.income_above[k]) / stats.total_income
        assert est.share == pytest.approx(exact, rel=1e-10), (k, method, est)


@pytest.mark.parametrize("u", [80.0, -80.0, 700.0, -700.0])
def test_steep_piece_kernels_against_mpmath(u):
    # |u| = |rate * width| > 50: the steep forms of the cdf and tail
    # fractions (u > 50) and of the quantile (its mirror at u < -50),
    # against 50-digit evaluation of the raw closed forms
    mpmath.mp.dps = 50
    lo, width, q = 2.0, 1.5, 0.3
    hi = lo + width
    rate = u / width
    r, lo_mp, hi_mp = mpmath.mpf(rate), mpmath.mpf(lo), mpmath.mpf(hi)
    scale = mpmath.exp(r * hi_mp) - mpmath.exp(r * lo_mp)

    def mass_between(a, b):  # fraction of the piece's mass on [a, b]
        return (mpmath.exp(r * mpmath.mpf(b)) - mpmath.exp(r * mpmath.mpf(a))) / scale

    def anti(x):  # antiderivative of x e^(rate x), times rate
        return mpmath.exp(r * x) * (x - 1 / r)

    for s in (0.1, 0.4, 0.9):
        y = lo + s * width
        for got, ref in ((maxent._cdf_frac(lo, hi, rate, y), mass_between(lo, y)),
                         (maxent._tail_frac(lo, hi, rate, y), mass_between(y, hi))):
            assert abs(got / float(ref) - 1) <= 1e-9, (s, got, ref)
        ref_pe = q * (anti(hi_mp) - anti(mpmath.mpf(y))) / scale
        got = maxent._partial_expectation(lo, hi, q, rate, math.nan, y)
        assert abs(got / float(ref_pe) - 1) <= 1e-9, (s, got, ref_pe)
    for frac in (0.9, 0.35, 1e-3):
        y_star = float(maxent._quantile_upper(lo, hi, rate, frac))
        assert lo <= y_star <= hi
        assert abs(float(mass_between(y_star, hi)) / frac - 1) <= 1e-9, (frac, y_star)


# Each kernel as it was when it computed every branch on every element and
# selected with np.where. The kernels now compute a rarer branch only when
# some element takes it, and must still give every element these bits.

def all_branch_iexp(u):
    return np.where(np.abs(u) < maxent.SERIES_SWITCH,
                    1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0)), np.expm1(u) / u)


def all_branch_log_iexp(u):
    high = u + np.log1p(-np.exp(-u)) - np.log(u)
    low = np.log(-np.expm1(u)) - np.log(-u)
    return np.where(u > 35.0, high, np.where(u < -35.0, low, np.log(all_branch_iexp(u))))


def all_branch_mean_frac(u):
    w = np.abs(u)
    direct = 1.0 / (-np.expm1(-w)) - 1.0 / w
    u3 = u * u * u
    series = 0.5 + u / 12.0 - u3 / 720.0 + u3 * u * u / 30240.0
    return np.where(w < 1e-2, series, np.where(u > 0.0, direct, 1.0 - direct))


def all_branch_mean_frac_deriv(u):
    w = np.abs(u)
    e = -np.expm1(-w)
    u2 = u * u
    return np.where(w < 1e-2, 1.0 / 12.0 - u2 / 240.0 + u2 * u2 / 6048.0,
                    1.0 / u2 - np.exp(-w) / (e * e))


def all_branch_density_at(lower, upper, mass, rate, y):
    z, width = y - lower, upper - lower
    u = rate * width
    unbounded = mass * (-rate) * np.exp(rate * z)
    steep = mass * rate * np.exp(rate * (z - width)) / (-np.expm1(-u))
    tilted = (mass / width) * np.exp(rate * z) / all_branch_iexp(u)
    return np.where(np.isinf(upper), unbounded, np.where(u > 50.0, steep, tilted))


def all_branch_cdf_frac(lower, upper, rate, y):
    z, width = y - lower, upper - lower
    u = rate * width
    steep = np.exp(rate * (z - width)) * np.expm1(-rate * z) / np.expm1(-u)
    tilted = (z / width) * all_branch_iexp(rate * z) / all_branch_iexp(u)
    return np.where(np.isinf(upper), -np.expm1(rate * z),
                    np.where(u > 50.0, steep, tilted))


def all_branch_tail_frac(lower, upper, rate, y):
    z, width = y - lower, upper - lower
    u = rate * width
    w = width - z
    steep = np.expm1(-rate * w) / np.expm1(-u)
    tilted = np.exp(rate * z) * (w / width) * all_branch_iexp(rate * w) / all_branch_iexp(u)
    return np.where(np.isinf(upper), np.exp(rate * z),
                    np.where(u > 50.0, steep, tilted))


def all_branch_quantile_upper(lower, upper, rate, frac):
    rate = np.asarray(rate, dtype=float)
    width = upper - lower
    u = -rate * width
    shifted = width + np.log(frac + (1.0 - frac) * np.exp(-u)) * (width / u)
    direct = np.log1p(frac * u * all_branch_iexp(u)) * (width / u)
    below = np.where(u == 0.0, frac * width, np.where(u > 50.0, shifted, direct))
    return np.where(np.isinf(upper), lower + np.log(frac) / rate, upper - below)


def all_branch_partial_expectation(lower, upper, mass, rate, mean, y):
    rate = np.asarray(rate, dtype=float)
    tail, w = mass * all_branch_tail_frac(lower, upper, rate, y), upper - y
    above = tail * np.where(np.isinf(upper), y - 1.0 / rate,
                            y + w * all_branch_mean_frac(rate * w))
    whole = np.where(mass > 0.0, mass * mean, 0.0)
    return np.where(y <= lower, whole, np.where(y >= upper, 0.0, above))


ALL_BRANCH = {  # kernel: (all-branch form, its argument columns)
    "_iexp": (all_branch_iexp, "u"),
    "_log_iexp": (all_branch_log_iexp, "u"),
    "_mean_frac": (all_branch_mean_frac, "u"),
    "_mean_frac_deriv": (all_branch_mean_frac_deriv, "u"),
    "_density_at": (all_branch_density_at, "lower upper mass rate y"),
    "_cdf_frac": (all_branch_cdf_frac, "lower upper rate y"),
    "_tail_frac": (all_branch_tail_frac, "lower upper rate y"),
    "_quantile_upper": (all_branch_quantile_upper, "lower upper rate frac"),
    "_partial_expectation": (all_branch_partial_expectation,
                             "lower upper mass rate mean y"),
}

# every branch: both series (|u| below SERIES_SWITCH and below 1e-2), both
# sides of +-35 and +-50, signed zeros, a tiny u, NaN and +-inf
MIXED_U = [0.0, -0.0, 4e-7, -4e-7, 5e-3, -5e-3, 0.7, -3.0, 34.0, -34.0, 36.0,
           -36.0, 49.0, 51.0, -51.0, 80.0, 700.0, -700.0, 1e-300,
           math.nan, math.inf, -math.inf]
COMMON_U = [0.02, -0.02, 0.7, -3.0, 12.0, -20.0, 30.0]


def kernel_columns(kind: str) -> dict[str, np.ndarray]:
    """Argument columns of the kernels. "mixed" rows read pieces on [2, 3.5)
    at every u of MIXED_U and unbounded pieces on [2, inf), also with rate
    > 0 (u = inf, so steep and unbounded both hold), at positions inside,
    on and past either edge, NaN and +-inf, plus an empty piece and an
    inverted one (y both at or above upper and at or below lower); "common"
    rows take each kernel's common branch only."""
    us, places = ((MIXED_U, [0.0, 0.3, 1.0, 1.2, -0.5, math.nan, math.inf, -math.inf])
                  if kind == "mixed" else (COMMON_U, [0.1, 0.5, 0.9]))
    rows = [(2.0, 3.5, 0.3, u / 1.5, 2.6, 2.0 + s * 1.5, s) for u in us for s in places]
    if kind == "mixed":
        rows += [(2.0, math.inf, 0.3, rate, 4.0, 2.0 + 2.0 * s, s)
                 for rate in (-0.5, 0.5, 0.0, -0.0, math.nan) for s in places]
        rows += [(2.0, 3.5, 0.0, 0.0, math.nan, 2.6, 0.4),  # empty
                 (3.5, 2.0, 0.3, -0.4, 2.6, 2.5, 0.5)]  # inverted
    columns = dict(zip(["lower", "upper", "mass", "rate", "mean", "y", "frac"],
                       map(np.array, zip(*rows))))
    return {"u": np.array(us), **columns}


def assert_same_bits(got, ref, *context):
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.dtype) == (ref.shape, ref.dtype), context
    assert got.tobytes() == ref.tobytes(), (context, got, ref)


@pytest.mark.parametrize("kind", ["mixed", "common"])
@pytest.mark.parametrize("name", sorted(ALL_BRANCH))
def test_kernels_give_the_bits_of_their_all_branch_forms(name, kind):
    # on arrays, and on each row as Python floats
    reference, names = ALL_BRANCH[name]
    columns = kernel_columns(kind)
    args = [columns[n] for n in names.split()]
    kernel = getattr(maxent, name)
    with np.errstate(all="ignore"):
        assert_same_bits(kernel(*args), reference(*args))
        for row in zip(*(a.tolist() for a in args)):
            assert_same_bits(kernel(*row), reference(*map(np.float64, row)), row)


def count_series_calls(monkeypatch) -> dict[str, int]:
    calls = {"_iexp_series": 0, "_mean_frac_series": 0}
    for name in calls:
        def counting(u, name=name, series=getattr(maxent, name)):
            calls[name] += 1
            return series(u)
        monkeypatch.setattr(maxent, name, counting)
    return calls


def test_ladder_recovery_never_computes_a_series_branch(monkeypatch):
    # no ladder piece has |u| below 1e-2, so neither series is computed
    calls = count_series_calls(monkeypatch)
    for k in (8, 20):
        stats = lognormal_ladder_stats(k)
        assert ts.recover_thresholds(stats, float(stats.thresholds[-1])).converged
    assert calls == {"_iexp_series": 0, "_mean_frac_series": 0}


def test_near_uniform_piece_takes_the_series_branches_bit_for_bit(monkeypatch):
    # bracket [3, 6) has its mean 1e-9 of its width above the midpoint, so
    # u is about 1.2e-8: its rate solve and queries take both series, and
    # the density and its queries equal those of the all-branch kernels
    stats = stats_from_masses([0.1, 0.2, 0.3, 0.4], [12.0, 8.0, 4.5 + 3e-9, 2.2],
                              thresholds=[10.0, 6.0, 3.0, 1.0])
    y = np.array([1.5, 3.0, 3.7, 4.5, 5.9, 7.0, 11.0])
    p = np.array([0.05, 0.2, 0.45, 0.5, 0.6, 0.9])

    def density_and_queries():
        d = build_density(stats)
        return [*d._columns, d.pdf(y), d.cdf(y), d.quantile_top(p),
                d.partial_expectation_above(y)]

    calls = count_series_calls(monkeypatch)
    got = density_and_queries()
    assert calls["_iexp_series"] > 0 and calls["_mean_frac_series"] > 0
    for name, (reference, _) in ALL_BRANCH.items():
        monkeypatch.setattr(maxent, name, reference)
    with np.errstate(all="ignore"):
        for column, ref in zip(got, density_and_queries(), strict=True):
            assert_same_bits(column, ref)


@pytest.mark.parametrize("name,args", [
    ("_density_at", (2.0, 2.0, 0.3, 0.1, 2.0)),
    ("_cdf_frac", (2.0, 2.0, 0.1, 2.0)),
    ("_tail_frac", (2.0, 2.0, 0.1, 2.0)),
])
def test_zero_width_piece_gives_the_same_value_on_floats_and_arrays(name, args):
    # Python floats once divided by the zero width and raised
    # ZeroDivisionError, where one-element arrays gave inf or NaN quietly
    kernel = getattr(maxent, name)
    got, ref = kernel(*args), kernel(*(np.array([a]) for a in args))
    np.testing.assert_array_equal(np.array([got]), ref)
