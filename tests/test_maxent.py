"""Maximum-entropy estimator: rate solves, density queries, recovery.

Closed forms are checked against independent oracles: high-precision mpmath
evaluation for the kernels, scipy quadrature for integrals, and a raw
golden-section/Brent maximization of the auxiliary objective for the rates.
"""

import hashlib
import math
import struct
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
    @pytest.mark.parametrize("u", [1e-10, 1e-7, 1e-4, 1e-2, 0.5, 5.0, 50.0])
    def test_mean_frac_against_mpmath(self, u):
        mpmath.mp.dps = 50
        for sign in (1.0, -1.0):
            x = sign * u
            exact = float(1 / (1 - mpmath.exp(-mpmath.mpf(x))) - 1 / mpmath.mpf(x))
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


def exact_expansion_root() -> float:
    """A mean position r in (0.6, 0.95) whose initial guess u0 = 12 (r - 1/2)
    sits below the root and whose first upward expansion point u0 + max(1,
    |u0|) has mean position exactly r under the shipped kernel: bisect for
    the sign change of that residual, then scan the nearby ulps."""
    def residual(r):
        u0 = 12.0 * (r - 0.5)
        return float(maxent._mean_frac(u0 + max(1.0, abs(u0)))) - r

    lo, hi = 0.6, 0.95
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r = lo
    for _ in range(256):
        r = math.nextafter(r, 0.0)
    for _ in range(512):
        if residual(r) == 0.0:
            return r
        r = math.nextafter(r, 1.0)
    raise AssertionError("no mean position within 256 ulps hits the root")


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

    def test_upward_expansion_landing_on_the_root_returns_it(self):
        # the first upward expansion point hi of the initial guess u0 has
        # mean position exactly r: the solve must return hi, not u0
        r = exact_expansion_root()
        u0 = 12.0 * (r - 0.5)
        hi = u0 + max(1.0, abs(u0))
        assert maxent._mean_frac(u0) < r
        assert maxent._mean_frac(hi) == r
        assert solve_rate(0.0, 1.0, r) == hi

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(t_lo=st.floats(-1e12, 1e12), width=st.floats(1e-9, 1e12),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(t_lo=0.0, width=1.0, frac=0.8944432833145982)  # see above
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
        assert d.pieces[1].rate == 0.0
        assert d.pieces[2].rate == 0.0
        assert d.pieces[1].density_at(70.0) == pytest.approx(0.3 / 40.0)

    def test_table_1920_moment_matching(self, table_1920):
        stats = ts.cumulate(table_1920)
        d = build_density(stats)
        assert d.total_mass == pytest.approx(stats.covered_fraction, rel=1e-12)
        for k, piece in enumerate(d.pieces):
            assert piece.mass == pytest.approx(float(stats.bracket_fraction[k]))
            if piece.unbounded:
                mean = piece.lower - 1.0 / piece.rate
            else:
                w = piece.upper - piece.lower
                mean = piece.lower + w * maxent._mean_frac(piece.rate * w)
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
        rates = [p.rate for p in d.pieces]
        assert all(abs(r / -1.0 - 1.0) < 0.01 for r in rates)

    def test_boundary_mean_propagates_bracket_index(self):
        stats = stats_from_masses([0.2, 0.3], [5.0, 2.5],
                                  thresholds=[4.0, 2.0])
        with pytest.raises(MeanOnBoundaryError) as err:
            build_density(stats, np.array([4.0, 2.6]))  # y_2 above new t_1? no: y_1=5>4 ok, y_2=2.5 < 2.6
        assert err.value.bracket == 1

    def test_custom_thresholds_must_match_and_decrease(self):
        stats = stats_from_masses([0.2, 0.3], [5.0, 2.5], thresholds=[4.0, 2.0])
        with pytest.raises(ValueError):
            build_density(stats, np.array([4.0]))
        with pytest.raises(ValueError):
            build_density(stats, np.array([2.0, 4.0]))

    def test_empty_bracket_becomes_zero_mass_piece(self):
        tab = ts.Tabulation(
            year=1, brackets=(ts.IncomeBracket(100.0, 10, 10 * 150.0),
                              ts.IncomeBracket(80.0, 0, 0.0),
                              ts.IncomeBracket(50.0, 30, 30 * 70.0)),
            population=100, total_income=5000.0)
        stats = ts.cumulate(tab)
        d = build_density(stats)
        assert d.pieces[1].mass == 0.0
        assert d.pdf(90.0) == 0.0
        # queries stay consistent around the empty stripe
        assert d.quantile_top(float(stats.top_fraction[0])) == 100.0
        assert d.quantile_top(float(stats.top_fraction[1])) == 100.0
        assert d.cdf(90.0) == pytest.approx(d.cdf(80.0))
        est = ts.estimate_share_me(tab, stats.covered_fraction)
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
        for piece in d.pieces:
            if piece.mass == 0.0:
                continue
            top = piece.lower + 3.0 if piece.unbounded else piece.upper
            for s in (0.1, 0.5, 0.9):
                y = piece.lower + s * (top - piece.lower)
                assert piece.tail_frac(y) + piece.cdf_frac(y) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_tail_frac_keeps_relative_precision_for_tiny_tails(self):
        mpmath.mp.dps = 50
        for rate in (2.5, -2.5, 40.0):
            piece = maxent.ExponentialPiece(1.0, 3.0, 0.4, rate, math.nan)
            y = 3.0 - 1e-9  # tail mass around 1e-9 of the piece
            lam = mpmath.mpf(rate)
            ref = float((mpmath.exp(lam * 3) - mpmath.exp(lam * y))
                        / (mpmath.exp(lam * 3) - mpmath.exp(lam * 1)))
            assert piece.tail_frac(y) == pytest.approx(ref, rel=1e-9)

    def test_partial_expectation_matches_quadrature(self, table_1920):
        d = build_density(ts.cumulate(table_1920))
        points = [float(t) for t in d.thresholds]
        top = float(d.thresholds[0])
        for y in (1200.0, 2000.0, 7777.0, 100_000.0):
            inner, _ = integrate.quad(lambda x: x * d.pdf(x), y, top,
                                      points=[t for t in points if y <= t],
                                      limit=200)
            piece = d.pieces[0]
            # analytic unbounded-tail remainder above the top threshold
            tail = piece.mass * (piece.lower - 1.0 / piece.rate) if y <= top else 0.0
            oracle = inner + tail
            assert d.partial_expectation_above(y) == pytest.approx(oracle, rel=1e-9)


class TestEstimateShareME:
    def test_exact_at_tabulated_fractions(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            tab = random_tabulation(rng)
            stats = ts.cumulate(tab)
            for k in range(stats.num_brackets):
                est = ts.estimate_share_me(tab, float(stats.top_fraction[k]))
                exact = float(stats.income_above[k]) / stats.total_income
                assert est.share == pytest.approx(exact, rel=1e-10)

    def test_exact_pareto_population_close_to_closed_form(self):
        tab = pareto_population_tabulation(2.0, 1.0, 10**6, 30)
        est = ts.estimate_share_me(tab, 0.10)
        assert abs(est.share / 0.10 ** 0.5 - 1.0) < 0.01

    def test_mid_sample_fractile_against_micro_oracle(self):
        from topshares import microbench as mb
        sample = mb.generate(mb.LognormalDist(0.0, 1.0), 200_000, seed=5)
        thresholds = mb.quantile_thresholds(sample, 20)
        tab = mb.tabulate(sample, thresholds)
        est = ts.estimate_share_me(tab, 0.50)
        oracle = mb.oracle_share(sample, 0.50)
        assert abs(est.share / oracle - 1.0) < 5e-3

    def test_deep_tail_flagged_extrapolated(self, table_1920):
        stats = ts.cumulate(table_1920)
        p = float(stats.top_fraction[0]) / 20.0
        est = ts.estimate_share_me(table_1920, p)
        assert est.extrapolated
        assert est.method == "ME"
        assert est.threshold > float(stats.thresholds[0])


class TestRateZeroContinuity:
    def test_queries_approach_uniform_branch(self):
        # |rate * width| -> 0: every closed form meets its uniform limit
        lo, width, q = 10.0, 4.0, 0.25
        for u in (1e-12, -1e-12, 1e-9, -1e-9):
            rate = u / width
            tilted = maxent.ExponentialPiece(lo, lo + width, q, rate, math.nan)
            flat = maxent.ExponentialPiece(lo, lo + width, q, 0.0, math.nan)
            for y in (10.5, 12.0, 13.9):
                assert tilted.cdf_frac(y) == pytest.approx(
                    flat.cdf_frac(y), rel=1e-9)
                assert tilted.density_at(y) == pytest.approx(
                    flat.density_at(y), rel=1e-9)
            for frac in (0.1, 0.5, 0.9):
                assert tilted.quantile_upper(frac) == pytest.approx(
                    flat.quantile_upper(frac), rel=1e-9)
            for y in (10.5, 12.0, 13.9):
                t_val = tilted.mass * (1 - tilted.cdf_frac(y)) * (
                    y + (lo + width - y) * maxent._mean_frac(rate * (lo + width - y)))
                f_val = flat.mass * (1 - flat.cdf_frac(y)) * (
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
        d = build_density(stats, sol.thresholds)
        for k in range(2):
            b = float(sol.thresholds[k])
            jump = d.pieces[k].density_at(b) - d.pieces[k + 1].density_at(b)
            assert abs(jump) < 1e-8 * d.pieces[k].density_at(b)

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

    def test_iterations_count_newton_steps(self):
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
        capped = ts.recover_thresholds(stats, thresholds[-1],
                                       max_iterations=sol.iterations)
        assert capped.converged and capped.iterations == sol.iterations
        np.testing.assert_array_equal(capped.thresholds, sol.thresholds)
        short = ts.recover_thresholds(stats, thresholds[-1],
                                      max_iterations=sol.iterations - 1)
        assert not short.converged and short.iterations == sol.iterations - 1

    def test_infeasible_inputs_rejected(self):
        stats = stats_from_masses([0.5, 0.5], [2.0, 3.0], thresholds=[2.5, 1.0])
        with pytest.raises(InfeasibleOrderingError):
            ts.recover_thresholds(stats, 1.0)  # means not increasing upward
        stats2 = stats_from_masses([0.5, 0.5], [3.0, 2.0], thresholds=[2.5, 1.0])
        with pytest.raises(InfeasibleOrderingError):
            ts.recover_thresholds(stats2, 2.5)  # bottom above bottom mean

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


# These digests depend on the bits of numpy's exp, expm1, log and log1p,
# which follow the SIMD code path numpy dispatches to on the host CPU.
RECOVERY_DIGESTS = {
    "ladder-8": "e3742aea2fec346e1817291d7106e2fd98e67840514f7199e588c2f52e354d8c",
    "ladder-20": "cc4dbc9cff458668c93c888da2b816e63bea0599428025ed212e3d3ae8bc43ed",
    "ladder-40": "eab46eb3ccaf826066ca22f5a2d3cd727a34220c13c935e1d9a26401f6cdd781",
    "ladder-60": "e8b7a80880b69e3a01e75f6cea108e1dd0cab03e123d7c2e435d001ce2a59544",
    "flat-8": "1ccadc1826579d6e8ff0b5962d5edf58f6f85c56ed1cb165cb7877172c59a365",
}


@pytest.mark.parametrize("case", sorted(RECOVERY_DIGESTS))
def test_recovery_bits_pinned(case):
    # a faster Hessian must not move a single bit of any recovery
    kind, k = case.rsplit("-", 1)
    stats = flat_objective_stats() if kind == "flat" else lognormal_ladder_stats(int(k))
    sol = ts.recover_thresholds(stats, float(stats.thresholds[-1]))
    assert sol.converged
    assert solution_digest(sol) == RECOVERY_DIGESTS[case]


@pytest.mark.parametrize("k", [8, 60])
def test_gradient_entry_reads_only_neighbouring_thresholds(k):
    # the premise of the 3-colour Hessian: moving threshold j changes the
    # density jumps at j-1, j and j+1 and leaves every other one bit-identical
    stats = lognormal_ladder_stats(k)
    t = stats.thresholds.astype(float)
    y = stats.bracket_mean
    _, base = maxent._divergence(stats, t)
    for j in sorted({0, 1, k // 2, k - 3, k - 2}):
        moved = t.copy()
        moved[j] += 0.25 * (y[j] - t[j])  # stays between the means it separates
        _, grad = maxent._divergence(stats, moved)
        band = np.zeros(k - 1, dtype=bool)
        band[max(j - 1, 0):j + 2] = True
        np.testing.assert_array_equal(grad[~band], base[~band])
        assert grad[j] != base[j]


@pytest.mark.parametrize("k", [3, 60])
def test_one_hessian_evaluation_per_newton_step(monkeypatch, k):
    # a single point (the start or a line-search trial) is a (K,) candidate;
    # the Hessian of a step is one call on all 2 * min(3, K-1) shifted rows
    batches = []
    real = maxent._divergence

    def counting(stats, thresholds):
        if np.ndim(thresholds) == 2:
            batches.append(len(thresholds))
        return real(stats, thresholds)

    monkeypatch.setattr(maxent, "_divergence", counting)
    stats = lognormal_ladder_stats(k)
    sol = ts.recover_thresholds(stats, float(stats.thresholds[-1]))
    assert sol.converged and sol.iterations >= 1
    assert batches == [2 * min(3, k - 1)] * sol.iterations


@pytest.mark.parametrize("k", [8, 20, 40, 60])
def test_stacked_divergence_rows_equal_one_row_calls(k):
    # batching moves no bit: every row of a 120-row call, objective and
    # gradient, equals the call on that row alone
    stats = lognormal_ladder_stats(k)
    y = stats.bracket_mean
    rng = np.random.default_rng(k)
    rows = np.empty((120, k))
    rows[:, :-1] = y[1:] + (y[:-1] - y[1:]) * rng.uniform(0.02, 0.98, (120, k - 1))
    rows[:, -1] = stats.thresholds[-1]
    values, grads = maxent._divergence(stats, rows)
    assert values.shape == (120,) and grads.shape == (120, k - 1)
    for row, value, grad in zip(rows, values, grads):
        one_value, one_grad = maxent._divergence(stats, row[np.newaxis])
        assert one_value.tobytes() == value.tobytes()
        assert one_grad.tobytes() == grad.tobytes()


def piece_bits(density) -> bytes:
    return np.array([[p.lower, p.upper, p.mass, p.rate, p.mean]
                     for p in density.pieces]).tobytes()


def test_stacked_density_build_matches_each_year_alone(table_1920):
    # one rate solve over every year gives each year the density it gets
    # alone; a year with a mean on its bracket boundary fails by itself
    rng = np.random.default_rng(23)
    stats = [ts.cumulate(table_1920)]
    stats += [ts.cumulate(random_tabulation(rng)) for _ in range(40)]
    stats.insert(20, stats_from_masses([0.2, 0.3], [5.0, 2.0], thresholds=[4.0, 2.0]))
    stacked = maxent._densities(stats, [s.thresholds for s in stats])
    for i, (one, density) in enumerate(zip(stats, stacked)):
        if i == 20:
            assert isinstance(density, MeanOnBoundaryError)
            assert density.bracket == 1
            with pytest.raises(MeanOnBoundaryError) as err:
                build_density(one)
            assert str(err.value) == str(density)
            continue
        alone = build_density(one)
        assert piece_bits(density) == piece_bits(alone)
        assert density.thresholds.tobytes() == alone.thresholds.tobytes()
    fractiles = (0.5, 0.1, 0.01, 1e-5)
    for one, outcomes in zip(stats, maxent.estimate_shares(stats, fractiles)):
        [alone] = maxent.estimate_shares([one], fractiles)
        assert [(p, m, repr(o)) for p, m, o in outcomes] == \
            [(p, m, repr(o)) for p, m, o in alone]


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
        for y in probes:
            assert density._piece_index(y) == piece_by_interval(t, y), (t, y)


@st.composite
def accepted_tabulations(draw):
    """Tabulations that ``validate`` accepts: 2-12 brackets, thresholds 0
    or in [1e-6, 1e12], means anywhere in their brackets (on the lower edge
    included), empty brackets below the top, incomes in units of 1 or 1000."""
    k = draw(st.integers(2, 12))
    thresholds = sorted(draw(st.lists(st.floats(1e-6, 1e12), min_size=k,
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
