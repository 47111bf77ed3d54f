"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each criterion pins its tolerance here. Runtime budgets are asserted with
wall-clock measurements around the criterion body.
"""

import csv
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import optimize

import topshares as ts
from topshares import maxent
from topshares import microbench as mb
from topshares.cli import main as cli_main

from conftest import (
    TABLE_1920_BOTTOM,
    TABLE_1920_TOP,
    TwoParetoMixture,
    pareto_population_tabulation,
    random_tabulation,
    stats_from_masses,
    table_1920_anchor_corners,
)


def timed(budget_seconds):
    """Context manager asserting its body ran within the budget."""
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc == (None, None, None):
                assert self.elapsed < budget_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds {budget_seconds}s")
            return False
    return _Timer()


@pytest.fixture(scope="module")
def randomized_tabulations():
    rng = np.random.default_rng(20240817)
    return [random_tabulation(rng) for _ in range(50)]


def test_criterion_table1_golden(table_1920):
    """Recomputed cumulative %, coefficient, and exponent of the published
    1920 rows match the printed values at printed precision.

    Only rows 1, 2 and 28..37 are published; cumulating rows 29..37 needs a
    bridge bracket for the unprinted classes, anchored on row 28's printed
    cumulative % and coefficient. Anchor uncertainty (half of the last
    printed digit each way) is propagated by evaluating all four anchor
    corners; every printed value must fall inside the corner envelope
    widened by half a digit.
    """
    with timed(1.0) as t:
        half = {"p": 0.000005, "b": 0.005, "a": 0.0005}
        corner_stats = [ts.cumulate(tab) for tab in table_1920_anchor_corners()]

        def envelope(index):
            ps, bs, As = [], [], []
            for stats in corner_stats:
                ps.append(100.0 * float(stats.top_fraction[index]))
                bs.append(float(stats.pareto_coefficient[index]))
                As.append(float(stats.pareto_exponent[index]))
            return (min(ps), max(ps)), (min(bs), max(bs)), (min(As), max(As))

        checked = 0
        rows = ([(i, printed) for i, (_, _, _, _, printed)
                 in enumerate(TABLE_1920_TOP)]
                + [(3 + i, printed) for i, (_, _, _, _, printed)
                   in enumerate(TABLE_1920_BOTTOM)])
        for index, (p_printed, b_printed, a_printed) in rows:
            (p_lo, p_hi), (b_lo, b_hi), (a_lo, a_hi) = envelope(index)
            assert p_lo - half["p"] <= p_printed <= p_hi + half["p"], \
                f"cumulative % row {index}: {p_printed} not in " \
                f"[{p_lo - half['p']:.6f}, {p_hi + half['p']:.6f}]"
            assert b_lo - half["b"] <= b_printed <= b_hi + half["b"], \
                f"coefficient row {index}: {b_printed} not in " \
                f"[{b_lo - half['b']:.4f}, {b_hi + half['b']:.4f}]"
            assert a_lo - half["a"] <= a_printed <= a_hi + half["a"], \
                f"exponent row {index}: {a_printed} not in " \
                f"[{a_lo - half['a']:.4f}, {a_hi + half['a']:.4f}]"
            checked += 1
        assert checked == 12
        # the published 1920 tabulation is valid as bridged
        for tab in table_1920_anchor_corners():
            assert ts.validate(tab) == []
    print(f"PASS: Table 1 golden test (12 rows, printed precision, "
          f"{t.elapsed:.2f}s)")


def test_criterion_pi_exactness(randomized_tabulations):
    """Pareto interpolation reproduces every tabulated cumulative share to
    1e-10 relative on 50 randomized tabulations."""
    with timed(5.0) as t:
        worst = 0.0
        for tab in randomized_tabulations:
            stats = ts.cumulate(tab)
            for k in range(stats.num_brackets):
                p_k = float(stats.top_fraction[k])
                est = ts.pareto.pi_share_from_stats(stats, p_k)
                exact = float(stats.income_above[k]) / stats.total_income
                rel = abs(est.share / exact - 1.0)
                worst = max(worst, rel)
                assert rel <= 1e-10, (tab.year, k, rel)
    print(f"PASS: PI exactness at tabulated fractions "
          f"(50 tabulations, worst {worst:.2e}, {t.elapsed:.2f}s)")


def test_criterion_me_moment_matching(randomized_tabulations):
    """Every built density matches bracket masses and means to 1e-10
    relative per bracket, and total mass equals the covered fraction."""
    with timed(30.0) as t:
        worst_mean = worst_mass = 0.0
        for tab in randomized_tabulations:
            stats = ts.cumulate(tab)
            density = ts.build_density(stats)
            mass_err = abs(math.fsum(density.mass) - stats.covered_fraction)
            worst_mass = max(worst_mass, mass_err)
            assert mass_err <= 1e-10
            upper = np.concatenate(([math.inf], density.thresholds[:-1]))
            for k, lower in enumerate(density.thresholds):
                assert density.mass[k] == float(stats.bracket_fraction[k])
                rate = density.rate[k]
                if math.isinf(upper[k]):
                    mean = lower - 1.0 / rate
                else:
                    width = upper[k] - lower
                    mean = lower + width * maxent._mean_frac(rate * width)
                rel = abs(mean / float(stats.bracket_mean[k]) - 1.0)
                worst_mean = max(worst_mean, rel)
                assert rel <= 1e-10, (tab.year, k, rel)
    print(f"PASS: ME moment matching (worst mean {worst_mean:.2e}, "
          f"worst mass {worst_mass:.2e}, {t.elapsed:.2f}s)")


def test_criterion_closed_form_pareto_oracle():
    """Against the closed-form top share of a Pareto(a=2) population,
    p^((a-1)/a): both estimators converge as classes grow to 30 and the
    population grows to 1e6. ME within 1% at p in {0.10, 0.05, 0.01}; PI
    within 1% wherever the selected fraction is within 10% of p."""
    fractiles = (0.10, 0.05, 0.01)
    with timed(60.0) as t:
        errors = {}
        for classes, population in [(8, 10**4), (30, 10**4),
                                    (8, 10**6), (30, 10**6)]:
            tab = pareto_population_tabulation(2.0, 1.0, population, classes)
            assert ts.validate(tab) == []
            stats = ts.cumulate(tab)
            density = ts.build_density(stats)
            for p in fractiles:
                analytic = p ** 0.5
                me = maxent.me_share_from_density(density, p).share
                pi = ts.pareto.pi_share_from_stats(stats, p)
                p_k = float(stats.top_fraction[pi.bracket])
                errors[("ME", classes, population, p)] = abs(me / analytic - 1)
                if abs(p_k - p) <= 0.1 * p:
                    errors[("PI", classes, population, p)] = \
                        abs(pi.share / analytic - 1)

        for p in fractiles:
            assert errors[("ME", 30, 10**6, p)] <= 0.01, (p, errors)
            pi_key = ("PI", 30, 10**6, p)
            assert pi_key in errors, "PI clause vacuous: no near fraction"
            assert errors[pi_key] <= 0.01, (p, errors)
        # convergence in classes at the large population
        worst_30 = max(errors[("ME", 30, 10**6, p)] for p in fractiles)
        worst_8 = max(errors[("ME", 8, 10**6, p)] for p in fractiles)
        assert worst_30 <= worst_8
    print(f"PASS: closed-form Pareto oracle (ME worst {worst_30:.2e} at "
          f"K=30 n=1e6; PI asserted at all three fractiles, {t.elapsed:.2f}s)")


def test_criterion_consistency_trend():
    """On a fixed 1e6-point lognormal sample, the ME maximum relative error
    over fractiles {0.5, 0.1, 0.01} at 30 classes is no larger than at 8
    classes, for at least 18 of 20 seeds."""
    fractiles = (0.5, 0.1, 0.01)
    with timed(300.0) as t:
        holds = 0
        details = []
        for seed in range(20):
            sample = mb.generate(mb.LognormalDist(0.0, 1.0), 10**6, seed=seed)
            max_err = {}
            for classes in (8, 30):
                thresholds = mb.quantile_thresholds(sample, classes)
                stats = ts.cumulate(mb.tabulate(sample, thresholds))
                density = ts.build_density(stats)
                errs = []
                for p in fractiles:
                    oracle = mb.oracle_share(sample, p)
                    me = maxent.me_share_from_density(density, p).share
                    errs.append(abs(me / oracle - 1.0))
                max_err[classes] = max(errs)
            holds += max_err[30] <= max_err[8]
            details.append((seed, max_err[8], max_err[30]))
        assert holds >= 18, details
    print(f"PASS: consistency trend ({holds}/20 seeds, {t.elapsed:.1f}s)")


def _grid_oracle_k3(stats, t_bottom, boxes, coarse=40, fine=60):
    """Brute-force 2-D grid minimizer of the divergence: full coarse scan,
    then a fine scan around the coarse minimum."""
    from test_maxent import oracle_jstar

    (lo1, hi1), (lo2, hi2) = boxes
    q = [float(v) for v in stats.bracket_fraction]
    y = [float(v) for v in stats.bracket_mean]

    def scan(grid1, grid2):
        best = (math.inf, None)
        for t1 in grid1:
            for t2 in grid2:
                if not t1 > t2:
                    continue
                val = oracle_jstar([t1, t2, t_bottom], q, y)
                if val < best[0]:
                    best = (val, (t1, t2))
        return best

    pad1 = (hi1 - lo1) * 1e-6
    pad2 = (hi2 - lo2) * 1e-6
    g1 = np.linspace(lo1 + pad1, hi1 - pad1, coarse)
    g2 = np.linspace(lo2 + pad2, hi2 - pad2, coarse)
    val, (t1, t2) = scan(g1, g2)
    s1 = g1[1] - g1[0]
    s2 = g2[1] - g2[0]
    f1 = np.linspace(max(lo1 + pad1, t1 - 1.5 * s1),
                     min(hi1 - pad1, t1 + 1.5 * s1), fine)
    f2 = np.linspace(max(lo2 + pad2, t2 - 1.5 * s2),
                     min(hi2 - pad2, t2 + 1.5 * s2), fine)
    val_f, (t1_f, t2_f) = scan(f1, f2)
    if val_f < val:
        val, (t1, t2) = val_f, (t1_f, t2_f)
    spacing = (max(f1[1] - f1[0], s1 / 10), max(f2[1] - f2[0], s2 / 10))
    return val, (t1, t2), spacing


def test_criterion_threshold_recovery():
    """Threshold recovery lands within 0.1% of brute-force grid minimizers
    and attains a divergence no worse than the grid minimum + 1e-8, for
    K=2 and K=3 piecewise-exponential truths."""
    from test_maxent import oracle_jstar

    with timed(30.0) as t:
        # K=2: two-piece truth (discontinuous at the join)
        t1_true, t_bottom = 3.0, 1.0
        q1, lam_low = 0.3, -0.3
        width = t1_true - t_bottom
        y1 = t1_true + 1.0
        y2 = t_bottom + width * maxent._mean_frac(lam_low * width)
        stats2 = stats_from_masses([q1, 1 - q1], [y1, y2],
                                   thresholds=[t1_true, t_bottom])
        sol2 = ts.recover_thresholds(stats2, t_bottom)
        grid = np.linspace(y2 * (1 + 1e-9), y1 * (1 - 1e-9), 4001)
        values = [oracle_jstar([g, t_bottom], [q1, 1 - q1], [y1, y2])
                  for g in grid]
        i = int(np.argmin(values))
        assert abs(sol2.thresholds[0] - grid[i]) <= \
            max(grid[1] - grid[0], 1e-3 * grid[i])
        assert sol2.objective <= values[i] + 1e-8

        # K=3: three-piece truth, rates differing across pieces
        t_true = np.array([5.0, 2.2, 1.0])
        rates = (-0.9, -0.25, 0.4)
        masses = (0.15, 0.45, 0.40)
        means = [t_true[0] + 1.0 / 0.9]
        for k, rate in ((1, rates[1]), (2, rates[2])):
            w = (t_true[k - 1] - t_true[k])
            means.append(t_true[k] + w * maxent._mean_frac(rate * w))
        stats3 = stats_from_masses(masses, means, thresholds=t_true)
        sol3 = ts.recover_thresholds(stats3, 1.0)
        boxes = ((means[1], means[0]), (means[2], means[1]))
        grid_min, (g1, g2), spacing = _grid_oracle_k3(stats3, 1.0, boxes)
        assert abs(sol3.thresholds[0] - g1) <= max(spacing[0], 1e-3 * g1), \
            (sol3.thresholds, (g1, g2))
        assert abs(sol3.thresholds[1] - g2) <= max(spacing[1], 1e-3 * g2), \
            (sol3.thresholds, (g1, g2))
        assert sol3.objective <= grid_min + 1e-8
    print(f"PASS: threshold recovery vs grid oracles (K=2 and K=3, "
          f"{t.elapsed:.1f}s)")


def _log_share_curvature(mixture, t):
    """f''(log p) at p = survival(t), where f(x) = log S(e^x) and S(p) is the
    mixture's top-p share. Since dS/dp is proportional to t(p) and
    dt/dp = -1/g(t), f' = p t / P(t) and f'' = f' (1 - f') - p^2 / (g P),
    with g the density and P the income above t."""
    p = mixture.survival(t)
    part = mixture.partial_above(t)
    slope = p * t / part
    return slope * (1.0 - slope) - p * p / (mixture.density(t) * part)


def test_criterion_bias_direction():
    """On tabulations with strictly decreasing local exponents across the
    top decile, PI underestimates the oracle share whichever side of the
    target p its reference fraction p_k lies on, in every one of 200 trials.

    With f(x) = log S(e^x), PI's log-log slope 1 - 1/a_k = 1/b_k equals the
    true elasticity f'(log p_k), and PI is exact at p_k. The log gap is
    therefore a pure second-order Taylor remainder,
    log(PI/S) = -1/2 f''(xi) Delta^2 with Delta = log p - log p_k and xi
    between them. A local exponent that declines toward the top makes
    f'' > 0, so the gap is negative on both sides. Each trial asserts
    f'' > 0 over the spanned interval; the run asserts that every gap lies in
    the Taylor-Lagrange bracket [-1/2 max f'' Delta^2, -1/2 min f'' Delta^2],
    widened by 1/(N min(p, p_k)) for the integer counts of an N-return
    tabulation, and that each side of p holds at least 50 trials.
    """
    mixture = TwoParetoMixture()
    rng = np.random.default_rng(1848)
    trials = 200
    n_side = {True: 0, False: 0}      # keyed by p_k > p
    under = {True: 0, False: 0}
    inside = 0
    first_over = first_outside = None
    with timed(120.0) as t:
        for _ in range(trials):
            p = float(rng.uniform(0.02, 0.10))
            delta = float(rng.uniform(0.05, 0.30))
            if rng.random() < 0.5:
                delta = -delta
            base = np.geomspace(1e-3, 1.0, 20)
            grid = np.append(base[np.abs(np.log(base / p)) > np.log(1.7)],
                             p * (1.0 + delta))
            tab = mixture.tabulation(grid)
            stats = ts.cumulate(tab)
            decile = (stats.top_fraction >= 0.008) & (stats.top_fraction <= 0.12)
            assert np.all(np.diff(stats.pareto_exponent[decile]) > 0)
            est = ts.pareto.pi_share_from_stats(stats, p)
            p_k = float(stats.top_fraction[est.bracket])
            oracle = mixture.top_share(p)

            span = np.geomspace(mixture.quantile(p),
                                float(stats.thresholds[est.bracket]), 9)
            curvature = [_log_share_curvature(mixture, x) for x in span]
            assert min(curvature) > 0.0, (
                f"premise f'' > 0 fails between p={p:.5f} and p_k={p_k:.5f}: "
                f"min f'' = {min(curvature):.3e}")

            above = p_k > p
            n_side[above] += 1
            gap = math.log(est.share / oracle)
            if gap < 0.0:
                under[above] += 1
            elif first_over is None:
                first_over = f"p={p:.5f} p_k={p_k:.5f} log gap={gap:.3e}"
            half_sq = 0.5 * math.log(p / p_k) ** 2
            slack = 1.0 / (tab.population * min(p, p_k))
            lo = -half_sq * max(curvature) - slack
            hi = -half_sq * min(curvature) + slack
            if lo <= gap <= hi:
                inside += 1
            elif first_outside is None:
                first_outside = (f"p={p:.5f} p_k={p_k:.5f} log gap={gap:.3e} "
                                 f"not in [{lo:.3e}, {hi:.3e}]")
    tally = (f"p_k>p under: {under[True]}/{n_side[True]}; "
             f"p_k<p under: {under[False]}/{n_side[False]}; "
             f"Taylor bracket: {inside}/{trials}")
    assert min(n_side.values()) >= 50, (
        f"each side of p needs at least 50 trials; {tally}")
    assert under[True] + under[False] == trials, (
        f"PI must underestimate the oracle on both sides of p when the local "
        f"exponent declines (log(PI/S) = -1/2 f''(xi) Delta^2, f'' > 0); "
        f"{tally}; first overestimate: {first_over}")
    assert inside == trials, (
        f"the log gap must be the second-order Taylor remainder of "
        f"log S in log p about log p_k, PI's exact local slope; {tally}; "
        f"first miss: {first_outside}")
    print(f"PASS: bias direction ({tally}; {t.elapsed:.1f}s)")


def test_criterion_me_more_accurate_than_pi():
    """The paper's accuracy claim on the micro protocol: at n = 2x10^5, 10
    trials, seed 7, K in {8, 14, 30} and p in {0.1, 0.05, 0.01}, ME's MSE of
    the relative error is at most PI's in 9/9 cells for lognormal(0, 1) and
    for a 0.97/0.03 mixture of lognormal(10.2, 0.75) and Pareto(2.2, 6e4),
    and in at least 8/9 for Pareto(2). There PI's premise, a Pareto tail,
    holds exactly, and PI wins K = 8, p = 0.1 (ME 9.8e-8 against PI's
    8.0e-8 when this was pinned); that exception is printed. No cell may
    fail.
    The seeds and draws are fixed, not chosen for the outcome.
    """
    laws = (("lognormal(0, 1)", mb.LognormalDist(0.0, 1.0), 9),
            ("lognormal/Pareto mixture", mb.MixtureDist(
                (0.97, 0.03), (mb.LognormalDist(10.2, 0.75), mb.ParetoDist(2.2, 6e4))), 9),
            ("Pareto(2)", mb.ParetoDist(2.0), 8))
    tallies, exceptions = [], []
    with timed(30.0) as t:
        for name, dist, need in laws:
            report = mb.run_protocol(mb.BenchmarkSpec(
                dist=dist, size=200_000, classes=(8, 14, 30),
                fractiles=(0.1, 0.05, 0.01), trials=10, seed=7))
            mse = {}
            for s in report.summaries:
                assert (s.trials_ok, s.trials_failed) == (10, 0), (name, s)
                mse.setdefault((s.classes, s.fractile), {})[s.method] = s.mse_rel_error
            assert len(mse) == 9
            wins = [cell for cell, m in mse.items() if m["ME"] <= m["PI"]]
            exceptions += [f"{name} K={k} p={p}: ME {mse[k, p]['ME']:.3g} vs "
                           f"PI {mse[k, p]['PI']:.3g}"
                           for k, p in sorted(mse.keys() - set(wins))]
            assert len(wins) >= need, (name, mse)
            tallies.append(f"{name} {len(wins)}/9")
    print(f"PASS: ME MSE <= PI MSE ({'; '.join(tallies)}; exceptions: "
          f"{'; '.join(exceptions) or 'none'}; {t.elapsed:.2f}s)")


def test_criterion_me_low_beyond_top_bracket():
    """Where ME's accuracy stops: beyond the top bracket. Above the top
    threshold ME's piece is the maximum-entropy law with the bracket's mean,
    an exponential. On an exact Pareto(a) table (N = 10^12, top fraction
    p0 = 1e-3) at p = p0/r, ME's share over the true share p^((a-1)/a) is
    (a + ln r)/(a r^(1/a)), below 1 for every r > 1: within 1e-12 relative
    at a in {1.5, 2, 3}, K in {8, 20} and r in {2, 4, 10}, each cell flagged
    extrapolated. PI, whose premise is a Pareto tail, is exact to 1e-12."""
    ratios = (2, 4, 10)
    worst_me = worst_pi = 0.0
    factors = {}
    with timed(10.0) as t:
        for a in (1.5, 2.0, 3.0):
            for classes in (8, 20):
                stats = ts.cumulate(pareto_population_tabulation(
                    a, 1.0, 10**12, classes, top_fraction=1e-3))
                p0 = float(stats.top_fraction[0])
                fractiles = [p0 / r for r in ratios]
                [row] = ts.estimate_shares([stats], fractiles, ("ME", "PI"))
                for p, method, est in row:
                    r = p0 / p
                    truth = p ** ((a - 1.0) / a)
                    assert est.extrapolated, (a, classes, r, method)
                    if method == "PI":
                        worst_pi = max(worst_pi, abs(est.share / truth - 1.0))
                        continue
                    factor = (a + math.log(r)) / (a * r ** (1.0 / a))
                    ratio = est.share / truth
                    assert ratio < 1.0, (a, classes, r, ratio)
                    worst_me = max(worst_me, abs(ratio / factor - 1.0))
                    factors[a, round(r)] = ratio
        assert worst_me <= 1e-12, worst_me
        assert worst_pi <= 1e-12, worst_pi
    print(f"PASS: ME low beyond the top bracket (share/truth at a=2: "
          f"{factors[2.0, 4]:.4f} at r=4, {factors[2.0, 10]:.4f} at r=10; "
          f"closed form worst {worst_me:.1e}, PI worst {worst_pi:.1e}; "
          f"{t.elapsed:.2f}s)")


def test_criterion_published_series_not_reproducible_statement(tmp_path):
    """The published 1966-1995 micro-file MSE pair and the 1917-1965 share
    tables require IRS micro-files and digitized SOI tabulations that are
    not shipped; the suite substitutes synthetic oracles and property
    tests, plus this format-compatibility check of the table layout."""
    print("NOT REPRODUCIBLE AT DESK SCALE: the published micro-file MSE "
          "comparison (0.0013 vs 0.0026 for the top decile) and the "
          "1917-1965 revised share tables need user-supplied IRS "
          "micro-files and digitized tabulations; they are not shipped. "
          "Substituted by synthetic-oracle and property suites.")
    # format compatibility: the wide layout carries the exact column set
    tab = tmp_path / "tab.csv"
    tab.write_text("year,lower_threshold,returns,income_sum\n"
                   "1917,10000,50,750000\n1917,5000,150,1050000\n"
                   "1917,2000,300,900000\n1917,1000,500,700000\n")
    den = tmp_path / "den.csv"
    den.write_text("year,population,total_income,income_unit\n"
                   "1917,5000,10000000,1\n")
    out = tmp_path / "wide.csv"
    code = cli_main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--method", "me", "--layout", "appendix",
                     "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["Year", "method", "P90-100", "P95-100", "P99-100",
                      "P99.5-100", "P99.9-100", "P99.99-100"]
    # the benchmark artifact carries the method x fractile summary layout
    report = mb.run_protocol(mb.BenchmarkSpec(
        dist=mb.ParetoDist(2.0), size=5000, classes=(8,),
        fractiles=(0.10, 0.01), trials=2, seed=1))
    keys = {(s.method, s.fractile) for s in report.summaries}
    assert keys == {("PI", 0.10), ("PI", 0.01), ("ME", 0.10), ("ME", 0.01)}
    for s in report.summaries:
        assert s.mse_rel_error >= 0.0
    print("PASS: substitution stated; table and error-report layouts "
          "verified")


def test_criterion_rate_zero_stability():
    """Series and direct branches of the closed-form integrals agree to
    1e-9 relative at |rate*width| in {1e-4, 1e-7, 1e-10}.

    The reference for each direct closed form is a 50-digit evaluation
    (below 1e-2 the double-precision direct form of the tilted-mean kernel
    loses more than the rate solve's 1e-12 residual tolerance to
    cancellation, which is why production switches to the series there, and
    below 1e-6 it is destroyed; the double direct branch is additionally
    asserted at 1e-4, where it still holds 1e-9 relative).
    """
    mpmath.mp.dps = 50

    def mp_mean_frac(u):
        u = mpmath.mpf(u)
        return 1 / (1 - mpmath.exp(-u)) - 1 / u

    def mp_iexp(u):
        u = mpmath.mpf(u)
        return mpmath.expm1(u) / u

    lo, width, q = 2.0, 1.5, 0.3
    z = 0.4 * width         # interior cut for cdf / partial expectation
    frac = 0.35             # upper-tail mass for the quantile query
    with timed(1.0) as t:
        for mag in (1e-4, 1e-7, 1e-10):
            for sign in (1.0, -1.0):
                u = sign * mag
                rate = u / width

                # mass kernel
                ref = float(mp_iexp(u))
                assert abs(maxent._iexp(u) / ref - 1) <= 1e-9
                assert abs(maxent._iexp_series(u) / ref - 1) <= 1e-9
                if mag == 1e-4:
                    assert abs(maxent._iexp_direct(u) / ref - 1) <= 1e-9

                # mean kernel
                ref = float(mp_mean_frac(u))
                assert abs(maxent._mean_frac(u) / ref - 1) <= 1e-9
                assert abs(maxent._mean_frac_series(u) / ref - 1) <= 1e-9
                if mag == 1e-4:
                    direct = (maxent._mean_frac_direct(u) if u > 0
                              else 1.0 - maxent._mean_frac_direct(-u))
                    assert abs(direct / ref - 1) <= 1e-9

                # piece cdf: (e^(rate z) - 1)/(e^(rate width) - 1)
                ref = float(mpmath.expm1(mpmath.mpf(rate) * z)
                            / mpmath.expm1(mpmath.mpf(rate) * width))
                got = maxent._cdf_frac(lo, lo + width, rate, lo + z)
                assert abs(got / ref - 1) <= 1e-9
                series = (z / width) * maxent._iexp_series(rate * z) \
                    / maxent._iexp_series(u)
                assert abs(series / ref - 1) <= 1e-9

                # piece quantile: verify the inverse relation at 50 digits
                y_star = float(maxent._quantile_upper(lo, lo + width, rate, frac))
                zz = mpmath.mpf(y_star) - lo
                upper_mass = ((mpmath.expm1(mpmath.mpf(rate) * width)
                               - mpmath.expm1(mpmath.mpf(rate) * zz))
                              / mpmath.expm1(mpmath.mpf(rate) * width))
                assert abs(float(upper_mass) / frac - 1) <= 1e-9

                # partial expectation above lo + z, against the direct
                # antiderivative e^(rate x) (x - 1/rate) at 50 digits
                r_mp = mpmath.mpf(rate)
                hi_mp = mpmath.mpf(lo) + width

                def anti(x):
                    return mpmath.exp(r_mp * x) * (x - 1 / r_mp)

                ref_pe = float(q * (anti(hi_mp) - anti(mpmath.mpf(lo) + z))
                               / (mpmath.exp(r_mp * hi_mp)
                                  - mpmath.exp(r_mp * mpmath.mpf(lo))))
                got = maxent._partial_expectation(lo, lo + width, q, rate,
                                                  math.nan, lo + z)
                assert abs(got / ref_pe - 1) <= 1e-9
                w_up = width - z
                series_pe = q * (1 - series) * (
                    (lo + z) + w_up * maxent._mean_frac_series(rate * w_up))
                assert abs(series_pe / ref_pe - 1) <= 1e-9
    print(f"PASS: rate->0 stability of closed forms ({t.elapsed:.2f}s)")
