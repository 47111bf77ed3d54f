"""Micro-sample oracle, tabulation of samples, generation, and the protocol."""

import io
import itertools
import json
import math
import statistics
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topshares as ts
from topshares import microbench as mb, tabulation
from topshares.errors import ParseError

from conftest import estimate
from test_cli import PINNED_SPEC


class TestOracleShare:
    def test_exact_top_unit(self):
        sample = mb.MicroSample.from_incomes([4.0, 3.0, 2.0, 1.0])
        assert mb.oracle_share(sample, 0.25) == pytest.approx(0.40)

    def test_symmetry(self):
        sample = mb.MicroSample.from_incomes([1.0, 1.0, 1.0, 1.0])
        assert mb.oracle_share(sample, 0.5) == pytest.approx(0.5)

    def test_pro_rata_boundary_unit(self):
        sample = mb.MicroSample.from_incomes([4.0, 3.0, 2.0, 1.0])
        assert mb.oracle_share(sample, 0.375) == pytest.approx(0.55)

    def test_nonfilers_rank_last_with_zero_income(self):
        sample = mb.MicroSample.from_incomes([4.0, 3.0, 2.0, 1.0],
                                             nonfiler_count=4)
        # top half of 8 units = all four filers
        assert mb.oracle_share(sample, 0.5) == pytest.approx(1.0)
        # cut inside the non-filer block adds nothing
        assert mb.oracle_share(sample, 0.75) == pytest.approx(1.0)

    def test_weights_replicate_units(self):
        weighted = mb.MicroSample(np.array([4.0, 1.0]),
                                  np.array([2, 6], dtype=np.int64))
        expanded = mb.MicroSample.from_incomes([4.0, 4.0] + [1.0] * 6)
        for p in (0.125, 0.25, 0.4, 0.9):
            assert mb.oracle_share(weighted, p) == pytest.approx(
                mb.oracle_share(expanded, p))

    def test_denominator_override(self):
        sample = mb.MicroSample.from_incomes([4.0, 3.0, 2.0, 1.0],
                                             total_income=20.0)
        assert mb.oracle_share(sample, 0.25) == pytest.approx(0.20)

    def test_preconditions(self):
        sample = mb.MicroSample.from_incomes([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            mb.oracle_share(sample, 0.0)
        with pytest.raises(ValueError):
            mb.oracle_share(sample, 0.1)  # covers fewer than one unit
        with pytest.raises(ValueError):
            mb.MicroSample.from_incomes([])
        with pytest.raises(ValueError, match="integers"):
            mb.MicroSample([1.0, 2.0], [1.5, 2.7])  # no silent truncation
        assert mb.MicroSample([1.0, 2.0], [1.0, 2.0]).weights.tolist() == [1, 2]
        with pytest.raises(ValueError, match=r"2\*\*53"):
            mb.MicroSample([1.0, 2.0], [1e30, 1.0])  # integral, but wraps in int64
        assert mb.MicroSample([1.0], [float(2**53)]).filer_count == 2**53

    def test_weight_total_must_fit_int64(self):
        # 1,100 weights of 2**53 used to wrap filer_count negative
        with pytest.raises(ValueError, match="weights sum to 9907919180215091200"):
            mb.MicroSample(np.ones(1100), np.full(1100, 2**53, dtype=np.int64))
        with pytest.raises(ValueError, match=r"more than 2\*\*63 - 1"):
            mb.MicroSample([1.0, 2.0], np.array([2**62, 2**62], dtype=np.int64))
        top = mb.MicroSample([1.0, 2.0], np.array([2**62, 2**62 - 1],
                                                  dtype=np.int64))
        assert top.filer_count == 2**63 - 1

    def test_weight_total_searches_exact_past_2_53(self):
        # the running totals 1 + (2**53 + 2) and 2**53 + 5 both read
        # 2**53 + 4 as floats, so a float search for a cut at 2**53 + 4 stops
        # a row early; the rows found must be those of Python-int totals
        incomes, weights = [2.0, 1.0, 0.5], [1, 2**53 + 2, 2]
        sample = mb.MicroSample(np.array(incomes), np.array(weights),
                                nonfiler_count=2**53 + 3,
                                total_income_override=2.0**60)
        totals = list(itertools.accumulate(weights))

        def row_reaching(rank):
            return next(i for i, total in enumerate(totals) if total >= rank)

        target = 0.5 * sample.population  # 2**53 + 4, exactly
        row = row_reaching(math.ceil(target))
        exact = (sum(Fraction(x) * w for x, w in zip(incomes[:row], weights[:row]))
                 + (Fraction(target) - sum(weights[:row])) * Fraction(incomes[row]))
        assert mb.oracle_share(sample, 0.5) == float(exact) / 2.0**60
        # geometric K = 2 ranks: 0.001 of the population, then every filer
        ranks = [round(1e-3 * sample.population), totals[-1]]
        assert mb.quantile_thresholds(sample, 2).tolist() == sorted(
            {incomes[row_reaching(rank)] for rank in ranks}, reverse=True)

    def test_caller_arrays_stay_writeable(self):
        incomes = np.array([3.0, 1.0, 2.0])
        weights = np.array([1, 2, 3], dtype=np.int64)
        samples = (mb.MicroSample(incomes, weights), mb.MicroSample.from_incomes(incomes),
                   mb.MicroSample(incomes[::2], weights[::2]),
                   mb.MicroSample(memoryview(incomes), memoryview(weights)))
        incomes[0], weights[0] = 9.0, 9  # raised while the samples held them
        for sample in samples:
            assert 9.0 not in sample.incomes and 9 not in sample.weights
            assert not (sample.incomes.flags.writeable or sample.weights.flags.writeable)
        # a read-only array is the sample's as it is, fresh conversions too
        incomes.flags.writeable = weights.flags.writeable = False
        sample = mb.MicroSample(incomes, weights)
        assert sample.incomes is incomes and sample.weights is weights
        assert mb.MicroSample.from_incomes(incomes).incomes is incomes
        assert mb.MicroSample([1.0, 2.0], [1.0, 2.0]).weights.flags.owndata


class TestTabulate:
    def test_direct_binning(self):
        sample = mb.MicroSample.from_incomes([5.0, 15.0, 25.0])
        tab = mb.tabulate(sample, [20.0, 10.0, 0.0])
        assert [b.count for b in tab.brackets] == [1, 1, 1]
        assert [b.income_sum for b in tab.brackets] == [25.0, 15.0, 5.0]
        assert tab.population == 3
        assert tab.total_income == 45.0

    def test_zero_count_bracket_retained(self):
        sample = mb.MicroSample.from_incomes([5.0, 25.0])
        tab = mb.tabulate(sample, [20.0, 10.0, 0.0])
        assert [b.count for b in tab.brackets] == [1, 0, 1]

    def test_below_bottom_threshold_stays_in_denominators(self):
        sample = mb.MicroSample.from_incomes([5.0, 15.0, 25.0])
        tab = mb.tabulate(sample, [20.0, 10.0])
        assert sum(b.count for b in tab.brackets) == 2
        assert tab.population == 3
        assert tab.total_income == 45.0

    def test_round_trip_reproduces_partition_moments(self):
        sample = mb.generate(mb.ParetoDist(2.0), 50_000, seed=1)
        thresholds = mb.quantile_thresholds(sample, 12)
        tab = mb.tabulate(sample, thresholds)
        stats = ts.cumulate(tab)
        incomes = np.sort(sample.incomes)
        edges = np.searchsorted(incomes, thresholds, side="left")
        upper = len(incomes)
        for k in range(len(thresholds)):
            chunk = incomes[edges[k]:upper]
            upper = edges[k]
            assert stats.counts[k] == len(chunk)
            assert stats.bracket_mean[k] == pytest.approx(
                math.fsum(chunk) / len(chunk), rel=1e-13)

    def test_equal_quantile_masses_near_uniform(self):
        sample = mb.generate(mb.ParetoDist(2.0), 200_000, seed=3)
        thresholds = mb.quantile_thresholds(sample, 30, scheme="equal_mass")
        tab = mb.tabulate(sample, thresholds)
        fractions = ts.cumulate(tab).bracket_fraction
        assert np.all(np.abs(fractions - 1.0 / 30.0) < 1e-3)

    @pytest.mark.parametrize("top_fraction", [0.0, 1.0, 2.0, -0.5, math.nan])
    def test_geometric_top_fraction_outside_unit_interval_rejected(self, top_fraction):
        # 0 once turned K = 8 into 2 thresholds, 1 and 2 into one; -0.5 and
        # NaN warned and failed converting NaN ranks to integers
        # a spec says so when it is built, before any sample is drawn
        sample = mb.generate(mb.ParetoDist(2.0), 1_000, seed=1)
        message = f"top_fraction must lie strictly between 0 and 1, got {top_fraction}"
        with pytest.raises(ValueError) as err:
            mb.quantile_thresholds(sample, 8, top_fraction=top_fraction)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            mb.BenchmarkSpec(mb.ParetoDist(2.0), top_fraction=top_fraction)
        assert str(err.value) == message
        assert len(mb.quantile_thresholds(sample, 8, top_fraction=top_fraction,
                                          scheme="equal_mass")) == 8
        mb.BenchmarkSpec(mb.ParetoDist(2.0), top_fraction=top_fraction, scheme="equal_mass")

    def test_nonincreasing_thresholds_rejected(self):
        sample = mb.MicroSample.from_incomes([5.0, 15.0])
        with pytest.raises(ValueError):
            mb.tabulate(sample, [10.0, 10.0])

    def test_counts_exact_beyond_2_53(self):
        # a float64 running total drops the unit beside 3 * 2**53, which
        # left the top bracket empty
        sample = mb.MicroSample([10.0, 20.0, 30.0, 40.0],
                                np.array([2**53, 2**53, 2**53, 1]))
        tab = mb.tabulate(sample, [35.0, 25.0, 15.0, 5.0])
        assert [b.count for b in tab.brackets] == [1, 2**53, 2**53, 2**53]


class TestNdtri:
    """The AS241 inverse normal CDF behind lognormal sampling, against
    mpmath at 40 digits beyond the tail's magnitude."""

    @staticmethod
    def points():
        rng = np.random.default_rng(2024)
        return np.concatenate([rng.random(80),
                               10.0 ** rng.uniform(-300, -2, 60),
                               1.0 - 10.0 ** -rng.uniform(1, 15.9, 60)])

    @staticmethod
    def oracle(u):
        # at a fixed precision 2u - 1 rounds to -1 for tiny u
        with mpmath.workdps(40 + math.ceil(-math.log10(min(u, 1.0 - u)))):
            return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1))

    def test_matches_mpmath(self):
        u = self.points()
        got = mb._ndtri(u)
        want = np.array([self.oracle(x) for x in u])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_within_four_ulp_of_stdlib(self):
        u = self.points()
        want = np.array([statistics.NormalDist().inv_cdf(x) for x in u])
        assert np.all(np.abs(mb._ndtri(u) - want) <= 4 * np.spacing(np.abs(want)))

    def test_symmetric_where_complement_is_exact(self):
        # multiples of 2**-53 have exact complements, down to the far tail
        rng = np.random.default_rng(7)
        k = np.concatenate([np.arange(1, 200), rng.integers(1, 2**53, 2000)])
        u = k / 2.0**53
        np.testing.assert_array_equal(mb._ndtri(1.0 - u), -mb._ndtri(u))

    def test_monotone(self):
        u = np.unique(np.concatenate([self.points(),
                                      np.linspace(0.0, 1.0, 10001)]))
        assert np.all(np.diff(mb._ndtri(u)) >= 0)

    def test_branch_seams_within_one_ulp(self):
        # through each switch between approximations, runs of adjacent
        # floats; the central and lower-tail fits meet one ulp apart at
        # u = 0.075 (as in the stdlib's copy of AS241), so a step back of
        # one ulp is the most there is
        for s in (0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)):
            x = mb._ndtri(s + np.arange(-100, 101) * np.spacing(s))
            assert np.all(np.diff(x) >= -np.spacing(np.abs(x[1:])))

    def test_edge_values_without_warnings(self):
        u = np.array([0.0, 1.0, 0.5, np.nan, -0.1, 1.1, np.inf, -np.inf, 1e300])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = mb._ndtri(u)
        assert got[0] == -np.inf and got[1] == np.inf and got[2] == 0.0
        assert np.all(np.isnan(got[3:]))


class TestGenerate:
    def test_same_seed_same_sample(self):
        a = mb.generate(mb.ParetoDist(2.0), 1000, seed=7)
        b = mb.generate(mb.ParetoDist(2.0), 1000, seed=7)
        assert np.array_equal(a.incomes, b.incomes)
        c = mb.generate(mb.ParetoDist(2.0), 1000, seed=8)
        assert not np.array_equal(a.incomes, c.incomes)

    @pytest.mark.parametrize("dist", [
        mb.ParetoDist(2.0, 1.0), mb.LognormalDist(10.2, 0.75),
        mb.dist_from_dict(PINNED_SPEC["distribution"])], ids=type)
    @pytest.mark.parametrize("size", [mb._BLOCK - 1, mb._BLOCK, mb._BLOCK + 1,
                                      3 * mb._BLOCK + 7])
    def test_blocks_draw_the_one_call_sample(self, dist, size):
        # block by block, the same doubles in the same order as one call,
        # and the same elementwise inversion of each
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        if isinstance(dist, mb.MixtureDist):
            u = rng.random((size, 2))
            want = dist.draw(u[:, 0], u[:, 1])
        else:
            want = dist.quantile(rng.random(size))
        got = mb.generate(dist, size, seed=5).incomes
        assert got.tobytes() == want.tobytes()

    def test_pareto_top_share_approaches_closed_form(self):
        # top-p share of a Pareto(a) population is p^((a-1)/a)
        dist = mb.ParetoDist(2.0, 1.0)
        sample = mb.generate(dist, 1_000_000, seed=42)
        share = mb.oracle_share(sample, 0.10)
        assert share == pytest.approx(0.10 ** 0.5, rel=0.02)
        assert dist.top_share(0.10) == pytest.approx(math.sqrt(0.10))

    def test_lognormal_mean_within_three_standard_errors(self):
        dist = mb.LognormalDist(location=0.3, shape=0.8)
        n = 400_000
        sample = mb.generate(dist, n, seed=11)
        se = math.sqrt(dist.variance / n)
        assert abs(float(sample.incomes.mean()) - dist.mean) < 3 * se

    def test_mixture_draws_both_components(self):
        dist = mb.MixtureDist(weights=(0.5, 0.5),
                              components=(mb.ParetoDist(3.0, 10.0),
                                          mb.LognormalDist(0.0, 0.5)))
        sample = mb.generate(dist, 20_000, seed=2)
        assert (sample.incomes >= 10.0).mean() == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("weights", [(0.3, 0.7), (0.2, 0.5, 0.3)])
    def test_mixture_draw_matches_searchsorted_reference(self, weights):
        # the component is picked by comparisons against the inner cuts; the
        # reference picks it by binary search, clipped to the last component
        components = (mb.ParetoDist(2.0, 1.0), mb.ParetoDist(3.0, 10.0),
                      mb.LognormalDist(5.0, 0.5))[:len(weights)]
        dist = mb.MixtureDist(weights, components)
        cuts = np.cumsum(weights)
        rng = np.random.default_rng(12)
        u_component = np.concatenate([[0.0, 1.0], cuts, np.nextafter(cuts, 0.0),
                                      np.nextafter(cuts, 1.0), rng.random(3000)])
        u_value = rng.random(len(u_component))
        which = np.minimum(np.searchsorted(cuts, u_component, side="right"),
                           len(components) - 1)
        want = np.empty_like(u_value)
        for i, component in enumerate(components):
            want[which == i] = component.quantile(u_value[which == i])
        assert dist.draw(u_component, u_value).tobytes() == want.tobytes()

    def test_heavy_tail_flagged_not_forbidden(self):
        with pytest.warns(UserWarning, match="infinite mean"):
            mb.ParetoDist(exponent=1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            mb.ParetoDist(exponent=-1.0)
        with pytest.raises(ValueError):
            mb.LognormalDist(shape=0.0)
        with pytest.raises(ValueError):
            mb.MixtureDist(weights=(0.7, 0.7),
                           components=(mb.ParetoDist(2.0), mb.ParetoDist(3.0)))

    def test_dist_json_round_trip(self):
        dist = mb.MixtureDist(weights=(0.9, 0.1),
                              components=(mb.ParetoDist(2.5, 2.0),
                                          mb.LognormalDist(1.0, 0.7)))
        assert mb.dist_from_dict(dist.to_dict()) == dist


def _peak_bytes(call):
    """The call's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_per_draw():
    # generation holds the incomes (8 bytes a draw; unit weights are a
    # stride-0 view of one 1) and one block's temporaries, not whole-sample
    # uniforms and inversion temporaries (78 bytes a draw for a mixture);
    # handing a read-only array to from_incomes copies nothing and makes
    # only the validation's masks; a unit ranking holds its sorted incomes
    # and prefix sums alone, no weight totals; a weighted ranking holds the
    # gathered incomes and weights, their totals and prefix sums, with no
    # sort order or product temporary beside them
    n = 2**20
    for dist in (mb.ParetoDist(2.0, 1.0), mb.LognormalDist(10.2, 0.75),
                 mb.dist_from_dict(PINNED_SPEC["distribution"])):
        sample, peak = _peak_bytes(lambda: mb.generate(dist, n, seed=9))
        assert peak <= 16 * n, (dist, peak / n)
    _, peak = _peak_bytes(lambda: mb.MicroSample.from_incomes(sample.incomes))
    assert peak <= 2 * n, peak / n
    _, peak = _peak_bytes(lambda: sample._ranked)
    assert peak <= 16 * n + 2**20, peak / n
    weighted = _tied_weighted(n)
    _, peak = _peak_bytes(lambda: weighted._ranked)
    assert peak <= 32 * n + 2**20, peak / n


def _tied_weighted(n):
    """n rows of tied whole incomes with weights 1 to 9, plus non-filers."""
    return mb.MicroSample(np.floor(np.arange(1.0, n + 1.0) ** 1.3 % 997),
                          np.arange(n) % 9 + 1, nonfiler_count=500)


class TestProtocol:
    def test_estimators_exact_at_tabulated_fractions(self):
        sample = mb.generate(mb.ParetoDist(2.0), 100_000, seed=4)
        thresholds = mb.quantile_thresholds(sample, 10)
        tab = mb.tabulate(sample, thresholds)
        stats = ts.cumulate(tab)
        for k in (0, 4, 9):
            p_k = float(stats.top_fraction[k])
            oracle = mb.oracle_share(sample, p_k)
            assert estimate(tab, p_k, "PI").share == pytest.approx(
                oracle, rel=1e-12)
            assert estimate(tab, p_k, "ME").share == pytest.approx(
                oracle, rel=1e-12)

    def test_me_matches_oracle_within_one_unit_income(self):
        # at non-tabulated fractions the two differ only by the pro-rata
        # boundary convention: at most one unit's income
        sample = mb.generate(mb.LognormalDist(0.0, 1.0), 50_000, seed=6)
        thresholds = mb.quantile_thresholds(sample, 25)
        tab = mb.tabulate(sample, thresholds)
        stats = ts.cumulate(tab)
        s_total = sample.total_income
        for k in range(0, 20, 3):
            p_k = float(stats.top_fraction[k])
            me = estimate(tab, p_k, "ME").share
            oracle = mb.oracle_share(sample, p_k)
            one_unit = float(np.sort(sample.incomes)[-1]) / s_total
            assert abs(me - oracle) <= one_unit

    def test_run_protocol_deterministic(self):
        spec = mb.BenchmarkSpec(dist=mb.ParetoDist(2.0), size=20_000,
                                classes=(8, 14), fractiles=(0.10, 0.01),
                                trials=2, seed=123)
        a = mb.run_protocol(spec)
        b = mb.run_protocol(spec)
        assert a == b

    def test_trend_me_mse_improves_with_classes(self):
        spec = mb.BenchmarkSpec(dist=mb.LognormalDist(0.0, 1.0), size=100_000,
                                classes=(8, 30), fractiles=(0.10,),
                                trials=5, seed=9)
        report = mb.run_protocol(spec)
        coarse = report.summary_for("ME", 8, 0.10)
        fine = report.summary_for("ME", 30, 0.10)
        assert fine.mse_rel_error <= coarse.mse_rel_error
        assert coarse.trials_ok == 5

    def test_each_sample_sorted_once(self, monkeypatch):
        # the oracle, the threshold ladder and the tabulation share one sort:
        # of the values alone for unit weights, of an order for weighted rows
        n = 4000
        sorts = []

        def counting(name):
            sort = getattr(np, name)

            def counted(a, *args, **kwargs):
                if np.shape(a)[-1:] == (n,):
                    sorts.append(name)
                return sort(a, *args, **kwargs)
            return counted
        for name in ("sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, counting(name))
        for sample, scheme, kind in (
                (mb.generate(mb.ParetoDist(2.0), n, seed=4), "geometric", "sort"),
                (_tied_weighted(n), "equal_mass", "argsort")):
            sorts.clear()
            mb.evaluate_sample(sample, (3, 8, 14, 30), (0.5, 0.1, 0.01, 0.001),
                               scheme=scheme)
            assert sorts == [kind]

    def test_prefix_sums_computed_once_per_sample(self, monkeypatch):
        # the ranking's weight total and bottom-up income prefix serve every
        # class count, however many K: a unit-weight sample's weight totals
        # are its ranks, so it needs one sample-length running sum, a
        # weighted one two
        n = 5000
        sums = []
        cumsum = np.cumsum

        def counted(a, *args, **kwargs):
            if np.size(a) == n:
                sums.append(a)
            return cumsum(a, *args, **kwargs)
        monkeypatch.setattr(np, "cumsum", counted)
        for sample, scheme, running in (
                (mb.generate(mb.ParetoDist(2.0), n, seed=4), "geometric", 1),
                (_tied_weighted(n), "equal_mass", 2)):
            sums.clear()
            mb.evaluate_sample(sample, (3, 8, 14, 30), (0.5, 0.1, 0.01, 0.001),
                               scheme=scheme)
            assert len(sums) == running

    def test_totals_computed_once_per_sample(self, monkeypatch):
        # the filer count and the income total are cached on the sample:
        # one weight sum and one sample-length dot product, however many K
        # and fractiles read them
        n = 5000
        calls = []
        dot = np.dot

        def counted_dot(a, b, *args, **kwargs):
            if np.size(a) == n:
                calls.append("dot")
            return dot(a, b, *args, **kwargs)
        monkeypatch.setattr(np, "dot", counted_dot)

        class CountedSums(np.ndarray):
            def sum(self, *args, **kwargs):
                if self.size == n:
                    calls.append("sum")
                return super().sum(*args, **kwargs)
        for sample in (mb.generate(mb.ParetoDist(2.0), n, seed=4),
                       _tied_weighted(n)):
            # the sample is frozen; swap in weights that count their sums
            object.__setattr__(sample, "weights", sample.weights.view(CountedSums))
            calls.clear()
            mb.evaluate_sample(sample, (3, 8, 14, 30), (0.5, 0.1, 0.01, 0.001))
            assert sorted(calls) == ["dot", "sum"]

    def test_zero_threshold_has_positive_sign(self):
        # 0.0 and -0.0 are both accepted incomes and tie in a sort; the
        # ladder must not depend on which of them the sort put last
        rng = np.random.default_rng(17)
        n = 60
        for _ in range(30):
            incomes = rng.integers(0, 5, n).astype(float)
            incomes[:6] = 0.0
            signed = incomes.copy()
            signed[(incomes == 0.0) & (rng.random(n) < 0.5)] = -0.0
            weights = rng.integers(1, 4, n)
            for make in (mb.MicroSample.from_incomes,
                         lambda x: mb.MicroSample(x, weights)):
                sample, plain = make(signed), make(incomes)
                for k in (3, 5, 8):
                    got = mb.quantile_thresholds(sample, k, top_fraction=0.05)
                    want = mb.quantile_thresholds(plain, k, top_fraction=0.05)
                    assert got.tobytes() == want.tobytes()
                    assert got[-1] == 0.0 and not np.signbit(got).any()

    def test_failures_recorded_not_raised(self):
        # fractile below one unit of the population cannot be scored, but
        # the run must not abort
        sample = mb.MicroSample.from_incomes(list(range(1, 101)))
        with pytest.raises(ValueError):
            mb.oracle_share(sample, 1e-6)
        cells = mb.evaluate_sample(sample, [4], [0.5], methods=("PI", "ME"),
                                   top_fraction=0.05)
        assert all(c.status == "ok" for c in cells)

    def test_mse_reported_in_all_three_scales(self):
        spec = mb.BenchmarkSpec(dist=mb.ParetoDist(2.0), size=20_000,
                                classes=(8,), fractiles=(0.10,),
                                trials=3, seed=5)
        s = mb.run_protocol(spec).summary_for("ME", 8, 0.10)
        assert s.mse_share_pp == pytest.approx(1e4 * s.mse_share_level, rel=1e-12)
        assert s.mse_rel_error >= 0.0

    def test_benchmark_spec_rejects_unknown_method(self):
        # before any sample is drawn, with the estimation loop's message
        with pytest.raises(ValueError, match="unknown method 'XX': expected PI or ME"):
            mb.BenchmarkSpec(dist=mb.ParetoDist(2.0), methods=("PI", "XX"))

    def test_benchmark_spec_json_round_trip(self):
        spec = mb.BenchmarkSpec(dist=mb.ParetoDist(2.0, 1.0), size=1000,
                                classes=(8,), fractiles=(0.1, 0.01),
                                trials=2, seed=77)
        again = mb.BenchmarkSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec


# ---------------------------------------------------------------------------
# unit-weight ranking (one value sort) against the argsort reference
# ---------------------------------------------------------------------------

def _argsort_ranking(sample):
    """``MicroSample._ranked`` by the general path: an argsort, then the
    incomes and weights gathered in that order."""
    order = np.argsort(sample.incomes)[::-1]
    incomes, weights = sample.incomes[order], sample.weights[order]
    return (incomes, weights, np.concatenate(([0], np.cumsum(weights))),
            np.concatenate(([0.0], np.cumsum(incomes[::-1] * weights[::-1]))))


def _result(call, *args, **kwargs):
    """A call's result as exact text (repr round-trips floats), or its error."""
    try:
        result = call(*args, **kwargs)
    except Exception as err:  # compared, not hidden
        return ("raised", type(err), str(err))
    if isinstance(result, np.ndarray):
        return (result.dtype, result.tobytes())
    return repr(result)


@st.composite
def unit_weight_samples(draw):
    """Tied whole-currency incomes, scaled so that some running sums round,
    as a MicroSample with unit weights (with non-filers and an income total
    override) or as a loaded CSV."""
    units = draw(st.lists(st.integers(0, 60), min_size=20, max_size=120))
    if not any(units):
        units[0] = 1
    x = np.array(units, dtype=float) * draw(st.sampled_from([1.0, 0.37, 3.1e14]))
    if draw(st.booleans()):
        return mb.load_micro_csv("income,weight\n" + "".join(
            f"{income!r},1\n" for income in x.tolist()))
    override = draw(st.none() | st.floats(1.0, 3.0).map(lambda f: f * x.sum()))
    return mb.MicroSample(x, np.ones(len(x), dtype=np.int64),
                          nonfiler_count=draw(st.integers(0, 40)),
                          total_income_override=override)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(unit_weight_samples())
def test_unit_weight_ranking_matches_argsort_reference(sample):
    ranked = sample._ranked
    assert ranked[1] is sample.weights  # ranked by the values alone
    assert ranked[2] is None  # the weight totals are the ranks, not stored
    reference = mb.MicroSample(sample.incomes, sample.weights,
                               sample.nonfiler_count, sample.total_income_override)
    reference.__dict__["_ranked"] = _argsort_ranking(reference)
    for i in (0, 1, 3):
        got, want = ranked[i], reference._ranked[i]
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the rank-to-total lookups answer as the reference's stored totals do
    n = len(sample.incomes)
    ranks = np.arange(n + 1)
    assert np.array_equal(mb._total_above(sample, ranks),
                          mb._total_above(reference, ranks))
    totals = list(range(n + 3))
    assert np.array_equal(mb._rank_reaching(sample, totals),
                          mb._rank_reaching(reference, totals))
    for p in (1.0, 0.5, 0.25, 0.1):
        assert _result(mb.oracle_share, sample, p) == \
            _result(mb.oracle_share, reference, p)
    for k, scheme in ((2, "geometric"), (4, "equal_mass"), (7, "geometric")):
        ladder = mb.quantile_thresholds(sample, k, 0.05, scheme)
        assert _result(mb.quantile_thresholds, sample, k, 0.05, scheme) == \
            _result(mb.quantile_thresholds, reference, k, 0.05, scheme)
        assert _result(mb.tabulate, sample, ladder) == \
            _result(mb.tabulate, reference, ladder)
    assert _result(mb.evaluate_sample, sample, (3, 6), (0.5, 0.1), top_fraction=0.05) \
        == _result(mb.evaluate_sample, reference, (3, 6), (0.5, 0.1), top_fraction=0.05)


class TestMicroCSV:
    def test_load_and_weights(self):
        sample = mb.load_micro_csv("income,weight\n100,2\n50.5,1\n")
        assert sample.filer_count == 3
        assert sample.total_income == pytest.approx(250.5)

    def test_fractional_weight_rejected(self):
        with pytest.raises(ParseError, match="replication factor"):
            mb.load_micro_csv("income,weight\n100,1.5\n")

    def test_bad_income_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            mb.load_micro_csv("income,weight\n100,1\noops,1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            mb.load_micro_csv("revenue,count\n100,1\n")

    def test_weight_above_2_53_names_line(self):
        # above 2**53 a float weight no longer tells integers apart
        with pytest.raises(ParseError, match=r"line 2: .*2\*\*53"):
            mb.load_micro_csv("income,weight\n1,1e30\n2,1\n")
        assert mb.load_micro_csv(f"income,weight\n1,{2**53}\n").filer_count == 2**53

    @pytest.mark.parametrize("text,line", [
        ("income,weight\n1,2\r3,4\n", 2),                       # a lone CR
        ("income,weight\n1,2\n" + "9" * 200_000 + ",1\n", 3),   # field limit
        ("income,weight\n1,2\n1" + "0" * 10 + "." + "0" * 200_000 + ",1\n", 3),  # 1e10
    ])
    def test_malformed_csv_raises_parse_error(self, text, line):
        for raw in (text, text.encode("utf-8")):
            with pytest.raises(ParseError, match=f"line {line}: malformed CSV"):
                mb.load_micro_csv(raw)

    def test_clean_file_takes_the_columnar_path(self, monkeypatch):
        # the row path is never entered, so a silent fallback cannot hide
        rng = np.random.default_rng(7)
        incomes = np.round(rng.lognormal(10.0, 1.0, 1000), 2)
        incomes[::7] = np.floor(incomes[::7])
        weights = rng.integers(1, 51, 1000)
        text = "\nincome,weight\n" + "".join(
            f"{i!r},{w}\n" for i, w in zip(incomes.tolist(), weights.tolist()))

        def refuse(*args):
            raise AssertionError("the clean file fell back to the row path")
        monkeypatch.setattr(tabulation, "_rows", refuse)
        sample = mb.load_micro_csv(io.StringIO(text))
        assert sample.incomes.tobytes() == incomes.tobytes()
        assert sample.weights.tolist() == weights.tolist()
        # laid out as the row path's arrays, so sums over them round alike
        assert sample.incomes.flags.c_contiguous


# ---------------------------------------------------------------------------
# the columnar fast path of load_micro_csv against the row path
# ---------------------------------------------------------------------------

def _outcome(load, raw):
    """What a loader makes of an input: the arrays' bytes, or the exception
    type, message and line."""
    try:
        sample = load(raw)
    except Exception as err:  # compared, not hidden
        return ("raised", type(err), str(err), getattr(err, "line", None))
    return ("loaded", sample.incomes.dtype, sample.incomes.tobytes(),
            sample.weights.dtype, sample.weights.tobytes())


_FORMS = ("str", "bytes", "handle")


def _as_form(text, form):
    return {"str": text, "bytes": text.encode("utf-8"),
            "handle": io.StringIO(text)}[form]


def _assert_paths_agree(text, form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        loaded = _outcome(mb.load_micro_csv, _as_form(text, form))
        with mock.patch.object(tabulation, "_columns", return_value=None):
            assert loaded == _outcome(mb.load_micro_csv, text), text


TRAP_FILES = [
    "income,weight\n1,2\n\n   \n3,4\n",       # blank, whitespace-only
    "\n  \nincome,weight\n1,2\n",             # blank lines before the header
    "income,weight\r\n1,2\r\n\r\n3,4\r\n",    # CRLF
    "income,weight\n5#x,1\n",                 # '#' is not a comment
    "income,weight\n# note\n1,1\n",
    'income,weight\n"3",1\n',                 # quoted fields
    'income,"weight"\n3,1\n',
    'income,weight\n"1\n2",1\n',
    "income,weight\nnan,1\n",
    "income,weight\n1,inf\n",
    "income,weight\n-inf,1\n",
    "income,weight\n1_0,1\n",                 # float() reads 10
    "income,weight\n1,1e30\n2,1\n",
    "income,weight\n1,-1e30\n",
    "income,weight\n1,2.0\n",
    "income,weight\n-0,1\n",
    "income,weight\n1,-0\n",
    f"income,weight\n1,{2**53}\n",
    f"income,weight\n1,{2**53 + 2}\n",
    f"income,weight\n1,{2**53 + 1}\n",        # rounds to 2**53
    "income,weight,extra\n1,2,3\n4,5,6\n",    # header with an extra column
    "id,income,weight\nx,1,2\n",
    "income,weight\n1,2,3\n",                 # rows longer than the header
    "income,weight\n1,2,3\n4,5\n",
    "income,weight,extra\n1,2\n",             # rows shorter than the header
    "income,weight\n1\n",
    "income,weight\n5,1",                     # a single data row
    "income,weight\n",                        # header only
    "income,weight",
    "",
    "revenue,count\n1,1\n",
    "income,weight\n1,2\r3,4\n",              # a lone carriage return
]


@pytest.mark.parametrize("text", TRAP_FILES)
def test_trap_files_load_as_the_row_path_does(text):
    for form in _FORMS:
        _assert_paths_agree(text, form)


_INCOME_CELLS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.floats(0, 1e15).map(repr),
    st.sampled_from(["0", "-0", "1e-400", "2.5e3", "+4", ".5", "7.", " 8 "]))
_WEIGHT_CELLS = st.one_of(
    st.integers(1, 60).map(str),
    st.sampled_from(["2.0", "1e3", "3.", str(2**53), "9007199254740993"]))
_ANY_CELLS = st.one_of(
    _INCOME_CELLS, _WEIGHT_CELLS, st.floats().map(repr),
    st.integers(-2**64, 2**64).map(str),
    st.sampled_from(["", " ", "nan", "inf", "-1", "1e30", "-1e30", "1_0", '"3"', "5#x",
                     "#", "x", str(2**53 + 2), "\t"]))
_TRAP_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t", "#", "# note", ",", " , "]),
    st.lists(_ANY_CELLS, min_size=1, max_size=4).map(",".join))


@st.composite
def micro_texts(draw):
    """Micro CSV texts: mostly well formed, with traps mixed in."""
    header = draw(st.sampled_from([
        "income,weight", "weight,income", "income,weight,extra",
        "id,income,weight", 'income,"weight"', "income", "revenue,count"]))
    names = [name.strip('"') for name in header.split(",")]
    cells = {"income": _INCOME_CELLS, "weight": _WEIGHT_CELLS}
    lines = [",".join(draw(cells.get(name, _INCOME_CELLS)) for name in names)
             for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_TRAP_LINES))
    lead = draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lead + [header] + lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(micro_texts(), st.sampled_from(_FORMS))
def test_columnar_path_matches_row_path(text, form):
    # equal arrays bit for bit, or the same error at the same line; the
    # examples are fixed so that every run checks the same 400 texts
    _assert_paths_agree(text, form)
