"""Tabulation model: validation, cumulative statistics, CSV round trips."""

import contextlib
import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topshares as ts
from topshares import tabulation
from topshares.errors import ParseError
from topshares.tabulation import parse_denominators, parse_tabulations

from conftest import random_tabulation, tabulation_csv


def simple_tab(**overrides):
    kwargs = dict(
        year=1950,
        brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 10, 10 * 70.0),
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ),
        population=100,
        total_income=5000.0,
    )
    kwargs.update(overrides)
    return ts.Tabulation(**kwargs)


class TestValidate:
    def test_valid_tabulation_has_no_violations(self, table_1920):
        assert ts.validate(table_1920) == []
        assert ts.validate(simple_tab()) == []

    def test_mean_below_threshold_names_bracket(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 10, 10 * 20.0),  # mean 20 < 50
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ))
        violations = ts.validate(tab)
        assert len(violations) == 1
        assert violations[0].code == "mean_below_bracket"
        assert violations[0].bracket == 1

    def test_mean_above_bracket(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 10, 10 * 120.0),  # mean 120 >= 100
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ))
        assert [v.code for v in ts.validate(tab)] == ["mean_above_bracket"]

    def test_equal_thresholds_flagged(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 10, 10 * 70.0),
            ts.IncomeBracket(50.0, 35, 35 * 25.0),
        ))
        codes = {v.code for v in ts.validate(tab)}
        assert "thresholds_not_strictly_decreasing" in codes

    def test_top_bracket_mean_must_exceed_threshold(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 100.0),  # mean == threshold
            ts.IncomeBracket(50.0, 10, 10 * 70.0),
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ))
        assert [v.code for v in ts.validate(tab)] == ["top_mean_not_above_threshold"]

    def test_counts_exceeding_population(self):
        tab = simple_tab(population=40)
        assert [v.code for v in ts.validate(tab)] == ["counts_exceed_population"]

    def test_too_few_brackets_and_bad_denominators(self):
        tab = ts.Tabulation(year=1, brackets=(ts.IncomeBracket(10.0, 1, 20.0),),
                            population=0, total_income=-1.0)
        codes = {v.code for v in ts.validate(tab)}
        assert {"too_few_brackets", "population_not_positive",
                "total_income_not_positive"} <= codes

    @pytest.mark.parametrize("top_sum,total,code,message", [
        (1e300, 1e6, "scaled_income_sum_not_finite",
         "income_sum 1e+300 times income_unit 10000000000.0 is not finite"),
        (1500.0, 1e300, "scaled_total_income_not_finite",
         "total_income 1e+300 times income_unit 10000000000.0 is not finite"),
    ], ids=["income_sum", "total_income"])
    def test_income_overflowing_threshold_units_is_a_violation(
            self, top_sum, total, code, message):
        # each factor is finite, their product is not; validating warns of
        # nothing (the suite turns a RuntimeWarning into an error)
        tab = ts.Tabulation(year=1950, brackets=(
            ts.IncomeBracket(2e12, 5, top_sum), ts.IncomeBracket(1e12, 10, 1500.0)),
            population=100, total_income=total, income_unit=1e10)
        assert [(v.code, v.bracket, v.message) for v in ts.validate(tab)] == [
            (code, 0 if code == "scaled_income_sum_not_finite" else None, message)]

    def test_empty_bracket_is_allowed(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 0, 0.0),
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ))
        assert ts.validate(tab) == []


class TestCumulate:
    def test_table_1920_top_rows(self, table_1920):
        stats = ts.cumulate(table_1920)
        # highest class: 4 returns, $29,920k -> conditional mean $7.48M
        assert stats.mean_above[0] == pytest.approx(7_480_000.0)
        assert stats.pareto_coefficient[0] == pytest.approx(1.87)
        assert stats.pareto_exponent[0] == pytest.approx(2.149, abs=5e-4)
        assert stats.pareto_coefficient[1] == pytest.approx(1.86, abs=5e-3)
        assert stats.pareto_exponent[1] == pytest.approx(2.158, abs=5e-4)
        assert stats.top_fraction[0] * 100 == pytest.approx(0.00001, abs=5e-6)

    def test_coefficient_two_gives_exponent_two(self):
        # cumulative mean above the bottom threshold exactly twice it
        tab = ts.Tabulation(
            year=1, brackets=(ts.IncomeBracket(100.0, 1, 250.0),
                              ts.IncomeBracket(50.0, 3, 150.0)),
            population=10, total_income=500.0)
        stats = ts.cumulate(tab)
        assert stats.mean_above[1] == pytest.approx(100.0)
        assert stats.pareto_coefficient[1] == pytest.approx(2.0)
        assert stats.pareto_exponent[1] == pytest.approx(2.0)

    def test_income_unit_rescaling(self):
        dollars = simple_tab()
        thousands = simple_tab(
            brackets=tuple(ts.IncomeBracket(b.lower_threshold, b.count,
                                            b.income_sum / 1000.0)
                           for b in dollars.brackets),
            total_income=dollars.total_income / 1000.0, income_unit=1000.0)
        a = ts.cumulate(dollars)
        b = ts.cumulate(thousands)
        np.testing.assert_allclose(b.income_above, a.income_above, rtol=1e-12)
        assert b.total_income == pytest.approx(a.total_income)

    def test_idempotent_bit_identical(self, table_1920):
        s1 = ts.cumulate(table_1920)
        s2 = ts.cumulate(table_1920)
        for name in ("top_fraction", "mean_above", "pareto_coefficient",
                     "pareto_exponent", "bracket_fraction", "bracket_mean",
                     "income_above"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name),
                                  equal_nan=True), name

    def test_exponent_forms_agree(self):
        # a = 1/(1 - t/s) and a = b/(b-1) are the same number
        rng = np.random.default_rng(11)
        for _ in range(20):
            stats = ts.cumulate(random_tabulation(rng))
            alt = 1.0 / (1.0 - stats.thresholds / stats.mean_above)
            np.testing.assert_allclose(stats.pareto_exponent, alt, rtol=1e-12)

    def test_bracket_fractions_sum_to_coverage(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            stats = ts.cumulate(random_tabulation(rng))
            assert stats.bracket_fraction.sum() == pytest.approx(
                stats.covered_fraction, rel=1e-12)

    def test_cumulative_invariants_on_random_tabulations(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            stats = ts.cumulate(random_tabulation(rng))
            assert np.all(np.diff(stats.count_above) > 0)
            assert np.all(np.diff(stats.income_above) > 0)
            assert np.all((stats.top_fraction > 0) & (stats.top_fraction <= 1))
            positive = stats.thresholds > 0
            assert np.all(stats.pareto_coefficient[positive] > 1)
            assert np.all(stats.pareto_exponent[positive] > 1)
            # bracket means sit strictly inside their brackets
            assert np.all(stats.bracket_mean > stats.thresholds)
            assert np.all(stats.bracket_mean[1:] < stats.thresholds[:-1])

    def test_stats_arrays_are_read_only(self, table_1920):
        stats = ts.cumulate(table_1920)
        with pytest.raises(ValueError):
            stats.top_fraction[0] = 0.5

    def test_zero_threshold_gives_nan_pareto_fields(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 5, 5 * 160.0),
            ts.IncomeBracket(50.0, 10, 10 * 70.0),
            ts.IncomeBracket(0.0, 35, 35 * 25.0),
        ))
        stats = ts.cumulate(tab)
        assert np.isnan(stats.pareto_coefficient[-1])
        assert np.isnan(stats.pareto_exponent[-1])

    def test_empty_top_bracket_rejected(self):
        tab = simple_tab(brackets=(
            ts.IncomeBracket(100.0, 0, 0.0),
            ts.IncomeBracket(50.0, 10, 10 * 70.0),
            ts.IncomeBracket(10.0, 35, 35 * 25.0),
        ))
        with pytest.raises(ValueError, match="top bracket is empty"):
            ts.cumulate(tab)

    @pytest.mark.parametrize("overrides,message", [
        # once cumulated to total_income inf, which made every PI share 0.0
        (dict(total_income=1e300, income_unit=1e10), "total income inf and income "
         "above the lowest threshold 23750000000000.0 must be finite in threshold units"),
        # once cumulated to an income above of inf, which made ME shares inf
        (dict(brackets=(ts.IncomeBracket(100.0, 5, 1e300),
                        ts.IncomeBracket(50.0, 10, 10 * 70.0)), income_unit=1e10),
         "total income 50000000000000.0 and income above the lowest threshold inf "
         "must be finite in threshold units"),
        # a valid year whose finite income sums add up past the float range
        (dict(brackets=(ts.IncomeBracket(1.5e308, 1, 1.7e308),
                        ts.IncomeBracket(1e308, 1, 1.2e308)), population=2),
         "total income 5000.0 and income above the lowest threshold inf "
         "must be finite in threshold units"),
    ], ids=["total_income", "income_sum", "valid_year"])
    def test_non_finite_totals_fail_their_year(self, overrides, message):
        tab = simple_tab(**overrides)
        # validate rejects the first two; the third year is valid
        assert bool(ts.validate(tab)) == ("income_unit" in overrides)
        with pytest.raises(ValueError) as err:
            ts.cumulate(tab)
        assert str(err.value) == message
        first, failed, last = cumulated([simple_tab(), tab, simple_tab(year=1951)])
        assert type(failed) is ValueError and str(failed) == message
        for stats, alone in ((first, simple_tab()), (last, simple_tab(year=1951))):
            assert [np.asarray(v).tobytes() for v in dataclasses.astuple(stats)] == \
                [np.asarray(v).tobytes() for v in dataclasses.astuple(ts.cumulate(alone))]

    def test_brackets_normalized_to_descending_order(self):
        ascending = simple_tab(brackets=tuple(reversed(simple_tab().brackets)))
        assert [b.lower_threshold for b in ascending.brackets] == [100.0, 50.0, 10.0]
        np.testing.assert_array_equal(ts.cumulate(ascending).thresholds,
                                      ts.cumulate(simple_tab()).thresholds)


DENOM_CSV = "year,population,total_income,income_unit\n1950,100,5000,1\n"

TAB_CSV = """year,lower_threshold,returns,income_sum
1950,100,5,800
1950,50,10,700
1950,10,35,875
"""


class TestParsing:
    def test_well_formed_three_bracket_csv(self):
        [tab] = parse_tabulations(TAB_CSV, parse_denominators(DENOM_CSV))
        assert (tab.year, tab.num_brackets, tab.population) == (1950, 3, 100)
        assert tab.brackets[0].count == 5

    def test_negative_count_names_line(self):
        bad = TAB_CSV.replace("1950,50,10,700", "1950,50,-10,700")
        with pytest.raises(ParseError, match="line 3"):
            parse_tabulations(bad, parse_denominators(DENOM_CSV))

    def test_ascending_thresholds_accepted_and_reordered(self):
        lines = TAB_CSV.strip().splitlines()
        flipped = "\n".join([lines[0]] + lines[1:][::-1]) + "\n"
        tabs = parse_tabulations(flipped, parse_denominators(DENOM_CSV))
        assert [b.lower_threshold for b in tabs[0].brackets] == [100.0, 50.0, 10.0]

    def test_blank_lines_ignored(self):
        padded = TAB_CSV.replace("1950,50,10,700\n", "1950,50,10,700\n\n  \n")
        tabs = parse_tabulations(padded, parse_denominators(DENOM_CSV))
        assert tabs[0].num_brackets == 3

    def test_missing_denominator_metadata(self):
        with pytest.raises(ParseError, match="missing denominator"):
            parse_tabulations(TAB_CSV, {})

    def test_duplicate_year_in_denominators(self):
        dup = DENOM_CSV + "1950,200,9000,1\n"
        with pytest.raises(ParseError, match="duplicate year"):
            parse_denominators(dup)

    def test_duplicate_bracket_row(self):
        dup = TAB_CSV + "1950,100,5,800\n"
        with pytest.raises(ParseError, match="duplicate bracket") as err:
            parse_tabulations(dup, parse_denominators(DENOM_CSV))
        assert (err.value.line, str(err.value)) == (5, (
            "line 5: duplicate bracket threshold 100.0 for year 1950 "
            "(first seen on line 2)"))

    def test_rows_sorted_once(self, monkeypatch):
        # the key order that finds a repeated threshold also groups the
        # rows by year, highest threshold first
        years = range(1950, 1954)
        denominators = parse_denominators("year,population,total_income,income_unit\n"
                                          + "".join(f"{y},1000,1e6,1\n" for y in years))
        rows = [f"{y},{t},{c},{c * t * 1.5}" for y in years
                for t, c in ((100, 5), (50, 10), (10, 35))]
        text = "\n".join(["year,lower_threshold,returns,income_sum"]
                         + rows[5::-1] + rows[6:]) + "\n"
        sorts = []

        def counting(name):
            sort = getattr(np, name)

            def counted(a, *args, **kwargs):
                if np.shape(a)[-1:] == (len(rows),):
                    sorts.append(name)
                return sort(a, *args, **kwargs)
            return counted
        for name in ("sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, counting(name))
        tabs = parse_tabulations(text, denominators)
        assert sorts == ["lexsort"]
        assert [(t.year, [b.lower_threshold for b in t.brackets]) for t in tabs] == [
            (y, [100.0, 50.0, 10.0]) for y in years]

    def test_malformed_number_names_line(self):
        bad = TAB_CSV.replace("1950,10,35,875", "1950,10,thirty,875")
        with pytest.raises(ParseError, match="line 4"):
            parse_tabulations(bad, parse_denominators(DENOM_CSV))

    def test_invalid_tabulation_reported(self):
        bad = TAB_CSV.replace("1950,50,10,700", "1950,50,10,200")  # mean 20 < 50
        with pytest.raises(ParseError, match="mean_below_bracket"):
            parse_tabulations(bad, parse_denominators(DENOM_CSV))

    def test_repeated_year_with_a_bad_value_reports_the_value(self):
        # a row's values are checked before its year is checked for a repeat
        dup = DENOM_CSV + "1950,0,9000,1\n"
        with pytest.raises(ParseError, match="^line 3: population 0 must be positive$"):
            parse_denominators(dup)

    def test_header_only_file_holds_no_tabulation(self):
        for text in (TAB_CSV.splitlines()[0], TAB_CSV.splitlines()[0] + "\n\n"):
            assert parse_tabulations(text, parse_denominators(DENOM_CSV)) == []


class TestRoundTrip:
    def test_serialize_parse_reproduces_numbers_exactly(self):
        rng = np.random.default_rng(5)
        tabs = [random_tabulation(rng) for _ in range(8)]
        years = {}
        for i, tab in enumerate(tabs):  # make years unique
            years[i] = ts.Tabulation(year=1900 + i, brackets=tab.brackets,
                                     population=tab.population,
                                     total_income=tab.total_income,
                                     income_unit=tab.income_unit)
        tabs = list(years.values())
        tab_csv, den_csv = tabulation_csv(tabs)
        parsed = parse_tabulations(tab_csv, parse_denominators(den_csv))
        assert len(parsed) == len(tabs)
        for orig, back in zip(tabs, parsed):
            assert back.year == orig.year
            assert back.population == orig.population
            assert back.total_income == orig.total_income
            assert back.income_unit == orig.income_unit
            for a, b in zip(orig.brackets, back.brackets):
                assert (a.lower_threshold, a.count, a.income_sum) == \
                       (b.lower_threshold, b.count, b.income_sum)

    def test_parse_preserves_decimal_precision(self):
        den = "year,population,total_income,income_unit\n1950,100,5000.125,1\n"
        tab_csv = ("year,lower_threshold,returns,income_sum\n"
                   "1950,100.0625,5,800.333333333333337\n"
                   "1950,50,10,700\n")
        [tab] = parse_tabulations(tab_csv, parse_denominators(den))
        assert tab.brackets[0].lower_threshold == 100.0625
        assert tab.brackets[0].income_sum == 800.333333333333337
        assert tab.total_income == 5000.125


# ---------------------------------------------------------------------------
# the columnar validation and cumulation against the scalar reference
# ---------------------------------------------------------------------------

def reference_validate(tab):
    """The bracket-by-bracket validate the columnar one replaced, kept as
    the reference for its violations, messages and order."""
    out = []
    if tab.num_brackets < 2:
        out.append(("too_few_brackets", None,
                    f"need at least 2 brackets, got {tab.num_brackets}"))
    if tab.population <= 0:
        out.append(("population_not_positive", None,
                    f"population must be positive, got {tab.population}"))
    if not np.isfinite(tab.total_income) or tab.total_income <= 0:
        out.append(("total_income_not_positive", None,
                    f"total_income must be positive and finite, got {tab.total_income}"))
    if not np.isfinite(tab.income_unit) or tab.income_unit <= 0:
        out.append(("income_unit_not_positive", None,
                    f"income_unit must be positive and finite, got {tab.income_unit}"))
    if (np.isfinite(tab.total_income) and np.isfinite(tab.income_unit)
            and not np.isfinite(tab.total_income * tab.income_unit)):
        out.append(("scaled_total_income_not_finite", None,
                    f"total_income {tab.total_income} times income_unit "
                    f"{tab.income_unit} is not finite"))
    unit = tab.income_unit if tab.income_unit > 0 else 1.0
    brackets = tab.brackets
    for i, b in enumerate(brackets):
        if b.count < 0:
            out.append(("negative_count", i, f"count {b.count} is negative"))
        if not np.isfinite(b.lower_threshold) or b.lower_threshold < 0:
            out.append(("bad_threshold", i,
                        f"threshold {b.lower_threshold} not finite and >= 0"))
        if not np.isfinite(b.income_sum) or b.income_sum < 0:
            out.append(("bad_income_sum", i,
                        f"income_sum {b.income_sum} not finite and >= 0"))
        if (np.isfinite(b.income_sum) and np.isfinite(unit)
                and not np.isfinite(b.income_sum * unit)):
            out.append(("scaled_income_sum_not_finite", i,
                        f"income_sum {b.income_sum} times income_unit {unit} "
                        f"is not finite"))
    for i in range(1, len(brackets)):
        if not brackets[i].lower_threshold < brackets[i - 1].lower_threshold:
            out.append(("thresholds_not_strictly_decreasing", i,
                        f"threshold {brackets[i].lower_threshold} does not sit strictly "
                        f"below {brackets[i - 1].lower_threshold}"))
    with np.errstate(all="ignore"):
        for i, b in enumerate(brackets):
            if b.count <= 0:
                continue
            mean = b.income_sum * unit / b.count
            if i == 0:
                if not mean > b.lower_threshold:
                    out.append(("top_mean_not_above_threshold", i,
                                f"open top bracket mean {mean} not strictly above "
                                f"threshold {b.lower_threshold}"))
            else:
                upper = brackets[i - 1].lower_threshold
                if mean < b.lower_threshold:
                    out.append(("mean_below_bracket", i,
                                f"mean {mean} below lower threshold {b.lower_threshold}"))
                elif not mean < upper:
                    out.append(("mean_above_bracket", i,
                                f"mean {mean} not strictly below upper threshold {upper}"))
    total_count = sum(b.count for b in brackets)
    if tab.population > 0 and total_count > tab.population:
        out.append(("counts_exceed_population", None,
                    f"{total_count} returns exceed population {tab.population}"))
    if total_count > 2**63 - 1:
        out.append(("counts_exceed_int64", None, f"{total_count} returns exceed 2**63 - 1"))
    return out


def reference_parse_tabulations(text, denominators):
    """The row-by-row parse_tabulations the one-pass reader replaced: rows
    grouped by year in a dict, brackets sorted by Tabulation, each year
    checked by the reference validate."""
    idx, rows = tabulation._records(
        text, ("year", "lower_threshold", "returns", "income_sum"), "tabulation")
    per_year, seen = {}, {}
    for lineno, fields in rows:
        year = tabulation._parse_int(fields[idx["year"]], "year", lineno)
        threshold = tabulation._parse_float(fields[idx["lower_threshold"]],
                                            "lower_threshold", lineno)
        count = tabulation._parse_int(fields[idx["returns"]], "returns", lineno)
        if count < 0:
            raise ParseError(f"returns {count} is negative", line=lineno)
        income_sum = tabulation._parse_float(fields[idx["income_sum"]], "income_sum",
                                             lineno)
        if income_sum < 0:
            raise ParseError(f"income_sum {income_sum} is negative", line=lineno)
        if (year, threshold) in seen:
            raise ParseError(f"duplicate bracket threshold {threshold} for year {year} "
                             f"(first seen on line {seen[year, threshold]})", line=lineno)
        seen[year, threshold] = lineno
        per_year.setdefault(year, []).append(ts.IncomeBracket(threshold, count, income_sum))
    out = []
    for year in sorted(per_year):
        if year not in denominators:
            raise ParseError(f"missing denominator metadata for year {year}")
        d = denominators[year]
        tab = ts.Tabulation(year, tuple(per_year[year]), d.population, d.total_income,
                            d.income_unit)
        problems = reference_validate(tab)
        if problems:
            raise ParseError(f"year {year}: invalid tabulation: "
                             + "; ".join(f"[{code}] {message}" for code, _, message in problems))
        out.append(tab)
    return out


def cumulated(tabs):
    """Each tabulation's CumulativeStats, or the ValueError that fails it,
    from one ``_cumulate`` batch of them all."""
    ((lower, _, *rest), starts, sizes), population, total, errors = \
        tabulation._cumulate(tabulation._series(tabs))
    return [ts.CumulativeStats(*(c[a:a + k] for c in (lower, *rest)), n, s)
            if e is None else e
            for a, k, n, s, e in zip(starts, sizes, population, total, errors)]


def reference_cumulate(tab):
    """The per-tabulation cumulate the columnar one replaced: its arrays in
    CumulativeStats field order, then population and total income."""
    unit = float(tab.income_unit)
    thresholds = np.array([b.lower_threshold for b in tab.brackets], dtype=float)
    counts = np.array([b.count for b in tab.brackets], dtype=np.int64)
    with np.errstate(all="ignore"):
        sums = np.array([b.income_sum for b in tab.brackets], dtype=float) * unit
        count_above = np.cumsum(counts)
        income_above = np.cumsum(sums)
    if count_above[0] <= 0:
        raise ValueError("top bracket is empty: conditional means above the "
                         "highest threshold are undefined")
    # totals past the float range in threshold units fail the year
    total = float(tab.total_income) * unit
    if not (math.isfinite(total) and math.isfinite(income_above[-1])):
        raise ValueError(f"total income {total} and income above the lowest threshold "
                         f"{income_above[-1]} must be finite in threshold units")
    n = float(tab.population)
    with np.errstate(all="ignore"):
        top_fraction = count_above / n
        mean_above = income_above / count_above
        coef = np.where(thresholds > 0, mean_above / thresholds, np.nan)
        expo = np.where(coef > 1, coef / (coef - 1), np.nan)
        bracket_mean = np.where(counts > 0, sums / np.where(counts > 0, counts, 1), np.nan)
        return (thresholds, counts, count_above, income_above, top_fraction, mean_above,
                coef, expo, counts / n, bracket_mean, tab.population, total)


def corrupted_tabulation(rng):
    """A random tabulation, valid or broken in one to three random ways."""
    tab = random_tabulation(rng)
    brackets = list(tab.brackets)
    fields = dict(population=tab.population, total_income=tab.total_income,
                  income_unit=tab.income_unit)
    for _ in range(int(rng.integers(0, 4))):
        if not brackets:
            break
        i = int(rng.integers(len(brackets)))
        b = brackets[i]
        kind = int(rng.integers(12))
        if kind == 0:
            brackets[i] = ts.IncomeBracket(b.lower_threshold, -b.count - 1, b.income_sum)
        elif kind == 1:
            bad = float(rng.choice([np.nan, np.inf, -np.inf, -3.0]))
            brackets[i] = ts.IncomeBracket(bad, b.count, b.income_sum)
        elif kind == 2:
            bad = float(rng.choice([np.nan, np.inf, -1.0, 0.0]))
            brackets[i] = ts.IncomeBracket(b.lower_threshold, b.count, bad)
        elif kind == 3 and i > 0:  # a threshold equal to the one above
            brackets[i] = ts.IncomeBracket(brackets[i - 1].lower_threshold, b.count,
                                           b.income_sum)
        elif kind == 4:
            brackets[i] = ts.IncomeBracket(b.lower_threshold, 0, 0.0)
        elif kind == 5:  # the mean on a bracket edge or outside the bracket
            brackets[i] = ts.IncomeBracket(b.lower_threshold, b.count,
                                           b.income_sum * float(rng.choice([0.5, 2.0, 100.0])))
        elif kind == 6:
            fields["population"] = int(rng.choice([0, -5, 10]))
        elif kind == 7:
            fields["total_income"] = float(rng.choice([0.0, -1.0, np.nan, np.inf]))
        elif kind == 8:
            fields["income_unit"] = float(rng.choice([0.0, -2.0, np.nan, np.inf]))
        elif kind == 9:
            brackets = brackets[:int(rng.integers(0, 2))]
        elif kind == 10 and np.isfinite(b.lower_threshold):  # a mean on the threshold
            brackets[i] = ts.IncomeBracket(float(round(b.lower_threshold)), b.count,
                                           round(b.lower_threshold) * b.count / tab.income_unit)
        elif kind == 11:
            brackets[i] = ts.IncomeBracket(0.0, b.count, b.income_sum)
    return ts.Tabulation(year=tab.year, brackets=tuple(brackets), **fields)


def test_validate_matches_scalar_reference():
    # every code, bracket and message, in order, also for a batch of years
    rng = np.random.default_rng(41)
    tabs = [corrupted_tabulation(rng) for _ in range(600)]
    expected = [[ts.Violation(*v) for v in reference_validate(tab)] for tab in tabs]
    assert sum(map(bool, expected)) > 300
    assert len({v.code for vs in expected for v in vs}) == 12
    assert [ts.validate(tab) for tab in tabs] == expected
    assert tabulation._violations(tabulation._series(tabs)) == expected


def test_cumulate_matches_scalar_reference_bit_for_bit():
    # years of 0 to 30 brackets, some empty at the top, counts past 2**53,
    # stacked in one batch and one at a time
    rng = np.random.default_rng(42)
    tabs = [corrupted_tabulation(rng) for _ in range(400)]
    tabs += [ts.Tabulation(1, (ts.IncomeBracket(2.0, 2**61, 3.0 * 2**61),
                               ts.IncomeBracket(1.0, 2**61 + 1, 1.5 * 2**61)), 2**63 - 1,
                           1e19)]

    def outcome(stats):
        if isinstance(stats, Exception):
            return type(stats), str(stats)
        return [v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                for v in dataclasses.astuple(stats)]

    def reference(tab):
        try:
            columns = reference_cumulate(tab)
        except ValueError as err:
            return ValueError, str(err)
        return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in columns]

    batch = cumulated(tabs)
    for tab, stats in zip(tabs, batch):
        if tab.brackets:
            assert outcome(stats) == reference(tab)
        else:
            assert isinstance(stats, ValueError)
    for tab in tabs[:100]:
        try:
            single = ts.cumulate(tab)
        except ValueError as err:
            single = err
        assert outcome(single) == outcome(batch[tabs.index(tab)])


def test_count_total_beyond_int64_is_a_violation():
    # each count fits an int64, their sum would wrap
    tab = ts.Tabulation(1950, (ts.IncomeBracket(10.0, 9223372036854775000, 2e20),
                               ts.IncomeBracket(5.0, 9000, 6e4)), 10**19, 1e21)
    assert [(v.code, v.message) for v in ts.validate(tab)] == [
        ("counts_exceed_int64", "9223372036854784000 returns exceed 2**63 - 1")]


# ---------------------------------------------------------------------------
# the one-pass tabulation reader against the row path
# ---------------------------------------------------------------------------

SERIES_DENOMINATORS = parse_denominators(
    "year,population,total_income,income_unit\n"
    + "".join(f"{y},{10**7 + y},{1e12 + y},1\n" for y in range(1948, 1954)))


def _read(text, parse=parse_tabulations, rows_only=False):
    """What a parser makes of a text: each tabulation's repr (every value,
    exactly), or the exception type, message and line."""
    try:
        with mock.patch.object(tabulation, "_columns", return_value=None) if rows_only \
                else contextlib.nullcontext():
            return repr(parse(text, SERIES_DENOMINATORS))
    except Exception as err:  # compared, not hidden
        return ("raised", type(err), str(err), getattr(err, "line", None))


def _assert_readers_agree(text):
    """The one-pass reader, the row path and the reference read the same."""
    assert _read(text) == _read(text, rows_only=True) \
        == _read(text, reference_parse_tabulations), text


_YEAR_CELLS = st.one_of(
    st.sampled_from(["1950", "1951", "1952"]),
    st.sampled_from(["1950.0", "1e3", "+1951", " 1952 ", "1_950", "01950", "-1950",
                     "1949", "١٩٥٠", str(2**63), str(-2**63 - 1), "nan", ""]))
_THRESHOLD_CELLS = st.one_of(
    st.integers(0, 10**6).map(str), st.floats(0, 1e7).map(repr),
    st.sampled_from(["1e3", "+5", "-0", "0", "-1", "1_000", "inf", "-inf", "nan",
                     str(2**53 + 1), "5.", ".5", "  7  ", '"8"', ""]))
_COUNT_CELLS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "-5", "1e3", "+5", "1_000", "5.0", "007", str(2**53 + 1),
                     str(2**63 - 1), str(2**63), "nan", "inf", '"3"', " 4 "]))
_SUM_CELLS = st.one_of(
    st.floats(0, 1e12).map(repr), st.integers(0, 10**9).map(str),
    st.sampled_from(["-1", "-0", "inf", "nan", "1_0", "+3.5", "1e400", "4.9e-324",
                     '"2"', ""]))


@st.composite
def tabulation_texts(draw):
    """Multi-year tabulation texts: plausible brackets (so that some files
    validate), tricky tokens, duplicates, blank and quoted lines, any row
    order, CRLF or LF."""
    header = draw(st.sampled_from([
        "year,lower_threshold,returns,income_sum",
        "year,lower_threshold,returns,income_sum",
        "income_sum,returns,year,lower_threshold",
        "year,lower_threshold,returns,income_sum,note",
        "year,lower_threshold,returns,income_sum,note",
        "year,lower_threshold,returns"]))
    names = header.split(",")
    lines = []
    for year in draw(st.lists(st.sampled_from([1950, 1951, 1952]), min_size=1,
                              max_size=3, unique=True)):
        k = draw(st.integers(2, 6))
        edges = sorted(draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k,
                                     unique=True)), reverse=True)
        for i, t in enumerate(edges):
            count = draw(st.integers(1 if i == 0 else 0, 1000))
            mean = t * 1.5 if i == 0 else (t + edges[i - 1]) / 2
            cells = {"year": str(year), "lower_threshold": repr(float(t)),
                     "returns": str(count), "income_sum": repr(count * mean), "note": "x"}
            if draw(st.integers(0, 9)) == 0:
                name = draw(st.sampled_from(["year", "lower_threshold", "returns",
                                             "income_sum"]))
                cells[name] = draw({"year": _YEAR_CELLS, "lower_threshold": _THRESHOLD_CELLS,
                                    "returns": _COUNT_CELLS, "income_sum": _SUM_CELLS}[name])
            lines.append(",".join(cells.get(name, "1") for name in names))
    if draw(st.integers(0, 4)) == 0:
        lines.append(draw(st.sampled_from(lines)))  # a duplicate row
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 4)) // 3):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", ",,,", '"1950",1,1,1', "1950,1"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([header, *lines]) + draw(st.sampled_from(["", eol]))


TRAP_TABULATIONS = [
    "year,lower_threshold,returns,income_sum\n1950,2,1,3\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950.0,2,1,3\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1e3,3\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1,3\n1950,1,1,1.5\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,0,1,3\n1950,-0,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1,3\n1950,1,1,-0\n",
    f"year,lower_threshold,returns,income_sum\n1950,2,{2**53 + 1},3e16\n1950,1,1,1.5\n",
    f"year,lower_threshold,returns,income_sum\n1950,2,{2**63},3\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1,3\n1950,inf,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1,nan\n1950,1,1,1.5\n",
    "year,lower_threshold,returns,income_sum\n",
    "year,lower_threshold,returns,income_sum\n1950,2,1,3\n1953,1,1,1.5\n",
    # 1e10 to numpy's parser, a field beyond the csv module's limit
    "year,lower_threshold,returns,income_sum\n1950,1" + "0" * 10 + "." + "0" * 200_000
    + ",1,3e10\n1950,1,1,1.5\n",
]


@pytest.mark.parametrize("text", TRAP_TABULATIONS)
def test_trap_tabulations_read_as_the_row_path_does(text):
    _assert_readers_agree(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tabulation_texts())
def test_one_pass_reader_matches_row_path(text):
    # the same tabulations, value for value, or the same error at the same
    # line; the examples are fixed so that every run checks the same texts
    _assert_readers_agree(text)


# ---------------------------------------------------------------------------
# the denominator file: bulk reader against the row path
# ---------------------------------------------------------------------------

def reference_parse_denominators(text):
    """The row loop parse_denominators replaced, a row's year checked for a
    repeat after its values."""
    idx, rows = tabulation._records(
        text, ("year", "population", "total_income", "income_unit"), "denominator")
    out = {}
    for lineno, fields in rows:
        year = tabulation._parse_int(fields[idx["year"]], "year", lineno)
        population = tabulation._parse_int(fields[idx["population"]], "population", lineno)
        if population <= 0:
            raise ParseError(f"population {population} must be positive", line=lineno)
        total_income = tabulation._parse_float(fields[idx["total_income"]], "total_income",
                                               lineno)
        if total_income <= 0:
            raise ParseError(f"total_income {total_income} must be positive", line=lineno)
        income_unit = tabulation._parse_float(fields[idx["income_unit"]], "income_unit",
                                              lineno)
        if income_unit <= 0:
            raise ParseError(f"income_unit {income_unit} must be positive", line=lineno)
        if year in out:
            raise ParseError(f"duplicate year {year} in denominator file", line=lineno)
        out[year] = ts.Denominator(year, population, total_income, income_unit)
    return out


def _denominators(text, parse=parse_denominators, rows_only=False):
    """What a parser makes of a denominator text: the repr of its dict (every
    value and type, exactly), or the exception type, message and line."""
    try:
        with mock.patch.object(tabulation, "_columns", return_value=None) if rows_only \
                else contextlib.nullcontext():
            return repr(parse(text))
    except Exception as err:  # compared, not hidden
        return ("raised", type(err), str(err), getattr(err, "line", None))


def _assert_denominator_readers_agree(text):
    """The bulk reader, the row path and the reference read the same."""
    assert _denominators(text) == _denominators(text, rows_only=True) \
        == _denominators(text, reference_parse_denominators), text


_POPULATION_CELLS = st.one_of(
    st.integers(1, 10**9).map(str),
    st.sampled_from(["0", "-5", "1e3", "100.0", "+7", " 8 ", "1_000", "007",
                     str(2**63 - 1), str(2**63), str(-2**63 - 1), "nan", "inf", '"9"', ""]))
_DENOMINATOR_INCOME_CELLS = st.one_of(
    st.floats(1e-3, 1e15).map(repr), st.integers(1, 10**12).map(str),
    st.sampled_from(["0", "-0", "-1", "-1e300", "inf", "-inf", "nan", "1e400", "4.9e-324",
                     "1_0", "+3.5", '"2"', "x", ""]))


@st.composite
def denominator_texts(draw):
    """Denominator texts: plausible rows (so that some files read), with
    tricky values, repeated years, blank and quoted lines, a byte-order mark,
    CRLF or LF."""
    header = draw(st.sampled_from([
        "year,population,total_income,income_unit",
        "year,population,total_income,income_unit",
        "income_unit,total_income,population,year",
        "year,population,total_income,income_unit,note",
        "year,population,total_income"]))
    names = header.split(",")
    traps = {"year": _YEAR_CELLS, "population": _POPULATION_CELLS,
             "total_income": _DENOMINATOR_INCOME_CELLS,
             "income_unit": _DENOMINATOR_INCOME_CELLS}
    lines = []
    for year in draw(st.lists(st.sampled_from([1950, 1951, 1952, 1953]), max_size=4,
                              unique=True)):
        cells = {"year": str(year), "population": str(draw(st.integers(1, 10**9))),
                 "total_income": repr(draw(st.floats(1.0, 1e15))),
                 "income_unit": draw(st.sampled_from(["1", "1000", "1e-3", "1.0"])),
                 "note": "x"}
        if draw(st.integers(0, 4)) == 0:
            name = draw(st.sampled_from(sorted(traps)))
            cells[name] = draw(traps[name])
        lines.append(",".join(cells[name] for name in names))
    if lines and draw(st.integers(0, 4)) == 0:
        lines.append(draw(st.sampled_from(lines)))  # a repeated year
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 4)) // 3):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", ",,,", '"1950",1,1,1', "1950,1"])))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + eol.join([header, *lines]) + draw(st.sampled_from(["", eol]))


TRAP_DENOMINATORS = [
    "year,population,total_income,income_unit\n1950,100,5000,1\n1950,100,5000,1\n",
    "year,population,total_income,income_unit\n1950,100,5000,1\n1950,0,5000,1\n",
    "year,population,total_income,income_unit\n1950,-3,5000,1\n",
    "year,population,total_income,income_unit\n1950,100,0,1\n",
    "year,population,total_income,income_unit\n1950,100,-0,1\n",
    "year,population,total_income,income_unit\n1950,100,5000,0\n",
    "year,population,total_income,income_unit\n1950,100,inf,1\n",
    "year,population,total_income,income_unit\n1950,100,5000,nan\n",
    "year,population,total_income,income_unit\n1950,1e3,5000,1\n",
    "year,population,total_income,income_unit\n1950,100.0,5000,1\n",
    f"year,population,total_income,income_unit\n1950,{2**63},5000,1\n",
    f"year,population,total_income,income_unit\n{2**63},100,5000,1\n",
    "year,population,total_income,income_unit\n\n  \n1950,100,5000,1\n",
    'year,population,total_income,income_unit\n"1950",100,5000,1\n',
    "\ufeffyear,population,total_income,income_unit\n1950,100,5000,1\n",
    "year,population,total_income,income_unit\n",
    "",
]


@pytest.mark.parametrize("text", TRAP_DENOMINATORS)
def test_trap_denominators_read_as_the_row_path_does(text):
    _assert_denominator_readers_agree(text)
    _assert_denominator_readers_agree(text.encode("utf-8"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(denominator_texts())
def test_bulk_denominator_reader_matches_row_path(text):
    # the same denominators, value for value, or the same error at the same
    # line; the examples are fixed so that every run checks the same texts
    _assert_denominator_readers_agree(text)
