"""Grouped income data: brackets, validation, ingestion, cumulative statistics.

A tabulation is one year of an income distribution summarized the way tax
authorities publish it: ordered income classes, the number of returns in each
class and their total income, plus external denominators (tax-unit population
and total income) that cover non-filers.

Brackets are indexed from the top: index 0 is the highest-income class. All
formulas downstream assume this ordering, so it is normalized on construction
regardless of input order.

Income sums in published tables are often in a different unit than the
thresholds (e.g. thousands of dollars vs dollars). The scale factor is
explicit metadata (``income_unit``) and is applied once, inside ``cumulate``;
it is never inferred from the data.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ParseError

__all__ = [
    "IncomeBracket",
    "Tabulation",
    "CumulativeStats",
    "Violation",
    "Denominator",
    "validate",
    "cumulate",
    "parse_denominators",
    "parse_tabulations",
    "parse_tabulation",
    "serialize_tabulations",
]


@dataclass(frozen=True)
class IncomeBracket:
    """One income class: all returns with income in [lower_threshold, next).

    ``income_sum`` is in source units; multiply by the tabulation's
    ``income_unit`` to land in threshold units.
    """

    lower_threshold: float
    count: int
    income_sum: float


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found by ``validate``.

    ``bracket`` is the 0-based position in the normalized (descending
    threshold) bracket order, or None for tabulation-level problems.
    """

    code: str
    bracket: int | None
    message: str


@dataclass(frozen=True)
class Denominator:
    """Sidecar metadata for one year: population and income denominators."""

    year: int
    population: int
    total_income: float
    income_unit: float = 1.0


@dataclass(frozen=True)
class Tabulation:
    """One year's grouped income data plus external denominators.

    ``population`` is the number of tax units including non-filers.
    ``total_income`` is the share denominator, given in the same unit as the
    bracket income sums. Brackets are stored highest threshold first.
    """

    year: int
    brackets: tuple[IncomeBracket, ...]
    population: int
    total_income: float
    income_unit: float = 1.0

    def __post_init__(self):
        ordered = tuple(
            sorted(self.brackets, key=lambda b: -b.lower_threshold)
        )
        object.__setattr__(self, "brackets", ordered)

    @property
    def num_brackets(self) -> int:
        return len(self.brackets)


@dataclass(frozen=True)
class CumulativeStats:
    """Per-bracket statistics derived once from a tabulation, top-down.

    All arrays are aligned with the descending-threshold bracket order and
    are read-only. Incomes are rescaled so sums and thresholds share a unit.

    thresholds          lower threshold of each bracket
    counts              returns per bracket
    count_above         cumulative returns at or above each threshold
    income_above        cumulative income at or above each threshold
    top_fraction        count_above / population (p at each threshold)
    mean_above          conditional mean income above each threshold
    pareto_coefficient  mean_above / threshold (NaN where threshold is 0)
    pareto_exponent     coef / (coef - 1) (NaN where coefficient invalid)
    bracket_fraction    bracket count / population
    bracket_mean        bracket income / bracket count (NaN for empty ones)
    """

    thresholds: np.ndarray
    counts: np.ndarray
    count_above: np.ndarray
    income_above: np.ndarray
    top_fraction: np.ndarray
    mean_above: np.ndarray
    pareto_coefficient: np.ndarray
    pareto_exponent: np.ndarray
    bracket_fraction: np.ndarray
    bracket_mean: np.ndarray
    population: int
    total_income: float

    def __post_init__(self):
        for name in (
            "thresholds", "counts", "count_above", "income_above",
            "top_fraction", "mean_above", "pareto_coefficient",
            "pareto_exponent", "bracket_fraction", "bracket_mean",
        ):
            getattr(self, name).flags.writeable = False

    @property
    def num_brackets(self) -> int:
        return len(self.thresholds)

    @property
    def covered_fraction(self) -> float:
        """Fraction of the population at or above the lowest threshold."""
        return float(self.top_fraction[-1])


def validate(tab: Tabulation) -> list[Violation]:
    """Check every tabulation invariant; return all violations found.

    An empty list means the tabulation is valid. Violations are data, not
    failures: nothing is raised.
    """
    out: list[Violation] = []

    if tab.num_brackets < 2:
        out.append(Violation("too_few_brackets", None,
                             f"need at least 2 brackets, got {tab.num_brackets}"))
    if tab.population <= 0:
        out.append(Violation("population_not_positive", None,
                             f"population must be positive, got {tab.population}"))
    if not np.isfinite(tab.total_income) or tab.total_income <= 0:
        out.append(Violation("total_income_not_positive", None,
                             f"total_income must be positive and finite, got {tab.total_income}"))
    if not np.isfinite(tab.income_unit) or tab.income_unit <= 0:
        out.append(Violation("income_unit_not_positive", None,
                             f"income_unit must be positive and finite, got {tab.income_unit}"))

    brackets = tab.brackets
    for i, b in enumerate(brackets):
        if b.count < 0:
            out.append(Violation("negative_count", i,
                                 f"count {b.count} is negative"))
        if not np.isfinite(b.lower_threshold) or b.lower_threshold < 0:
            out.append(Violation("bad_threshold", i,
                                 f"threshold {b.lower_threshold} not finite and >= 0"))
        if not np.isfinite(b.income_sum) or b.income_sum < 0:
            out.append(Violation("bad_income_sum", i,
                                 f"income_sum {b.income_sum} not finite and >= 0"))

    for i in range(1, len(brackets)):
        if not brackets[i].lower_threshold < brackets[i - 1].lower_threshold:
            out.append(Violation(
                "thresholds_not_strictly_decreasing", i,
                f"threshold {brackets[i].lower_threshold} does not sit strictly "
                f"below {brackets[i - 1].lower_threshold}"))

    # Bracket means must sit inside their bracket (strictly above the lower
    # threshold for the open top bracket). Compare in threshold units.
    unit = tab.income_unit if tab.income_unit > 0 else 1.0
    for i, b in enumerate(brackets):
        if b.count <= 0:
            continue
        mean = b.income_sum * unit / b.count
        if i == 0:
            if not mean > b.lower_threshold:
                out.append(Violation(
                    "top_mean_not_above_threshold", i,
                    f"open top bracket mean {mean} not strictly above "
                    f"threshold {b.lower_threshold}"))
        else:
            upper = brackets[i - 1].lower_threshold
            if mean < b.lower_threshold:
                out.append(Violation(
                    "mean_below_bracket", i,
                    f"mean {mean} below lower threshold {b.lower_threshold}"))
            elif not mean < upper:
                out.append(Violation(
                    "mean_above_bracket", i,
                    f"mean {mean} not strictly below upper threshold {upper}"))

    total_count = sum(b.count for b in brackets)
    if tab.population > 0 and total_count > tab.population:
        out.append(Violation("counts_exceed_population", None,
                             f"{total_count} returns exceed population {tab.population}"))
    return out


def cumulate(tab: Tabulation) -> CumulativeStats:
    """Compute all cumulative statistics of a tabulation, top-down.

    Requires a cumulative count above every threshold (the top bracket must
    be occupied). Brackets with a zero threshold get NaN Pareto fields; empty
    brackets get a NaN bracket mean. Recomputing from the same tabulation is
    bit-identical.
    """
    unit = float(tab.income_unit)
    thresholds = np.array([b.lower_threshold for b in tab.brackets], dtype=float)
    counts = np.array([b.count for b in tab.brackets], dtype=np.int64)
    sums = np.array([b.income_sum for b in tab.brackets], dtype=float) * unit

    count_above = np.cumsum(counts)
    income_above = np.cumsum(sums)
    if count_above[0] <= 0:
        raise ValueError("top bracket is empty: conditional means above the "
                         "highest threshold are undefined")

    n = float(tab.population)
    top_fraction = count_above / n
    mean_above = income_above / count_above

    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(thresholds > 0, mean_above / thresholds, np.nan)
        expo = np.where(coef > 1, coef / (coef - 1), np.nan)
        bracket_mean = np.where(counts > 0, sums / np.where(counts > 0, counts, 1), np.nan)

    return CumulativeStats(
        thresholds=thresholds,
        counts=counts,
        count_above=count_above,
        income_above=income_above,
        top_fraction=top_fraction,
        mean_above=mean_above,
        pareto_coefficient=coef,
        pareto_exponent=expo,
        bracket_fraction=counts / n,
        bracket_mean=bracket_mean,
        population=tab.population,
        total_income=float(tab.total_income) * unit,
    )


# ---------------------------------------------------------------------------
# CSV ingestion and serialization
#
# Tabulation CSV, UTF-8, header required:  year,lower_threshold,returns,income_sum
# Denominator CSV:                         year,population,total_income,income_unit
# Decimal point '.', no thousands separators, blank lines ignored.
# ---------------------------------------------------------------------------

_TAB_COLUMNS = ("year", "lower_threshold", "returns", "income_sum")
_DENOM_COLUMNS = ("year", "population", "total_income", "income_unit")


def _text(raw) -> str:
    """The whole input as one string, a leading UTF-8 byte-order mark
    dropped: a file handle is read to its end, bytes are decoded as UTF-8."""
    if hasattr(raw, "read"):
        raw = raw.read()
    text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    return text.removeprefix("\ufeff")


def _reader(raw) -> Iterable[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for non-blank CSV lines."""
    reader = csv.reader(io.StringIO(_text(raw)))
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            yield lineno, [cell.strip() for cell in row]
    except csv.Error as err:  # e.g. an overlong field or a lone carriage return
        raise ParseError(f"malformed CSV: {err}", line=reader.line_num) from None


def _header(rows: Iterator[tuple[int, list[str]]], required: tuple[str, ...],
            columns: Mapping[str, str] | None, what: str,
            ) -> tuple[int, int, dict[str, int]]:
    """The header, the first non-blank line: its line number, its field
    count and the position of each required column."""
    try:
        lineno, fields = next(rows)
    except StopIteration:
        raise ParseError(f"empty {what} file") from None
    names = {}
    for canonical in required:
        actual = (columns or {}).get(canonical, canonical)
        try:
            names[canonical] = fields.index(actual)
        except ValueError:
            raise ParseError(f"missing required column {actual!r} in header "
                             f"{fields!r}", line=lineno) from None
    return lineno, len(fields), names


def _records(raw, required: tuple[str, ...], columns: Mapping[str, str] | None,
             what: str) -> tuple[dict[str, int], Iterable[tuple[int, list[str]]]]:
    """Column positions named by the header line, and the data rows after it
    as (line number, fields), each with at least as many fields as the
    header."""
    rows = _reader(raw)
    _, width, idx = _header(rows, required, columns, what)

    def checked():
        for lineno, fields in rows:
            if len(fields) < width:
                raise ParseError(f"expected {width} fields, got "
                                 f"{len(fields)}", line=lineno)
            yield lineno, fields
    return idx, checked()


def _columns(text: str, required: tuple[str, ...], what: str,
             ) -> dict[str, np.ndarray] | None:
    """The required columns of a CSV text as contiguous float64 arrays, read
    in one call to numpy's C parser; values are not range-checked.

    None when the data rows are not a grid of plain numbers exactly as wide
    as the header (quoted fields, blank-looking cells, ragged or longer
    rows, no rows at all); the caller then reads the text with ``_records``,
    which names the first bad line. The header is read by ``_header``, as
    there.
    """
    # lineno counts CSV records: if a quoted field spans lines, loadtxt
    # reads a quote or the header itself, and fails
    lineno, width, idx = _header(_reader(text), required, None, what)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            grid = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=lineno,
                              comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if grid.shape[1] != width:
        return None
    return {name: grid[:, i].copy() for name, i in idx.items()}


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", line=lineno) from None
    return value


def _parse_float(text: str, what: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not a number", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {text!r} is not finite", line=lineno)
    return value


def parse_denominators(raw) -> dict[int, Denominator]:
    """Parse the sidecar denominator CSV. Duplicate years are an error."""
    idx, rows = _records(raw, _DENOM_COLUMNS, None, "denominator")
    out: dict[int, Denominator] = {}
    for lineno, fields in rows:
        year = _parse_int(fields[idx["year"]], "year", lineno)
        if year in out:
            raise ParseError(f"duplicate year {year} in denominator file",
                             line=lineno)
        population = _parse_int(fields[idx["population"]], "population", lineno)
        if population <= 0:
            raise ParseError(f"population {population} must be positive", line=lineno)
        total_income = _parse_float(fields[idx["total_income"]], "total_income", lineno)
        if total_income <= 0:
            raise ParseError(f"total_income {total_income} must be positive", line=lineno)
        income_unit = _parse_float(fields[idx["income_unit"]], "income_unit", lineno)
        if income_unit <= 0:
            raise ParseError(f"income_unit {income_unit} must be positive", line=lineno)
        out[year] = Denominator(year, population, total_income, income_unit)
    return out


def parse_tabulations(raw, denominators: Mapping[int, Denominator],
                      columns: Mapping[str, str] | None = None,
                      ) -> list[Tabulation]:
    """Parse a (possibly multi-year) tabulation CSV into validated tabulations.

    Rows may appear in any order; brackets are normalized to descending
    thresholds. Every year must have denominator metadata. The returned list
    is sorted by year. Raises ParseError with a line number on bad rows and
    on validation failures.
    """
    idx, rows = _records(raw, _TAB_COLUMNS, columns, "tabulation")
    per_year: dict[int, list[IncomeBracket]] = {}
    seen: dict[tuple[int, float], int] = {}
    for lineno, fields in rows:
        year = _parse_int(fields[idx["year"]], "year", lineno)
        threshold = _parse_float(fields[idx["lower_threshold"]], "lower_threshold", lineno)
        count = _parse_int(fields[idx["returns"]], "returns", lineno)
        if count < 0:
            raise ParseError(f"returns {count} is negative", line=lineno)
        income_sum = _parse_float(fields[idx["income_sum"]], "income_sum", lineno)
        if income_sum < 0:
            raise ParseError(f"income_sum {income_sum} is negative", line=lineno)
        key = (year, threshold)
        if key in seen:
            raise ParseError(f"duplicate bracket threshold {threshold} for year "
                             f"{year} (first seen on line {seen[key]})", line=lineno)
        seen[key] = lineno
        per_year.setdefault(year, []).append(IncomeBracket(threshold, count, income_sum))

    out = []
    for year in sorted(per_year):
        if year not in denominators:
            raise ParseError(f"missing denominator metadata for year {year}")
        d = denominators[year]
        tab = Tabulation(year=year, brackets=tuple(per_year[year]),
                         population=d.population, total_income=d.total_income,
                         income_unit=d.income_unit)
        problems = validate(tab)
        if problems:
            detail = "; ".join(f"[{v.code}] {v.message}" for v in problems)
            raise ParseError(f"year {year}: invalid tabulation: {detail}")
        out.append(tab)
    return out


def parse_tabulation(raw, denominators: Mapping[int, Denominator],
                     year: int | None = None,
                     columns: Mapping[str, str] | None = None) -> Tabulation:
    """Parse a single year. If ``year`` is None the file must hold one year."""
    tabs = parse_tabulations(raw, denominators, columns=columns)
    if year is not None:
        for tab in tabs:
            if tab.year == year:
                return tab
        raise ParseError(f"year {year} not present in tabulation file")
    if len(tabs) != 1:
        raise ParseError(f"expected a single year, found {len(tabs)}: "
                         f"{[t.year for t in tabs]}")
    return tabs[0]


def serialize_tabulations(tabs: Iterable[Tabulation]) -> tuple[str, str]:
    """Render tabulations back to (tabulation CSV, denominator CSV) text.

    Floats are written in shortest round-trip form, so parsing the output
    reproduces the numeric content exactly.
    """
    tab_buf = io.StringIO()
    w = csv.writer(tab_buf, lineterminator="\n")
    w.writerow(_TAB_COLUMNS)
    den_buf = io.StringIO()
    dw = csv.writer(den_buf, lineterminator="\n")
    dw.writerow(_DENOM_COLUMNS)
    for tab in tabs:
        for b in tab.brackets:
            w.writerow([tab.year, repr(float(b.lower_threshold)), b.count,
                        repr(float(b.income_sum))])
        dw.writerow([tab.year, tab.population, repr(float(tab.total_income)),
                     repr(float(tab.income_unit))])
    return tab_buf.getvalue(), den_buf.getvalue()
