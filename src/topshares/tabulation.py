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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


def _series(tabs: list[Tabulation]) -> tuple:
    """Tabulations end to end as columns, (sizes, thresholds, counts, sums,
    denominators): bracket counts, each year's brackets in normalized order,
    and its year and denominators (a Denominator, or here the Tabulation).
    Counts are int64: one outside int64 raises OverflowError."""
    brackets = [b for tab in tabs for b in tab.brackets]
    return (np.array([tab.num_brackets for tab in tabs], dtype=np.int64),
            *(np.array([getattr(b, name) for b in brackets], dtype=kind)
              for name, kind in (("lower_threshold", float), ("count", np.int64),
                                 ("income_sum", float))), tabs)


def _stack(columns: Sequence[tuple[np.ndarray, ...]]) -> tuple:
    """Years' bracket columns, thresholds first, laid end to end as floats:
    ((lower, upper, *rest), starts, sizes), upper being the next threshold
    up (inf at each year's top) and year i rows starts[i] + range(sizes[i])."""
    sizes = np.array([len(c[0]) for c in columns])
    starts = np.cumsum(sizes) - sizes
    lower, *rest = (np.concatenate(c, dtype=float) for c in zip(*columns))
    upper = np.append(math.inf, lower[:-1])
    upper[starts] = math.inf
    return (lower, upper, *rest), starts, sizes


def _violations(series: tuple) -> list[list[Violation]]:
    """``validate`` of every year of a series: each check flags all years or
    all brackets at once, and the flags become each year's violations in
    validate's order. A year's total count is summed exactly."""
    sizes, t, c, s, denominators = series
    starts = np.cumsum(sizes) - sizes
    population, income, unit = ([getattr(d, name) for d in denominators] for name
                                in ("population", "total_income", "income_unit"))
    total = [sum(c[a:a + n].tolist()) for a, n in zip(starts.tolist(), sizes.tolist())]
    position = np.arange(len(t)) - np.repeat(starts, sizes)
    upper = np.append(math.inf, t[:-1])  # the next threshold up, below position 0
    scale = np.repeat([u if u > 0 else 1.0 for u in unit], sizes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = s * scale
        mean = scaled / c
    occupied, top = c > 0, position == 0
    checks = (  # (group, code, flags by year or by bracket, message)
        (0, "too_few_brackets", sizes < 2, "need at least 2 brackets, got {n}"),
        (0, "population_not_positive", [p <= 0 for p in population],
         "population must be positive, got {population}"),
        (0, "total_income_not_positive", [not (math.isfinite(x) and x > 0) for x in income],
         "total_income must be positive and finite, got {income}"),
        (0, "income_unit_not_positive", [not (math.isfinite(x) and x > 0) for x in unit],
         "income_unit must be positive and finite, got {unit}"),
        # finite factors whose product overflows in threshold units
        (0, "scaled_total_income_not_finite",
         [math.isfinite(x) and math.isfinite(u) and not math.isfinite(x * u)
          for x, u in zip(income, unit)],
         "total_income {income} times income_unit {unit} is not finite"),
        (1, "negative_count", c < 0, "count {c} is negative"),
        (1, "bad_threshold", ~np.isfinite(t) | (t < 0), "threshold {t} not finite and >= 0"),
        (1, "bad_income_sum", ~np.isfinite(s) | (s < 0), "income_sum {s} not finite and >= 0"),
        (1, "scaled_income_sum_not_finite",
         np.isfinite(s) & np.isfinite(scale) & ~np.isfinite(scaled),
         "income_sum {s} times income_unit {unit} is not finite"),
        (2, "thresholds_not_strictly_decreasing", ~top & ~(t < upper),
         "threshold {t} does not sit strictly below {upper}"),
        # bracket means sit inside their bracket, strictly above the lower
        # threshold for the open top bracket; compared in threshold units
        (3, "top_mean_not_above_threshold", occupied & top & ~(mean > t),
         "open top bracket mean {mean} not strictly above threshold {t}"),
        (3, "mean_below_bracket", occupied & ~top & (mean < t),
         "mean {mean} below lower threshold {t}"),
        (3, "mean_above_bracket", occupied & ~top & ~(mean < t) & ~(mean < upper),
         "mean {mean} not strictly below upper threshold {upper}"),
        (4, "counts_exceed_population", [0 < p < n for p, n in zip(population, total)],
         "{total} returns exceed population {population}"),
        (4, "counts_exceed_int64", [n > _INT64_MAX for n in total],
         "{total} returns exceed 2**63 - 1"))
    year_of = np.repeat(np.arange(len(sizes)), sizes)
    found = []
    for rank, (group, code, flags, message) in enumerate(checks):
        for i in np.flatnonzero(flags).tolist():
            if group in (0, 4):  # i is a year
                found.append((i, group, -1, rank, code, None, message.format(
                    n=sizes[i], population=population[i], income=income[i],
                    unit=unit[i], total=total[i])))
            else:  # i is a bracket
                found.append((year_of.item(i), group, position.item(i), rank, code,
                              position.item(i), message.format(
                                  c=c[i], t=t[i], s=s[i], mean=mean[i], upper=upper[i],
                                  unit=scale[i])))
    out: list[list[Violation]] = [[] for _ in denominators]
    for y, _, _, _, code, bracket, message in sorted(found):
        out[y].append(Violation(code, bracket, message))
    return out


def validate(tab: Tabulation) -> list[Violation]:
    """Check every tabulation invariant; return all violations found.

    An empty list means the tabulation is valid. Violations are data, not
    failures: nothing is raised.
    """
    return _violations(_series([tab]))[0]


def _cumulate(series: tuple) -> list[CumulativeStats | ValueError]:
    """``cumulate`` of every year of a series in one array pass; a year whose
    top bracket is empty, or whose total income or income above the lowest
    threshold is not finite in threshold units, gets a ValueError instead."""
    sizes, t, counts, sums, denominators = series
    starts = np.cumsum(sizes) - sizes
    n, unit = (np.repeat(np.array([getattr(d, name) for d in denominators], dtype=float),
                         sizes) for name in ("population", "income_unit"))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sums = sums * unit
        # running sums bit for bit np.cumsum's on each year alone: one 2-D
        # cumsum per run of positions the same years reach, from the sum
        # before the run (padding every year to the longest inflates memory)
        count_above, income_above, done = counts.copy(), sums.copy(), 0
        for depth in sorted(set(sizes.tolist()) - {0}):
            at = starts[sizes >= depth, None] + np.arange(max(done - 1, 0), depth)
            count_above[at], income_above[at], done = (np.cumsum(
                count_above[at], axis=1), np.cumsum(income_above[at], axis=1), depth)
        mean_above = income_above / count_above
        coef = np.where(t > 0, mean_above / t, np.nan)
        expo = np.where(coef > 1, coef / (coef - 1), np.nan)
        bracket_mean = np.where(counts > 0, sums / np.where(counts > 0, counts, 1), np.nan)
        columns = (t, counts, count_above, income_above, count_above / n, mean_above,
                   coef, expo, counts / n, bracket_mean)

    def year(a: int, k: int, d) -> CumulativeStats | ValueError:
        total = float(d.total_income) * float(d.income_unit)
        if not (k and count_above[a] > 0):
            return ValueError("top bracket is empty: conditional means above the "
                              "highest threshold are undefined")
        if not (math.isfinite(total) and math.isfinite(income_above[a + k - 1])):
            return ValueError(f"total income {total} and income above the lowest threshold "
                              f"{income_above[a + k - 1]} must be finite in threshold units")
        return CumulativeStats(*(column[a:a + k] for column in columns), d.population, total)
    return [year(a, k, d) for a, k, d in zip(starts.tolist(), sizes.tolist(), denominators)]


def cumulate(tab: Tabulation) -> CumulativeStats:
    """Compute all cumulative statistics of a tabulation, top-down.

    Requires an occupied top bracket, and a total income and an income above
    the lowest threshold that are finite in threshold units. Brackets with a
    zero threshold get NaN Pareto fields; empty brackets get a NaN bracket
    mean. Recomputing from the same tabulation is bit-identical.
    """
    [stats] = _cumulate(_series([tab]))
    if isinstance(stats, ValueError):
        raise stats
    return stats


# ---------------------------------------------------------------------------
# CSV ingestion
#
# Tabulation CSV, UTF-8, header required:  year,lower_threshold,returns,income_sum
# Denominator CSV:                         year,population,total_income,income_unit
# Micro-sample CSV:                        income,weight
# Decimal point '.', no thousands separators, blank lines ignored.
# ---------------------------------------------------------------------------

_INT64_MAX = 2**63 - 1

# Each input format, declared once: (name in messages, columns, key, message
# for a row repeating the key of the row on {line}). ``columns`` maps each
# required column, in the order a row is checked, to the type its values
# parse to and the (numpy predicate, message) checks each value must pass,
# {v} being the value and {text} its field.
_TABULATION = ("tabulation", {
    "year": (np.int64, ()),
    "lower_threshold": (float, ()),
    "returns": (np.int64, ((lambda v: v >= 0, "returns {v} is negative"),)),
    "income_sum": (float, ((lambda v: v >= 0, "income_sum {v} is negative"),)),
}, ("year", "lower_threshold"),
    "duplicate bracket threshold {lower_threshold} for year {year} "
    "(first seen on line {line})")
_DENOMINATORS = ("denominator", {
    "year": (np.int64, ()),
    "population": (np.int64, ((lambda v: v > 0, "population {v} must be positive"),)),
    "total_income": (float, ((lambda v: v > 0, "total_income {v} must be positive"),)),
    "income_unit": (float, ((lambda v: v > 0, "income_unit {v} must be positive"),)),
}, ("year",), "duplicate year {year} in denominator file")
_MICRO = ("micro CSV", {
    "income": (float, ((lambda v: v >= 0, "income {v} must be >= 0"),)),
    "weight": (float, (
        (lambda v: (v > 0) & (v == np.trunc(v)),
         "weight {text!r} must be a positive integer replication factor"),
        # beyond it, floats no longer tell integers apart
        (lambda v: v <= 2**53, "weight {text!r} exceeds 2**53"))),
}, (), "")


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
            what: str) -> tuple[int, int, dict[str, int]]:
    """The header, the first non-blank line: its line number, its field
    count and the position of each required column."""
    try:
        lineno, fields = next(rows)
    except StopIteration:
        raise ParseError(f"empty {what} file") from None
    for name in required:
        if name not in fields:
            raise ParseError(f"missing required column {name!r} in header "
                             f"{fields!r}", line=lineno)
    return lineno, len(fields), {name: fields.index(name) for name in required}


def _records(raw, required: tuple[str, ...], what: str,
             ) -> tuple[dict[str, int], Iterable[tuple[int, list[str]]]]:
    """Column positions named by the header line, and the data rows after it
    as (line number, fields), each with at least as many fields as the
    header."""
    rows = _reader(raw)
    _, width, idx = _header(rows, required, what)

    def checked():
        for lineno, fields in rows:
            if len(fields) < width:
                raise ParseError(f"expected {width} fields, got "
                                 f"{len(fields)}", line=lineno)
            yield lineno, fields
    return idx, checked()


def _columns(text: str, required: tuple[str, ...], what: str,
             integers: tuple[str, ...] = ()) -> dict[str, np.ndarray] | None:
    """The required columns of a CSV text as contiguous arrays, read in one
    call to numpy's C parser: int64 for the ``integers`` columns, float64 for
    the rest; values are not range-checked.

    None when the data rows are not a grid of plain numbers exactly as wide
    as the header (quoted fields, blank-looking cells, ragged or longer
    rows, a non-integer or beyond int64 in an integer column, no rows at
    all, a field beyond the csv module's size limit); ``_read`` then reads
    the text with ``_rows``, which names the first bad line. The header is
    read by ``_header``, as there.
    """
    # lineno counts CSV records: if a quoted field spans lines, loadtxt
    # reads a quote or the header itself, and fails
    lineno, width, idx = _header(_reader(text), required, what)
    # a field over the limit fills some block of limit // 2 + 1 characters
    # with no comma or line break; the row path judges any text with one
    block = csv.field_size_limit() // 2 + 1
    for start in range(0, len(text) - block + 1, block):
        if all(text.find(c, start, start + block) < 0 for c in ",\n\r"):
            return None
    ints = {idx[name] for name in integers}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            grid = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=lineno,
                              comments=None, ndmin=1, dtype=[
                                  (f"c{i}", np.int64 if i in ints else float)
                                  for i in range(width)])
    except (ValueError, Warning):
        return None
    return {name: grid[f"c{i}"].copy() for name, i in idx.items()}


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", line=lineno) from None
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise ParseError(f"{what} {value} is outside the int64 range", line=lineno)
    return value


def _parse_float(text: str, what: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not a number", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {text!r} is not finite", line=lineno)
    return value


def _read(raw, form) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The required columns of an input in a declared format (see
    ``_TABULATION``), as arrays of its rows in file order, and the order
    that sorts the rows by the format's key (None for a format without
    one). A grid that ``_columns`` reads in bulk is taken when every value
    is finite and passes its checks and no two rows share a key; any other
    input is read by ``_rows``, which raises a ParseError at its first bad
    line."""
    what, columns, key, _ = form
    text = _text(raw)
    grid = _columns(text, tuple(columns), what,
                    tuple(name for name, (kind, _) in columns.items() if kind is np.int64))
    bulk = (grid is not None and all(np.isfinite(values).all() for values in grid.values())
            and all(check(grid[name]).all()
                    for name, (_, checks) in columns.items() for check, _ in checks))
    if not bulk:
        grid = _rows(text, form)
    if not key:
        return grid, None
    order = np.lexsort([grid[name] for name in key[::-1]])
    keys = [grid[name][order] for name in key]
    if bulk and np.logical_and.reduce([k[1:] == k[:-1] for k in keys]).any():
        _rows(text, form)  # raises at the line of the first repeat
    return grid, order


def _rows(text: str, form) -> dict[str, np.ndarray]:
    """``_read`` row by row: each row's fields parsed and checked in the
    declared order, then its key; a ParseError at the first bad line."""
    what, columns, key, duplicate = form
    idx, records = _records(text, tuple(columns), what)
    rows, seen = [], {}
    for lineno, fields in records:
        row = {}
        for name, (kind, checks) in columns.items():
            field = fields[idx[name]]
            row[name] = value = (_parse_int if kind is np.int64 else _parse_float)(
                field, name, lineno)
            for check, message in checks:
                if not check(value):
                    raise ParseError(message.format(v=value, text=field), line=lineno)
        values = tuple(row[name] for name in key)
        if key and seen.setdefault(values, lineno) != lineno:
            raise ParseError(duplicate.format(line=seen[values], **dict(zip(key, values))),
                             line=lineno)
        rows.append(row)
    return {name: np.array([row[name] for row in rows], dtype=kind)
            for name, (kind, _) in columns.items()}


def parse_denominators(raw) -> dict[int, Denominator]:
    """Parse the sidecar denominator CSV. Duplicate years are an error."""
    grid, _ = _read(raw, _DENOMINATORS)
    return {row[0]: Denominator(*row)
            for row in zip(*(grid[name].tolist() for name in _DENOMINATORS[1]))}


def _read_series(raw, denominators: Mapping[int, Denominator]) -> tuple:
    """``parse_tabulations`` as a series (see ``_series``), no bracket objects
    built: the rows ``_read`` gives, grouped by year and descending threshold
    by the key order ``_read`` sorted them in, then validated."""
    grid, order = _read(raw, _TABULATION)
    year = grid["year"][order]
    first = np.flatnonzero(np.append(year.size > 0, year[1:] != year[:-1]))
    sizes = np.diff(first, append=len(year))
    # the key order runs by year, then ascending threshold: each year's run
    # reversed puts its highest threshold first
    order = order[np.repeat(2 * first + sizes - 1, sizes) - np.arange(len(year))]
    t, c, s = (grid[name][order] for name in ("lower_threshold", "returns", "income_sum"))
    years = year[first].tolist()
    series = (sizes, t, c, s,
              [denominators.get(y, Denominator(y, 1, 1.0)) for y in years])
    for y, problems in zip(years, _violations(series)):
        if y not in denominators:
            raise ParseError(f"missing denominator metadata for year {y}")
        if problems:
            detail = "; ".join(f"[{v.code}] {v.message}" for v in problems)
            raise ParseError(f"year {y}: invalid tabulation: {detail}")
    return series


def parse_tabulations(raw, denominators: Mapping[int, Denominator]) -> list[Tabulation]:
    """Parse a (possibly multi-year) tabulation CSV into validated tabulations.

    Rows may appear in any order; brackets are normalized to descending
    thresholds. Every year must have denominator metadata. The returned list
    is sorted by year. Raises ParseError with a line number on bad rows and
    on validation failures.
    """
    sizes, *arrays, years = _read_series(raw, denominators)
    brackets = list(map(IncomeBracket, *(array.tolist() for array in arrays)))
    return [Tabulation(d.year, tuple(brackets[a:a + n]), d.population, d.total_income,
                       d.income_unit)
            for a, n, d in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist(), years)]
