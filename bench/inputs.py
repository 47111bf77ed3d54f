"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed and uses only numpy
and the standard library: the benchmark never asks the program under test to
make its own inputs, and never calls into it to check its outputs.

Grouped tabulations are built from closed-form distributions, so every
bracket count, threshold and income sum is known exactly: cumulative counts
are integers chosen first, thresholds are the distribution's survival
quantiles at those counts, and bracket incomes are population times the
difference of the partial expectations above the two thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_NORMAL = NormalDist()

# topshares' documented default fractiles for `estimate`
SERIES_FRACTILES = (0.10, 0.05, 0.01, 0.005, 0.001, 0.0001)
# fractiles on which "exact" series years put a tabulated cumulative count
EXACT_FRACTILES = (0.10, 0.01, 0.001)
SERIES_YEARS = 200
SERIES_FIRST_YEAR = 1800

SYNTH_SIZE = 1_000_000
SYNTH_CLASSES = (8, 14, 20, 30)
SYNTH_FRACTILES = (0.5, 0.1, 0.01, 0.001)

MICRO_ROWS = 200_000
COMPARE_CLASSES = (8, 14, 20, 30)
COMPARE_FRACTILES = (0.10, 0.05, 0.01)

RECOVER_KS = (8, 20, 40, 60)


def _rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *extra])


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def inv_survival(self, p: float) -> float:
        return math.exp(self.mu - self.sigma * _NORMAL.inv_cdf(p))

    def partial_above(self, t: float) -> float:
        """E[X; X > t]."""
        s2 = self.sigma * self.sigma
        z = (math.log(t) - self.mu - s2) / (self.sigma * math.sqrt(2.0))
        return math.exp(self.mu + 0.5 * s2) * 0.5 * math.erfc(z)


@dataclass(frozen=True)
class Pareto:
    alpha: float
    scale: float

    def survival(self, t: float) -> float:
        return (t / self.scale) ** -self.alpha

    def inv_survival(self, p: float) -> float:
        return self.scale * p ** (-1.0 / self.alpha)

    def partial_above(self, t: float) -> float:
        return self.alpha / (self.alpha - 1.0) * t * self.survival(t)


@dataclass(frozen=True)
class GroupedYear:
    """One tabulated year, brackets top-down. ``income_sums`` and
    ``total_income`` are in source units, exactly as written to file."""

    year: int
    population: int
    thresholds: tuple[float, ...]
    counts_above: tuple[int, ...]
    income_sums: tuple[float, ...]
    total_income: float
    income_unit: float

    @property
    def counts(self) -> list[int]:
        c = self.counts_above
        return [c[0]] + [c[k] - c[k - 1] for k in range(1, len(c))]

    @property
    def bracket_income(self) -> list[float]:
        """Bracket incomes in threshold units."""
        return [s * self.income_unit for s in self.income_sums]

    @property
    def bracket_means(self) -> list[float]:
        return [s / n for s, n in zip(self.bracket_income, self.counts)]


def grouped_from(dist, population: int, counts_above, year: int = 0,
                 nonfiler_income_frac: float = 0.3,
                 income_unit: float = 1.0) -> GroupedYear:
    """Tabulate a closed-form distribution at integer cumulative counts."""
    counts_above = [int(c) for c in counts_above]
    if any(b <= a for a, b in zip(counts_above, counts_above[1:])):
        raise ValueError("cumulative counts must strictly increase")
    thresholds = [dist.inv_survival(c / population) for c in counts_above]
    partial = [population * dist.partial_above(t) for t in thresholds]
    income = [partial[0]] + [partial[k] - partial[k - 1]
                             for k in range(1, len(partial))]
    sums = tuple(s / income_unit for s in income)
    year_data = GroupedYear(
        year=year, population=population, thresholds=tuple(thresholds),
        counts_above=tuple(counts_above), income_sums=sums,
        total_income=math.fsum(sums) * (1.0 + nonfiler_income_frac),
        income_unit=income_unit)
    means = year_data.bracket_means
    for k, m in enumerate(means):
        upper = math.inf if k == 0 else thresholds[k - 1]
        if not thresholds[k] < m < upper:
            raise ValueError(f"generator bug: bracket {k} mean outside bracket")
    return year_data


def _ladder(top: float, bottom: float, n: int) -> np.ndarray:
    return np.geomspace(top, bottom, n)


# ---------------------------------------------------------------------------
# series_cli: a many-year tabulation file plus denominators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesInputs:
    years: tuple[GroupedYear, ...]
    exact_years: frozenset[int]

    @property
    def rows(self) -> int:
        return sum(len(y.thresholds) for y in self.years)


def series_inputs(seed: int) -> SeriesInputs:
    """~200 years with 3-40 brackets each, half Pareto- and half
    lognormal-derived. The bracket-count multiset is fixed and only its order
    depends on the seed, so every seed asks for the same amount of work.

    Years in ``exact_years`` put a cumulative count exactly on 10%, 1% and
    0.1% of the population; a few years cover under 10% of the population, so
    the top decile is uncovered; most years' top bracket holds more than
    0.01%, so that fractile is an extrapolation.
    """
    rng = _rng(seed, 1)
    ks = rng.permutation(np.resize(np.arange(3, 41), SERIES_YEARS))
    pareto_year = rng.permutation(np.arange(SERIES_YEARS) % 2 == 0)
    eligible = np.flatnonzero(ks >= 7)
    exact = set(int(i) for i in rng.choice(eligible, size=24, replace=False))
    thin = set(int(i) for i in rng.choice(
        np.setdiff1d(np.arange(SERIES_YEARS), list(exact)), size=10,
        replace=False))

    years = []
    for i in range(SERIES_YEARS):
        k = int(ks[i])
        if pareto_year[i]:
            dist = Pareto(alpha=rng.uniform(1.5, 3.0), scale=rng.uniform(5e3, 2e4))
        else:
            dist = Lognormal(mu=math.log(rng.uniform(2e4, 5e4)),
                             sigma=rng.uniform(0.5, 1.1))
        coverage = rng.uniform(0.04, 0.09) if i in thin else rng.uniform(0.3, 0.95)
        if i in exact:
            population = int(rng.integers(500, 15_000)) * 10_000
            top = rng.uniform(1e-4, 9e-4)
            fractions = list(_ladder(top, coverage, k - len(EXACT_FRACTILES)))
            counts = sorted({round(f * population) for f in fractions}
                            | {population // round(1 / p) for p in EXACT_FRACTILES})
        else:
            population = int(rng.integers(5_000_000, 150_000_000))
            top = rng.uniform(2e-4, 2e-3)
            counts = sorted({round(f * population)
                             for f in _ladder(top, coverage, k)})
        if len(counts) != k:
            raise ValueError("generator bug: colliding cumulative counts")
        unit = 1000.0 if i % 3 == 0 else 1.0
        years.append(grouped_from(
            dist, population, counts, year=SERIES_FIRST_YEAR + i,
            nonfiler_income_frac=rng.uniform(0.2, 1.0), income_unit=unit))
    return SeriesInputs(
        years=tuple(years),
        exact_years=frozenset(SERIES_FIRST_YEAR + i for i in exact))


def series_csv(inputs: SeriesInputs) -> tuple[str, str]:
    """(tabulation CSV, denominator CSV), brackets listed bottom-up as
    published tables print them."""
    tab = ["year,lower_threshold,returns,income_sum"]
    den = ["year,population,total_income,income_unit"]
    for y in inputs.years:
        rows = zip(y.thresholds, y.counts, y.income_sums)
        for t, n, s in reversed(list(rows)):
            tab.append(f"{y.year},{t!r},{n},{s!r}")
        den.append(f"{y.year},{y.population},{y.total_income!r},{y.income_unit!r}")
    return "\n".join(tab) + "\n", "\n".join(den) + "\n"


# ---------------------------------------------------------------------------
# synth_1e6: a spec for `topshares synth`
# ---------------------------------------------------------------------------

def synth_spec(seed: int) -> dict:
    """Lognormal body plus Pareto tail at n = 10^6, one trial."""
    rng = _rng(seed, 2)
    tail = rng.uniform(0.05, 0.12)
    return {
        "distribution": {
            "kind": "mixture",
            "weights": [1.0 - tail, tail],
            "components": [
                {"kind": "lognormal", "location": rng.uniform(10.0, 10.5),
                 "shape": rng.uniform(0.6, 0.9)},
                {"kind": "pareto", "exponent": rng.uniform(1.8, 2.6),
                 "scale": rng.uniform(5e4, 8e4)},
            ],
        },
        "size": SYNTH_SIZE,
        "classes": list(SYNTH_CLASSES),
        "fractiles": list(SYNTH_FRACTILES),
        "trials": 1,
        "seed": int(rng.integers(0, 2**31)),
    }


# ---------------------------------------------------------------------------
# compare_weighted: a weighted micro CSV with whole-currency incomes
# ---------------------------------------------------------------------------

def micro_sample(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(incomes, weights): whole-currency incomes, so many ties, and integer
    replication weights 1-50."""
    rng = _rng(seed, 3)
    body = np.exp(rng.normal(math.log(rng.uniform(2.5e4, 3.5e4)),
                             rng.uniform(0.7, 0.9), MICRO_ROWS))
    alpha = rng.uniform(1.8, 2.4)
    tail = 8e4 * (1.0 - rng.random(MICRO_ROWS)) ** (-1.0 / alpha)
    incomes = np.where(rng.random(MICRO_ROWS) < 0.04, tail, body)
    incomes = np.maximum(np.floor(incomes), 1.0)
    weights = rng.integers(1, 51, MICRO_ROWS)
    return incomes, weights


def micro_csv(incomes: np.ndarray, weights: np.ndarray) -> str:
    lines = [f"{int(i)},{int(w)}" for i, w in zip(incomes, weights)]
    return "income,weight\n" + "\n".join(lines) + "\n"


def weighted_oracle(incomes: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Top-p income share of a weighted sample, tie-aware: units are grouped
    by income, and the group straddling the cut contributes pro rata."""
    values, inverse = np.unique(incomes, return_inverse=True)
    mass = np.bincount(inverse, weights=weights.astype(float))
    values, mass = values[::-1], mass[::-1]
    cum = np.cumsum(mass)
    target = p * cum[-1]
    g = int(np.searchsorted(cum, target, side="left"))
    before = float(cum[g - 1]) if g > 0 else 0.0
    top = float(np.dot(values[:g], mass[:g])) + (target - before) * float(values[g])
    return top / float(np.dot(values, mass))


# ---------------------------------------------------------------------------
# recover_ladder: tabulations with thresholds to recover
# ---------------------------------------------------------------------------

def recovery_cases(seed: int, op: int) -> list[GroupedYear]:
    """One lognormal-derived tabulation per K in RECOVER_KS. Each op index
    draws fresh parameters, so no op repeats an earlier op's inputs."""
    rng = _rng(seed, 4, op)
    population = 10_000_000
    cases = []
    for k in RECOVER_KS:
        dist = Lognormal(mu=math.log(rng.uniform(2e4, 5e4)),
                         sigma=rng.uniform(0.6, 1.0))
        fractions = _ladder(rng.uniform(5e-4, 2e-3), rng.uniform(0.7, 0.95), k)
        counts = [round(f * population) for f in fractions]
        cases.append(grouped_from(dist, population, counts))
    return cases
