"""Shared fixtures: published 1920 table rows, synthetic population builders,
a one-cell share estimate, a tabulation CSV writer, a fresh interpreter."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topshares as ts
from topshares.tabulation import CumulativeStats

# Printed rows of the published 1920 grouped-income table: the two highest
# classes plus the ten lowest printed ones. Per class: (lower threshold $,
# returns, class income in $1000) and the printed derived columns
# (cumulative top fraction in percentage points, coefficient b, exponent a).
TABLE_1920_POPULATION = 41_909_000

TABLE_1920_TOP = [
    # k, t, returns, income(k$), printed (cum_pp, b, a)
    (1, 4_000_000.0, 4, 29_920.0, (0.00001, 1.87, 2.149)),
    (2, 3_000_000.0, 3, 9_218.0, (0.00002, 1.86, 2.158)),
]

TABLE_1920_BOTTOM = [
    (28, 10_000.0, 29_984, 314_400.0, (0.53955, 2.39, 1.722)),
    (29, 9_000.0, 40_129, 380_899.0, (0.63530, 2.41, 1.709)),
    (30, 8_000.0, 51_211, 434_462.0, (0.75750, 2.44, 1.692)),
    (31, 7_000.0, 74_511, 557_104.0, (0.93529, 2.47, 1.682)),
    (32, 6_000.0, 112_444, 726_362.0, (1.20360, 2.48, 1.678)),
    (33, 5_000.0, 177_147, 969_505.0, (1.62629, 2.48, 1.674)),
    (34, 4_000.0, 442_557, 1_972_521.0, (2.68229, 2.32, 1.757)),
    (35, 3_000.0, 894_559, 3_067_086.0, (4.81681, 2.23, 1.813)),
    (36, 2_000.0, 2_569_316, 6_184_543.0, (10.94751, 2.15, 1.873)),
    (37, 1_000.0, 2_671_950, 4_050_067.0, (17.32311, 3.27, 1.441)),
]

# income denominator 1920 ($1000): must dominate the tabulated total, which
# real denominators do (they cover non-filers); the exact level only scales
# the share values in structural tests
TABLE_1920_TOTAL_INCOME = 30_000_000.0


def table_1920_tabulation(n_28: float, b_28: float) -> ts.Tabulation:
    """Bridged 1920 tabulation: printed rows plus one synthetic bracket
    standing in for the unprinted classes 3..27.

    The bridge is anchored so the cumulative count and coefficient at the
    $10,000 threshold equal n_28 and b_28. Its lower threshold ($11,000) is
    any value between the $10,000 class and the bridge mean.
    """
    n_28 = int(round(n_28))
    s_28_total = b_28 * 10_000.0 * n_28          # dollars
    count_28 = TABLE_1920_BOTTOM[0][2]
    bridge_count = n_28 - 7 - count_28
    known_k = (TABLE_1920_TOP[0][3] + TABLE_1920_TOP[1][3]
               + TABLE_1920_BOTTOM[0][3])        # $1000 units
    bridge_sum_k = s_28_total / 1000.0 - known_k
    brackets = [ts.IncomeBracket(t, c, s)
                for _, t, c, s, _ in TABLE_1920_TOP]
    brackets.append(ts.IncomeBracket(11_000.0, bridge_count, bridge_sum_k))
    brackets.extend(ts.IncomeBracket(t, c, s)
                    for _, t, c, s, _ in TABLE_1920_BOTTOM)
    return ts.Tabulation(
        year=1920, brackets=tuple(brackets),
        population=TABLE_1920_POPULATION,
        total_income=TABLE_1920_TOTAL_INCOME,
        income_unit=1000.0,
    )


def table_1920_anchor_corners() -> list[ts.Tabulation]:
    """Bridged tabulations at the four corners of the printed-precision
    anchor band (cumulative % and b at the $10,000 row, each ±half of the
    last printed digit)."""
    p_mid, b_mid, _ = TABLE_1920_BOTTOM[0][4]
    corners = []
    for dp in (-0.000005, 0.000005):
        for db in (-0.005, 0.005):
            n_28 = (p_mid + dp) / 100.0 * TABLE_1920_POPULATION
            corners.append(table_1920_tabulation(n_28, b_mid + db))
    return corners


@pytest.fixture(scope="session")
def table_1920():
    p_mid, b_mid, _ = TABLE_1920_BOTTOM[0][4]
    return table_1920_tabulation(p_mid / 100.0 * TABLE_1920_POPULATION, b_mid)


def pareto_population_tabulation(exponent: float, scale: float, population: int,
                                 classes: int, top_fraction: float = 1e-3,
                                 ) -> ts.Tabulation:
    """Tabulation computed from a Pareto population itself (no sampling):
    thresholds at a geometric top-fraction grid, cumulative counts rounded,
    bracket income from the closed-form conditional means."""
    j = np.arange(classes)
    p = top_fraction ** ((classes - 1 - j) / (classes - 1))
    t = scale * p ** (-1.0 / exponent)
    amean = exponent / (exponent - 1.0)
    partial = amean * p * t                      # per-capita income above t
    cum_counts = np.round(population * p).astype(np.int64)
    brackets = []
    for k in range(classes):
        count = cum_counts[k] - (cum_counts[k - 1] if k > 0 else 0)
        q = p[k] - (p[k - 1] if k > 0 else 0.0)
        seg = partial[k] - (partial[k - 1] if k > 0 else 0.0)
        brackets.append(ts.IncomeBracket(float(t[k]), int(count),
                                         float(count * seg / q)))
    return ts.Tabulation(year=0, brackets=tuple(brackets),
                         population=population,
                         total_income=population * amean * scale)


class TwoParetoMixture:
    """Mixture of two Pareto laws (shared unit scale): the heavier tail takes
    over at high incomes, so the local exponent declines toward the top."""

    def __init__(self, weights=(0.85, 0.15), exponents=(2.8, 1.7)):
        self.w = weights
        self.a = exponents
        self.mean = sum(w * a / (a - 1.0) for w, a in zip(weights, exponents))

    def survival(self, t: float) -> float:
        if t <= 1.0:
            return 1.0
        return sum(w * t ** (-a) for w, a in zip(self.w, self.a))

    def density(self, t: float) -> float:
        if t < 1.0:
            return 0.0
        return sum(w * a * t ** (-a - 1.0) for w, a in zip(self.w, self.a))

    def partial_above(self, t: float) -> float:
        t = max(t, 1.0)
        return sum(w * (a / (a - 1.0)) * t ** (1.0 - a)
                   for w, a in zip(self.w, self.a))

    def quantile(self, p: float) -> float:
        lo, hi = 1.0, 10.0
        while self.survival(hi) > p:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.survival(mid) > p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def top_share(self, p: float) -> float:
        return self.partial_above(self.quantile(p)) / self.mean

    def tabulation(self, top_fractions, population: int = 10**7) -> ts.Tabulation:
        """Exact tabulation of the mixture at the given top-fraction grid."""
        p_grid = np.sort(np.asarray(top_fractions, dtype=float))
        t = np.array([self.quantile(p) for p in p_grid])
        cum = np.round(population * p_grid).astype(np.int64)
        parts = np.array([self.partial_above(tt) for tt in t])
        brackets = []
        for k in range(len(p_grid)):
            count = cum[k] - (cum[k - 1] if k > 0 else 0)
            q = p_grid[k] - (p_grid[k - 1] if k > 0 else 0.0)
            seg = parts[k] - (parts[k - 1] if k > 0 else 0.0)
            brackets.append(ts.IncomeBracket(float(t[k]), int(count),
                                             float(count * seg / q)))
        return ts.Tabulation(year=0, brackets=tuple(brackets),
                             population=population,
                             total_income=population * self.mean)


def stats_from_masses(masses, means, thresholds=None,
                      population: int = 10**9) -> CumulativeStats:
    """Hand-built CumulativeStats with exact bracket masses and means, for
    threshold-recovery tests that bypass integer tabulation rounding."""
    q = np.asarray(masses, dtype=float)
    y = np.asarray(means, dtype=float)
    k = len(q)
    t = np.asarray(thresholds if thresholds is not None
                   else np.arange(k, 0, -1), dtype=float)
    counts = np.round(q * population).astype(np.int64)
    count_above = np.cumsum(counts)
    income_above = np.cumsum(q * y * population)
    return CumulativeStats(
        thresholds=t, counts=counts, count_above=count_above,
        income_above=income_above, top_fraction=np.cumsum(q),
        mean_above=income_above / np.maximum(count_above, 1),
        pareto_coefficient=np.full(k, np.nan),
        pareto_exponent=np.full(k, np.nan),
        bracket_fraction=q, bracket_mean=y,
        population=population,
        total_income=float((q * y).sum() * population),
    )


def random_tabulation(rng: np.random.Generator) -> ts.Tabulation:
    """A random valid tabulation: random bracket count, thresholds, counts,
    and means strictly interior to their brackets."""
    k = int(rng.integers(3, 31))
    thresholds = np.sort(np.exp(rng.normal(8.0, 2.0, size=k)))[::-1]
    while len(np.unique(thresholds)) != k:  # pragma: no cover - measure zero
        thresholds = np.sort(np.exp(rng.normal(8.0, 2.0, size=k)))[::-1]
    counts = rng.integers(1, 1_000_000, size=k)
    unit = float(rng.choice([1.0, 1000.0]))
    brackets = []
    for i in range(k):
        if i == 0:
            mean = thresholds[0] * (1.0 + rng.uniform(0.1, 3.0))
        else:
            lo, hi = thresholds[i], thresholds[i - 1]
            mean = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        brackets.append(ts.IncomeBracket(float(thresholds[i]), int(counts[i]),
                                         float(counts[i] * mean / unit)))
    total_returns = int(counts.sum())
    population = int(math.ceil(total_returns * rng.uniform(1.0, 3.0)))
    s_total = sum(b.income_sum for b in brackets) * rng.uniform(1.05, 1.5)
    return ts.Tabulation(year=int(rng.integers(1900, 2000)),
                         brackets=tuple(brackets), population=population,
                         total_income=float(s_total), income_unit=unit)


def estimate(tab: ts.Tabulation, p: float, method: str) -> ts.ShareEstimate:
    """The ``estimate_shares`` outcome of one fractile of one tabulation by
    one method: the estimate, or the error that stopped it, raised."""
    [[(_, _, outcome)]] = ts.estimate_shares([ts.cumulate(tab)], [p], (method,))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def tabulation_csv(tabs) -> tuple[str, str]:
    """Tabulations as (tabulation CSV, denominator CSV) text, floats in
    shortest round-trip form, so that parsing it gives their numbers back
    exactly."""
    brackets = "".join(f"{t.year},{float(b.lower_threshold)!r},{b.count},"
                       f"{float(b.income_sum)!r}\n" for t in tabs for b in t.brackets)
    denominators = "".join(f"{t.year},{t.population},{float(t.total_income)!r},"
                           f"{float(t.income_unit)!r}\n" for t in tabs)
    return ("year,lower_threshold,returns,income_sum\n" + brackets,
            "year,population,total_income,income_unit\n" + denominators)


def fresh_python(code: str) -> str:
    """What ``code`` prints when a fresh interpreter runs it on this package,
    so that modules the test suite imported do not count."""
    src = str(Path(ts.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          capture_output=True, text=True, check=True).stdout
