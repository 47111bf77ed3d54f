"""Pareto interpolation of top income shares from grouped data.

The estimator fits a local Pareto law at the tabulated bracket whose top
fraction is nearest the requested fractile, then reads the fractile threshold
and the income above it off the fitted law. At a tabulated fraction the
estimate reproduces the tabulated cumulative income exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FractileNotCoveredError, ParetoFitError
from .tabulation import CumulativeStats, Tabulation, cumulate

__all__ = [
    "ParetoBracketFit",
    "ShareEstimate",
    "select_bracket",
    "threshold_at",
    "top_income_at",
    "estimate_share_pi",
    "pi_share_from_stats",
    "pi_shares",
]


@dataclass(frozen=True)
class ParetoBracketFit:
    """Local Pareto law anchored at one tabulated bracket.

    The implied upper-tail law is P(Y > y) = top_fraction * (y/threshold)^-exponent
    for y >= threshold. ``bracket`` is the 0-based position in descending
    threshold order.
    """

    bracket: int
    threshold: float
    top_fraction: float
    coefficient: float
    exponent: float


@dataclass(frozen=True)
class ShareEstimate:
    """A top-fractile estimate: threshold, income above it, and the share.

    ``method`` is "PI" or "ME". ``bracket`` is the reference bracket for PI,
    None for ME. ``extrapolated`` marks fractiles deeper in the tail than the
    top tabulated bracket.
    """

    fractile: float
    threshold: float
    top_income: float
    share: float
    method: str
    bracket: int | None = None
    extrapolated: bool = False


def _fits(stats: Sequence[CumulativeStats], fractiles: Sequence[float],
          ) -> list[list[ParetoBracketFit | ValueError]]:
    """``select_bracket`` of every fractile on each tabulation's statistics,
    or the error that stops it: the nearest fractions of all of them in one
    array pass over their stacked brackets."""
    if not stats:
        return []
    sizes = np.array([s.num_brackets for s in stats])
    starts = np.cumsum(sizes) - sizes
    fraction, threshold, coef, expo = (np.concatenate(c) for c in zip(*(
        (s.top_fraction, s.thresholds, s.pareto_coefficient, s.pareto_exponent)
        for s in stats)))
    distance = np.abs(fraction - np.array(fractiles, dtype=float)[:, None])
    nearest = np.repeat(np.minimum.reduceat(distance, starts, axis=1), sizes, axis=1)
    best = np.maximum.reduceat(  # the last bracket at that distance: larger p_k wins ties
        np.where(distance == nearest, np.arange(len(fraction)), 0), starts, axis=1).T
    return [[_fit(p, covered, k - a, *law) for p, k, *law in zip(fractiles, *cells)]
            for a, covered, *cells in zip(
                starts.tolist(), fraction[starts + sizes - 1].tolist(), best.tolist(),
                *(column[best].tolist() for column in (threshold, fraction, coef, expo)))]


def _fit(p, covered, bracket, threshold, fraction, coefficient, exponent,
         ) -> ParetoBracketFit | ValueError:
    """The local law at the selected bracket, or the error that stops it."""
    if not 0.0 < p <= 1.0:
        return ValueError(f"fractile must be in (0, 1], got {p}")
    if p > covered:
        return FractileNotCoveredError(p, covered)
    if threshold <= 0:
        return ParetoFitError("no Pareto law at a zero threshold", bracket=bracket)
    if not math.isfinite(coefficient) or coefficient <= 1.0:
        return ParetoFitError(f"local Pareto coefficient {coefficient} must exceed 1",
                              bracket=bracket)
    return ParetoBracketFit(bracket, threshold, fraction, coefficient, exponent)


def select_bracket(stats: CumulativeStats, p: float) -> ParetoBracketFit:
    """Pick the bracket whose top fraction is nearest p (absolute distance).

    Ties go to the larger fraction, i.e. the lower threshold with more
    observations behind it. Raises FractileNotCoveredError when p exceeds the
    covered fraction, and ParetoFitError when the chosen bracket has no valid
    local Pareto law (zero threshold or coefficient <= 1).
    """
    [[fit]] = _fits([stats], [p])
    if isinstance(fit, ValueError):
        raise fit
    return fit


def threshold_at(fit: ParetoBracketFit, p: float) -> float:
    """Income level where the top p fractile starts under the fitted law."""
    if p <= 0:
        raise ValueError(f"fractile must be positive, got {p}")
    return fit.threshold * (fit.top_fraction / p) ** (1.0 / fit.exponent)


def top_income_at(fit: ParetoBracketFit, p: float, population: float) -> float:
    """Total income of the top p fractile: returns times coefficient times
    the fractile threshold. Exact at p equal to the fitted fraction."""
    return population * p * fit.coefficient * threshold_at(fit, p)


def pi_shares(stats: Sequence[CumulativeStats], fractiles: Sequence[float],
              ) -> list[list[ShareEstimate | ValueError]]:
    """The Pareto-interpolated estimate of every fractile on each tabulation's
    statistics, or the error that stops it: one list per tabulation, one
    outcome per fractile. The brackets of all cells are selected in one array
    pass; each cell's closed forms run on Python floats."""
    return [[fit if isinstance(fit, ValueError) else _estimate(s, fit, p)
             for p, fit in zip(fractiles, fits)]
            for s, fits in zip(stats, _fits(stats, fractiles))]


def _estimate(stats: CumulativeStats, fit: ParetoBracketFit, p: float,
              ) -> ShareEstimate | ParetoFitError:
    """The fitted law's estimate at p; a ParetoFitError where its threshold,
    top income or share is not finite."""
    t_p = threshold_at(fit, p)
    s_p = top_income_at(fit, p, stats.population)
    share = s_p / stats.total_income
    if not math.isfinite(share):  # as it is when t_p or s_p is not
        return ParetoFitError(f"fitted threshold {t_p}, top income {s_p} and share "
                              f"{share} must be finite", bracket=fit.bracket)
    return ShareEstimate(p, t_p, s_p, share, "PI", fit.bracket,
                         p < float(stats.top_fraction[0]))


def pi_share_from_stats(stats: CumulativeStats, p: float) -> ShareEstimate:
    """Pareto-interpolated share from precomputed cumulative statistics."""
    estimate = _estimate(stats, select_bracket(stats, p), p)
    if isinstance(estimate, ParetoFitError):
        raise estimate
    return estimate


def estimate_share_pi(tab: Tabulation, p: float) -> ShareEstimate:
    """Estimate the top p income share of a tabulation by Pareto interpolation."""
    return pi_share_from_stats(cumulate(tab), p)
