"""Pareto interpolation of top income shares from grouped data.

The estimator fits a local Pareto law at the tabulated bracket whose top
fraction is nearest the requested fractile, then reads the fractile threshold
and the income above it off the fitted law. At a tabulated fraction the
estimate reproduces the tabulated cumulative income exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FractileNotCoveredError, ParetoFitError
from .tabulation import CumulativeStats, _batch

__all__ = [
    "ParetoBracketFit",
    "ShareEstimate",
    "select_bracket",
    "pi_share_from_stats",
    "pi_table",
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


# What settles a cell of an estimate table: SERVED, or the first check that
# stops it, in the order the checks run. ERROR_TYPES[code] is the type of the
# error a failing code stands for; YEAR_FAILED stands for its year's error.
SERVED, OUT_OF_RANGE, UNCOVERED, ZERO_THRESHOLD, FLAT_LAW, NOT_FINITE, YEAR_FAILED = range(7)
ERROR_TYPES = (None, ValueError, FractileNotCoveredError, ParetoFitError, ParetoFitError,
               ParetoFitError, None)
_FIT_ERRORS = {ZERO_THRESHOLD: "no Pareto law at a zero threshold",
               FLAT_LAW: "local Pareto coefficient {coefficient} must exceed 1",
               NOT_FINITE: "fitted threshold {threshold}, top income {top_income} and "
                           "share {share} must be finite"}


def pi_table(batch: tuple, fractiles: Sequence[float]) -> dict:
    """PI's table of a batch (see ``tabulation._cumulate``): (years, fractiles)
    arrays "code", "threshold", "top_income", "share", "extrapolated" (served
    past the top bracket) and the law at the nearest bracket, "bracket",
    "fit_threshold", "fit_fraction", "coefficient" and "exponent"; per year,
    "covered" and "errors". The closed forms run where the checks pass. The
    top income, count times threshold times coefficient, takes the
    coefficient (> 1) last, so it overflows only where the product does:
    a huge coefficient at a tiny threshold gives a finite share."""
    ((lower, _, _, _, _, fraction, _, coef, expo, _, _), starts, sizes), \
        population, total, errors = batch
    p = np.array(fractiles, dtype=float)
    distance = np.abs(fraction - p[:, None])
    nearest = np.repeat(np.minimum.reduceat(distance, starts, axis=1), sizes, axis=1)
    best = np.maximum.reduceat(  # the last bracket at that distance: larger p_k wins ties
        np.where(distance == nearest, np.arange(len(fraction)), 0), starts, axis=1).T
    t, f, c, e = (column[best] for column in (lower, fraction, coef, expo))
    code = np.select([~((0.0 < p) & (p <= 1.0)), p > fraction[starts + sizes - 1, None],
                      t <= 0.0, ~(np.isfinite(c) & (c > 1.0))],
                     [OUT_OF_RANGE, UNCOVERED, ZERO_THRESHOLD, FLAT_LAW], SERVED)
    y, j = fit = np.nonzero(code == SERVED)
    estimate = np.full((3, *code.shape), np.nan)  # threshold, top income, share
    with np.errstate(all="ignore"):
        t_p = t[fit] * np.power(f[fit] / p[j], 1.0 / e[fit])
        s_p = t_p * (p[j] * np.array(population, dtype=float)[y]) * c[fit]
        estimate[:, y, j] = t_p, s_p, s_p / np.array(total, dtype=float)[y]
    code[fit] = np.where(np.isfinite(estimate[2][fit]), SERVED, NOT_FINITE)
    return _table((fraction, starts, sizes), p, errors, code, *estimate,
                  bracket=best - starts[:, None], fit_threshold=t, fit_fraction=f,
                  coefficient=c, exponent=e)


def _table(stack, p: np.ndarray, errors, code, threshold, top_income, share,
           **columns) -> dict:
    """A table (see ``pi_table``) of the years of ``stack``, (top_fraction,
    starts, sizes), from its cells' code and estimate; an error fails a year."""
    fraction, starts, sizes = stack
    code[[error is not None for error in errors]] = YEAR_FAILED
    return dict(columns, code=code, threshold=threshold, top_income=top_income,
                share=share, extrapolated=(code == SERVED) & (p < fraction[starts, None]),
                covered=fraction[starts + sizes - 1], errors=errors)


def _fractile_error(p: float, covered: float) -> ValueError:
    """The error for a fractile outside (0, 1] or above the covered fraction,
    for PI and ME alike."""
    if not 0.0 < p <= 1.0:
        return ValueError(f"fractile must be in (0, 1], got {p}")
    return FractileNotCoveredError(p, covered)


def _error(table: dict, y: int, j: int, p: float) -> ValueError:
    """The error that stops cell (y, j) of a table, at fractile ``p``."""
    code = table["code"][y, j]
    if code == YEAR_FAILED:
        return table["errors"][y]
    if code in (OUT_OF_RANGE, UNCOVERED):
        return _fractile_error(p, table["covered"][y].item())
    cell = {name: column[y, j].item() for name, column in table.items()
            if name not in ("covered", "errors")}
    return ParetoFitError(_FIT_ERRORS[code].format(**cell), bracket=cell["bracket"])


def _outcomes(table: dict, fractiles: Sequence[float], method: str,
              ) -> list[list[ShareEstimate | ValueError]]:
    """A table's cells as the one-year API gives them: per year, each
    fractile's ShareEstimate (bracket None for ME), or the error that stops
    it."""
    columns = (table[name].tolist() for name in ("code", "threshold", "top_income",
                                                 "share", "bracket", "extrapolated"))
    return [[ShareEstimate(p, t_p, s_p, share, method, None if method == "ME" else bracket,
                           extrapolated)
             if code == SERVED else _error(table, y, j, p)
             for j, (p, code, t_p, s_p, share, bracket, extrapolated)
             in enumerate(zip(fractiles, *row))]
            for y, row in enumerate(zip(*columns))]


def select_bracket(stats: CumulativeStats, p: float) -> ParetoBracketFit:
    """Pick the bracket whose top fraction is nearest p (absolute distance).

    Ties go to the larger fraction, i.e. the lower threshold with more
    observations behind it. Raises FractileNotCoveredError when p exceeds the
    covered fraction, and ParetoFitError when the chosen bracket has no valid
    local Pareto law (zero threshold or coefficient <= 1).
    """
    table = pi_table(_batch([stats]), [p])
    if table["code"][0, 0] not in (SERVED, NOT_FINITE):  # a fit, finite or not
        raise _error(table, 0, 0, p)
    return ParetoBracketFit(*(table[name][0, 0].item() for name in (
        "bracket", "fit_threshold", "fit_fraction", "coefficient", "exponent")))


def pi_share_from_stats(stats: CumulativeStats, p: float) -> ShareEstimate:
    """Pareto-interpolated share from precomputed cumulative statistics."""
    [[estimate]] = _outcomes(pi_table(_batch([stats]), [p]), [p], "PI")
    if isinstance(estimate, ValueError):
        raise estimate
    return estimate
