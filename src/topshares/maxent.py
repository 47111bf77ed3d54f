"""Maximum-entropy density estimation from grouped income data.

Each bracket's mass and mean pin down one exponentially tilted piece: the
density proportional to exp(rate * y) on the bracket whose conditional mean
matches the bracket mean. Stitching the pieces together (with the bracket
masses as weights) gives the closest density to the improper uniform in
relative entropy among all densities matching the tabulated moments. The
result is piecewise exponential and every distribution query the estimator
needs (cdf, quantile, partial expectation) has a closed form.

When thresholds are unobserved they can be recovered by pushing the same
divergence down over ordered candidate thresholds; at the optimum adjacent
pieces meet continuously, which is exactly the first-order condition.

Numerical policy: each closed form has one implementation, a numpy kernel
over floats or arrays of piece columns that evaluates its common branch on
every element and a rarer branch on every element only when some element
takes it. A branch not taken may overflow or divide by zero, so each entry
point holds one scope with floating-point warnings off, and the kernels
assume a quiet caller. Where a direct form loses digits
to cancellation as u = rate*width nears 0, its kernel switches to a truncated
series: (e^u - 1)/u below |u| = 1e-6, the conditional mean position and its
derivative below |u| = 1e-2, where the cancellation would exceed the rate
solve's residual tolerance. One rate solve serves a whole batch of brackets
(every year of a series), one pass of the query kernels every ME cell of a
batch, and each element gets the bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleOrderingError, MeanOnBoundaryError
from .pareto import (OUT_OF_RANGE, SERVED, UNCOVERED, ShareEstimate, _fractile_error,
                     _outcomes, _table, pi_table)
from .tabulation import CumulativeStats, _batch, _running_sums, _stack

__all__ = [
    "MaxEntDensity",
    "ThresholdSolution",
    "solve_rate",
    "build_density",
    "me_share_from_density",
    "estimate_shares",
    "estimate_table",
    "recover_thresholds",
]

# Below this |rate * width| the direct mass integral loses precision to
# cancellation, so _iexp switches to its truncated series.
SERIES_SWITCH = 1e-6

MEAN_RESIDUAL_TOL = 1e-12  # on the bracket mean, relative to bracket width
GRAD_TOL = 1e-10  # recovery's stop on the gradient, relative to 1 + |objective|
MAX_ITERATIONS = 500  # and its stop on the number of Newton steps


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------
# The _direct and _series helpers are branches of the kernel they name. The
# piece kernels describe the piece [lower, upper) whose density is
# proportional to exp(rate * y), unbounded when upper = inf; a y they take
# lies inside the piece unless said otherwise. A kernel computes its common
# branch on every element and splices each rarer one in with _splice, from
# the lowest precedence to the highest, under the one _quiet scope of the
# entry point that calls it. A mask needs .any() for Python-float
# arguments too, so it comes from np.greater, not >, where u may be a float;
# and a width comes from np.subtract, so that a zero width divides quietly.
_quiet = np.errstate(all="ignore")


def _splice(out, mask, branch, *args):
    """``out`` with ``branch(*args)`` where ``mask`` holds. The branch runs,
    on every element, only if some element takes it, so each element gets
    the bits of an np.where over every branch without paying for the rest."""
    return np.where(mask, branch(*args), out) if mask.any() else out


def _iexp_direct(u):
    return np.expm1(u) / u


def _iexp_series(u):
    return 1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0))


def _iexp(u):
    """(e^u - 1)/u, the mass integral of a unit tilt; 1 at u = 0."""
    return _splice(_iexp_direct(u), np.abs(u) < SERIES_SWITCH, _iexp_series, u)


def _log_iexp(u):
    """log((e^u - 1)/u), overflow-safe for large |u|."""
    out = _splice(np.log(_iexp(u)), np.less(u, -35.0),
                  lambda: np.log(-np.expm1(u)) - np.log(-u))
    # e^u dominates: log((e^u-1)/u) = u + log1p(-e^-u) - log u
    return _splice(out, np.greater(u, 35.0),
                   lambda: u + np.log1p(-np.exp(-u)) - np.log(u))


def _mean_frac_direct(u):
    # Only meaningful for u > 0; reflection handles the negative side.
    return 1.0 / (-np.expm1(-u)) - 1.0 / u


def _mean_frac_series(u):
    u3 = u * u * u
    return 0.5 + u / 12.0 - u3 / 720.0 + u3 * u * u / 30240.0


def _mean_frac(u):
    """Conditional mean position of the tilt e^(u*x) on x in [0, 1].

    Strictly increasing from 0 (u -> -inf) through 1/2 (u = 0) to 1
    (u -> +inf). Built on expm1 of negative arguments only, so it never
    overflows.
    """
    w = np.abs(u)
    direct = _mean_frac_direct(w)
    return _splice(np.where(u > 0.0, direct, 1.0 - direct), w < 1e-2,
                   _mean_frac_series, u)


def _mean_frac_deriv(u):
    """Derivative of _mean_frac; even in u, equals 1/12 at 0."""
    w = np.abs(u)
    e = -np.expm1(-w)
    u2 = np.square(u)  # a numpy float even for a float u, so 1/0 is quiet
    return _splice(1.0 / u2 - np.exp(-w) / (e * e), w < 1e-2,
                   lambda: 1.0 / 12.0 - u2 / 240.0 + u2 * u2 / 6048.0)


def _density_at(lower, upper, mass, rate, y):
    """Density at y of the piece carrying ``mass``."""
    z, width = y - lower, np.subtract(upper, lower)
    u = rate * width
    tilt = np.exp(rate * z)
    steep = _splice((mass / width) * tilt / _iexp(u), np.greater(u, 50.0),
                    lambda: mass * rate * np.exp(rate * (z - width)) / (-np.expm1(-u)))
    return _splice(steep, np.isinf(upper), lambda: mass * (-rate) * tilt)


def _cdf_frac(lower, upper, rate, y):
    """Fraction of the piece's mass at or below y."""
    z, width = y - lower, np.subtract(upper, lower)
    u = rate * width
    steep = _splice(
        (z / width) * _iexp(rate * z) / _iexp(u), np.greater(u, 50.0),
        lambda: np.exp(rate * (z - width)) * np.expm1(-rate * z) / np.expm1(-u))
    return _splice(steep, np.isinf(upper), lambda: -np.expm1(rate * z))


def _tail_frac(lower, upper, rate, y):
    """Fraction of the piece's mass at or above y, in a product form that
    keeps full relative precision even for tiny tails."""
    z, width = y - lower, np.subtract(upper, lower)
    u = rate * width
    w = width - z
    tilt = np.exp(rate * z)
    steep = _splice(tilt * (w / width) * _iexp(rate * w) / _iexp(u),
                    np.greater(u, 50.0), lambda: np.expm1(-rate * w) / np.expm1(-u))
    return _splice(steep, np.isinf(upper), lambda: tilt)


def _quantile_upper(lower, upper, rate, frac):
    """Income level with ``frac`` of the piece's mass above it."""
    rate = np.asarray(rate, dtype=float)  # so that u = 0 divides quietly
    width = upper - lower
    u = -rate * width  # mirror: the upper tail at rate is the lower tail at -rate
    scale = width / u
    # shifted form: e^(rate*z) = frac*e^u + (1-frac) without overflow
    below = _splice(np.log1p(frac * u * _iexp(u)) * scale, u > 50.0,
                    lambda: width + np.log(frac + (1.0 - frac) * np.exp(-u)) * scale)
    below = _splice(below, u == 0.0, lambda: frac * width)
    return _splice(upper - below, np.isinf(upper), lambda: lower + np.log(frac) / rate)


def _partial_expectation(lower, upper, mass, rate, mean, y):
    """Integral of x times the density of the piece carrying ``mass`` with
    conditional mean ``mean`` over [max(y, lower), upper); any y."""
    rate = np.asarray(rate, dtype=float)  # so that rate = 0 divides quietly
    tail, w = mass * _tail_frac(lower, upper, rate, y), upper - y
    # memoryless top piece: its conditional mean above y is y - 1/rate
    above = tail * _splice(y + w * _mean_frac(rate * w), np.isinf(upper),
                           lambda: y - 1.0 / rate)
    above = _splice(above, np.greater_equal(y, upper), lambda: 0.0)
    return _splice(above, np.less_equal(y, lower),
                   lambda: np.where(mass > 0.0, mass * mean, 0.0))


def _attained_objective(lower, upper, rate, mean):
    """Maximum of each bracket's auxiliary objective, attained at ``rate``."""
    width = upper - lower
    bounded = rate * (mean - lower) - np.log(width) - _log_iexp(rate * width)
    return np.where(np.isinf(upper), -1.0 - np.log(mean - lower), bounded)


# ---------------------------------------------------------------------------
# rate solve
# ---------------------------------------------------------------------------

@_quiet
def _solve_rates(lower, upper, mean) -> tuple[np.ndarray, np.ndarray]:
    """Tilt rates whose conditional means on [lower, upper) equal ``mean``,
    elementwise, and the mask of elements whose mean is on a boundary.

    The arguments broadcast together. An element fails, with rate NaN, when
    its mean does not sit strictly inside its bracket, or when its position
    r = (mean - lower)/width rounds to 0 or 1 or is so small that 1/r, the
    tail bound below, overflows; the other elements are solved as usual. An
    unbounded bracket (upper = inf) has the closed form -1/(mean - lower).

    Each bounded element solves _mean_frac(u) = r for u = rate * width by
    safeguarded Newton. With the Langevin function L, _mean_frac(u) =
    1/2 + L(u/2)/2, and 1 - 1/u < _mean_frac(u) < 1/2 + u/12 for u > 0,
    mirrored for u < 0, so the root lies strictly between 12(r - 1/2) and
    1/(1 - r) when r > 1/2, and between -1/r and 12(r - 1/2) when r < 1/2.
    The root is u = 2 L^-1(y) with y = 2r - 1. Newton starts there with
    Petrosyan's closed form L^-1(y) ~ 3y + (y^2/5) sin(7y/2) + y^3/(1 - |y|)
    (Rheol. Acta 2017; relative error below 0.18%), 1 - |y| taken as
    2 min(r, 1 - r), and the start clipped into that interval, since near
    r = 0 or 1 it can land just past the tail bound. Newton falls back to bisection when a step does
    not land strictly inside the interval that still brackets the root, whose
    ends are evaluated iterates or the closed-form bounds; so a step onto an
    evaluated end bisects. It stops at a mean residual below
    MEAN_RESIDUAL_TOL of the width or after 200 steps. Every element sees
    exactly the operations it would see alone, so batching never changes a
    rate.
    """
    lower, upper, mean = np.broadcast_arrays(lower, upper, mean)
    shape = lower.shape
    lower, upper, mean = (np.ravel(a).astype(float) for a in (lower, upper, mean))
    unbounded = np.isinf(upper)
    width = upper - lower
    r = (mean - lower) / width
    # strictly inside, and off the boundary at float resolution. With width
    # > 0, r > 0 implies lower < mean (fl(mean - lower) > 0 exactly when
    # mean > lower), and r < 1 implies mean < upper (rounding is monotone,
    # so mean >= upper would give fl(mean - lower) >= width and r >= 1).
    inside = np.where(unbounded, mean > lower,
                      (width > 0.0) & (0.0 < r) & (r < 1.0) & ~np.isinf(1.0 / r))
    rate = np.where(unbounded, -1.0 / (mean - lower), 0.0)
    rate[~inside] = np.nan

    todo = np.flatnonzero(inside & ~unbounded & (r != 0.5))
    r = r[todo]
    series, tail = 12.0 * (r - 0.5), np.where(r > 0.5, 1.0 / (1.0 - r), -1.0 / r)
    lo, hi = np.minimum(series, tail), np.maximum(series, tail)
    y = 2.0 * r - 1.0  # Petrosyan's inverse Langevin, 1 - |y| taken exactly
    u = np.clip(2.0 * (3.0 * y + 0.2 * y * y * np.sin(3.5 * y)
                       + y * y * y / (2.0 * np.minimum(r, 1.0 - r))), lo, hi)
    h = _mean_frac(u) - r
    u = u.copy()  # the loop writes iterates into u, not into the evaluated start

    # Newton on the unconverged elements, their state compacted to them
    live = np.flatnonzero(~(np.abs(h) <= MEAN_RESIDUAL_TOL))
    u_l, h_l, lo_l, hi_l, r_l = (a[live] for a in (u, h, lo, hi, r))
    for _ in range(200):
        if not live.size:
            break
        above = h_l > 0.0
        hi_l = np.where(above, u_l, hi_l)
        lo_l = np.where(above, lo_l, u_l)
        d = _mean_frac_deriv(u_l)
        newton = np.where(d > 0.0, u_l - h_l / d, np.nan)
        u_l = np.where((lo_l < newton) & (newton < hi_l), newton,
                       0.5 * (lo_l + hi_l))  # bisection safeguard
        h_l = _mean_frac(u_l) - r_l
        u[live] = u_l
        unconverged = ~(np.abs(h_l) <= MEAN_RESIDUAL_TOL)
        if not unconverged.all():
            live, u_l, h_l, lo_l, hi_l, r_l = (
                a[unconverged] for a in (live, u_l, h_l, lo_l, hi_l, r_l))

    rate[todo] = u / width[todo]
    return rate.reshape(shape), ~inside.reshape(shape)


def _boundary_error(t_lo: float, t_hi: float, y: float,
                    bracket: int | None = None) -> MeanOnBoundaryError:
    """The error for a mean that _solve_rates reports on its boundary."""
    t_lo, t_hi, y = float(t_lo), float(t_hi), float(y)
    if math.isinf(t_hi):
        message = (f"mean {y} must sit strictly above the lower threshold "
                   f"{t_lo} of the unbounded top bracket")
    elif not (t_hi - t_lo > 0 and t_lo < y < t_hi):
        message = f"mean {y} must sit strictly inside the bracket [{t_lo}, {t_hi})"
    else:
        message = (f"mean {y} is indistinguishable from a boundary of "
                   f"[{t_lo}, {t_hi}) in double precision")
    return MeanOnBoundaryError(message, bracket=bracket)


def solve_rate(t_lo: float, t_hi: float, y: float) -> float:
    """Exponential tilt rate whose conditional mean on [t_lo, t_hi) equals y.

    This is the unique maximizer of the bracket's concave auxiliary objective
    (see ``_divergence``), solved as a one-element ``_solve_rates`` call.
    Raises MeanOnBoundaryError where that call reports the mean on its
    boundary: no tilt can match such a mean, which signals corrupt data.
    """
    rate, failed = _solve_rates(t_lo, t_hi, y)
    if failed:
        raise _boundary_error(t_lo, t_hi, y)
    return float(rate)


# ---------------------------------------------------------------------------
# the assembled density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxEntDensity:
    """Piecewise-exponential maximum-entropy density over [t_K, inf).

    Piece k, one per bracket from the top down, lives on [thresholds[k],
    thresholds[k-1]) (the top one is unbounded) with ``mass[k]``, tilt
    ``rate[k]`` and conditional mean ``mean[k]`` (0, 0 and NaN for an empty
    bracket). ``mass_above`` is the mass at or above each threshold, so total
    mass is the covered fraction of the population (filers). The columns are
    read-only. A query takes a float or an array and answers elementwise, a
    float for a float.
    """

    thresholds: np.ndarray
    mass: np.ndarray
    rate: np.ndarray
    mean: np.ndarray
    mass_above: np.ndarray
    population: int
    total_income: float

    def __post_init__(self):
        for column in self._columns:
            column.flags.writeable = False

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.thresholds, self.mass, self.rate, self.mean, self.mass_above

    @property
    def covered_fraction(self) -> float:
        return float(self.mass_above[-1])

    @property
    def support_bottom(self) -> float:
        return float(self.thresholds[-1])

    @_quiet
    def pdf(self, y):
        """Density at y; 0 below the support."""
        y = np.asarray(y, dtype=float)
        row, stack = y.reshape(1, -1), _stack([self._columns])
        (lower, upper, mass, rate, _, _), _, _ = stack
        k = _piece_index(stack, row)
        value = _density_at(lower[k], upper[k], mass[k], rate[k], row)
        return _like(y, np.where(row < self.support_bottom, 0.0, value))

    @_quiet
    def cdf(self, y):
        """Probability mass between the bottom threshold and y."""
        y = np.asarray(y, dtype=float)
        below = y < self.support_bottom
        if below.any():
            raise ValueError(f"{float(y[below][0])} lies below the support "
                             f"bottom {self.support_bottom}")
        row, stack = y.reshape(1, -1), _stack([self._columns])
        (lower, upper, mass, rate, _, above), _, _ = stack
        k = _piece_index(stack, row)
        inside = mass[k] * _cdf_frac(lower[k], upper[k], rate[k], row)
        return _like(y, self.covered_fraction - above[k] + inside)

    @_quiet
    def quantile_top(self, p):
        """Income level with upper-tail mass exactly p above it.

        Exact at tabulated fractions: quantile_top(p_k) is the k-th
        threshold. p below the top bracket's mass is served by the unbounded
        top piece; the first p of an array outside (0, 1] or above the
        covered mass raises, as in PI.
        """
        p = np.asarray(p, dtype=float)
        [t], [served] = _quantiles(_stack([self._columns]), p.reshape(1, -1))
        if not served.all():
            raise _fractile_error(p.flat[served.argmin()].item(), self.covered_fraction)
        return _like(p, t)

    @_quiet
    def partial_expectation_above(self, y):
        """Integral of x times the density over [y, inf)."""
        y = np.asarray(y, dtype=float)
        return _like(y, _partial_expectations(_stack([self._columns]),
                                              y.reshape(1, -1)))


def _like(x: np.ndarray, value: np.ndarray):
    """A query's answer shaped like ``x``: a float for a 0-d ``x``."""
    return value.item() if x.ndim == 0 else value.reshape(x.shape)


def _below(column: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """For each value in row r of an (n, m) array, how many of year r's
    entries in a stacked column, ascending within each year, lie below it,
    as ``np.searchsorted`` counts them: a NaN value lies above every entry.
    One search serves all years, over keys that sort by year, then by value:
    complex numbers with the year as real part and the value as imaginary."""
    keys, queries = np.empty(len(column), complex), np.empty(values.shape, complex)
    keys.real, keys.imag = np.repeat(np.arange(len(sizes)), sizes), column
    queries.real, queries.imag = np.arange(len(values))[:, None], values
    return np.where(np.isnan(values), sizes[:, None],  # NaN sorts after every year
                    np.searchsorted(keys, queries) - starts[:, None])


def _piece_index(stack, y: np.ndarray) -> np.ndarray:
    """Stack row of the piece holding each y of an (n, m) array, row r
    read on the r-th density: the highest piece whose lower threshold is at
    or below y; the bottom piece for y below the bottom or NaN."""
    (lower, *_), starts, sizes = stack
    k = _below(-lower, starts, sizes, -y)
    return starts[:, None] + np.minimum(k, sizes[:, None] - 1)


def _quantiles(stack, p: np.ndarray):
    """``quantile_top`` of each stacked density at its row of an (n, m)
    fractile array, and the mask of the fractiles it serves: in (0, 1] and
    covered. Entries off the mask are meaningless."""
    (lower, upper, mass, rate, _, above), starts, sizes = stack
    k = _below(above, starts, sizes, p)
    i = starts[:, None] + np.minimum(k, sizes[:, None] - 1)
    higher = np.where(k > 0, above[i - 1], 0.0)
    inside = _quantile_upper(lower[i], upper[i], rate[i], (p - higher) / mass[i])
    return (np.where(p == above[i], lower[i], inside),
            (p > 0.0) & (p <= 1.0) & (k < sizes[:, None]))


def _partial_expectations(stack, y: np.ndarray) -> np.ndarray:
    """``partial_expectation_above`` of each stacked density at its row of
    an (n, m) array of income levels: the whole pieces above y, a running sum
    from the top piece down, plus the part of the piece holding y."""
    (lower, upper, mass, rate, mean, _), starts, sizes = stack
    i = _piece_index(stack, y)
    [running] = _running_sums(starts, sizes, np.where(mass > 0.0, mass * mean, 0.0))
    whole = np.where(i > starts[:, None], running[i - 1], 0.0)
    return whole + _partial_expectation(lower[i], upper[i], mass[i], rate[i], mean[i], y)


@_quiet
def _me_table(batch: tuple, fractiles: Sequence[float]) -> dict:
    """ME's table (see ``pareto.pi_table``; "bracket" -1) of a batch of solved
    densities, laid out as ``_densities`` lays them out, from one pass of the
    query kernels."""
    stack, population, total, errors = batch
    (*_, above), starts, sizes = stack
    p = np.array(fractiles, dtype=float)
    t, served = _quantiles(stack, np.tile(p, (len(sizes), 1)))
    top_income = np.array(population, dtype=float)[:, None] * _partial_expectations(stack, t)
    code = np.where(served, SERVED, np.where((0.0 < p) & (p <= 1.0), UNCOVERED, OUT_OF_RANGE))
    return _table((above, starts, sizes), p, errors, code, t, top_income,
                  top_income / np.array(total, dtype=float)[:, None],
                  bracket=np.full(code.shape, -1))


def _densities(stack) -> tuple[tuple, list[MeanOnBoundaryError | None]]:
    """The maximum-entropy densities of stacked brackets, ((lower, upper,
    mass, mean, mass_above), starts, sizes), from one rate solve, as the
    ``_stack`` of their ``MaxEntDensity._columns``, empty brackets as
    zero-mass pieces; beside it, per year, None or the MeanOnBoundaryError of
    its first bracket with a mean on its boundary (its rows hold no density)."""
    (lower, upper, mass, mean, above), starts, sizes = stack
    occupied = mass > 0.0
    rate, failed = _solve_rates(lower, upper, mean)
    rate, failed = np.where(occupied, rate, 0.0), failed & occupied
    mass, mean = np.where(occupied, mass, 0.0), np.where(occupied, mean, math.nan)
    # each year's first failed row, or len(failed) when none
    first = np.minimum.reduceat(np.where(failed, np.arange(len(failed)), len(failed)),
                                starts)
    errors = [_boundary_error(lower[i], upper[i], mean[i], bracket=i - a)
              if i < len(failed) else None
              for a, i in zip(starts.tolist(), first.tolist())]
    mean[failed] = math.nan  # queried with the rest: an infinite mean would raise
    return ((lower, upper, mass, rate, mean, above), starts, sizes), errors


def build_density(stats: CumulativeStats) -> MaxEntDensity:
    """Assemble the maximum-entropy density from bracket masses and means at
    the tabulated thresholds, which must strictly decrease. Each occupied
    bracket's mean must sit strictly inside its bracket. Empty brackets
    become zero-mass pieces.
    """
    if np.any(np.diff(stats.thresholds) >= 0):
        raise ValueError("thresholds must be strictly decreasing")
    ((lower, _, mass, rate, mean, above), _, _), [error] = _densities(_stack(
        [(stats.thresholds, stats.bracket_fraction, stats.bracket_mean,
          stats.top_fraction)]))
    if error is not None:
        raise error
    return MaxEntDensity(lower, mass, rate, mean, above, stats.population,
                         stats.total_income)


def me_share_from_density(density: MaxEntDensity, p: float) -> ShareEstimate:
    """Top-p share read off an already-built maximum-entropy density."""
    [[estimate]] = _outcomes(_me_table((_stack([density._columns]), [density.population],
                                        [density.total_income], [None]), [p]), [p], "ME")
    if isinstance(estimate, ValueError):
        raise estimate
    return estimate


def _check_methods(methods: Sequence[str]) -> None:
    for method in methods:
        if method not in ("PI", "ME"):
            raise ValueError(f"unknown method {method!r}: expected PI or ME")


def estimate_table(batch: tuple, fractiles: Sequence[float],
                   methods: Sequence[str] = ("PI", "ME")) -> list[dict]:
    """The table (see ``pareto.pi_table``) of each of ``methods`` over a batch
    (see ``tabulation._cumulate``): the one estimation loop behind the series
    and the accuracy protocol, so PI and ME see identical inputs. ME solves
    every rate in one call and answers every cell in one pass of the query
    kernels; a failed density fails the ME cells of its year and no other.
    Other methods than "PI" and "ME" raise first."""
    _check_methods(methods)
    ((lower, upper, *_, fraction, _, _, _, mass, mean), starts, sizes), \
        population, total, errors = batch
    tables = {}
    if "PI" in methods:
        tables["PI"] = pi_table(batch, fractiles)
    if "ME" in methods:
        stack, failed = _densities(((lower, upper, mass, mean, fraction), starts, sizes))
        tables["ME"] = _me_table((stack, population, total, [
            failure if error is None else error for error, failure in zip(errors, failed)]),
            fractiles)
    return [tables[method] for method in methods]


def estimate_shares(stats: Sequence[CumulativeStats], fractiles: Sequence[float],
                    methods: Sequence[str] = ("PI", "ME"),
                    ) -> list[list[tuple[float, str, ShareEstimate | Exception]]]:
    """Every fractile x method estimate of each tabulation, fractile-major:
    one list per tabulation, in order, of (p, method, outcome), the outcome
    being the ShareEstimate or the TopsharesError/ValueError that stopped
    it, read off one ``estimate_table`` of them all."""
    _check_methods(methods)
    if not stats:
        return []
    outcomes = [_outcomes(table, fractiles, method) for table, method
                in zip(estimate_table(_batch(stats), fractiles, methods), methods)]
    return [[(p, method, rows[y][j]) for j, p in enumerate(fractiles)
             for method, rows in zip(methods, outcomes)] for y in range(len(stats))]


# ---------------------------------------------------------------------------
# threshold recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdSolution:
    """Result of recovering unknown thresholds from cumulative data.

    ``thresholds`` is the full descending vector including the fixed bottom
    one. ``objective`` is the attained divergence value; ``iterations`` the
    number of Newton steps taken (0 when the start already meets the
    tolerance); ``grad_norm`` the final scaled gradient norm. ``converged``
    is False when the iteration cap was hit or when no step lowered the
    objective or the gradient; the last accepted iterate is returned either
    way.
    """

    thresholds: np.ndarray
    objective: float
    iterations: int
    grad_norm: float
    converged: bool

    def __post_init__(self):
        self.thresholds.flags.writeable = False


@_quiet
def _divergence(stats: CumulativeStats, thresholds: np.ndarray,
                ) -> tuple[float, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Objective, threshold gradient and tridiagonal Hessian at candidate
    thresholds (K,), from one rate solve.

    The objective is the minimized divergence as a function of thresholds:
    the mass-weighted sum of attained per-bracket objectives plus the mass
    entropy term. By the envelope theorem its derivative in an interior
    threshold is the density jump across that boundary, f_lo of the piece
    above minus f_hi of the piece below, so the gradient vanishes exactly
    when adjacent pieces meet continuously. An edge density moves only with
    its own piece's edges, so the Hessian is tridiagonal, returned as its
    diagonal (K-1,) and off-diagonal (K-2,). Differentiating the mean
    condition lower + w M(u) = mean (w the width, u = rate * w, M =
    _mean_frac, m = M(u), m' = M'(u)) gives, per bounded piece, df_lo/dlo =
    f_lo c and df_hi/dhi = -f_hi c with c = (1 + m(1-m)/m') / w, and
    df_lo/dhi = -df_hi/dlo = f_lo (m^2/m' - 1) / w = f_hi ((1-m)^2/m' - 1) / w;
    the unbounded top piece has f_lo = mass/(mean - lower), so df_lo/dlo =
    f_lo^2/mass. The edge densities take _density_at's overflow-safe forms.
    Raises MeanOnBoundaryError when a candidate puts a bracket mean on its
    boundary.
    """
    lower = np.asarray(thresholds, dtype=float)
    upper = np.concatenate(([math.inf], lower[:-1]))
    mass, mean = stats.bracket_fraction, stats.bracket_mean
    rate, failed = _solve_rates(lower, upper, mean)
    if failed.any():
        k = int(np.argmax(failed))
        raise _boundary_error(lower[k], upper[k], mean[k], bracket=k)
    terms = mass * (_attained_objective(lower, upper, rate, mean) + np.log(mass))
    objective = float(np.cumsum(terms)[-1])  # top bracket first, in order
    # both edge densities from one call: f_lo of every piece, f_hi of the bounded
    f = _density_at(*(np.concatenate((a, a[1:])) for a in (lower, upper, mass, rate)),
                    np.concatenate((lower, upper[1:])))
    f_lo, f_hi = f[:len(lower)], f[len(lower):]
    width = upper[1:] - lower[1:]
    u = rate[1:] * width
    m, m_prime = _mean_frac(u), _mean_frac_deriv(u)
    edge = (1.0 + m * (1.0 - m) / m_prime) / width
    lo_lo = np.concatenate(([f_lo[0] ** 2 / mass[0]], f_lo[1:] * edge))
    diag = lo_lo[:-1] + f_hi * edge  # d/dt_j of f_lo(j) - f_hi(j+1)
    # df_lo/dhi from the smaller edge density, to keep its relative precision
    far = np.maximum(m, 1.0 - m)
    off = (np.minimum(f_lo[1:], f_hi) * (far * far / m_prime - 1.0) / width)[:-1]
    return objective, f_lo[:-1] - f_hi, (diag, off)


def _newton_direction(diag: np.ndarray, off: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Newton direction -H^-1 grad for the symmetric tridiagonal H with
    diagonal ``diag`` (n,) and off-diagonal ``off`` (n-1,), from one Thomas
    sweep over Python floats, O(n); or -grad where a pivot is zero or the
    Newton direction is not a finite descent direction."""
    d, e, x = diag.tolist(), off.tolist(), (-grad).tolist()
    ratio = [0.0] * len(e)  # the sweep's e[i]/pivot[i]
    try:
        pivot = d[0]
        x[0] /= pivot
        for i in range(len(e)):
            ratio[i] = e[i] / pivot
            pivot = d[i + 1] - e[i] * ratio[i]
            x[i + 1] = (x[i + 1] - e[i] * x[i]) / pivot
    except ZeroDivisionError:
        return -grad
    for i in range(len(e) - 1, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    direction = np.array(x)
    return direction if -math.inf < np.dot(direction, grad) < 0.0 else -grad


@_quiet
def _pareto_start(stats: CumulativeStats, box_lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Where recovery starts each interior threshold, as its fraction of the
    box (box_lo, box_lo + span), from the counts N and means M above each
    threshold, which need no thresholds. Gap j's local Pareto exponent is
    the slope -dlog N / dlog M between its cumulative points; threshold k
    takes the top gap's for k = 0 and the mean of its two gaps' otherwise,
    and the local Pareto law puts it at M (a - 1) / a, which is exact on a
    Pareto tail. The fraction is clipped to [0.05, 0.95], and is the
    midpoint 0.5 where it is not finite."""
    g = -np.diff(np.log(stats.count_above)) / np.diff(np.log(stats.mean_above))
    a = np.concatenate((g[:1], 0.5 * (g[:-1] + g[1:])))
    sig = (stats.mean_above[:-1] * (a - 1.0) / a - box_lo) / span
    return np.clip(np.where(np.isfinite(sig), sig, 0.5), 0.05, 0.95)


def recover_thresholds(stats: CumulativeStats, t_bottom: float) -> ThresholdSolution:
    """Recover interior thresholds from cumulative counts and incomes.

    Holds the bottom threshold fixed and minimizes the attained divergence
    over the interior ones. Each interior threshold must separate the means
    of the brackets it divides, so the feasible set is a box per threshold;
    the search runs in logistic coordinates inside those boxes, which keeps
    the ordering feasible by construction. It starts where a local Pareto
    law through the neighbouring cumulative counts and means puts each
    threshold (``_pareto_start``), inside the middle 90% of its box; on
    income-like tabulations that is most of the way to the optimum. Newton
    steps use the closed-form gradient (density jumps) and tridiagonal
    Hessian of ``_divergence``, carried to logistic coordinates by the chain
    rule as a band (diagonal, off-diagonal) and solved by one O(K) sweep
    (``_newton_direction``, which falls back to steepest descent), with a
    backtracking line search; the objective blows up at the box edges, so
    iterates stay interior; a trial that rounds a threshold onto a mean (of
    nearly coinciding means) is rejected, and only a start that does so
    raises MeanOnBoundaryError. Each line-search trial is one ``_divergence``
    call, one rate solve, and the accepted trial's Hessian serves the next
    step, so a recovery makes 1 + (line-search trials) calls. Near the
    optimum a Newton step can cut the gradient by orders of magnitude while
    moving the objective by an ulp either way, so a step that leaves the
    objective flat at float resolution is accepted when it lowers the
    gradient. The iteration stops when the gradient meets
    ``GRAD_TOL * (1 + |objective|)``, when no step lowers the objective or
    the gradient, or after ``MAX_ITERATIONS`` Newton steps.
    """
    if stats.num_brackets < 2:
        raise InfeasibleOrderingError("need at least 2 brackets")
    y = stats.bracket_mean
    q = stats.bracket_fraction
    if np.any(~np.isfinite(y)) or np.any(q <= 0):
        raise InfeasibleOrderingError(
            "every bracket must be occupied to recover thresholds")
    if np.any(np.diff(y) >= 0):
        raise InfeasibleOrderingError(
            "bracket means must strictly increase toward the top")
    if not t_bottom < y[-1]:
        raise InfeasibleOrderingError(
            f"fixed bottom threshold {t_bottom} must sit below the bottom "
            f"bracket mean {y[-1]}")
    if not math.isfinite(t_bottom):
        raise InfeasibleOrderingError(
            f"fixed bottom threshold must be finite, got {t_bottom}")

    # Interior threshold k must lie strictly between the means it separates.
    box_lo = y[1:].astype(float)
    span = y[:-1] - box_lo

    def thresholds_of(z):
        # |z| capped so the logistic never saturates to an exact box edge,
        # which would put a bracket mean on its boundary
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
        return np.concatenate((box_lo + span * sig, [t_bottom])), sig

    def eval_at(z):
        # t = box_lo + span * sig(z): dt/dz = s, d2t/dz2 = s (1 - 2 sig)
        t, sig = thresholds_of(z)
        value, grad_t, (diag_t, off_t) = _divergence(stats, t)
        s = span * sig * (1.0 - sig)
        return value, grad_t * s, (diag_t * s * s + grad_t * s * (1.0 - 2.0 * sig),
                                   off_t * s[:-1] * s[1:])

    sig = _pareto_start(stats, box_lo, span)
    z = np.log(sig / (1.0 - sig))
    value, grad, hess = eval_at(z)

    iterations = 0
    flat = 4.0 * np.finfo(float).eps
    while iterations < MAX_ITERATIONS:
        grad_max = np.max(np.abs(grad))
        if grad_max <= GRAD_TOL * (1.0 + abs(value)):
            break

        direction = _newton_direction(*hess, grad)

        # backtracking line search: Armijo decrease, or a lower gradient
        # where the objective is flat at float resolution
        slope = float(np.dot(grad, direction))
        step = 1.0
        for _ in range(60):
            z_new = z + step * direction
            try:
                v_new, g_new, h_new = eval_at(z_new)
            except MeanOnBoundaryError:  # a threshold rounded onto a mean
                v_new = math.nan  # fails both tests below: the trial is rejected
            if (v_new <= value + 1e-4 * step * slope
                    or (abs(v_new - value) <= flat * (1.0 + abs(value))
                        and np.max(np.abs(g_new)) < grad_max)):
                z, value, grad, hess = z_new, v_new, g_new, h_new
                break
            step *= 0.5
        else:
            break  # no step lowers the objective or the gradient
        iterations += 1

    thresholds, _ = thresholds_of(z)
    grad_norm = float(np.max(np.abs(grad)))
    return ThresholdSolution(
        thresholds=thresholds,
        objective=float(value),
        iterations=iterations,
        grad_norm=grad_norm,
        converged=grad_norm <= GRAD_TOL * (1.0 + abs(value)),
    )
