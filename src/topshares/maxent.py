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

Numerical policy: every expression containing (e^(rate*width) - 1)/rate runs
through kernels that switch to a truncated series when |rate*width| < 1e-6,
where the direct form starts losing digits to cancellation. The kernels and
the rate solve are numpy array expressions: they take a float or an array,
evaluate each branch on every element and select, with floating-point
warnings suppressed inside them, since a branch not taken may overflow or
divide by zero. One rate solve serves a whole batch of brackets (every year
of a series, every row of a recovery Hessian), and each element gets the
bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    FractileNotCoveredError,
    InfeasibleOrderingError,
    MeanOnBoundaryError,
    TopsharesError,
)
from .pareto import ShareEstimate, pi_share_from_stats
from .tabulation import CumulativeStats, Tabulation, cumulate

__all__ = [
    "ExponentialPiece",
    "MaxEntDensity",
    "ThresholdSolution",
    "solve_rate",
    "build_density",
    "estimate_share_me",
    "me_share_from_density",
    "estimate_shares",
    "recover_thresholds",
]

# Below this |rate * width| the direct closed forms lose precision to
# cancellation, so the kernels switch to truncated series.
SERIES_SWITCH = 1e-6

MEAN_RESIDUAL_TOL = 1e-12  # on the bracket mean, relative to bracket width


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------
# Each kernel takes a float or an array, evaluates every branch on every
# element and then selects. A branch not taken may overflow or divide by
# zero, so the kernels run with floating-point warnings suppressed; the
# _direct and _series helpers are their branches.
_quiet = np.errstate(all="ignore")


def _iexp_direct(u):
    return np.expm1(u) / u


def _iexp_series(u):
    return 1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0))


@_quiet
def _iexp(u):
    """(e^u - 1)/u, the mass integral of a unit tilt; 1 at u = 0."""
    return np.where(np.abs(u) < SERIES_SWITCH, _iexp_series(u), _iexp_direct(u))


@_quiet
def _log_iexp(u):
    """log((e^u - 1)/u), overflow-safe for large |u|."""
    # e^u dominates: log((e^u-1)/u) = u + log1p(-e^-u) - log u
    high = u + np.log1p(-np.exp(-u)) - np.log(u)
    low = np.log(-np.expm1(u)) - np.log(-u)
    return np.where(u > 35.0, high, np.where(u < -35.0, low, np.log(_iexp(u))))


def _mean_frac_direct(u):
    # Only meaningful for u > 0; reflection handles the negative side.
    return 1.0 / (-np.expm1(-u)) - 1.0 / u


def _mean_frac_series(u):
    return 0.5 + u / 12.0 - u * u * u / 720.0


@_quiet
def _mean_frac(u):
    """Conditional mean position of the tilt e^(u*x) on x in [0, 1].

    Strictly increasing from 0 (u -> -inf) through 1/2 (u = 0) to 1
    (u -> +inf). Built on expm1 of negative arguments only, so it never
    overflows.
    """
    w = np.abs(u)
    direct = _mean_frac_direct(w)
    return np.where(w < SERIES_SWITCH, _mean_frac_series(u),
                    np.where(u > 0.0, direct, 1.0 - direct))


@_quiet
def _mean_frac_deriv(u):
    """Derivative of _mean_frac; even in u, equals 1/12 at 0."""
    w = np.abs(u)
    e = -np.expm1(-w)
    u2 = u * u
    return np.where(w < 1e-2, 1.0 / 12.0 - u2 / 240.0 + u2 * u2 / 6048.0,
                    1.0 / u2 - np.exp(-w) / (e * e))


def _quantile_frac(u: float, frac: float, width: float) -> float:
    """Position in [0, width] below which a tilt with u = rate*width puts
    ``frac`` of its mass."""
    if u == 0.0:
        return frac * width
    if u > 50.0:
        # shifted form: e^(rate*z) = frac*e^u + (1-frac) without overflow
        return width + math.log(frac + (1.0 - frac) * math.exp(-u)) * (width / u)
    return math.log1p(frac * u * float(_iexp(u))) * (width / u)


@_quiet
def _density_at(lower, upper, mass, rate, y):
    """Density of the piece [lower, upper) with ``mass`` and ``rate`` at y,
    elementwise: the formula behind ExponentialPiece.density_at and the
    density jumps of the recovery gradient."""
    z = y - lower
    width = upper - lower
    u = rate * width
    unbounded = mass * (-rate) * np.exp(rate * z)
    steep = mass * rate * np.exp(rate * (z - width)) / (-np.expm1(-u))
    tilted = (mass / width) * np.exp(rate * z) / _iexp(u)
    return np.where(np.isinf(upper), unbounded, np.where(u > 50.0, steep, tilted))


@_quiet
def _attained_objective(lower, upper, rate, mean):
    """Maximum of each bracket's auxiliary objective, attained at ``rate``,
    elementwise."""
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
    initial guess, overflows; the other elements are solved as usual. An
    unbounded bracket (upper = inf) has the closed form -1/(mean - lower).

    Each bounded element runs the same safeguarded Newton iteration on the
    monotone mean condition: an initial guess from series inversion in the
    middle and the tail asymptotes outside, a geometric expansion from it
    until [lo, hi] straddles the root, then Newton steps that fall back to
    bisection when they leave that interval. It stops at a mean residual
    below MEAN_RESIDUAL_TOL of the width, when a step no longer moves the
    iterate, or after 200 steps. Every element sees exactly the operations
    it would see alone, so batching never changes a rate.
    """
    lower, upper, mean = np.broadcast_arrays(lower, upper, mean)
    shape = lower.shape
    lower, upper, mean = (np.ravel(a).astype(float) for a in (lower, upper, mean))
    unbounded = np.isinf(upper)
    width = upper - lower
    r = (mean - lower) / width
    # strictly inside, and off the boundary at float resolution
    inside = np.where(unbounded, mean > lower,
                      (width > 0.0) & (lower < mean) & (mean < upper)
                      & (0.0 < r) & (r < 1.0) & ~np.isinf(1.0 / r))
    rate = np.where(unbounded, -1.0 / (mean - lower), 0.0)
    rate[~inside] = np.nan

    todo = np.flatnonzero(inside & ~unbounded & (r != 0.5))
    r = r[todo]
    u = np.where(r > 0.99, 1.0 / (1.0 - r),
                 np.where(r < 0.01, -1.0 / r, 12.0 * (r - 0.5)))
    h = _mean_frac(u) - r
    step = np.maximum(1.0, np.abs(u))
    lo, hi = u.copy(), u.copy()

    # expand down while the mean is too high, up while it is too low; an
    # upward expansion that lands exactly on the root stops there
    down = h > 0.0
    go = np.flatnonzero(down | (h < 0.0))
    while go.size:
        d = down[go]
        edge = np.where(d, lo[go], hi[go])
        u_go = np.where(d, edge - step[go], edge + step[go])
        lo[go] = np.where(d, u_go, edge)
        hi[go] = np.where(d, edge, u_go)
        step[go] *= 2.0
        h_go = _mean_frac(u_go) - r[go]
        h[go] = h_go
        go = go[np.where(d, h_go > 0.0, h_go < 0.0)]
    u = np.where(down, lo, hi)  # the last point evaluated

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
        u_next = np.where(d > 0.0, u_l - h_l / d, np.nan)
        u_next = np.where((lo_l < u_next) & (u_next < hi_l), u_next,
                          0.5 * (lo_l + hi_l))  # bisection safeguard
        moved = u_next != u_l  # else the interval is exhausted
        if not moved.all():
            live, u_next, lo_l, hi_l, r_l = (
                a[moved] for a in (live, u_next, lo_l, hi_l, r_l))
            if not live.size:
                break
        u_l = u_next
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
    (see ``_divergence``), solved as a one-element ``_solve_rates`` call. For
    an unbounded bracket (t_hi = inf) the stationary point is closed-form:
    -1/(y - t_lo). A bounded bracket converges to a mean residual below
    1e-12 of the width.

    Raises MeanOnBoundaryError when y does not sit strictly inside the
    bracket: no tilt can match such a mean, which signals corrupt data. So
    does a mean whose position r = (y - t_lo)/width rounds to 0 or 1, or is
    so small that 1/r, the initial guess, overflows.
    """
    rate, failed = _solve_rates(t_lo, t_hi, y)
    if failed:
        raise _boundary_error(t_lo, t_hi, y)
    return float(rate)


# ---------------------------------------------------------------------------
# pieces and the assembled density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialPiece:
    """One exponentially tilted piece on [lower, upper); upper may be inf.

    ``mass`` is the probability carried by the piece, ``mean`` its target
    conditional mean (NaN for an empty piece). Density within the piece is
    proportional to exp(rate * y); rate 0 means uniform.
    """

    lower: float
    upper: float
    mass: float
    rate: float
    mean: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.upper)

    def cdf_frac(self, y: float) -> float:
        """Fraction of the piece's mass at or below y (y inside the piece)."""
        z = y - self.lower
        if self.unbounded:
            return -math.expm1(self.rate * z)
        width = self.upper - self.lower
        u = self.rate * width
        if u > 50.0:
            return (math.exp(self.rate * (z - width))
                    * math.expm1(-self.rate * z) / math.expm1(-u))
        return float((z / width) * _iexp(self.rate * z) / _iexp(u))

    def quantile_upper(self, frac_above: float) -> float:
        """Income level with ``frac_above`` of the piece's mass above it."""
        if self.unbounded:
            return self.lower + math.log(frac_above) / self.rate
        width = self.upper - self.lower
        # mirror: the upper tail of the tilt is the lower tail at -rate
        return self.upper - _quantile_frac(-self.rate * width, frac_above, width)

    def tail_frac(self, y: float) -> float:
        """Fraction of the piece's mass at or above y, in a product form
        that keeps full relative precision even for tiny tails."""
        z = y - self.lower
        if self.unbounded:
            return math.exp(self.rate * z)
        width = self.upper - self.lower
        u = self.rate * width
        w = width - z
        if u > 50.0:
            return math.expm1(-self.rate * w) / math.expm1(-u)
        return float(math.exp(self.rate * z) * (w / width)
                     * _iexp(self.rate * w) / _iexp(u))

    def density_at(self, y: float) -> float:
        return float(_density_at(self.lower, self.upper, self.mass, self.rate, y))

    def partial_expectation_above(self, y: float) -> float:
        """Integral of x times the piece density over [y, upper)."""
        if y <= self.lower:
            return self.mass * self.mean if self.mass > 0.0 else 0.0
        z = y - self.lower
        if self.unbounded:
            # memoryless tail: conditional mean above y is y - 1/rate
            return self.mass * math.exp(self.rate * z) * (y - 1.0 / self.rate)
        if y >= self.upper:
            return 0.0
        w = self.upper - y
        return float(self.mass * self.tail_frac(y)
                     * (y + w * _mean_frac(self.rate * w)))


@dataclass(frozen=True)
class MaxEntDensity:
    """Piecewise-exponential maximum-entropy density over [t_K, inf).

    Pieces are ordered from the top bracket down, aligned with the
    descending-threshold bracket order. Total mass is the covered fraction
    of the population (filers); population and the income denominator ride
    along for share computations.
    """

    pieces: tuple[ExponentialPiece, ...]
    thresholds: np.ndarray
    mass_above: np.ndarray  # mass at or above each threshold, top-down
    population: int
    total_income: float

    def __post_init__(self):
        self.thresholds.flags.writeable = False
        self.mass_above.flags.writeable = False

    @property
    def covered_fraction(self) -> float:
        return float(self.mass_above[-1])

    @property
    def total_mass(self) -> float:
        return math.fsum(p.mass for p in self.pieces)

    @property
    def support_bottom(self) -> float:
        return float(self.thresholds[-1])

    def _piece_index(self, y: float) -> int:
        """Index of the piece whose support contains y (y >= bottom)."""
        return min(int(np.searchsorted(-self.thresholds, -y)),
                   len(self.pieces) - 1)

    def pdf(self, y: float) -> float:
        if y < self.support_bottom:
            return 0.0
        return self.pieces[self._piece_index(y)].density_at(y)

    def cdf(self, y: float) -> float:
        """Probability mass between the bottom threshold and y."""
        if y < self.support_bottom:
            raise ValueError(f"{y} lies below the support bottom "
                             f"{self.support_bottom}")
        k = self._piece_index(y)
        piece = self.pieces[k]
        below_in_piece = piece.mass * piece.cdf_frac(y) if piece.mass > 0 else 0.0
        return self.covered_fraction - float(self.mass_above[k]) + below_in_piece

    def quantile_top(self, p: float) -> float:
        """Income level with upper-tail mass exactly p above it.

        Exact at tabulated fractions: quantile_top(p_k) is the k-th
        threshold. Fractions above the covered mass are not served; p below
        the top bracket's mass is served by the unbounded top piece.
        """
        if not p > 0.0:
            raise ValueError(f"fractile must be positive, got {p}")
        covered = self.covered_fraction
        if p > covered:
            raise FractileNotCoveredError(p, covered)
        k = int(np.searchsorted(self.mass_above, p, side="left"))
        if p == self.mass_above[k]:
            return float(self.thresholds[k])
        above_higher = float(self.mass_above[k - 1]) if k > 0 else 0.0
        piece = self.pieces[k]
        frac_above = (p - above_higher) / piece.mass
        return piece.quantile_upper(frac_above)

    def partial_expectation_above(self, y: float) -> float:
        """Integral of x times the density over [y, inf)."""
        k = self._piece_index(y)
        whole = math.fsum(p.mass * p.mean for p in self.pieces[:k] if p.mass > 0)
        return whole + self.pieces[k].partial_expectation_above(y)


def _densities(stats: Sequence[CumulativeStats],
               thresholds: Sequence[np.ndarray],
               ) -> list[MaxEntDensity | MeanOnBoundaryError]:
    """The maximum-entropy density of each tabulation at its thresholds,
    from one rate solve over the occupied brackets of all of them. A
    tabulation with a bracket mean on its boundary gets that bracket's
    MeanOnBoundaryError in place of a density; the others are unaffected.
    Empty brackets become zero-mass pieces."""
    if not stats:
        return []
    sizes = [len(t) for t in thresholds]
    starts = np.cumsum([0] + sizes[:-1])
    lower = np.concatenate(thresholds).astype(float)
    upper = np.empty_like(lower)
    upper[1:] = lower[:-1]
    upper[starts] = math.inf
    mass = np.concatenate([s.bracket_fraction for s in stats])
    mean = np.concatenate([s.bracket_mean for s in stats])
    occupied = mass > 0.0
    rate = np.zeros(len(lower))
    failed = np.zeros(len(lower), dtype=bool)
    rate[occupied], failed[occupied] = _solve_rates(
        lower[occupied], upper[occupied], mean[occupied])

    columns = [a.tolist() for a in (lower, upper, np.where(occupied, mass, 0.0),
                                    rate, np.where(occupied, mean, math.nan))]
    out: list[MaxEntDensity | MeanOnBoundaryError] = []
    for s, start, size in zip(stats, starts.tolist(), sizes):
        stop = start + size
        bad = np.flatnonzero(failed[start:stop])
        if bad.size:
            i = start + int(bad[0])
            out.append(_boundary_error(lower[i], upper[i], mean[i],
                                       bracket=int(bad[0])))
            continue
        out.append(MaxEntDensity(
            pieces=tuple(map(ExponentialPiece,
                             *(c[start:stop] for c in columns))),
            thresholds=lower[start:stop].copy(),
            mass_above=s.top_fraction.copy(),
            population=s.population,
            total_income=s.total_income,
        ))
    return out


def build_density(stats: CumulativeStats,
                  thresholds: np.ndarray | None = None) -> MaxEntDensity:
    """Assemble the maximum-entropy density from bracket masses and means.

    ``thresholds`` defaults to the tabulated ones; a caller may pass
    candidate vectors instead (same length, strictly decreasing). Each
    occupied bracket's mean must sit strictly inside its bracket. Empty
    brackets become zero-mass pieces.
    """
    if thresholds is None:
        thresholds = stats.thresholds
    thresholds = np.asarray(thresholds, dtype=float)
    if len(thresholds) != stats.num_brackets:
        raise ValueError(f"expected {stats.num_brackets} thresholds, got "
                         f"{len(thresholds)}")
    if np.any(np.diff(thresholds) >= 0):
        raise ValueError("thresholds must be strictly decreasing")
    [density] = _densities([stats], [thresholds])
    if isinstance(density, MeanOnBoundaryError):
        raise density
    return density


def me_share_from_density(density: MaxEntDensity, p: float) -> ShareEstimate:
    """Top-p share read off an already-built maximum-entropy density."""
    t_p = density.quantile_top(p)
    s_p = density.population * density.partial_expectation_above(t_p)
    return ShareEstimate(
        fractile=p,
        threshold=t_p,
        top_income=s_p,
        share=s_p / density.total_income,
        method="ME",
        bracket=None,
        extrapolated=p < float(density.mass_above[0]),
    )


def estimate_share_me(tab: Tabulation, p: float) -> ShareEstimate:
    """Estimate the top p income share of a tabulation by maximum entropy."""
    return me_share_from_density(build_density(cumulate(tab)), p)


def _check_methods(methods: Sequence[str]) -> None:
    for method in methods:
        if method not in ("PI", "ME"):
            raise ValueError(f"unknown method {method!r}: expected PI or ME")


def estimate_shares(stats: Sequence[CumulativeStats], fractiles: Sequence[float],
                    methods: Sequence[str] = ("PI", "ME"),
                    ) -> list[list[tuple[float, str, ShareEstimate | Exception]]]:
    """Every fractile x method estimate of each tabulation, fractile-major.

    This is the one estimation loop behind both the historical series and
    the accuracy protocol, so PI and ME always see identical inputs. The ME
    densities of all tabulations come from one rate solve. The result holds
    one list per tabulation, in order, of (p, method, outcome), where the
    outcome is the ShareEstimate or the TopsharesError/ValueError that
    stopped it; a failed density build stops every ME entry of its
    tabulation and no other. Methods other than "PI" and "ME" raise
    ValueError before any work is done.
    """
    _check_methods(methods)
    densities: list[MaxEntDensity | TopsharesError | None] = [None] * len(stats)
    if "ME" in methods:
        densities = _densities(stats, [s.thresholds for s in stats])
    out = []
    for one, density in zip(stats, densities):
        outcomes = []
        for p in fractiles:
            for method in methods:
                try:
                    if method == "PI":
                        outcome = pi_share_from_stats(one, p)
                    elif isinstance(density, TopsharesError):
                        outcome = density
                    else:
                        outcome = me_share_from_density(density, p)
                except (TopsharesError, ValueError) as err:
                    outcome = err
                outcomes.append((p, method, outcome))
        out.append(outcomes)
    return out


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


def _divergence(stats: CumulativeStats, thresholds: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Objectives and threshold gradients at a stack of candidates.

    The objective is the minimized divergence as a function of thresholds:
    the mass-weighted sum of attained per-bracket objectives plus the mass
    entropy term. By the envelope theorem its derivative in an interior
    threshold is the density jump across that boundary, so the gradient
    vanishes exactly when adjacent pieces meet continuously. For (m, K)
    candidate rows it returns the m objectives and the (m, K-1) gradients,
    from one rate solve over all rows; each row equals a one-row call bit
    for bit, and a single (K,) candidate gives a scalar and a (K-1,)
    gradient. Raises MeanOnBoundaryError when a candidate puts a bracket
    mean on its boundary.
    """
    lower = np.asarray(thresholds, dtype=float)
    upper = np.concatenate((np.full(lower.shape[:-1] + (1,), math.inf),
                            lower[..., :-1]), axis=-1)
    mass, mean = stats.bracket_fraction, stats.bracket_mean
    rate, failed = _solve_rates(lower, upper, mean)
    if failed.any():
        at = tuple(np.argwhere(failed)[0])
        raise _boundary_error(lower[at], upper[at], mean[at[-1]],
                              bracket=int(at[-1]))
    terms = mass * (_attained_objective(lower, upper, rate, mean) + np.log(mass))
    objective = np.cumsum(terms, axis=-1)[..., -1]  # top bracket first, in order
    boundary = lower[..., :-1]
    grad = (_density_at(boundary, upper[..., :-1], mass[:-1], rate[..., :-1], boundary)
            - _density_at(lower[..., 1:], boundary, mass[1:], rate[..., 1:], boundary))
    return objective, grad


def recover_thresholds(stats: CumulativeStats, t_bottom: float,
                       max_iterations: int = 500,
                       grad_tol: float = 1e-10) -> ThresholdSolution:
    """Recover interior thresholds from cumulative counts and incomes.

    Holds the bottom threshold fixed and minimizes the attained divergence
    over the interior ones. Each interior threshold must separate the means
    of the brackets it divides, so the feasible set is a box per threshold;
    the search runs in logistic coordinates inside those boxes, which keeps
    the ordering feasible by construction. Second-order steps use the
    analytic gradient (density jumps) with a finite-difference Hessian and a
    backtracking line search; the objective blows up at the box edges, so
    iterates stay interior. Gradient k depends only on thresholds k-1, k and
    k+1, so the Hessian is tridiagonal and three perturbation colours
    recover it (Curtis, Powell & Reid, IMA J. Appl. Math. 1974). Each step
    makes one ``_divergence`` call on the 2 * min(3, K-1) perturbed rows
    (6 for K >= 4), so the rate solves of the whole Hessian share one
    batch; line-search trials are single rows. Near the optimum a Newton step can cut
    the gradient by orders of magnitude while moving the objective by an
    ulp either way, so a step that leaves the objective flat at float
    resolution is accepted when it lowers the gradient. The iteration stops
    when the gradient meets ``grad_tol * (1 + |objective|)``, when no step
    lowers the objective or the gradient, or after ``max_iterations`` Newton
    steps.
    """
    k_total = stats.num_brackets
    if k_total < 2:
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

    # Interior threshold k must lie strictly between the means it separates.
    box_lo = y[1:].astype(float)
    box_hi = y[:-1].astype(float)

    def thresholds_of(z):
        # |z| capped so the logistic never saturates to an exact box edge,
        # which would put a bracket mean on its boundary
        z = np.clip(z, -30.0, 30.0)
        sig = 1.0 / (1.0 + np.exp(-z))
        t = np.empty(z.shape[:-1] + (k_total,))
        t[..., :-1] = box_lo + (box_hi - box_lo) * sig
        t[..., -1] = t_bottom
        return t, sig

    def eval_at(z):
        # at one point (K-1,) or a stack of points (m, K-1)
        t, sig = thresholds_of(z)
        value, grad_t = _divergence(stats, t)
        grad_z = grad_t * (box_hi - box_lo) * sig * (1.0 - sig)
        return value, grad_z

    z = np.zeros(k_total - 1)  # box midpoints
    value, grad = eval_at(z)

    iterations = 0
    fd_step = 1e-5
    flat = 4.0 * np.finfo(float).eps
    while iterations < max_iterations:
        grad_max = np.max(np.abs(grad))
        if grad_max <= grad_tol * (1.0 + abs(value)):
            break

        # tridiagonal Hessian by 3-colour central differences of the
        # gradient, all 2 * colours rows in one evaluation
        dim = len(z)
        colours = min(3, dim)
        shifts = np.zeros((colours, dim))
        for colour in range(colours):
            shifts[colour, colour::3] = fd_step
        _, g = eval_at(np.concatenate((z + shifts, z - shifts)))
        hess = np.zeros((dim, dim))
        for colour in range(colours):
            combined = (g[colour] - g[colours + colour]) / (2.0 * fd_step)
            for j in range(colour, dim, 3):
                band = slice(max(j - 1, 0), j + 2)
                hess[band, j] = combined[band]
        hess = 0.5 * (hess + hess.T)

        direction = None
        try:
            candidate = np.linalg.solve(hess, -grad)
            if np.dot(candidate, grad) < 0:  # descent check
                direction = candidate
        except np.linalg.LinAlgError:
            pass
        if direction is None:
            direction = -grad

        # backtracking line search: Armijo decrease, or a lower gradient
        # where the objective is flat at float resolution
        slope = float(np.dot(grad, direction))
        step = 1.0
        for _ in range(60):
            z_new = z + step * direction
            v_new, g_new = eval_at(z_new)
            if (v_new <= value + 1e-4 * step * slope
                    or (abs(v_new - value) <= flat * (1.0 + abs(value))
                        and np.max(np.abs(g_new)) < grad_max)):
                z, value, grad = z_new, v_new, g_new
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
        converged=grad_norm <= grad_tol * (1.0 + abs(value)),
    )
