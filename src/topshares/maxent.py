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
where the direct form starts losing digits to cancellation.
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
# scalar kernels
# ---------------------------------------------------------------------------

def _iexp_direct(u: float) -> float:
    return math.expm1(u) / u


def _iexp_series(u: float) -> float:
    return 1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0))


def _iexp(u: float) -> float:
    """(e^u - 1)/u, the mass integral of a unit tilt; 1 at u = 0."""
    if u == 0.0:
        return 1.0
    if abs(u) < SERIES_SWITCH:
        return _iexp_series(u)
    return _iexp_direct(u)


def _log_iexp(u: float) -> float:
    """log((e^u - 1)/u), overflow-safe for large |u|."""
    if u > 35.0:
        # e^u dominates: log((e^u-1)/u) = u + log1p(-e^-u) - log u
        return u + math.log1p(-math.exp(-u)) - math.log(u)
    if u < -35.0:
        return math.log(-math.expm1(u)) - math.log(-u)
    return math.log(_iexp(u))


def _mean_frac_direct(u: float) -> float:
    # Only called with u > 0; reflection handles the negative side.
    return 1.0 / (-math.expm1(-u)) - 1.0 / u


def _mean_frac_series(u: float) -> float:
    return 0.5 + u / 12.0 - u * u * u / 720.0


def _mean_frac(u: float) -> float:
    """Conditional mean position of the tilt e^(u*x) on x in [0, 1].

    Strictly increasing from 0 (u -> -inf) through 1/2 (u = 0) to 1
    (u -> +inf). Built on expm1 of negative arguments only, so it never
    overflows.
    """
    if abs(u) < SERIES_SWITCH:
        return _mean_frac_series(u)
    if u > 0.0:
        return _mean_frac_direct(u)
    return 1.0 - _mean_frac_direct(-u)


def _mean_frac_deriv(u: float) -> float:
    """Derivative of _mean_frac; even in u, equals 1/12 at 0."""
    w = abs(u)
    if w < 1e-2:
        return 1.0 / 12.0 - u * u / 240.0 + u ** 4 / 6048.0
    e = -math.expm1(-w)
    return 1.0 / (w * w) - math.exp(-w) / (e * e)


def _quantile_frac(u: float, frac: float, width: float) -> float:
    """Position in [0, width] below which a tilt with u = rate*width puts
    ``frac`` of its mass."""
    if u == 0.0:
        return frac * width
    if u > 50.0:
        # shifted form: e^(rate*z) = frac*e^u + (1-frac) without overflow
        return width + math.log(frac + (1.0 - frac) * math.exp(-u)) * (width / u)
    return math.log1p(frac * u * _iexp(u)) * (width / u)


# ---------------------------------------------------------------------------
# per-bracket rate solve
# ---------------------------------------------------------------------------

def solve_rate(t_lo: float, t_hi: float, y: float) -> float:
    """Exponential tilt rate whose conditional mean on [t_lo, t_hi) equals y.

    This is the unique maximizer of the bracket's concave auxiliary objective
    (see ``_divergence``). For an unbounded bracket (t_hi = inf) the
    stationary point is closed-form: -1/(y - t_lo). Bounded brackets use a
    safeguarded Newton iteration on the monotone mean condition, with the
    initial direction taken from the sign of (y - midpoint) and a geometric
    expansion to bracket the root; the bracketing interval always straddles
    the sign change. Converges to a mean residual below 1e-12 of the width.

    Raises MeanOnBoundaryError when y does not sit strictly inside the
    bracket: no tilt can match such a mean, which signals corrupt data. So
    does a mean whose position r = (y - t_lo)/width rounds to 0 or 1, or is
    so small that 1/r, the initial guess, overflows.
    """
    if math.isinf(t_hi):
        if not y > t_lo:
            raise MeanOnBoundaryError(
                f"mean {y} must sit strictly above the lower threshold {t_lo} "
                f"of the unbounded top bracket")
        return -1.0 / (y - t_lo)

    width = t_hi - t_lo
    if not (width > 0 and t_lo < y < t_hi):
        raise MeanOnBoundaryError(
            f"mean {y} must sit strictly inside the bracket [{t_lo}, {t_hi})")
    r = (y - t_lo) / width
    # strictly inside, but on the boundary at float resolution
    if not 0.0 < r < 1.0 or math.isinf(1.0 / r):
        raise MeanOnBoundaryError(
            f"mean {y} is indistinguishable from a boundary of "
            f"[{t_lo}, {t_hi}) in double precision")
    if r == 0.5:
        return 0.0

    # initial guess: series inversion in the middle, tail asymptotes outside
    if r > 0.99:
        u = 1.0 / (1.0 - r)
    elif r < 0.01:
        u = -1.0 / r
    else:
        u = 12.0 * (r - 0.5)

    h = _mean_frac(u) - r
    step = max(1.0, abs(u))
    lo = hi = u
    if h > 0.0:
        while h > 0.0:
            hi, lo = lo, lo - step
            step *= 2.0
            h = _mean_frac(lo) - r
        u, h_u = lo, h
    else:
        while h <= 0.0:
            if h == 0.0:
                return u / width
            lo, hi = hi, hi + step
            step *= 2.0
            h = _mean_frac(hi) - r
        u, h_u = hi, h

    for _ in range(200):
        if abs(h_u) <= MEAN_RESIDUAL_TOL:
            return u / width
        if h_u > 0.0:
            hi = u
        else:
            lo = u
        d = _mean_frac_deriv(u)
        u_next = u - h_u / d if d > 0.0 else math.nan
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)  # bisection safeguard
        if u_next == u:
            return u / width  # interval exhausted at float resolution
        u = u_next
        h_u = _mean_frac(u) - r
    return u / width


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
        return (z / width) * _iexp(self.rate * z) / _iexp(u)

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
        return (math.exp(self.rate * z) * (w / width)
                * _iexp(self.rate * w) / _iexp(u))

    def density_at(self, y: float) -> float:
        z = y - self.lower
        if self.unbounded:
            return self.mass * (-self.rate) * math.exp(self.rate * z)
        width = self.upper - self.lower
        u = self.rate * width
        if u > 50.0:
            return (self.mass * self.rate * math.exp(self.rate * (z - width))
                    / (-math.expm1(-u)))
        return (self.mass / width) * math.exp(self.rate * z) / _iexp(u)

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
        return (self.mass * self.tail_frac(y)
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


def build_density(stats: CumulativeStats,
                  thresholds: np.ndarray | None = None) -> MaxEntDensity:
    """Assemble the maximum-entropy density from bracket masses and means.

    ``thresholds`` defaults to the tabulated ones; threshold recovery passes
    candidate vectors instead (same length, strictly decreasing). Each
    occupied bracket's mean must sit strictly inside its bracket. Empty
    brackets become zero-mass pieces.
    """
    if thresholds is None:
        thresholds = stats.thresholds
    thresholds = np.asarray(thresholds, dtype=float).copy()
    if len(thresholds) != stats.num_brackets:
        raise ValueError(f"expected {stats.num_brackets} thresholds, got "
                         f"{len(thresholds)}")
    if np.any(np.diff(thresholds) >= 0):
        raise ValueError("thresholds must be strictly decreasing")

    pieces = []
    for k in range(stats.num_brackets):
        lower = float(thresholds[k])
        upper = math.inf if k == 0 else float(thresholds[k - 1])
        q = float(stats.bracket_fraction[k])
        y = float(stats.bracket_mean[k])
        if q <= 0.0:
            pieces.append(ExponentialPiece(lower, upper, 0.0, 0.0, math.nan))
            continue
        try:
            rate = solve_rate(lower, upper, y)
        except MeanOnBoundaryError as err:
            raise MeanOnBoundaryError(str(err), bracket=k) from None
        pieces.append(ExponentialPiece(lower, upper, q, rate, y))

    return MaxEntDensity(
        pieces=tuple(pieces),
        thresholds=thresholds,
        mass_above=stats.top_fraction.copy(),
        population=stats.population,
        total_income=stats.total_income,
    )


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


def estimate_shares(stats: CumulativeStats, fractiles: Sequence[float],
                    methods: Sequence[str] = ("PI", "ME"),
                    ) -> list[tuple[float, str, ShareEstimate | Exception]]:
    """Every fractile x method estimate of one tabulation, fractile-major.

    This is the one estimation loop behind both the historical series and
    the accuracy protocol, so PI and ME always see identical inputs. The ME
    density is built once. Each entry is (p, method, outcome), where the
    outcome is the ShareEstimate or the TopsharesError/ValueError that
    stopped it; a failed density build stops every ME entry. Methods other
    than "PI" and "ME" raise ValueError before any work is done.
    """
    _check_methods(methods)
    density: MaxEntDensity | TopsharesError | None = None
    if "ME" in methods:
        try:
            density = build_density(stats)
        except TopsharesError as err:
            density = err
    out = []
    for p in fractiles:
        for method in methods:
            try:
                if method == "PI":
                    outcome = pi_share_from_stats(stats, p)
                elif isinstance(density, TopsharesError):
                    outcome = density
                else:
                    outcome = me_share_from_density(density, p)
            except (TopsharesError, ValueError) as err:
                outcome = err
            out.append((p, method, outcome))
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
                ) -> tuple[float, np.ndarray]:
    """Objective and its threshold gradient at a candidate.

    The objective is the minimized divergence as a function of thresholds:
    the mass-weighted sum of attained per-bracket objectives plus the mass
    entropy term. By the envelope theorem its derivative in an interior
    threshold is the density jump across that boundary, so the gradient
    vanishes exactly when adjacent pieces meet continuously.
    """
    density = build_density(stats, thresholds)
    total = 0.0
    for piece in density.pieces:  # recover_thresholds rejects empty brackets
        if piece.unbounded:
            j_k = -1.0 - math.log(piece.mean - piece.lower)
        else:  # the attained maximum of the bracket's auxiliary objective
            width = piece.upper - piece.lower
            j_k = (piece.rate * (piece.mean - piece.lower) - math.log(width)
                   - _log_iexp(piece.rate * width))
        total += piece.mass * (j_k + math.log(piece.mass))

    k_interior = len(thresholds) - 1
    grad = np.empty(k_interior)
    for k in range(k_interior):
        boundary = float(thresholds[k])
        grad[k] = (density.pieces[k].density_at(boundary)
                   - density.pieces[k + 1].density_at(boundary))
    return total, grad


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
    recover it (Curtis, Powell & Reid, IMA J. Appl. Math. 1974): 6 gradient
    evaluations per step for any K. Near the optimum a Newton step can cut
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
        t = np.empty(k_total)
        t[:-1] = box_lo + (box_hi - box_lo) * sig
        t[-1] = t_bottom
        return t, sig

    def eval_at(z):
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

        # tridiagonal Hessian by 3-colour central differences of the gradient
        dim = len(z)
        hess = np.zeros((dim, dim))
        for colour in range(min(3, dim)):
            shift = np.zeros(dim); shift[colour::3] = fd_step
            _, gp = eval_at(z + shift)
            _, gm = eval_at(z - shift)
            combined = (gp - gm) / (2.0 * fd_step)
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
        objective=value,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=grad_norm <= grad_tol * (1.0 + abs(value)),
    )
