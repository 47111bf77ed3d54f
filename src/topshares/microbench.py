"""Micro-sample ground truth and the estimator accuracy protocol.

A micro sample plays the role of the unit-record files that exist after 1965:
top shares computed directly from it are the oracle. The harness tabulates
the sample into a chosen number of income classes, runs both estimators on
the tabulation, and scores them against the oracle, trial by trial.

Sampling is by inversion throughout: a PCG64 stream of uniforms (keyed by
the seed) mapped through explicit quantile functions, so identical seeds
reproduce identical samples on any platform.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import maxent
from .errors import ParseError
from .tabulation import _MICRO, IncomeBracket, Tabulation, _read, cumulate

__all__ = [
    "MicroSample",
    "ParetoDist",
    "LognormalDist",
    "MixtureDist",
    "dist_from_dict",
    "BenchmarkSpec",
    "ErrorCell",
    "ErrorSummary",
    "ErrorReport",
    "oracle_share",
    "tabulate",
    "quantile_thresholds",
    "generate",
    "evaluate_sample",
    "run_protocol",
    "load_micro_csv",
]


def _frozen(array: np.ndarray, source) -> np.ndarray:
    """``array``, which ``np.asarray`` made from ``source``, made read-only
    where no caller can write to it: copied when it is ``source`` itself or a
    view of writeable memory, kept when fresh or already read-only."""
    if array.flags.writeable and (array is source or not array.flags.owndata):
        array = array.copy()
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class MicroSample:
    """Individual incomes with integer replication weights.

    ``population`` counts every tax unit including non-filers; non-filers
    carry zero income and rank below every filer. ``total_income`` defaults
    to the weighted sum of incomes but can be overridden with an external
    denominator. Both arrays are held read-only; a writeable array passed in
    is copied, so the caller's stays writeable. The unit weights of
    ``from_incomes`` are a read-only view of one 1 with stride 0, which
    holds no memory.
    """

    incomes: np.ndarray
    weights: np.ndarray
    nonfiler_count: int = 0
    total_income_override: float | None = None

    def __post_init__(self):
        incomes = _frozen(np.asarray(self.incomes, dtype=float), self.incomes)
        object.__setattr__(self, "incomes", incomes)
        weights = np.asarray(self.weights)
        if weights.dtype.kind not in "iu":
            # checked before the cast, which warns on values it wraps
            if not np.all((weights > 0) & (weights == np.trunc(weights))):
                raise ValueError("weights must be positive integers")
            # beyond it, floats no longer tell integers apart
            if np.any(weights > 2**53):
                raise ValueError("float weights must not exceed 2**53")
        weights = _frozen(weights.astype(np.int64, copy=False), self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(incomes):
            raise ValueError("incomes and weights must have equal length")
        if len(incomes) == 0:
            raise ValueError("empty sample")
        if np.any(~np.isfinite(incomes)) or np.any(incomes < 0):
            raise ValueError("incomes must be finite and nonnegative")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive integers")
        if weights.sum(dtype=float) > 2.0**62:  # a float sum cannot wrap
            total = sum(weights.tolist())
            if total > 2**63 - 1:
                raise ValueError(f"weights sum to {total}, more than 2**63 - 1")
        if self.nonfiler_count < 0:
            raise ValueError("nonfiler_count must be nonnegative")

    @classmethod
    def from_incomes(cls, incomes, nonfiler_count: int = 0,
                     total_income: float | None = None) -> "MicroSample":
        """A sample of unit weights: a read-only view of one int64 1 with
        stride 0, so the weights take no memory but read as n ones."""
        incomes = _frozen(np.asarray(incomes, dtype=float), incomes)
        ones = np.broadcast_to(np.int64(1), len(incomes))
        return cls(incomes, ones, nonfiler_count, total_income)

    # the arrays are read-only, so each total is computed once
    @cached_property
    def filer_count(self) -> int:
        return int(self.weights.sum())

    @property
    def population(self) -> int:
        return self.filer_count + self.nonfiler_count

    @cached_property
    def total_income(self) -> float:
        if self.total_income_override is not None:
            return float(self.total_income_override)
        with np.errstate(over="ignore"):  # oracle_share reports an inf total
            return float(np.dot(self.incomes, self.weights))

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
                               np.ndarray]:
        """The one sort of the sample, highest income first: incomes, weights,
        the exact weight total of the rows above each rank (0 first, the filer
        count last; None for unit weights, whose totals are the ranks, see
        ``_rank_reaching``) and the weighted income of the i lowest rows at
        index i, summed bottom-up (0.0 first). Read-only."""
        n = len(self.incomes)
        below = np.zeros(n + 1)
        if self.filer_count == n:
            # weights are at least 1, so every one is 1: tied incomes are
            # equal floats, sorting the values alone gives the same arrays,
            # and x * 1 is exact
            ascending = np.sort(self.incomes)
            incomes, weights, above = ascending[::-1], self.weights, None
            np.cumsum(ascending, out=below[1:])
        else:
            order = np.argsort(self.incomes)[::-1]
            incomes, weights = self.incomes[order], self.weights[order]
            del order
            above = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(weights, out=above[1:])
            # the products and their running sum in place, no temporary
            np.multiply(incomes[::-1], weights[::-1], out=below[1:])
            np.cumsum(below[1:], out=below[1:])
        ranked = (incomes, weights, above, below)
        for array in ranked:
            if array is not None:
                array.flags.writeable = False
        return ranked


def _rank_reaching(sample: MicroSample, totals):
    """The first rank of the sample whose weight total reaches each of the
    integer ``totals``, searched exactly (uncast); one past the last rank
    where a total exceeds the filer count. A unit sample stores no totals:
    each is its rank."""
    above = sample._ranked[2]
    if above is None:
        return np.minimum(totals, len(sample.incomes) + 1)
    return np.searchsorted(above, totals, side="left")


def _total_above(sample: MicroSample, ranks):
    """The exact weight total of the rows above each of ``ranks``: the
    totals that ``_rank_reaching`` searches."""
    above = sample._ranked[2]
    return ranks if above is None else above[ranks]


def oracle_share(sample: MicroSample, p: float) -> float:
    """Top-p income share computed directly from the sample.

    Units are ranked by income, non-filers last with zero income. The top
    p * population units' income is summed; the unit straddling the cut
    contributes pro-rata, which makes the share continuous in p and
    independent of tie order at the cut.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"fractile must be in (0, 1], got {p}")
    target = p * sample.population
    if target < 1.0:
        raise ValueError(
            f"top fractile {p} covers fewer than one of {sample.population} units")
    if not 0.0 < sample.total_income < math.inf:
        raise ValueError(f"total income {sample.total_income} must be positive and finite")

    incomes, weights, _, _ = sample._ranked
    # the row straddling the cut, the first whose running total reaches it,
    # i.e. ceil(target)
    boundary = int(_rank_reaching(sample, math.ceil(target))) - 1
    if boundary >= len(incomes):
        top_sum = float(np.dot(incomes, weights))  # cut falls among non-filers
    else:
        top_sum = float(np.dot(incomes[:boundary], weights[:boundary]))
        top_sum += ((target - float(_total_above(sample, boundary)))
                    * float(incomes[boundary]))
    return top_sum / sample.total_income


def tabulate(sample: MicroSample, thresholds: Sequence[float]) -> Tabulation:
    """Bin a sample into brackets at the given descending thresholds.

    Incomes below the lowest threshold stay out of the brackets but remain
    in the population and income denominators, like non-filers. Empty
    brackets are retained.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) >= 0):
        raise ValueError("thresholds must be strictly decreasing")

    incomes, _, _, below = sample._ranked
    n = len(incomes)
    # rows ranked at or above each threshold; per bracket, the count from the
    # exact weight totals, the income from the bottom-up prefix sum
    ranks = np.concatenate(([0], n - np.searchsorted(incomes[::-1], thresholds)))
    sums = below[n - ranks[:-1]] - below[n - ranks[1:]]
    return Tabulation(
        year=0,
        brackets=tuple(IncomeBracket(float(t), int(c), float(s)) for t, c, s
                       in zip(thresholds, np.diff(_total_above(sample, ranks)),
                              sums)),
        population=sample.population,
        total_income=sample.total_income,
        income_unit=1.0,
    )


def _check_ladder(classes: int, top_fraction: float, scheme: str) -> None:
    """Raise ValueError unless ``quantile_thresholds`` can lay ``classes``
    brackets by ``scheme``; a BenchmarkSpec checks its ladders by it too."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if scheme not in ("geometric", "equal_mass"):
        raise ValueError(f"unknown threshold scheme {scheme!r}")
    if scheme == "geometric" and not 0.0 < top_fraction < 1.0:
        raise ValueError(f"top_fraction must lie strictly between 0 and 1, "
                         f"got {top_fraction}")


def quantile_thresholds(sample: MicroSample, classes: int,
                        top_fraction: float = 1e-3,
                        scheme: str = "geometric") -> np.ndarray:
    """Descending bracket thresholds at sample quantiles.

    "geometric" spaces the targeted top fractions geometrically between
    ``top_fraction`` and full coverage, mimicking the dollar-ladder grids of
    historical tables; "equal_mass" spaces them evenly. The bottom threshold
    is the sample minimum, so the tabulation covers every filer. The top
    bracket keeps at least two units so its mean sits strictly above its
    threshold. Duplicate thresholds from tied order statistics collapse.
    """
    _check_ladder(classes, top_fraction, scheme)
    fractions = (top_fraction ** (np.arange(classes - 1, -1, -1) / (classes - 1))
                 if scheme == "geometric" else np.arange(1, classes + 1) / classes)

    # integer totals, clipped exactly, for the exact search oracle_share makes
    totals = [min(max(int(r), 2), sample.filer_count)
              for r in np.round(fractions * sample.population)]
    incomes = sample._ranked[0]
    rows = _rank_reaching(sample, totals) - 1
    # + 0.0 turns -0.0 into 0.0, so the ladder does not depend on which of
    # two tied zeros the sort put last
    return np.unique(incomes[rows])[::-1] + 0.0


# ---------------------------------------------------------------------------
# synthetic distributions (inversion sampling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoDist:
    """Pareto law on [scale, inf): P(X > x) = (x/scale)^-exponent."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        if self.exponent <= 0 or self.scale <= 0:
            raise ValueError("exponent and scale must be positive")
        if self.exponent <= 1:
            warnings.warn(
                f"Pareto exponent {self.exponent} <= 1 has an infinite mean; "
                "share denominators will not stabilize", stacklevel=2)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        # survival inversion: u in [0,1) maps to (1-u)^(-1/a), finite for all u
        return self.scale * (1.0 - u) ** (-1.0 / self.exponent)

    @property
    def mean(self) -> float:
        if self.exponent <= 1:
            return math.inf
        return self.scale * self.exponent / (self.exponent - 1.0)

    def top_share(self, p: float) -> float:
        """Closed-form population top-p income share: p^((a-1)/a)."""
        return p ** ((self.exponent - 1.0) / self.exponent)

    def to_dict(self) -> dict:
        return {"kind": "pareto", "exponent": self.exponent, "scale": self.scale}


# Wichura's Algorithm AS241 (PPND16), Applied Statistics 37 (1988) 477-484:
# (numerator, denominator) coefficients, highest degree first, of the
# rational approximations on the central region |u - 0.5| <= 0.425 and on
# the tails r = sqrt(-log(min(u, 1 - u))) <= 5 and r > 5.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
     6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
     1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
     3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
     5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0))
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
     2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
     3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
     1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
     6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0))
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
     1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
     2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
     1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
     1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0))


def _rational(coeffs, x: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * num(x) / den(x), the polynomials by Horner's rule."""
    num, den = (np.full_like(x, c[0]) for c in coeffs)
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num *= x
        num += a
        den *= x
        den += b
    num *= scale
    num /= den
    return num


def _ndtri(u) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise (AS241, relative
    error about 1e-16). 0 and 1 map to -inf and +inf; NaN and values
    outside [0, 1] map to NaN."""
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    qc = np.where(central, q, 0.0)  # keeps the fit finite off the centre
    out = _rational(_AS241_CENTRAL, 0.180625 - qc * qc, qc)

    # the tails, the edge values and invalid input
    tail = np.flatnonzero(~central)
    ut = u.reshape(-1)[tail]
    xt = np.where(ut == 0.0, -np.inf, np.where(ut == 1.0, np.inf, np.nan))
    inner = np.flatnonzero((ut > 0.0) & (ut < 1.0))
    ui = ut[inner]
    lower = ui < 0.5
    r = np.sqrt(-np.log(np.where(lower, ui, 1.0 - ui)))
    x = _rational(_AS241_NEAR, r - 1.6)
    far = r > 5.0
    x[far] = _rational(_AS241_FAR, r[far] - 5.0)
    xt[inner] = np.where(lower, -x, x)
    out.reshape(-1)[tail] = xt
    return out


@dataclass(frozen=True)
class LognormalDist:
    """Lognormal law: log X is normal(location, shape^2)."""

    location: float = 0.0
    shape: float = 1.0

    def __post_init__(self):
        if self.shape <= 0:
            raise ValueError("shape must be positive")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.location + self.shape * _ndtri(u))

    @property
    def mean(self) -> float:
        return math.exp(self.location + 0.5 * self.shape ** 2)

    @property
    def variance(self) -> float:
        s2 = self.shape ** 2
        return (math.exp(s2) - 1.0) * math.exp(2 * self.location + s2)

    def to_dict(self) -> dict:
        return {"kind": "lognormal", "location": self.location, "shape": self.shape}


@dataclass(frozen=True)
class MixtureDist:
    """Finite mixture of the above, weights summing to one."""

    weights: tuple[float, ...]
    components: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("weights and components must match and be nonempty")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")

    def draw(self, u_component: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        # the component's index is the number of cuts at or below u, the
        # last cut (the weights' total, about 1) left out
        which = np.zeros(u_component.shape, dtype=np.intp)
        for cut in np.cumsum(self.weights)[:-1]:
            which += u_component >= cut
        out = np.empty_like(u_value)
        for i, comp in enumerate(self.components):
            mask = which == i
            if mask.any():
                out[mask] = comp.quantile(u_value[mask])
        return out

    @property
    def mean(self) -> float:
        return sum(w * c.mean for w, c in zip(self.weights, self.components))

    def to_dict(self) -> dict:
        return {"kind": "mixture",
                "weights": list(self.weights),
                "components": [c.to_dict() for c in self.components]}


def _value(spec, key: str, cast, what: str, *default):
    """``cast`` of ``spec[key]``, or of the default where the key is absent; a
    ValueError names a ``spec`` that is no object, a missing key or a bad value."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(spec).__name__}")
    if key not in spec and not default:
        raise ValueError(f"{what} is missing required key {key!r}")
    try:
        return cast(spec.get(key, *default))
    except (TypeError, OverflowError) as err:
        raise ValueError(f"{what} key {key!r}: {err}") from None


def _count(value) -> int:
    """An integral JSON number as an int. A boolean, a string or a fraction
    raises TypeError, and an infinity OverflowError, for ``_value`` to name
    the key: ``int`` would truncate them without a word."""
    whole = (value.is_integer() or math.isinf(value) if isinstance(value, float)
             else isinstance(value, int) and not isinstance(value, bool))
    if not whole:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def dist_from_dict(spec: Mapping) -> ParetoDist | LognormalDist | MixtureDist:
    """Build a distribution from its JSON form, read by ``_value``."""
    kind = _value(spec, "kind", lambda v: v, "distribution", None)
    what = f"{kind} distribution"
    if kind == "pareto":
        return ParetoDist(exponent=_value(spec, "exponent", float, what),
                          scale=_value(spec, "scale", float, what, 1.0))
    if kind == "lognormal":
        return LognormalDist(location=_value(spec, "location", float, what, 0.0),
                             shape=_value(spec, "shape", float, what, 1.0))
    if kind == "mixture":
        weights = _value(spec, "weights", lambda v: tuple(map(float, v)), what)
        comps = _value(spec, "components", lambda v: tuple(map(dist_from_dict, v)), what)
        return MixtureDist(weights, comps)
    raise ValueError(f"unknown distribution kind {kind!r}")


# draws per block of ``generate``: one block's uniforms and inversion
# temporaries, about 80 bytes a draw for a mixture (5 MiB), are all that
# generation holds beside the sample; 2**15 to 2**17 time alike
_BLOCK = 2**16


def generate(dist, size: int, seed: int) -> MicroSample:
    """Draw a sample by inversion from a seeded PCG64 uniform stream.

    One uniform per draw for simple laws; mixtures consume a second,
    interleaved stream for the component choice. Identical (dist, size,
    seed) yield bit-identical samples. The stream is drawn and inverted
    ``_BLOCK`` draws at a time, which bounds the temporaries; the generator
    hands out the same doubles in the same order whatever the block, and
    every quantile is elementwise, so the sample's bits do not depend on the
    block size.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    incomes = np.empty(size)
    for start in range(0, size, _BLOCK):
        block = incomes[start:start + _BLOCK]
        if isinstance(dist, MixtureDist):
            u = rng.random((len(block), 2))
            block[:] = dist.draw(u[:, 0], u[:, 1])
        else:
            block[:] = dist.quantile(rng.random(len(block)))
    incomes.flags.writeable = False
    return MicroSample.from_incomes(incomes)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """What to run: distribution, sample size, class counts, fractiles,
    trials, and the base seed. Class counts span the historical range of
    bracket counts by default."""

    dist: object
    size: int = 100_000
    classes: tuple[int, ...] = (8, 14, 20, 30)
    fractiles: tuple[float, ...] = (0.10, 0.05, 0.01)
    trials: int = 5
    seed: int = 0
    top_fraction: float = 1e-3
    scheme: str = "geometric"
    methods: tuple[str, ...] = ("PI", "ME")

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("classes", "fractiles"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for p in self.fractiles:
            if not 0.0 < p <= 1.0:  # as oracle_share requires
                raise ValueError(f"fractiles must lie in (0, 1], got {p}")
        maxent._check_methods(self.methods)
        for classes in self.classes:
            _check_ladder(classes, self.top_fraction, self.scheme)

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkSpec":
        """A spec from its JSON form (see ``_value``); absent keys take defaults."""
        raw = json.loads(text)
        casts = {"size": _count, "classes": lambda v: tuple(map(_count, v)),
                 "fractiles": lambda v: tuple(float(p) for p in v),
                 "trials": _count, "seed": _count, "top_fraction": float,
                 "scheme": str, "methods": tuple}
        dist = dist_from_dict(_value(raw, "distribution", lambda v: v, "spec"))
        return cls(dist=dist, **{key: _value(raw, key, cast, "spec")
                                 for key, cast in casts.items() if key in raw})

    def to_dict(self) -> dict:
        return {
            "distribution": self.dist.to_dict(),
            "size": self.size,
            "classes": list(self.classes),
            "fractiles": list(self.fractiles),
            "trials": self.trials,
            "seed": self.seed,
            "top_fraction": self.top_fraction,
            "scheme": self.scheme,
            "methods": list(self.methods),
        }


@dataclass(frozen=True)
class ErrorCell:
    """One (trial, K, fractile, method) outcome against the oracle."""

    trial: int
    classes: int
    fractile: float
    method: str
    estimate: float | None
    oracle: float
    rel_error: float | None
    status: str  # "ok" or an error code


@dataclass(frozen=True)
class ErrorSummary:
    """Aggregate over trials for one (method, K, fractile).

    The squared-error aggregate is reported three ways because published
    comparisons do not say which scale they used: relative errors, share
    levels, and share percentage points.
    """

    method: str
    classes: int
    fractile: float
    trials_ok: int
    trials_failed: int
    mean_rel_error: float
    mse_rel_error: float
    mse_share_level: float
    mse_share_pp: float


@dataclass(frozen=True)
class ErrorReport:
    """All cells plus per-(method, K, fractile) aggregates, in deterministic
    order."""

    cells: tuple[ErrorCell, ...]
    summaries: tuple[ErrorSummary, ...]

    @classmethod
    def from_cells(cls, cells: Iterable[ErrorCell]) -> "ErrorReport":
        """Sort cells by trial, K, descending fractile and method, and
        aggregate each (method, K, fractile) group over its trials."""
        cells = sorted(cells, key=lambda c: (c.trial, c.classes, -c.fractile,
                                             c.method))
        return cls(cells=tuple(cells), summaries=_summarize(cells))

    def summary_for(self, method: str, classes: int, fractile: float,
                    ) -> ErrorSummary:
        for s in self.summaries:
            if (s.method, s.classes) == (method, classes) and s.fractile == fractile:
                return s
        raise KeyError((method, classes, fractile))


def evaluate_sample(sample: MicroSample, classes: Iterable[int],
                    fractiles: Sequence[float],
                    methods: Sequence[str] = ("PI", "ME"),
                    top_fraction: float = 1e-3,
                    scheme: str = "geometric",
                    trial: int = 0) -> list[ErrorCell]:
    """Score both estimators against the sample oracle at each class count.

    The ME rates of every class count come from one rate solve. Estimator
    failures are recorded per cell and never abort the run; a method other
    than PI or ME raises ValueError.
    """
    cells = []
    oracles = {p: oracle_share(sample, p) for p in fractiles}
    classes = list(classes)
    tables = [tabulate(sample, quantile_thresholds(sample, k, top_fraction, scheme))
              for k in classes]
    estimates = maxent.estimate_shares([cumulate(t) for t in tables], fractiles,
                                       methods)
    for k, outcomes in zip(classes, estimates):
        for p, method, est in outcomes:
            theta = oracles[p]
            if isinstance(est, Exception):
                cells.append(ErrorCell(trial, int(k), float(p), method, None,
                                       theta, None, f"error:{type(est).__name__}"))
            else:
                cells.append(ErrorCell(trial, int(k), float(p), method,
                                       est.share, theta, est.share / theta - 1.0,
                                       "ok"))
    return cells


def _summarize(cells: Sequence[ErrorCell]) -> tuple[ErrorSummary, ...]:
    keys = sorted({(c.method, c.classes, c.fractile) for c in cells},
                  key=lambda k: (k[0], k[1], -k[2]))
    out = []
    for method, k, p in keys:
        group = [c for c in cells
                 if (c.method, c.classes, c.fractile) == (method, k, p)]
        ok = [c for c in group if c.status == "ok"]
        rel = np.array([c.rel_error for c in ok], dtype=float)
        lvl = np.array([c.estimate - c.oracle for c in ok], dtype=float)
        out.append(ErrorSummary(
            method=method, classes=k, fractile=p,
            trials_ok=len(ok), trials_failed=len(group) - len(ok),
            mean_rel_error=float(rel.mean()) if len(ok) else math.nan,
            mse_rel_error=float(np.mean(rel ** 2)) if len(ok) else math.nan,
            mse_share_level=float(np.mean(lvl ** 2)) if len(ok) else math.nan,
            mse_share_pp=float(np.mean((100.0 * lvl) ** 2)) if len(ok) else math.nan,
        ))
    return tuple(out)


def run_protocol(spec: BenchmarkSpec) -> ErrorReport:
    """Generate, tabulate, estimate, and score, trial by trial.

    Trial seeds derive from the base seed and the trial index, so the whole
    report is a pure function of the spec.
    """
    cells: list[ErrorCell] = []
    for trial in range(spec.trials):
        seed = int(np.random.SeedSequence([spec.seed, trial]).generate_state(1)[0])
        # unnamed, so the sample and its ranking go before the next draw
        cells.extend(evaluate_sample(
            generate(spec.dist, spec.size, seed), spec.classes, spec.fractiles,
            spec.methods, spec.top_fraction, spec.scheme, trial=trial))
    return ErrorReport.from_cells(cells)


def load_micro_csv(raw) -> MicroSample:
    """Parse a micro-sample CSV with header ``income,weight``.

    ``raw`` is the text, its UTF-8 bytes or a file handle. Weights are
    positive integer replication factors up to 2**53 whose total fits in an
    int64. Read by ``tabulation._read``, the reader of the tabulation and
    denominator files: a ParseError names the first bad line.
    """
    columns, _ = _read(raw, _MICRO)
    if not len(columns["income"]):
        raise ParseError("micro CSV holds no data rows")
    for values in columns.values():  # the sample's own, so it keeps them
        values.flags.writeable = False
    return MicroSample(columns["income"], columns["weight"])
