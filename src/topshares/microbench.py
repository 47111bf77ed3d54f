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
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from . import maxent
from .errors import ParseError
from .tabulation import IncomeBracket, Tabulation, _parse_float, _records, cumulate

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


@dataclass(frozen=True)
class MicroSample:
    """Individual incomes with integer replication weights.

    ``population`` counts every tax unit including non-filers; non-filers
    carry zero income and rank below every filer. ``total_income`` defaults
    to the weighted sum of incomes but can be overridden with an external
    denominator.
    """

    incomes: np.ndarray
    weights: np.ndarray
    nonfiler_count: int = 0
    total_income_override: float | None = None

    def __post_init__(self):
        incomes = np.asarray(self.incomes, dtype=float)
        object.__setattr__(self, "incomes", incomes)
        if self.weights is None:
            weights = np.ones(len(incomes), dtype=np.int64)
        else:
            weights = np.asarray(self.weights)
            if weights.dtype.kind not in "iu" and not np.all(
                    np.isfinite(weights) & (weights == np.trunc(weights))):
                raise ValueError("weights must be positive integers")
            weights = weights.astype(np.int64)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(incomes):
            raise ValueError("incomes and weights must have equal length")
        if len(incomes) == 0:
            raise ValueError("empty sample")
        if np.any(~np.isfinite(incomes)) or np.any(incomes < 0):
            raise ValueError("incomes must be finite and nonnegative")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive integers")
        if self.nonfiler_count < 0:
            raise ValueError("nonfiler_count must be nonnegative")
        incomes.flags.writeable = False
        weights.flags.writeable = False

    @classmethod
    def from_incomes(cls, incomes, nonfiler_count: int = 0,
                     total_income: float | None = None) -> "MicroSample":
        incomes = np.asarray(incomes, dtype=float)
        return cls(incomes, np.ones(len(incomes), dtype=np.int64),
                   nonfiler_count, total_income)

    @property
    def filer_count(self) -> int:
        return int(self.weights.sum())

    @property
    def population(self) -> int:
        return self.filer_count + self.nonfiler_count

    @property
    def total_income(self) -> float:
        if self.total_income_override is not None:
            return float(self.total_income_override)
        return float(np.dot(self.incomes, self.weights))


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

    order = np.argsort(sample.incomes)[::-1]
    incomes = sample.incomes[order]
    weights = sample.weights[order]
    cum = np.cumsum(weights)

    boundary = int(np.searchsorted(cum, target, side="left"))
    if boundary >= len(incomes):
        top_sum = float(np.dot(incomes, weights))  # cut falls among non-filers
    else:
        before = float(cum[boundary - 1]) if boundary > 0 else 0.0
        top_sum = float(np.dot(incomes[:boundary], weights[:boundary]))
        top_sum += (target - before) * float(incomes[boundary])
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

    order = np.argsort(sample.incomes)
    incomes = sample.incomes[order]
    weights = sample.weights[order].astype(float)
    cum_w = np.concatenate([[0.0], np.cumsum(weights)])
    cum_s = np.concatenate([[0.0], np.cumsum(weights * incomes)])

    edges = np.searchsorted(incomes, thresholds, side="left")  # descending
    brackets = []
    upper_idx = len(incomes)
    for k, t in enumerate(thresholds):
        lo_idx = int(edges[k])
        count = cum_w[upper_idx] - cum_w[lo_idx]
        total = cum_s[upper_idx] - cum_s[lo_idx]
        brackets.append(IncomeBracket(float(t), int(round(count)), float(total)))
        upper_idx = lo_idx

    return Tabulation(
        year=0,
        brackets=tuple(brackets),
        population=sample.population,
        total_income=sample.total_income,
        income_unit=1.0,
    )


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
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if scheme == "geometric":
        fractions = top_fraction ** (np.arange(classes - 1, -1, -1) / (classes - 1))
    elif scheme == "equal_mass":
        fractions = np.arange(1, classes + 1) / classes
    else:
        raise ValueError(f"unknown threshold scheme {scheme!r}")

    order = np.argsort(sample.incomes)[::-1]
    incomes = sample.incomes[order]
    cum = np.cumsum(sample.weights[order])
    total_w = float(cum[-1])

    thresholds = []
    for frac in fractions:
        rank = min(max(2.0, round(frac * sample.population)), total_w)
        idx = int(np.searchsorted(cum, rank, side="left"))
        thresholds.append(float(incomes[idx]))
    out = np.unique(thresholds)[::-1]
    return out


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


@dataclass(frozen=True)
class LognormalDist:
    """Lognormal law: log X is normal(location, shape^2)."""

    location: float = 0.0
    shape: float = 1.0

    def __post_init__(self):
        if self.shape <= 0:
            raise ValueError("shape must be positive")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.location + self.shape * ndtri(u))

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
        cuts = np.cumsum(self.weights)
        which = np.searchsorted(cuts, u_component, side="right")
        which = np.minimum(which, len(self.components) - 1)
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


def dist_from_dict(spec: Mapping) -> ParetoDist | LognormalDist | MixtureDist:
    """Build a distribution from its JSON form."""
    kind = spec.get("kind")
    if kind == "pareto":
        return ParetoDist(exponent=float(spec["exponent"]),
                          scale=float(spec.get("scale", 1.0)))
    if kind == "lognormal":
        return LognormalDist(location=float(spec.get("location", 0.0)),
                             shape=float(spec.get("shape", 1.0)))
    if kind == "mixture":
        comps = tuple(dist_from_dict(c) for c in spec["components"])
        return MixtureDist(weights=tuple(float(w) for w in spec["weights"]),
                           components=comps)
    raise ValueError(f"unknown distribution kind {kind!r}")


def generate(dist, size: int, seed: int) -> MicroSample:
    """Draw a sample by inversion from a seeded PCG64 uniform stream.

    One uniform per draw for simple laws; mixtures consume a second,
    interleaved stream for the component choice. Identical (dist, size,
    seed) yield bit-identical samples.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if isinstance(dist, MixtureDist):
        u = rng.random((size, 2))
        incomes = dist.draw(u[:, 0], u[:, 1])
    else:
        incomes = dist.quantile(rng.random(size))
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

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkSpec":
        raw = json.loads(text)
        return cls(
            dist=dist_from_dict(raw["distribution"]),
            size=int(raw.get("size", 100_000)),
            classes=tuple(int(k) for k in raw.get("classes", (8, 14, 20, 30))),
            fractiles=tuple(float(p) for p in raw.get("fractiles", (0.10, 0.05, 0.01))),
            trials=int(raw.get("trials", 5)),
            seed=int(raw.get("seed", 0)),
            top_fraction=float(raw.get("top_fraction", 1e-3)),
            scheme=str(raw.get("scheme", "geometric")),
            methods=tuple(raw.get("methods", ("PI", "ME"))),
        )

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

    Estimator failures are recorded per cell and never abort the run; a
    method other than PI or ME raises ValueError.
    """
    cells = []
    oracles = {p: oracle_share(sample, p) for p in fractiles}
    for k in classes:
        thresholds = quantile_thresholds(sample, k, top_fraction, scheme)
        stats = cumulate(tabulate(sample, thresholds))
        for p, method, est in maxent.estimate_shares(stats, fractiles, methods):
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
        sample = generate(spec.dist, spec.size, seed)
        cells.extend(evaluate_sample(
            sample, spec.classes, spec.fractiles, spec.methods,
            spec.top_fraction, spec.scheme, trial=trial))
    return ErrorReport.from_cells(cells)


def load_micro_csv(raw) -> MicroSample:
    """Parse a micro-sample CSV with header ``income,weight``.

    Weights are positive integer replication factors. Read by the same
    CSV reader as the tabulation files: blank lines skipped, fields
    stripped, errors carry the line number.
    """
    idx, rows = _records(raw, ("income", "weight"), None, "micro CSV")
    incomes, weights = [], []
    for lineno, fields in rows:
        income = _parse_float(fields[idx["income"]], "income", lineno)
        if income < 0:
            raise ParseError(f"income {income} must be >= 0", line=lineno)
        weight = _parse_float(fields[idx["weight"]], "weight", lineno)
        if weight <= 0 or weight != int(weight):
            raise ParseError(f"weight {fields[idx['weight']]!r} must be a "
                             f"positive integer replication factor", line=lineno)
        incomes.append(income)
        weights.append(int(weight))
    if not incomes:
        raise ParseError("micro CSV holds no data rows")
    return MicroSample(np.array(incomes), np.array(weights, dtype=np.int64))
