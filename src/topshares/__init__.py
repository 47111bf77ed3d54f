"""Top income share estimation from grouped tax tabulations.

Two interchangeable estimators over the same grouped-data model: local
Pareto interpolation and maximum-entropy (piecewise exponential) density
estimation, plus a micro-sample benchmark harness that scores both against
direct oracle shares.
"""

from .errors import (
    FractileNotCoveredError,
    InfeasibleOrderingError,
    MeanOnBoundaryError,
    ParetoFitError,
    ParseError,
    TopsharesError,
)
from .maxent import (
    MaxEntDensity,
    ThresholdSolution,
    build_density,
    estimate_share_me,
    estimate_shares,
    recover_thresholds,
    solve_rate,
)
from .microbench import (
    BenchmarkSpec,
    ErrorReport,
    LognormalDist,
    MicroSample,
    MixtureDist,
    ParetoDist,
    generate,
    oracle_share,
    run_protocol,
    tabulate,
)
from .pareto import (
    ParetoBracketFit,
    ShareEstimate,
    estimate_share_pi,
    select_bracket,
    threshold_at,
    top_income_at,
)
from .tabulation import (
    CumulativeStats,
    Denominator,
    IncomeBracket,
    Tabulation,
    Violation,
    cumulate,
    parse_denominators,
    parse_tabulation,
    parse_tabulations,
    serialize_tabulations,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "CumulativeStats",
    "Denominator",
    "ErrorReport",
    "FractileNotCoveredError",
    "IncomeBracket",
    "InfeasibleOrderingError",
    "LognormalDist",
    "MaxEntDensity",
    "MeanOnBoundaryError",
    "MicroSample",
    "MixtureDist",
    "ParetoBracketFit",
    "ParetoDist",
    "ParetoFitError",
    "ParseError",
    "ShareEstimate",
    "Tabulation",
    "ThresholdSolution",
    "TopsharesError",
    "Violation",
    "build_density",
    "cumulate",
    "estimate_share_me",
    "estimate_share_pi",
    "estimate_shares",
    "generate",
    "oracle_share",
    "parse_denominators",
    "parse_tabulation",
    "parse_tabulations",
    "recover_thresholds",
    "run_protocol",
    "select_bracket",
    "serialize_tabulations",
    "solve_rate",
    "tabulate",
    "threshold_at",
    "top_income_at",
    "validate",
]
