"""Top income share estimation from grouped tax tabulations.

Two interchangeable estimators over the same grouped-data model: local
Pareto interpolation and maximum-entropy (piecewise exponential) density
estimation, plus a micro-sample benchmark harness that scores both against
direct oracle shares.

The namespace is lazy (PEP 562): ``import topshares`` runs none of the
submodules, and each exported name or submodule is imported on first
access, so a command line run loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name, under the submodule that defines it
_EXPORTS = {
    "errors": ("FractileNotCoveredError", "InfeasibleOrderingError",
               "MeanOnBoundaryError", "ParetoFitError", "ParseError",
               "TopsharesError"),
    "maxent": ("MaxEntDensity", "ThresholdSolution", "build_density",
               "estimate_shares", "recover_thresholds", "solve_rate"),
    "microbench": ("BenchmarkSpec", "ErrorReport", "LognormalDist", "MicroSample",
                   "MixtureDist", "ParetoDist", "generate", "oracle_share",
                   "run_protocol", "tabulate"),
    "pareto": ("ParetoBracketFit", "ShareEstimate", "select_bracket"),
    "tabulation": ("CumulativeStats", "Denominator", "IncomeBracket", "Tabulation",
                   "Violation", "cumulate", "parse_denominators", "parse_tabulations",
                   "validate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups bypass this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
