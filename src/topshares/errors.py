"""Exception types shared across the package."""


class TopsharesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TopsharesError, ValueError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FractileNotCoveredError(TopsharesError, ValueError):
    """Requested top fractile exceeds the fraction of the population covered
    by filers (p > p_K): there are too few observations to reach it."""

    def __init__(self, fractile, covered):
        super().__init__(
            f"fractile {fractile!r} not covered: filers account for only "
            f"{covered!r} of the population"
        )
        self.fractile = fractile
        self.covered = covered


class _BracketError(TopsharesError, ValueError):
    """An error at one bracket: its position, when known, is ``bracket`` and
    prefixes the message."""

    def __init__(self, message, bracket=None):
        if bracket is not None:
            message = f"bracket {bracket}: {message}"
        super().__init__(message)
        self.bracket = bracket


class MeanOnBoundaryError(_BracketError):
    """A bracket mean sits on or outside its bracket, so no exponential
    tilt can match it. Signals corrupt bracket data."""


class ParetoFitError(_BracketError):
    """No valid local Pareto law at the selected bracket (coefficient <= 1
    or a zero threshold). Signals corrupt bracket data."""


class InfeasibleOrderingError(TopsharesError, ValueError):
    """Cumulative inputs admit no ordered threshold configuration."""
