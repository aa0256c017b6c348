"""Exception hierarchy.

Errors fall into three groups that the command line maps to exit codes:
configuration problems (exit 2), data problems (exit 3), and statistical
failures (exit 4).
"""

from __future__ import annotations


class VolintError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VolintError):
    """Invalid or inconsistent run configuration.

    Collects every violation found so the user can fix them in one pass.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DataError(VolintError):
    """Input data cannot be turned into a usable series."""


class FormatError(DataError):
    """Input file violates the expected format."""


class EmptySeriesError(DataError):
    """No usable observations after ingestion or differencing."""


class DegeneratePatternError(DataError):
    """Intraday pattern is zero or undefined at a slot with nonzero volatility."""


class ZeroVarianceError(DataError):
    """Deseasonalized volatility has zero variance and cannot be normalized."""


class StatError(VolintError):
    """A statistical procedure could not produce a valid result."""


class InsufficientEventsError(StatError):
    """Fewer than two usable threshold exceedances, so no intervals exist."""

    def __init__(self, n_exceedances: int, q: float | None = None):
        self.n_exceedances = int(n_exceedances)
        self.q = q
        tag = f" at q={q:g}" if q is not None else ""
        super().__init__(f"{n_exceedances} exceedance(s){tag}; need at least 2")


class InsufficientPointsError(StatError):
    """Too few curve points inside the requested region to regress."""


class NoOverlapError(StatError):
    """Two samples have disjoint supports; the KS comparison is undefined."""


class UnreachableTargetError(StatError):
    """No threshold attains the requested mean interval on this series."""


class FitFailureError(StatError):
    """Optimizer did not converge to a usable parameter set."""

    def __init__(self, message: str, best: tuple | None = None):
        self.best = best
        super().__init__(message)


class StageError(VolintError):
    """A pipeline stage failed; wraps the underlying error."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")
