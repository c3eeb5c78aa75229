"""Exception types shared across the package."""


class StratcltError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(StratcltError):
    """Operands live in different spaces or at different base points."""


class DomainError(StratcltError, ValueError):
    """An argument is outside the operation's domain."""


class AmbiguousGeodesicError(StratcltError):
    """The shortest path between the given points is not unique.

    Raised instead of tie-breaking; callers working with measures must
    ensure such configurations carry zero mass.
    """


class LocalizationError(StratcltError):
    """A measure failed the localization checks required by an experiment."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class NumericalConsistencyError(StratcltError):
    """Internal numerical invariant violated (e.g. indefinite covariance)."""


class ConfigError(StratcltError, ValueError):
    """Invalid configuration or input file."""
