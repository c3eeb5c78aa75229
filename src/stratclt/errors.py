"""Exception types shared across the package."""


class StratcltError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(StratcltError):
    """Operands live in different spaces or at different base points."""


class DomainError(StratcltError, ValueError):
    """An argument is outside the operation's domain."""


class NumericalConsistencyError(StratcltError):
    """Internal numerical invariant violated (e.g. a failed first-order certificate)."""


class ConfigError(StratcltError, ValueError):
    """Invalid configuration or input file."""
