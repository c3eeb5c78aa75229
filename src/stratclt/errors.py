"""Exception types shared across the package, and ``json_number``, the
check through which every parser of a numeric setting raises ConfigError."""


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


def json_number(value, name: str, kind: type = float):
    """A JSON number as ``kind``, else a ConfigError.  An int is integral
    and below 2^63 in magnitude, the range of numpy's counts."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and (isinstance(value, float) and not value.is_integer()
                                or abs(value) >= 2 ** 63)):
        what = "a 64-bit integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return kind(value)
