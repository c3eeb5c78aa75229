"""Exception types shared across the package; ``json_number``, ``json_array``,
``json_object`` and ``open_output``, the checks through which the readers of
JSON numbers, lists and objects and the writers of output files raise
ConfigError; and ``FLOAT_FORMAT``, the one CSV cell format (17 significant
digits round-trip a 64-bit float)."""

import math

FLOAT_FORMAT = "%.17g"


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
    """A JSON number as ``kind``, else a ConfigError.  A number is finite
    (JSON's 1e309 reads as inf), and an int is integral and below 2^63 in
    magnitude, the range of numpy's counts."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and (isinstance(value, float) and not value.is_integer()
                                or abs(value) >= 2 ** 63)):
        what = "a 64-bit integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        number = kind(value)
    except OverflowError:  # an int beyond the floats
        raise ConfigError(f"{name} must be within the float range, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def json_array(value, name: str) -> list:
    """A JSON array (or a tuple) as a list, else a ConfigError naming it."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return list(value)


def json_object(obj, what: str, required: tuple = (), optional: tuple = ()) -> dict:
    """``obj`` if it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``, else a ConfigError naming ``what``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    known = (*required, *optional)
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}; the known keys are "
                          f"{sorted(known)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{what} needs a {key!r} entry")
    return obj


def open_output(path, newline: str | None = None):
    """``path`` opened to write UTF-8 text, else a ConfigError: an output
    file that cannot be made (a directory, or under a file) is bad input."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def format_float(x: float) -> str:
    return FLOAT_FORMAT % x
