"""Exception hierarchy and the config checks shared by all gapdims modules."""

import math
from numbers import Integral


class GapdimsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRatioError(GapdimsError):
    """A dissection ratio lies outside the open interval (0, 1/2)."""


class NotDecreasingError(GapdimsError):
    """An explicit gap list is not positive and non-increasing."""


class NotNormalizedError(GapdimsError):
    """An explicit gap list does not sum to 1 within tolerance."""


class InsufficientDepthError(GapdimsError):
    """A computation needs deeper levels than the sequence/profile provides."""


class OutOfDomainError(GapdimsError):
    """A dimension function was evaluated outside its domain."""


class NoAdmissibleWindowError(GapdimsError):
    """No (k, n) or (x, R, r) window satisfies the admissibility constraints."""


class DepthUnsupportedError(GapdimsError):
    """Requested truncation depth W is outside the supported range."""


class InvalidRangeError(GapdimsError):
    """A level range argument is out of bounds."""


class OutOfRegimeError(GapdimsError):
    """Statistic requested outside the parameter regime where it is defined."""


class NotLevelComparableError(GapdimsError):
    """An experiment requires a level comparable sequence and got none."""


def check_keys(cfg, what: str, required=(), optional=()) -> dict:
    """Return ``cfg`` if it is a dict holding every ``required`` key and no
    key outside ``required`` and ``optional``; raise GapdimsError otherwise."""
    if not isinstance(cfg, dict):
        raise GapdimsError(f"{what} must be a JSON object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - {*required, *optional})
    if unknown:
        raise GapdimsError(f"unknown key(s) in {what}: {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise GapdimsError(f"missing key(s) in {what}: {', '.join(map(repr, missing))}")
    return cfg


def check_value(value, what: str, lo=-math.inf, hi=math.inf, kind=Integral,
                error=InvalidRangeError) -> None:
    """Raise ``error`` unless ``value`` is a finite ``kind`` number (never a bool, and
    any NumPy integer is Integral) in [lo, hi]; an infinite bound leaves that side open."""
    if (isinstance(value, bool) or not isinstance(value, kind) or not lo <= value <= hi
            or (kind is not Integral and not math.isfinite(value))):
        noun = "an integer" if kind is Integral else "a number"
        span = f"{'(' if lo == -math.inf else '['}{lo}, {hi}{')' if hi == math.inf else ']'}"
        raise error(f"{what} must be {noun} in {span}, got {value!r}")
