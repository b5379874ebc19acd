"""Small argument-validation helpers.

These raise :class:`~repro.util.errors.ConfigurationError` (a ``ValueError``
subclass) with uniform messages, so error text in this library stays
consistent and tests can assert on it.
"""

from __future__ import annotations

import numbers
from collections.abc import Container
from typing import Any

from repro.util.errors import ConfigurationError


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is strictly positive, else raise."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_integer(name: str, value: Any, minimum: int) -> int:
    """Return ``value`` as an ``int`` if it is an integer (any
    ``numbers.Integral`` but ``bool``) >= ``minimum``, else raise: a float
    or a string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is >= 0, else raise (NaN is not)."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in [0, 1], else raise."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Container[Any]) -> Any:
    """Return ``value`` if it is a member of ``allowed``, else raise."""
    if value not in allowed:
        raise ConfigurationError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value
