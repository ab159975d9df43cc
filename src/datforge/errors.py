"""Shared exception types, and the setting checks that raise them."""

import math


class DatforgeError(Exception):
    """Base class for all package errors."""


class DimensionError(DatforgeError, ValueError):
    """Tensor shapes do not conform."""


class ConfigError(DatforgeError, ValueError):
    """Invalid configuration value or combination."""


class FormatError(DatforgeError, ValueError):
    """File content violates an expected on-disk format."""


class PolicyError(DatforgeError, RuntimeError):
    """An access rule was violated (e.g. reading hidden labels outside the oracle path)."""


def require_count(name: str, value, least: int):
    """Raise ``ConfigError`` unless ``value`` is an int, not a bool, and >= ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def require_positive(name: str, value):
    """Raise ``ConfigError`` unless ``value`` is a finite int or float, not a bool, and > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
