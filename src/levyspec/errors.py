"""Exception types, and the checks of numeric parameters, shared across the package.

Each check returns its value or raises a ValueError that names the parameter.
"""

import math

import numpy as np


class LevySpecError(Exception):
    """Base class for levyspec errors."""


class QuadratureError(LevySpecError):
    """A numerical integral diverged or missed its requested tolerance."""


class UnsupportedModelError(LevySpecError):
    """The requested operation is not defined for this model."""


class NoStabilizationError(LevySpecError):
    """The Euler-characteristic sequence never stabilized on the kappa grid.

    The full chi sequence is attached so callers can inspect it or fall back
    to a conservative kappa.
    """

    def __init__(self, message, chis):
        super().__init__(message)
        self.chis = list(chis)


def _require_between(name: str, value, low, high, rule: str = "", closed: bool = False):
    """``value`` when low < value < high (low <= value when ``closed``): comparisons
    that NaN fails, as does a value that compares with no number.  The error says
    ``{name} must {rule}``, by default ``lie in (low, high)``."""
    try:
        if (low <= value if closed else low < value) and value < high:
            return value
    except TypeError:  # None, a string
        pass
    rule = rule or f"lie in {'[' if closed else '('}{low:g}, {high:g})"
    raise ValueError(f"{name} must {rule}, got {value!r}")


def _require_finite(name: str, value):
    return _require_between(name, value, -math.inf, math.inf, "be finite")


def _require_positive(name: str, value):
    return _require_between(name, value, 0, math.inf, "be finite and positive")


def _require_nonnegative(name: str, value):
    return _require_between(name, value, 0, math.inf, "be finite and nonnegative", closed=True)


def _require_count(name: str, value, least: int = 1, most: float = math.inf):
    """An int or numpy integer, not a bool, at least ``least`` and at most ``most``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return value


def _require_finite_entries(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` when every entry is finite: one ``np.isfinite`` scan; the error
    names the first entry that is not, by its index."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite; value {values.flat[i].item()!r} at index {i}")
    return values
