"""Exception types shared across the package."""


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
