"""Exception types shared across the package."""


class ThermoformalError(Exception):
    """Base class for all package errors."""


class BranchInversionError(ThermoformalError):
    """Monotone branch inversion failed; carries the offending slice."""

    def __init__(self, message, slice_index=None, target=None):
        super().__init__(message)
        self.slice_index = slice_index
        self.target = target


class ReducibleMatrixError(ThermoformalError):
    """Matrix has a zero row/column; leading eigendata ill-defined."""


class NonFiniteWeightsError(ThermoformalError):
    """Matrix entry weights are not all finite (exp(phi) overflowed, or phi is NaN)."""


class NonFiniteObservableError(ThermoformalError):
    """An observable is not finite at a point of the grid it is integrated on."""


class ConvergenceError(ThermoformalError):
    """Iteration hit the cap; carries the last iterate for inspection."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class CoboundaryRefusedError(ThermoformalError):
    """Requested statistic is degenerate because the variance is flagged zero."""


class LegendreDegenerateError(ThermoformalError):
    """Legendre transform rejected: the free-energy curve is affine."""


class SchemaError(ThermoformalError):
    """Job config violates the schema; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
