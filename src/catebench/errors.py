"""Exception types shared across the package."""


class CatebenchError(Exception):
    """Base class for all package errors."""


class InvalidConfigError(CatebenchError):
    """A configuration value violates its documented domain."""


class ShapeError(CatebenchError):
    """Array dimensions are inconsistent with the operation."""


class NumericError(CatebenchError):
    """A non-finite value appeared where finite arithmetic is required."""


class EmptyGroupError(CatebenchError):
    """A treatment arm holds fewer units than an operation needs."""


class ParseError(CatebenchError):
    """A file could not be parsed; carries row/column context when known."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class NormalizationError(CatebenchError):
    """A normalization is undefined, e.g. zero standard deviation."""


class UndefinedMetricError(CatebenchError):
    """A metric has no defined value for the given inputs."""


class CapacityError(CatebenchError):
    """Input size exceeds what an exact algorithm can enumerate."""
