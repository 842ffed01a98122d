"""Exception types shared across the package.

``DataError`` is the one failure type of data that admit no fit or score:
a non-finite value, an arm too small, an undefined normalization or
metric. It is raised where the failure is found, and a sweep cell that
raises one has its records flagged NaN instead of stopping the sweep;
every other error stops it.
"""


class CatebenchError(Exception):
    """Base class for all package errors."""


class InvalidConfigError(CatebenchError):
    """A configuration value violates its documented domain."""


class ShapeError(CatebenchError):
    """Array dimensions are inconsistent with the operation."""


class DataError(CatebenchError):
    """The data admit no fit or score; a sweep flags the cell's records and goes on."""


class NumericError(DataError):
    """A non-finite value appeared where finite arithmetic is required."""


class EmptyGroupError(DataError):
    """A treatment arm holds fewer units than an operation needs."""


class ParseError(CatebenchError):
    """A file could not be parsed; carries row/column context when known."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class NormalizationError(DataError):
    """A normalization is undefined, e.g. zero standard deviation."""


class UndefinedMetricError(DataError):
    """A metric has no defined value for the given inputs."""


class CapacityError(CatebenchError):
    """Input size exceeds what an exact algorithm can enumerate."""
