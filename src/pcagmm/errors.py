"""Exception types shared across the package."""


class PcagmmError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PcagmmError):
    """An input, parameter or file is not acceptable (exit code 3)."""


class NumericalFailure(PcagmmError):
    """A computation on acceptable input broke down (exit code 4)."""


class InvalidShape(DataError):
    """Array dimensions are inconsistent with the requested operation."""


class NotPositiveDefinite(NumericalFailure):
    """A matrix required to be symmetric positive definite failed to factor."""


class RankDeficient(NumericalFailure):
    """A matrix required to have full column rank is numerically singular."""


class InvalidParameter(DataError):
    """A model parameter violates an invariant other than its shape."""


class DegenerateDensity(NumericalFailure):
    """Every mixture component assigns zero density to some sample."""


class EmptyComponent(NumericalFailure):
    """A mixture component received numerically zero total responsibility."""

    def __init__(self, indices=()):
        self.indices = tuple(int(i) for i in indices)
        msg = "empty mixture component"
        if self.indices:
            msg += f"(s): {self.indices}"
        super().__init__(msg)


class LineSearchFailed(NumericalFailure):
    """Backtracking exhausted its budget; gradient or problem is degenerate."""


class UncoveredPixel(NumericalFailure):
    """Some output pixel gets zero total weight during aggregation: no patch
    covers it, or the patch weights underflow to zero on it."""


class UnsupportedFormat(DataError):
    """File extension or magic number is not one of the supported formats."""


class CorruptHeader(DataError):
    """File header or payload is malformed or truncated."""


class VersionMismatch(DataError):
    """Model file carries an unsupported format version."""
