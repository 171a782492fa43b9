"""Exception types shared across the package."""


class PcagmmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidShape(PcagmmError):
    """Array dimensions are inconsistent with the requested operation."""


class NotPositiveDefinite(PcagmmError):
    """A matrix required to be symmetric positive definite failed to factor."""


class RankDeficient(PcagmmError):
    """A matrix required to have full column rank is numerically singular."""


class InvalidParameter(PcagmmError):
    """A model parameter violates an invariant other than its shape."""


class DegenerateDensity(PcagmmError):
    """Every mixture component assigns zero density to some sample."""


class EmptyComponent(PcagmmError):
    """A mixture component received numerically zero total responsibility."""

    def __init__(self, indices=()):
        self.indices = tuple(int(i) for i in indices)
        msg = "empty mixture component"
        if self.indices:
            msg += f"(s): {self.indices}"
        super().__init__(msg)


class LineSearchFailed(PcagmmError):
    """Backtracking exhausted its budget; gradient or problem is degenerate."""


class UncoveredPixel(PcagmmError):
    """Some output pixel gets zero total weight during aggregation: no patch
    covers it, or the patch weights underflow to zero on it."""


class UnsupportedFormat(PcagmmError):
    """File extension or magic number is not one of the supported formats."""


class CorruptHeader(PcagmmError):
    """File header or payload is malformed or truncated."""


class VersionMismatch(PcagmmError):
    """Model file carries an unsupported format version."""
