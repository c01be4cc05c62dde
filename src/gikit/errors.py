"""Exception types shared across the toolkit."""


class GikitError(Exception):
    """Base class for toolkit-specific failures."""


class DatasetValidationError(GikitError):
    """A dataset violates its invariants; carries the full report."""

    def __init__(self, report):
        self.report = report
        summary = "; ".join(issue.message for issue in report.issues)
        super().__init__(f"invalid dataset: {summary}")


class InsufficientRecordsError(GikitError):
    """Too few measurements for the requested operation."""


class DegenerateDivisorError(GikitError):
    """A mean used as a divisor is zero (e.g. all-dark reference frames)."""


class DegeneratePartitionError(GikitError):
    """Conditional averaging cannot split the records into two non-empty subsets."""


class DegenerateVarianceError(GikitError):
    """A statistic is undefined because the relevant variance is zero or
    overflows float64."""


class FileFormatError(GikitError):
    """Malformed container or image file."""
