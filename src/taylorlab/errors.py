"""Exception types shared across the package."""


class TaylorLabError(Exception):
    """Base class for every error raised by this package."""


class TruncationMismatch(TaylorLabError):
    """Binary operation on series with different mode windows and no resample."""


class DegenerateDirection(TaylorLabError):
    """Background field whose direction ratio is constant (singular Gram matrix)."""


class ZeroMode(TaylorLabError):
    """The zero horizontal mode was passed where a nonzero mode is required."""


class ConstraintViolated(TaylorLabError):
    """A field failed a divergence or Taylor-constraint precondition."""


class ResolutionExceeded(TaylorLabError):
    """Requested eigenfunctions are not resolved at the current truncation."""


class BandExceedsBasis(TaylorLabError):
    """A band projector was requested beyond the stored eigenfunction range."""


class ResonanceViolation(TaylorLabError):
    """A structurally resonant coupling coefficient failed to vanish."""


class IllConditioned(TaylorLabError):
    """A dense solve or matrix exponential failed its accuracy cross-check."""


class ConfigError(TaylorLabError):
    """Invalid run configuration."""


class MissingData(TaylorLabError):
    """A plot or report was requested for an empty data set."""
