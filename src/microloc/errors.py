"""Exception types shared across the package."""


class MicrolocError(Exception):
    """Base class for all package errors."""


class GridMismatchError(MicrolocError):
    """Two fields or operators live on incompatible grids."""


class UnderResolvedError(MicrolocError):
    """Requested object cannot be represented on the grid (too narrow, too oscillatory)."""


class MultiplierError(MicrolocError):
    """Fourier multiplier is not finite on the dual lattice."""


class DomainError(MicrolocError):
    """Fluid domain invariant violated (e.g. surface touches the bottom)."""


class EllipticSolveError(MicrolocError):
    """The strip elliptic solver failed to converge."""


class BlowUpError(MicrolocError):
    """Time integration produced non-finite values."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(MicrolocError):
    """Experiment configuration failed validation."""
