"""Exception types shared across the package."""


class ThetaInvError(Exception):
    """Base class for all library errors."""


class NotSymmetricError(ThetaInvError, ValueError):
    """Input matrix is not symmetric."""


class OddDiagonalError(ThetaInvError, ValueError):
    """Matrix has an odd diagonal entry, so it is not twice an integral Gram matrix."""


class NotPositiveDefiniteError(ThetaInvError, ValueError):
    """Matrix is not positive definite."""


class RankMismatchError(ThetaInvError, ValueError):
    """Vectors or polynomials of incompatible rank were combined."""


class UnsupportedWeightError(ThetaInvError, ValueError):
    """Eisenstein series requested for a weight outside {6, 8, 10}."""


class NotHomogeneousError(ThetaInvError, ValueError):
    """Operation requires a homogeneous polynomial."""


class NoRationalEmbeddingError(ThetaInvError, ValueError):
    """No rational realization of the lattice coordinates is available."""


class ResourceLimitError(ThetaInvError, RuntimeError):
    """A computation would exceed the configured tuple budget."""


class LatticeFileError(ThetaInvError, ValueError):
    """A lattice description file could not be parsed."""
