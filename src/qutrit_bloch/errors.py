"""Exception types shared across the package.

Everything derives from ValueError so callers that only care about
"bad input" can catch a single class.
"""


class QutritBlochError(ValueError):
    """Base class for all package-specific errors."""


class NonHermitian(QutritBlochError):
    """Matrix expected to be Hermitian is not (beyond tolerance)."""


class DimensionUnsupported(QutritBlochError):
    """Operation only supports a fixed set of matrix dimensions."""


class NotAState(QutritBlochError):
    """Input is not a unit-trace Hermitian matrix within tolerance."""


class NotPrime(QutritBlochError):
    """Dimension must be prime for this construction."""


class OutsideSphere(QutritBlochError):
    """Weight vector lies outside the unit 4-sphere."""


class NotPhysical(QutritBlochError):
    """Parameters do not correspond to a positive semidefinite state."""


class Uncertified(QutritBlochError):
    """The angle search could not prove the sign of a3 at a weight point."""


class NotPure(QutritBlochError):
    """State expected to be pure (unit purity) is mixed."""


class OriginSingularity(QutritBlochError):
    """Density expression is singular at zero Bloch radius."""


class DegenerateBures(QutritBlochError):
    """Bures expression undefined: determinant factor non-positive."""
