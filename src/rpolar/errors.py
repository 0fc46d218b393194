"""Exception and warning types shared across the package."""


class RpolarError(ValueError):
    """Base class for all errors raised by this package; a ``ValueError``."""


class DimensionMismatch(RpolarError):
    """Operands do not have compatible shapes."""


class NotSkew(RpolarError):
    """A matrix expected to be skew-symmetric is not."""


class NonInvertibleOrReflective(RpolarError):
    """Input matrix has non-positive determinant."""


class Degenerate(RpolarError):
    """Input matrix is (numerically) rank deficient or not finite."""


class NotLambdaSquare(RpolarError):
    """Matrix square is not a scalar multiple of the identity."""


class NotSymmetricSquare(RpolarError):
    """Matrix square is not symmetric."""


class InfeasibleLabel(RpolarError):
    """A partition label violates a structural or feasibility constraint."""


class TooLarge(RpolarError):
    """Dimension exceeds the configured enumeration guard."""


class InvalidWeights(RpolarError):
    """Energy weights are out of range (mu >= 0 and mu_c >= 0)."""


class NonClassicalRange(RpolarError):
    """Weights fall outside the classical range mu_c >= mu > 0."""


class DegenerateD(RpolarError):
    """Diagonal parameters violate d_i != 0 or d_i + d_j != 0."""


class StepTooLarge(RpolarError):
    """A flow step increased the energy beyond tolerance."""


class TiesNotStrictWarning(UserWarning):
    """Diagonal entries are tied; minimizers may form continuous families."""


class NonIsolatedWarning(UserWarning):
    """Tied diagonal entries imply non-isolated critical points."""
