"""Exception types shared across the package."""


class PolyfilError(Exception):
    """Base class for all package-specific errors."""


class NotCoprime(PolyfilError, ValueError):
    """A modulus pair that must be coprime is not."""


class OddLength(PolyfilError, ValueError):
    """An alternating form needs an even, positive number of components."""


class ComponentCollision(PolyfilError, ValueError):
    """Two components of an index vector coincide after reduction."""


class RangeError(PolyfilError, ValueError):
    """A parameter is outside its documented range."""


class NonUnitSpinor(PolyfilError, ValueError):
    """A spinor (unit quaternion) has drifted off the unit sphere."""


class UndefinedTheta(PolyfilError, ValueError):
    """The argument of a vanishing Gauss sum was requested: an admissible
    index, the phase fit's reference among them, is flagged vanishing."""


class GridNotDivisible(PolyfilError, ValueError):
    """The spatial grid is not divisible by the required block count."""


class BlowUp(PolyfilError, ArithmeticError):
    """A sample norm left [0.5, 2] before renormalization; the time step
    is unstable.  Reduce dt_factor or refine the grid."""
