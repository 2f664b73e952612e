"""Domain error hierarchy.

Every operation that can fail on valid-typed but out-of-domain input raises a
subclass of :class:`DomainError`; the CLI maps these to exit status 1 and
prints the class name on stderr.
"""


class DomainError(Exception):
    """Base class for all domain errors of this package."""


# polygon arithmetic

class BothInfinite(DomainError):
    """Elementary polygon with infinite length and infinite height."""


class ZeroDimension(DomainError):
    """Elementary polygon with zero length or height."""


class NotFiniteVolume(DomainError):
    """Operation requires a polygon bounding a finite area."""


class EmptySupport(DomainError):
    """No support points supplied."""


# polygon product

class UnsupportedInfiniteCombination(DomainError):
    """Product of two infinite polygons is not defined."""


# polyhedra

class DimensionMismatch(DomainError):
    """Operands live in different ambient dimensions."""


class DimensionTooLarge(DomainError):
    """Ambient dimension above the supported desk-scale bound."""


class InfiniteVolume(DomainError):
    """Operation requires a polyhedron with finite covolume."""


class IndexMismatch(DomainError):
    """Mixed volume index inconsistent with dimension or operand count."""


class NonIntegralMultiplicity(DomainError):
    """d! * covolume turned out non-integral; indicates an internal bug."""


class NonPolynomialGrowth(DomainError):
    """Colength differencing did not stabilise; raise kmax."""


# series algebra

class PrecisionInsufficient(DomainError):
    """Truncation hides data needed to certify the answer."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NotUnitary(DomainError):
    """Leading coefficient is not a unit series."""


class NotAnEdge(DomainError):
    """Requested edge is not a compact face of the Newton polygon."""


class NotIsolated(DomainError):
    """Resultant vanishes identically; intersection is not isolated."""


class NotLocal(DomainError):
    """Curves also meet on the line x = 0 away from the origin."""


class YDivisible(DomainError):
    """Polynomial divisible by the distinguished variable where forbidden."""


class ReducibleExtension(DomainError):
    """Defining polynomial of a tower step is not irreducible."""


# puiseux

class ConstantInY(DomainError):
    """Polynomial of y-degree 0: it has no roots in y to expand."""


class NotSquareFree(DomainError):
    """Input polynomial has a repeated factor."""


class ExtensionTooDeep(DomainError):
    """Ground field tower degree exceeded the configured bound."""


class IdenticallyZero(DomainError):
    """Function vanishes identically along the branch."""


# curve invariants

class GcdChainInvalid(DomainError):
    """Semigroup gcd chain does not decrease strictly to 1."""


class NotMinimal(DomainError):
    """Semigroup generator is redundant."""


class NotRealizable(DomainError):
    """Semigroup is not the semigroup of a plane branch."""


class NotMerleShaped(DomainError):
    """Polygon cannot be inverted to a plane-branch semigroup."""


class NotSingular(DomainError):
    """The origin is not a singular point of the curve."""


class GenericityFailure(DomainError):
    """No tried direction gave a certified generically-defined invariant."""


class ParameterOutOfRange(DomainError):
    """Family parameter outside the admissible range."""


# rendering

class Unrenderable(DomainError):
    """Polygon has no drawable boundary (two infinite directions)."""
