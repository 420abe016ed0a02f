"""Exception types shared across the package.

Every failure the command line front end can reach derives from
GmanvolError, and each type carries the exit code the command line ends
with: ParseError 3 (malformed input), ValidationError 1 (invalid graph
data), and every other type 2 (an input outside the reach of the
implemented constructions).  The library API is looser: some of its
functions and value classes, for example Slope, SeifertInvariants and
riemann_hurwitz_genus, raise ValueError or TypeError on invalid arguments.
"""


class GmanvolError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParseError(GmanvolError):
    """Input text is not a well-formed document."""

    exit_code = 3


class ValidationError(GmanvolError):
    """A graph document violates a structural invariant."""

    exit_code = 1

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid graph document")


class GenusZeroUnsupported(GmanvolError):
    """The operation is only defined over a base of positive genus."""


class EmptyInput(GmanvolError):
    """A nonempty collection was required."""


class FiberSlope(GmanvolError):
    """A filling slope equals the fiber and cannot be filled along."""


class NonIntegralGenus(GmanvolError):
    """The covering genus formula did not produce an integer."""


class BoundaryCountTooSmall(GmanvolError):
    """A piece has too few boundary tori for the requested covering."""


class NotPrime(GmanvolError):
    """The covering order must be a prime number."""


class PrimeTooSmall(GmanvolError):
    """The covering prime must exceed every boundary-torus count."""


class PrimeTooLarge(GmanvolError):
    """A number is beyond the range where the primality test is exact."""


class CoverTooLarge(GmanvolError):
    """A requested cover would exceed the size limit on its pieces or tori."""


class RationalTooLong(GmanvolError):
    """An exact rational has more digits than can be printed."""


class DisconnectedCover(GmanvolError):
    """Internal consistency failure: a constructed cover is disconnected."""


class EhnFails(GmanvolError):
    """No horizontal foliation exists for the filled piece."""


class PMJFormRequired(GmanvolError):
    """Zero absolute Euler number, but the matrices are not all plus/minus swaps."""
