"""Exception types shared across the package."""


class GradeMismatch(ArithmeticError):
    """Two nonzero exact values of distinct radical grades were added.

    The exact field is rationals times (sqrt2, sqrt pi) powers; a sum is only
    defined within one grade.  In the package only ``ExactScalar`` addition
    (and subtraction) raises this, rather than coercing to floating point.
    """


class SchemeInfeasible(RuntimeError):
    """A denominator eigenvalue required by the weight scheme is not positive."""


class PrecisionExhausted(RuntimeError):
    """Interval quadrature could not reach the target width at the given precision."""


class MalformedCertificate(ValueError):
    """A certificate document is structurally invalid."""
