"""Exception types shared across the package.

None is for arithmetic: exact values are never added, since every sum runs
on rational parts under a grade fixed by d (``sharpcert.scalars``).
"""


class SchemeInfeasible(RuntimeError):
    """A check of the weight scheme failed, such as a knob eigenvalue that is not positive."""


class PrecisionExhausted(RuntimeError):
    """Interval quadrature could not reach the target width at the given precision."""


class MalformedCertificate(ValueError):
    """A certificate document is structurally invalid."""
