"""Rational arithmetic backend.

All exact computation in this package runs over arbitrary-precision
``fractions.Fraction`` rationals.  The rest of the package only ever builds
rationals through :func:`rat` and reads them through ``.numerator``/
``.denominator``; certificates store them as :func:`rat_str` strings.
"""

from __future__ import annotations

import re
from fractions import Fraction

BACKEND = "fraction"


def rat(num=0, den=None):
    """Build a rational from int(s), a "p/q" string, or a rational."""
    return Fraction(num, den)


def is_rational(x) -> bool:
    """Whether ``x`` is the backend's rational type itself (an int is not)."""
    return type(x) is Fraction


def rat_str(x) -> str:
    """Serialize as "p/q" (or "p" when the denominator is 1)."""
    n, d = x.numerator, x.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"


_RAT_STR = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def rat_parse(s):
    """Inverse of :func:`rat_str`: only a "p/q" or "p" string of ASCII digits."""
    m = _RAT_STR.fullmatch(s) if type(s) is str else None
    if m is None:
        raise ValueError(f"rational must be a \"p/q\" string, got {s!r:.60}")
    p, q = m.groups()
    return Fraction(int(p), int(q)) if q else Fraction(int(p))
