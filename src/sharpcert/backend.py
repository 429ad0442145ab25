"""Rational arithmetic backend.

All exact computation in this package runs over arbitrary-precision
rationals.  When gmpy2 is importable we use ``gmpy2.mpq`` (GMP-backed,
roughly an order of magnitude faster on the large numerators produced by
the eigenvalue tables); otherwise we fall back to ``fractions.Fraction``.
Set ``SHARPCERT_PURE_PYTHON=1`` to force the pure-Python fallback.

The two types interoperate badly with each other but identically with
Python ints, so the rest of the package only ever builds rationals
through :func:`rat` and reads them through ``.numerator``/
``.denominator``.
"""

from __future__ import annotations

import os
from fractions import Fraction

_FORCE_PURE = os.environ.get("SHARPCERT_PURE_PYTHON", "") not in ("", "0")

if not _FORCE_PURE:
    try:
        from gmpy2 import mpq as _mpq
    except ImportError:  # pragma: no cover
        _mpq = None
else:
    _mpq = None

BACKEND = "gmpy2" if _mpq is not None else "fraction"


def rat(num=0, den=None):
    """Build a backend rational from int(s), a "p/q" string, or a rational."""
    if _mpq is not None:
        if den is None:
            if isinstance(num, Fraction):
                return _mpq(num.numerator, num.denominator)
            return _mpq(num)
        return _mpq(num, den)
    if den is None:
        return Fraction(num)
    return Fraction(num, den)


def is_rational(x) -> bool:
    return hasattr(x, "numerator") and hasattr(x, "denominator")


def rat_str(x) -> str:
    """Serialize as "p/q" (or "p" when the denominator is 1)."""
    n, d = x.numerator, x.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"
