"""Rational arithmetic backend.

All exact computation in this package runs over :class:`Rational`, a slim
arbitrary-precision rational kept here: two ints in lowest terms with a
positive denominator, immutable like ``fractions.Fraction`` and equal to
and hashing like the ``Fraction`` of the same value.  It replaces
``Fraction``, which spends much of each operation on abstract-base-class
dispatch and on a property call for every ``.numerator``.  The rest of the
package only ever builds rationals through :func:`rat` (or
:func:`rat_parse`) and reads them through ``.numerator``/``.denominator``;
certificates store them as :func:`rat_str` strings.

``fractions`` is imported only by :func:`rat` given something other than
ints and Rational values (a string such as ``"1e-6"``, a float or a
``Fraction``; ``rat`` is public and ``ExactPoly`` takes strings), so
certify and verify never import it.
"""

from __future__ import annotations

import re
import sys
from math import gcd, isfinite

BACKEND = "rational"

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Rational:
    """Exact rational n/d in lowest terms with d > 0; build it with :func:`rat`.

    Arithmetic (``+ - * /``) and comparison take an int, a Rational or a
    ``Fraction`` (anything with ``numerator`` and ``denominator``) on either
    side; comparison also takes a float, exactly.  Sums and products split
    their gcds as CPython's ``Fraction`` does (Knuth, TAOCP vol. 2, 4.5.1).
    """

    __slots__ = ("numerator", "denominator")

    def __setattr__(self, name, value):
        raise AttributeError("Rational is immutable")

    def __delattr__(self, name):
        raise AttributeError("Rational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the value: the default slot-state restore
        # would go through the blocked __setattr__
        return rat, (self.numerator, self.denominator)

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __str__(self):
        return rat_str(self)

    # -- arithmetic ----------------------------------------------------------

    def __add__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _add(a.numerator, a.denominator, nb, db)

    __radd__ = __add__

    def __sub__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _add(a.numerator, a.denominator, -nb, db)

    def __rsub__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _add(nb, db, -a.numerator, a.denominator)

    def __mul__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _mul(a.numerator, a.denominator, nb, db)

    __rmul__ = __mul__

    def __truediv__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _div(a.numerator, a.denominator, nb, db)

    def __rtruediv__(a, b):
        try:
            nb, db = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _div(nb, db, a.numerator, a.denominator)

    def __pow__(a, b):
        if type(b) is not int:
            return NotImplemented
        n, d = a.numerator, a.denominator
        if b >= 0:
            return _new(n**b, d**b)
        if not n:
            raise ZeroDivisionError(f"Rational({d ** -b}, 0)")
        if n < 0:
            n, d = -n, -d
        return _new(d**-b, n**-b)

    def __neg__(a):
        return _new(-a.numerator, a.denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a.numerator >= 0 else _new(-a.numerator, a.denominator)

    # -- conversion ----------------------------------------------------------

    def __bool__(a):
        return a.numerator != 0

    def __int__(a):
        n, d = a.numerator, a.denominator
        return -(-n // d) if n < 0 else n // d

    def __float__(a):
        return a.numerator / a.denominator

    # -- comparison and hashing ----------------------------------------------

    # both sides in lowest terms with positive denominators; a float (which
    # has no numerator) and anything else go to _compare

    def __eq__(a, b):
        try:
            return a.numerator == b.numerator and a.denominator == b.denominator
        except AttributeError:
            return _compare(a, b, int.__eq__, float.__eq__)

    def __lt__(a, b):
        try:
            return a.numerator * b.denominator < b.numerator * a.denominator
        except AttributeError:
            return _compare(a, b, int.__lt__, float.__lt__)

    def __le__(a, b):
        try:
            return a.numerator * b.denominator <= b.numerator * a.denominator
        except AttributeError:
            return _compare(a, b, int.__le__, float.__le__)

    def __gt__(a, b):
        try:
            return a.numerator * b.denominator > b.numerator * a.denominator
        except AttributeError:
            return _compare(a, b, int.__gt__, float.__gt__)

    def __ge__(a, b):
        try:
            return a.numerator * b.denominator >= b.numerator * a.denominator
        except AttributeError:
            return _compare(a, b, int.__ge__, float.__ge__)

    def __hash__(a):
        # Fraction.__hash__'s formula, so that equal values hash alike
        n, d = a.numerator, a.denominator
        try:
            dinv = pow(d, -1, _HASH_MODULUS)
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(n)) * dinv)
        h = h if n >= 0 else -h
        return -2 if h == -1 else h


_alloc = object.__new__
_set_numerator = Rational.numerator.__set__
_set_denominator = Rational.denominator.__set__


def _new(n, d):
    """The Rational n/d, for ints already in lowest terms with d > 0."""
    r = _alloc(Rational)
    _set_numerator(r, n)
    _set_denominator(r, d)
    return r


def _make(n, d):
    """The Rational n/d, for any ints n and d."""
    if not d:
        raise ZeroDivisionError(f"Rational({n}, 0)")
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _new(n // g, d // g)


def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _new(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _new(t, s * db)
    return _new(t // g2, s * (db // g2))


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _new(na * nb, da * db)


def _div(na, da, nb, db):
    if not nb:
        raise ZeroDivisionError(f"Rational({na}, 0)")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(da, db)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, da * nb
    if d < 0:
        n, d = -n, -d
    return _new(n, d)


def _compare(a, b, op, float_op):
    """Compare ``a`` with a float ``b`` exactly, as ``Fraction`` does: an infinity or
    nan compares as it does with 0.0."""
    if type(b) is not float:
        return NotImplemented
    if not isfinite(b):
        return float_op(0.0, b)
    nb, db = b.as_integer_ratio()
    return op(a.numerator * db, nb * a.denominator)


_EXACT = (int, Rational)


def rat(num=0, den=None):
    """Build a rational from int(s), rational(s), a "p/q" string or a float."""
    if den is None:
        if type(num) is Rational:
            return num
        if type(num) is int:
            return _new(num, 1)
    elif type(num) is int and type(den) is int:
        return _make(num, den)
    elif type(num) in _EXACT and type(den) in _EXACT:
        return _div(num.numerator, num.denominator, den.numerator, den.denominator)
    from fractions import Fraction

    f = Fraction(num, den)
    return _new(f.numerator, f.denominator)


def is_rational(x) -> bool:
    """Whether ``x`` is the backend's rational type itself (an int is not)."""
    return type(x) is Rational


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
    return _make(int(p), int(q)) if q else _new(int(p), 1)
