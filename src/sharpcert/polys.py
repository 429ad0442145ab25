"""Exact univariate polynomials and Sturm-based nonnegativity certificates.

An ``ExactPoly`` is a zonal kernel polynomial in s = 1 + t, where t = w1 . w2
is the cosine between two sphere points: rational coefficients plus one
shared radical grade (a positive factor, so it never affects signs or
roots).  The Sturm layer -- sequences, root isolation, interval enclosures,
nonnegativity and minimal shifts -- takes grade-stripped rational
coefficient lists and works on integers: each list's denominators are
cleared once, Sturm chain members are primitive integer lists, and a
polynomial is evaluated at a rational point n/q by the homogenised integer
Horner sum, which has the sign of the value and, over a known positive
scale, equals it.  Every rational the layer returns (roots, isolating
intervals, minima, shifts, witnesses) is exact and the same as plain
rational arithmetic gives; no floating point.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .backend import rat, rat_str
from .scalars import Grade

RAT_GRADE: Grade = (0, 0)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class ExactPoly:
    """Kernel polynomial in s = 1 + t: grade * sum coeffs[i] * s^i, coeffs rational."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, coeffs, grade: Grade = RAT_GRADE):
        coeffs = _trim(rat(c) if isinstance(c, (int, str)) else c for c in coeffs)
        if not coeffs:
            grade = RAT_GRADE
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "grade", tuple(grade))

    def __setattr__(self, *a):
        raise AttributeError("ExactPoly is immutable")

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.is_zero() or self.grade == other.grade
        )

    def __repr__(self):
        return f"ExactPoly({[rat_str(c) for c in self.coeffs]}, grade={self.grade})"


NonnegCertificate = namedtuple("NonnegCertificate", "holds lower_bound witness",
                               defaults=(None, None))
NonnegCertificate.__doc__ = """Outcome of an exact nonnegativity check on an interval.

When ``holds``, ``lower_bound`` is a certified rational lower bound for the
(grade-stripped) minimum; otherwise ``witness`` is a rational interval
containing a point where the polynomial is negative.
"""


# -- coefficient-list helpers (grade-stripped) -------------------------------
#
# A rational list p is cleared once to integers P = L p with L > 0.  At a
# rational point n/q (q > 0) the homogenised Horner sum q^deg P(n/q) is an
# integer with the sign of p(n/q), and p(n/q) = that sum / (L q^deg), so
# every sign test and every bisection step runs on plain ints; a rational is
# built only for a point or a bound that is returned.


def _deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _clear(coeffs):
    """Integers P and L > 0 with coeffs = P / L (L = 1 for an integer list)."""
    L = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (L // c.denominator) for c in coeffs], L


def _hval(P, n, q):
    """q^deg P(n/q) for integer P, n and q > 0, deg = len(P) - 1."""
    acc, qp = 0, 1
    for c in reversed(P):
        acc = acc * n + c * qp
        qp *= q
    return acc


def _primitive(P):
    """P divided by the (positive) gcd of its coefficients; [] stays []."""
    g = math.gcd(*P)
    return [c // g for c in P] if g > 1 else P


def _prem(a, b):
    """The remainder of |lc(b)|^k a on division by b, for the k that keeps it in integers.

    By uniqueness of the remainder it is |lc(b)|^k times the rational
    remainder of a by b: a positive multiple, so it has the same signs.
    """
    r = _trim(a)
    db, lb = len(b) - 1, b[-1]
    alb, sb = abs(lb), (1 if lb > 0 else -1)
    while len(r) > db:
        f, shift = r[-1] * sb, len(r) - 1 - db
        r = [c * alb for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= f * c
        r = _trim(r)
    return r


def _exact_div(P, g):
    """P / g for integer P and primitive g dividing it; the quotient is integral (Gauss's lemma)."""
    r = list(P)
    dg, lg = len(g) - 1, g[-1]
    quot = [0] * (len(P) - dg)
    for shift in range(len(P) - 1 - dg, -1, -1):
        f, rem = divmod(r[shift + dg], lg)
        assert rem == 0
        quot[shift] = f
        for i, c in enumerate(g):
            r[i + shift] -= f * c
    assert not any(r)
    return quot


def _squarefree(P):
    """A positive integer multiple of P / gcd(P, P'): the same roots, each simple."""
    if len(P) <= 1:
        return P
    a, b = P, _primitive(_deriv(P))
    while b:
        a, b = b, _primitive(_prem(a, b))
    if len(a) == 1:
        return P
    return _exact_div(P, a if a[-1] > 0 else [-c for c in a])


def sturm_chain(coeffs):
    """Sturm sequence of ``coeffs`` as primitive integer lists.

    Each member is a positive multiple of the rational Sturm sequence's
    member, so every sign, and every count of sign changes, is the same.
    """
    chain = [_primitive(_clear(_trim(coeffs))[0])]
    dP = _deriv(chain[0])
    if dP:
        chain.append(_primitive(dP))
        while True:
            r = _prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_primitive([-c for c in r]))
    return chain


def _sign_changes(chain, n, q):
    changes, last = 0, 0
    for P in chain:
        v = _hval(P, n, q)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _common(a, b):
    """(A, B, D) with a = A/D and b = B/D, D > 0."""
    D = math.lcm(a.denominator, b.denominator)
    return a.numerator * (D // a.denominator), b.numerator * (D // b.denominator), D


def isolate_roots(coeffs, lo, hi):
    """Isolate the distinct real roots of ``coeffs`` inside [lo, hi].

    Returns (exact_roots, intervals, q): rational roots found exactly along
    the way; open intervals (a, b) with q(a), q(b) != 0, each containing
    exactly one (simple) root of q and no exact root; and the squarefree,
    rational-root-deflated polynomial q the intervals refer to, as a
    positive multiple with integer coefficients.

    Any rational root the bisection stumbles on is divided out and the pass
    restarts, so the Sturm counts are only ever taken at non-roots.
    """
    lo, hi = rat(lo), rat(hi)
    q = _squarefree(_clear(_trim(coeffs))[0])
    exact = []
    if len(q) <= 1:
        return exact, [], q
    while True:
        for pt in (lo, hi):
            while len(q) > 1 and _hval(q, pt.numerator, pt.denominator) == 0:
                exact.append(pt)
                q = _exact_div(q, [-pt.numerator, pt.denominator])
        if len(q) <= 1:
            return sorted(set(exact)), [], q
        chain = sturm_chain(q)
        intervals = []
        rational_root = None
        # bisect with both endpoints over one denominator, carrying each
        # endpoint's count of sign changes
        A, B, D = _common(lo, hi)
        stack = [(A, B, D, _sign_changes(chain, A, D), _sign_changes(chain, B, D))]
        while stack:
            A, B, D, va, vb = stack.pop()
            if va == vb:
                continue
            if va - vb == 1:
                intervals.append((rat(A, D), rat(B, D)))
                continue
            M, D = A + B, 2 * D
            if _hval(q, M, D) == 0:
                rational_root = rat(M, D)
                break
            vm = _sign_changes(chain, M, D)
            stack.append((2 * A, M, D, va, vm))
            stack.append((M, 2 * B, D, vm, vb))
        if rational_root is not None:
            exact.append(rational_root)
            q = _exact_div(q, [-rational_root.numerator, rational_root.denominator])
            continue
        # shrink each interval until it contains no exact rational root,
        # so root locators never overlap
        clean = []
        for a, b in intervals:
            while a != b and any(a <= r <= b for r in exact):
                a, b = refine_interval(q, a, b, (b - a) / 4)
            if a == b:  # bisection landed exactly on a rational root
                exact.append(a)
            else:
                clean.append((a, b))
        return sorted(set(exact)), sorted(clean), q


def _halve(Q, A, B, D, up):
    """One bisection step of (A/D, B/D) around a simple root of Q.

    ``up`` says whether Q is positive at A/D.  Returns (A, B, D) over the
    doubled denominator, with A == B when the midpoint is the root.
    """
    M, D = A + B, 2 * D
    sm = _hval(Q, M, D)
    if sm == 0:
        return M, M, D
    if (sm > 0) == up:
        return M, 2 * B, D
    return 2 * A, M, D


def refine_interval(coeffs, a, b, widths):
    """Shrink a single-simple-root isolating interval below ``widths``."""
    Q = _clear(coeffs)[0]
    widths = rat(widths)
    A, B, D = _common(rat(a), rat(b))
    sa, sb = _hval(Q, A, D), _hval(Q, B, D)
    assert sa != 0 and sb != 0 and (sa > 0) != (sb > 0)
    while A != B and (B - A) * widths.denominator > widths.numerator * D:
        A, B, D = _halve(Q, A, B, D, sa > 0)
    return rat(A, D), rat(B, D)


def _sample_points(lo, hi, exact_roots, intervals):
    """Rational points covering every root-free region of [lo, hi]."""
    pts = {lo, hi}
    locators = [(r, r) for r in exact_roots] + list(intervals)
    locators.sort()
    for a, b in intervals:
        pts.add(a)
        pts.add(b)
    prev_hi = lo
    for a, b in locators:
        if a > prev_hi:
            pts.add((prev_hi + a) / 2)
        prev_hi = max(prev_hi, b)
    if hi > prev_hi:
        pts.add((prev_hi + hi) / 2)
    return sorted(pts)


def nonneg_on(coeffs, lo, hi) -> NonnegCertificate:
    """Decide exactly whether a rational coefficient list is >= 0 everywhere on [lo, hi]."""
    coeffs = _trim(coeffs)
    lo, hi = rat(lo), rat(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if not coeffs:
        return NonnegCertificate(True, lower_bound=rat(0))
    if len(coeffs) == 1:
        c = coeffs[0]
        if c >= 0:
            return NonnegCertificate(True, lower_bound=c)
        return NonnegCertificate(False, witness=(lo, hi))

    exact_roots, intervals, _ = isolate_roots(coeffs, lo, hi)
    P = _clear(coeffs)[0]
    for x in _sample_points(lo, hi, exact_roots, intervals):
        if _hval(P, x.numerator, x.denominator) < 0:
            return NonnegCertificate(False, witness=(x, x))
    if exact_roots or intervals:
        return NonnegCertificate(True, lower_bound=rat(0))
    lb = certified_min(coeffs, lo, hi, _default_tol(coeffs, lo, hi))
    return NonnegCertificate(True, lower_bound=lb)


def _default_tol(coeffs, lo, hi):
    scale = max(abs(c) for c in coeffs) * max(1, abs(lo), abs(hi)) ** max(1, len(coeffs) - 1)
    return max(scale, 1) / (1 << 40)


def _enclosure(P, A, B, D):
    """Interval Horner of integer P over [A/D, B/D], scaled by D^deg: (lo, hi) integers."""
    elo = ehi = 0
    dp = 1
    for c in reversed(P):
        cands = (elo * A, elo * B, ehi * A, ehi * B)
        elo, ehi = min(cands) + c * dp, max(cands) + c * dp
        dp *= D
    return elo, ehi


def certified_min(coeffs, lo, hi, tol):
    """A rational m with  min - tol <= m <= min  of the polynomial on [lo, hi].

    Candidates are kept as integer pairs (num, den), den > 0; the least
    becomes a rational only once.  A critical-point candidate is the lower
    end of the interval Horner enclosure of coeffs over an isolating
    interval of the critical point, bisected until the enclosure is at most
    tol wide.
    """
    coeffs = _trim(list(coeffs))
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not coeffs:
        return rat(0)
    P, L = _clear(coeffs)
    deg = len(P) - 1

    def value(n, q):  # p(n/q) as the pair (q^deg P(n/q), L q^deg)
        return _hval(P, n, q), L * q**deg

    candidates = [value(x.numerator, x.denominator) for x in (lo, hi)]
    dP = _deriv(P)
    if dP:
        exact_crit, crit_intervals, Q = isolate_roots(dP, lo, hi)
        candidates += [value(r.numerator, r.denominator) for r in exact_crit]
        for a, b in crit_intervals:
            A, B, D = _common(a, b)
            up = _hval(Q, A, D) > 0
            while True:
                scale = L * D**deg
                elo, ehi = _enclosure(P, A, B, D)
                if (ehi - elo) * tol.denominator <= tol.numerator * scale:
                    candidates.append((elo, scale))
                    break
                for _ in range(2):  # a quarter of the width per enclosure
                    A, B, D = _halve(Q, A, B, D, up)
                    if A == B:
                        break
                if A == B:  # landed exactly on the critical point
                    candidates.append(value(A, D))
                    break
    n, q = candidates[0]
    for m, r in candidates[1:]:
        if m * q < n * r:
            n, q = m, r
    return rat(n, q)


def minimal_shift(coeffs, lo, hi, tol):
    """Smallest certified constant c >= 0 making coeffs + c nonnegative on [lo, hi].

    Exact up to tol: returns 0 exactly when the polynomial already is
    nonnegative, otherwise a value in [-min, -min + tol].
    """
    coeffs = _trim(coeffs)
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if nonneg_on(coeffs, lo, hi).holds:
        return rat(0)
    m = certified_min(coeffs, lo, hi, tol)
    return -m
