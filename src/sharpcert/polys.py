"""Exact univariate polynomials and Sturm-based nonnegativity certificates.

An ``ExactPoly`` is a zonal kernel polynomial in s = 1 + t, where t = w1 . w2
is the cosine between two sphere points: rational coefficients plus one
shared radical grade (a positive factor, so it never affects signs or
roots).  The Sturm layer -- sequences, root isolation, interval evaluation,
nonnegativity and minimal shifts -- takes grade-stripped rational
coefficient lists.  Everything on the certification path is exact rational
arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import rat, rat_str
from .errors import GradeMismatch
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

    @classmethod
    def from_scalars(cls, scalars) -> "ExactPoly":
        """Build from ExactScalar coefficients, which must share one grade."""
        grade = RAT_GRADE
        for s in scalars:
            if not s.is_zero():
                grade = s.grade
                break
        coeffs = []
        for s in scalars:
            if not s.is_zero() and s.grade != grade:
                raise GradeMismatch(
                    f"coefficient grade {s.grade} != polynomial grade {grade}"
                )
            coeffs.append(s.coeff)
        return cls(coeffs, grade)

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


@dataclass(frozen=True)
class NonnegCertificate:
    """Outcome of an exact nonnegativity check on an interval.

    When ``holds``, ``lower_bound`` is a certified rational lower bound for
    the (grade-stripped) minimum; otherwise ``witness`` is a rational
    interval containing a point where the polynomial is negative.
    """

    holds: bool
    lower_bound: object | None = None
    witness: tuple | None = None


# -- rational coefficient-list helpers (grade-stripped) ----------------------


def _horner(coeffs, x):
    acc = rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _polydiv(a, b)[1]
    if a:
        la = a[-1]
        a = [c / la for c in a]
    return a


def squarefree_part(coeffs):
    coeffs = _trim(coeffs)
    if len(coeffs) <= 1:
        return coeffs
    g = _gcd(coeffs, _deriv(coeffs))
    if len(g) == 1:
        return coeffs
    # exact division coeffs / g
    q, r = _polydiv(coeffs, g)
    assert not r
    return q


def _polydiv(a, b):
    a = list(_trim(a))
    b = _trim(b)
    db, lb = len(b) - 1, b[-1]
    q = [rat(0)] * max(0, len(a) - db)
    while True:
        a = _trim(a)
        if len(a) - 1 < db or not a:
            break
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            a[i + shift] = a[i + shift] - f * c
        a.pop()
    return _trim(q), a


def sturm_chain(coeffs):
    chain = [_trim(coeffs)]
    d = _deriv(coeffs)
    if _trim(d):
        chain.append(_trim(d))
        while True:
            r = _polydiv(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _horner(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain, lo, hi):
    """Number of distinct real roots in (lo, hi] (Sturm's theorem)."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def isolate_roots(coeffs, lo, hi):
    """Isolate the distinct real roots of ``coeffs`` inside [lo, hi].

    Returns (exact_roots, intervals, q): rational roots found exactly along
    the way; open intervals (a, b) with q(a), q(b) != 0, each containing
    exactly one (simple) root of q and no exact root; and the squarefree,
    rational-root-deflated polynomial q the intervals refer to.

    Any rational root the bisection stumbles on is divided out and the pass
    restarts, so the Sturm counts are only ever taken at non-roots.
    """
    lo, hi = rat(lo), rat(hi)
    q = squarefree_part(coeffs)
    exact = []
    if len(q) <= 1:
        return exact, [], q
    while True:
        for pt in (lo, hi):
            while len(q) > 1 and _horner(q, pt) == 0:
                exact.append(pt)
                q, _ = _polydiv(q, [-pt, rat(1)])
        if len(q) <= 1:
            return sorted(set(exact)), [], q
        chain = sturm_chain(q)
        intervals = []
        rational_root = None
        stack = [(lo, hi, count_roots_halfopen(chain, lo, hi))]
        while stack and rational_root is None:
            a, b, n = stack.pop()
            if n == 0:
                continue
            if n == 1:
                intervals.append((a, b))
                continue
            m = (a + b) / 2
            if _horner(q, m) == 0:
                rational_root = m
                break
            nl = count_roots_halfopen(chain, a, m)
            stack.append((a, m, nl))
            stack.append((m, b, n - nl))
        if rational_root is not None:
            exact.append(rational_root)
            q, _ = _polydiv(q, [-rational_root, rat(1)])
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


def refine_interval(coeffs, a, b, widths):
    """Shrink a single-simple-root isolating interval below ``widths``."""
    sa = _horner(coeffs, a)
    sb = _horner(coeffs, b)
    assert sa != 0 and sb != 0 and (sa > 0) != (sb > 0)
    while b - a > widths:
        m = (a + b) / 2
        sm = _horner(coeffs, m)
        if sm == 0:
            return m, m
        if (sm > 0) == (sa > 0):
            a, sa = m, sm
        else:
            b = m
    return a, b


def interval_eval(coeffs, lo, hi):
    """Exact rational interval extension of the polynomial over [lo, hi]."""
    alo = ahi = rat(0)
    for c in reversed(coeffs):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


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
    for x in _sample_points(lo, hi, exact_roots, intervals):
        if _horner(coeffs, x) < 0:
            return NonnegCertificate(False, witness=(x, x))
    if exact_roots or intervals:
        return NonnegCertificate(True, lower_bound=rat(0))
    lb = certified_min(coeffs, lo, hi, _default_tol(coeffs, lo, hi))
    return NonnegCertificate(True, lower_bound=lb)


def _default_tol(coeffs, lo, hi):
    scale = max(abs(c) for c in coeffs) * max(1, abs(lo), abs(hi)) ** max(1, len(coeffs) - 1)
    return max(scale, 1) / (1 << 40)


def certified_min(coeffs, lo, hi, tol):
    """A rational m with  min - tol <= m <= min  of the polynomial on [lo, hi]."""
    coeffs = _trim(list(coeffs))
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not coeffs:
        return rat(0)
    candidates = [_horner(coeffs, lo), _horner(coeffs, hi)]
    dcoeffs = _deriv(coeffs)
    if _trim(dcoeffs):
        exact_crit, crit_intervals, q = isolate_roots(dcoeffs, lo, hi)
        candidates += [_horner(coeffs, r) for r in exact_crit]
        for a, b in crit_intervals:
            while True:
                elo, ehi = interval_eval(coeffs, a, b)
                if ehi - elo <= tol:
                    candidates.append(elo)
                    break
                a, b = refine_interval(q, a, b, (b - a) / 4)
                if a == b:  # landed exactly on the critical point
                    candidates.append(_horner(coeffs, a))
                    break
    return min(candidates)


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
