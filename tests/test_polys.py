import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import MixedGrades, from_scalars

from sharpcert.backend import rat
from sharpcert.polys import (
    RAT_GRADE,
    ExactPoly,
    NonnegCertificate,
    _default_tol,
    _deriv,
    _sample_points,
    _trim,
    certified_min,
    isolate_roots,
    minimal_shift,
    nonneg_on,
    sturm_chain,
)
from sharpcert.scalars import ExactScalar
from sharpcert.scheme import compute_a_star

U2_MINUS_4U = [rat(0), rat(-4), rat(1)]


def _horner(coeffs, x):
    """The reference evaluator: p(x) for coefficients listed from degree 0 up."""
    acc = rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_eval_examples():
    assert _horner(U2_MINUS_4U, rat(2)) == -4
    assert _horner([], rat(17)) == 0
    legendre2 = [rat(-1, 2), rat(0), rat(3, 2)]
    assert _horner(legendre2, rat(1)) == 1


def test_derivative():
    assert _deriv([rat(0), rat(0), rat(0), rat(1)]) == [0, 0, 3]


def test_from_scalars_mixed_grades_rejected():
    with pytest.raises(MixedGrades):
        from_scalars([ExactScalar(1, 0, 1), ExactScalar(1, 0, 2)])


def test_degree_bookkeeping():
    # trailing zeros are trimmed; the zero polynomial has degree -1 and no grade
    assert ExactPoly([1, 2, 3, 0, 0], (1, 2)).degree() == 2
    zero = ExactPoly([0, 0], (1, 2))
    assert zero.is_zero() and zero.degree() == -1 and zero.grade == RAT_GRADE
    assert zero == ExactPoly([])


def test_nonneg_square_touching_zero():
    cert = nonneg_on([rat(256), rat(-32), rat(1)], 0, 16)  # (u - 16)^2
    assert cert.holds and cert.lower_bound == 0


def test_nonneg_fails_with_witness():
    cert = nonneg_on([rat(-1), rat(1)], 0, 16)
    assert not cert.holds
    lo, hi = cert.witness
    assert rat(0) <= lo <= hi < rat(1)


def test_nonneg_shift_interior_minimum():
    cert = nonneg_on(U2_MINUS_4U, 0, 16)
    assert not cert.holds
    shifted = [rat(4), rat(-4), rat(1)]
    cert = nonneg_on(shifted, 0, 16)
    assert cert.holds
    assert _horner(shifted, rat(2)) == 0


def test_minimal_shift_examples():
    tol = rat(1, 10**6)
    assert minimal_shift([rat(0), rat(1)], 0, 16, tol) == 0
    c = minimal_shift([rat(-1)], 0, 16, tol)
    assert rat(1) <= c <= rat(1) + tol
    c = minimal_shift(U2_MINUS_4U, 0, 16, tol)
    assert rat(4) <= c <= rat(4) + tol


def test_certified_min_endpoint():
    m = certified_min([rat(0), rat(1)], 0, 16, rat(1, 1000))
    assert m == 0


def test_sturm_root_counts():
    # (u - 1)(u - 3)(u - 5)
    coeffs = [rat(-15), rat(23), rat(-9), rat(1)]
    chain = sturm_chain(coeffs)
    assert _ref_count(chain, rat(0), rat(16)) == 3
    assert _ref_count(chain, rat(2), rat(4)) == 1


def test_isolate_roots_disjoint():
    coeffs = [rat(-15), rat(23), rat(-9), rat(1)]
    exact, intervals, _ = isolate_roots(coeffs, rat(0), rat(16))
    assert len(exact) + len(intervals) == 3
    located = sorted(
        list(exact) + list(intervals),
        key=lambda loc: loc[0] if isinstance(loc, tuple) else loc,
    )
    for root, loc in zip((1, 3, 5), located):
        if isinstance(loc, tuple):
            assert loc[0] < root < loc[1]
        else:
            assert loc == root


def test_isolate_irrational_roots():
    # u^2 - 2: one root in [0,16]
    exact, intervals, _ = isolate_roots([rat(-2), rat(0), rat(1)], rat(0), rat(16))
    assert exact == []
    assert len(intervals) == 1
    a, b = intervals[0]
    assert a * a < 2 < b * b


coeff_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    min_size=1,
    max_size=13,
)


@given(coeff_lists)
@settings(max_examples=120, deadline=None)
def test_minimal_shift_monotone(cs):
    p = [rat(c) for c in cs]
    tol = rat(1, 10**6)
    c = minimal_shift(p, 0, 16, tol)
    lifted = list(p)
    lifted[0] += c
    assert nonneg_on(lifted, 0, 16).holds
    if c > 2 * tol:
        lowered = list(p)
        lowered[0] += c - 2 * tol
        assert not nonneg_on(lowered, 0, 16).holds


def _rng_polys(count, rng):
    for _ in range(count):
        deg = int(rng.integers(0, 13))
        num = rng.integers(-60, 61, size=deg + 1)
        den = rng.integers(1, 30, size=deg + 1)
        yield [rat(int(n), int(d)) for n, d in zip(num, den)]


def test_sturm_vs_dense_sampling():
    # sampling can refute but never certify: no certified-nonnegative
    # polynomial may evaluate negative anywhere on a dense grid
    rng = np.random.default_rng(20260827)
    grid = np.linspace(0.0, 16.0, 10**4)
    for p in _rng_polys(500, rng):
        cert = nonneg_on(p, 0, 16)
        vals = np.polyval([float(c) for c in reversed(p)], grid)
        if cert.holds:
            # prescreen in floats, recheck suspicious points exactly
            for i in np.nonzero(vals < 0)[0]:
                x = rat(int(round(grid[i] * 2**20)), 2**20)
                x = min(max(x, rat(0)), rat(16))
                assert _horner(p, x) >= 0
        else:
            lo, hi = cert.witness
            mid = (lo + hi) / 2
            assert _horner(p, mid) < 0 or _horner(p, lo) < 0


def test_derivative_matches_finite_differences():
    p = [rat(3), rat(-7, 2), rat(0), rat(5, 3)]
    dp = _deriv(p)
    h = rat(1, 2**40)
    for x in (rat(0), rat(1, 3), rat(7), rat(16) - h):
        fd = (_horner(p, x + h) - _horner(p, x - h)) / (2 * h)
        err = abs(fd - _horner(dp, x))
        assert err < rat(1, 2**60)


# -- reference: the Sturm layer in plain rational arithmetic ------------------
#
# Root isolation, bisection, the interval Horner enclosure and the minimum
# search with a Fraction operation (and a gcd) per step.  The integer layer
# in sharpcert.polys must return exactly the same rationals.


def _ref_polydiv(a, b):
    a, b = _trim(a), _trim(b)
    q = [rat(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        a = _trim(a[:-1])
    return _trim(q), a


def _ref_squarefree(p):
    p = _trim(p)
    if len(p) <= 1:
        return p
    a, b = p, _trim(_deriv(p))
    while b:
        a, b = b, _ref_polydiv(a, b)[1]
    return p if len(a) == 1 else _ref_polydiv(p, a)[0]


def _ref_sturm(p):
    chain = [_trim(p)]
    if _trim(_deriv(p)):
        chain.append(_trim(_deriv(p)))
        while (r := _ref_polydiv(chain[-2], chain[-1])[1]):
            chain.append([-c for c in r])
    return chain


def _ref_count(chain, lo, hi):
    """Distinct real roots in (lo, hi] (Sturm's theorem), signs from the reference evaluator."""

    def changes(x):
        signs = [v > 0 for v in (_horner(p, x) for p in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(lo) - changes(hi)


def _ref_refine(q, a, b, widths):
    sa = _horner(q, a)
    while b - a > widths:
        m = (a + b) / 2
        sm = _horner(q, m)
        if sm == 0:
            return m, m
        if (sm > 0) == (sa > 0):
            a, sa = m, sm
        else:
            b = m
    return a, b


def _ref_isolate(p, lo, hi):
    lo, hi = rat(lo), rat(hi)
    q, exact = _ref_squarefree(p), []
    if len(q) <= 1:
        return exact, [], q
    while True:
        for pt in (lo, hi):
            while len(q) > 1 and _horner(q, pt) == 0:
                exact.append(pt)
                q = _ref_polydiv(q, [-pt, rat(1)])[0]
        if len(q) <= 1:
            return sorted(set(exact)), [], q
        chain, intervals, root = _ref_sturm(q), [], None
        stack = [(lo, hi, _ref_count(chain, lo, hi))]
        while stack:
            a, b, n = stack.pop()
            if n == 1:
                intervals.append((a, b))
            elif n > 1:
                m = (a + b) / 2
                if _horner(q, m) == 0:
                    root = m
                    break
                nl = _ref_count(chain, a, m)
                stack += [(a, m, nl), (m, b, n - nl)]
        if root is not None:
            exact.append(root)
            q = _ref_polydiv(q, [-root, rat(1)])[0]
            continue
        clean = []
        for a, b in intervals:
            while a != b and any(a <= r <= b for r in exact):
                a, b = _ref_refine(q, a, b, (b - a) / 4)
            if a == b:
                exact.append(a)
            else:
                clean.append((a, b))
        return sorted(set(exact)), sorted(clean), q


def _ref_interval_eval(p, lo, hi):
    alo = ahi = rat(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _ref_certified_min(p, lo, hi, tol):
    p, lo, hi, tol = _trim(p), rat(lo), rat(hi), rat(tol)
    if not p:
        return rat(0)
    candidates = [_horner(p, lo), _horner(p, hi)]
    if _trim(_deriv(p)):
        exact, intervals, q = _ref_isolate(_deriv(p), lo, hi)
        candidates += [_horner(p, r) for r in exact]
        for a, b in intervals:
            while True:
                elo, ehi = _ref_interval_eval(p, a, b)
                if ehi - elo <= tol:
                    candidates.append(elo)
                    break
                a, b = _ref_refine(q, a, b, (b - a) / 4)
                if a == b:
                    candidates.append(_horner(p, a))
                    break
    return min(candidates)


def _ref_nonneg(p, lo, hi):
    p, lo, hi = _trim(p), rat(lo), rat(hi)
    if len(p) <= 1:
        c = p[0] if p else rat(0)
        return NonnegCertificate(True, lower_bound=c) if c >= 0 else NonnegCertificate(False, witness=(lo, hi))
    exact, intervals, _ = _ref_isolate(p, lo, hi)
    for x in _sample_points(lo, hi, exact, intervals):
        if _horner(p, x) < 0:
            return NonnegCertificate(False, witness=(x, x))
    if exact or intervals:
        return NonnegCertificate(True, lower_bound=rat(0))
    return NonnegCertificate(True, lower_bound=_ref_certified_min(p, lo, hi, _default_tol(p, lo, hi)))


def _ref_minimal_shift(p, lo, hi, tol):
    return rat(0) if _ref_nonneg(p, lo, hi).holds else -_ref_certified_min(p, lo, hi, tol)


def _assert_matches_reference(p, lo, hi, tol):
    assert certified_min(p, lo, hi, tol) == _ref_certified_min(p, lo, hi, tol)
    assert minimal_shift(p, lo, hi, tol) == _ref_minimal_shift(p, lo, hi, tol)
    assert nonneg_on(p, lo, hi) == _ref_nonneg(p, lo, hi)
    exact, intervals, _ = isolate_roots(p, lo, hi)
    assert (exact, intervals) == _ref_isolate(p, lo, hi)[:2]


INTERVALS = [(rat(0), rat(16)), (rat(-3), rat(5, 7)), (rat(1, 3), rat(9)), (rat(-16), rat(0))]


@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1, max_size=5),
    st.sampled_from(INTERVALS),
    st.integers(min_value=1, max_value=40),
    st.lists(st.fractions(min_value=-16, max_value=16, max_denominator=4), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_integer_sturm_layer_matches_rational_reference(cs, interval, tol_bits, roots):
    # degree <= 6: up to degree 4 times up to two rational roots (possibly
    # equal), so exact roots, deflation and squarefree parts all occur
    p = [rat(c) for c in cs]
    for r in roots:
        p = [a - r * b for a, b in zip([rat(0), *p], [*p, rat(0)])]
    _assert_matches_reference(p, *interval, rat(1, 2**tol_bits))


@pytest.mark.parametrize("d", range(7, 33))
def test_integer_sturm_layer_matches_reference_on_weights(d):
    tol = rat(1, 10**6)
    for w in compute_a_star(d).weights:
        for p in (w.polynomial_part(include_constant=False), w.polynomial_part()):
            assert certified_min(p, 0, 16, tol) == _ref_certified_min(p, 0, 16, tol)
            assert minimal_shift(p, 0, 16, tol) == _ref_minimal_shift(p, 0, 16, tol)
            assert nonneg_on(p, 0, 16) == _ref_nonneg(p, 0, 16)
