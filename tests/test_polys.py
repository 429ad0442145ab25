import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpcert.backend import rat
from sharpcert.errors import GradeMismatch
from sharpcert.polys import (
    RAT_GRADE,
    ExactPoly,
    _deriv,
    _horner,
    certified_min,
    count_roots_halfopen,
    isolate_roots,
    minimal_shift,
    nonneg_on,
    sturm_chain,
)
from sharpcert.scalars import ExactScalar

U2_MINUS_4U = [rat(0), rat(-4), rat(1)]


def test_eval_examples():
    assert _horner(U2_MINUS_4U, rat(2)) == -4
    assert _horner([], rat(17)) == 0
    legendre2 = [rat(-1, 2), rat(0), rat(3, 2)]
    assert _horner(legendre2, rat(1)) == 1


def test_derivative():
    assert _deriv([rat(0), rat(0), rat(0), rat(1)]) == [0, 0, 3]


def test_from_scalars_mixed_grades_rejected():
    with pytest.raises(GradeMismatch):
        ExactPoly.from_scalars([ExactScalar(1, 0, 1), ExactScalar(1, 0, 2)])


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
    assert count_roots_halfopen(chain, rat(0), rat(16)) == 3
    assert count_roots_halfopen(chain, rat(2), rat(4)) == 1


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
