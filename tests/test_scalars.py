import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpcert.backend import rat
from sharpcert.errors import GradeMismatch
from sharpcert.scalars import (
    ExactScalar,
    beta_half_int,
    gamma_half_int,
    sphere_surface,
)

PI = ExactScalar(1, 0, 2)
SQRT_PI = ExactScalar(1, 0, 1)
SQRT2 = ExactScalar(1, 1, 0)


def test_gamma_examples():
    assert gamma_half_int(2) == ExactScalar(1)
    assert gamma_half_int(1) == SQRT_PI
    assert gamma_half_int(5) == ExactScalar(rat(3, 4), 0, 1)


def test_gamma_recurrence():
    for two_a in range(1, 41):
        lhs = gamma_half_int(two_a + 2)
        rhs = gamma_half_int(two_a) * ExactScalar(rat(two_a, 2))
        assert lhs == rhs


def test_beta_examples():
    assert beta_half_int(2, 2) == ExactScalar(1)
    assert beta_half_int(1, 1) == PI
    assert beta_half_int(3, 3) == ExactScalar(rat(1, 8), 0, 2)


def test_sphere_surface():
    assert sphere_surface(2) == ExactScalar(2, 0, 2)
    assert sphere_surface(3) == ExactScalar(4, 0, 2)
    assert sphere_surface(4) == ExactScalar(2, 0, 4)


def test_sphere_surface_recursion():
    two_pi = ExactScalar(2, 0, 2)
    for d in range(1, 21):
        assert sphere_surface(d + 2) == two_pi * sphere_surface(d) / ExactScalar(d)


def test_add_same_grade():
    g = (1, 3)
    a = ExactScalar(rat(1, 2), *g)
    b = ExactScalar(rat(1, 3), *g)
    assert a + b == ExactScalar(rat(5, 6), *g)


def test_add_zero_any_grade():
    x = ExactScalar(rat(7, 2), 1, -5)
    assert x + ExactScalar(0) == x
    assert ExactScalar(0) + x == x


def test_add_grade_mismatch():
    with pytest.raises(GradeMismatch):
        SQRT_PI + PI


def test_sqrt_products_fold():
    assert SQRT_PI * SQRT_PI == PI
    assert SQRT2 * SQRT2 == ExactScalar(2)


def test_sign():
    assert ExactScalar(rat(-3, 7), 0, 1).sign() == -1
    assert ExactScalar(0).sign() == 0
    assert SQRT2.sign() == 1


def test_division():
    x = ExactScalar(rat(3, 4), 1, 2)
    assert x / x == ExactScalar(1)
    with pytest.raises(ZeroDivisionError):
        x / ExactScalar(0)


def test_canonical_zero():
    z = ExactScalar(0, 1, 7)
    assert z.sqrt2 == 0 and z.pi_half == 0


def test_sqrt2_folding_canonical():
    # even powers of sqrt2 land in the rational part
    x = ExactScalar(1, 4, 0)
    assert x == ExactScalar(4) and x.sqrt2 == 0
    y = ExactScalar(1, 3, 0)
    assert y == ExactScalar(2, 1, 0)
    z = ExactScalar(1, -1, 0)
    assert z == ExactScalar(rat(1, 2), 1, 0)


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
grades = st.tuples(st.integers(0, 1), st.integers(-6, 6))


@given(rationals, rationals, rationals, grades)
@settings(max_examples=200)
def test_field_laws_same_grade(p, q, r, g):
    a = ExactScalar(rat(p), *g)
    b = ExactScalar(rat(q), *g)
    c = ExactScalar(rat(r), *g)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ExactScalar(0)


@given(rationals, grades, rationals, grades)
@settings(max_examples=200)
def test_mul_grades_add(p, g1, q, g2):
    a = ExactScalar(rat(p), *g1)
    b = ExactScalar(rat(q), *g2)
    prod = a * b
    if not prod.is_zero():
        assert prod.pi_half == g1[1] + g2[1]
        assert prod.sqrt2 == (g1[0] + g2[0]) % 2


def test_interval_third():
    iv = ExactScalar(rat(1, 3)).to_interval(64)
    assert iv.contains(ExactScalar(rat(1, 3)))
    assert iv.hi - iv.lo <= 2.0**-59


def test_interval_pi():
    import math

    iv = PI.to_interval(128)
    assert abs(float(iv.center) - math.pi) < 1e-15
    assert iv.decimal(15).startswith("3.14159265358979")
    assert iv.hi - iv.lo < 2.0**-119


def test_interval_zero():
    iv = ExactScalar(0).to_interval(64)
    assert iv.lo == 0 and iv.hi == 0


@given(rationals, grades)
@settings(max_examples=150)
def test_interval_precision_nesting(p, g):
    x = ExactScalar(rat(p), *g)
    coarse = x.to_interval(64)
    fine = x.to_interval(128)
    assert coarse.contains(fine)


def test_json_round_trip():
    x = ExactScalar(rat(-22, 7), 1, -3)
    assert ExactScalar.from_json(x.to_json()) == x
