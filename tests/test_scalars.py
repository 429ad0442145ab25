import copy
import pickle

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sharpcert.backend import rat, rat_parse
from sharpcert.scalars import (
    ZERO,
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


def test_values_are_not_added():
    # sums run on rational parts under a grade fixed by d, never on ExactScalars
    for a, b in ((SQRT_PI, SQRT_PI), (SQRT_PI, PI)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


def test_sqrt_products_fold():
    assert SQRT_PI * SQRT_PI == PI
    assert SQRT2 * SQRT2 == ExactScalar(2)


def test_sign():
    assert ExactScalar(rat(-3, 7), 0, 1).sign() == -1
    assert ExactScalar(0).sign() == 0
    assert SQRT2.sign() == 1
    tiny = ExactScalar(rat(1, 10**40), 1, 3)
    assert tiny.sign() == 1 and type(tiny.sign()) is int and not tiny.is_zero()
    assert ExactScalar(0).is_zero()


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


def test_integer_coefficients_stay_exact():
    # an int coefficient becomes a rational, so int / int never goes through a float
    assert (ExactScalar(2) / ExactScalar(3)).coeff == rat(2, 3)
    # an odd negative power of sqrt2 folds 1 / 4 into the coefficient
    x = ExactScalar(1, -3)
    assert x.coeff == rat(1, 4) and x.sqrt2 == 1
    assert repr(x) == "ExactScalar(1/4*sqrt2)"
    with pytest.raises(TypeError):
        ExactScalar(0.5)


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
grades = st.tuples(st.integers(0, 1), st.integers(-6, 6))


@given(rationals, grades, rationals, grades)
@settings(max_examples=200)
def test_mul_grades_add(p, g1, q, g2):
    a = ExactScalar(rat(p), *g1)
    b = ExactScalar(rat(q), *g2)
    prod = a * b
    if not prod.is_zero():
        assert prod.pi_half == g1[1] + g2[1]
        assert prod.sqrt2 == (g1[0] + g2[0]) % 2


def _mpmath_decimal(x: ExactScalar, digits: int) -> str:
    """The reference rendering: mpmath at 512 bits."""
    with mpmath.workprec(512):
        v = mpmath.mpf(x.coeff.numerator) / x.coeff.denominator
        v *= mpmath.sqrt(2) ** x.sqrt2 * mpmath.sqrt(mpmath.pi) ** x.pi_half
        return mpmath.nstr(v, digits, strip_zeros=False)


def _is_decimal_tie(x: ExactScalar, digits: int) -> bool:
    """An exact tie: a rational whose digits past the last kept one are exactly 5."""
    if x.grade != (0, 0) or x.is_zero():
        return False
    c, e = abs(x.coeff), 0
    while c >= 10**(e + 1):
        e += 1
    while c < 10**e:
        e -= 1
    y = 2 * c * rat(10) ** (digits - 1 - e)
    return y.denominator == 1 and y.numerator % 2 == 1


@given(
    st.integers(-(10**60), 10**60).filter(bool),
    st.integers(1, 10**60),
    st.integers(0, 1),
    st.integers(-80, 80),
)
@settings(max_examples=300, deadline=None)
def test_decimal_matches_mpmath(p, q, sqrt2, pi_half):
    x = ExactScalar(rat(p, q), sqrt2, pi_half)
    assume(not _is_decimal_tie(x, 30))
    assert x.decimal(30) == _mpmath_decimal(x, 30)


@pytest.mark.parametrize(
    "x, want",
    [
        # decimal exponent -10 is the first in scientific notation, -9 the last fixed
        (ExactScalar(rat(123, 10**12)), "1.23000000000000000000000000000e-10"),
        (ExactScalar(rat(123, 10**11)), "0.00000000123000000000000000000000000000"),
        # exponent 29 is the last fixed (the point closes the string), 30 the first scientific
        (ExactScalar(rat(10**29)), "100000000000000000000000000000."),
        (ExactScalar(rat(10**30)), "1.00000000000000000000000000000e+30"),
        # a carry to 10^30 raises the exponent by one
        (ExactScalar(rat(10**31 - 1, 10)), "1.00000000000000000000000000000e+30"),
        (ExactScalar(rat(-(10**31) + 1, 10)), "-1.00000000000000000000000000000e+30"),
        (ExactScalar(rat(-1, 3), 1, -3), None),
        (-PI, "-3.14159265358979323846264338328"),
        (ExactScalar(0), "0.0"),
    ],
    ids=["e_minus_10", "e_minus_9", "e_29", "e_30", "carry", "carry_negative",
         "negative_graded", "negative_pi", "zero"],
)
def test_decimal_layout(x, want):
    got = x.decimal(30)
    assert got == _mpmath_decimal(x, 30)
    if want is not None:
        assert got == want


def test_decimal_ties_round_half_up_in_magnitude():
    # 10^30 + 5 has 31 digits and ends in 5: an exact tie at 30 digits
    tie = ExactScalar(rat(10**30 + 5))
    assert _is_decimal_tie(tie, 30)
    assert tie.decimal(30) == "1.00000000000000000000000000001e+30"
    assert (-tie).decimal(30) == "-1.00000000000000000000000000001e+30"
    assert ExactScalar(rat(1, 40)).decimal(1) == "0.03"


def test_decimal_digits():
    assert PI.decimal(15) == "3.14159265358979"
    assert PI.decimal(1) == "3." == _mpmath_decimal(PI, 1)
    with pytest.raises(ValueError):
        PI.decimal(0)


@pytest.mark.parametrize("value", [rat(-7, 3), ZERO, ExactScalar(rat(5, 2), 1, -3)],
                         ids=["rational", "zero", "scalar"])
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_rebuild_the_value(value, how):
    # both types block attribute writes, so the default slot-state restore
    # cannot run: each rebuilds itself from its fields
    back = how(value)
    assert type(back) is type(value) and back == value and hash(back) == hash(value)
    fields = value.__slots__
    assert [getattr(back, f) for f in fields] == [getattr(value, f) for f in fields]
    with pytest.raises(AttributeError):
        setattr(back, fields[0], rat(1))


def test_json_round_trip():
    x = ExactScalar(rat(-22, 7), 1, -3)
    assert ExactScalar.from_json(x.to_json()) == x


def test_json_zero_loads_as_shared_zero():
    # a zero drops its grade, as the constructor does
    x = ExactScalar.from_json({"rational": "0", "sqrt2": 1, "pi_half": 7})
    assert x is ZERO and x == ExactScalar(0, 1, 7)
    assert x.grade == (0, 0)
    for text in ("-0", "00", "0/5"):  # other spellings of zero take the ordinary path
        assert ExactScalar.from_json({"rational": text, "sqrt2": 1, "pi_half": 7}) == ZERO


def test_json_reads_signed_values_and_passes_the_shared_zero_through():
    x = ExactScalar(rat(22, 7), 1, -3)
    assert ExactScalar.from_json(x.to_json(), -1) == -x
    assert ExactScalar.from_json(x.to_json(), 1) == x
    assert ExactScalar.from_json(ZERO) is ZERO


# the zero shortcut runs only after the grade fields are checked
@pytest.mark.parametrize("field, value", [("sqrt2", 2), ("sqrt2", True), ("pi_half", "1")])
def test_json_zero_still_checks_grade_fields(field, value):
    with pytest.raises(ValueError):
        ExactScalar.from_json({"rational": "0", "sqrt2": 0, "pi_half": 0, field: value})


@pytest.mark.parametrize("text, want", [("2/4", rat(1, 2)), ("-0", rat(0)), ("007", rat(7)),
                                        ("-6/3", rat(-2)), ("12", rat(12))])
def test_rat_parse_normalises(text, want):
    assert rat_parse(text) == want


# int() alone would accept a plus sign, spaces, underscores and non-ASCII digits
@pytest.mark.parametrize("text", ["", "+1", "1/-2", "1/", " 1", "1_0", "\u0663", "1/\u0663", None])
def test_rat_parse_rejects(text):
    with pytest.raises(ValueError):
        rat_parse(text)
