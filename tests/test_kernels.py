from functools import cache
from math import factorial

import pytest

from sharpcert.backend import rat
from sharpcert.kernels import (
    MomentTable,
    delta_kernel_closed_form,
    directional_sphere_moment,
    magical_kernel_poly,
    nonmagical_kernel_poly,
    radial_moment,
    sigma_conv_constant,
)
from sharpcert.polys import RAT_GRADE, ExactPoly
from sharpcert.scalars import ExactScalar, sphere_surface


class MixedGrades(ValueError):
    """Coefficients given to :func:`from_scalars` have distinct grades."""


def from_scalars(scalars) -> ExactPoly:
    """An ExactPoly from ExactScalar coefficients, which must share one grade."""
    grades = {s.grade for s in scalars if not s.is_zero()}
    if len(grades) > 1:
        raise MixedGrades(f"coefficient grades {sorted(grades)} differ")
    return ExactPoly([s.coeff for s in scalars], grades.pop() if grades else RAT_GRADE)


def graded_sum(values) -> ExactScalar:
    """The sum of ExactScalars that share one grade (zeros aside), added as rational parts."""
    values = [v for v in values if not v.is_zero()]
    grades = {v.grade for v in values}
    if len(grades) > 1:
        raise MixedGrades(f"summand grades {sorted(grades)} differ")
    return ExactScalar(sum((v.coeff for v in values), rat(0)), *(grades.pop() if grades else RAT_GRADE))


def graded(table, j):
    """C(d, J, 0) as an ExactScalar: the table's rational part times its one grade."""
    return ExactScalar(table.get(j), *table.grade)


@cache
def double_sphere_moment(d, j, k):
    """C(d, J, K) as the product of its three Beta-valued factors; zero for odd K."""
    return sigma_conv_constant(d) * directional_sphere_moment(d, k) * radial_moment(d, 2 * j + k + d - 2)


def moment(table, j, k):
    """The rational part of C(d, J, K), whose grade is ``table.grade``.

    That is the table's entry at K = 0, and the Beta product's past it.
    """
    if k == 0:
        return table.get(j)
    value = double_sphere_moment(table.d, j, k)
    assert value.is_zero() or value.grade == table.grade
    return value.coeff


def test_sigma_conv_constant():
    assert sigma_conv_constant(3) == ExactScalar(2, 0, 2)  # 2 pi
    for d in range(3, 17):
        assert sigma_conv_constant(d).sign() == 1
    assert sigma_conv_constant(4) == ExactScalar(2, 0, 2)  # 2 pi again at d=4


def test_radial_moment_examples():
    assert radial_moment(3, 0) == ExactScalar(2)
    assert radial_moment(3, 2) == ExactScalar(rat(8, 3))
    assert radial_moment(4, 1) == ExactScalar(rat(8, 3))


def test_directional_moment_examples():
    for d in (2, 3, 5, 8):
        assert directional_sphere_moment(d, 0) == sphere_surface(d)
        # trace identity: the K=2 moment is |S^{d-1}|/d
        assert directional_sphere_moment(d, 2) == sphere_surface(d) / ExactScalar(d)
        assert directional_sphere_moment(d, 3).is_zero()


def test_double_sphere_moment_examples():
    for d in (3, 4, 7):
        table = MomentTable(d)
        s2 = sphere_surface(d) * sphere_surface(d)
        assert graded(table, 0) == s2
        for j in (0, 1, 2):
            assert double_sphere_moment(d, j, 3).is_zero()
            assert double_sphere_moment(d, j, 2).sign() == 1
    assert graded(MomentTable(3), 1) == ExactScalar(32, 0, 4)


@pytest.mark.parametrize("d", [7, 8, 24, 25])
def test_moments_share_one_grade(d):
    # kernels sum the moments' rational parts under MomentTable.grade, the
    # grade of C(d, 0, 0) = |S^{d-1}|^2; each table entry is its Beta product
    table = MomentTable(d)
    assert table.grade == (sphere_surface(d) * sphere_surface(d)).grade
    assert all(graded(table, j) == double_sphere_moment(d, j, 0) for j in range(2 * d))
    assert {double_sphere_moment(d, j, k).grade
            for j in range(2 * d) for k in range(0, 12, 2)} == {table.grade}


def test_delta_kernel_constant():
    assert delta_kernel_closed_form(3) == ExactScalar(rat(3, 2), 1, 2)  # (3 pi / 2) sqrt 2
    assert delta_kernel_closed_form(4).sqrt2 == 0
    for d in range(3, 20):
        assert delta_kernel_closed_form(d).sign() == 1


def test_magical_m0_identity():
    for d in range(3, 17):
        s2 = sphere_surface(d) * sphere_surface(d)
        # m = 0: |S^{d-1}|^2 (1 + s)/2 in s = 1+t
        expect = from_scalars([s2 * rat(1, 2), s2 * rat(1, 2)])
        assert magical_kernel_poly(MomentTable(d), 0) == expect


def test_magical_degree_and_leading():
    for d in (3, 6, 12):
        table = MomentTable(d)
        s2 = sphere_surface(d) * sphere_surface(d)
        for m in range(9):
            poly = magical_kernel_poly(table, m)
            assert poly.degree() == m + 1
            lead = ExactScalar(poly.coeffs[-1], *poly.grade)
            assert lead == s2 * ExactScalar(rat(2) ** (m - 1))
            assert lead.sign() == 1


def test_nonmagical_degree_and_examples():
    for d in (3, 5, 10):
        table = MomentTable(d)
        for m in range(9):
            poly = nonmagical_kernel_poly(table, m)
            assert poly.degree() == m
            assert ExactScalar(poly.coeffs[-1], *poly.grade).sign() == 1
    assert nonmagical_kernel_poly(MomentTable(3), 0) == from_scalars(
        [sphere_surface(3) * sphere_surface(3)]
    )
    # m=1, d=3: C(3,1,0) + 2|S^2|^2 s, with s = 1+t
    s2 = sphere_surface(3) * sphere_surface(3)
    expect = from_scalars([ExactScalar(32, 0, 4), s2 * 2])
    assert nonmagical_kernel_poly(MomentTable(3), 1) == expect
    # m=2: E |x + rho omega|^4 = alpha^2 + rho^4 + (2 + 4/d) alpha rho^2, alpha = 2s
    for d in (3, 4, 9, 24):
        table = MomentTable(d)
        expect = from_scalars(
            [graded(table, 2), graded(table, 1) * (2 * (2 + rat(4, d))), graded(table, 0) * 4]
        )
        assert nonmagical_kernel_poly(table, 2) == expect


def _multinomial(m, i, j, k):
    return factorial(m) // (factorial(i) * factorial(j) * factorial(k))


def _trinomial_kernel(table, m, magical):
    """Reference: expand (alpha + beta + gamma)^m term by term.

    alpha = |w1+w2|^2 = 2s, beta = |w3+w4|^2 and gamma = 2 (w1+w2).(w3+w4);
    beta^j gamma^k integrates to 2^k C(d, j, k) alpha^{k/2}, the table's entry at
    k = 0 and the Beta product past it.  The magical
    family multiplies by the quartic factor (alpha + beta - gamma/2)/4 first.
    Every C(d, j, k) has the table's grade, so the sums run on rational parts.
    """
    acc = {}

    def add(power, value):
        acc[power] = acc.get(power, 0) + value

    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            w = rat(_multinomial(m, i, j, k) * 2**k)
            if not magical:
                add(i + k // 2, moment(table, j, k) * w)
                continue
            w = w / 4
            if k % 2 == 0:
                add(i + 1 + k // 2, moment(table, j, k) * w)
                add(i + k // 2, moment(table, j + 1, k) * w)
            else:
                add(i + (k + 1) // 2, moment(table, j, k + 1) * (-w))
    return ExactPoly([acc.get(p, rat(0)) * 2**p for p in range(max(acc) + 1)], table.grade)


@pytest.mark.parametrize("d", [*range(3, 14), 24, 33, 48])
def test_kernels_match_trinomial_reference(d):
    table = MomentTable(d)
    for m in range(13):
        assert magical_kernel_poly(table, m) == _trinomial_kernel(table, m, magical=True)
        assert nonmagical_kernel_poly(table, m) == _trinomial_kernel(table, m, magical=False)
