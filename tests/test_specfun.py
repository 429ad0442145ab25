import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpcert.backend import rat
from sharpcert.polys import ExactPoly
from sharpcert.scalars import ExactScalar, sphere_surface
from sharpcert.specfun import (
    eigen_delta_weight,
    funk_hecke_eigen,
    gegenbauer,
    gegenbauer_at_one,
    gegenbauer_basis,
    mixed_moment,
    weighted_moment,
)

ZERO = ExactScalar(0)


def test_gegenbauer_low_degrees():
    assert gegenbauer(5, 0) == ExactPoly([1])
    assert gegenbauer(4, 1) == ExactPoly([0, 2])
    assert gegenbauer(3, 2) == ExactPoly([rat(-1, 2), rat(0), rat(3, 2)])


def test_gegenbauer_at_one():
    assert gegenbauer_at_one(7, 0) == ExactScalar(1)
    assert gegenbauer_at_one(3, 2) == ExactScalar(1)
    assert gegenbauer_at_one(4, 2) == ExactScalar(3)


def test_recurrence_holds():
    for d in (3, 4, 9):
        basis = gegenbauer_basis(d)
        nu = rat(d - 2, 2)
        for k in range(2, 9):
            lhs = basis.poly(k).scale(rat(k))
            rhs = (ExactPoly([0, 2]) * basis.poly(k - 1)).scale(
                rat(k) + nu - 1
            ) - basis.poly(k - 2).scale(rat(k) + 2 * nu - 2)
            assert lhs == rhs


def _inner(d, p, q):
    total = ZERO
    for a, ca in enumerate(p.coeffs):
        for b, cb in enumerate(q.coeffs):
            if ca and cb:
                total = total + weighted_moment(d, a + b) * (ca * cb)
    return total


def test_orthogonality_exact():
    for d in range(3, 13):
        basis = gegenbauer_basis(d)
        for j in range(11):
            for k in range(j + 1, 11):
                assert _inner(d, basis.poly(j), basis.poly(k)).is_zero()


def test_weighted_moment_examples():
    assert weighted_moment(4, 1).is_zero()
    assert weighted_moment(3, 0) == ExactScalar(2)
    assert weighted_moment(3, 2) == ExactScalar(rat(2, 3))


def test_mixed_moment_examples():
    assert mixed_moment(3, 0) == ExactScalar(rat(4, 3), 1, 0)  # (4/3) sqrt2
    assert mixed_moment(4, 0) == ExactScalar(rat(4, 3))
    # d=4, a=1: integrand t(1-t)(1+t) is odd
    assert mixed_moment(4, 1).is_zero()


def test_funk_hecke_constant_kernel():
    const = ExactPoly([rat(5, 3)])
    for d in (3, 4, 8):
        for k in (1, 2, 5):
            assert funk_hecke_eigen(const, k, d).is_zero()
        assert funk_hecke_eigen(const, 0, d) == sphere_surface(d) * ExactScalar(rat(5, 3))


def test_funk_hecke_low_degree_kernel():
    assert funk_hecke_eigen(ExactPoly([0, 1]), 2, 3).is_zero()


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=9),
    st.sampled_from([3, 4, 6, 9]),
)
@settings(max_examples=60, deadline=None)
def test_orthogonality_kills_high_k(cs, d):
    kernel = ExactPoly([rat(c) for c in cs])
    k = kernel.degree() + 1 + (len(cs) % 3)
    assert funk_hecke_eigen(kernel, k, d).is_zero()


def test_delta_eigen_signs():
    assert eigen_delta_weight(2, 3).sign() == -1
    for d in (3, 4, 7, 12):
        assert eigen_delta_weight(0, d).sign() == 1


def test_delta_eigen_rejects_odd_k():
    with pytest.raises(ValueError):
        eigen_delta_weight(3, 5)


def test_flip_identity():
    # the t -> -t image of the delta-weight integral toggles the sign of the
    # odd Gegenbauer coefficients; for even k they vanish and both agree
    from sharpcert.kernels import delta_kernel_closed_form

    for d in (3, 5, 8, 11):
        basis = gegenbauer_basis(d)
        const = delta_kernel_closed_form(d).constant
        for k in (0, 2, 4, 8):
            flipped = ZERO
            for b, cb in enumerate(basis.poly(k).coeffs):
                if cb != 0:
                    flipped = flipped + mixed_moment(d, b) * (cb if b % 2 == 0 else -cb)
            flipped = sphere_surface(d - 1) / basis.at_one(k) * const * flipped
            assert eigen_delta_weight(k, d) == flipped


def test_delta_eigen_grade_coherence():
    for d in (3, 4, 8, 9):
        grades = {
            eigen_delta_weight(k, d).grade
            for k in range(0, 22, 2)
            if not eigen_delta_weight(k, d).is_zero()
        }
        assert len(grades) == 1
