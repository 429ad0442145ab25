import sys
import threading
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpcert.backend import rat
from sharpcert.polys import ExactPoly
from sharpcert.scalars import ExactScalar, beta_half_int, sphere_surface
from sharpcert.specfun import (
    eigen_delta_weight,
    funk_hecke_eigen,
    gegenbauer,
    gegenbauer_at_one,
    gegenbauer_basis,
    jacobi_moment,
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
            # k C_k = 2 (k + nu - 1) t C_{k-1} - (k + 2 nu - 2) C_{k-2} at ten
            # points, which pins down an identity of degree <= 8
            for t in range(-4, 6):
                lhs = basis.poly(k).eval_at(t) * k
                rhs = basis.poly(k - 1).eval_at(t) * (2 * (k + nu - 1) * t) - basis.poly(
                    k - 2
                ).eval_at(t) * (k + 2 * nu - 2)
                assert lhs == rhs


def _inner(d, p, q):
    total = ZERO
    for a, ca in enumerate(p.coeffs):
        for b, cb in enumerate(q.coeffs):
            if ca and cb:
                total = total + jacobi_moment(d - 3, d - 3, a + b) * (ca * cb)
    return total


def test_orthogonality_exact():
    for d in range(3, 13):
        basis = gegenbauer_basis(d)
        for j in range(11):
            for k in range(j + 1, 11):
                assert _inner(d, basis.poly(j), basis.poly(k)).is_zero()


def test_jacobi_moment_symmetric_examples():
    assert jacobi_moment(1, 1, 1).is_zero()
    assert jacobi_moment(0, 0, 0) == ExactScalar(2)
    assert jacobi_moment(0, 0, 2) == ExactScalar(rat(2, 3))


def test_jacobi_moment_delta_weight_examples():
    assert jacobi_moment(1, 0, 0) == ExactScalar(rat(4, 3), 1, 0)  # (4/3) sqrt2
    assert jacobi_moment(2, 2, 0) == ExactScalar(rat(4, 3))
    # d=4: (1+t)(1-t) is even, so its first moment vanishes
    assert jacobi_moment(2, 2, 1).is_zero()


def _binomial_moment(two_alpha, two_beta, n):
    # t^n = (s - 1)^n with s = 1+t; each (1+t)^{a+j} (1-t)^b term is one Beta
    # value 2^{a+b+j+1} B(a+j+1, b+1)
    total = ZERO
    for j in range(n + 1):
        beta = beta_half_int(two_alpha + 2 * j + 2, two_beta + 2)
        term = ExactScalar(1, two_alpha + two_beta + 2 * j + 2, 0) * beta
        total = total + term * ((-1) ** (n - j) * comb(n, j))
    return total


def test_jacobi_moment_matches_independent_references():
    # the symmetric weight (1-t^2)^{(d-3)/2}: zero for odd a, B((a+1)/2, (d-1)/2) for even a
    for d in range(3, 31):
        for a in range(61):
            expect = ZERO if a % 2 else beta_half_int(a + 1, d - 1)
            assert jacobi_moment(d - 3, d - 3, a) == expect
    # the delta weight (1+t)^{(d-2)/2} (1-t)^{d-3}, through (1-t)^{d-3} expanded
    for d in (3, 4, 7, 12):
        for a in range(16):
            assert jacobi_moment(d - 2, 2 * d - 6, a) == _t_power_moment(d, a)
    for two_alpha in range(-1, 6):
        for two_beta in range(-1, 6):
            for n in range(9):
                assert jacobi_moment(two_alpha, two_beta, n) == _binomial_moment(two_alpha, two_beta, n)


def test_jacobi_moment_threads_never_shift_entries():
    # weights no other test uses, so the threads race to build each sequence
    weights, top = [(9, 2 * j + 13) for j in range(6)], 30
    expect = {w: [_binomial_moment(*w, n) for n in range(top)] for w in weights}
    got = [[] for _ in range(6)]
    start = threading.Barrier(6)

    def work(i):
        start.wait(timeout=60)
        for w in weights:
            for n in range(top):
                got[i].append((w, n, jacobi_moment(*w, n)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for triples in got:
        assert len(triples) == len(weights) * top
        assert all(v == expect[w][n] for w, n, v in triples)


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


def _t_power_moment(d, a):
    # int_{-1}^{1} t^a (1-t)^{d-3} (1+t)^{(d-2)/2} dt by expanding (1-t)^{d-3}
    # and then t^m in s = (1+t)/2: an independent route to the delta integrand
    total = rat(0)
    for i in range(d - 2):
        m = a + i
        for j in range(m + 1):
            total += (-1) ** (i + m - j) * comb(d - 3, i) * comb(m, j) * 2**j * rat(2, d + 2 * j)
    return ExactScalar(total * 2 ** (d // 2), d % 2, 0)


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
                    flipped = flipped + _t_power_moment(d, b) * (cb if b % 2 == 0 else -cb)
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
