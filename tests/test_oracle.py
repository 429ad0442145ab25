import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from montecarlo import _unit_rows, mc_check_moment, mc_double_sphere_moment
from test_scheme import exact_delta, exact_eigen

from sharpcert.backend import rat
from sharpcert.kernels import MomentTable, magical_kernel_poly, nonmagical_kernel_poly
from sharpcert.oracle import _enclose, _pi_bounds, quad_eigen_enclosure
from sharpcert.polys import ExactPoly
from sharpcert.scalars import ExactScalar, _pi_fixed
from sharpcert.scheme import MAGICAL, NONMAGICAL, EigenTable

PI = ExactScalar(1, 0, 2)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
grades = st.tuples(st.integers(0, 1), st.integers(-6, 6))


def test_interval_third():
    iv = _enclose(ExactScalar(rat(1, 3)), 64)
    assert iv.contains(ExactScalar(rat(1, 3)))
    assert iv.hi - iv.lo <= 2.0**-59


def test_interval_pi():
    iv = _enclose(PI, 128)
    assert abs(float((iv.lo + iv.hi) / 2) - math.pi) < 1e-15
    assert PI.decimal(15) == "3.14159265358979"
    assert iv.hi - iv.lo < 2.0**-119


@pytest.mark.parametrize("bits", [32, 64, 200, 1000])
def test_pi_bounds_overlap_machin(bits):
    # Gauss's formula here, Machin's in the decimal renderer: two independent
    # enclosures of pi must meet, and each is a few units of 2^-bits wide
    lo, hi = _pi_bounds(bits)
    p, err = _pi_fixed(bits)
    assert lo < hi and (hi - lo) * 2**bits < 2**16
    assert lo * 2**bits < p + err and p - err < hi * 2**bits


def test_interval_zero():
    iv = _enclose(ExactScalar(0), 64)
    assert iv.lo == 0 and iv.hi == 0


@given(rationals, grades)
@settings(max_examples=150)
def test_interval_precision_nesting(p, g):
    x = ExactScalar(rat(p), *g)
    coarse = _enclose(x, 64)
    fine = _enclose(x, 128)
    assert coarse.contains(fine)


def test_constant_kernel_odd_k_contains_zero():
    iv = quad_eigen_enclosure(ExactPoly([1]), 1, 4)
    assert iv.contains(0.0)


def test_delta_d3_strictly_negative():
    iv = quad_eigen_enclosure("delta", 2, 3)
    assert iv.hi < 0
    assert iv.contains(exact_delta(EigenTable(3), 2))


def test_magical_m1_k2_d5_positive_and_tight():
    table = EigenTable(5)
    kernel = magical_kernel_poly(MomentTable(5), 1)
    iv = quad_eigen_enclosure(kernel, 2, 5)
    assert iv.lo > 0
    exact = exact_eigen(table, MAGICAL, 2, 2)
    assert iv.contains(exact)
    assert iv.hi - iv.lo < 2e-30


def _grid():
    """(kernel, k, d, exact eigenvalue) for a grid of kernels and degrees."""
    for d in (3, 6):
        table = EigenTable(d)
        mt = MomentTable(d)
        for k in (0, 2, 4):
            yield "delta", k, d, exact_delta(table, k)
        for m in (0, 2):
            mag = magical_kernel_poly(mt, m)
            non = nonmagical_kernel_poly(mt, m)
            for k in (0, 2, 6):
                yield mag, k, d, exact_eigen(table, MAGICAL, 2 * m, k)
                yield non, k, d, exact_eigen(table, NONMAGICAL, 2 * m, k)
    # delta eigenvalues of both parities of d, including the even-d case where
    # both quadrature pieces are exact and the enclosure is a rounding interval
    for d in (5, 8, 11):
        table = EigenTable(d)
        for k in (0, 2, 4, 8):
            yield "delta", k, d, exact_delta(table, k)


def test_enclosures_contain_exact_grid():
    for kernel, k, d, exact in _grid():
        assert quad_eigen_enclosure(kernel, k, d).contains(exact)


def _mpmath_enclosure(x: ExactScalar, prec: int = 160) -> tuple:
    """Exact rational ends of mpmath's own interval around x (public ``mpmath.iv``)."""
    iv = mpmath.iv
    saved, iv.prec = iv.prec, prec
    try:
        v = iv.mpf(x.coeff.numerator) / x.coeff.denominator
        v = v * iv.sqrt(2) ** x.sqrt2 * iv.sqrt(iv.pi) ** x.pi_half
    finally:
        iv.prec = saved
    with mpmath.workprec(prec):
        ends = [mpmath.mpf(v.a), mpmath.mpf(v.b)]
    # e 2^-e.exp is e's signed integer mantissa
    return tuple(int(mpmath.ldexp(e, -e.exp)) * Fraction(2) ** e.exp for e in ends)


def test_enclosures_overlap_mpmath_grid():
    # an enclosure of the exact value by mpmath's interval arithmetic, which
    # shares no code with the oracle, must meet the rational one
    for kernel, k, d, exact in _grid():
        ref_lo, ref_hi = _mpmath_enclosure(exact)
        for iv in quad_eigen_enclosure(kernel, k, d), _enclose(exact, 144):
            assert ref_lo <= iv.hi and iv.lo <= ref_hi


@pytest.mark.parametrize("precision_bits", [128, 256])
def test_rounding_enclosure_refutes_only_disjoint_values(precision_bits):
    # d=23, magical m=4, k=0: both quadrature pieces integrate exactly
    table = EigenTable(23)
    iv = quad_eigen_enclosure(table.kernel(8, "magical"), 0, 23, precision_bits)
    exact = exact_eigen(table, MAGICAL, 8, 0)
    assert iv.contains(exact)
    assert not iv.contains(exact * (1 + rat(1, 2 ** (precision_bits - 8))))
    assert not iv.contains(exact * (1 - rat(1, 2 ** (precision_bits - 8))))


def test_enclosure_input_validation():
    with pytest.raises(ValueError):
        quad_eigen_enclosure("delta", 2, 3, precision_bits=32)
    with pytest.raises(ValueError):
        quad_eigen_enclosure("nope", 2, 3)


def test_sampler_determinism_and_norms():
    a = _unit_rows(np.random.default_rng(99), 100, 5)
    b = _unit_rows(np.random.default_rng(99), 100, 5)
    assert np.array_equal(a, b)
    assert np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) < 1e-12)


def test_sampler_symmetry_moments():
    d, n = 4, 10**5
    pts = _unit_rows(np.random.default_rng(7), n, d)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(pts.mean(axis=0)) < 4 * se)
    first_sq = pts[:, 0] ** 2
    assert abs(first_sq.mean() - 1.0 / d) < 4 * first_sq.std() / np.sqrt(n)


def test_mc_reproducible():
    a = mc_double_sphere_moment(3, 1, 2, 10**4, 123)
    b = mc_double_sphere_moment(3, 1, 2, 10**4, 123)
    assert a == b


def test_mc_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        mc_double_sphere_moment(3, 0, 0, 100, 0)


def test_mc_total_mass():
    for d in (3, 5):
        est, ok = mc_check_moment(d, 0, 0, 10**4, seed=5)
        assert ok and est.stderr == 0.0


def test_mc_odd_k_near_zero():
    est, ok = mc_check_moment(4, 1, 3, 10**5, seed=11)
    assert ok
    assert abs(est.mean) <= 4 * est.stderr + 1e-9


def test_mc_known_moment():
    est, ok = mc_check_moment(3, 1, 0, 2 * 10**5, seed=2)
    assert ok
    assert abs(est.mean - 32 * np.pi**2) <= 4.5 * est.stderr
