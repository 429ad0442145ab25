import numpy as np
import pytest

from sharpcert.backend import rat
from sharpcert.kernels import MomentTable, magical_kernel_poly, nonmagical_kernel_poly
from sharpcert.oracle import (
    _unit_rows,
    mc_agrees,
    mc_check_moment,
    mc_double_sphere_moment,
    quad_eigen_enclosure,
)
from sharpcert.polys import ExactPoly
from sharpcert.scheme import EigenTable


def test_constant_kernel_odd_k_contains_zero():
    iv = quad_eigen_enclosure(ExactPoly([1]), 1, 4)
    assert iv.contains(0.0)


def test_delta_d3_strictly_negative():
    iv = quad_eigen_enclosure("delta", 2, 3)
    assert iv.strictly_negative()
    assert iv.contains(EigenTable(3).delta(2))


def test_magical_m1_k2_d5_positive_and_tight():
    table = EigenTable(5)
    kernel = magical_kernel_poly(MomentTable(5), 1)
    iv = quad_eigen_enclosure(kernel, 2, 5)
    assert iv.strictly_positive()
    exact = table.mag(2, 2)
    assert iv.contains(exact)
    assert float(iv.radius) < 1e-30


def test_enclosures_contain_exact_grid():
    for d in (3, 6):
        table = EigenTable(d)
        mt = MomentTable(d)
        for k in (0, 2, 4):
            assert quad_eigen_enclosure("delta", k, d).contains(table.delta(k))
        for m in (0, 2):
            mag = magical_kernel_poly(mt, m)
            non = nonmagical_kernel_poly(mt, m)
            for k in (0, 2, 6):
                assert quad_eigen_enclosure(mag, k, d).contains(table.mag(2 * m, k))
                assert quad_eigen_enclosure(non, k, d).contains(table.nonmag(2 * m, k))
    # delta eigenvalues of both parities of d, including the even-d case where
    # both quadrature pieces are exact and the enclosure is a rounding interval
    for d in (5, 8, 11):
        table = EigenTable(d)
        for k in (0, 2, 4, 8):
            assert quad_eigen_enclosure("delta", k, d).contains(table.delta(k))


@pytest.mark.parametrize("precision_bits", [128, 256])
def test_rounding_enclosure_refutes_only_disjoint_values(precision_bits):
    # d=23, magical m=4, k=0: both quadrature pieces integrate exactly
    table = EigenTable(23)
    iv = quad_eigen_enclosure(table.kernel(8, "magical"), 0, 23, precision_bits)
    exact = table.mag(8, 0)
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
