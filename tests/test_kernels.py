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
from sharpcert.polys import ExactPoly
from sharpcert.scalars import ExactScalar, sphere_surface


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
    for d in (3, 5, 8):
        assert directional_sphere_moment(d, 0) == sphere_surface(d)
        # trace identity: the K=2 moment is |S^{d-1}|/d
        assert directional_sphere_moment(d, 2) == sphere_surface(d) / ExactScalar(d)


def test_double_sphere_moment_examples():
    for d in (3, 4, 7):
        table = MomentTable(d)
        s2 = sphere_surface(d) * sphere_surface(d)
        assert table.get(0, 0) == s2
        for j in (0, 1, 2):
            assert table.get(j, 3).is_zero()
            assert table.get(j, 2).sign() == 1
    assert MomentTable(3).get(1, 0) == ExactScalar(32, 0, 4)


def test_delta_kernel_constant():
    k3 = delta_kernel_closed_form(3)
    assert k3.constant == ExactScalar(rat(3, 2), 1, 2)  # (3 pi / 2) sqrt 2
    assert delta_kernel_closed_form(4).constant.sqrt2 == 0
    for d in range(3, 20):
        assert delta_kernel_closed_form(d).constant.sign() == 1


def test_magical_m0_identity():
    for d in range(3, 17):
        s2 = sphere_surface(d) * sphere_surface(d)
        expect = ExactPoly.from_scalars([s2, s2 * rat(1, 2)])
        assert magical_kernel_poly(MomentTable(d), 0) == expect


def test_magical_degree_and_leading():
    for d in (3, 6, 12):
        table = MomentTable(d)
        s2 = sphere_surface(d) * sphere_surface(d)
        for m in range(9):
            poly = magical_kernel_poly(table, m)
            assert poly.degree() == m + 1
            lead = poly.leading_scalar()
            assert lead == s2 * ExactScalar(rat(2) ** (m - 1))
            assert lead.sign() == 1


def test_nonmagical_degree_and_examples():
    for d in (3, 5, 10):
        table = MomentTable(d)
        for m in range(9):
            poly = nonmagical_kernel_poly(table, m)
            assert poly.degree() == m
            assert poly.leading_scalar().sign() == 1
    assert nonmagical_kernel_poly(MomentTable(3), 0) == ExactPoly.from_scalars(
        [sphere_surface(3) * sphere_surface(3)]
    )
    # m=1, d=3: 2|S^2|^2 t + 2|S^2|^2 + C(3,1,0)
    s2 = sphere_surface(3) * sphere_surface(3)
    expect = ExactPoly.from_scalars(
        [s2 * 2 + ExactScalar(32, 0, 4), s2 * 2]
    )
    assert nonmagical_kernel_poly(MomentTable(3), 1) == expect
