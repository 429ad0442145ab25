"""Exact construction of the three zonal kernel families.

The delta-weight kernel has the closed form C_d (1+t)^{1/2} (1-t)^{(d-3)/2};
the polynomial families come from integrating powers of |w1+w2+w3+w4| (times
the quartic-form factor M for the "magical" family) over two sphere copies.
Write x = w1+w2, alpha = |x|^2 and y = w3+w4 = rho omega.  The direction
omega of y is uniform on S^{d-1}, E (e . omega)^{2l} = (1/2)_l / (d/2)_l for
a unit e, and the Chu-Vandermonde sum 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
(DLMF 15.4.24) collapses the binomial expansion of |x + rho omega|^{2m} to

    E |x + rho omega|^{2m} = sum_n C(m,n) (d/2+m-n)_n / (d/2)_n alpha^n rho^{2(m-n)},

with (a)_n = a (a+1) ... (a+n-1) the Pochhammer symbol.  The radial powers
then integrate to the moment constants C(d, J, 0), which one ``MomentTable``
per call holds; nothing here is kept for the process.  With beta = |y|^2 and
gamma = 2 x . y, the quartic factor (alpha + beta - gamma/2)/4 splits as
(3/8)(alpha + beta) - |x+y|^2/8, so the magical kernel is three such sums.
Since |w1+w2|^2 = 2s with s = 1 + t = 1 + w1 . w2, a power alpha^p is
2^p s^p, so the polynomial kernels come out as ExactPolys in s directly.
The kernels serve only ``eigen``'s quadrature oracle: certify and verify
sum each eigenvalue from the moments (``specfun.funk_hecke_eigen``).
"""

from __future__ import annotations

from .backend import rat
from .polys import ExactPoly
from .scalars import ZERO, ExactScalar, beta_half_int, sphere_surface


def radial_moment(d: int, a: int) -> ExactScalar:
    """Exact int_0^2 r^a (4 - r^2)^{(d-3)/2} dr (via r = 2x and Beta values)."""
    if d < 3 or a < 0:
        raise ValueError("need d >= 3 and a >= 0")
    return ExactScalar(2 ** (a + d - 3)) * beta_half_int(a + 1, d - 1)


def sigma_conv_constant(d: int) -> ExactScalar:
    """The constant c_d in (sigma*sigma)(x) = c_d |x|^{-1} (4-|x|^2)_+^{(d-3)/2}.

    Pinned down by mass normalization: the convolution of the surface
    measure with itself has total mass |S^{d-1}|^2.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    return sphere_surface(d) / radial_moment(d, d - 2)


def directional_sphere_moment(d: int, k: int) -> ExactScalar:
    """Exact int_{S^{d-1}} (e . w)^k dsigma(w) for a unit vector e; zero for odd k."""
    if d < 2 or k < 0:
        raise ValueError("need d >= 2 and k >= 0")
    if k % 2 == 1:
        return ZERO
    # |S^{d-2}| int_{-1}^{1} t^k (1-t^2)^{(d-3)/2} dt
    return sphere_surface(d - 1) * beta_half_int(k + 1, d - 1)


def delta_kernel_closed_form(d: int) -> ExactScalar:
    """The constant C_d of the delta-weight kernel C_d (1+t)^{1/2} (1-t)^{(d-3)/2}.

    On the support of delta(w1+w2+w3+w4) we have w3+w4 = -(w1+w2), so the
    quartic-form factor reduces to (3/4)|w1+w2|^2; substituting
    |w1+w2|^2 = 2+2t into the radial convolution profile gives
    C_d = (3/4) c_d 2^{(d-2)/2}.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    const = sigma_conv_constant(d) * ExactScalar(rat(3, 4), d - 2, 0)
    if const.sign() <= 0:
        raise ArithmeticError("kernel constant must be positive")
    return const


class MomentTable:
    """The moments C(d, J, 0) = int int |w3+w4|^{2J} dsigma dsigma of one dimension.

    The row starts from C(d, 0, 0) = |S^{d-1}|^2, the mass normalisation
    that defines c_d, and steps up without Beta values: the radial moment
    of exponent a + 2 = 2J+d-2 is that of a times 4(a+1)/(a+d).  Every entry
    has the grade of |S^{d-1}|^2 (``grade``), so the row holds rational
    parts and kernels sum them.  ``f0`` is F(d, 0) = 2^{d-2} B((d-1)/2,
    (d-1)/2) |S^{d-2}|, the factor of ``specfun.funk_hecke_eigen``, so every
    polynomial-kernel eigenvalue is a rational times ``eigen_grade``, the
    grade of |S^{d-1}|^2 F(d, 0).  The kernels need K = 0 alone: C(d, J, K),
    with a factor (e . (w3+w4))^K for a unit e, is the product of
    ``sigma_conv_constant``, ``directional_sphere_moment`` and ``radial_moment``.
    """

    def __init__(self, d: int):
        if d < 3:
            raise ValueError("d must be >= 3")
        self.d = d
        first = sphere_surface(d) * sphere_surface(d)
        self.f0 = beta_half_int(d - 1, d - 1) * 2 ** (d - 2) * sphere_surface(d - 1)
        self.grade, self.eigen_grade = first.grade, (first * self.f0).grade
        self.row = [first.coeff]  # rational parts of C(d, 0, 0), C(d, 1, 0), ...

    def get(self, j: int):
        """The rational part of C(d, J, 0), strictly positive."""
        if j < 0:
            raise ValueError("need J >= 0")
        row = self.row
        while len(row) <= j:
            a = 2 * len(row) + self.d - 4
            row.append(row[-1] * rat(4 * (a + 1), a + self.d))
        return row[j]


def _mean_power(table: MomentTable, m: int, shift: int = 0) -> list:
    """s-coefficients of int |x+y|^{2m} |y|^{2 shift} d(sigma*sigma)(y), as rationals times ``table.grade``.

    Entry n is 2^n C(m,n) prod_{i<n} (d+2(m-n)+2i)/(d+2i) C(d, m-n+shift, 0),
    from alpha^n = 2^n s^n; the rational weight steps from n to n+1 by one factor.
    """
    d, w, coeffs = table.d, rat(1), []
    for n in range(m + 1):
        coeffs.append(table.get(m - n + shift) * w)
        w *= rat(2 * (m - n) * (d + 2 * (m - n - 1)), (n + 1) * (d + 2 * n))
    return coeffs


def magical_kernel_poly(table: MomentTable, m: int) -> ExactPoly:
    """The degree-(m+1) kernel of |sum w|^{2m} times the quartic-form factor.

    The factor is (3/8)(alpha + |w3+w4|^2) - |sum w|^2/8, so the kernel is
    (3/8)(alpha N_m + N_m') - N_{m+1}/8, where N_m integrates |sum w|^{2m}
    over w3, w4 and N_m' integrates it times |w3+w4|^2; alpha = 2s.  The
    leading coefficient is exactly 2^{m-1} |S^{d-1}|^2.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    n_m, n_next = _mean_power(table, m), _mean_power(table, m + 1)
    weighted = _mean_power(table, m, shift=1)
    poly = ExactPoly([(2 * a + b) * rat(3, 8) - c * rat(1, 8)
                      for a, b, c in zip([0, *n_m], [*weighted, 0], n_next)], table.grade)
    assert poly.degree() == m + 1
    return poly


def nonmagical_kernel_poly(table: MomentTable, m: int) -> ExactPoly:
    """The degree-m kernel of |sum w|^{2m} alone (no quartic-form factor)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    poly = ExactPoly(_mean_power(table, m), table.grade)
    assert poly.degree() == m
    return poly
