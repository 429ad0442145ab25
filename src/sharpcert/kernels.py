"""Exact construction of the three zonal kernel families.

The delta-weight kernel has the closed form C_d (1+t)^{1/2} (1-t)^{(d-3)/2};
the polynomial families come from integrating powers of |w1+w2+w3+w4| (times
the quartic-form factor M for the "magical" family) over two sphere copies.
Every double-sphere integral collapses to the radial moment constants

    C(d, J, K) = int int |w3+w4|^{2J} (e . (w3+w4))^K dsigma dsigma   (unit e)

which are products of the sphere-convolution constant, a directional sphere
moment and a radial moment, all exact half-integer Beta data.  Substituting
|w1+w2|^2 = 2 + 2t then yields polynomials in t = w1 . w2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .backend import rat
from .errors import GradeMismatch
from .polys import DOMAIN_T, ExactPoly, binomial
from .scalars import ExactScalar, beta_half_int, sphere_surface

ZERO = ExactScalar(0)


def radial_moment(d: int, a: int) -> ExactScalar:
    """Exact int_0^2 r^a (4 - r^2)^{(d-3)/2} dr (via r = 2s and Beta values)."""
    if d < 3 or a < 0:
        raise ValueError("need d >= 3 and a >= 0")
    return ExactScalar(2 ** (a + d - 3)) * beta_half_int(a + 1, d - 1)


@lru_cache(maxsize=None)
def sigma_conv_constant(d: int) -> ExactScalar:
    """The constant c_d in (sigma*sigma)(x) = c_d |x|^{-1} (4-|x|^2)_+^{(d-3)/2}.

    Pinned down by mass normalization: the convolution of the surface
    measure with itself has total mass |S^{d-1}|^2.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    return sphere_surface(d) / radial_moment(d, d - 2)


def directional_sphere_moment(d: int, k: int) -> ExactScalar:
    """Exact int_{S^{d-1}} (e . w)^k dsigma(w) for a unit vector e, even k."""
    if k % 2 == 1:
        return ZERO
    if d < 2 or k < 0:
        raise ValueError("need d >= 2 and k >= 0")
    return sphere_surface(d - 1) * beta_half_int(k + 1, d - 1)


@dataclass(frozen=True)
class DeltaKernel:
    """Closed form of the delta-weight kernel: constant * (1+t)^{1/2} (1-t)^{(d-3)/2}."""

    d: int
    constant: ExactScalar


@lru_cache(maxsize=None)
def delta_kernel_closed_form(d: int) -> DeltaKernel:
    """Derive the kernel constant from first principles.

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
    return DeltaKernel(d, const)


class MomentTable:
    """Cache of the double-sphere moment constants C(d, J, K) for one dimension."""

    def __init__(self, d: int):
        if d < 3:
            raise ValueError("d must be >= 3")
        self.d = d
        self.entries: dict[tuple[int, int], ExactScalar] = {}

    def get(self, j: int, k: int) -> ExactScalar:
        """C(d, J, K); exactly zero for odd K, strictly positive for even K."""
        if j < 0 or k < 0:
            raise ValueError("need J, K >= 0")
        if k % 2 == 1:
            return ZERO
        key = (j, k)
        got = self.entries.get(key)
        if got is None:
            val = (
                sigma_conv_constant(self.d)
                * directional_sphere_moment(self.d, k)
                * radial_moment(self.d, 2 * j + k + self.d - 2)
            )
            got = self.entries.setdefault(key, val)
        return got


def _multinomial(m: int, i: int, j: int, k: int) -> int:
    return factorial(m) // (factorial(i) * factorial(j) * factorial(k))


def _collapse_to_t(a_coeffs: dict[int, ExactScalar], domain=DOMAIN_T) -> ExactPoly:
    """Rewrite sum c_p a^p with a = 2 + 2t as an exact polynomial in t."""
    grade = None
    for c in a_coeffs.values():
        if not c.is_zero():
            grade = c.grade
            break
    if grade is None:
        return ExactPoly([], domain=domain)
    deg = max(a_coeffs)
    out = [rat(0)] * (deg + 1)
    for p, c in a_coeffs.items():
        if c.is_zero():
            continue
        if c.grade != grade:
            raise GradeMismatch("kernel moment constants carry mixed grades")
        base = c.coeff * (2**p)  # (2+2t)^p = 2^p (1+t)^p
        for q in range(p + 1):
            out[q] += base * binomial(p, q)
    return ExactPoly(out, grade, domain)


def magical_kernel_poly(table: MomentTable, m: int) -> ExactPoly:
    """The degree-(m+1) kernel of |sum w|^{2m} times the quartic-form factor.

    Trinomial expansion over alpha = |w1+w2|^2, beta = |w3+w4|^2,
    gamma = 2 (w1+w2).(w3+w4); each double-sphere factor becomes a moment
    constant and powers of alpha collapse through alpha = 2+2t.  The leading
    coefficient is exactly 2^{m-1} |S^{d-1}|^2.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    acc: dict[int, ExactScalar] = {}

    def add(power: int, value: ExactScalar):
        acc[power] = acc.get(power, ZERO) + value

    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            w = rat(_multinomial(m, i, j, k)) * rat(2**k, 4)
            if k % 2 == 0:
                add(i + 1 + k // 2, table.get(j, k) * w)
                add(i + k // 2, table.get(j + 1, k) * w)
            else:
                add(i + (k + 1) // 2, table.get(j, k + 1) * (-w))
    poly = _collapse_to_t(acc)
    assert poly.degree() == m + 1
    return poly


def nonmagical_kernel_poly(table: MomentTable, m: int) -> ExactPoly:
    """The degree-m kernel of |sum w|^{2m} alone (no quartic-form factor)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    acc: dict[int, ExactScalar] = {}
    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            if k % 2 == 1:
                continue
            w = rat(_multinomial(m, i, j, k)) * rat(2**k)
            c = table.get(j, k) * w
            acc[i + k // 2] = acc.get(i + k // 2, ZERO) + c
    poly = _collapse_to_t(acc)
    assert poly.degree() == m
    return poly
