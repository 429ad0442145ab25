"""Exact construction of the three zonal kernel families.

The delta-weight kernel has the closed form C_d (1+t)^{1/2} (1-t)^{(d-3)/2};
the polynomial families come from integrating powers of |w1+w2+w3+w4| (times
the quartic-form factor M for the "magical" family) over two sphere copies.
Every double-sphere integral collapses to the radial moment constants

    C(d, J, K) = int int |w3+w4|^{2J} (e . (w3+w4))^K dsigma dsigma   (unit e)

which are products of the sphere-convolution constant, a directional sphere
moment and a radial moment, all exact half-integer Beta data.  Since
|w1+w2|^2 = 2s with s = 1 + t = 1 + w1 . w2, a power alpha^p is 2^p s^p, so
the polynomial kernels come out as ExactPolys in s directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .backend import rat
from .polys import ExactPoly
from .scalars import ExactScalar, beta_half_int, sphere_surface

ZERO = ExactScalar(0)


def radial_moment(d: int, a: int) -> ExactScalar:
    """Exact int_0^2 r^a (4 - r^2)^{(d-3)/2} dr (via r = 2x and Beta values)."""
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
    """Exact int_{S^{d-1}} (e . w)^k dsigma(w) for a unit vector e; zero for odd k."""
    if d < 2 or k < 0:
        raise ValueError("need d >= 2 and k >= 0")
    if k % 2 == 1:
        return ZERO
    # |S^{d-2}| int_{-1}^{1} t^k (1-t^2)^{(d-3)/2} dt
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


def _kernel_in_s(a_coeffs: dict[int, ExactScalar]) -> ExactPoly:
    """Rewrite sum c_p alpha^p with alpha = |w1+w2|^2 = 2s as an ExactPoly in s."""
    return ExactPoly.from_scalars(
        [a_coeffs.get(p, ZERO) * 2**p for p in range(max(a_coeffs) + 1)]
    )


def magical_kernel_poly(table: MomentTable, m: int) -> ExactPoly:
    """The degree-(m+1) kernel of |sum w|^{2m} times the quartic-form factor.

    Trinomial expansion over alpha = |w1+w2|^2, beta = |w3+w4|^2,
    gamma = 2 (w1+w2).(w3+w4); each double-sphere factor becomes a moment
    constant and powers of alpha become powers of s through alpha = 2s.
    The leading coefficient is exactly 2^{m-1} |S^{d-1}|^2.
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
    poly = _kernel_in_s(acc)
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
    poly = _kernel_in_s(acc)
    assert poly.degree() == m
    return poly
