"""Exact Funk-Hecke eigenvalues of zonal kernels, and the Gegenbauer basis.

For dimension d >= 3 the relevant index is nu = d/2 - 1.  A zonal kernel
K(t) acts on degree-k spherical harmonics by the scalar

    lambda(k) = |S^{d-2}| / C_k(1) * int_{-1}^{1} K(t) C_k(t) (1-t^2)^{(d-3)/2} dt.

Rodrigues' formula (Szego, Orthogonal Polynomials, (4.7.12); DLMF 18.5.5)
writes C_k(t) (1-t^2)^{(d-3)/2} / C_k(1) as a k-th derivative of
(1-t^2)^{k+(d-3)/2} divided by (-2)^k ((d-1)/2)_k = (-1)^k prod_{i<k} (d-1+2i).
Integrating by parts k times moves the derivatives onto K, and every
remaining integral is one Beta value.  A polynomial kernel is an ExactPoly
in s = 1 + t, sum_p b_p s^p, and then

    lambda(k) = |S^{d-2}| / prod_{i<k} (d-1+2i)
                * sum_{p >= k} b_p p!/(p-k)! 2^{p+k+d-2} B(p+(d-1)/2, k+(d-1)/2),

which vanishes for k above the kernel degree.  For the delta-weight kernel
C_d (1+t)^{1/2} (1-t)^{(d-3)/2}, with falling(x, i) = x (x-1) ... (x-i+1):

    lambda_delta(k) = C_d |S^{d-2}| 2^{3(d-2)/2+k} / prod_{i<k} (d-1+2i)
                      * sum_{i=0..k} C(k,i) falling(1/2, k-i) (-1)^i
                        falling((d-3)/2, i) B(i+d/2, d-2+k-i).

For odd d the terms past i = (d-3)/2 vanish.  Consecutive terms of both sums
differ by rational factors, so each eigenvalue takes one Beta value.  All
values are exact.

The Gegenbauer polynomials, normalized by C_0 = 1, C_1 = 2 nu t and

    k C_k = 2 t (k + nu - 1) C_{k-1} - (k + 2 nu - 2) C_{k-2},

are not on the certification path; ``GegenbauerBasis`` serves the
quadrature oracle, which integrates the defining integral directly.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .backend import rat
from .kernels import delta_kernel_closed_form
from .polys import ExactPoly
from .scalars import ZERO, ExactScalar, beta_half_int, sphere_surface


class GegenbauerBasis:
    """Lazily extended exact Gegenbauer family for nu = d/2 - 1.

    ``poly(k)`` is the tuple of rational t-coefficients of C_k.  Extension
    behaves as an idempotent cache.
    """

    def __init__(self, d: int):
        if d < 3:
            raise ValueError("d must be >= 3")
        self.d = d
        self.nu = rat(d - 2, 2)
        self._polys = [(rat(1),), (rat(0), 2 * self.nu)]

    def poly(self, k: int) -> tuple:
        if k < 0:
            raise ValueError("k must be >= 0")
        while len(self._polys) <= k:
            j = len(self._polys)
            f1 = rat(2 * (j + self.nu - 1), j)
            f2 = rat(j + 2 * self.nu - 2, j)
            coeffs = [rat(0)] * (j + 1)
            for i, c in enumerate(self._polys[j - 1]):
                coeffs[i + 1] += f1 * c
            for i, c in enumerate(self._polys[j - 2]):
                coeffs[i] -= f2 * c
            self._polys.append(tuple(coeffs))
        return self._polys[k]

    def at_one(self, k: int):
        """C_k(1), the coefficient sum; a positive rational."""
        v = sum(self.poly(k))
        if v <= 0:
            raise ArithmeticError(f"C_{k}(1) must be positive")
        return v


@lru_cache(maxsize=None)
def gegenbauer_basis(d: int) -> GegenbauerBasis:
    return GegenbauerBasis(d)


def _rodrigues_prefactor(k: int, d: int) -> ExactScalar:
    """|S^{d-2}| / prod_{i<k} (d-1+2i), shared by both sums."""
    den = 1
    for i in range(k):
        den *= d - 1 + 2 * i
    return sphere_surface(d - 1) / den


def funk_hecke_eigen(kernel: ExactPoly, k: int, d: int) -> ExactScalar:
    """Exact eigenvalue of a polynomial zonal kernel in s on degree-k harmonics.

    Orthogonality makes this exactly zero whenever k exceeds the kernel's
    degree.
    """
    if k < 0 or d < 3:
        raise ValueError("need k >= 0 and d >= 3")
    if kernel.is_zero() or k > kernel.degree():
        return ZERO
    # term = p!/(p-k)! 2^{p+k} B(p+(d-1)/2, k+(d-1)/2) / B(k+(d-1)/2, k+(d-1)/2), from p = k
    total, term = rat(0), rat(4**k * factorial(k))
    for p in range(k, len(kernel.coeffs)):
        total += kernel.coeffs[p] * term
        term *= rat((p + 1) * (2 * p + d - 1), (p + 1 - k) * (p + k + d - 1))
    beta = beta_half_int(2 * k + d - 1, 2 * k + d - 1) * 2 ** (d - 2)
    return ExactScalar(total, *kernel.grade) * beta * _rodrigues_prefactor(k, d)


def eigen_delta_weight(k: int, d: int) -> ExactScalar:
    """Exact eigenvalue lambda_1(k) of the delta-weight kernel, even k."""
    if k < 0 or k % 2 == 1:
        raise ValueError("k must be even and >= 0")
    if d < 3:
        raise ValueError("d must be >= 3")
    last = k if d % 2 == 0 else min(k, (d - 3) // 2)
    # term i over B(d/2, d-2+k); term 0 is falling(1/2, k)
    term = rat(1)
    for j in range(k):
        term *= rat(1 - 2 * j, 2)
    total = rat(0)
    for i in range(last + 1):
        total += term
        if i < last:  # past the last term the ratio's denominator can vanish (d = 3, i = k)
            term *= rat((i - k) * (d - 3 - 2 * i) * (2 * i + d),
                        2 * (i + 1) * (2 * i - 2 * k + 3) * (d - 3 + k - i))
    scale = ExactScalar(total, 3 * (d - 2) + 2 * k) * beta_half_int(d, 2 * (d - 2 + k))
    return delta_kernel_closed_form(d).constant * scale * _rodrigues_prefactor(k, d)
