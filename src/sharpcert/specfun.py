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

which vanishes for k above the kernel degree.  Consecutive terms differ by
rational factors, so each eigenvalue takes one Beta value.

The delta-weight kernel C_d (1+t)^{1/2} (1-t)^{(d-3)/2} instead takes
C_k(t)/C_k(1) = 2F1(-k, k+d-2; (d-1)/2; (1-t)/2) (DLMF 18.5(iii)): against
(1+t)^{(d-2)/2} (1-t)^{d-3} each power ((1-t)/2)^j is one Beta ratio, so

    lambda_delta(k) = K_d 3F2(-k, k+d-2, d-2; (d-1)/2, (3d-4)/2; 1),
    K_d = C_d |S^{d-2}| 2^{3(d-2)/2} B(d-2, d/2).

All values are exact.

The Gegenbauer polynomials, normalized by C_0 = 1, C_1 = 2 nu t and

    k C_k = 2 t (k + nu - 1) C_{k-1} - (k + 2 nu - 2) C_{k-2},

are not on the certification path; ``GegenbauerBasis`` serves the
quadrature oracle, which integrates the defining integral directly.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

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
    rodrigues = sphere_surface(d - 1) / prod(range(d - 1, d + 2 * k - 1, 2))
    return ExactScalar(total, *kernel.grade) * beta * rodrigues


@lru_cache(maxsize=None)
def _delta_constant(d: int) -> ExactScalar:
    """K_d = C_d |S^{d-2}| 2^{3(d-2)/2} B(d-2, d/2), the k-free factor of lambda_delta."""
    return (delta_kernel_closed_form(d) * sphere_surface(d - 1)
            * ExactScalar(1, 3 * (d - 2)) * beta_half_int(2 * (d - 2), d))


def eigen_delta_weight(k: int, d: int) -> ExactScalar:
    """Exact eigenvalue lambda_1(k) of the delta-weight kernel, even k."""
    if k < 0 or k % 2 == 1:
        raise ValueError("k must be even and >= 0")
    if d < 3:
        raise ValueError("d must be >= 3")
    # the 3F2 from the inside out: S_j = 1 + (a/b) S_{j+1} = num/den, with S_k = 1
    num = den = 1
    for j in range(k - 1, -1, -1):
        a = 4 * (j - k) * (k + d - 2 + j) * (d - 2 + j)
        b = (d - 1 + 2 * j) * (3 * d - 4 + 2 * j) * (j + 1)
        num, den = b * den + a * num, b * den
    return _delta_constant(d) * rat(num, den)
