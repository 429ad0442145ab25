"""Gegenbauer polynomials and the exact moment integrals behind the
zonal-kernel eigenvalue formula.

For dimension d >= 3 the relevant index is nu = d/2 - 1; the polynomials
are normalized by C_0 = 1, C_1 = 2 nu t and the three-term recurrence

    k C_k = 2 t (k + nu - 1) C_{k-1} - (k + 2 nu - 2) C_{k-2}.

A zonal kernel K(t) acts on degree-k spherical harmonics by the scalar

    lambda(k) = |S^{d-2}| / C_k(1) * int_{-1}^{1} K(t) C_k(t) (1-t^2)^{(d-3)/2} dt,

which for polynomial kernels reduces to pure power moments.  For the
delta-weight kernel the integrand is C_k(t) (1+t)^{(d-2)/2} (1-t)^{d-3};
with C_k rewritten in powers of (1+t) each term is one Beta value.
All values are exact.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .backend import rat
from .polys import DOMAIN_T, ExactPoly, taylor_shift
from .scalars import ExactScalar, beta_half_int, sphere_surface

ZERO = ExactScalar(0)


class GegenbauerBasis:
    """Lazily extended exact Gegenbauer family for nu = d/2 - 1.

    Extension behaves as an idempotent cache; concurrent requests are
    serialized by a lock and produce identical polynomials.
    """

    def __init__(self, d: int):
        if d < 3:
            raise ValueError("d must be >= 3")
        self.d = d
        self.nu = rat(d - 2, 2)
        self._polys = [
            ExactPoly([rat(1)], domain=DOMAIN_T),
            ExactPoly([rat(0), 2 * self.nu], domain=DOMAIN_T),
        ]
        self._lock = threading.Lock()

    def poly(self, k: int) -> ExactPoly:
        if k < 0:
            raise ValueError("k must be >= 0")
        if k >= len(self._polys):
            with self._lock:
                while len(self._polys) <= k:
                    j = len(self._polys)
                    a = list(self._polys[j - 1].coeffs)
                    b = list(self._polys[j - 2].coeffs)
                    f1 = rat(2 * (j + self.nu - 1), j)
                    f2 = rat(j + 2 * self.nu - 2, j)
                    coeffs = [rat(0)] * (j + 1)
                    for i, c in enumerate(a):
                        coeffs[i + 1] += f1 * c
                    for i, c in enumerate(b):
                        coeffs[i] -= f2 * c
                    self._polys.append(ExactPoly(coeffs, domain=DOMAIN_T))
        return self._polys[k]

    def at_one(self, k: int) -> ExactScalar:
        v = self.poly(k).eval_at(rat(1))
        if v.sign() <= 0:
            raise ArithmeticError(f"C_{k}(1) must be positive")
        return v


@lru_cache(maxsize=None)
def gegenbauer_basis(d: int) -> GegenbauerBasis:
    return GegenbauerBasis(d)


def gegenbauer(d: int, k: int) -> ExactPoly:
    return gegenbauer_basis(d).poly(k)


def gegenbauer_at_one(d: int, k: int) -> ExactScalar:
    return gegenbauer_basis(d).at_one(k)


def weighted_moment(d: int, a: int) -> ExactScalar:
    """Exact int_{-1}^{1} t^a (1-t^2)^{(d-3)/2} dt.

    Zero for odd a; B((a+1)/2, (d-1)/2) for even a.
    """
    if d < 3 or a < 0:
        raise ValueError("need d >= 3 and a >= 0")
    if a % 2 == 1:
        return ZERO
    return beta_half_int(a + 1, d - 1)


def delta_moment(d: int, j: int) -> ExactScalar:
    """Exact int_{-1}^{1} (1+t)^{(d-2)/2+j} (1-t)^{d-3} dt = 2^{(3d-6)/2+j} B(d/2+j, d-2)."""
    return ExactScalar(1, 3 * d - 6 + 2 * j, 0) * beta_half_int(d + 2 * j, 2 * d - 4)


def funk_hecke_eigen(kernel: ExactPoly, k: int, d: int) -> ExactScalar:
    """Exact eigenvalue of a polynomial zonal kernel on degree-k harmonics.

    Orthogonality makes this exactly zero whenever k exceeds the kernel's
    degree.
    """
    if kernel.domain != DOMAIN_T:
        raise ValueError("kernel must live on t in [-1,1]")
    if k < 0 or d < 3:
        raise ValueError("need k >= 0 and d >= 3")
    if kernel.is_zero() or k > kernel.degree():
        return ZERO
    basis = gegenbauer_basis(d)
    ck = basis.poly(k)
    total = ZERO
    for a, ka in enumerate(kernel.coeffs):
        if ka == 0:
            continue
        for b, cb in enumerate(ck.coeffs):
            if cb == 0 or (a + b) % 2 == 1:
                continue
            total = total + weighted_moment(d, a + b) * (ka * cb)
    if total.is_zero():
        return ZERO
    pref = sphere_surface(d - 1) / basis.at_one(k)
    return pref * total * ExactScalar(1, *kernel.grade)


def eigen_delta_weight(k: int, d: int) -> ExactScalar:
    """Exact eigenvalue lambda_1(k) of the delta-weight kernel, even k."""
    if k < 0 or k % 2 == 1:
        raise ValueError("k must be even and >= 0")
    if d < 3:
        raise ValueError("d must be >= 3")
    from .kernels import delta_kernel_closed_form

    basis = gegenbauer_basis(d)
    total = ZERO
    for j, cj in enumerate(taylor_shift(basis.poly(k).coeffs, -1)):
        if cj != 0:
            total = total + delta_moment(d, j) * cj
    const = delta_kernel_closed_form(d).constant
    return sphere_surface(d - 1) / basis.at_one(k) * const * total
