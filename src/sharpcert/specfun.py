"""Gegenbauer polynomials and the exact moment integrals behind the
zonal-kernel eigenvalue formula.

For dimension d >= 3 the relevant index is nu = d/2 - 1; the polynomials
are normalized by C_0 = 1, C_1 = 2 nu t and the three-term recurrence

    k C_k = 2 t (k + nu - 1) C_{k-1} - (k + 2 nu - 2) C_{k-2}.

A zonal kernel K(t) acts on degree-k spherical harmonics by the scalar

    lambda(k) = |S^{d-2}| / C_k(1) * int_{-1}^{1} K(t) C_k(t) (1-t^2)^{(d-3)/2} dt,

which for polynomial kernels reduces to pure power moments.  The
delta-weight kernel's integrand C_k(t) (1+t)^{(d-2)/2} (1-t)^{d-3} is of the
same Jacobi type (1+t)^a (1-t)^b, so one sum serves every kernel.  The
t-power moments M_n of such a weight start from M_0 = 2^{a+b+1} B(a+1, b+1)
and follow the integral of d/dt[t^n (1+t)^{a+1} (1-t)^{b+1}] over [-1, 1]:

    (n + a + b + 2) M_{n+1} = n M_{n-1} + (a - b) M_n.

All values are exact.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .backend import rat
from .polys import ExactPoly
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
            ExactPoly([rat(1)]),
            ExactPoly([rat(0), 2 * self.nu]),
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
                    self._polys.append(ExactPoly(coeffs))
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


_jacobi_moments: dict[tuple[int, int], list[ExactScalar]] = {}
_jacobi_lock = threading.Lock()


def jacobi_moment(two_alpha: int, two_beta: int, n: int) -> ExactScalar:
    """Exact int_{-1}^{1} t^n (1+t)^{two_alpha/2} (1-t)^{two_beta/2} dt.

    Cached per weight and extended under a lock, so a racing request never
    shifts an entry.
    """
    if two_alpha < -1 or two_beta < -1 or n < 0:
        raise ValueError("need two_alpha, two_beta >= -1 and n >= 0")
    plus, minus = two_alpha + two_beta, two_alpha - two_beta
    with _jacobi_lock:
        seq = _jacobi_moments.get((two_alpha, two_beta))
        if seq is None:
            m0 = ExactScalar(1, plus + 2, 0) * beta_half_int(two_alpha + 2, two_beta + 2)
            seq = _jacobi_moments[two_alpha, two_beta] = [m0, m0 * minus / (plus + 4)]
        while n >= len(seq):  # the recurrence doubled, for M_{j+1}
            j = len(seq) - 1
            seq.append((seq[j - 1] * (2 * j) + seq[j] * minus) / (2 * j + plus + 4))
        return seq[n]


def _funk_hecke(kernel_coeffs, k: int, d: int, two_alpha: int, two_beta: int) -> ExactScalar:
    """|S^{d-2}| / C_k(1) * sum_a sum_b K_a C_{k,b} M_{a+b} for the weight (two_alpha, two_beta)."""
    basis = gegenbauer_basis(d)
    ck = basis.poly(k).coeffs
    total = ZERO
    for a, ka in enumerate(kernel_coeffs):
        for b, cb in enumerate(ck):
            if ka and cb:
                total = total + jacobi_moment(two_alpha, two_beta, a + b) * (ka * cb)
    return sphere_surface(d - 1) / basis.at_one(k) * total


def funk_hecke_eigen(kernel: ExactPoly, k: int, d: int) -> ExactScalar:
    """Exact eigenvalue of a polynomial zonal kernel on degree-k harmonics.

    Orthogonality makes this exactly zero whenever k exceeds the kernel's
    degree.
    """
    if k < 0 or d < 3:
        raise ValueError("need k >= 0 and d >= 3")
    if kernel.is_zero() or k > kernel.degree():
        return ZERO
    return _funk_hecke(kernel.coeffs, k, d, d - 3, d - 3) * ExactScalar(1, *kernel.grade)


def eigen_delta_weight(k: int, d: int) -> ExactScalar:
    """Exact eigenvalue lambda_1(k) of the delta-weight kernel, even k."""
    if k < 0 or k % 2 == 1:
        raise ValueError("k must be even and >= 0")
    if d < 3:
        raise ValueError("d must be >= 3")
    from .kernels import delta_kernel_closed_form

    return _funk_hecke([rat(1)], k, d, d - 2, 2 * d - 6) * delta_kernel_closed_form(d).constant
