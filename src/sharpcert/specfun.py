"""Exact Funk-Hecke eigenvalues of zonal kernels, and the Gegenbauer basis.

For dimension d >= 3 the relevant index is nu = d/2 - 1.  A zonal kernel
K(t) acts on degree-k spherical harmonics by the scalar

    lambda(k) = |S^{d-2}| / C_k(1) * int_{-1}^{1} K(t) C_k(t) (1-t^2)^{(d-3)/2} dt.

Rodrigues' formula (Szego, Orthogonal Polynomials, (4.7.12); DLMF 18.5.5)
writes C_k(t) (1-t^2)^{(d-3)/2} / C_k(1) as a k-th derivative of
(1-t^2)^{k+(d-3)/2} divided by (-2)^k ((d-1)/2)_k = (-1)^k prod_{i<k} (d-1+2i).
Integrating by parts k times moves the derivatives onto K, and every
remaining integral is one Beta value.  A polynomial kernel sum_p b_p s^p
in s = 1 + t then has

    lambda(k) = F(d, k) sum_{p >= k} b_p tau_p,   tau_k = 4^k k!,
    tau_{p+1}/tau_p = (p+1)(2p+d-1) / ((p+1-k)(p+k+d-1)),
    F(d, k) = 2^{d-2} B(k+(d-1)/2, k+(d-1)/2) |S^{d-2}| / prod_{i<k} (d-1+2i),

which vanishes for k above the kernel degree.  The Beta values telescope,
F(d, k+1) = F(d, k) / (4(2k+d)), so F(d, k) = F(d, 0) / prod_{i<k} 4(2i+d):
the 4^k cancels tau_k's, and F(d, 0) is one Beta value per moment table
(``MomentTable.f0``).  No kernel is built: with
N_m's coefficients (``kernels``) and C(d, J+1, 0)/C(d, J, 0) = 2(2J+d-1)/(J+d-1),

    t_{p+1}/t_p = (m-p)(2(m-p-1)+d)(m-p+d-2)(2p+d-1) / ((2p+d)(2(m-p)+d-3)(p+1-k)(p+k+d-1))

for t_p = b_p tau_p, summed from the top in integers, S = 1 + (a/b) S' =
num/den, times the start term t_k, a closed form in ``math.comb`` and
``math.prod``.  The magical kernel (3/8)(alpha N_m + N_m') - N_{m+1}/8
takes three such sums: alpha moves each index of N_m up by one, and N_m'
reads C(d, m-p+1, 0).  Each sum stays an integer pair (num, den); the pairs,
the moment entries, prod_{i<k} (2i+d) and F(d, 0)'s rational part are
combined in integers, and each eigenvalue is one rational, made at the end.

The delta-weight kernel C_d (1+t)^{1/2} (1-t)^{(d-3)/2} instead takes
C_k(t)/C_k(1) = 2F1(-k, k+d-2; (d-1)/2; (1-t)/2) (DLMF 18.5(iii)): against
(1+t)^{(d-2)/2} (1-t)^{d-3} each power ((1-t)/2)^j is one Beta ratio, so

    lambda_delta(k) = K_d 3F2(-k, k+d-2, d-2; (d-1)/2, (3d-4)/2; 1),
    K_d = C_d |S^{d-2}| 2^{3(d-2)/2} B(d-2, d/2).

That 3F2 is the Hahn polynomial Q_k(x; alpha, beta, N) with alpha = beta =
(d-3)/2, N = -(3d-4)/2 and x = -(d-2), so F_k = 3F2(...; 1) obeys the
three-term recurrence in the degree (Koekoek-Lesky-Swarttouw (9.5.3); DLMF
18.22(i)), scaled to integer coefficients:

    a_n F_{n+1} = b_n F_n + c_n F_{n-1},    F_0 = 1,
    a_n = (n+d-2)(2n+3d-4),  c_n = n(2n-d),  b_n = a_n - c_n - 4(d-2)(2n+d-2).

It runs on the integers G_n = F_n prod_{i<n} a_i, G_{n+1} = b_n G_n +
c_n a_{n-1} G_{n-1}, so every lambda_delta(k) with k <= K costs O(K)
integer steps in all, and one rational K_d G_k / prod_{i<k} a_i per value.
Dividing out the common gcd at each even n keeps the integers as small as
the reduced values, so the cost grows linearly in K.  A ``DeltaRun`` holds
K_d and the recurrence of one d; each eigenvalue table makes its own, so
no per-d state outlives the call that made it.

All values are exact, and each is returned as its rational part: its grade
is fixed by d, that of |S^{d-1}|^2 F(d, 0) (``MomentTable.eigen_grade``)
for a polynomial kernel and K_d's for the delta kernel, and the caller
attaches it where a value leaves the computation.

The Gegenbauer polynomials, normalized by C_0 = 1, C_1 = 2 nu t and

    k C_k = 2 t (k + nu - 1) C_{k-1} - (k + 2 nu - 2) C_{k-2},

are not on the certification path; ``GegenbauerBasis`` serves the
quadrature oracle, which integrates the defining integral directly.
"""

from __future__ import annotations

from math import comb, factorial, gcd, prod

from .backend import rat
from .kernels import MomentTable, delta_kernel_closed_form
from .scalars import ExactScalar, beta_half_int, sphere_surface


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


def _alpha_sum(moments: MomentTable, k: int, m: int, shift: int = 0, e: int = 0) -> tuple[int, int]:
    """(num, den) with num / den = sum_{p >= k} 2^p w_n C(d, m-n+e, 0) tau_p / 4^k, n = p - shift.

    w_n is the weight of alpha^n in N_m; ``shift`` = 1 gives alpha N_m and
    ``e`` = 1 gives N_m'.  The sum runs over n >= lo = max(k - shift, 0), and
    its start term is a closed form, 2^lo C(m, lo) prod_{i<lo} (d+2(m-lo)+2i)
    / prod_{i<lo} (d+2i) times 2^shift k! and the rational part of C(d,
    m-lo+e, 0); at lo = m + 1, C(m, lo) = 0 zeroes it.  Both integers are
    left unreduced.
    """
    d, lo = moments.d, max(k - shift, 0)
    num = den = 1
    for n in range(m - 1, lo - 1, -1):
        p, j = n + shift, m - n + e
        a = (m - n) * (d + 2 * (m - n - 1)) * (j + d - 2) * (p + 1) * (2 * p + d - 1)
        b = (n + 1) * (d + 2 * n) * (2 * j + d - 3) * (p + 1 - k) * (p + k + d - 1)
        num, den = b * den + a * num, b * den
    moment = moments.get(m - lo + e)
    num *= comb(m, lo) * prod(range(d + 2 * (m - lo), d + 2 * m, 2)) * factorial(k) * moment.numerator
    den *= prod(range(d, d + 2 * lo, 2)) * moment.denominator
    return num << (lo + shift), den


def funk_hecke_eigen(moments: MomentTable, m: int, k: int, magical: bool):
    """The eigenvalue on degree-k harmonics of the magical kernel or N_m, exponent 2m.

    It is returned as its rational part; its grade is ``moments.eigen_grade``.
    """
    if m < 0 or k < 0:
        raise ValueError("need m >= 0 and k >= 0")
    if k > m + magical:
        return rat(0)
    if magical:  # (3/8)(alpha N_m + N_m') - N_{m+1}/8
        (n1, d1), (n2, d2), (n3, d3) = (_alpha_sum(moments, k, m, shift=1),
                                        _alpha_sum(moments, k, m, e=1), _alpha_sum(moments, k, m + 1))
        num, den = 3 * (n1 * d2 + n2 * d1) * d3 - n3 * d1 * d2, 8 * d1 * d2 * d3
    else:
        num, den = _alpha_sum(moments, k, m)
    d, f0 = moments.d, moments.f0.coeff
    # F(d, k) = F(d, 0) / prod_{i<k} 4(2i+d), and _alpha_sum leaves out tau_k's 4^k
    den *= f0.denominator * prod(range(d, d + 2 * k, 2))
    return rat(num * f0.numerator, den)


class DeltaRun:
    """K_d and F_0, F_2, ... of one d, the latter from the recurrence, extended on demand.

    The state is n, G_{n-1}, G_n and P_n = prod_{i<n} a_i.  At every even n
    its three integers are divided by their gcd: the recurrence is linear in
    (G_{n-1}, G_n), so only their ratios to P_n matter, and the integers stay
    about as small as the reduced values.  ``even`` holds the pairs (G_n,
    P_n) of F_n = G_n / P_n, n = 0, 2, ..., each left unreduced.
    """

    def __init__(self, d: int):
        # K_d = C_d |S^{d-2}| 2^{3(d-2)/2} B(d-2, d/2), the k-free factor of lambda_delta
        self.constant = (delta_kernel_closed_form(d) * sphere_surface(d - 1)
                         * ExactScalar(1, 3 * (d - 2)) * beta_half_int(2 * (d - 2), d))
        self.d, self.n, self.g_prev, self.g, self.p = d, 0, 0, 1, 1
        self.even = [(1, 1)]  # (G_0, P_0), (G_2, P_2), ..., (G_n, P_n)

    def at(self, k: int) -> tuple[int, int]:
        d = self.d
        while len(self.even) <= k // 2:
            for n in (self.n, self.n + 1):
                a = (n + d - 2) * (2 * n + 3 * d - 4)
                c = n * (2 * n - d)  # c_0 = 0: G_{-1} drops out
                b = a - c - 4 * (d - 2) * (2 * n + d - 2)
                self.g_prev, self.g = (
                    self.g, b * self.g + c * (n + d - 3) * (2 * n + 3 * d - 6) * self.g_prev)
                self.p *= a
            self.n += 2
            h = gcd(self.g_prev, self.g, self.p)
            self.g_prev, self.g, self.p = self.g_prev // h, self.g // h, self.p // h
            self.even.append((self.g, self.p))
        return self.even[k // 2]


def eigen_delta_weight(k: int, run: DeltaRun):
    """The eigenvalue lambda_1(k) of the delta-weight kernel of ``run``'s d, even k.

    It is returned as its rational part; its grade is K_d's, ``run.constant.grade``.
    """
    if k < 0 or k % 2 == 1:
        raise ValueError("k must be even and >= 0")
    g, p = run.at(k)
    c = run.constant.coeff
    return rat(c.numerator * g, c.denominator * p)
