"""Independent numeric cross-checks for the exact eigenvalue path.

``quad_eigen_enclosure`` evaluates the defining one-dimensional integral
of an eigenvalue and returns a rigorous interval: the endpoint
substitutions t = 1 - s^2 and t = s^2 - 1 absorb the half-power singular
factors into even powers of s, after which the only non-polynomial factor
is (2 - s^2)^gamma, expanded as a binomial series with an exact rational
tail bound; the polynomial part integrates exactly.
The interval width shrinks geometrically in the series order, so enclosures
at 128 bits are routine.

Intervals are pairs of exact rationals (``Enclosure``).  The oracle bounds
sqrt 2 and sqrt pi in its own integer code (``math.isqrt``, and Gauss's
arctangent formula for pi), so it needs only the standard library and
shares no code with the decimal renderer in ``scalars``.  ``_enclose`` is
the one conversion of an exact value into an interval.  Nothing on the
certification path imports this module.
"""

from __future__ import annotations

import math

from .backend import rat
from .errors import PrecisionExhausted
from .kernels import delta_kernel_closed_form
from .polys import ExactPoly
from .scalars import ZERO, ExactScalar, sphere_surface
from .specfun import GegenbauerBasis

MAX_SERIES_ORDER = 1 << 14


# -- rational polynomial helpers, local to the quadrature ---------------------


def _compose_linear_square(coeffs, c0, c1):
    """Coefficients in y of P(c0 + c1*y), for a rational coefficient list P."""
    acc = [rat(0)]
    for c in reversed(list(coeffs)):
        # acc = acc*(c0 + c1*y) + c
        out = [rat(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            out[i] += a * c0
            out[i + 1] += a * c1
        out[0] += c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        acc = out
    return acc


def _mul(a, b):
    out = [rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _spread_even(ycoeffs):
    """y-polynomial -> s-polynomial under y = s^2."""
    out = [rat(0)] * (2 * len(ycoeffs) - 1)
    for i, c in enumerate(ycoeffs):
        out[2 * i] = c
    return out


def _shift_up(coeffs, n):
    return [rat(0)] * n + list(coeffs)


def _integrate_01(coeffs):
    return sum(c / (i + 1) for i, c in enumerate(coeffs))


def _abs_integral_bound(coeffs):
    return sum(abs(c) / (i + 1) for i, c in enumerate(coeffs))


def _series_one_minus_half_ysq(gamma, order):
    """Coefficients t_n of (1 - s^2/2)^gamma = sum t_n s^{2n}, n <= order.

    Returns (coefficients, tail) where ``tail`` bounds the truncation error
    uniformly on s in [0, 1]: past n >= gamma the term magnitudes decay at
    least geometrically with ratio 1/2.
    """
    t = rat(1)
    out = [t]
    for n in range(order):
        t = t * (gamma - n) / (n + 1) * rat(-1, 2)
        out.append(t)
    nxt = t * (gamma - order) / (order + 1) * rat(-1, 2)
    if order < 2 * abs(gamma) + 2:
        raise ValueError("series order too small for a geometric tail bound")
    return out, 2 * abs(nxt)


def _half_power_piece(bcoeffs, two_gamma, order):
    """Enclosure of int_0^1 B(s) (2 - s^2)^{two_gamma/2} ds / 2^{two_gamma/2}.

    The power of 2 is left to the caller (it may carry a sqrt(2)); the
    returned pair (center, radius) is exact rational.
    """
    if two_gamma % 2 == 0:
        # fold the exact polynomial (1 - s^2/2)^gamma into B
        g = two_gamma // 2
        factor = [rat(1)]
        for _ in range(g):
            factor = _mul(factor, [rat(1), rat(0), rat(-1, 2)])
        return _integrate_01(_mul(bcoeffs, factor)), rat(0)
    gamma = rat(two_gamma, 2)
    series, tail = _series_one_minus_half_ysq(gamma, order)
    center = _integrate_01(_mul(bcoeffs, _spread_even(series)))
    return center, tail * _abs_integral_bound(bcoeffs)


def _pi_bounds(bits: int) -> tuple:
    """Rationals lo < pi < hi, from Gauss's pi = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239).

    The n-th term of 2^bits atan(1/x) is floor(2^bits / ((2n+1) x^(2n+1))),
    off by less than 1; the sum stops at the first term that floors to 0,
    after which the alternating tail is below 1.  So n terms are within
    n + 1 of 2^bits atan(1/x).
    """
    total = err = 0
    for weight, x in (48, 18), (32, 57), (-20, 239):
        n = 0
        while term := (1 << bits) // ((2 * n + 1) * x ** (2 * n + 1)):
            total += weight * (-term if n % 2 else term)
            n += 1
        err += abs(weight) * (n + 1)
    return rat(total - err, 1 << bits), rat(total + err, 1 << bits)


def _radical_bounds(sqrt2: int, pi_half: int, bits: int) -> tuple:
    """Rationals lo <= (sqrt 2)^sqrt2 (sqrt pi)^pi_half <= hi, hi/lo - 1 about 2^-bits.

    The square 2^sqrt2 pi^pi_half lies between two rationals n/m from the
    pi bounds, and sqrt(n/m) = sqrt(n m)/m is rounded down at the lower end
    and up at the upper one by ``math.isqrt``.
    """
    lo, hi = sorted(p**pi_half * 2**sqrt2 for p in _pi_bounds(bits + abs(pi_half).bit_length() + 16))
    a = math.isqrt(lo.numerator * lo.denominator << 2 * bits)
    n = hi.numerator * hi.denominator << 2 * bits
    b = math.isqrt(n)
    b += b * b < n
    return rat(a, lo.denominator << bits), rat(b, hi.denominator << bits)


class Enclosure:
    """The closed interval [lo, hi] between two rationals.

    ``bits`` is the precision of the radical bounds it was built from; an
    exact value is checked against it through the same bounds.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo, hi, bits: int):
        self.lo, self.hi, self.bits = lo, hi, bits

    def contains(self, other) -> bool:
        """Containment of an ExactScalar, an Enclosure, or a real number.

        An ExactScalar is refuted only when its own enclosure, built from
        the same radical bounds, is disjoint from this one: neither interval
        rounds the irrational factors exactly, so two enclosures of the same
        value need not nest.
        """
        if isinstance(other, ExactScalar):
            own = _enclose(other, self.bits)
            return own.lo <= self.hi and self.lo <= own.hi
        if isinstance(other, Enclosure):
            return self.lo <= other.lo and other.hi <= self.hi
        return self.lo <= other <= self.hi


def _enclose(x: ExactScalar, bits: int) -> Enclosure:
    """The rational interval x.coeff times the bounds of x's radical factor."""
    return Enclosure(*sorted(x.coeff * r for r in _radical_bounds(x.sqrt2, x.pi_half, bits)), bits)


def quad_eigen_enclosure(kernel_desc, k: int, d: int, precision_bits: int = 128) -> Enclosure:
    """Rigorous interval around the degree-k eigenvalue of a zonal kernel.

    ``kernel_desc`` is either the string ``"delta"`` (the singular-measure
    kernel) or an ExactPoly kernel, a polynomial in 1 + t that is expanded
    here in t.  The series order adapts until the rational truncation radius
    clears the precision target; if the cap is hit first, PrecisionExhausted
    is raised.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    if k < 0 or d < 3:
        raise ValueError("need k >= 0 and d >= 3")
    basis = GegenbauerBasis(d)
    ck = basis.poly(k)
    if isinstance(kernel_desc, str):
        if kernel_desc != "delta":
            raise ValueError(f"unknown kernel descriptor {kernel_desc!r}")
        const = delta_kernel_closed_form(d)
        q = [c * const.coeff for c in ck]
        unit = ExactScalar(1, const.sqrt2, const.pi_half)
        two_alpha = 2 * (d - 3)  # (1-t) exponent, doubled
        two_beta = d - 2  # (1+t) exponent, doubled
    elif isinstance(kernel_desc, ExactPoly):
        if kernel_desc.is_zero():
            return _enclose(ZERO, precision_bits)
        q = _mul(_compose_linear_square(kernel_desc.coeffs, rat(1), rat(1)), ck)
        unit = ExactScalar(1, *kernel_desc.grade)
        two_alpha = two_beta = d - 3
    else:
        raise TypeError("kernel_desc must be 'delta' or an ExactPoly")

    # right piece, t = 1 - s^2: B_R(s) = 2 s^{2 alpha + 1} Q(1 - s^2),
    # remaining factor (2 - s^2)^beta; left piece mirrors it.
    b_right = _shift_up(_spread_even(_compose_linear_square(q, rat(1), rat(-1))), two_alpha + 1)
    b_right = [2 * c for c in b_right]
    b_left = _shift_up(_spread_even(_compose_linear_square(q, rat(-1), rat(1))), two_beta + 1)
    b_left = [2 * c for c in b_left]

    pref = sphere_surface(d - 1) / basis.at_one(k) * unit
    scale = rat(abs(pref.coeff)) * max(
        rat(1), _abs_integral_bound(b_right), _abs_integral_bound(b_left)
    )
    target = max(scale, rat(1)) / (rat(2) ** (precision_bits + 4))

    order = max(precision_bits + 16, two_alpha + two_beta + 8)
    while True:
        c_r, r_r = _half_power_piece(b_right, two_beta, order)
        c_l, r_l = _half_power_piece(b_left, two_alpha, order)
        if r_r + r_l <= target:
            break
        if order > MAX_SERIES_ORDER:
            raise PrecisionExhausted(
                f"series truncation radius stuck above target at order {order}"
            )
        order *= 2

    # each piece is (center +- radius) 2^{two_g/2} pref, radicals bounded with 16 guard bits
    bits, lo, hi = precision_bits + 16, rat(0), rat(0)
    for (center, radius), two_g in ((c_r, r_r), two_beta), ((c_l, r_l), two_alpha):
        factor = ExactScalar(1, two_g) * pref
        ends = [factor.coeff * (center + e) * r for e in (-radius, radius)
                for r in _radical_bounds(factor.sqrt2, factor.pi_half, bits)]
        lo, hi = lo + min(ends), hi + max(ends)
    return Enclosure(lo, hi, bits)
