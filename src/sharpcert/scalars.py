"""Exact scalars: rational x (sqrt 2)^s x (sqrt pi)^p, rendered as decimals in integers.

Every real constant in the certification pipeline (surface measures,
Beta/Gamma values at half-integers, Funk-Hecke eigenvalues, weight
coefficients) lives in the graded field

    value = coeff * (sqrt 2)^sqrt2 * (sqrt pi)^pi_half,

with coeff an arbitrary-precision rational, sqrt2 in {0, 1} (even powers
of sqrt 2 are folded into coeff) and pi_half any integer.  Values are
multiplied, divided and negated, never added: every sum in the pipeline
runs on rational parts under a grade fixed by d, and an ``ExactScalar`` is
made only where a value leaves the computation.

Decimal renderings are correctly rounded and computed in integers (pi by
Machin's formula, square roots by ``math.isqrt``), so this module, like
the whole certification path, needs nothing outside the standard library.
Interval enclosures belong to the numeric oracle, ``sharpcert.oracle``.
"""

from __future__ import annotations

import functools
import math

from .backend import is_rational, rat, rat_parse, rat_str

Grade = tuple  # (sqrt2, pi_half)


class ExactScalar:
    """Immutable exact real number with a {sqrt2, sqrt pi} radical grade."""

    __slots__ = ("coeff", "sqrt2", "pi_half")

    def __init__(self, coeff, sqrt2: int = 0, pi_half: int = 0):
        if not is_rational(coeff):
            # an int too: int / int would be a float
            if isinstance(coeff, float):
                raise TypeError(f"ExactScalar takes no float, got {coeff!r}")
            coeff = rat(coeff)
        # Canonical form: fold sqrt2 parity, strip grade from zero.
        if sqrt2 not in (0, 1):
            coeff = coeff * (2 ** (sqrt2 // 2)) if sqrt2 >= 0 else coeff / (2 ** ((-sqrt2 + 1) // 2))
            sqrt2 = sqrt2 % 2
        if not coeff.numerator:
            sqrt2 = 0
            pi_half = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sqrt2", sqrt2)
        object.__setattr__(self, "pi_half", pi_half)

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the value from its fields, as Rational does
        return ExactScalar, (self.coeff, self.sqrt2, self.pi_half)

    # -- structure ---------------------------------------------------------

    @property
    def grade(self) -> Grade:
        return (self.sqrt2, self.pi_half)

    def is_zero(self) -> bool:
        return not self.coeff.numerator

    def sign(self) -> int:
        # radical units are positive and denominators too, so the sign is
        # the numerator's: one int comparison, not two of rationals
        n = self.coeff.numerator
        return (n > 0) - (n < 0)

    # -- field operations --------------------------------------------------

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.coeff, self.sqrt2, self.pi_half)

    def __mul__(self, other) -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return ExactScalar(self.coeff * rat(other), self.sqrt2, self.pi_half)
        return ExactScalar(
            self.coeff * other.coeff,
            self.sqrt2 + other.sqrt2,
            self.pi_half + other.pi_half,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            other = ExactScalar(rat(other))
        if other.is_zero():
            raise ZeroDivisionError("division by exact zero")
        if self.is_zero():
            return ZERO
        return ExactScalar(
            self.coeff / other.coeff,
            self.sqrt2 - other.sqrt2,
            self.pi_half - other.pi_half,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.sqrt2 == other.sqrt2
            and self.pi_half == other.pi_half
        )

    def __hash__(self):
        return hash((self.coeff, self.sqrt2, self.pi_half))

    # -- numeric rendering ---------------------------------------------------

    def decimal(self, digits: int = 30) -> str:
        """The value to ``digits`` significant digits, correctly rounded.

        Ties round half up in magnitude; only a rational (grade (0, 0)) can
        tie.  The layout is mpmath's ``nstr(x, digits, strip_zeros=False)``:
        fixed notation for a decimal exponent e with min(-(digits // 3), -5)
        < e < digits, else ``d.ddd...e+N``, and ``"0.0"`` for zero.  All
        arithmetic is on integers: x^2 = coeff^2 2^sqrt2 pi^pi_half lies
        between two rationals, with pi enclosed by Machin's formula, and the
        precision doubles (Ziv's loop) until both ends round alike.  The cost
        grows with |pi_half|, through the power of pi.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.is_zero():
            return "0.0"
        num = self.coeff.numerator ** 2 << self.sqrt2
        den = self.coeff.denominator ** 2
        h = abs(self.pi_half)
        bits = 4 * digits + 32 + h.bit_length()
        while True:
            ends = [(num, den)]
            if h:  # pi^h between (p -+ err)^h / 2^(bits h)
                p, err = _pi_fixed(bits)
                one = 1 << (bits * h)
                powers = [(p - err) ** h, (p + err) ** h]
                ends = [(num * q, den * one) for q in powers]
                if self.pi_half < 0:
                    ends = [(num * one, den * q) for q in powers]
            rounded = {_sqrt_digits(a, b, digits) for a, b in ends}
            if len(rounded) == 1:
                break
            bits *= 2
        e, m = rounded.pop()
        sign = "-" if self.coeff < 0 else ""
        s = str(m)
        if min(-(digits // 3), -5) < e < digits:
            if e < 0:
                return f"{sign}0.{'0' * (-e - 1)}{s}"
            return f"{sign}{s[:e + 1]}.{s[e + 1:]}"
        return f"{sign}{s[0]}.{s[1:]}e{e:+d}"

    def __repr__(self):
        s = rat_str(self.coeff)
        if self.sqrt2:
            s += "*sqrt2"
        if self.pi_half:
            s += f"*pi^({self.pi_half}/2)"
        return f"ExactScalar({s})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rational": rat_str(self.coeff),
            "sqrt2": self.sqrt2,
            "pi_half": self.pi_half,
        }

    @classmethod
    def from_json(cls, obj: dict, sign: int = 1) -> "ExactScalar":
        """The value :meth:`to_json` wrote as ``obj``, times ``sign`` (1 or -1)."""
        if obj is ZERO:  # the certificate reader's canonical zero, read and checked already
            return ZERO
        rational, sqrt2, pi_half = obj["rational"], obj["sqrt2"], obj["pi_half"]
        if type(sqrt2) is not int or sqrt2 not in (0, 1) or type(pi_half) is not int:
            raise ValueError("sqrt2 must be 0 or 1 and pi_half an integer, "
                             f"got {sqrt2!r:.60}, {pi_half!r:.60}")
        if len(obj) != 3:  # it has the three fields just read, and more
            key = next(k for k in obj if k not in _VALUE_FIELDS)
            raise ValueError(f"unknown field {key!r:.60}")
        if rational == "0":  # another spelling of zero: the reader took the canonical one as ZERO
            return ZERO
        coeff = rat_parse(rational)
        return cls(coeff if sign == 1 else -coeff, sqrt2, pi_half)


ZERO = ExactScalar(0)
_VALUE_FIELDS = ("rational", "sqrt2", "pi_half")


@functools.lru_cache(maxsize=32)
def _pi_fixed(bits: int) -> tuple[int, int]:
    """(p, err) with |pi 2^bits - p| < err, from pi = 16 atan(1/5) - 4 atan(1/239).

    The n-th series term of 2^bits atan(1/x) is taken as
    floor(2^bits / ((2n+1) x^(2n+1))), off by less than 1; the series stops
    at the first term that floors to 0, and the alternating tail from there
    is below 1.  So n terms are within n + 1 of 2^bits atan(1/x).
    """

    def atan_inv(x: int) -> tuple[int, int]:
        total, n, power = 0, 0, (1 << bits) // x  # power = floor(2^bits / x^(2n+1))
        while power:
            total += -(power // (2 * n + 1)) if n % 2 else power // (2 * n + 1)
            power //= x * x
            n += 1
        return total, n + 1

    a, err_a = atan_inv(5)
    b, err_b = atan_inv(239)
    return 16 * a - 4 * b, 16 * err_a + 4 * err_b


def _sqrt_digits(a: int, b: int, digits: int) -> tuple[int, int]:
    """(e, m): sqrt(a/b) rounds half up to m 10^(e + 1 - digits), with m of ``digits`` digits.

    e is the decimal exponent of the rounded value, found from
    10^(2e) <= a/b < 10^(2e+2) before rounding and raised by one when the
    mantissa carries to 10^digits.  e is first estimated from bit lengths:
    CPython will not convert an int of more than 4,300 digits to str.
    """

    def at_least(t: int) -> bool:  # a/b >= 10^t
        return a >= b * 10**t if t >= 0 else a * 10**-t >= b

    t = (a.bit_length() - b.bit_length()) * 30103 // 100000
    while not at_least(t):
        t -= 1
    while at_least(t + 1):
        t += 1
    e = t // 2
    k = 2 * (digits - 1 - e)
    q = 4 * a * 10**k // b if k >= 0 else 4 * a // (b * 10**-k)
    m = (math.isqrt(q) + 1) // 2  # round(sqrt(q / 4)), half up
    if m == 10**digits:
        return e + 1, m // 10
    return e, m


def gamma_half_int(two_a: int) -> ExactScalar:
    """Exact Gamma(two_a / 2) for a positive integer two_a.

    Even arguments give factorials; odd ones carry a single sqrt pi:
    Gamma(k + 1/2) = (2k)! / (4^k k!) * sqrt(pi).
    """
    if two_a < 1:
        raise ValueError("two_a must be >= 1")
    if two_a % 2 == 0:
        n = two_a // 2
        return ExactScalar(rat(math.factorial(n - 1)))
    k = (two_a - 1) // 2
    c = rat(math.factorial(2 * k), (4**k) * math.factorial(k))
    return ExactScalar(c, 0, 1)


def beta_half_int(two_a: int, two_b: int) -> ExactScalar:
    """Exact B(two_a/2, two_b/2) = Gamma*Gamma/Gamma."""
    if two_a < 1 or two_b < 1:
        raise ValueError("arguments must be >= 1")
    return gamma_half_int(two_a) * gamma_half_int(two_b) / gamma_half_int(two_a + two_b)


def sphere_surface(d: int) -> ExactScalar:
    """Surface measure |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2), exact."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return ExactScalar(2, 0, d) / gamma_half_int(d)

