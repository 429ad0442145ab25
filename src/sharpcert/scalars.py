"""Exact scalars: rational x (sqrt 2)^s x (sqrt pi)^p, plus interval enclosures.

Every real constant in the certification pipeline (surface measures,
Beta/Gamma values at half-integers, Funk-Hecke eigenvalues, weight
coefficients) lives in the graded field

    value = coeff * (sqrt 2)^sqrt2 * (sqrt pi)^pi_half,

with coeff an arbitrary-precision rational, sqrt2 in {0, 1} (even powers
of sqrt 2 are folded into coeff) and pi_half any integer.  Sums across
distinct grades are not representable and raise :class:`GradeMismatch`.
"""

from __future__ import annotations

import math

from mpmath.ctx_iv import MPIntervalContext

from .backend import is_rational, rat, rat_str
from .errors import GradeMismatch

Grade = tuple  # (sqrt2, pi_half)


class ExactScalar:
    """Immutable exact real number with a {sqrt2, sqrt pi} radical grade."""

    __slots__ = ("coeff", "sqrt2", "pi_half")

    def __init__(self, coeff, sqrt2: int = 0, pi_half: int = 0):
        if not is_rational(coeff):
            coeff = rat(coeff)
        # Canonical form: fold sqrt2 parity, strip grade from zero.
        if sqrt2 not in (0, 1):
            coeff = coeff * (2 ** (sqrt2 // 2)) if sqrt2 >= 0 else coeff / (2 ** ((-sqrt2 + 1) // 2))
            sqrt2 = sqrt2 % 2
        if coeff == 0:
            sqrt2 = 0
            pi_half = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sqrt2", sqrt2)
        object.__setattr__(self, "pi_half", pi_half)

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def grade(self) -> Grade:
        return (self.sqrt2, self.pi_half)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational_grade(self) -> bool:
        return self.sqrt2 == 0 and self.pi_half == 0

    def sign(self) -> int:
        # radical units are positive, so the sign is the coefficient's
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    # -- field operations --------------------------------------------------

    def _check_addable(self, other: "ExactScalar") -> None:
        if self.is_zero() or other.is_zero():
            return
        if self.grade != other.grade:
            raise GradeMismatch(
                f"cannot add grades {self.grade} and {other.grade}"
            )

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        self._check_addable(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return ExactScalar(self.coeff + other.coeff, self.sqrt2, self.pi_half)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

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

    def compare(self, other: "ExactScalar") -> int:
        """Exact three-way comparison; grades must match (or a side is zero)."""
        d = self - other
        return d.sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- numeric rendering ---------------------------------------------------

    def to_interval(self, precision_bits: int = 128) -> "IntervalScalar":
        """A floating interval provably containing the exact value."""
        if precision_bits < 32:
            raise ValueError("precision_bits must be >= 32")
        ctx = MPIntervalContext()
        ctx.prec = precision_bits
        v = ctx.mpf(int(self.coeff.numerator)) / ctx.mpf(int(self.coeff.denominator))
        if self.sqrt2:
            v = v * ctx.sqrt(ctx.mpf(2))
        if self.pi_half:
            p = ctx.sqrt(ctx.pi) ** abs(self.pi_half)
            v = v * p if self.pi_half > 0 else v / p
        return IntervalScalar.from_iv(v, precision_bits)

    def decimal(self, digits: int = 30, precision_bits: int | None = None) -> str:
        if precision_bits is None:
            precision_bits = max(128, int(digits * 3.4) + 32)
        return self.to_interval(precision_bits).decimal(digits)

    def __repr__(self):
        s = rat_str(self.coeff)
        if self.sqrt2:
            s += "*sqrt2"
        if self.pi_half:
            s += f"*pi^({self.pi_half}/2)"
        return f"ExactScalar({s})"

    # -- serialization -------------------------------------------------------

    def to_json(self, with_decimal: bool = False) -> dict:
        obj = {
            "rational": rat_str(self.coeff),
            "sqrt2": self.sqrt2,
            "pi_half": self.pi_half,
        }
        if with_decimal:
            obj["decimal"] = self.decimal(30)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExactScalar":
        return cls(rat(obj["rational"]), int(obj["sqrt2"]), int(obj["pi_half"]))


ZERO = ExactScalar(0)


def pi_power_half(k: int) -> ExactScalar:
    """(sqrt pi)^k as an exact scalar."""
    return ExactScalar(1, 0, k)


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
    return ExactScalar(2) * pi_power_half(d) / gamma_half_int(d)


class IntervalScalar:
    """A closed interval [center - radius, center + radius] of mpmath floats.

    Used as the numeric cross-check of the exact path and for decimal
    rendering; every constructor rounds outward.
    """

    __slots__ = ("ctx", "iv", "precision_bits")

    def __init__(self, ctx: MPIntervalContext, iv, precision_bits: int):
        if iv.delta < 0:
            raise ValueError("negative radius")
        self.ctx = ctx
        self.iv = iv
        self.precision_bits = precision_bits

    @classmethod
    def from_iv(cls, iv, precision_bits: int) -> "IntervalScalar":
        return cls(iv.ctx, iv, precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: int = 128) -> "IntervalScalar":
        ctx = MPIntervalContext()
        ctx.prec = precision_bits
        return cls(ctx, ctx.mpf([lo, hi]), precision_bits)

    @property
    def center(self):
        import mpmath

        lo = mpmath.mp.make_mpf(self.iv._mpi_[0])
        hi = mpmath.mp.make_mpf(self.iv._mpi_[1])
        with mpmath.workprec(self.precision_bits + 8):
            return (lo + hi) / 2

    @property
    def radius(self):
        import mpmath

        lo = mpmath.mp.make_mpf(self.iv._mpi_[0])
        hi = mpmath.mp.make_mpf(self.iv._mpi_[1])
        with mpmath.workprec(self.precision_bits + 8):
            # round the half-width up one ulp so [center-radius, center+radius]
            # still encloses the interval
            return (hi - lo) / 2 * (1 + mpmath.mpf(2) ** (-self.precision_bits))

    @property
    def lo(self):
        return self.iv.a

    @property
    def hi(self):
        return self.iv.b

    def contains(self, other) -> bool:
        """Containment of an ExactScalar, IntervalScalar, or float.

        An ExactScalar is refuted only when its own enclosure is disjoint
        from this one: when this interval is itself just a rounding of an
        exact value, a second rounding at the same precision need not fit
        inside it.
        """
        if isinstance(other, ExactScalar):
            other = other.to_interval(self.precision_bits + 16)
            return other.iv.a <= self.iv.b and self.iv.a <= other.iv.b
        if isinstance(other, IntervalScalar):
            return self.iv.a <= other.iv.a and other.iv.b <= self.iv.b
        return self.iv.a <= other <= self.iv.b

    def strictly_negative(self) -> bool:
        return self.iv.b < 0

    def strictly_positive(self) -> bool:
        return self.iv.a > 0

    def decimal(self, digits: int = 30) -> str:
        import mpmath

        with mpmath.workprec(self.precision_bits + 8):
            return mpmath.nstr(self.center, digits, strip_zeros=False)

    def __repr__(self):
        return f"IntervalScalar([{self.iv.a}, {self.iv.b}])"
