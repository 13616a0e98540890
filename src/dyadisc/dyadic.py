"""Exact arithmetic on dyadic rationals m * 2**-e.

Every coordinate, Haar coefficient and counting sum in this package lives in
the ring of dyadic rationals, so the core computations never round. Values
are normalized to an odd mantissa (zero is stored as 0 * 2**0), which makes
equality, ordering and hashing structural. The exponent may be any integer;
negative exponents represent even integers such as 2**n.
"""

from __future__ import annotations

import operator
from fractions import Fraction

__all__ = ["DyadicRational", "dyadic", "ZERO", "ONE"]


class DyadicRational:
    """Immutable exact value mantissa * 2**-exponent with odd mantissa.

    Supports +, -, *, unary -, abs, **k (k >= 0), comparisons and mixing
    with plain ints. Division is deliberately absent; multiply by a power
    of two via :meth:`scale_pow2` instead.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        if not isinstance(mantissa, int) or not isinstance(exponent, int):
            raise TypeError("mantissa and exponent must be ints")
        if mantissa == 0:
            object.__setattr__(self, "mantissa", 0)
            object.__setattr__(self, "exponent", 0)
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            object.__setattr__(self, "mantissa", mantissa >> shift)
            object.__setattr__(self, "exponent", exponent - shift)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_float(cls, value: float) -> "DyadicRational":
        """Exact conversion; every finite float is a dyadic rational."""
        num, den = float(value).as_integer_ratio()
        return cls(num, den.bit_length() - 1)

    # -- conversions ------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa, 1 << self.exponent)
        return Fraction(self.mantissa << -self.exponent)

    def to_float(self) -> float:
        """Nearest-even float; raises OverflowError outside float range."""
        if self.exponent <= 0:
            return float(self.mantissa << -self.exponent)
        # int/int true division is correctly rounded in CPython.
        return self.mantissa / (1 << self.exponent)

    def __float__(self) -> float:
        return self.to_float()

    def __int__(self) -> int:
        if self.exponent > 0:
            raise ValueError(f"{self} is not an integer")
        return self.mantissa << -self.exponent

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, DyadicRational):
            return other
        if isinstance(other, int):
            return DyadicRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exponent, o.exponent)
        m = (self.mantissa << (e - self.exponent)) + (o.mantissa << (e - o.exponent))
        return DyadicRational(m, e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DyadicRational(self.mantissa * o.mantissa, self.exponent + o.exponent)

    __rmul__ = __mul__

    def __neg__(self):
        return DyadicRational(-self.mantissa, self.exponent)

    def __abs__(self):
        return DyadicRational(abs(self.mantissa), self.exponent)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return DyadicRational(self.mantissa**k, self.exponent * k)

    def scale_pow2(self, k: int) -> "DyadicRational":
        """Exact value * 2**k."""
        if self.mantissa == 0:
            return self
        return DyadicRational(self.mantissa, self.exponent - k)

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other) -> int:
        e = max(self.exponent, other.exponent)
        a = self.mantissa << (e - self.exponent)
        b = other.mantissa << (e - other.exponent)
        return (a > b) - (a < b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (Fraction, float)):
                return self.as_fraction() == other
            return NotImplemented
        return self.mantissa == o.mantissa and self.exponent == o.exponent

    def _order(compare):
        """Ordering operator: compare applied to the exact values of self and other."""

        def method(self, other):
            o = self._coerce(other)
            if o is not None:
                return compare(self._cmp(o), 0)
            if isinstance(other, (Fraction, float)):
                return compare(self.as_fraction(), other)
            return NotImplemented

        return method

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)
    del _order

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.mantissa != 0

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        return f"DyadicRational({self.mantissa}, {self.exponent})"

    def __str__(self):
        if self.exponent <= 0:
            return str(self.mantissa << -self.exponent)
        return f"{self.mantissa}/2^{self.exponent}"


ZERO = DyadicRational(0)
ONE = DyadicRational(1)


def dyadic(mantissa: int, exponent: int = 0) -> DyadicRational:
    """Normalized dyadic rational mantissa * 2**-exponent."""
    return DyadicRational(mantissa, exponent)
