"""Exact arithmetic for real quadratic fields Q(sqrt(d)).

A QuadElem stores four plain Python ints (a, b, den, d) and stands for
(a + b*sqrt(d))/den.  The form is canonical: den > 0 and
gcd(a, b, den) == 1, so equality and hashing compare the ints directly.
Every field operation works on the ints and reduces its result once,
with gcd(den, A, B): the denominator goes first, so a huge numerator is
only ever reduced modulo a small number, and results with den == 1 skip
the gcd altogether.

d is validated (a non-square >= 2) in one place, the public constructor
QuadElem(p, q, d), which takes the rational parts p and q.  Results of
operations come from a private constructor that trusts its inputs.  The
rational parts are read back as reduced fractions.Fraction values .p
and .q; Python ints give lossless decimal round-trips throughout.

No floating point anywhere in this module; every operation is exact.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = ["QuadElem", "DiscriminantMismatchError"]


class DiscriminantMismatchError(ValueError):
    """Mixing elements of distinct quadratic fields is always a bug."""


class QuadElem:
    """An element p + q*sqrt(d) of Q(sqrt(d)), immutable and hashable.

    QuadElem(p, q, d=577) takes rational p and q (ints, Fractions or
    anything Fraction() accepts) and rejects a square d.  Internally the
    element is (a + b*sqrt(d))/den in lowest terms; that representation
    is unique because sqrt(d) is irrational, so equality is structural.
    Square-freeness of d is the caller's responsibility (checking it
    would need factorization).  Operands may be QuadElems of the same d,
    ints or Fractions, on either side.
    """

    __slots__ = ("_a", "_b", "_den", "_d")

    def __new__(cls, p: Fraction | int, q: Fraction | int, d: int = 577) -> QuadElem:
        p, q = Fraction(p), Fraction(q)
        if d < 2 or isqrt(d) ** 2 == d:
            raise ValueError(f"discriminant must be a non-square >= 2, got {d}")
        # over the lcm of two reduced denominators gcd(a, b, den) is already 1
        den = lcm(p.denominator, q.denominator)
        a = p.numerator * (den // p.denominator)
        b = q.numerator * (den // q.denominator)
        return _make(a, b, den, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (QuadElem, (self.p, self.q, self._d))

    @property
    def p(self) -> Fraction:
        """The rational part, reduced."""
        return Fraction(self._a, self._den)

    @property
    def q(self) -> Fraction:
        """The coefficient of sqrt(d), reduced."""
        return Fraction(self._b, self._den)

    @property
    def d(self) -> int:
        return self._d

    def _parts(self, other: QuadElem | Fraction | int) -> tuple[int, int, int] | None:
        """(a, b, den) of an operand in this field; None for foreign types."""
        if isinstance(other, QuadElem):
            if other._d != self._d:
                raise DiscriminantMismatchError(
                    f"cannot combine sqrt({self._d}) with sqrt({other._d})"
                )
            return other._a, other._b, other._den
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, den = parts
        return _sum(self._a, self._b, self._den, a, b, den, self._d)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, den = parts
        return _sum(self._a, self._b, self._den, -a, -b, den, self._d)

    def __rsub__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, den = parts
        return _sum(-self._a, -self._b, self._den, a, b, den, self._d)

    def __neg__(self) -> QuadElem:
        return _make(-self._a, -self._b, self._den, self._d)

    def __mul__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return _product(self, *parts)

    __rmul__ = __mul__

    def __truediv__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return _product(self, *_inverse(*parts, self._d))

    def __rtruediv__(self, other: QuadElem | Fraction | int) -> QuadElem:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return _product(self.inverse(), *parts)

    def __pow__(self, exponent: int) -> QuadElem:
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        exponent = abs(exponent)
        result = _make(1, 0, 1, self._d)
        while exponent:
            if exponent & 1:
                result = _product(result, base._a, base._b, base._den)
            exponent >>= 1
            if exponent:
                base = _square(base)
        return result

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadElem):
            return NotImplemented
        return (
            self._a == other._a
            and self._b == other._b
            and self._den == other._den
            and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._den, self._d))

    def conj(self) -> QuadElem:
        """The field conjugate p - q*sqrt(d)."""
        return _make(self._a, -self._b, self._den, self._d)

    def norm(self) -> Fraction:
        """p^2 - d*q^2, the rational part of self * self.conj()."""
        a, b, den = self._a, self._b, self._den
        return Fraction(a * a - self._d * b * b, den * den)

    def inverse(self) -> QuadElem:
        return _make(*_inverse(self._a, self._b, self._den, self._d), self._d)

    def is_rational(self) -> bool:
        return not self._b

    def __repr__(self) -> str:
        return f"QuadElem(p={self.p!r}, q={self.q!r}, d={self._d!r})"

    def __str__(self) -> str:
        if self._b < 0:
            return f"{self.p} - {-self.q}*sqrt({self._d})"
        return f"{self.p} + {self.q}*sqrt({self._d})"


_new = object.__new__
_set_a, _set_b, _set_den, _set_d = (QuadElem.__dict__[s].__set__ for s in QuadElem.__slots__)


def _make(a: int, b: int, den: int, d: int) -> QuadElem:
    """The private constructor: (a + b*sqrt(d))/den, taken as canonical."""
    self = _new(QuadElem)
    _set_a(self, a)
    _set_b(self, b)
    _set_den(self, den)
    _set_d(self, d)
    return self


def _reduced(a: int, b: int, den: int, d: int) -> QuadElem:
    """(a + b*sqrt(d))/den for den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, a, b)
        if g != 1:
            a, b, den = a // g, b // g, den // g
    return _make(a, b, den, d)


def _sum(a1: int, b1: int, den1: int, a2: int, b2: int, den2: int, d: int) -> QuadElem:
    if den1 == den2:
        return _reduced(a1 + a2, b1 + b2, den1, d)
    return _reduced(a1 * den2 + a2 * den1, b1 * den2 + b2 * den1, den1 * den2, d)


def _product(x: QuadElem, a: int, b: int, den: int) -> QuadElem:
    a1, b1, d = x._a, x._b, x._d
    return _reduced(a1 * a + d * b1 * b, a1 * b + b1 * a, x._den * den, d)


def _square(x: QuadElem) -> QuadElem:
    a, b, d = x._a, x._b, x._d
    return _reduced(a * a + d * (b * b), 2 * (a * b), x._den * x._den, d)


def _inverse(a: int, b: int, den: int, d: int) -> tuple[int, int, int]:
    """(A, B, N) in lowest terms with (A + B*sqrt(d))/N = den/(a + b*sqrt(d)).

    That is den*(a - b*sqrt(d))/(a^2 - d*b^2), signs moved so N > 0.
    """
    n = a * a - d * b * b
    # n vanishes only at zero since sqrt(d) is irrational
    if not n:
        raise ZeroDivisionError("zero element of Q(sqrt(d)) has no inverse")
    if n < 0:
        n, den = -n, -den
    a, b = den * a, -den * b
    g = gcd(n, a, b)
    return a // g, b // g, n // g
