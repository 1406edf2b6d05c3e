"""Exact arithmetic for real quadratic fields Q(sqrt(D)).

Integers are plain Python ints (arbitrary precision, lossless decimal
round-trip); rationals are fractions.Fraction (always reduced, positive
denominator).  QuadElem layers the field Q(sqrt(D)) on top: numbers
p + q*sqrt(D) with rational p, q and a fixed positive non-square D.

No floating point anywhere in this module; every operation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

__all__ = [
    "QuadElem",
    "DiscriminantMismatchError",
    "isqrt",
]


class DiscriminantMismatchError(ValueError):
    """Mixing elements of distinct quadratic fields is always a bug."""


@dataclass(frozen=True)
class QuadElem:
    """An element p + q*sqrt(d) of Q(sqrt(d)).

    The representation is unique because d is required to be a
    non-square, so equality is plain structural equality of (p, q, d).
    Square-freeness of d is the caller's responsibility (checking it
    would need factorization); everything here only relies on sqrt(d)
    being irrational.
    """

    p: Fraction
    q: Fraction
    d: int = 577

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"discriminant must be a non-square >= 2, got {self.d}")

    def _lift(self, other: QuadElem | Fraction | int) -> QuadElem:
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise DiscriminantMismatchError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other: QuadElem | Fraction | int) -> QuadElem:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(self.p + other.p, self.q + other.q, self.d)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | Fraction | int) -> QuadElem:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(self.p - other.p, self.q - other.q, self.d)

    def __rsub__(self, other: QuadElem | Fraction | int) -> QuadElem:
        return (-self) + other

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.p, -self.q, self.d)

    def __mul__(self, other: QuadElem | Fraction | int) -> QuadElem:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(
            self.p * other.p + self.d * self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadElem | Fraction | int) -> QuadElem:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: QuadElem | Fraction | int) -> QuadElem:
        lifted = self._lift(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted * self.inverse()

    def __pow__(self, exponent: int) -> QuadElem:
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = QuadElem(Fraction(1), Fraction(0), self.d)
        while exponent:
            if exponent & 1:
                result *= base
            base *= base
            exponent >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def conj(self) -> QuadElem:
        """The field conjugate p - q*sqrt(d)."""
        return QuadElem(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """p^2 - d*q^2, the rational part of self * self.conj()."""
        return self.p * self.p - self.d * self.q * self.q

    def inverse(self) -> QuadElem:
        # conj/norm; norm vanishes only at zero since sqrt(d) is irrational
        n = self.norm()
        if not n:
            raise ZeroDivisionError("zero element of Q(sqrt(d)) has no inverse")
        return QuadElem(self.p / n, -self.q / n, self.d)

    def is_rational(self) -> bool:
        return not self.q

    def __str__(self) -> str:
        if self.q < 0:
            return f"{self.p} - {-self.q}*sqrt({self.d})"
        return f"{self.p} + {self.q}*sqrt({self.d})"
