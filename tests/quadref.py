"""Reference arithmetic in Q(sqrt(d)) on pairs of Fractions, by hand.

Deliberately independent of nearmiss4.exactmath: an element is a tuple
(p, q) of Fractions standing for p + q*sqrt(d), and every operation is
the textbook formula evaluated with Fraction, which reduces itself.
Slow but unarguable; the tests check QuadElem against it.
"""

from __future__ import annotations

from fractions import Fraction

Pair = tuple[Fraction, Fraction]


def pair(value) -> Pair:
    """An int or Fraction as the pair (value, 0)."""
    return Fraction(value), Fraction(0)


def add(u: Pair, v: Pair) -> Pair:
    return u[0] + v[0], u[1] + v[1]


def sub(u: Pair, v: Pair) -> Pair:
    return u[0] - v[0], u[1] - v[1]


def mul(u: Pair, v: Pair, d: int) -> Pair:
    return u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def conj(u: Pair) -> Pair:
    return u[0], -u[1]


def norm(u: Pair, d: int) -> Fraction:
    return u[0] * u[0] - d * u[1] * u[1]


def inverse(u: Pair, d: int) -> Pair:
    n = norm(u, d)
    if n == 0:
        raise ZeroDivisionError("zero has no inverse")
    return u[0] / n, -u[1] / n


def div(u: Pair, v: Pair, d: int) -> Pair:
    return mul(u, inverse(v, d), d)


def power(u: Pair, exponent: int, d: int) -> Pair:
    """u**exponent by repeated multiplication; negative means inverse first."""
    base = inverse(u, d) if exponent < 0 else u
    out = pair(1)
    for _ in range(abs(exponent)):
        out = mul(out, base, d)
    return out
