"""The infinite family of triplets with x^4 + y^4 - z^2 = R, R = 8.

residual(x, y, z) = x^4 + y^4 - z^2 is the one residual of the package:
a family member is a triplet with residual R, and a search hit is a
triplet whose residual lies in the search window.

The family is stated once: two seed triplets INITIAL_TRIPLETS, the
multiplier A = 48 and the miss R.  Everything else is derived from them:
the recurrences x_n = A*x_{n-1} + x_{n-2} (same for y) and
z_n = (A^2+2)*z_{n-1} - z_{n-2} + (-1)^n * F with F = 192, and the
equivalent closed forms over Q(sqrt(A^2/4+1)) = Q(sqrt(577)).  Evaluating
a closed form must cancel every sqrt(577) term identically; anything
else is a bug, never a rounding concern.  gen_recurrence streams the
members, carrying the last two triplets only.

A closed form at index n is the sum of its Terms: a*lambda1^n,
b*lambda2^n, c*lambda1^n, d*lambda2^n, e*mu1^n and f*mu2^n, plus
(-1)^n * g for z.  closed_form_terms(n), their default, raises each root
by repeated squaring (closed_form_powers) and multiplies by its
coefficients, for random access; carried_terms(count) walks indices
0..count-1 in order, one product per term per index, for callers that
visit every index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import isqrt
from typing import Iterator, NamedTuple

from .exactmath import QuadElem

__all__ = [
    "Triplet",
    "ClosedFormConstants",
    "Powers",
    "Terms",
    "CancellationError",
    "INITIAL_TRIPLETS",
    "canonical_constants",
    "gen_recurrence",
    "residual",
    "closed_form_powers",
    "closed_form_terms",
    "carried_terms",
    "closed_form_xy",
    "closed_form_z",
]

# Seeds consumed by the three-term recurrences (n = 0 and n = 1).
# Module-level on purpose: tests use this as an injection seam.
INITIAL_TRIPLETS = ((22, 23, 717), (1058, 1103, 1653213))
A = 48  # x_n = A*x_{n-1} + x_{n-2}; even, so lambda1 lies in Q(sqrt(A^2/4+1))
D = A * A // 4 + 1  # 577: the family's field is Q(sqrt(D))
R = 8  # the miss: residual(x, y, z) = R on every member
# Indices 0..MAX_INDEX-1 are served.  z_n has about 3.4*n digits, so the
# cost per index grows with n: verify --count 10^4 takes about 25 s (a
# fresh process on 2 vCPUs).
MAX_INDEX = 10**4


class CancellationError(ArithmeticError):
    """A closed form failed to collapse to a plain integer.

    For the canonical constants this must never happen; it surfaces
    either an implementation bug or deliberately perturbed constants.
    """


class Triplet(NamedTuple):
    n: int
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class ClosedFormConstants:
    """Roots and coefficients for the closed-form expressions.

    x_n = a*lambda1^n + b*lambda2^n
    y_n = c*lambda1^n + d*lambda2^n
    z_n = e*mu1^n + f*mu2^n + (-1)^n * g

    Canonically lambda2/b/d/f are the conjugates of lambda1/a/c/e,
    lambda1*lambda2 = -1, mu1 = lambda1^2 and mu1*mu2 = 1.  None of that
    is enforced at construction so that perturbed instances can be built
    to exercise the identity checkers.
    """

    lambda1: QuadElem
    lambda2: QuadElem
    mu1: QuadElem
    mu2: QuadElem
    a: QuadElem
    b: QuadElem
    c: QuadElem
    d: QuadElem
    e: QuadElem
    f: QuadElem
    g: Fraction


def _forcing() -> int:
    """F = z2 - (A^2+2)*z1 + z0, which is g*(A^2+4) because mu1 + mu2 = A^2+2."""
    (x0, y0, z0), (x1, y1, z1) = INITIAL_TRIPLETS
    x2, y2 = A * x1 + x0, A * y1 + y0
    return isqrt(x2**4 + y2**4 - R) - (A * A + 2) * z1 + z0


def _fit(u0: Fraction | int, u1: Fraction | int, r: QuadElem) -> QuadElem:
    """k with u_n = k*r^n + conj(k)*conj(r)^n at n = 0 and n = 1."""
    return (u1 - u0 * r.conj()) / (r - r.conj())


def canonical_constants() -> ClosedFormConstants:
    """The exact constants of the family, derived from INITIAL_TRIPLETS, A and R."""
    (x0, y0, z0), (x1, y1, z1) = INITIAL_TRIPLETS
    lambda1 = QuadElem(Fraction(A, 2), 1, D)
    mu1 = lambda1 * lambda1
    g = Fraction(_forcing(), A * A + 4)
    a, c, e = _fit(x0, x1, lambda1), _fit(y0, y1, lambda1), _fit(z0 - g, z1 + g, mu1)
    return ClosedFormConstants(
        lambda1=lambda1, lambda2=lambda1.conj(), mu1=mu1, mu2=mu1.conj(),
        a=a, b=a.conj(), c=c, d=c.conj(), e=e, f=e.conj(), g=g,
    )


def _members() -> Iterator[Triplet]:
    """Members 0..MAX_INDEX-1 in order, carrying the last two triplets only."""
    (x0, y0, z0), (x1, y1, z1) = INITIAL_TRIPLETS
    z_mult, forcing = A * A + 2, _forcing()  # z_{n+2} takes (-1)^n * F
    for n in range(MAX_INDEX):
        yield Triplet(n, x0, y0, z0)
        x0, y0, z0, x1, y1, z1 = x1, y1, z1, A * x1 + x0, A * y1 + y0, z_mult * z1 - z0 + forcing
        forcing = -forcing


def gen_recurrence(count: int) -> Iterator[Triplet]:
    """The triplets at indices 0..count-1, by the recurrences, lazily.

    count is checked at the call; reading the rows holds two at a time.
    """
    if not 1 <= count <= MAX_INDEX:
        raise ValueError(f"count must be in 1..{MAX_INDEX}, got {count}")
    return islice(_members(), count)


def residual(x: int, y: int, z: int) -> int:
    """x^4 + y^4 - z^2, exactly; R on every member of the family.

    Formed as x2*x2 + (y2 - z)*(y2 + z) with x2 = x^2 and y2 = y^2, since
    y^4 - z^2 = (y^2 - z)*(y^2 + z): one product of z's size in place of
    squaring y^2 and z.
    """
    x2, y2 = x * x, y * y
    return x2 * x2 + (y2 - z) * (y2 + z)


def _exact_int(value: QuadElem, what: str) -> int:
    n = value.as_int()
    if n is not None:
        return n
    if not value.is_rational():
        raise CancellationError(f"{what}: sqrt-part did not cancel, got {value}")
    raise CancellationError(f"{what}: non-integer rational part {value.p}")


class Powers(NamedTuple):
    """lambda1^n, lambda2^n, mu1^n and mu2^n of one ClosedFormConstants
    at one index n, each raised from its own root."""

    lambda1: QuadElem
    lambda2: QuadElem
    mu1: QuadElem
    mu2: QuadElem


def _check_index(n: int) -> None:
    if not 0 <= n < MAX_INDEX:
        raise ValueError(f"index must be in 0..{MAX_INDEX - 1}, got {n}")


def _roots(constants: ClosedFormConstants | None) -> Powers:
    """The roots themselves: the Powers at index 1."""
    k = constants if constants is not None else canonical_constants()
    return Powers(k.lambda1, k.lambda2, k.mu1, k.mu2)


def closed_form_powers(n: int, constants: ClosedFormConstants | None = None) -> Powers:
    """The four powers at index n, each root raised by repeated squaring."""
    _check_index(n)
    return Powers(*(root**n for root in _roots(constants)))


class Terms(NamedTuple):
    """a*lambda1^n, b*lambda2^n, c*lambda1^n, d*lambda2^n, e*mu1^n and
    f*mu2^n of one ClosedFormConstants at one index n, each named by its
    coefficient: x_n = a + b, y_n = c + d and z_n = e + f + (-1)^n * g."""

    a: QuadElem
    b: QuadElem
    c: QuadElem
    d: QuadElem
    e: QuadElem
    f: QuadElem


def closed_form_terms(
    n: int, constants: ClosedFormConstants | None = None, powers: Powers | None = None
) -> Terms:
    """The six terms at index n, each coefficient times its root's power.

    powers, the Powers at index n of the same constants, defaults to
    closed_form_powers(n, constants).
    """
    _check_index(n)
    k = constants if constants is not None else canonical_constants()
    l1n, l2n, m1n, m2n = powers if powers is not None else closed_form_powers(n, k)
    return Terms(k.a * l1n, k.b * l2n, k.c * l1n, k.d * l2n, k.e * m1n, k.f * m2n)


def carried_terms(
    count: int, constants: ClosedFormConstants | None = None
) -> Iterator[Terms]:
    """The six terms at indices 0..count-1, in order, lazily.

    Each starts from its coefficient and is multiplied by its own root
    once per index.  No term is derived from another (b*lambda2^n is not
    taken as the conjugate of a*lambda1^n, nor e*mu1^n from lambda1^(2n)),
    so perturbed constants are evaluated exactly as given.
    """
    if not 1 <= count <= MAX_INDEX:
        raise ValueError(f"count must be in 1..{MAX_INDEX}, got {count}")
    k = constants if constants is not None else canonical_constants()
    l1, l2, m1, m2 = _roots(k)

    def advance(t: Terms, _: None) -> Terms:
        return Terms(t.a * l1, t.b * l2, t.c * l1, t.d * l2, t.e * m1, t.f * m2)

    start = Terms(k.a, k.b, k.c, k.d, k.e, k.f)
    return accumulate(repeat(None, count - 1), advance, initial=start)


def closed_form_xy(
    n: int, constants: ClosedFormConstants | None = None, terms: Terms | None = None
) -> tuple[int, int]:
    """(x_n, y_n) from the closed forms, with exact cancellation checks.

    terms, the Terms at index n of the same constants, defaults to
    closed_form_terms(n, constants).
    """
    _check_index(n)
    t = terms if terms is not None else closed_form_terms(n, constants)
    return _exact_int(t.a + t.b, f"x_{n}"), _exact_int(t.c + t.d, f"y_{n}")


def closed_form_z(
    n: int, constants: ClosedFormConstants | None = None, terms: Terms | None = None
) -> int:
    """z_n from its closed form; must come out a positive integer.

    terms, the Terms at index n of the same constants, defaults to
    closed_form_terms(n, constants).
    """
    _check_index(n)
    k = constants if constants is not None else canonical_constants()
    t = terms if terms is not None else closed_form_terms(n, k)
    sign = 1 if n % 2 == 0 else -1
    z = _exact_int(t.e + t.f + sign * k.g, f"z_{n}")
    if z <= 0:
        raise CancellationError(f"z_{n}: expected a positive integer, got {z}")
    return z
