"""Symbolic verification that the closed forms satisfy x^4 + y^4 - 8 = z^2.

Both sides expand into the five degree-4 monomials
lambda1^(i*n) * lambda2^(j*n) with i + j = 4, each keyed by its slot
k = i - j in {-4, -2, 0, 2, 4}; the sides agree exactly iff the five
coefficients agree, which is what the five named equalities state.
Expansion here squares generic formal sums (it never copies the stated
coefficients): x_n^4 is (x_n^2)^2, and a square forms each unordered pair
of terms once, so both sides take 24 QuadElem products.  Comparing
against the hand-stated forms in the test suite is a genuine cross-check.

Key rewriting facts: lambda1*lambda2 = -1, mu1 = lambda1^2 and
mu1*mu2 = 1 give mu2 = lambda2^2, so mu1^n and mu2^n sit at slots 2 and
-2, (-1)^n = (lambda1*lambda2)^n at slot 0, and the constant R equals
R * (lambda1*lambda2)^(2n), also slot 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import QuadElem
from .sequences import ClosedFormConstants, R

__all__ = [
    "SLOTS",
    "ExpansionTable",
    "IdentityCheck",
    "expand_lhs",
    "expand_rhs",
    "five_identities",
    "verify_five_identities",
    "verify_root_identities",
    "tables_equal",
    "report_as_json",
]

SLOTS = (-4, -2, 0, 2, 4)

# A formal sum is a map slot -> coefficient, standing for the sum of
# coeff * lambda1^(i*n) * lambda2^(j*n) with slot = i - j.
_Terms = dict[int, QuadElem | Fraction]


@dataclass(frozen=True)
class ExpansionTable:
    """One side of the comparison, of degree 4: slot -> coefficient.

    Slot k holds the coefficient of lambda1^(i*n) * lambda2^(j*n) with
    i + j = 4 and i - j = k.  Exactly the five canonical slots must be
    present.
    """

    entries: Mapping[int, QuadElem]

    def __post_init__(self) -> None:
        if set(self.entries) != set(SLOTS):
            raise ValueError(
                f"expansion table must have slots {SLOTS}, got {sorted(self.entries)}"
            )


def _square(terms: _Terms) -> _Terms:
    """The formal sum squared: each unordered pair of terms multiplied once."""
    out: _Terms = {}
    items = list(terms.items())
    for i, (s1, c1) in enumerate(items):
        for s2, c2 in items[i:]:
            term = c1 * c2
            if s2 != s1:
                term = term + term  # the cross term appears twice
            acc = out.get(s1 + s2)
            out[s1 + s2] = term if acc is None else acc + term
    return out


def expand_lhs(constants: ClosedFormConstants) -> ExpansionTable:
    """Expansion of x_n^4 + y_n^4 - R, x_n = a*lambda1^n + b*lambda2^n (y: c, d)."""
    k = constants
    total = _square(_square({1: k.a, -1: k.b}))
    for slot, coeff in _square(_square({1: k.c, -1: k.d})).items():
        total[slot] = total[slot] + coeff
    total[0] = total[0] - R
    return ExpansionTable(total)


def expand_rhs(constants: ClosedFormConstants) -> ExpansionTable:
    """Expansion of z_n^2, z_n = e*mu1^n + f*mu2^n + (-1)^n * g."""
    k = constants
    # g is rational; slot 0 is still a QuadElem, as 2*e*f comes before g^2
    return ExpansionTable(_square({2: k.e, -2: k.f, 0: k.g}))


def tables_equal(lhs: ExpansionTable, rhs: ExpansionTable) -> bool:
    """Whether the five coefficients agree slot by slot: the five identities."""
    return all(lhs.entries[slot] == rhs.entries[slot] for slot in SLOTS)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    left: QuadElem
    right: QuadElem
    equal: bool


def _check(name: str, left: QuadElem, right: QuadElem) -> IdentityCheck:
    return IdentityCheck(name, left, right, left == right)


# The five named equalities, each the coefficient of one slot: z_n^2
# (expand_rhs) on the left, x_n^4 + y_n^4 - R (expand_lhs) on the right.
_FIVE = (
    (4, "e^2 = a^4 + c^4"),
    (-4, "f^2 = b^4 + d^4"),
    (2, "2*e*g = 4*a^3*b + 4*c^3*d"),
    (-2, "2*f*g = 4*a*b^3 + 4*c*d^3"),
    (0, f"2*e*f + g^2 = 6*a^2*b^2 + 6*c^2*d^2 - {R}"),
)


def five_identities(lhs: ExpansionTable, rhs: ExpansionTable) -> list[IdentityCheck]:
    """The five coefficient equalities, read off expansions already made.

    A false identity is a result, not an error; both sides are kept
    exactly so a discrepancy stays diagnosable.
    """
    return [_check(name, rhs.entries[slot], lhs.entries[slot]) for slot, name in _FIVE]


def verify_five_identities(constants: ClosedFormConstants) -> list[IdentityCheck]:
    """The five coefficient equalities tying the two expansions together."""
    return five_identities(expand_lhs(constants), expand_rhs(constants))


def verify_root_identities(constants: ClosedFormConstants) -> list[IdentityCheck]:
    """lambda1*lambda2 = -1, mu1 = lambda1^2, mu1*mu2 = 1."""
    k = constants
    one = QuadElem(1, 0, k.lambda1.d)
    return [
        _check("lambda1 * lambda2 = -1", k.lambda1 * k.lambda2, -one),
        _check("mu1 = lambda1^2", k.mu1, k.lambda1**2),
        _check("mu1 * mu2 = 1", k.mu1 * k.mu2, one),
    ]


def report_as_json(checks: list[IdentityCheck]) -> list[dict]:
    return [
        {
            "identity": c.name,
            "left": str(c.left),
            "right": str(c.right),
            "equal": c.equal,
        }
        for c in checks
    ]
