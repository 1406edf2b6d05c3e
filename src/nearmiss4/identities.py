"""Symbolic verification that the closed forms satisfy x^4 + y^4 - 8 = z^2.

Both sides expand into five Laurent-style terms coeff * (-1)^(a*n) *
lambda1^(k*n) with k in {-4, -2, 0, 2, 4}; the sides agree exactly iff
the five coefficient pairs agree, which is what the five named
equalities state.  Expansion here is a generic term convolution (it
never copies the stated coefficients), so comparing against the
hand-stated forms in the test suite is a genuine cross-check.

Key rewriting facts: lambda2^n = (-1)^n * lambda1^(-n) because
lambda1*lambda2 = -1, and mu1^n = lambda1^(2n), mu2^n = lambda1^(-2n)
because mu1 = lambda1^2 and mu1*mu2 = 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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

# A formal sum is a map (slot, alternating) -> coefficient, standing for
# sum of coeff * (-1)^(alt*n) * lambda1^(slot*n).
_Terms = dict[tuple[int, bool], QuadElem]


@dataclass(frozen=True)
class ExpansionTable:
    """One side of the comparison: slot -> (coefficient, alternating).

    Slot k holds the coefficient of lambda1^(k*n); alternating marks an
    extra (-1)^n factor.  Exactly the five canonical slots must be
    present.
    """

    entries: Mapping[int, tuple[QuadElem, bool]]

    def __post_init__(self) -> None:
        _require_canonical_slots(self.entries)


def _require_canonical_slots(entries: Mapping[int, tuple[QuadElem, bool]]) -> None:
    if set(entries) != set(SLOTS):
        raise ValueError(f"expansion table must have slots {SLOTS}, got {sorted(entries)}")


def _convolve(u: _Terms, v: _Terms) -> _Terms:
    out: _Terms = {}
    for (s1, a1), c1 in u.items():
        for (s2, a2), c2 in v.items():
            key = (s1 + s2, a1 != a2)
            acc = out.get(key)
            out[key] = c1 * c2 if acc is None else acc + c1 * c2
    return out


def _power(terms: _Terms, exponent: int) -> _Terms:
    out: _Terms = terms
    for _ in range(exponent - 1):
        out = _convolve(out, terms)
    return out


def _to_table(terms: _Terms) -> ExpansionTable:
    entries: dict[int, tuple[QuadElem, bool]] = {}
    for (slot, alt), coeff in terms.items():
        if slot in entries:
            raise ValueError(f"slot {slot} carries two parities; not representable")
        entries[slot] = (coeff, alt)
    return ExpansionTable(entries)


def expand_lhs(constants: ClosedFormConstants) -> ExpansionTable:
    """Expansion of x_n^4 + y_n^4 - R in powers lambda1^(k*n)."""
    k = constants
    x_terms: _Terms = {(1, False): k.a, (-1, True): k.b}
    y_terms: _Terms = {(1, False): k.c, (-1, True): k.d}
    total = _power(x_terms, 4)
    for key, coeff in _power(y_terms, 4).items():
        total[key] = total[key] + coeff
    total[(0, False)] = total[(0, False)] - R
    return _to_table(total)


def expand_rhs(constants: ClosedFormConstants) -> ExpansionTable:
    """Expansion of z_n^2 in powers lambda1^(k*n)."""
    k = constants
    z_terms: _Terms = {
        (2, False): k.e,
        (-2, False): k.f,
        (0, True): QuadElem(k.g, 0, k.e.d),
    }
    return _to_table(_power(z_terms, 2))


def tables_equal(lhs: ExpansionTable, rhs: ExpansionTable) -> bool:
    """Slot-by-slot coefficient and parity equality."""
    _require_canonical_slots(lhs.entries)
    _require_canonical_slots(rhs.entries)
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
# (expand_rhs) on the left, x_n^4 + y_n^4 - 8 (expand_lhs) on the right.
_FIVE = (
    (4, "e^2 = a^4 + c^4"),
    (-4, "f^2 = b^4 + d^4"),
    (2, "2*e*g = 4*a^3*b + 4*c^3*d"),
    (-2, "2*f*g = 4*a*b^3 + 4*c*d^3"),
    (0, "2*e*f + g^2 = 6*a^2*b^2 + 6*c^2*d^2 - 8"),
)


def five_identities(lhs: ExpansionTable, rhs: ExpansionTable) -> list[IdentityCheck]:
    """The five coefficient equalities, read off expansions already made.

    A false identity is a result, not an error; both sides are kept
    exactly so a discrepancy stays diagnosable.
    """
    return [_check(name, rhs.entries[slot][0], lhs.entries[slot][0]) for slot, name in _FIVE]


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
