"""Identity-verifier tests: canonical truths, perturbation flips, symmetry."""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
import quadref
from hypothesis import given, settings
from hypothesis import strategies as st

from nearmiss4.exactmath import QuadElem
from nearmiss4.identities import (
    SLOTS,
    ExpansionTable,
    expand_lhs,
    expand_rhs,
    five_identities,
    report_as_json,
    tables_equal,
    verify_five_identities,
    verify_root_identities,
)
from nearmiss4.sequences import R, canonical_constants

K = canonical_constants()


def test_five_identities_hold():
    checks = verify_five_identities(K)
    assert len(checks) == 5
    assert all(c.equal for c in checks)
    for c in checks:
        assert c.left == c.right


def test_five_identities_from_tables_match_verifier():
    perturbed = replace(K, e=K.e + Fraction(1, 577))
    for k in (K, perturbed):
        assert five_identities(expand_lhs(k), expand_rhs(k)) == verify_five_identities(k)
    assert not all(c.equal for c in verify_five_identities(perturbed))


def test_root_identities_hold():
    checks = verify_root_identities(K)
    assert len(checks) == 3
    assert all(c.equal for c in checks)


def test_tables_equal_for_canonical_constants():
    assert tables_equal(expand_lhs(K), expand_rhs(K))


def test_expansion_slots():
    for table in (expand_lhs(K), expand_rhs(K)):
        assert set(table.entries) == set(SLOTS)


def test_lhs_expansion_frozen_values():
    # computed term-by-term from the constants with an independent
    # formal-expansion script before this module was written
    lhs = expand_lhs(K)
    assert lhs.entries[4] == QuadElem(
        Fraction(171116091089, 665858), Fraction(7123656081, 665858)
    )
    assert lhs.entries[2] == QuadElem(
        Fraction(19855728, 332929), Fraction(826608, 332929)
    )
    assert lhs.entries[0] == QuadElem(Fraction(-665864, 332929), 0)


def test_lhs_matches_stated_coefficients():
    # the hand-stated binomial coefficients, assembled without the
    # squaring machinery
    a, b, c, d = K.a, K.b, K.c, K.d
    stated = ExpansionTable(
        {
            4: a**4 + c**4,
            2: 4 * a**3 * b + 4 * c**3 * d,
            0: 6 * a**2 * b**2 + 6 * c**2 * d**2 - 8,
            -2: 4 * a * b**3 + 4 * c * d**3,
            -4: b**4 + d**4,
        }
    )
    assert tables_equal(expand_lhs(K), stated)


def test_rhs_matches_stated_coefficients():
    e, f = K.e, K.f
    g = QuadElem(K.g, 0)
    stated = ExpansionTable(
        {
            4: e**2,
            2: 2 * e * g,
            0: 2 * e * f + g**2,
            -2: 2 * f * g,
            -4: f**2,
        }
    )
    assert tables_equal(expand_rhs(K), stated)


def _power(terms, degree):
    """slot -> reference pair of a formal sum raised to degree, formed one
    ordered monomial at a time with quadref, never with QuadElem."""
    out = {}
    for choice in product(terms, repeat=degree):
        coeff = quadref.pair(1)
        for _, c in choice:
            coeff = quadref.mul(coeff, c, 577)
        slot = sum(s for s, _ in choice)
        out[slot] = quadref.add(out.get(slot, quadref.pair(0)), coeff)
    return out


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)
quad_st = st.builds(QuadElem, fractions_st, fractions_st)


@settings(deadline=None, max_examples=60)
@given(st.lists(quad_st, min_size=6, max_size=6), fractions_st)
def test_expansions_match_a_monomial_reference(coeffs, g):
    # six independent constants, not conjugate pairs, with mixed denominators
    a, b, c, d, e, f = ((u.p, u.q) for u in coeffs)
    lhs = _power([(1, a), (-1, b)], 4)
    for slot, coeff in _power([(1, c), (-1, d)], 4).items():
        lhs[slot] = quadref.add(lhs[slot], coeff)
    lhs[0] = quadref.sub(lhs[0], quadref.pair(R))
    rhs = _power([(2, e), (-2, f), (0, quadref.pair(g))], 2)
    k = replace(K, **dict(zip("abcdef", coeffs)), g=g)
    for table, expected in ((expand_lhs(k), lhs), (expand_rhs(k), rhs)):
        assert {slot: (v.p, v.q) for slot, v in table.entries.items()} == expected


def test_five_identities_agree_with_table_comparison():
    # the five equalities and the slot-by-slot comparison are the same
    # statement; both verdicts must always match
    perturbations = [K]
    for field in ("a", "b", "c", "d", "e", "f"):
        perturbations.append(replace(K, **{field: getattr(K, field) + 1}))
    perturbations.append(replace(K, g=K.g + 1))
    for k in perturbations:
        five_ok = all(c.equal for c in verify_five_identities(k))
        assert five_ok == tables_equal(expand_lhs(k), expand_rhs(k))


def test_conjugating_coefficients_mirrors_slots():
    for table in (expand_lhs(K), expand_rhs(K)):
        for slot in SLOTS:
            assert table.entries[slot].conj() == table.entries[-slot]


def test_slot_zero_is_pure_rational():
    assert expand_lhs(K).entries[0].is_rational()
    assert expand_rhs(K).entries[0].is_rational()


def test_characteristic_quadratics():
    lam1, mu1 = K.lambda1, K.mu1
    assert lam1**2 == 48 * lam1 + 1
    assert mu1**2 == 2306 * mu1 - 1


def test_perturbed_g_flips_exactly_the_g_bullets():
    checks = verify_five_identities(replace(K, g=K.g + 1))
    assert checks[0].equal and checks[1].equal  # e^2, f^2 untouched by g
    assert not checks[2].equal
    assert not checks[3].equal
    assert not checks[4].equal
    assert not tables_equal(expand_lhs(replace(K, g=K.g + 1)), expand_rhs(replace(K, g=K.g + 1)))


def test_each_identity_reads_the_constants_its_name_mentions():
    # shifting one constant breaks exactly the identities whose name
    # mentions it, so every name is tied to the slot it is read from
    for field in "abcdefg":
        for shift in (1, Fraction(1, 577)):
            checks = verify_five_identities(replace(K, **{field: getattr(K, field) + shift}))
            assert [c.equal for c in checks] == [field not in c.name for c in checks], (
                field,
                shift,
            )


def test_any_single_coefficient_perturbation_breaks_the_tables():
    for field in ("a", "b", "c", "d", "e", "f"):
        k = replace(K, **{field: getattr(K, field) + 1})
        assert not tables_equal(expand_lhs(k), expand_rhs(k))
        assert not all(c.equal for c in verify_five_identities(k))


def test_perturbed_roots_flip_root_identities():
    checks = verify_root_identities(replace(K, lambda1=K.lambda1 + 1))
    assert not checks[0].equal  # lambda1*lambda2 = -1
    assert not checks[1].equal  # mu1 = lambda1^2
    assert checks[2].equal  # mu1*mu2 untouched
    checks = verify_root_identities(replace(K, mu1=K.mu1 + 1))
    assert not checks[1].equal
    assert not checks[2].equal


def test_tables_equal_reflexive_and_sensitive():
    lhs = expand_lhs(K)
    assert tables_equal(lhs, lhs)
    bumped = dict(lhs.entries)
    bumped[4] = bumped[4] + 1
    assert not tables_equal(lhs, ExpansionTable(bumped))


def test_malformed_table_rejected():
    entries = dict(expand_lhs(K).entries)
    del entries[0]
    with pytest.raises(ValueError):
        ExpansionTable(entries)


def test_report_serialization():
    docs = report_as_json(verify_five_identities(K))
    assert len(docs) == 5
    first = docs[0]
    assert first["identity"] == "e^2 = a^4 + c^4"
    assert first["equal"] is True
    assert "sqrt(577)" in first["left"]
    assert first["left"] == first["right"]
