"""Exact-arithmetic unit and property tests."""

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd, isqrt

import pytest
import quadref
from hypothesis import given, settings
from hypothesis import strategies as st

from nearmiss4.exactmath import DiscriminantMismatchError, QuadElem

LAM1 = QuadElem(24, 1)
LAM2 = QuadElem(24, -1)
MU1 = QuadElem(1153, 48)
MU2 = QuadElem(1153, -48)
A = QuadElem(11, Fraction(265, 577))
B = QuadElem(11, Fraction(-265, 577))
E = QuadElem(Fraction(413661, 1154), Fraction(17221, 1154))
F = QuadElem(Fraction(413661, 1154), Fraction(-17221, 1154))

ONE = QuadElem(1, 0)
ZERO = QuadElem(0, 0)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)
quad_st = st.builds(QuadElem, fractions_st, fractions_st)
nonzero_quad_st = quad_st.filter(bool)


# --- frozen examples -------------------------------------------------------

def test_conjugate_sum_gives_recurrence_coefficient():
    assert LAM1 + LAM2 == QuadElem(48, 0)


def test_additive_identity():
    assert A + ZERO == A
    assert 0 + A == A


def test_a_plus_b_is_x0():
    assert A + B == QuadElem(22, 0)


def test_lambda_product_is_minus_one():
    assert LAM1 * LAM2 == QuadElem(-1, 0)


def test_lambda_squared_is_mu():
    assert LAM1 * LAM1 == MU1
    assert LAM1**2 == MU1


def test_multiplicative_identity():
    assert A * ONE == A
    assert 1 * A == A


def test_mu_inverse_is_conjugate():
    assert MU1**-1 == MU2
    assert MU1 * MU2 == ONE


def test_pow_zero_is_one():
    assert A**0 == ONE
    assert ZERO**0 == ONE


def test_conjugation():
    assert LAM1.conj() == LAM2
    assert E.conj() == F
    assert A.conj().conj() == A


def test_norms():
    assert LAM1.norm() == -1
    assert MU1.norm() == 1
    assert ZERO.norm() == 0


def test_isqrt_examples():
    assert isqrt(514089) == 717  # 22^4 + 23^4 - 8
    assert isqrt(0) == 0
    assert isqrt(2) == 1


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_discriminant_mismatch_rejected():
    other = QuadElem(1, 1, d=2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(DiscriminantMismatchError):
            op(LAM1, other)
        with pytest.raises(DiscriminantMismatchError):
            op(other, LAM1)


def test_square_discriminant_rejected():
    for bad in (-4, 0, 1, 4, 9, 577**2):
        with pytest.raises(ValueError):
            QuadElem(1, 1, d=bad)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO**-1
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_str_format():
    assert str(A) == "11 + 265/577*sqrt(577)"
    assert str(LAM2) == "24 - 1*sqrt(577)"
    assert str(F) == "413661/1154 - 17221/1154*sqrt(577)"


def test_division():
    assert (MU1 / LAM1) == LAM1
    assert (A * B) / B == A


def test_integer_decimal_round_trip():
    huge = 48**321 + 7
    assert int(str(huge)) == huge
    assert int(str(-huge)) == -huge
    assert str(0) == "0"


def test_rational_string_round_trip():
    r = Fraction(-12707, 577)
    assert Fraction(str(r)) == r
    assert str(Fraction(48, 577)) == "48/577"
    assert str(Fraction(-414, 18)) == "-23"  # reduced on construction


# --- properties ------------------------------------------------------------

@given(quad_st, quad_st, quad_st)
def test_field_axioms(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w
    assert u + (-u) == ZERO


@given(nonzero_quad_st)
def test_multiplicative_inverse(u):
    assert u * u.inverse() == ONE


@given(quad_st, quad_st)
def test_conjugation_is_ring_homomorphism(u, v):
    assert (u * v).conj() == u.conj() * v.conj()
    assert (u + v).conj() == u.conj() + v.conj()


@given(quad_st, quad_st)
def test_norm_is_multiplicative(u, v):
    assert (u * v).norm() == u.norm() * v.norm()


@given(quad_st)
def test_norm_is_self_times_conjugate(u):
    assert u * u.conj() == QuadElem(u.norm(), 0)


@settings(deadline=None)
@given(nonzero_quad_st, st.integers(-20, 20), st.integers(-20, 20))
def test_pow_addition_law(u, m, n):
    assert u ** (m + n) == u**m * u**n


@given(st.integers(0, 10**30))
def test_isqrt_postcondition(s):
    r = isqrt(s)
    assert r * r <= s < (r + 1) * (r + 1)


def test_isqrt_postcondition_exhaustive_small():
    for s in range(0, 10**6 + 1):
        r = isqrt(s)
        assert r * r <= s < (r + 1) * (r + 1)


@given(fractions_st, fractions_st, fractions_st, fractions_st)
def test_rational_canonical_form(p1, q1, p2, q2):
    u = QuadElem(p1, q1)
    v = QuadElem(p2, q2)
    for result in (u + v, u - v, u * v):
        for part in (result.p, result.q):
            assert part.denominator > 0
            assert gcd(abs(part.numerator), part.denominator) == 1


# --- value-object contract -------------------------------------------------

def test_pickle_and_copy_round_trips():
    huge = A * LAM1**500
    for u in (A, ZERO, huge, QuadElem(Fraction(-3, 7), Fraction(5, 2), d=2)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(u, protocol))
            assert type(back) is QuadElem
            assert back == u and back.d == u.d
        assert copy.copy(u) == u
        assert copy.deepcopy(u) == u
        assert copy.deepcopy([u, u]) == [u, u]


def test_equal_elements_hash_equal():
    assert QuadElem(Fraction(2, 4), 0) == QuadElem(Fraction(1, 2), 0)
    assert hash(QuadElem(Fraction(2, 4), 0)) == hash(QuadElem(Fraction(1, 2), 0))
    assert hash(QuadElem(Fraction(-6, 4), Fraction(9, 6))) == hash(QuadElem(Fraction(-3, 2), Fraction(3, 2)))
    assert len({LAM1 * LAM2, QuadElem(-1, 0), -ONE}) == 1


@given(quad_st, quad_st)
def test_equal_results_hash_equal(u, v):
    for left, right in ((u * v, v * u), (u + v - v, u), (u * u.conj(), QuadElem(u.norm(), 0))):
        assert left == right
        assert hash(left) == hash(right)


def test_elements_are_immutable():
    u = QuadElem(1, 2)
    for name in ("p", "q", "d", "extra", "_a"):
        with pytest.raises(AttributeError):
            setattr(u, name, 3)
        with pytest.raises(AttributeError):
            delattr(u, name)
    assert u == QuadElem(1, 2)


def test_keyword_construction_and_repr():
    u = QuadElem(p=Fraction(1, 2), q=3, d=2)
    assert u == QuadElem(Fraction(1, 2), 3, 2)
    assert u.d == 2
    assert repr(u) == "QuadElem(p=Fraction(1, 2), q=Fraction(3, 1), d=2)"
    assert repr(A) == "QuadElem(p=Fraction(11, 1), q=Fraction(265, 577), d=577)"
    assert eval(repr(E), {"QuadElem": QuadElem, "Fraction": Fraction}) == E


def test_rational_parts_are_reduced_fractions():
    u = QuadElem(Fraction(6, 4), Fraction(-10, 4))
    assert type(u.p) is Fraction and (u.p.numerator, u.p.denominator) == (3, 2)
    assert type(u.q) is Fraction and (u.q.numerator, u.q.denominator) == (-5, 2)
    assert type(u.d) is int
    assert QuadElem(7, 0).q == 0 and QuadElem(7, 0).q.denominator == 1


def test_comparison_with_other_types_is_unequal():
    assert QuadElem(1, 0) != 1
    assert QuadElem(1, 0) != Fraction(1)
    assert QuadElem(1, 0, d=2) != QuadElem(1, 0, d=3)
    with pytest.raises(TypeError):
        A + 1.5
    with pytest.raises(TypeError):
        A**Fraction(1, 2)


# --- differential against the Fraction-pair reference ----------------------

operand_st = st.one_of(quad_st, st.integers(-60, 60), fractions_st)
huge_st = st.builds(lambda c, n: c * LAM1**n, fractions_st.filter(bool), st.integers(0, 500))

BINARY = {
    "+": (operator.add, quadref.add),
    "-": (operator.sub, quadref.sub),
    "*": (operator.mul, lambda u, v: quadref.mul(u, v, 577)),
    "/": (operator.truediv, lambda u, v: quadref.div(u, v, 577)),
}


def _pair(value):
    return (value.p, value.q) if isinstance(value, QuadElem) else quadref.pair(value)


def assert_matches(got, expected):
    """got is a QuadElem whose parts are exactly the reduced reference pair."""
    assert type(got) is QuadElem and got.d == 577
    for part, ref in zip((got.p, got.q), expected):
        assert type(part) is Fraction
        assert (part.numerator, part.denominator) == (ref.numerator, ref.denominator)
    assert got == QuadElem(*expected)
    assert hash(got) == hash(QuadElem(*expected))


def _check_binary(left, right, symbol):
    op, ref = BINARY[symbol]
    try:
        expected = ref(_pair(left), _pair(right))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    assert_matches(op(left, right), expected)


@settings(deadline=None)
@given(quad_st, operand_st, st.sampled_from(sorted(BINARY)))
def test_binary_operators_match_reference(u, v, symbol):
    _check_binary(u, v, symbol)
    _check_binary(v, u, symbol)


@settings(deadline=None)
@given(st.one_of(quad_st, huge_st))
def test_unary_operations_match_reference(u):
    ref = _pair(u)
    assert_matches(u.conj(), quadref.conj(ref))
    assert_matches(-u, quadref.sub(quadref.pair(0), ref))
    norm = u.norm()
    assert type(norm) is Fraction and norm == quadref.norm(ref, 577)
    if u:
        assert_matches(u.inverse(), quadref.inverse(ref, 577))
    else:
        with pytest.raises(ZeroDivisionError):
            u.inverse()


@settings(deadline=None)
@given(nonzero_quad_st, st.integers(-25, 25))
def test_pow_matches_reference(u, exponent):
    assert_matches(u**exponent, quadref.power(_pair(u), exponent, 577))


@settings(deadline=None, max_examples=40)
@given(huge_st, st.one_of(huge_st, operand_st), st.sampled_from(sorted(BINARY)))
def test_huge_operands_match_reference(u, v, symbol):
    _check_binary(u, v, symbol)
    _check_binary(v, u, symbol)


@settings(deadline=None, max_examples=20)
@given(fractions_st.filter(bool), st.integers(-500, 500))
def test_huge_powers_match_reference(c, n):
    expected = quadref.mul(quadref.pair(c), quadref.power((Fraction(24), Fraction(1)), n, 577), 577)
    assert_matches(c * LAM1**n, expected)


def test_negative_norm_inverse_sign():
    # lambda1 has norm -1, so its inverse is -lambda2 and its odd powers flip sign
    assert LAM1.norm() == -1
    assert LAM1.inverse() == -LAM2
    for n in (1, 2, 3, 499, 500):
        u = A * LAM1**n
        assert_matches(u.inverse(), quadref.inverse(_pair(u), 577))
        assert u * u.inverse() == ONE
        assert LAM1**-n == (-LAM2) ** n
