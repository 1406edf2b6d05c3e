"""Recurrence and closed-form tests against the known table values."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearmiss4.exactmath import QuadElem
from nearmiss4.search import SearchHit, verify_hit
from nearmiss4.sequences import (
    MAX_INDEX,
    R,
    CancellationError,
    Terms,
    Triplet,
    canonical_constants,
    carried_terms,
    closed_form_terms,
    closed_form_xy,
    closed_form_z,
    gen_recurrence,
    residual,
)

# the four known initial triplets
TABLE = [
    Triplet(0, 22, 23, 717),
    Triplet(1, 1058, 1103, 1653213),
    Triplet(2, 50806, 52967, 3812308653),
    Triplet(3, 2439746, 2543519, 8791182100413),
]


def test_recurrence_reproduces_table():
    assert list(gen_recurrence(4)) == TABLE
    assert list(gen_recurrence(1)) == TABLE[:1]


def test_recurrence_specific_indices():
    assert list(gen_recurrence(3))[2] == Triplet(2, 50806, 52967, 3812308653)
    assert list(gen_recurrence(4))[3] == Triplet(3, 2439746, 2543519, 8791182100413)


def test_recurrence_n4_derived_values():
    # independently evaluated from the table rows before this module existed
    t4 = list(gen_recurrence(5))[4]
    assert t4.x == 117158614
    assert t4.y == 122141879
    assert t4.z == 20272462111243917


def test_recurrence_rejects_zero_count():
    # at the call, before any row is asked for
    with pytest.raises(ValueError):
        gen_recurrence(0)
    with pytest.raises(ValueError):
        gen_recurrence(-3)


def test_recurrence_streams_its_rows():
    # each row is made from the two before it and none is kept: reading
    # 3000 rows, z_2999 about 10^4 digits, holds a few rows at a time
    tracemalloc.start()
    try:
        for t in gen_recurrence(3000):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n == 2999 and t.z > 10**10000
    assert peak < 2**20
    assert [t.n for t in gen_recurrence(MAX_INDEX)][-1] == MAX_INDEX - 1


def test_residual_examples():
    assert residual(22, 23, 717) == R == 8
    assert residual(1058, 1103, 1653213) == 8
    assert residual(1, 1, 1) == 1
    assert residual(1, 2, 3) == 8  # a search hit, not a family member


# small values; x^4 + y^4 and z^2 about 2^64; x of 600 digits, as at family
# member n = 356
SCALES = [2**6, 2**16, 10**600]


@st.composite
def residual_args(draw):
    """(x, y, z) at one scale, z either anywhere up to the scale squared or
    within 3 of sqrt(x^4 + y^4), so that results of both signs appear."""
    s = draw(st.sampled_from(SCALES))
    x, y = draw(st.integers(-s, s)), draw(st.integers(-s, s))
    if draw(st.booleans()):
        return x, y, draw(st.integers(-s * s, s * s))
    return x, y, isqrt(x**4 + y**4) + draw(st.integers(-3, 3))


@settings(deadline=None)
@given(residual_args())
@example((1, 1, 2))  # -2
@example((2**16, 2**16, 2**32 + 1))  # 2^64 - 2^33 - 1
@example((22, 23, -717))
def test_residual_is_x4_plus_y4_minus_z2(xyz):
    x, y, z = xyz
    assert residual(x, y, z) == x**4 + y**4 - z * z


def test_residual_is_R_to_depth_60():
    for t in gen_recurrence(60):
        assert residual(t.x, t.y, t.z) == R
        if t.n < 50:
            assert verify_hit(SearchHit(t.x, t.y, t.z, R))


def test_closed_form_examples():
    assert closed_form_xy(0) == (22, 23)
    assert closed_form_xy(1) == (1058, 1103)
    assert closed_form_xy(4) == (117158614, 122141879)
    assert closed_form_z(0) == 717
    assert closed_form_z(2) == 3812308653
    assert closed_form_z(4) == 20272462111243917


def test_closed_form_matches_recurrence_to_25():
    triplets = gen_recurrence(25)
    for t in triplets:
        assert closed_form_xy(t.n) == (t.x, t.y)
        assert closed_form_z(t.n) == t.z


@pytest.mark.parametrize("field", [None, "lambda1", "lambda2", "mu1", "mu2", *"abcdef"])
def test_carried_terms_equal_closed_form_terms(field):
    # a root or a coefficient shifted off its canonical value exposes a term
    # derived from another (b*lambda2^n as the conjugate of a*lambda1^n, say)
    k = canonical_constants()
    if field is not None:
        k = replace(k, **{field: getattr(k, field) + Fraction(1, 3)})
    carried = list(carried_terms(61, k))
    assert len(carried) == 61
    for n, terms in enumerate(carried):
        l1n, l2n, m1n, m2n = k.lambda1**n, k.lambda2**n, k.mu1**n, k.mu2**n
        assert terms == Terms(k.a * l1n, k.b * l2n, k.c * l1n, k.d * l2n, k.e * m1n, k.f * m2n)
        assert terms == closed_form_terms(n, k)


def test_carried_terms_rejects_counts_outside_the_index_range():
    for count in (0, 10**4 + 1):
        with pytest.raises(ValueError):
            carried_terms(count)


def test_closed_form_rejects_negative_index():
    with pytest.raises(ValueError):
        closed_form_xy(-1)
    with pytest.raises(ValueError):
        closed_form_z(-1)


def test_growth_and_ordering():
    triplets = list(gen_recurrence(40))
    for prev, cur in zip(triplets, triplets[1:]):
        if prev.n >= 1:
            assert cur.x > 48 * prev.x
            assert cur.y > 48 * prev.y
            assert cur.z > 2305 * prev.z
    for t in triplets:
        assert 0 < t.x < t.y
        assert t.z > 0


def test_forcing_sign_follows_parity():
    # +192 exactly at even n; both neighbours pin the phase
    t = list(gen_recurrence(5))
    assert t[2].z == 2306 * t[1].z - t[0].z + 192
    assert t[3].z == 2306 * t[2].z - t[1].z - 192
    assert t[4].z == 2306 * t[3].z - t[2].z + 192


def test_canonical_constants_are_conjugate_pairs():
    k = canonical_constants()
    assert k.lambda2 == k.lambda1.conj()
    assert k.mu2 == k.mu1.conj()
    assert k.b == k.a.conj()
    assert k.d == k.c.conj()
    assert k.f == k.e.conj()


def test_canonical_constants_exact_values():
    k = canonical_constants()
    assert k.lambda1 == QuadElem(24, 1)
    assert k.mu1 == QuadElem(1153, 48)
    assert k.a == QuadElem(11, Fraction(265, 577))
    assert k.c == QuadElem(Fraction(23, 2), Fraction(551, 1154))
    assert k.e == QuadElem(Fraction(413661, 1154), Fraction(17221, 1154))
    assert k.g == Fraction(48, 577)


def test_constants_solve_initial_conditions():
    # a, b, c, d, e, f, g are forced by the seeds and the roots; re-derive
    # them from scratch and compare
    k = canonical_constants()
    lam1, lam2, mu1, mu2 = k.lambda1, k.lambda2, k.mu1, k.mu2
    a = (QuadElem(1058, 0) - 22 * lam2) / (lam1 - lam2)
    c = (QuadElem(1103, 0) - 23 * lam2) / (lam1 - lam2)
    g = Fraction(192, 2308)
    e = (QuadElem(Fraction(1653213) + g, 0) - (717 - g) * mu2) / (mu1 - mu2)
    assert a == k.a and QuadElem(22, 0) - a == k.b
    assert c == k.c and QuadElem(23, 0) - c == k.d
    assert g == k.g
    assert e == k.e and QuadElem(717 - g, 0) - e == k.f


def test_perturbed_constants_break_cancellation():
    k = canonical_constants()
    with pytest.raises(CancellationError):
        closed_form_xy(1, replace(k, a=k.a + 1))
    with pytest.raises(CancellationError):
        closed_form_z(1, replace(k, g=k.g + Fraction(1, 3)))
    with pytest.raises(CancellationError, match="positive"):  # z_0 = 717 - 1000
        closed_form_z(0, replace(k, g=k.g - 1000))


def test_cancellation_errors_name_what_is_left_over():
    k = canonical_constants()
    with pytest.raises(CancellationError) as exc:
        closed_form_xy(0, replace(k, a=k.a + QuadElem(0, 1)))
    assert str(exc.value) == "x_0: sqrt-part did not cancel, got 22 + 1*sqrt(577)"
    with pytest.raises(CancellationError) as exc:
        closed_form_xy(0, replace(k, c=k.c + Fraction(1, 2)))
    assert str(exc.value) == "y_0: non-integer rational part 47/2"


def test_perturbed_g_by_integer_shifts_z():
    # g -> g + 1 keeps integrality but moves the value; closed form must
    # then disagree with the recurrence rather than raise
    k = canonical_constants()
    shifted = closed_form_z(0, replace(k, g=k.g + 1))
    assert shifted == 718
