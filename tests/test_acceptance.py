"""Acceptance suite: one test per criterion, zero tolerance throughout.

Every numeric assertion is exact; the only bounds are wall-clock
budgets.  Each test prints a `[criterion N] ...: PASS/FAIL` line
(visible with `pytest -s` or on failure).
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from oracle import as_tsv, naive_scan
from nearmiss4 import cli
from nearmiss4.exactmath import QuadElem
from nearmiss4.identities import (
    expand_lhs,
    expand_rhs,
    tables_equal,
    verify_five_identities,
    verify_root_identities,
)
from nearmiss4.search import SearchConfig, scan
from nearmiss4.sequences import (
    R,
    canonical_constants,
    closed_form_xy,
    closed_form_z,
    gen_recurrence,
    residual,
)

FIXTURE = Path(__file__).parent / "data" / "search_oracle_max60_t50.tsv"

PAPER_TSV = (
    "0\t22\t23\t717\n"
    "1\t1058\t1103\t1653213\n"
    "2\t50806\t52967\t3812308653\n"
    "3\t2439746\t2543519\t8791182100413\n"
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["gen", "--count", "4"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        with criterion(1, "gen --count 4 reproduces the table byte-exactly in < 0.1 s"):
            assert code == 0
            assert out == PAPER_TSV
            assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_2_residual_is_R_to_depth_200():
    with criterion(2, "residual is exactly R = 8 for all n < 200 in < 5 s"):
        start = time.perf_counter()
        triplets = gen_recurrence(200)
        assert all(residual(t.x, t.y, t.z) == R for t in triplets)
        elapsed = time.perf_counter() - start
        assert triplets[-1].x > 10**300  # genuinely huge by the end
        assert elapsed < 5, f"took {elapsed:.3f}s"


def test_criterion_3_closed_form_equivalence_to_50():
    with criterion(3, "closed forms equal the recurrence exactly for n < 50 in < 5 s"):
        start = time.perf_counter()
        for t in gen_recurrence(50):
            assert closed_form_xy(t.n) == (t.x, t.y)
            assert closed_form_z(t.n) == t.z
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.3f}s"


def test_criterion_4_identity_suite_with_perturbations():
    with criterion(4, "5 + 3 + 1 identities verify; perturbations flip in < 1 s"):
        start = time.perf_counter()
        k = canonical_constants()
        assert all(c.equal for c in verify_five_identities(k))
        assert all(c.equal for c in verify_root_identities(k))
        assert tables_equal(expand_lhs(k), expand_rhs(k))

        bumped_g = replace(k, g=k.g + 1)
        flags = [c.equal for c in verify_five_identities(bumped_g)]
        assert flags == [True, True, False, False, False]
        assert not tables_equal(expand_lhs(bumped_g), expand_rhs(bumped_g))

        for field in ("a", "b", "c", "d", "e", "f"):
            bumped = replace(k, **{field: getattr(k, field) + 1})
            assert not tables_equal(expand_lhs(bumped), expand_rhs(bumped))
            assert not all(c.equal for c in verify_five_identities(bumped))
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.3f}s"


def test_criterion_5_search_reproduces_family(capsys):
    start = time.perf_counter()
    code = cli.main(
        ["search", "--min-x", "2", "--max-x", "1200", "--exact-residual", "8"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        with criterion(5, "search --min-x 2 --max-x 1200 --exact-residual 8 in < 10 s"):
            assert code == 0
            assert "22\t23\t717\t8\n" in out
            assert "1058\t1103\t1653213\t8\n" in out
            assert elapsed < 10, f"took {elapsed:.3f}s"


def test_criterion_6_oracle_equivalence():
    with criterion(6, "scan identical to the committed brute-force fixture"):
        hits = scan(SearchConfig(max_x=60, threshold=50))
        got = as_tsv([(h.x, h.y, h.z, h.delta) for h in hits])
        assert got == FIXTURE.read_text()
        # and against the live oracle at another point of the allowed box
        hits = scan(SearchConfig(max_x=45, min_x=3, threshold=17))
        assert [(h.x, h.y, h.z, h.delta) for h in hits] == naive_scan(3, 45, threshold=17)


def test_criterion_7_no_exact_solutions():
    with criterion(7, "no scan ever yields delta = 0 (FLT, exponent 4)"):
        rng = random.Random(4577)
        for _ in range(12):
            min_x = rng.randint(1, 1600)
            max_x = min(min_x + rng.randint(10, 400), 2000)
            threshold = rng.randint(0, 64)
            cfg = SearchConfig(max_x=max_x, min_x=min_x, threshold=threshold)
            assert all(h.delta != 0 for h in scan(cfg))
        assert scan(SearchConfig(max_x=2000, threshold=0)) == []
        assert scan(SearchConfig(max_x=2000, exact_residual=0)) == []


def test_criterion_8_worker_determinism(pool_at_any_size):
    with criterion(8, "search output byte-identical for workers 1, 2, 8 at max_x 5000"):
        # the threshold window and the exact residual run the same class-blocked kernel
        for window in ({"threshold": 8}, {"exact_residual": 8}):
            outputs = []
            for workers in (1, 2, 8):
                cfg = SearchConfig(max_x=5000, workers=workers, **window)
                hits = scan(cfg)
                outputs.append(as_tsv([(h.x, h.y, h.z, h.delta) for h in hits]).encode())
            assert outputs[0] == outputs[1] == outputs[2]
            assert outputs[0]  # the range is not trivially empty


def test_criterion_9_exactmath_property_suite():
    with criterion(9, "10^4 randomized cases per exactmath property, zero failures"):
        rng = random.Random(577)

        def rand_fraction():
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

        def rand_quad():
            return QuadElem(rand_fraction(), rand_fraction())

        one = QuadElem(1, 0)
        zero = QuadElem(0, 0)

        for _ in range(10_000):
            u, v, w = rand_quad(), rand_quad(), rand_quad()
            assert (u + v) + w == u + (v + w)
            assert u + v == v + u
            assert (u * v) * w == u * (v * w)
            assert u * v == v * u
            assert u * (v + w) == u * v + u * w
            assert u + (-u) == zero
            if u:
                assert u * u.inverse() == one

        for _ in range(10_000):
            u, v = rand_quad(), rand_quad()
            assert (u * v).conj() == u.conj() * v.conj()
            assert (u + v).conj() == u.conj() + v.conj()
            assert (u * v).norm() == u.norm() * v.norm()
            for part in ((u * v).p, (u * v).q):
                assert part.denominator > 0
                assert gcd(abs(part.numerator), part.denominator) == 1

        for _ in range(10_000):
            s = rng.randint(0, 10**40)
            r = isqrt(s)
            assert r * r <= s < (r + 1) * (r + 1)
