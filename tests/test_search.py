"""Scan tests: oracle equivalence, determinism, path agreement, FLT."""

import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import as_tsv, naive_scan
from nearmiss4 import search
from nearmiss4.search import (
    KERNEL_MAX_X,
    MAX_WINDOW_ROWS,
    MAX_WORKERS,
    SIEVE_MODULUS,
    SearchConfig,
    SearchHit,
    _admissible,
    _extra_rows_bound,
    _isqrt,
    _kernel_min_x,
    _kernel_start,
    _pool_size,
    _pow4,
    scan,
    verify_hit,
)
from nearmiss4.sequences import residual

FIXTURE = Path(__file__).parent / "data" / "search_oracle_max60_t50.tsv"


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_x=10, min_x=0)
    with pytest.raises(ValueError):
        SearchConfig(max_x=5, min_x=6)
    with pytest.raises(ValueError):
        SearchConfig(max_x=10, threshold=-1)
    with pytest.raises(ValueError):
        SearchConfig(max_x=10, workers=0)
    with pytest.raises(ValueError):
        SearchConfig(max_x=10, workers=MAX_WORKERS + 1)
    with pytest.raises(ValueError):  # ambiguous: which bound applies?
        SearchConfig(max_x=10, threshold=5, exact_residual=8)
    assert SearchConfig(max_x=10, workers=MAX_WORKERS).workers == MAX_WORKERS
    assert SearchConfig(max_x=10, threshold=0, exact_residual=8).window == (8, 8)
    assert SearchConfig(max_x=10, exact_residual=-7).window == (-7, -7)
    assert SearchConfig(max_x=10, threshold=5).window == (-5, 5)


def test_pool_size_never_exceeds_x_range():
    assert _pool_size(SearchConfig(max_x=4, min_x=2, workers=8)) == 3
    assert _pool_size(SearchConfig(max_x=7, min_x=7, workers=MAX_WORKERS)) == 1
    assert _pool_size(SearchConfig(max_x=100, workers=8)) == 8
    assert _pool_size(SearchConfig(max_x=10**6, workers=MAX_WORKERS)) == MAX_WORKERS


def test_exact_residual_eight_small_range():
    hits = scan(SearchConfig(max_x=30, exact_residual=8))
    assert (1, 2, 3, 8) in hits
    assert all(verify_hit(h) for h in hits)


def test_family_members_found():
    hits = scan(SearchConfig(max_x=60, min_x=2, exact_residual=8))
    assert (22, 23, 717, 8) in hits


def test_matches_committed_oracle_fixture():
    hits = scan(SearchConfig(max_x=60, threshold=50))
    assert as_tsv(hits) == FIXTURE.read_text()


def test_matches_live_oracle_on_random_ranges():
    rng = random.Random(20240577)
    for _ in range(8):
        min_x = rng.randint(1, 10)
        max_x = rng.randint(min_x, 40)
        threshold = rng.randint(0, 30)
        cfg = SearchConfig(max_x=max_x, min_x=min_x, threshold=threshold)
        assert scan(cfg) == naive_scan(min_x, max_x, threshold=threshold)
    # residuals above s and far below it leave some pairs no z at all
    for er in (8, -7, 1, 0, 100, 1000, -50):
        cfg = SearchConfig(max_x=35, exact_residual=er)
        assert scan(cfg) == naive_scan(1, 35, exact_residual=er)


def test_negative_exact_residual():
    hits = scan(SearchConfig(max_x=10, exact_residual=-7))
    assert (1, 1, 3, -7) in hits  # 1 + 1 - 9
    assert all(d == -7 for _, _, _, d in hits)


def test_threshold_zero_finds_nothing():
    assert scan(SearchConfig(max_x=200, threshold=0)) == []


def test_canonical_orientation_and_uniqueness():
    hits = scan(SearchConfig(max_x=50, threshold=40))
    assert all(x <= y for x, y, _, _ in hits)
    assert len(hits) == len(set(hits))
    assert hits == sorted(hits, key=lambda r: (r[1], r[0], r[2]))


def test_minimal_delta_always_emitted():
    # candidate-window sufficiency: whenever the best possible |delta|
    # for a pair is within threshold, a hit achieves it
    threshold = 30
    hits = scan(SearchConfig(max_x=25, threshold=threshold))
    by_pair = {}
    for x, y, z, d in hits:
        by_pair.setdefault((x, y), []).append(abs(d))
    for x in range(1, 26):
        for y in range(x, 26):
            s = x**4 + y**4
            # |s - z^2| only grows past isqrt(s) + 1, so this range is
            # exhaustive for the minimum
            best = min(abs(s - z * z) for z in range(1, math.isqrt(s) + 2))
            if best <= threshold:
                assert min(by_pair[(x, y)]) == best


def test_worker_count_does_not_change_output():
    base = scan(SearchConfig(max_x=120, threshold=10, workers=1))
    for workers in (2, 3, 5):
        cfg = SearchConfig(max_x=120, threshold=10, workers=workers)
        assert scan(cfg) == base
    # the kernel splits its x classes between the workers
    for window in ({"exact_residual": 8}, {"threshold": 300}):
        base = scan(SearchConfig(max_x=1200, **window))
        assert (1058, 1103, 1653213, 8) in base
        for workers in (2, 3, 5, 8):
            cfg = SearchConfig(max_x=1200, workers=workers, **window)
            assert scan(cfg) == base


def test_processes_are_capped_at_the_cpu_count(monkeypatch):
    # the stripes stay as many as the workers asked for; only the
    # processes that run them are capped
    base = scan(SearchConfig(max_x=1200, threshold=300))
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            assert [job[1:3] for job in jobs] == [(i, 8) for i in range(8)]
            return list(map(fn, jobs))

    monkeypatch.setattr(search, "Pool", InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert scan(SearchConfig(max_x=1200, threshold=300, workers=8)) == base
    assert started == [2]

    def no_pool(processes):
        raise AssertionError("one CPU started a pool")

    monkeypatch.setattr(search, "Pool", no_pool)
    for cpus in (1, None):
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        for window in ({"exact_residual": 8}, {"threshold": 300}):
            cfg = SearchConfig(max_x=1200, workers=8, **window)
            assert scan(cfg) == scan(replace(cfg, workers=1))


def test_more_workers_than_stripes():
    cfg = SearchConfig(max_x=4, min_x=2, threshold=20, workers=8)
    assert scan(cfg) == naive_scan(2, 4, threshold=20)


def test_fast_and_exact_paths_agree():
    for cfg in (
        SearchConfig(max_x=200, threshold=50),
        SearchConfig(max_x=200, threshold=3),
        SearchConfig(max_x=300, exact_residual=8),
        SearchConfig(max_x=150, min_x=7, exact_residual=-16),
    ):
        assert scan(cfg) == scan(cfg, force_exact=True)


def no_window_loop(x, cfg):
    raise AssertionError(f"x={x} left the kernel")


def test_large_threshold_stays_in_kernel(monkeypatch):
    # 2*x^4 > t^2 holds for every x here although t > 2^32, so no x may
    # fall back to the window loop
    cfg = SearchConfig(min_x=200_000, max_x=200_100, threshold=2**32 + 1)
    expected = scan(cfg, force_exact=True)
    monkeypatch.setattr(search, "_scan_x_exact", no_window_loop)
    assert expected and scan(cfg) == expected


def test_tightest_kernel_pairs(monkeypatch):
    # 2*x^4 = t^2 + 1 only at (x, t) = (1, 1) and (13, 239) (Ljunggren
    # 1942): the kernel's regime holds with no room to spare, and the
    # hit is z = isqrt(s + t) = t, the edge of the one-candidate rule
    cases = [
        (SearchConfig(min_x=13, max_x=40, threshold=239), SearchHit(13, 13, 239, 1)),
        (SearchConfig(max_x=5, threshold=1), SearchHit(1, 1, 1, 1)),
    ]
    expected = [scan(cfg, force_exact=True) for cfg, _ in cases]
    monkeypatch.setattr(search, "_scan_x_exact", no_window_loop)
    for (cfg, hit), exact in zip(cases, expected):
        hits = scan(cfg)
        assert hit in hits and hits == exact


def test_family_member_two_found():
    # s > 2^63 here: it wraps in int64, yet the kernel residual is exact
    hits = scan(SearchConfig(min_x=50806, max_x=52967, exact_residual=8))
    assert hits == [(50806, 52967, 3812308653, 8)]


def test_narrow_high_window_matches_exact(monkeypatch):
    lo, hi = 10_000_000, 10_000_150
    tabled = []

    def recording_pow4(v):
        tabled.append(v)
        return _pow4(v)

    monkeypatch.setattr(search, "_pow4", recording_pow4)
    cfg = SearchConfig(min_x=lo, max_x=hi, threshold=10**12)
    hits = scan(cfg)
    # the pow4 tables cover the window only, never 1..max_x
    assert tabled and all(lo <= v.min() and v.max() <= hi for v in tabled)
    assert hits and hits == scan(cfg, force_exact=True)
    cfg = SearchConfig(min_x=lo, max_x=hi, exact_residual=8)
    assert scan(cfg) == scan(cfg, force_exact=True)


# x near which s = x^4 + y^4 (y close to x) crosses 2^53, 2^62, 2^63 and
# 2^64, and the top of the kernel's range
BOUNDARY_X = (8192, 38968, 46341, 55109, KERNEL_MAX_X)


@st.composite
def boundary_pairs(draw):
    centre = draw(st.sampled_from(BOUNDARY_X))
    y = min(centre + draw(st.integers(-30, 30)), KERNEL_MAX_X)
    return y - draw(st.integers(0, 3)), y


@settings(max_examples=200, deadline=None)
@given(boundary_pairs())
def test_kernel_row_is_exact_isqrt(pair):
    x, y = pair
    p4, f4 = _pow4(np.arange(x, y + 1, dtype=np.int64))
    # the kernel subtracts lo from the y tables; |lo| <= t_max keeps x in
    # the kernel's regime 2*x^4 > t^2
    t_max = math.isqrt(2 * x**4 - 1)
    for lo in (-t_max, 0, t_max):
        # s - lo wraps mod 2^64 without warning
        r, d = _isqrt(p4[0] + (p4 - lo), f4[0] + (f4 - lo))
        for j, (r_j, d_j) in enumerate(zip(r.tolist(), d.tolist())):
            s = x**4 + (x + j) ** 4 - lo
            assert r_j == math.isqrt(s)
            assert d_j == s - r_j * r_j


@pytest.mark.parametrize("skew", [1 + 2**-41, 1 - 2**-41])
def test_kernel_repairs_off_by_one_estimates(skew):
    # below KERNEL_MAX_X the float estimate is rarely off by one, and no
    # sampled pair had it too low; skewed float tables move sqrt by up to
    # 0.32 either way, so that the kernel corrects in both directions
    lo, hi = 1_000_000, 1_000_060
    p4, f4 = _pow4(np.arange(lo, hi + 1, dtype=np.int64))
    f4 = f4 * skew
    off = 0
    for i in range(hi - lo + 1):
        r, d = _isqrt(p4[i] + p4[i:], f4[i] + f4[i:])
        estimate = np.sqrt(f4[i] + f4[i:]).astype(np.int64)
        for j, (r_j, d_j) in enumerate(zip(r.tolist(), d.tolist())):
            s = (lo + i) ** 4 + (lo + i + j) ** 4
            assert r_j == math.isqrt(s)
            assert d_j == s - r_j * r_j
            off += int(estimate[j]) != r_j
    assert off > 0


@settings(max_examples=100, deadline=None)
@given(boundary_pairs(), st.floats(0, 1))
def test_kernel_matches_exact_at_boundaries(pair, fraction):
    x, y = pair
    s = x**4 + y**4
    r = math.isqrt(s)
    nearest = min(s - r * r, s - (r + 1) ** 2, key=abs)
    # thresholds below isqrt(2 x^4) keep every x of the window in the kernel
    threshold = int(fraction * math.isqrt(2 * x**4 - 1))
    for fields in (
        {"threshold": threshold},
        {"threshold": abs(nearest)},
        {"exact_residual": nearest},
    ):
        cfg = SearchConfig(min_x=x, max_x=y, **fields)
        hits = scan(cfg)
        assert hits == scan(cfg, force_exact=True)
        if "exact_residual" in fields or fields["threshold"] >= abs(nearest):
            assert any((h.x, h.y, h.delta) == (x, y, nearest) for h in hits)


WINDOWS = [(r, r) for r in (8, 0, -7, 72, 2**50 + 3, -(2**40))] + [(-5, 5), (3, 9), (-50, 50)]


@pytest.mark.parametrize(
    "lo, hi", WINDOWS, ids=[str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in WINDOWS]
)
def test_admissible_table_is_the_squares_mod_432(lo, hi):
    m = SIEVE_MODULUS
    squares = {k * k % m for k in range(m)}
    expected = [
        [any((a**4 + b**4 - v) % m in squares for v in range(lo, hi + 1)) for b in range(m)]
        for a in range(m)
    ]
    assert m == 432
    assert _admissible(lo, hi).tolist() == expected


def test_admissible_share_for_the_family_residual():
    assert _admissible(8, 8).sum() == 19584  # 10.49% of 432^2
    assert not _admissible(100, 100).any()  # no kernel pair can have residual 100
    # thresholds from 9 on admit every class pair
    assert _admissible(-9, 9).all() and not _admissible(-8, 8).all()


@st.composite
def sieve_windows(draw):
    """(min_x, max_x, window): ranges shorter than one sieve period or
    spanning several; exact residuals small, large, negative or taken
    from a pair in the range so that the range holds a hit, and
    thresholds up to 5000."""
    if draw(st.booleans()):
        width = draw(st.integers(0, SIEVE_MODULUS - 1))
        min_x = draw(st.one_of(st.integers(1, 3000), st.integers(1, KERNEL_MAX_X - width)))
    else:
        width = draw(st.integers(SIEVE_MODULUS, SIEVE_MODULUS + 200))
        min_x = draw(st.integers(1, 600))
    max_x = min_x + width
    kind = draw(st.sampled_from(["small", "large", "pair", "threshold"]))
    if kind == "threshold":
        return min_x, max_x, {"threshold": draw(st.integers(0, 5000))}
    if kind == "small":
        residual = draw(st.integers(-200, 200))
    elif kind == "large":
        residual = draw(st.integers(-(2**50), 2**50 + 3))
    else:
        x = draw(st.integers(min_x, max_x))
        y = draw(st.integers(x, max_x))
        s = x**4 + y**4
        r = math.isqrt(s)
        residual = draw(st.sampled_from([s - r * r, s - (r + 1) ** 2]))
    return min_x, max_x, {"exact_residual": residual}


@settings(max_examples=27, deadline=None)
@given(sieve_windows())
def test_sieve_matches_exact(window):
    min_x, max_x, fields = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, **fields)
    assert scan(cfg) == scan(cfg, force_exact=True)


@pytest.mark.parametrize("residual", [8, -7, 72, 0])
def test_sieve_matches_exact_across_periods(residual):
    # pairs x < y in one class mod 432 exist only on ranges longer than
    # 432; min_x 5 leaves the range unaligned to the period and starts
    # it in the window loop for residual 72
    cfg = SearchConfig(min_x=5, max_x=5 + 2 * SIEVE_MODULUS, exact_residual=residual)
    assert scan(cfg) == scan(cfg, force_exact=True)


def test_sieve_takes_a_same_class_pair_once():
    # x and y share a class mod 432, so the kernel block of that class
    # holds the pair both as (x, y) and as (y, x)
    x, y = 1000, 1000 + SIEVE_MODULUS
    z = math.isqrt(x**4 + y**4) + 1
    residual = x**4 + y**4 - z * z
    assert _kernel_min_x(abs(residual)) <= x  # the pair is in the kernel's regime
    for window in ({"exact_residual": residual}, {"threshold": abs(residual)}):
        cfg = SearchConfig(min_x=x, max_x=y, **window)
        hits = scan(cfg)
        assert hits.count((x, y, z, residual)) == 1
        assert hits == scan(cfg, force_exact=True)


def test_threshold_zero_is_sieved_as_residual_zero():
    cfg = SearchConfig(max_x=600, threshold=0)
    assert scan(cfg) == scan(SearchConfig(max_x=600, exact_residual=0)) == []


def test_force_exact_runs_no_sieve(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("force_exact reached the kernel")

    monkeypatch.setattr(search, "_admissible", no_sieve)
    monkeypatch.setattr(search, "_scan_kernel", no_sieve)
    cfg = SearchConfig(max_x=40, exact_residual=8)
    assert scan(cfg, force_exact=True) == naive_scan(1, 40, exact_residual=8)


def test_kernel_min_x():
    for t in (0, 1, 7, 8, 50, 239, 20000, 10**12, 2**50 + 3):
        x = _kernel_min_x(t)
        assert 2 * x**4 > t * t >= 2 * (x - 1) ** 4


def test_huge_threshold_window_is_refused():
    # about 2.1e8 rows; refused before anything runs
    with pytest.raises(ValueError, match="rows"):
        SearchConfig(max_x=20, threshold=10**12)
    with pytest.raises(ValueError, match="rows"):
        SearchConfig(min_x=KERNEL_MAX_X, max_x=KERNEL_MAX_X + 1000, threshold=10**20)


def test_extra_rows_bound_holds_and_admits_the_dense_workload():
    for max_x, threshold in ((60, 50), (40, 2000), (25, 30), (12, 10**5)):
        cfg = SearchConfig(max_x=max_x, threshold=threshold)
        x0 = _kernel_start(cfg)  # the window loop takes the x below it
        window_rows = [h for h in scan(cfg, force_exact=True) if h.x < x0]
        window_pairs = sum(max_x - x + 1 for x in range(1, x0))
        assert len(window_rows) <= window_pairs + _extra_rows_bound(cfg)
    for max_x in range(393, 401):  # the scan-dense benchmark configs
        assert _extra_rows_bound(SearchConfig(max_x=max_x, threshold=20000)) <= MAX_WINDOW_ROWS
    # past KERNEL_MAX_X every pair takes the window loop, yet a small
    # threshold adds at most one row per x
    cfg = SearchConfig(min_x=2 * KERNEL_MAX_X, max_x=2 * KERNEL_MAX_X + 10**4, threshold=10**6)
    assert _extra_rows_bound(cfg) == 10**4 + 1
    cfg = SearchConfig(min_x=2 * KERNEL_MAX_X, max_x=2 * KERNEL_MAX_X + 10**8)
    assert _extra_rows_bound(cfg) == 0  # threshold 0 adds no row


def test_no_delta_zero_ever():
    # FLT for fourth powers at desk scale
    for cfg in (
        SearchConfig(max_x=500, threshold=2),
        SearchConfig(max_x=60, threshold=50),
        SearchConfig(max_x=300, exact_residual=0),
    ):
        assert all(h.delta != 0 for h in scan(cfg))


def test_verify_hit():
    assert verify_hit(SearchHit(22, 23, 717, 8))
    assert not verify_hit(SearchHit(22, 23, 717, 0))
    assert verify_hit(SearchHit(1, 2, 3, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**70), st.integers(0, 2**70), st.integers(1, 2**140))
def test_verify_hit_reads_the_residual(x, dy, z):
    # the search's delta and the family's residual are one quantity
    y = x + dy
    assert verify_hit(SearchHit(x, y, z, residual(x, y, z)))
    assert not verify_hit(SearchHit(x, y, z, residual(x, y, z) + 1))
