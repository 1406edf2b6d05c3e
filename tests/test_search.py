"""Scan tests: oracle equivalence, determinism, path agreement, FLT."""

import math
import multiprocessing
from collections.abc import Sequence
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracle import as_tsv, naive_scan
from nearmiss4 import search
from nearmiss4.search import (
    INTERVAL_MAX_T,
    KERNEL_MAX_X,
    MAX_WINDOW_ROWS,
    MAX_WORKERS,
    SIEVE_MODULUS,
    Hits,
    SearchConfig,
    SearchHit,
    _isqrt,
    _kernel_y_start,
    _pow4,
    _reach,
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


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces multiprocessing.Pool by one that runs its jobs in this
    process; returns the list of pools started, each holding its size
    and the (index, stride) of its jobs."""
    started = []

    class InProcessPool:
        def __init__(self, processes):
            self.processes, self.jobs = processes, []
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            self.jobs = [job[1:3] for job in jobs]
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(search, "Pool", InProcessPool)
    return started


def test_pool_size_never_exceeds_x_range(monkeypatch, in_process_pool, pool_at_any_size):
    monkeypatch.setattr(search, "_cpus", lambda: 4096)
    for cfg, size in (
        # a threshold of 9 keeps all six pairs: work for three stripes
        (SearchConfig(max_x=4, min_x=2, threshold=9, workers=8), 3),
        (SearchConfig(max_x=100, workers=8), 8),
        (SearchConfig(max_x=10**4, min_x=10**4 - 99, workers=MAX_WORKERS), 100),
    ):
        in_process_pool.clear()
        assert scan(cfg) == scan(replace(cfg, workers=1))
        [pool] = in_process_pool
        assert pool.processes == size
        assert pool.jobs == [(i, size) for i in range(size)]
    in_process_pool.clear()
    scan(SearchConfig(max_x=7, min_x=7, workers=MAX_WORKERS))
    assert in_process_pool == []  # one x runs in this process


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
    # past INTERVAL_MAX_T the window loop takes every pair of x <= 6, each
    # with thousands of hits (121,632 rows), as one row that scan expands
    cfg = SearchConfig(max_x=6, threshold=INTERVAL_MAX_T + 1)
    assert _kernel_y_start(cfg) == 7
    assert scan(cfg) == naive_scan(1, 6, threshold=INTERVAL_MAX_T + 1)


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


def test_worker_count_does_not_change_output(monkeypatch, pool_at_any_size):
    # enough CPUs that every worker count below is a stride of its own
    monkeypatch.setattr(search, "_cpus", lambda: 64)
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


def test_processes_are_capped_at_the_cpu_count(monkeypatch, in_process_pool, pool_at_any_size):
    # 8 workers on 2 CPUs run 2 stripes of stride 2, one process each
    base = scan(SearchConfig(max_x=1200, threshold=300))
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    assert scan(SearchConfig(max_x=1200, threshold=300, workers=8)) == base
    [pool] = in_process_pool
    assert pool.processes == 2
    assert pool.jobs == [(0, 2), (1, 2)]

    in_process_pool.clear()
    monkeypatch.setattr(search, "_cpus", lambda: 1)
    for window in ({"exact_residual": 8}, {"threshold": 300}):
        cfg = SearchConfig(max_x=1200, workers=8, **window)
        assert scan(cfg) == scan(replace(cfg, workers=1))
    assert in_process_pool == []  # one CPU starts no pool


def test_cpus_are_those_this_process_may_run_on(monkeypatch):
    # pinned to one of eight CPUs (as under `taskset -c 0`), a scan runs
    # in one process, though its work would earn it eight
    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert search._cpus() == 1
    assert search.processes(SearchConfig(max_x=32000, exact_residual=8, workers=8)) == 1
    # without an affinity mask, every CPU counts, and an unknown count is 1
    monkeypatch.delattr(search.os, "sched_getaffinity")
    assert search._cpus() == 8
    assert search.processes(SearchConfig(max_x=32000, exact_residual=8, workers=8)) == 8
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert search._cpus() == 1


def test_scan_leaves_no_process_behind(monkeypatch, pool_at_any_size):
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    cfg = SearchConfig(max_x=1200, exact_residual=8, workers=2)
    assert (1058, 1103, 1653213, 8) in scan(cfg)
    assert multiprocessing.active_children() == []

    def failing_kernel(*args):
        raise RuntimeError("kernel failed")

    # forked pool processes inherit the patched kernel
    monkeypatch.setattr(search, "_scan_kernel", failing_kernel)
    with pytest.raises(RuntimeError, match="kernel failed"):
        scan(cfg)
    assert multiprocessing.active_children() == []


def test_more_workers_than_stripes():
    cfg = SearchConfig(max_x=4, min_x=2, threshold=20, workers=8)
    assert scan(cfg) == naive_scan(2, 4, threshold=20)


def test_fast_and_exact_paths_agree():
    for cfg in (
        SearchConfig(max_x=200, threshold=50),
        SearchConfig(max_x=200, threshold=3),
        SearchConfig(max_x=300, exact_residual=8),
        SearchConfig(max_x=150, min_x=7, exact_residual=-16),
        # the square 5..869 is wider than 432: its last residue, x = 436, has hits
        SearchConfig(max_x=5 + 2 * SIEVE_MODULUS, min_x=5, threshold=10**4),
    ):
        assert scan(cfg) == scan(cfg, force_exact=True)


def no_window_loop(x, *args):
    raise AssertionError(f"x={x} left the kernel")


def test_large_threshold_stays_in_kernel(monkeypatch):
    # y^4 > t^2 holds for every y here although t > 2^32, so no x may
    # fall back to the window loop
    cfg = SearchConfig(min_x=200_000, max_x=200_100, threshold=2**32 + 1)
    expected = scan(cfg, force_exact=True)
    monkeypatch.setattr(search, "_scan_x_exact", no_window_loop)
    assert expected and scan(cfg) == expected


def recording(monkeypatch, name):
    """Records each call of search.<name> as (args, rows), rows the list of
    its returned rows as Python ints, one per hit pair: (x, y, z, delta, n)
    with z the pair's least hit, delta the residual there and n its count
    of hits."""
    calls = []
    original = getattr(search, name)

    def recorded(*args):
        result = original(*args)
        rows = result if isinstance(result, list) else zip(*(c.tolist() for c in result))
        calls.append((args[1:], list(rows)))
        return result

    monkeypatch.setattr(search, name, recorded)
    return calls


def test_tightest_kernel_pairs(monkeypatch):
    # t = k^2 + 2k: y^4 > t^2 from y = k + 1 on, and y0^4 - t^2 = 2*y0^2 - 1
    # is the least room a one-hit pair can have (t = 255: (1, 16) hits at
    # z = isqrt(s + t) = 256).  The pairs with 2*x^4 = t^2 + 1, (x, t) =
    # (1, 1) and (13, 239) (Ljunggren 1942), hit once, at z = t, though
    # y^4 <= t^2.  The kernel takes all of them from y0 = min_x, each as one
    # row with its count of hits
    assert 16**4 - 255**2 == 2 * 16**2 - 1
    cases = [
        (SearchConfig(max_x=40, threshold=255), (1, 16, 256, 1, 1)),
        (SearchConfig(min_x=13, max_x=40, threshold=239), (13, 13, 239, 1, 1)),
        (SearchConfig(max_x=5, threshold=1), (1, 1, 1, 1, 1)),
    ]
    expected = [scan(cfg, force_exact=True) for cfg, _ in cases]
    kernel = recording(monkeypatch, "_scan_kernel")
    for (cfg, row), exact in zip(cases, expected):
        kernel.clear()
        hits = scan(cfg)
        [((y0, _, _), rows)] = kernel
        assert _kernel_y_start(cfg) == y0 == cfg.min_x
        assert row[:4] in hits and hits == exact
        assert row in rows


@pytest.mark.parametrize(
    "t, rows",
    [
        # (2, 4) hits at z = 16 and 17; (1, 1) from z = 1, where s <= t
        (17, [(1, 1, 1, 1, 4), (2, 2, 4, 16, 4), (2, 4, 16, 16, 2)]),
        # the least hit's residual is t itself: z^2 = s - t, and z = r - 1
        (16, [(2, 2, 4, 16, 3), (2, 3, 9, 16, 2)]),
        (7, [(2, 2, 5, 7, 2)]),
        # past INTERVAL_MAX_T only the window loop takes these pairs; (1, 1)
        # hits at every z up to isqrt(2 + t) = 5792, (12, 12) up to 5796
        (INTERVAL_MAX_T + 1, [(1, 1, 1, 1, 5792), (2, 4, 1, 271, 5792), (12, 12, 1, 41471, 5796)]),
    ],
)
def test_kernel_counts_the_hits_of_a_pair(t, rows):
    # the kernel and the window loop return each hit pair once, with its
    # least z, the residual there and its count of hits, which a brute force
    # over z recounts.  The kernel takes every pair up to INTERVAL_MAX_T,
    # from y0 = 1, and none past it
    cfg = SearchConfig(max_x=12, threshold=t)
    loop = [row for x in range(1, 13) for row in search._scan_x_exact(x, 13, -t, t)]
    assert set(rows) <= set(loop)
    brute = []
    for x in range(1, 13):
        for y in range(x, 13):
            s = x**4 + y**4
            zs = [z for z in range(1, math.isqrt(s + t) + 1) if abs(s - z * z) <= t]
            if zs:
                brute.append((x, y, zs[0], s - zs[0] ** 2, len(zs)))
    assert sorted(loop) == sorted(brute)
    y0 = _kernel_y_start(cfg)
    x, y, z, delta, n = search._scan_kernel(cfg, y0, 0, 1)
    kernel = list(zip(x.tolist(), y.tolist(), z.tolist(), delta.tolist(), n.tolist()))
    if t <= INTERVAL_MAX_T:
        assert y0 == 1 and sorted(kernel) == sorted(brute)
    else:
        assert y0 == 13 and kernel == []


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
    # the kernel subtracts lo from the y tables; |lo| <= t_max gives
    # s >= 2*x^4 > t^2, the regime every kernel pair is in
    t_max = math.isqrt(2 * x**4 - 1)
    for lo in (-t_max, 0, t_max):
        # s - lo wraps mod 2^64 without warning
        r, d = _isqrt(p4[0] + (p4 - lo), f4[0] + (f4 - lo))
        for j, (r_j, d_j) in enumerate(zip(r.tolist(), d.tolist())):
            s = x**4 + (x + j) ** 4 - lo
            assert r_j == math.isqrt(s)
            assert d_j == s - r_j * r_j


def float_roots(x, y, residual):
    """The exact window's float root of s - R, as _exact_roots forms it,
    with x's table first and with y's first: the square block holds both."""
    _, f4 = _pow4(np.array([x, y], dtype=np.int64))
    return [float(np.sqrt(f4[a] + (f4[b] - residual))) for a, b in ((0, 1), (1, 0))]


@st.composite
def exact_kernel_pairs(draw):
    """(x, y, R): a pair near BOUNDARY_X and an exact residual in the
    kernel's range there, |R| < sqrt(s) (which also holds every
    |R| <= 2^25): any such R, or s - z^2 for the z nearest sqrt(s), so that
    s - R is a square, or one off it."""
    x, y = draw(boundary_pairs())
    s = x**4 + y**4
    r = math.isqrt(s)
    square = s - min(r, r + 1, key=lambda z: abs(s - z * z)) ** 2
    bound = math.isqrt(s - 1)
    residual = draw(
        st.one_of(
            st.integers(-bound, bound),
            st.just(square),
            st.sampled_from([square - 1, square + 1]),
        )
    )
    assume(residual**2 < s)
    return x, y, residual


@settings(max_examples=300, deadline=None)
@given(exact_kernel_pairs())
def test_exact_roots_find_exactly_the_squares(case):
    # the float root of every N = s - R, square or not, lies within 0.45 of
    # sqrt(N), checked in exact rationals, so rint of it is z at a square
    # N = z^2; and _exact_roots keeps the pair, with that z, iff N is a
    # square, from either table order
    x, y, residual = case
    n = x**4 + y**4 - residual
    bound = Fraction(45, 100)
    for e in map(Fraction, float_roots(x, y, residual)):
        assert (e - bound) ** 2 <= n <= (e + bound) ** 2
    z = math.isqrt(n)
    want = ([0], [z]) if z * z == n else ([], [])
    p4, f4 = _pow4(np.array([x, y], dtype=np.int64))
    for a, b in ((0, 1), (1, 0)):
        k, roots = search._exact_roots(
            p4[a : a + 1], f4[a : a + 1], p4[b : b + 1] - residual, f4[b : b + 1] - residual
        )
        assert (k.tolist(), roots.tolist()) == want


@pytest.mark.parametrize(
    "x, y, miss",
    [
        (55111, 55118, 2**-20),
        (55129, 55147, -(2**-20)),
        (29398946, 29398948, -0.25),
        (29910732, 29910739, 0.25),
    ],
)
def test_exact_window_finds_squares_whose_root_misses(x, y, miss):
    # the float root of a square N = z^2 misses z by a rounding here: by
    # 2^-20 either side where s passes 2^64, and by a quarter either side
    # near the top of the kernel's range.  The pairs within 64 of
    # KERNEL_MAX_X have no such miss: their fourth powers round off only
    # low bits
    s = x**4 + y**4
    z = min(math.isqrt(s), math.isqrt(s) + 1, key=lambda z: abs(s - z * z))
    residual = s - z * z
    assert [e - z for e in float_roots(x, y, residual)] == [miss, miss]
    cfg = SearchConfig(min_x=x, max_x=y, exact_residual=residual)
    assert _kernel_y_start(cfg) == x
    assert scan(cfg) == [(x, y, z, residual)]


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

# (x^4 + y^4) mod 432 for every residue pair (x mod 432, y mod 432): the
# entry of _reach that the pair reads
CLASSES = np.arange(SIEVE_MODULUS) ** 4 % SIEVE_MODULUS
CLASS_SUMS = (CLASSES[:, None] + CLASSES[None, :]) % SIEVE_MODULUS


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
    assert m == 432 and len(set(CLASSES.tolist())) == 20
    assert _reach(lo, hi)[CLASS_SUMS].tolist() == expected


def test_admissible_share_for_the_family_residual():
    assert _reach(8, 8)[CLASS_SUMS].sum() == 19584  # 10.49% of 432^2
    assert not _reach(100, 100)[CLASS_SUMS].any()  # no kernel pair can have residual 100
    # thresholds from 9 on admit every residue pair
    assert not _reach(-8, 8)[CLASS_SUMS].all()
    for t in (9, 10, 50, 216, 431, 10**6):
        assert _reach(-t, t)[CLASS_SUMS].all()
    # the share the process count reads counts all (5 * 13 * 432)^2
    # residue pairs.  By the CRT that is the pairs mod 432 the class sieve
    # keeps, counted here over all 432^2 of them, times the pairs of values
    # mod 5 that have a partner: x^4 + y^4 - v is a square mod 5 for some
    # y, v, times the pairs mod 13 whose x^4 + y^4 - v is a square for
    # some v
    windows = [(8, 8), (100, 100), (-8, 8), (16129, 16129), (-1976, -1976), (3, 4)]
    windows += [(r, r) for r in range(13)] + [(-1, 1), (-2, 2)]
    windows += [(-t, t) for t in (9, 10, 50, 216, 431, 10**6)]
    squares13 = {k * k % 13 for k in range(13)}
    for lo, hi in windows:
        values = range(lo, min(hi, lo + 12) + 1)  # every v mod 13 of the window
        usable = [
            a
            for a in range(5)
            if any((a**4 + b**4 - v) % 5 in (0, 1, 4) for b in range(5) for v in values)
        ]
        pairs13 = sum(
            any((a**4 + b**4 - v) % 13 in squares13 for v in values)
            for a in range(13)
            for b in range(13)
        )
        kept = _reach(lo, hi)[CLASS_SUMS].sum() * len(usable) ** 2 * pairs13
        assert search._kept_residue_pairs(lo, hi) == kept
    # 3.50% of 28080^2: 10.49% mod 432, 16/25 mod 5 and 88/169 mod 13
    assert search._kept_residue_pairs(8, 8) == 19584 * 16 * 88


def test_processes_follow_the_kept_work(monkeypatch):
    monkeypatch.setattr(search, "_cpus", lambda: 8)
    # the same 6,126,750 pairs: a threshold of 9 keeps every one, an exact
    # residual 8 about 3.50% of them
    t9 = SearchConfig(max_x=3500, threshold=9, workers=8)
    r8 = SearchConfig(max_x=3500, exact_residual=8, workers=8)
    assert (search.processes(t9), search.processes(r8)) == (2, 1)
    # the sieve leaves residual 1000003 no kernel pair, and its band,
    # y < 32, holds 496 pairs, at BAND_PAIR_WEIGHT each: too little for a
    # pool.  The window loop takes all 12,502,500 pairs under force_exact
    band = SearchConfig(max_x=5000, exact_residual=1000003, workers=8)
    assert search._kept_residue_pairs(*band.window) == 0
    assert search._work(band) == 496 * search.BAND_PAIR_WEIGHT
    assert search.processes(band) == 1
    assert search._work(band, force_exact=True) == 12502500 * search.BAND_PAIR_WEIGHT
    assert search.processes(band, force_exact=True) == 8
    # past INTERVAL_MAX_T the band is y < isqrt(|R|) + 1 again
    wide = SearchConfig(max_x=400, exact_residual=2**25 + 1, workers=8)
    assert search._work(wide) == 400 * 401 // 2 * search.BAND_PAIR_WEIGHT
    # so does every pair of a forced window-loop scan
    small = SearchConfig(max_x=1500, exact_residual=8, workers=8)
    assert (search.processes(small), search.processes(small, force_exact=True)) == (1, 8)
    # the benchmark's scans run in one process; a larger scan still pools
    for cfg, ran in (
        (SearchConfig(max_x=7000, exact_residual=8, workers=2), 1),
        (SearchConfig(min_x=51948, max_x=52967, exact_residual=8, workers=2), 1),
        (SearchConfig(max_x=400, threshold=20000, workers=2), 1),
        # 3.9M kept pairs, and 4.5M: two processes first run at 2^22
        (SearchConfig(max_x=15000, exact_residual=8, workers=2), 1),
        (SearchConfig(max_x=16000, exact_residual=8, workers=2), 2),
        # a threshold up to INTERVAL_MAX_T has no band: 500,500 kernel
        # pairs, and 4.5M
        (SearchConfig(max_x=1000, threshold=100000, workers=2), 1),
        (SearchConfig(max_x=3000, threshold=20000, workers=2), 2),
        # 7.0M kept pairs: one process per 2^21
        (SearchConfig(max_x=20000, exact_residual=8, workers=8), 3),
        (SearchConfig(max_x=32000, exact_residual=8, workers=8), 8),
        # R = 4 (mod 5) keeps 1/25 of the values' pairs, and R = 9 (mod 13)
        # 105/169 of those mod 13: 8.1M kept pairs
        (SearchConfig(max_x=40000, exact_residual=16129, workers=2), 2),
    ):
        assert search.processes(cfg) == ran


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    min_x=st.one_of(st.integers(1, 3000), st.integers(1, 2 * KERNEL_MAX_X)),
    width=st.one_of(st.integers(0, 50), st.integers(0, 20000)),
    window=st.one_of(
        st.builds(lambda t: {"threshold": t}, st.integers(0, 5000)),
        st.builds(lambda r: {"exact_residual": r}, st.integers(-(10**7), 10**7)),
    ),
    workers=st.integers(1, MAX_WORKERS),
    cpus=st.integers(1, 256),
    force_exact=st.booleans(),
)
def test_processes_stay_within_their_caps(
    monkeypatch, min_x, width, window, workers, cpus, force_exact
):
    try:
        cfg = SearchConfig(min_x=min_x, max_x=min_x + width, workers=workers, **window)
    except ValueError:  # a threshold window refused for its rows
        assume(False)
    monkeypatch.setattr(search, "_cpus", lambda: cpus)
    assert 1 <= search.processes(cfg, force_exact) <= min(workers, cpus, width + 1)


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
    # 432; min_x 5 leaves the range unaligned to the period
    cfg = SearchConfig(min_x=5, max_x=5 + 2 * SIEVE_MODULUS, exact_residual=residual)
    assert scan(cfg) == scan(cfg, force_exact=True)


def test_sieve_takes_a_same_class_pair_once(monkeypatch, in_process_pool, pool_at_any_size):
    # x and y share a class, x^4 mod 432: y = x + 432 shares its residue
    # too, y = 1160 = -1000 mod 432 does not.  The kernel block of that
    # class holds the pair both as (x, y) and as (y, x), whichever stripe
    # takes x and y
    monkeypatch.setattr(search, "_cpus", lambda: 4)
    x = 1000
    for y in (x + SIEVE_MODULUS, 2160 - x):
        assert x**4 % SIEVE_MODULUS == y**4 % SIEVE_MODULUS
        s = x**4 + y**4
        z = min(math.isqrt(s), math.isqrt(s) + 1, key=lambda z: abs(s - z * z))
        residual = s - z * z
        for window in ({"exact_residual": residual}, {"threshold": abs(residual)}):
            cfg = SearchConfig(min_x=x, max_x=y, **window)
            assert _kernel_y_start(cfg) == x  # the pair is in the kernel's square
            expected = scan(cfg, force_exact=True)
            for workers in (1, 2, 3):
                hits = scan(replace(cfg, workers=workers))
                assert hits.count((x, y, z, residual)) == 1
                assert hits == expected


@st.composite
def kernel_windows(draw):
    """(min_x, max_x, window) whose every pair is a kernel pair, y0 =
    min_x, as on the scan-bigint windows: x near where s crosses 2^62,
    2^63 and 2^64 or anywhere up to 10^7, 1 to 300 values of x, exact
    residuals and thresholds up to 10^6, or the nearest residual of a
    pair in the range, exact or as a threshold."""
    centre = st.sampled_from(BOUNDARY_X[1:4]).flatmap(lambda c: st.integers(c - 300, c + 300))
    min_x = draw(st.one_of(centre, st.integers(1001, 10**7)))
    max_x = min_x + draw(st.integers(0, 299))
    kind = draw(st.sampled_from(["residual", "threshold", "pair"]))
    if kind == "residual":
        return min_x, max_x, {"exact_residual": draw(st.integers(-(10**6), 10**6))}
    if kind == "threshold":
        return min_x, max_x, {"threshold": draw(st.integers(0, 10**6))}
    x = draw(st.integers(min_x, max_x))
    y = draw(st.integers(x, max_x))
    s = x**4 + y**4
    r = math.isqrt(s)
    residual = draw(st.sampled_from([s - r * r, s - (r + 1) ** 2]))
    assume(residual**2 < min_x**4)
    return min_x, max_x, draw(
        st.sampled_from([{"exact_residual": residual}, {"threshold": abs(residual)}])
    )


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(kernel_windows())
def test_kernel_windows_match_exact(monkeypatch, in_process_pool, pool_at_any_size, window):
    monkeypatch.setattr(search, "_cpus", lambda: 4)
    min_x, max_x, fields = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, **fields)
    assert _kernel_y_start(cfg) == min_x  # no pair is left to the window loop
    expected = scan(cfg, force_exact=True)
    for workers in (1, 2, 3):
        assert scan(replace(cfg, workers=workers)) == expected


def test_only_five_rules_out_a_value():
    # a value of class c = x^4 mod p has a partner iff c + c' - R is a
    # square mod p for some class c'; the kernel drops the values of a
    # class without one, so this is every prime where that can happen
    lonely = set()
    for p in range(3, 400, 2):
        if any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        classes = {k**4 % p for k in range(p)}
        squares = {k * k % p for k in range(p)}
        for r in range(p):
            if not all(any((c + d - r) % p in squares for d in classes) for c in classes):
                lonely.add((p, r))
    assert lonely == {(5, 3), (5, 4)}
    usable = {(x, r): search._usable(r, r)[x].item() for x in range(5) for r in range(5)}
    # R = 3 keeps the x with x^4 = 1, R = 4 those with x^4 = 0 (mod 5)
    assert [x for x in range(5) if usable[x, 3]] == [1, 2, 3, 4]
    assert [x for x in range(5) if usable[x, 4]] == [0]
    assert all(usable[x, r] for x in range(5) for r in range(3))
    # no window of two or more residues has a value without a partner
    for lo in range(-10, 10):
        for width in (1, 2, 3, 5, 1000):
            assert search._usable(lo, lo + width).all()


@st.composite
def residue_class_windows(draw):
    """(min_x, max_x, R, hit) with R in a drawn class mod 5 and hit a row
    (x, y, z, R) of the range: R = 4 from pairs with 5 | x, y, R = 3 from
    pairs with 5 not dividing x or y, the others from any pair.  In about
    one draw of twelve x^4 <= R, so the hit's x is below y0."""
    k = draw(st.integers(0, 4))
    x = draw(st.one_of(st.integers(1, 40), st.integers(1, 1000)))
    y = x + draw(st.integers(0, 150))
    if k == 4:
        x, y = 5 * (x // 5 + 1), 5 * (y // 5 + 1)
    elif k == 3:
        x, y = x + (x % 5 == 0), y + (y % 5 == 0)
    s = x**4 + y**4
    r = math.isqrt(s)
    zs = [z for z in range(max(1, r - 4), r + 6) if (s - z * z) % 5 == k]
    assume(zs)
    z = draw(st.sampled_from(zs))
    min_x = draw(st.integers(max(1, x - 50), x))
    max_x = draw(st.integers(y, y + 50))
    return min_x, max_x, s - z * z, (x, y, z, s - z * z)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(residue_class_windows())
def test_value_sieve_keeps_every_hit(monkeypatch, in_process_pool, pool_at_any_size, window):
    monkeypatch.setattr(search, "_cpus", lambda: 4)
    min_x, max_x, residual, hit = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, exact_residual=residual)
    expected = scan(cfg, force_exact=True)
    assert hit in expected
    for workers in (1, 2, 3):
        assert scan(replace(cfg, workers=workers)) == expected


def test_mod_13_table_drops_only_pairs_without_a_solution():
    # x^4 mod 13 is 0, 1, 3 or 9, and the kernel pairs the subclass a of x
    # with the subclass b of y iff reach13[a + b].  That holds for every
    # pair of some x, y, z mod 13 with x^4 + y^4 - z^2 = v, v in the window
    classes = sorted({x**4 % 13 for x in range(13)})
    assert classes == [0, 1, 3, 9]
    for lo, hi in [(r, r) for r in range(13)] + [(-1, 1), (-2, 2)]:
        reach13 = _reach(lo, hi, 13)
        for a in classes:
            for b in classes:
                solvable = any(
                    (x**4 + y**4 - z * z - v) % 13 == 0
                    for x in range(13)
                    if x**4 % 13 == a
                    for y in range(13)
                    if y**4 % 13 == b
                    for z in range(13)
                    for v in range(lo, hi + 1)
                )
                assert reach13[(a + b) % 13] == solvable
        # every exact window and the threshold 1 drop a pair, and split;
        # from the threshold 2 on the table drops nothing
        drops = not all(reach13[(a + b) % 13] for a in classes for b in classes)
        assert drops == (not reach13.all()) == (lo == hi or hi < 2)


@st.composite
def split_windows(draw):
    """(min_x, max_x, window) of 31 to 151 values: an exact residual in a
    drawn class mod 65 = 5 * 13, or the nearest residual of a pair of the
    range, so that the range holds a hit, or a threshold of 1 to 3."""
    min_x = draw(st.integers(1, 3000))
    max_x = min_x + draw(st.integers(30, 150))
    kind = draw(st.sampled_from(["class", "pair", "threshold"]))
    if kind == "threshold":
        return min_x, max_x, {"threshold": draw(st.integers(1, 3))}
    if kind == "class":
        residual = draw(st.integers(0, 64)) + 65 * draw(st.integers(-(10**6), 10**6))
        return min_x, max_x, {"exact_residual": residual}
    x = draw(st.integers(min_x, max_x))
    y = draw(st.integers(x, max_x))
    s = x**4 + y**4
    r = math.isqrt(s)
    return min_x, max_x, {"exact_residual": draw(st.sampled_from([s - r * r, s - (r + 1) ** 2]))}


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(split_windows())
def test_split_classes_match_exact(monkeypatch, in_process_pool, pool_at_any_size, window):
    # with blocks of 16 pairs, most classes of a small window hold four
    # blocks and split by x^4 mod 13 wherever the window's table drops a pair
    monkeypatch.setattr(search, "SIEVE_BLOCK_PAIRS", 16)
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    min_x, max_x, fields = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, **fields)
    expected = scan(cfg, force_exact=True)
    for workers in (1, 2):
        assert scan(replace(cfg, workers=workers)) == expected


def test_split_keeps_a_hit_of_every_residue_class(monkeypatch, in_process_pool, pool_at_any_size):
    # a kernel hit (x, y, z, R) for each class of R mod 65 = 5 * 13, found
    # by a scan whose classes split by x^4 mod 13
    monkeypatch.setattr(search, "SIEVE_BLOCK_PAIRS", 16)
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    found = {}
    for x in range(30, 100):
        for y in range(x, x + 40):
            s = x**4 + y**4
            for z in range(math.isqrt(s) - 2, math.isqrt(s) + 3):
                found.setdefault((s - z * z) % 65, (x, y, z, s - z * z))
    assert len(found) == 65
    for x, y, z, residual in found.values():
        cfg = SearchConfig(min_x=x - 10, max_x=y + 10, exact_residual=residual)
        assert _kernel_y_start(cfg) <= x  # |R| < 30^4: the pair is the kernel's
        expected = scan(cfg, force_exact=True)
        assert (x, y, z, residual) in expected
        for workers in (1, 2):
            assert scan(replace(cfg, workers=workers)) == expected


def test_exact_residual_eight_evaluates_the_split_pairs(monkeypatch):
    # the pairs handed to _exact_roots by `search --exact-residual 8
    # --max-x 7000`: 1,645,605 under the classes mod 432 and the values
    # mod 5 alone, 857,113 once 13 of its 14 classes split by x^4 mod 13.
    # _work estimates them from the residue shares alone
    evaluated = []
    exact_roots = search._exact_roots

    def counting(p4x, f4x, p4s, f4s):
        evaluated.append(p4x.size * p4s.size)
        return exact_roots(p4x, f4x, p4s, f4s)

    monkeypatch.setattr(search, "_exact_roots", counting)
    cfg = SearchConfig(max_x=7000, exact_residual=8)
    assert len(scan(cfg)) == 11
    assert sum(evaluated) == 857113
    assert search._work(cfg) == 857016


def test_scan_imports_no_module():
    # a module the kernel imports on first use is paid for again in every
    # fresh pool worker: the first np.unique call imports numpy.ma
    code = (
        "import sys\n"
        "from nearmiss4 import search\n"
        "before = set(sys.modules)\n"
        "search.scan(search.SearchConfig(max_x=1200, threshold=300))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_threshold_zero_is_sieved_as_residual_zero():
    cfg = SearchConfig(max_x=600, threshold=0)
    assert scan(cfg) == scan(SearchConfig(max_x=600, exact_residual=0)) == []


def test_force_exact_runs_no_sieve(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("force_exact reached the kernel")

    monkeypatch.setattr(search, "_reach", no_sieve)
    monkeypatch.setattr(search, "_scan_kernel", no_sieve)
    cfg = SearchConfig(max_x=40, exact_residual=8)
    assert scan(cfg, force_exact=True) == naive_scan(1, 40, exact_residual=8)


def test_kernel_y_start():
    # y0 is the least y with y^4 > b, also for b a perfect fourth power:
    # b = max(lo, 0) for a window up to t = INTERVAL_MAX_T, so 0 for a
    # threshold and max(R, 0) for an exact residual R, and t^2 past it
    for t in (0, 1, 7, 8, 9, 16, 20, 50, 239, 300, 1296, 20000):
        assert _kernel_y_start(SearchConfig(max_x=10**7, threshold=t)) == 1
        assert _kernel_y_start(SearchConfig(min_x=9, max_x=10**7, threshold=t)) == 9
    for t in (INTERVAL_MAX_T + 1, 10**12):
        y = _kernel_y_start(SearchConfig(max_x=10**7, threshold=t))
        assert y**4 > t * t >= (y - 1) ** 4
    for t in (0, 1, 15, 16, 17, 1293, 1296, 4096, 10**6 + 3, INTERVAL_MAX_T - 1, INTERVAL_MAX_T):
        for residual in (t, -t):
            y = _kernel_y_start(SearchConfig(max_x=10**7, exact_residual=residual))
            assert y**4 > max(residual, 0) >= (y - 1) ** 4
    for t in (INTERVAL_MAX_T + 1, 10**12):
        for residual in (t, -t):
            y = _kernel_y_start(SearchConfig(max_x=10**7, exact_residual=residual))
            assert y**4 > t * t >= (y - 1) ** 4
    # both sides of |R| = INTERVAL_MAX_T = 2^25: 76^4 <= 2^25 < 77^4, and
    # 5792^2 <= 2^25 < 5793^2
    for residual, y0 in (
        (INTERVAL_MAX_T, 77),
        (-INTERVAL_MAX_T, 1),
        (INTERVAL_MAX_T + 1, 5793),
        (-INTERVAL_MAX_T - 1, 5793),
    ):
        assert _kernel_y_start(SearchConfig(max_x=10**4, exact_residual=residual)) == y0
    # raised to min_x, capped at max_x + 1
    assert _kernel_y_start(SearchConfig(min_x=50, max_x=60, exact_residual=300)) == 50
    assert _kernel_y_start(SearchConfig(min_x=50, max_x=60, exact_residual=-300)) == 50
    assert _kernel_y_start(SearchConfig(max_x=10, exact_residual=20000)) == 11
    assert _kernel_y_start(SearchConfig(max_x=10, threshold=INTERVAL_MAX_T + 1)) == 11
    # max_x + 1 under force_exact and past KERNEL_MAX_X
    cfg = SearchConfig(max_x=7000, exact_residual=8)
    assert _kernel_y_start(cfg) == 2 and _kernel_y_start(cfg, force_exact=True) == 7001
    cfg = SearchConfig(min_x=KERNEL_MAX_X, max_x=KERNEL_MAX_X + 1, exact_residual=8)
    assert _kernel_y_start(cfg) == KERNEL_MAX_X + 2


def test_pairs_below_y0_stay_in_the_window_loop():
    # isqrt(t) = k for t from k^2 to k^2 + 2k, and y = k has y^4 <= t^2;
    # a pair (x, k) with x^4 near k^2 then hits twice, at z = k^2 and
    # k^2 + 1, as (2, 4) does for t = 17.  Under force_exact y0 is
    # max_x + 1 and the window loop takes every pair; else the kernel does
    for k in range(1, 13):
        for t in range(k * k, k * k + 2 * k + 1):
            cfg = SearchConfig(max_x=k + 1, threshold=t)
            assert scan(cfg) == scan(cfg, force_exact=True)


def test_band_takes_only_the_corner(monkeypatch):
    # the window loop takes the pairs with y < y0, x from 1 to y0 - 1, and
    # the kernel every y from y0 on: y0 = 2 for residual 8, the pair (1, 1),
    # which has no row, while (1, 2, 3, 8) is the kernel's.  A threshold up
    # to INTERVAL_MAX_T has no band: y0 = min_x, and the kernel also takes
    # the pairs with several hits, below x0 = 15 for t = 300 and x0 = 119
    # for t = 20000
    loop = recording(monkeypatch, "_scan_x_exact")
    kernel = recording(monkeypatch, "_scan_kernel")
    hits = scan(SearchConfig(max_x=7000, exact_residual=8))
    assert loop == [((2, 8, 8), [])]
    assert [args for args, _ in kernel] == [(2, 0, 1)]
    assert {(1, 2, 3, 8), (22, 23, 717, 8), (1058, 1103, 1653213, 8)} <= set(hits)
    for cfg, x0 in (
        (SearchConfig(max_x=1200, threshold=300), 15),
        (SearchConfig(max_x=400, threshold=20000), 119),
    ):
        loop.clear()
        kernel.clear()
        hits = scan(cfg)
        [(args, rows)] = kernel
        assert loop == [] and args == (1, 0, 1)
        assert max(x for x, _, _, _, n in rows if n > 1) < x0
        assert len(hits) == sum(n for *_, n in rows) > len(rows)
        assert hits == scan(cfg, force_exact=True)


@pytest.mark.parametrize(
    "cfg, hit, below",
    [
        # a threshold window has a rectangle only past INTERVAL_MAX_T, from
        # y0 = 5793; y = 6048 = 14 * 432 is class 0
        (
            SearchConfig(min_x=5760, max_x=6240, threshold=INTERVAL_MAX_T + 1),
            (5761, 6048, 49391194, 31523421),
            4277,
        ),
        # (6, y, y^2, 6^4) hits for every y; x = 6 has class 0, the least
        (SearchConfig(max_x=1200, exact_residual=1296), (6, 6 * 80, 36 * 80**2, 1296), 0),
        # (1, y, y^2, 1) hits for every y, and the 200 y divisible by 6
        # have class 0
        (SearchConfig(max_x=1200, exact_residual=1), (1, 432, 186624, 1), 200),
    ],
    ids=["threshold-2^25+1", "residual-1296", "residual-1"],
)
def test_rectangle_pairs_every_class(cfg, hit, below):
    # x < y0 <= y over a range wider than 432: hits whose y class,
    # y^4 mod 432, lies below their x class, which pairing class g with
    # g' >= g only would miss
    y0 = _kernel_y_start(cfg)
    hits = scan(cfg)
    assert hits == scan(cfg, force_exact=True)
    assert hit in hits
    m = SIEVE_MODULUS
    assert sum(h.x < y0 <= h.y and h.y**4 % m < h.x**4 % m for h in hits) == below


@st.composite
def corner_windows(draw):
    """(min_x, max_x, window) over ranges that cross k + 1: a threshold t
    from k^2 to k^2 + 2k, where isqrt(t) = k, so that the pairs with
    y <= k may hit several times, with min_x below x0 or in [x0, k]
    (x0 <= k for k >= 5); or an exact residual from k^4 to (k + 1)^4 - 1,
    where y0 = k + 1; or the nearest residual R > 0 of a pair (x, y) with
    x < y0 and y past 432."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 40))
        if draw(st.booleans()):
            fields = {"threshold": k * k + draw(st.integers(0, 2 * k))}
        else:
            fields = {"exact_residual": draw(st.integers(k**4, (k + 1) ** 4 - 1))}
        min_x = draw(st.integers(1, k))
        max_x = draw(st.integers(k + 1, k + 1 + 2 * SIEVE_MODULUS))
        return min_x, max_x, fields
    x = draw(st.integers(1, 21))
    y = SIEVE_MODULUS + draw(st.integers(0, 60))
    s = x**4 + y**4
    residual = s - math.isqrt(s) ** 2
    assume(x**4 <= residual < y**4)  # x < y0 <= y
    return draw(st.integers(1, x)), y + draw(st.integers(0, 30)), {"exact_residual": residual}


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(corner_windows())
def test_corner_and_rectangle_match_exact(monkeypatch, in_process_pool, pool_at_any_size, window):
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    min_x, max_x, fields = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, **fields)
    # a threshold's pairs are all the kernel's, several hits each below k + 1
    y0 = min_x if "threshold" in fields else _kernel_y_start(cfg)
    assert min_x <= _kernel_y_start(cfg) == y0 <= max_x
    expected = scan(cfg, force_exact=True)
    for workers in (1, 2):
        assert scan(replace(cfg, workers=workers)) == expected


def test_rows_of_a_pair_stay_in_z_order(monkeypatch, in_process_pool, pool_at_any_size):
    # small pairs have many z each; every stripe count must merge them
    # into (y, x, z) order
    monkeypatch.setattr(search, "_cpus", lambda: 4)
    expected = naive_scan(1, 60, threshold=2000)
    assert len(expected) > len({(x, y) for x, y, _, _ in expected})
    for workers in (1, 2, 3):
        in_process_pool.clear()
        hits = scan(SearchConfig(max_x=60, threshold=2000, workers=workers))
        assert hits == expected
        assert len(in_process_pool) == (workers > 1)


@st.composite
def merge_windows(draw):
    """A window of at least four x values whose stripes return their rows
    out of (y, x) order: a threshold up to 3000 from min_x <= 40, whose
    small pairs have several rows each; a threshold past INTERVAL_MAX_T,
    whose pairs all take the window loop; an exact residual; or a range
    past 2^64 at t = 2^130, where x and y are object columns and each pair
    has two or three rows, expanded in Python ints, or at t = 0, with none."""
    kind = draw(st.sampled_from(["dense", "band", "exact", "huge"]))
    if kind == "huge":
        min_x = 2**64 + draw(st.integers(0, 10**6))
        t = draw(st.sampled_from([0, 2**130]))
        return SearchConfig(min_x=min_x, max_x=min_x + draw(st.integers(3, 6)), threshold=t)
    if kind == "band":
        min_x = draw(st.integers(3000, 3400))
        return SearchConfig(min_x=min_x, max_x=min_x + 8, threshold=INTERVAL_MAX_T + 1)
    min_x = draw(st.integers(1, 40))
    max_x = min_x + draw(st.integers(3, 60))
    if kind == "exact":
        return SearchConfig(min_x=min_x, max_x=max_x, exact_residual=draw(st.integers(-50, 50)))
    return SearchConfig(min_x=min_x, max_x=max_x, threshold=draw(st.integers(1, 3000)))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(merge_windows())
# drawn in about one example of eight: object columns past 2^64, 2-3 rows a pair
@example(cfg=SearchConfig(min_x=2**64, max_x=2**64 + 4, threshold=2**130))
def test_merge_orders_rows_at_any_stripe_count(monkeypatch, in_process_pool, cfg):
    # scan sorts the stripes' hit pairs by one key, (y - min_x) * width +
    # (x - min_x), and expands each through one index: at every stripe
    # count, empty stripes included, the rows are strictly increasing in
    # (y, x, z), the same rows, and each is a hit
    expected = scan(cfg)
    for stripes in (1, 2, 3, 4):
        in_process_pool.clear()
        monkeypatch.setattr(search, "processes", lambda *args: stripes)
        hits = scan(cfg)
        assert [pool.processes for pool in in_process_pool] == [stripes] * (stripes > 1)
        assert hits == expected
        keys = [(y, x, z) for x, y, z, _ in hits]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(map(verify_hit, hits))
        assert all(cfg.window[0] <= hit.delta <= cfg.window[1] for hit in hits)


@st.composite
def band_windows(draw):
    """(min_x, max_x, window) over at most 41 values of x from below
    isqrt(t) + 1, where a pair may hit several times: t = max(-lo, hi) up
    to INTERVAL_MAX_T, and pinned at it and one past it, as a threshold
    (from an x where a pair has a few rows at most), an exact residual t,
    or -t past INTERVAL_MAX_T; or a residual R > 0 at or near x^4 + y^4
    of a small pair, so that s - R is tiny or negative.  The kernel takes
    a threshold up to INTERVAL_MAX_T whole, and the window loop the band
    y < y0 of the others."""
    kind = draw(st.sampled_from(["threshold", "residual", "near"]))
    if kind == "near":
        x = draw(st.integers(1, 60))
        y = draw(st.integers(x, 60))
        residual = x**4 + y**4 - draw(st.integers(-3, 10))
        assume(residual > 0)  # y0 = min_x for R <= 0: no band
        return draw(st.integers(1, x)), y + draw(st.integers(0, 20)), {"exact_residual": residual}
    t = draw(
        st.one_of(
            st.integers(1, 3000),
            st.integers(1, INTERVAL_MAX_T),
            st.sampled_from([INTERVAL_MAX_T, INTERVAL_MAX_T + 1]),
        )
    )
    y0 = math.isqrt(t) + 1
    if kind == "residual":
        if t <= INTERVAL_MAX_T:
            y0, residual = math.isqrt(math.isqrt(t)) + 1, t  # the least y with y^4 > t
        else:
            residual = draw(st.sampled_from([t, -t]))
        min_x = draw(st.integers(1, y0 - 1))
        window = {"exact_residual": residual}
    else:
        # x^2 > t/8 leaves a pair at most about 1 + sqrt(2) * 8 rows
        min_x = draw(st.integers(1 if t <= 3000 else math.isqrt(t // 8) + 1, y0 - 1))
        window = {"threshold": t}
    return min_x, min_x + draw(st.integers(0, 40)), window


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(band_windows())
def test_band_matches_exact(monkeypatch, in_process_pool, pool_at_any_size, window):
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    min_x, max_x, fields = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, **fields)
    in_kernel = fields.get("threshold", INTERVAL_MAX_T + 1) <= INTERVAL_MAX_T
    assert (_kernel_y_start(cfg) == min_x) == in_kernel  # else the range starts in the band
    expected = scan(cfg, force_exact=True)
    for workers in (1, 2):
        assert scan(replace(cfg, workers=workers)) == expected


@st.composite
def fourth_root_windows(draw):
    """(min_x, max_x, R, y0): R = y^4 - j, 1 <= j <= y^4 - (y - 1)^4, so
    that (y - 1)^4 <= R < y^4 and y0 = y, for y up to 76, where R stays
    below INTERVAL_MAX_T; the kernel's pair (1, y) then has s - R = j + 1,
    as small as 2, and j = k^2 - 1 makes it hit at z = k.  Or R from
    -10^4 to 0, where the kernel takes every pair: y0 = min_x."""
    if draw(st.booleans()):
        y = draw(st.integers(2, 76))
        width = y**4 - (y - 1) ** 4
        j = draw(
            st.one_of(
                st.integers(1, width),
                st.integers(2, math.isqrt(width + 1)).map(lambda k: k * k - 1),
            )
        )
        return draw(st.integers(1, y)), y + draw(st.integers(0, 150)), y**4 - j, y
    min_x = draw(st.integers(1, 200))
    return min_x, min_x + draw(st.integers(0, 150)), draw(st.integers(-(10**4), 0)), min_x


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fourth_root_windows())
def test_exact_kernel_starts_at_the_fourth_root(
    monkeypatch, in_process_pool, pool_at_any_size, window
):
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    min_x, max_x, residual, y0 = window
    cfg = SearchConfig(min_x=min_x, max_x=max_x, exact_residual=residual)
    assert _kernel_y_start(cfg) == y0
    expected = scan(cfg, force_exact=True)
    for workers in (1, 2):
        assert scan(replace(cfg, workers=workers)) == expected


@settings(max_examples=30, deadline=None)
@given(
    min_x=st.one_of(st.integers(1, 3000), st.integers(1, KERNEL_MAX_X - 2000)),
    width=st.integers(0, 2000),
)
def test_residual_zero_is_always_empty(min_x, width):
    # x^4 + y^4 = z^2 has no solution in positive integers (Fermat); for
    # R = 0 the kernel takes every pair
    cfg = SearchConfig(min_x=min_x, max_x=min_x + width, exact_residual=0)
    assert _kernel_y_start(cfg) == min_x
    assert scan(cfg) == []


@pytest.mark.parametrize(
    "cfg, y0, loop_rows",
    [
        # the window loop takes y < 77, which holds no hit; (52, 77, 2985)
        # is the kernel's
        (SearchConfig(max_x=100, exact_residual=INTERVAL_MAX_T), 77, 0),
        # the window loop takes y < 5793, all of x <= 100, and (1, 96, 7168)
        # hits
        (SearchConfig(max_x=100, exact_residual=INTERVAL_MAX_T + 1), 101, 1),
        # the kernel takes all 3133 hits with y < 5793 at t = 2^25, and the
        # window loop past it
        (SearchConfig(min_x=5700, max_x=5900, threshold=INTERVAL_MAX_T), 5700, 0),
        (SearchConfig(min_x=5700, max_x=5900, threshold=INTERVAL_MAX_T + 1), 5793, 3133),
    ],
    ids=["residual-2^25", "residual-2^25+1", "threshold-2^25", "threshold-2^25+1"],
)
def test_interval_takes_the_band_up_to_its_bound(monkeypatch, cfg, y0, loop_rows):
    # up to t = INTERVAL_MAX_T the kernel starts at y^4 > max(lo, 0), past
    # it at y^4 > t^2, and the window loop takes the band below
    expected = scan(cfg, force_exact=True)
    assert _kernel_y_start(cfg) == y0 and expected
    assert sum(h.y < y0 for h in expected) == loop_rows
    loop = recording(monkeypatch, "_scan_x_exact")
    assert scan(cfg) == expected
    assert sum(n for _, rows in loop for *_, n in rows) == loop_rows
    assert bool(loop) == (cfg.min_x < y0)


def test_hits_is_a_read_only_sequence():
    hits = scan(SearchConfig(max_x=60, threshold=50))
    rows = naive_scan(1, 60, threshold=50)
    assert isinstance(hits, Hits) and isinstance(hits, Sequence) and len(hits) == len(rows)
    # equal to any sequence of the same rows, from either side
    assert hits == rows and rows == hits and hits == tuple(rows) and hits == list(hits)
    assert hits != rows[:-1] and hits != rows[::-1] and hits != [] and hits != "rows"
    assert scan(SearchConfig(max_x=10)) == [] == scan(SearchConfig(max_x=10))
    # items, negative indices and slices
    assert hits[0] == rows[0] and hits[-1] == rows[-1] and hits[-7] == rows[-7]
    assert type(hits[-1]) is SearchHit
    for part in (slice(3, 9), slice(None, None, -2), slice(-5, None), slice(40, 10)):
        assert isinstance(hits[part], Hits) and hits[part] == rows[part]
    with pytest.raises(IndexError):
        hits[len(rows)]
    assert rows[5] in hits and (1, 1, 1, 2) not in hits
    assert hits.index(rows[4]) == 4 and hits.count(rows[4]) == 1
    assert list(reversed(hits)) == rows[::-1]
    # read-only, and so unhashable
    with pytest.raises(ValueError):
        hits.columns[2][0] = 0
    with pytest.raises(ValueError):
        hits[2:5].columns[0][0] = 0
    with pytest.raises(TypeError):
        hash(hits)


@pytest.mark.parametrize(
    "x, y",
    [
        (KERNEL_MAX_X - 1, KERNEL_MAX_X),  # kernel: int64 columns
        (3_650_000_000, 3_650_000_000),  # window loop: z and delta pass 2^63
    ],
)
def test_hit_fields_are_python_ints(x, y):
    # verify_hit computes x^4 + y^4 - z^2, which would wrap in int64
    # numpy scalars; an object column holds the window loop's big ints
    s = x**4 + y**4
    z = math.isqrt(s)
    hits = scan(SearchConfig(min_x=x, max_x=y, exact_residual=s - z * z))
    assert (x, y, z, s - z * z) in hits
    for hit in (hits[-1], *hits):
        assert all(type(v) is int for v in hit) and verify_hit(hit)
    assert [c.dtype == np.int64 for c in hits.columns] == [True, True, z < 2**63, s - z * z < 2**63]


@pytest.mark.parametrize(
    "min_x, max_x, t",
    [
        (10**9, 10**9, 2 * 10**19),  # residuals pass 2^63, z does not
        (1_031_111_108, 1_031_111_108, 2**63 + 2**61),  # least z fits, a later residual not
        (2_550_000_000, 2_550_000_001, 2 * 10**19),
        (10**9, 10**9 + 1, 2**62 + 1),
    ],
)
def test_threshold_past_2_62_expands_in_exact_ints(min_x, max_x, t):
    # a pair's hits are the z from isqrt(s + t) down while s - z^2 <= t;
    # past KERNEL_MAX_X the window loop takes every pair, several of them
    # hits, and scan expands their rows
    want = []
    for x in range(min_x, max_x + 1):
        for y in range(x, max_x + 1):
            s = x**4 + y**4
            z = math.isqrt(s + t)
            while z >= 1 and s - z * z <= t:
                want.append((x, y, z, s - z * z))
                z -= 1
    want.sort(key=lambda h: (h[1], h[0], h[2]))
    hits = scan(SearchConfig(min_x=min_x, max_x=max_x, threshold=t))
    assert len(want) > max_x - min_x + 1
    assert hits == want and all(map(verify_hit, hits))


def test_huge_threshold_window_is_refused(monkeypatch):
    # every pair takes the window loop: x = 1's 20 pairs hit about 10^6
    # times each (2.1e8 rows in all), and past KERNEL_MAX_X x = 2^25's 1001
    # pairs about 6 * 10^4 times each, so the loop stops after its first x
    loop = recording(monkeypatch, "_scan_x_exact")
    for cfg in (
        SearchConfig(max_x=20, threshold=10**12),
        SearchConfig(min_x=KERNEL_MAX_X, max_x=KERNEL_MAX_X + 1000, threshold=10**20),
    ):
        loop.clear()
        with pytest.raises(ValueError, match=f"more than {MAX_WINDOW_ROWS} rows"):
            scan(cfg)
        assert len(loop) == 1


def refused_by(excinfo) -> str:
    """The function whose count of rows passed the cap."""
    assert excinfo.traceback[-1].name == "_count_rows"
    return excinfo.traceback[-2].name


def test_window_of_one_hit_pairs_is_refused(monkeypatch):
    # y < isqrt(t) + 1 = 11833 for every pair, so the window loop takes
    # all 501,501 and returns 450,344 rows with no cap.  Each pair has
    # s > t^2 and so at most one hit: only a count of the rows refuses it
    monkeypatch.setattr(search, "MAX_WINDOW_ROWS", 10**5)
    cfg = SearchConfig(min_x=10000, max_x=11000, threshold=140_000_000)
    assert _kernel_y_start(cfg) == cfg.max_x + 1
    loop = recording(monkeypatch, "_scan_x_exact")
    with pytest.raises(ValueError, match="more than 100000 rows") as excinfo:
        scan(cfg)
    assert refused_by(excinfo) == "_scan_stripe"
    # the loop stops at the first x whose rows pass the cap
    counts = [sum(row[4] for row in rows) for _, rows in loop]
    assert sum(counts[:-1]) <= 10**5 < sum(counts)


@pytest.mark.parametrize("force_exact, path", [(False, "_scan_kernel"), (True, "_scan_stripe")])
def test_kernel_window_of_one_hit_pairs_is_refused(monkeypatch, force_exact, path):
    # 2,003,001 pairs with s > t^2, so one hit each at most, and 1,413,764
    # rows with no cap; the kernel takes every pair with y > 10^6
    monkeypatch.setattr(search, "MAX_WINDOW_ROWS", 10**5)
    cfg = SearchConfig(min_x=10**6, max_x=10**6 + 2000, threshold=10**12)
    assert _kernel_y_start(cfg) == 10**6 + 1
    with pytest.raises(ValueError, match="more than 100000 rows") as excinfo:
        scan(cfg, force_exact=force_exact)
    assert refused_by(excinfo) == path


@pytest.mark.parametrize("stripes", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(max_x=60, threshold=50),  # kernel rows of several hits
        SearchConfig(min_x=3000, max_x=3100, threshold=INTERVAL_MAX_T + 1),  # window loop
        SearchConfig(max_x=3000, exact_residual=8),  # exact kernel rows
    ],
)
def test_scan_is_refused_iff_its_rows_pass_the_cap(monkeypatch, in_process_pool, cfg, stripes):
    # a stripe refuses once its own rows pass the cap, and scan once the
    # stripes' total does, so the rule holds at any number of stripes
    hits = scan(cfg)
    assert hits
    monkeypatch.setattr(search, "processes", lambda *args: stripes)
    monkeypatch.setattr(search, "MAX_WINDOW_ROWS", len(hits))
    assert scan(cfg) == hits
    monkeypatch.setattr(search, "MAX_WINDOW_ROWS", len(hits) - 1)
    with pytest.raises(ValueError, match=f"more than {len(hits) - 1} rows"):
        scan(cfg)
    assert [pool.processes for pool in in_process_pool] == [stripes] * 2 * (stripes > 1)


def fresh_peak(cap: int, *argv: str) -> tuple[int, str, int]:
    """(exit status, stdout, peak MB) of `search *argv` with MAX_WINDOW_ROWS
    at cap, in a fresh process, which reports its own peak, VmHWM.  Its
    ru_maxrss would not do: Linux carries the peak of the process that
    started it across the exec, so it reads at least the suite's peak."""
    code = (
        "import sys\n"
        "from nearmiss4 import cli, search\n"
        f"search.MAX_WINDOW_ROWS = {cap}\n"
        "status = cli.main(sys.argv[1:])\n"
        "hwm = [line.split()[1] for line in open('/proc/self/status') if line[:6] == 'VmHWM:']\n"
        "print(int(hwm[0]) // 1024, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "search", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, int(proc.stderr.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_refused_window_peaks_near_an_empty_scan():
    # the window of test_window_of_one_hit_pairs_is_refused peaks about
    # 41 MB above an empty scan when it is held whole (126 MB when the
    # window loop held Python tuples), and about 3 MB when it is refused
    status, _, empty = fresh_peak(10**5, "--min-x", "5", "--max-x", "5")
    assert status == 0
    window = ("--min-x", "10000", "--max-x", "11000", "--threshold", "140000000")
    status, out, peak = fresh_peak(10**5, *window)
    assert (status, out) == (2, "")
    assert peak - empty < 50  # MB


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_window_loop_holds_its_rows_as_columns():
    # every pair of 20000..22000 has y < isqrt(t) + 1, so the window loop
    # takes them all, and it is refused once it counts 10^6 rows.  Held as
    # int64 columns, made x by x, they peak about 38 MB above an empty
    # scan; held as Python tuples until the stripe ended, 175 MB
    status, _, empty = fresh_peak(10**6, "--min-x", "5", "--max-x", "5")
    assert status == 0
    window = ("--min-x", "20000", "--max-x", "22000", "--threshold", "500000000")
    status, out, peak = fresh_peak(10**6, *window)
    assert (status, out) == (2, "")
    assert peak - empty < 80  # MB: under 80 B a row


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
