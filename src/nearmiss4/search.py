"""Exhaustive scan for near-solutions of x^4 + y^4 = z^2.

A hit is a pair min_x <= x <= y <= max_x and a z >= 1 whose residual
s - z^2, s = x^4 + y^4, lies in the configured window [lo, hi]: (R, R)
for an exact residual R, (-t, t) for a threshold t.  So the hits of a
pair are exactly the z with s - hi <= z^2 <= s - lo: every z from
z_lo = isqrt(s - hi - 1) + 1 (or 1, when s <= hi) up to r = isqrt(s - lo).
The pair hits iff r >= 1 and d = s - lo - r^2 <= hi - lo, and it also
hits at r - 1 iff 2r - 1 <= (hi - lo) - d.  Let t = max(-lo, hi).  Two
hits z - 1 and z need 2z - 1 <= hi - lo <= 2t, so z <= t, and
(z - 1)^2 >= s - hi, so s <= (t - 1)^2 + t <= t^2: a pair with s > t^2
has at most one hit, and an exact window, hi = lo, never more than one.

One number, y0, splits the scan: the least y with y^4 > b, where
b = max(lo, 0) for t <= INTERVAL_MAX_T and b = t^2 past it.  So y0 is
min_x for a threshold up to INTERVAL_MAX_T and the least y with y^4 > R
for an exact residual R up to it; every pair with y >= y0 has s > b, so
s > R and r >= 1, or at most one hit.  One vectorized kernel takes every
pair with y >= y0, for every window, over the square y0 <= x <= y and
the rectangle x < y0 <= y, and chooses its test by the window alone.

An exact window, lo = hi = R, needs only whether N = s - R is a square.
The kernel takes the float64 root e = sqrt(x^4 + y^4 - R) of every pair,
which errs by under 0.45 (see KERNEL_MAX_X), so rint(e) = z at every
square N = z^2.  A pair hits iff rint(e)^2 = N mod 2^64, a test that is
exact; its row is (x, y, rint(e), R, 1).  The test runs in place over
each block: one float sum, a square root and rint, then rint(e)^2 minus
the two int64 tables, with no integer square root and no +/-1
correction.

A threshold window forms s - lo in int64 and lets it wrap mod 2^64,
estimates r as sqrt(x^4 + y^4 - lo) in float64, and forms
d = s - lo - r*r, which wraps too.  The wrapped d is nevertheless
exact: r is off by at most one, so the true |s - lo - r^2| is at most
4r + 3, far below 2^63, and a value below 2^63 survives reduction mod
2^64 unchanged.  Moving r by one where d < 0 or d > 2r then makes
r = isqrt(s - lo) exactly.  The float estimate errs by well under one
up to KERNEL_MAX_X.  A pair that hits at r - 1 too has s <= t^2, so
t <= INTERVAL_MAX_T, and r <= t, so s - hi - 1 < 2^52 is exact in
float64 and int64: the kernel takes its z_lo by one more float square
root and +/-1 step.  It returns each hit pair as one row: z_lo, the
residual s - z_lo^2 and the pair's count of hits, n = r - z_lo + 1.

The kernel runs behind a congruence sieve.  A hit means s - v = z^2 for
some v in lo..hi, so s - v is a square mod M = SIEVE_MODULUS = 432 =
2^4 * 3^3.  The sieve reads each x only through its class x^4 mod M,
one of 20 values, and evaluates only the pairs whose class sum allows
that.  In the square, which is symmetric in x and y, class g is paired
with the classes g' >= g, and a pair of one class is kept only as
x <= y; in the rectangle every y exceeds every x, so g is paired with
every class.  The pairs run in blocks of at most SIEVE_BLOCK_PAIRS.

The sieve has a value level too, mod 5.  Every x^4 is 0 or 1 mod 5 and
the squares mod 5 are 0, 1 and 4.  So for an exact residual R = 3
(mod 5) a hit needs x^4 + y^4 = R + z^2 = 2, both fourth powers 1, and
no hit has 5 | x or 5 | y; for R = 4 it needs x^4 + y^4 = 0, and every
hit has 5 | x and 5 | y.  Any other R, and any window of two or more
residues, leaves both classes a partner.  _usable derives this from the
window as _reach does, and the kernel takes only the usable x and y
before it forms its classes.

The sieve has a pair level too, mod 13.  x^4 mod 13 takes only the four
values 0, 1, 3 and 9, and a pair of subclasses a = x^4, b = y^4 (mod 13)
can hit only if a + b - v is a square mod 13 for some v in lo..hi: the
table _reach(lo, hi, 13).  For every exact window it rules out 28-62%
of all pairs (48% for R = 8), as it does for a threshold of 1; from a
threshold of 2 on it rules out none.  Where it rules out a pair, the
kernel splits each class that holds four blocks or more by x^4 mod 13
and runs the block loop once a subclass, over the y whose subclass it
may pair with; a smaller class runs whole, as every class does where
the table rules out nothing, since a split multiplies partly filled
blocks.  Together the levels evaluate 3.50% of the pairs for an exact
residual 8 at max_x 7000 (857,113: 10.49% mod 432, times 16/25 mod 5,
times 88/169 mod 13, in the 13 of its 14 classes that split; 6.72%
without the split), and all of them for a threshold of 9 or more.  They
drop only pairs that cannot hit, and every pair they keep is still
checked exactly.

5 is the only odd prime that can rule out a value.  A value of class c
has a partner mod p iff z^2 = y^4 + c - R has a solution mod p.  For
p >= 7 it has: y = z = 0 when c = R, else the curve has genus 1 and the
Hasse-Weil bound leaves it at least p - 1 - 2*sqrt(p) > 0 affine points.
Mod 3 every x^4 is 0 or 1, and of two consecutive residues one is a
square.  (The tests check every odd prime below 400.)  So 13 rules out
pairs, never values, and the kernel reads it through the classes it
splits.  5 is a value filter, not a factor of M: M = 2160 would drop the
same pairs, and also some of R = 0 or 2 (mod 5), but it doubles the
classes to 40, whose per-block cost makes small windows slower (see
SIEVE_MODULUS), where the value filter costs one mask over the values.
The same cost rules out 13 as a factor of M (see SIEVE_MODULUS).

The pure-Python window loop takes z_lo and r pair by pair in big ints,
by the rule above, and returns each hit pair as the kernel does: one row
with z_lo, s - z_lo^2 and n = r - z_lo + 1.  It is the reference the
kernel is tested against, and it takes the band y < y0: y <= R^(1/4)
for an exact residual 0 < R <= INTERVAL_MAX_T, at most 76 values of y
and 2926 pairs; y <= sqrt(t) past INTERVAL_MAX_T; and every pair under
force_exact or when max_x is above KERNEL_MAX_X (y0 is then max_x + 1).
Both paths count their rows, the n of each hit pair, as they go, and a
scan whose rows pass MAX_WINDOW_ROWS is refused with a ValueError once
a count passes it, before any row is expanded.

The x values of the band and of each class of each kernel region are
split into interleaved stripes, one process each, at most one per CPU
this process may run on, one per x and one per MIN_STRIPE_PAIRS of
estimated work, so a scan too small to repay a process start runs in
the calling process whatever the worker count.  Every stripe returns
one row per hit pair, from either path, as five columns x, y, z, delta,
n: int64, or object where a window-loop value passes int64.  scan sorts
them by one int64 key into (y, x) order, so the output is independent of
the worker count, expands each row into its n rows through one index,
z counting up, and returns them as Hits, a read-only sequence that
builds a SearchHit only for a row that is read.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from math import isqrt
from multiprocessing import Pool
from typing import NamedTuple

import numpy as np

from .sequences import residual

__all__ = ["Hits", "SearchConfig", "SearchHit", "processes", "scan", "verify_hit"]

# Largest max_x the kernel serves.  The float64 tables hold x^4 and y^4
# to a relative error of 2^-53 each; subtracting lo, the sum and the
# square root add one rounding each.  A kernel pair has every value
# exact in float64, as a threshold pair with s <= t^2 does (see
# INTERVAL_MAX_T), or |lo| < sqrt(s), tiny beside s (s > t^2 for any
# other threshold pair), so the estimate of r = sqrt(s - lo) is off by
# at most about 1.25 * r * 2^-52.  With y <= 2^25, r <= sqrt(2) * 2^50
# and that error stays below 0.45, so truncating the estimate lands on
# r - 1, r or r + 1, which the +/-1 correction repairs.  x^2 <= 2^50 is
# exact in both tables, so x^4 is rounded once.
#
# An exact window R takes e = sqrt(x^4 + (y^4 - R)) in float64 with
# the same bound, |e - sqrt(N)| < 0.45 for N = s - R, so at a square
# N = z^2, rho = rint(e) is z.  Its check is exact: |sqrt(N) - rho| <
# 0.95, so |N - rho^2| < 0.95 * (2 * sqrt(N) + 1) < 2^63, and
# rho^2 = N mod 2^64 means rho^2 = N.
KERNEL_MAX_X = 2**25

# Largest t = max(-lo, hi) whose window starts the kernel at
# y^4 > max(lo, 0): at min_x for a threshold, at y^4 > R for an exact
# residual R.  A pair with several hits has r <= t, so s - hi - 1 <
# (t + 1)^2 < 2^52, and a threshold pair with s <= t^2 has s + t < 2^52:
# exact in float64, whose square root then errs by well under one, and
# far inside int64.  Below s = 2^53 - 2^25 an exact kernel pair's x^4,
# y^4 - R and s - R are exact in float64 too; from there on |R| <= 2^25
# < sqrt(s), as the KERNEL_MAX_X bound needs.
INTERVAL_MAX_T = 2**25

# Upper bound on workers.  A scan runs processes(cfg) stripes, one
# process each.
MAX_WORKERS = 1024

# Modulus of the congruence sieve, 2^4 * 3^3.  A further split of each
# class by x mod 7 measured slower, at max_x 7000 and 20000 and on a
# 1020-wide window: the extra classes cost more in per-block overhead
# than the pairs they drop.  The factor 5 (M = 2160) measured slower
# than the value filter (_usable), which drops the same pairs of R = 3
# or 4 (mod 5) with no extra class.  In-process medians, 2 vCPUs,
# M = 2160 against M = 432 with the value filter: the window
# 51948..52967 1.2 / 0.9 ms, R = 1000003 to max_x 5000 2.3-2.6 /
# 1.3-1.4 ms, R = 8 to max_x 7000 15.3-16.5 / 14.4-15.6 ms.
# The factor 13 (M = 5616) measured slower still, since it multiplies
# every class; 13 rules out pairs, so the kernel splits by x^4 mod 13
# only a class of four blocks or more, and only where the window's table
# rules out a pair (see _scan_kernel).  In-process medians of 11,
# interleaved, 2 vCPUs, with no split / a split by x^4 mod 13 / mod 7 /
# mod 17 / mod 13 * 17 / M = 5616 and no split: R = 8 to max_x 7000
# 10.6 / 6.8 / 8.2 / 7.0 / 8.8 / 18.3 ms, to max_x 20000 76.7 / 43.1 /
# 53.0 / 41.4 / 29.3 / 95.8 ms, R = 72 to max_x 5000 20.3 / 11.9 / 14.5 /
# 16.0 / 10.2 / 24.4 ms, the window 51948..52967 0.85 / 0.77 / 0.73 /
# 0.73 / 0.81 / 2.84 ms.  13 * 17, 20 subclasses, wins only where they
# fill their blocks, past max_x 7000.
SIEVE_MODULUS = 432

# Most pairs one kernel block evaluates; bounds each block's memory at
# any max_x, and keeps its int64 temporaries (64 KB) below glibc's mmap
# threshold.
# Median scans before the value filter, exact residual 8, one worker,
# 2 vCPUs, at 2^13 / 2^14 / 2^15: max_x 7000 26 / 42 / 46 ms, max_x
# 20000 181-197 / 245-250 / 260-329 ms, the window 51948..52967
# 1.3 / 1.9 / 2.0 ms.
SIEVE_BLOCK_PAIRS = 2**13

# Least estimated work, in kept kernel pairs, that earns a scan a
# process of its own: a scan runs at most one stripe per this many, so
# two processes first run at 2^22 kept pairs (R = 8 from max_x 15488).
# On 2 vCPUs (in-process medians of 7) a threshold window's kept pair
# took 9.2-13 ns (t = 9 to max_x 3000) and an exact window's 6.2-7.2 ns
# (R = 8 to max_x 20000), since it takes no integer square root.  Two
# processes tie with one for an exact window between 7.0M and 10.1M kept
# pairs, the cost of a pool start (exact residual 8, one scan per fresh
# process, medians of 7, 1 / 2 processes: max_x 10000, 1.7M kept, 14 /
# 30 ms; 12000, 2.5M, 17 / 32 ms; 16000, 4.5M, 29 / 36 ms; 20000, 7.0M,
# 43 / 45 ms; 24000, 10.1M, 60 / 57 ms; 28000, 13.7M, 84 / 70 ms; 32000,
# 17.9M, 104 / 77 ms).  It stays below the tie: a pool there costs a few
# ms, and the test workflow's pooled scans, the smallest of 4.5M kept
# pairs, still run two processes.
MIN_STRIPE_PAIRS = 2**21

# Cost of one band pair, which the window loop takes, in kept kernel
# pairs.  Against 9-17 ns per kept kernel pair of a threshold window
# (6-10 ns of an exact one, see MIN_STRIPE_PAIRS), a window-loop pair,
# scan's expansion of its rows included, took 0.5-0.6 us for an exact
# window (R = 8) and 1.2-2.4 us for a threshold (t = 20000 and 100000 to
# max_x 400, about 1 and 4.3 rows a pair, and t = 2^25 + 1 over
# 3000..3400, 2.3), so this one price is within about 2x of every
# window's (median of 7-9 in-process scans, force_exact below 2^25,
# 2 vCPUs).  An exact window up to INTERVAL_MAX_T has at most 2926 band
# pairs, and a threshold has band pairs only past it.
BAND_PAIR_WEIGHT = 100

# Most rows a scan may return.  The kernel counts its rows block by
# block, the window loop x by x, and scan the merged total of its
# stripes; each raises a ValueError once its count passes the cap.  So a
# scan is refused iff its rows pass the cap, at any worker count, and
# each path of a stripe stops within one block, or one x, of it.  Peaks
# (VmHWM) of fresh processes on 2 vCPUs, 32 MB of it the interpreter and
# numpy: a refusal holds five int64 columns, about 38 B a row, on either
# path (441 MB for `search --min-x 1000000 --max-x 1100000 --threshold
# 10^12`; 871 MB summed at --workers 2 when last measured).  An accepted
# search takes about 90 B a row in the kernel, which joins its columns
# one at a time, as its stripe does (1,413,764 rows over
# 1000000..1002000 at t = 10^12: 159 MB), and about 100 B in the window
# loop (450,344 rows over 10000..11000 at t = 1.4e8: 76 MB).
MAX_WINDOW_ROWS = 10**7


@dataclass(frozen=True)
class SearchConfig:
    max_x: int
    min_x: int = 1
    threshold: int = 0
    exact_residual: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.min_x < 1:
            raise ValueError(f"min_x must be >= 1, got {self.min_x}")
        if self.max_x < self.min_x:
            raise ValueError(f"need min_x <= max_x, got {self.min_x}..{self.max_x}")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {self.workers}")
        if self.exact_residual is not None and self.threshold != 0:
            raise ValueError("give either threshold or exact_residual, not both")

    @property
    def window(self) -> tuple[int, int]:
        """(lo, hi): a residual is a hit iff lo <= residual <= hi."""
        if self.exact_residual is not None:
            return self.exact_residual, self.exact_residual
        return -self.threshold, self.threshold


class SearchHit(NamedTuple):
    x: int
    y: int
    z: int
    delta: int


class Hits(Sequence[SearchHit]):
    """The rows of a scan, read-only, held as four columns x, y, z, delta:
    int64, or object where a window-loop value passes int64.  An item is
    a SearchHit of Python ints, built when it is read, and a slice is a
    Hits.  A Hits compares equal to any sequence of the same rows."""

    __slots__ = ("columns",)

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, delta: np.ndarray):
        for column in (x, y, z, delta):
            column.flags.writeable = False
        self.columns = (x, y, z, delta)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Hits(*(c[i] for c in self.columns))
        return SearchHit(*(int(c[i]) for c in self.columns))

    def __iter__(self):
        return map(SearchHit._make, zip(*(c.tolist() for c in self.columns)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Hits):
            return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Hits({list(self)!r})"


_Row = tuple[int, int, int, int, int]
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _scan_x_exact(x: int, y_end: int, lo: int, hi: int) -> list[_Row]:
    # a pair hits at every z from z_lo to r = isqrt(s - lo) and at no
    # other; each hit pair is one row, as the kernel returns it: z_lo, the
    # residual s - z_lo^2 and the count of hits r - z_lo + 1
    rows: list[_Row] = []
    x4 = x**4
    for y in range(x, y_end):
        s = x4 + y**4
        z_lo = isqrt(s - hi - 1) + 1 if s > hi else 1
        r = isqrt(s - lo) if s > lo else 0
        if z_lo <= r:
            rows.append((x, y, z_lo, s - z_lo * z_lo, r - z_lo + 1))
    return rows


def _count_rows(total: int) -> int:
    """total, the rows counted so far; a ValueError once it passes
    MAX_WINDOW_ROWS."""
    if total > MAX_WINDOW_ROWS:
        raise ValueError(f"more than {MAX_WINDOW_ROWS} rows; narrow the range or the threshold")
    return total


def _columns(rows: list[_Row]) -> _Columns:
    """The window loop's rows, one per hit pair, as columns x, y, z,
    delta, n: int64 where every value of the column fits, else object."""
    columns = []
    for values in zip(*rows) if rows else [()] * 5:
        try:
            columns.append(np.array(values, dtype=np.int64))
        except OverflowError:
            columns.append(np.array(values, dtype=object))
    return tuple(columns)


def _kernel_y_start(cfg: SearchConfig, force_exact: bool = False) -> int:
    """y0, which splits the scan: the kernel takes every pair with
    y >= y0 and the window loop every pair below it.  It is the least y
    with y^4 > b, raised to min_x and capped at max_x + 1; max_x + 1
    under force_exact or past KERNEL_MAX_X.  b is max(lo, 0) for
    t = max(-lo, hi) <= INTERVAL_MAX_T, so that isqrt(s - lo) is a z of
    every kernel pair, and t^2 past it, so that it is the only one."""
    if force_exact or cfg.max_x > KERNEL_MAX_X:
        return cfg.max_x + 1
    lo, hi = cfg.window
    t = max(-lo, hi)
    b = max(lo, 0) if t <= INTERVAL_MAX_T else t * t
    return min(max(isqrt(isqrt(b)) + 1, cfg.min_x), cfg.max_x + 1)


def _pow4(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v^4 mod 2^64 as int64 and v^4 as float64, for int64 v <= 2^25."""
    v2 = v * v
    f2 = v2.astype(np.float64)
    return v2 * v2, f2 * f2


def _isqrt(s: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = isqrt(s) and d = s - r*r elementwise, for 1-D int64 s (held mod
    2^64) and a float64 estimate f of it whose square root errs by under
    one: a threshold window's s = x^4 + y^4 - lo from _pow4 tables, or
    s - hi - 1 < 2^52 exactly for its z_lo.  An exact window never calls
    it: _exact_roots tests its pairs."""
    r = np.sqrt(f).astype(np.int64)
    d = s - r * r  # exact: |s - r^2| <= 4r + 3 < 2^63
    # r is too big where d < 0 and too small where s >= (r + 1)^2; the
    # estimate is rarely off, so only those entries are corrected
    off = np.flatnonzero((d < 0) | (d > 2 * r))
    if off.size:
        r[off] += np.where(d[off] < 0, -1, 1)
        d[off] = s[off] - r[off] * r[off]
    return r, d


def _exact_roots(
    p4x: np.ndarray, f4x: np.ndarray, p4s: np.ndarray, f4s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(k, z): the flat indexes k into the block of pairs whose
    N = p4x[a] + p4s[b], held mod 2^64, is a square z^2, k = a * width + b
    with width = p4s.size, and those z.  f4x and f4s are the float64
    tables of p4x and p4s.  A pair is kept iff rint(e)^2 = N mod 2^64 for
    the float root e of its N, which is exact (see KERNEL_MAX_X)."""
    # rint(e)^2 - p4x == p4s in place: two 64 KB buffers a block, so that
    # glibc does not trim the heap and fault it back in
    e = np.add.outer(f4x, f4s)
    np.sqrt(e, out=e)
    np.rint(e, out=e)
    d = e.astype(np.int64)
    np.multiply(d, d, out=d)
    d -= p4x[:, None]
    k = np.flatnonzero(d == p4s)
    return k, e.ravel()[k].astype(np.int64)


def _reach(lo: int, hi: int, m: int = SIEVE_MODULUS) -> np.ndarray:
    """Bool vector over w mod m: True iff w - v is a square mod m for some
    v in lo..hi, as a pair with (x^4 + y^4) mod m = w needs to hit; for
    m = SIEVE_MODULUS, True at every such sum for a threshold t >= 9."""
    k = np.arange(m, dtype=np.int64)
    is_square = np.zeros(m, dtype=bool)
    is_square[k * k % m] = True
    shifts = (lo % m + np.arange(min(hi - lo + 1, m))) % m  # the v mod m
    reach = np.zeros(m, dtype=bool)
    reach[(np.flatnonzero(is_square)[:, None] + shifts[None, :]) % m] = True
    return reach


def _usable(lo: int, hi: int) -> np.ndarray:
    """Bool vector over x mod 5: True iff x^4 + y^4 - v is a square mod 5
    for some y and some v in lo..hi, as a value x needs to be in a hit.
    All True unless the window is one residual R = 3 or 4 (mod 5)."""
    c = np.arange(5) ** 4 % 5  # the class x^4 mod 5 of each x mod 5
    return _reach(lo, hi, 5)[(c[:, None] + c) % 5].any(axis=1)


def _scan_kernel(cfg: SearchConfig, y0: int, index: int, stride: int) -> _Columns:
    """Hits lo <= x^4 + y^4 - z^2 <= hi, for this worker's stripe of each
    class's usable x values (_usable), over every pair of usable values
    with y >= y0: the square y0 <= x <= y <= max_x and the rectangle
    min_x <= x < y0 <= y <= max_x.  One row per hit pair: x, y, its least
    z, the residual there and its count n of hits.

    Valid only for y0 = _kernel_y_start(cfg): then isqrt(s - lo) is a z
    of every pair, and every value the kernel forms is exact.
    """
    lo, hi = cfg.window
    min_x, max_x = cfg.min_x, cfg.max_x
    m = SIEVE_MODULUS
    reach = _reach(lo, hi)
    reach13 = _reach(lo, hi, 13)
    span = hi - lo
    v = np.arange(min_x, max_x + 1, dtype=np.int64)
    p4, f4 = _pow4(v)
    u = (v % m) ** 4 % m  # the class of v: v^4 mod M, one of 20 values
    q = (v % 13) ** 4 % 13  # its subclass v^4 mod 13: 0, 1, 3 or 9
    # the indexes into v of the values that can be in a hit
    usable = _usable(lo, hi)
    iv = np.arange(v.size) if usable.all() else np.flatnonzero(usable[v % 5])
    iy = iv[iv >= y0 - min_x]
    yv, uy = v[iy], u[iy]
    # for each subclass a, the y whose subclass b has reach13[a + b]
    subclasses = np.array([0, 1, 3, 9])
    partners = reach13.take(subclasses[:, None] + q[iy], mode="wrap")
    p4y = p4[iy] - lo  # y^4 - lo; this and the sums below wrap mod 2^64
    f4y = f4[iy] - lo
    hits: tuple[list[np.ndarray], ...] = ([], [], [], [], [])  # x, y, z, d, n by block
    rows = 0  # counted block by block, so a stripe stops at the cap
    # (x indexes, square?); class g is paired with the classes g' >= g in
    # the square, which is symmetric, and with every class in the
    # rectangle, where every y exceeds every x
    for ix, square in ((iy, True), (iv[iv < y0 - min_x], False)):
        ux = u[ix]
        for g in np.flatnonzero(np.bincount(ux)):
            at = ix[ux == g][index::stride]
            # reach[(g + uy) % m]: take wraps the index faster than int64 % does
            pair = reach.take(g + uy, mode="wrap") & (uy >= (g if square else 0))
            parts = [(at, pair)]
            # a class of four blocks or more, where the window's mod-13
            # table drops a pair, runs once for each x^4 mod 13 = a with
            # only the y whose y^4 mod 13 = b has reach13[a + b].  The
            # table is symmetric, so a same-class pair still appears as
            # (x, y) and as (y, x), and the square's mirror drop holds
            if not reach13.all() and at.size * pair.sum() >= 4 * SIEVE_BLOCK_PAIRS:
                qx = q[at]
                parts = [(at[qx == a], pair & near) for a, near in zip(subclasses, partners)]
            for at, pair in parts:
                jy = np.flatnonzero(pair)  # a gather is cheaper than a mask, thrice
                if not (at.size and jy.size):
                    continue
                xs, p4x, f4x = v[at], p4[at], f4[at]
                ys, p4s, f4s = yv[jy], p4y[jy], f4y[jy]
                h = max(1, SIEVE_BLOCK_PAIRS // ys.size)
                w = SIEVE_BLOCK_PAIRS // h
                for i in range(0, xs.size, h):
                    for j in range(0, ys.size, w):
                        width = min(w, ys.size - j)
                        if not span:  # an exact window: d = 0 and n = 1
                            k, z = _exact_roots(
                                p4x[i : i + h], f4x[i : i + h], p4s[j : j + w], f4s[j : j + w]
                            )
                            if not k.size:
                                continue
                            d = np.zeros_like(z)
                            n = d + 1
                        else:
                            r, d = _isqrt(
                                (p4x[i : i + h, None] + p4s[None, j : j + w]).ravel(),
                                (f4x[i : i + h, None] + f4s[None, j : j + w]).ravel(),
                            )
                            k = np.flatnonzero(d <= span)  # d = s - lo - r^2 >= 0
                            if not k.size:
                                continue
                            z, d, n = r[k], d[k], np.ones(k.size, dtype=np.int64)
                            # the pairs that hit at r - 1 too: 2r - 1 <= span - d
                            # needs r <= t, so s - hi - 1 < 2^52 is exact in float
                            many = np.flatnonzero(2 * z - 1 <= span - d)
                            if many.size:
                                r2 = z[many] * z[many]
                                a = np.maximum(r2 + d[many] - span - 1, 0)  # s - hi - 1
                                z_lo = _isqrt(a, a.astype(np.float64))[0] + 1
                                n[many] = z[many] - z_lo + 1
                                d[many] += r2 - z_lo * z_lo
                                z[many] = z_lo
                        x, y = xs[i + k // width], ys[j + k % width]
                        if square:
                            # a pair of two values of class g appears in its
                            # square block twice, as (x, y) and as (y, x)
                            keep = (x <= y) | (u[y - min_x] != g)
                            x, y, z, d, n = x[keep], y[keep], z[keep], d[keep], n[keep]
                        rows = _count_rows(rows + int(n.sum()))
                        for column, part in zip(hits, (x, y, z, d, n)):
                            column.append(part)
    if not hits[0]:
        return _columns([])
    x, y, z, d, n = _joined(hits)
    # in place: a square pair of one class may have come out as (y, x)
    swap = x > y
    x[swap], y[swap] = y[swap], x[swap]
    d += lo
    return x, y, z, d, n


def _joined(columns: Sequence[list[np.ndarray]]) -> _Columns:
    """Each column's parts concatenated, one column at a time, its list
    emptied before the next is joined, so that at most one column is held
    twice."""
    joined = []
    for parts in columns:
        joined.append(np.concatenate(parts))
        parts.clear()
    return tuple(joined)


def _scan_stripe(cfg: SearchConfig, index: int, stride: int, y0: int) -> _Columns:
    lo, hi = cfg.window
    parts = []  # each x's rows as columns, then the kernel's
    total = 0  # counted x by x, so a stripe stops at the cap
    for x in range(cfg.min_x + index, y0, stride):
        found = _scan_x_exact(x, y0, lo, hi)
        total = _count_rows(total + sum(row[4] for row in found))
        parts.append(_columns(found))
    if y0 <= cfg.max_x:
        parts.append(_scan_kernel(cfg, y0, index, stride))
    if len(parts) == 1:
        return parts[0]
    columns = [list(column) for column in zip(_columns([]), *parts)]
    del parts  # so that each column's parts are freed as it is joined
    return _joined(columns)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (so `taskset -c 0` counts 1), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kept_residue_pairs(lo: int, hi: int) -> int:
    """Residue pairs (a, b) mod 65M, of all (65M)^2, M = SIEVE_MODULUS,
    that the sieve keeps for the window lo..hi: 27,574,272 for an exact
    residual 8 (3.50%), (65M)^2 for a threshold t >= 9.  The pairs of the
    20 classes x^4 mod M that _reach keeps, times those of the 4 classes
    x^4 mod 13, as the kernel splits a large class, times the pairs of
    usable values mod 5."""
    kept = int(_usable(lo, hi).sum()) ** 2
    for m in (SIEVE_MODULUS, 13):
        freq = np.bincount(np.arange(m) ** 4 % m, minlength=m)
        g = np.flatnonzero(freq)
        kept *= int(freq[g] @ _reach(lo, hi, m)[(g[:, None] + g) % m] @ freq[g])
    return kept


def _work(cfg: SearchConfig, force_exact: bool = False) -> int:
    """Estimated cost of a scan of cfg in kept kernel pairs: the kernel's
    pairs (y >= y0) times the share the sieve keeps, rounded up, plus
    each window-loop pair (y < y0) at BAND_PAIR_WEIGHT."""
    m = 5 * 13 * SIEVE_MODULUS
    y0 = _kernel_y_start(cfg, force_exact)
    n = cfg.max_x - cfg.min_x + 1
    band = (y0 - cfg.min_x) * (y0 - cfg.min_x + 1) // 2
    kernel = n * (n + 1) // 2 - band
    return -(-kernel * _kept_residue_pairs(*cfg.window) // m**2) + BAND_PAIR_WEIGHT * band


def processes(cfg: SearchConfig, force_exact: bool = False) -> int:
    """Processes scan(cfg, force_exact) runs, one stripe each: at most
    cfg.workers, one per CPU this process may run on, one per x in the
    range and one per MIN_STRIPE_PAIRS of _work; 1 runs in the calling
    process.  So a small scan runs in one process whatever cfg.workers is."""
    n = min(cfg.workers, _cpus(), cfg.max_x - cfg.min_x + 1)
    if n > 1:
        n = min(n, max(1, _work(cfg, force_exact) // MIN_STRIPE_PAIRS))
    return n


def scan(cfg: SearchConfig, force_exact: bool = False) -> Hits:
    """All qualifying hits, each exactly once, sorted by (y, x, z).

    force_exact switches off the vectorized kernel, so that the window
    loop takes every pair; results are identical either way (asserted by
    the test suite on overlap ranges).  Raises ValueError once the rows
    counted pass MAX_WINDOW_ROWS.
    """
    stripes = processes(cfg, force_exact)
    y0 = _kernel_y_start(cfg, force_exact)
    if stripes == 1:
        x, y, z, delta, n = _scan_stripe(cfg, 0, 1, y0)
    else:
        jobs = [(cfg, i, stripes, y0) for i in range(stripes)]
        with Pool(stripes) as pool:
            parts = pool.starmap(_scan_stripe, jobs)
        x, y, z, delta, n = map(np.concatenate, zip(*parts))
    rows = _count_rows(int(n.sum()))
    if not rows:  # an empty int64 column cannot take a min_x past 2^63
        return Hits(x, y, z, delta)
    # one unique key per hit pair, each difference in its column's dtype,
    # below width^2 < 2^63: a scan merges only after visiting every pair,
    # a kernel's width is <= 2^25, and a width of 2^31.5 holds 2^62 pairs
    min_x, width = cfg.min_x, cfg.max_x - cfg.min_x + 1
    order = np.argsort(
        (y - min_x).astype(np.int64, copy=False) * width + (x - min_x).astype(np.int64, copy=False)
    )
    n = n[order]
    # each row repeats n times; two gathers a line free the unexpanded columns
    order = np.repeat(order, n)
    x, y = x[order], y[order]
    z, delta = z[order], delta[order]
    del order
    # z counts up by step from its pair's z_lo: s - z^2 = delta - step *
    # (2z - step).  A pair with several hits has z <= r <= t, so below
    # t = 2^62 every term fits in int64 (a one-hit row has step 0); past
    # it, z, delta or 2z may not, and the rows are expanded in Python ints
    step = np.arange(rows, dtype=object if cfg.threshold >= 2**62 else np.int64)
    step -= np.repeat(np.cumsum(n) - n, n)
    z = z + step
    delta = delta - step * (2 * z - step)
    return Hits(x, y, z, delta)


def verify_hit(hit: SearchHit) -> bool:
    """Whether hit.delta is sequences.residual(x, y, z), recomputed exactly."""
    return residual(hit.x, hit.y, hit.z) == hit.delta
