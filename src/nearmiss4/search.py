"""Exhaustive scan for near-solutions of x^4 + y^4 = z^2.

A hit is a pair min_x <= x <= y <= max_x and a z >= 1 whose residual
s - z^2, s = x^4 + y^4, lies in the configured window [lo, hi]: (R, R)
for an exact residual R, (-t, t) for a threshold t.  So the hits of a
pair are exactly the z with s - hi <= z^2 <= s - lo, and none exceeds
r = isqrt(s - lo).  Let t = max(-lo, hi) and 2*x^4 > t^2, so s > t^2.
Two hits z - 1 and z would need 2z - 1 <= hi - lo <= 2t, so z <= t, and
(z - 1)^2 >= s - hi > t^2 - t, which no such z >= 1 meets; so the pair
has at most one hit.  If z hits, r^2 >= z^2 >= s - hi, so r hits too.
In this regime r is therefore the one candidate: the pair hits iff
s - lo - r^2 <= hi - lo, and its residual is s - r^2.

That regime is served by one vectorized kernel for every window.  It
forms s - lo in int64 and lets it wrap mod 2^64, estimates r as
sqrt(x^4 + y^4 - lo) in float64, and forms d = s - lo - r*r, which wraps
too.  The wrapped d is nevertheless exact: r is off by at most one, so
the true |s - lo - r^2| is at most 4r + 3, far below 2^63, and a value
below 2^63 survives reduction mod 2^64 unchanged.  Moving r by one where
d < 0 or d > 2r then makes r = isqrt(s - lo) exactly.  The float
estimate errs by well under one up to KERNEL_MAX_X.

The kernel runs behind a congruence sieve.  A hit means s - v = z^2 for
some v in lo..hi, so s - v is a square mod M = SIEVE_MODULUS = 432 =
2^4 * 3^3, and the kernel evaluates only the pairs whose classes
(x mod M, y mod M) allow that: 10.49% of them for an exact residual 8,
all of them for a threshold of 9 or more.  The sieve drops only pairs
that cannot hit, and every pair it keeps is still checked exactly.
Since the test is symmetric in x and y, each pair is taken once, under
the smaller of its two classes: class c is paired with the admissible
classes c' >= c, in blocks of at most SIEVE_BLOCK_PAIRS pairs.

The pure-Python window loop serves the rest: the small-s regime
2*x^4 <= t^2, max_x above KERNEL_MAX_X, and force_exact.  It is the
reference the kernel is tested against.  Threshold configs for which
the window loop could emit more than MAX_WINDOW_ROWS rows beyond one
per pair are refused before anything runs.

The window-loop x values and the kernel's classes are split into
interleaved stripes, run by at most one process per CPU, and the merged
rows are sorted by (y, x, z), so output is independent of the worker
count.  Workers return plain tuples, which pickle several times faster
than SearchHits; each merged row becomes a SearchHit once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isqrt
from multiprocessing import Pool
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .sequences import residual

__all__ = ["SearchConfig", "SearchHit", "scan", "verify_hit"]

# Largest max_x the kernel serves.  The float64 tables hold x^4 and y^4
# to a relative error of 2^-53 each; subtracting lo, the sum and the
# square root add one rounding each, and |lo| < 1.5 * x^2 is tiny
# beside s, so the estimate of r = sqrt(s - lo) is off by at most about
# 1.25 * r * 2^-52.  With y <= 2^25, r <= sqrt(2) * 2^50 and that error
# stays below 0.45, so truncating the estimate lands on r - 1, r or
# r + 1, which the +/-1 correction repairs.  x^2 <= 2^50 is exact in
# both tables, so x^4 is rounded once.
KERNEL_MAX_X = 2**25

# Upper bound on workers, the stripes a scan is split into.  A scan has
# at most one stripe per x in the range and one process per CPU.
MAX_WORKERS = 1024

# Modulus of the congruence sieve, 2^4 * 3^3.  M = 2160 (adding the
# factor 5) and a further split of each class by x mod 7 both measured
# slower, at max_x 7000 and 20000 and on a 1020-wide window: the extra
# classes cost more in per-block overhead than the pairs they drop.
SIEVE_MODULUS = 432

# Most pairs one kernel block evaluates, for every window; keeps its
# arrays within cache and its memory flat at any max_x.
SIEVE_BLOCK_PAIRS = 2**15

# Most rows a threshold may add to the window loop beyond one per pair,
# as bounded by _extra_rows_bound.  Every row is held in memory until the
# scan ends.
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
        if self.exact_residual is None and _extra_rows_bound(self) > MAX_WINDOW_ROWS:
            raise ValueError(
                f"threshold {self.threshold} over x in {self.min_x}..{self.max_x} could "
                f"add more than {MAX_WINDOW_ROWS} rows; narrow the range or the threshold"
            )

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


_Row = tuple[int, int, int, int]


def _scan_x_exact(x: int, cfg: SearchConfig) -> list[_Row]:
    # every z with s - hi <= z^2 <= s - lo is a hit, and no other
    lo, hi = cfg.window
    rows: list[_Row] = []
    x4 = x**4
    for y in range(x, cfg.max_x + 1):
        s = x4 + y**4
        if s < lo:
            continue
        z_lo = isqrt(s - hi - 1) + 1 if s > hi else 1
        for z in range(z_lo, isqrt(s - lo) + 1):
            rows.append((x, y, z, s - z * z))
    return rows


def _kernel_min_x(t: int) -> int:
    """Smallest x >= 1 with 2*x^4 > t^2, where the kernel applies: the
    least x with x^4 > t^2 // 2, one above its integer fourth root."""
    return isqrt(isqrt(t * t // 2)) + 1


def _kernel_start(cfg: SearchConfig, force_exact: bool = False) -> int:
    """First x the kernel serves; the window loop takes the x below it."""
    if force_exact or cfg.max_x > KERNEL_MAX_X:
        return cfg.max_x + 1
    lo, hi = cfg.window
    return min(max(cfg.min_x, _kernel_min_x(max(-lo, hi))), cfg.max_x + 1)


def _extra_rows_bound(cfg: SearchConfig) -> int:
    """Upper bound on the rows the window loop emits beyond one per pair,
    for a threshold t.

    The hits of a pair are the z with s - t <= z^2 <= s + t, at most
    1 + sqrt(s + t) - sqrt(max(s - t, 0)) of them.  That difference is
    at most sqrt(2t), and at most 2t/sqrt(s) <= 2t/x^2 once s >= t, and
    its sum over all y >= 1 is at most 2*(2t)^(3/4) + sqrt(2t).
    """
    t = cfg.threshold
    n_x = _kernel_start(cfg) - cfg.min_x
    n_y = cfg.max_x - cfg.min_x + 1
    root = isqrt(2 * t) + 1  # > sqrt(2t)
    per_x = min(
        isqrt(2 * t * n_y**2) + 1,
        -(-2 * t * n_y // cfg.min_x**2),  # rounded up; 0 when t = 0
        2 * (isqrt(root) + 1) ** 3 + root,
    )
    return n_x * per_x


def _pow4(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v^4 mod 2^64 as int64 and v^4 as float64, for int64 v <= 2^25."""
    v2 = v * v
    f2 = v2.astype(np.float64)
    return v2 * v2, f2 * f2


def _isqrt(s: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = isqrt(s) and d = s - r*r elementwise, for 1-D s = x^4 + y^4 - lo
    held mod 2^64 and its float64 estimate f, both from _pow4 tables."""
    r = np.sqrt(f).astype(np.int64)
    d = s - r * r  # exact: |s - r^2| <= 4r + 3 < 2^63
    # r is too big where d < 0 and too small where s >= (r + 1)^2; the
    # estimate is rarely off, so only those entries are corrected
    off = np.flatnonzero((d < 0) | (d > 2 * r))
    if off.size:
        r[off] += np.where(d[off] < 0, -1, 1)
        d[off] = s[off] - r[off] * r[off]
    return r, d


def _admissible(lo: int, hi: int) -> np.ndarray:
    """M x M bool table, M = SIEVE_MODULUS: entry [a, b] is True iff
    a^4 + b^4 - v is a square mod M for some v in lo..hi.  Symmetric in
    a and b; all True for a threshold window (-t, t) with t >= 9."""
    m = SIEVE_MODULUS
    k = np.arange(m, dtype=np.int64)
    is_square = np.zeros(m, dtype=bool)
    is_square[k * k % m] = True
    shifts = (lo % m + np.arange(min(hi - lo + 1, m))) % m  # the v mod M
    reachable = np.zeros(m, dtype=bool)  # u with u - v a square mod M
    reachable[(np.flatnonzero(is_square)[:, None] + shifts[None, :]) % m] = True
    k4 = (k**4 % m).astype(np.int16)  # int16 keeps the M x M temporaries small
    return reachable[(k4[:, None] + k4[None, :]) % m]


def _scan_kernel(lo: int, hi: int, x0: int, max_x: int, index: int, stride: int) -> list[_Row]:
    """Hits lo <= x^4 + y^4 - z^2 <= hi over x0 <= x <= y <= max_x, for
    this worker's stripe of the classes mod SIEVE_MODULUS.

    Valid only when 2*x0^4 > t^2 for t = max(-lo, hi), so that a pair's
    only possible hit is z = isqrt(s - lo), and the residual fits int64.
    """
    m = SIEVE_MODULUS
    table = _admissible(lo, hi)
    span = hi - lo
    periods = np.arange(x0 - x0 % m, max_x + 1, m, dtype=np.int64)
    hits: list[tuple[np.ndarray, ...]] = []
    for c in range(index, m, stride):
        xs = np.arange(x0 + (c - x0) % m, max_x + 1, m, dtype=np.int64)
        if not xs.size:
            continue
        ys = (periods[:, None] + (np.flatnonzero(table[c, c:]) + c)).ravel()
        ys = ys[(ys >= x0) & (ys <= max_x)]
        if not ys.size:
            continue
        p4x, f4x = _pow4(xs)
        p4y, f4y = _pow4(ys)
        p4y -= lo  # y^4 - lo; this and the sums below wrap mod 2^64
        f4y -= lo
        h = max(1, SIEVE_BLOCK_PAIRS // ys.size)
        w = SIEVE_BLOCK_PAIRS // h
        for i in range(0, xs.size, h):
            for j in range(0, ys.size, w):
                width = min(w, ys.size - j)
                r, d = _isqrt(
                    (p4x[i : i + h, None] + p4y[None, j : j + w]).ravel(),
                    (f4x[i : i + h, None] + f4y[None, j : j + w]).ravel(),
                )
                k = np.flatnonzero(d <= span)  # d = s - lo - r^2 >= 0
                if k.size:
                    hits.append((xs[i + k // width], ys[j + k % width], r[k], d[k]))
    if not hits:
        return []
    x, y, r, d = map(np.concatenate, zip(*hits))
    # a pair of two values of one class appears in that class's block
    # twice, as (x, y) and as (y, x)
    keep = (x <= y) | (x % m != y % m)
    return list(
        zip(
            np.minimum(x, y)[keep].tolist(),
            np.maximum(x, y)[keep].tolist(),
            r[keep].tolist(),
            (d[keep] + lo).tolist(),
        )
    )


def _scan_stripe(job: tuple[SearchConfig, int, int, bool]) -> list[_Row]:
    cfg, index, stride, force_exact = job
    x0 = _kernel_start(cfg, force_exact)
    rows: list[_Row] = []
    for x in range(cfg.min_x + index, x0, stride):
        rows.extend(_scan_x_exact(x, cfg))
    if x0 <= cfg.max_x:
        rows.extend(_scan_kernel(*cfg.window, x0, cfg.max_x, index, stride))
    return rows


def _pool_size(cfg: SearchConfig) -> int:
    """Stripes a scan is split into: at most one per x in the range."""
    return min(cfg.workers, cfg.max_x - cfg.min_x + 1)


def scan(cfg: SearchConfig, force_exact: bool = False) -> list[SearchHit]:
    """All qualifying hits, each exactly once, sorted by (y, x, z).

    force_exact switches off the vectorized kernel; results are identical
    either way (asserted by the test suite on overlap ranges).
    """
    stripes = _pool_size(cfg)
    jobs = [(cfg, i, stripes, force_exact) for i in range(stripes)]
    processes = min(stripes, os.cpu_count() or 1)
    if processes == 1:
        chunks = [_scan_stripe(job) for job in jobs]
    else:
        with Pool(processes) as pool:
            chunks = pool.map(_scan_stripe, jobs)
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=itemgetter(1, 0, 2))
    return list(map(SearchHit._make, rows))


def verify_hit(hit: SearchHit) -> bool:
    """Whether hit.delta is sequences.residual(x, y, z), recomputed exactly."""
    return residual(hit.x, hit.y, hit.z) == hit.delta
