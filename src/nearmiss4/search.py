"""Exhaustive scan for near-solutions of x^4 + y^4 = z^2.

A hit is a pair min_x <= x <= y <= max_x and a z >= 1 whose residual
s - z^2, s = x^4 + y^4, lies in the configured window [lo, hi]: (R, R)
for an exact residual R, (-t, t) for a threshold t.  So the hits of a
pair are exactly the z with s - hi <= z^2 <= s - lo.  With t = max(-lo,
hi), once 2*x^4 > t^2 consecutive squares straddling s are more than 2t
apart, so only the two candidates isqrt(s) and isqrt(s) + 1 can hit.

That regime is served by one vectorized kernel, one numpy row of y per
x.  It forms s in int64 and lets it wrap mod 2^64, estimates
r = isqrt(s) as sqrt(x^4 + y^4) in float64, and forms d = s - r*r, which
wraps too.  The wrapped d is nevertheless the exact residual: r is off
by at most one, so the true |s - r^2| is at most 4r + 3, far below 2^63,
and a value below 2^63 survives reduction mod 2^64 unchanged.  Moving r
by one where d < 0 or d > 2r then makes r = isqrt(s) exactly.  The float
estimate errs by at most about r * 2^-52, which stays below one up to
KERNEL_MAX_X.

The pure-Python window loop serves the rest: the small-s regime
2*x^4 <= t^2, max_x above KERNEL_MAX_X, and force_exact.  It is the
reference the kernel is tested against.

Work is partitioned into interleaved x-stripes across workers and the
merged result is sorted by (y, x, z), so output is independent of the
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from multiprocessing import Pool

import numpy as np

__all__ = ["SearchConfig", "SearchHit", "scan", "verify_hit"]

# Largest max_x the kernel serves.  The float64 tables hold x^4 and y^4
# to a relative error of 2^-53 each; their sum and the square root add
# one rounding each, so the estimate of r = sqrt(s) is off by at most
# about r * 2^-52.  With y <= 2^25, r <= sqrt(2) * 2^50 and that error
# stays below 0.36, so truncating the estimate lands on isqrt(s) - 1,
# isqrt(s) or isqrt(s) + 1, which the +/-1 correction repairs.  x^2 <=
# 2^50 is exact in both tables, so x^4 is rounded once.
KERNEL_MAX_X = 2**25

# Upper bound on worker processes; a pool never exceeds the x-range.
MAX_WORKERS = 1024


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


@dataclass(frozen=True)
class SearchHit:
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


def _pow4_tables(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """x^4 mod 2^64 as int64 and x^4 as float64, indexed by x - lo."""
    x2 = np.arange(lo, hi + 1, dtype=np.int64) ** 2
    f2 = x2.astype(np.float64)
    return x2 * x2, f2 * f2


def _isqrt_row(i: int, p4: np.ndarray, f4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = isqrt(s) and d = s - r*r for s = x^4 + y^4 over one kernel row.

    x is table index i and y runs over indices i.. of the tables.
    """
    s = p4[i] + p4[i:]  # wraps mod 2^64; numpy arrays wrap without warning
    r = np.sqrt(f4[i] + f4[i:]).astype(np.int64)
    d = s - r * r  # exact: |s - r^2| <= 4r + 3 < 2^63
    # r is too big where d < 0 and too small where s >= (r + 1)^2; the
    # estimate is rarely off, so only those entries are corrected
    off = np.flatnonzero((d < 0) | (d > 2 * r))
    r[off] += np.where(d[off] < 0, -1, 1)
    d[off] = s[off] - r[off] * r[off]
    return r, d


def _scan_x_kernel(
    x: int, x_lo: int, p4: np.ndarray, f4: np.ndarray, cfg: SearchConfig
) -> list[_Row]:
    # valid only when 2*x^4 > max(-lo, hi)^2 for the window (lo, hi):
    # then each pair admits at most the two candidates isqrt(s) and
    # isqrt(s) + 1, and lo and hi fit int64
    r, d = _isqrt_row(x - x_lo, p4, f4)
    lo, hi = cfg.window
    rows: list[_Row] = []
    for z_arr, d_arr in ((r, d), (r + 1, d - 2 * r - 1)):
        mask = d_arr == lo if lo == hi else np.abs(d_arr) <= hi
        for j in np.nonzero(mask)[0]:
            rows.append((x, x + int(j), int(z_arr[j]), int(d_arr[j])))
    return rows


def _scan_stripe(job: tuple[SearchConfig, int, int, bool]) -> list[_Row]:
    cfg, index, stride, force_exact = job
    lo, hi = cfg.window
    t = max(-lo, hi)
    use_kernel = not force_exact and cfg.max_x <= KERNEL_MAX_X
    if use_kernel:
        p4, f4 = _pow4_tables(cfg.min_x, cfg.max_x)
    rows: list[_Row] = []
    for x in range(cfg.min_x + index, cfg.max_x + 1, stride):
        if use_kernel and 2 * x**4 > t * t:
            rows.extend(_scan_x_kernel(x, cfg.min_x, p4, f4, cfg))
        else:
            rows.extend(_scan_x_exact(x, cfg))
    return rows


def _pool_size(cfg: SearchConfig) -> int:
    """Worker processes a scan starts: at most one per x in the range."""
    return min(cfg.workers, cfg.max_x - cfg.min_x + 1)


def scan(cfg: SearchConfig, force_exact: bool = False) -> list[SearchHit]:
    """All qualifying hits, each exactly once, sorted by (y, x, z).

    force_exact switches off the vectorized kernel; results are identical
    either way (asserted by the test suite on overlap ranges).
    """
    workers = _pool_size(cfg)
    jobs = [(cfg, i, workers, force_exact) for i in range(workers)]
    if workers == 1:
        chunks = [_scan_stripe(jobs[0])]
    else:
        with Pool(workers) as pool:
            chunks = pool.map(_scan_stripe, jobs)
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r[1], r[0], r[2]))
    return [SearchHit(*row) for row in rows]


def verify_hit(hit: SearchHit) -> bool:
    """Recompute the residual from scratch and compare."""
    return hit.x**4 + hit.y**4 - hit.z * hit.z == hit.delta
