"""Byte-identity corpus of the command line: for each argv, the sha256
and length of its stdout and its exit code, in tests/data/cli_corpus.json.

Usage, from the repository root:
  python3 tests/cli_corpus.py          record the argvs missing from the file
  python3 tests/cli_corpus.py --check  replay them all; exit 1 on any change

Each argv of ARGVS missing from the file runs once in a fresh process
(`python -m nearmiss4.cli`) and is added, and the file lists its entries
in the order of ARGVS.  An argv already in the file is neither run nor
rewritten: the file keeps the bytes of the commit that first recorded
it.  To record one again on purpose, delete its entry by hand and say
why in CHANGES.md.  stderr is left out: it holds a timing.
--check runs every argv of ARGVS in a fresh process, writes nothing, and
lists each one whose stdout sha256, byte count or exit code differs from
its entry, or that has no entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"
SRC = Path(__file__).parents[1] / "src"

# one pair past KERNEL_MAX_X whose z and residual both pass 2^63
BIG_X = 3_650_000_000
BIG_R = 2 * BIG_X**4 - isqrt(2 * BIG_X**4) ** 2

WINDOWS = [
    # thresholds up to 2^25: the kernel takes every pair from min_x on
    "--max-x 60 --threshold 50",
    "--max-x 1500 --threshold 0",
    "--max-x 1500 --threshold 1",
    "--max-x 600 --threshold 255",
    "--max-x 1200 --threshold 300",
    "--max-x 400 --threshold 20000",
    "--max-x 420 --threshold 100000",
    # ranges that start in the band
    "--min-x 3 --max-x 40 --threshold 255",
    "--min-x 100 --max-x 450 --threshold 20000",
    "--min-x 200 --max-x 330 --threshold 100000",
    # exact residuals; y0 = isqrt(isqrt(R)) + 1 for 0 < R <= 2^25, and
    # min_x for R <= 0
    "--min-x 5 --max-x 900 --exact-residual 72",
    "--max-x 2000 --exact-residual -7",
    "--max-x 3000 --exact-residual 8",
    "--max-x 2000 --exact-residual 72",
    "--max-x 2000 --exact-residual 239",
    "--max-x 1000 --exact-residual -239",
    "--max-x 1500 --exact-residual 1296",
    "--max-x 1500 --exact-residual 1000003",
    "--max-x 1500 --exact-residual -1000003",
    # exact windows whose classes mod 432 each hold four kernel blocks or
    # more: R = 8 to 7000 (11 hits), and R = 72 = 2 (mod 5) and 7 (mod 13)
    # to 5000 (27 hits)
    "--max-x 7000 --exact-residual 8",
    "--max-x 5000 --exact-residual 72",
    # |R| = 2^25 and one past it: y0 = 77 for 2^25, and isqrt(|R|) + 1 =
    # 5793 past it, so x <= 300 is all band and 5750..5850 crosses y0
    "--max-x 400 --exact-residual 33554432",
    "--max-x 400 --exact-residual -33554432",
    "--max-x 300 --exact-residual 33554433",
    "--max-x 300 --exact-residual -33554433",
    "--min-x 5700 --max-x 5900 --exact-residual 33554432",
    "--min-x 5700 --max-x 5900 --exact-residual -33554432",
    "--min-x 5750 --max-x 5850 --exact-residual 33554433",
    f"--min-x {BIG_X} --max-x {BIG_X} --exact-residual {BIG_R}",
    # one kernel hit each at the extremes of the exact window's float
    # root error: s past 2^64, where the root of (55111, 55118) rounds
    # 2^-20 above its z, and max_x past 2^24, where the root of
    # (29398946, 29398948) rounds 1/4 below its z
    "--min-x 55105 --max-x 55125 --exact-residual -2900491504",
    "--min-x 29398940 --max-x 29398950 --exact-residual 213663253265408",
    # one planted hit each near 2^53: every x^4, y^4 - R and N = s - R of
    # the window is below 2^53 up to max_x 8192 for R = 29293165 > 0 and
    # up to 8191 for R = -31901455 <= 0, and each is recorded there and at
    # one x past it
    "--min-x 8190 --max-x 8192 --exact-residual 29293165",
    "--min-x 8190 --max-x 8193 --exact-residual 29293165",
    "--min-x 8187 --max-x 8191 --exact-residual -31901455",
    "--min-x 8187 --max-x 8192 --exact-residual -31901455",
    # a threshold past 2^25: the window loop takes y < 5793, where a small
    # pair hits up to about 5,800 times (x <= 4: 57,920 rows) and a pair
    # near x = 3000 two or three times; 5780..5810 crosses y0 = 5793 into
    # the kernel
    "--max-x 4 --threshold 33554433",
    "--min-x 3000 --max-x 3100 --threshold 33554433",
    "--min-x 5780 --max-x 5810 --threshold 33554433",
    # enough work for a pool at --workers 2
    "--max-x 3000 --threshold 20000",
]

ARGVS = [
    ["search", *window.split(), "--workers", str(workers), "--format", fmt]
    for window in WINDOWS
    for fmt in ("tsv", "jsonl")
    for workers in (1, 2, 8)
] + [
    # z_n passes CPython's default int -> str limit of 4300 digits at n = 1278
    *(
        ["gen", "--count", str(count), "--format", fmt]
        for count in (1, 4, 1278)
        for fmt in ("tsv", "jsonl")
    ),
    *(["verify", "--count", str(count)] for count in (1, 50, 500)),
    # n = 10000 is past sequences.MAX_INDEX - 1: a usage error, exit 2
    *(["closed-form", "--n", str(n)] for n in (0, 1, 1000, 1300, 10000)),
    ["identities"],
    # range errors: empty stdout and exit 2
    ["gen", "--count", "0"],
    ["verify", "--count", "0"],
    ["closed-form", "--n", "-1"],
    ["search", "--max-x", "0"],
    ["search", "--min-x", "0", "--max-x", "5"],
    ["search", "--max-x", "5", "--workers", "0"],
    ["search", "--max-x", "5", "--threshold", "-1"],
    # exact windows with pairs at and just past y^4 > R: (1, 6, 2) and
    # (1, 18, 322) for R = 1293, and 324 hits for R = 4096 = 8^4
    ["search", "--max-x", "40", "--exact-residual", "1293"],
    *(
        ["search", "--max-x", "300", "--exact-residual", "4096", "--format", fmt]
        for fmt in ("tsv", "jsonl")
    ),
    # R <= 0: no pair has s <= R; R = 0 has no hit (Fermat)
    ["search", "--max-x", "2000", "--exact-residual", "0"],
    ["search", "--max-x", "2000", "--exact-residual", "-4"],
    ["search", "--max-x", "3000", "--exact-residual", "-33554432"],
    # both window flags, --threshold at its value when not given: exit 2
    ["search", "--max-x", "5", "--threshold", "0", "--exact-residual", "8"],
    ["search", "--max-x", "5", "--exact-residual", "8", "--threshold", "0"],
    # x^4 mod 5 is 0 or 1, and squares mod 5 are 0, 1 and 4: every hit of
    # R = 4 (mod 5) has 5 | x, y, as (50, 95, 9364) for 16129 and
    # (35, 70, 5051) for -1976, and no hit of R = 3 (mod 5) has 5 | x or y
    ["search", "--max-x", "2000", "--exact-residual", "16129"],
    ["search", "--min-x", "15", "--max-x", "2000", "--exact-residual", "16129", "--format", "jsonl"],
    ["search", "--max-x", "2000", "--exact-residual", "-1976"],
    ["search", "--min-x", "20", "--max-x", "3000", "--exact-residual", "8"],
    ["search", "--min-x", "1000", "--max-x", "3000", "--exact-residual", "8", "--workers", "2"],
    # past MAX_WINDOW_ROWS: 210 pairs of about 10^6 hits each, refused with
    # empty stdout and exit 2
    *(
        ["search", "--max-x", "20", "--threshold", "1000000000000", "--workers", str(workers)]
        for workers in (1, 2)
    ),
]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def record(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nearmiss4.cli", *argv], capture_output=True, env=env, timeout=600
    )
    return {
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "bytes": len(proc.stdout),
        "exit": proc.returncode,
    }


def check(corpus: dict) -> int:
    changed = [key(argv) for argv in ARGVS if corpus.get(key(argv)) != record(argv)]
    for k in changed:
        print(f"changed: {k}" if k in corpus else f"no entry: {k}")
    print(f"{len(ARGVS) - len(changed)} of {len(ARGVS)} argvs match {CORPUS.name}")
    return 1 if changed else 0


def main(args: list[str]) -> int:
    corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    if args == ["--check"]:
        return check(corpus)
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    added = 0
    for argv in ARGVS:
        if key(argv) in corpus:
            continue
        corpus[key(argv)] = record(argv)
        added += 1
        print(f"added {key(argv)}: {corpus[key(argv)]}", flush=True)
    # entries in the order of ARGVS, then any that ARGVS no longer holds
    ordered = {key(argv): corpus.pop(key(argv)) for argv in ARGVS} | corpus
    CORPUS.write_text(json.dumps(ordered, indent=1) + "\n")
    print(f"{added} added, {len(ARGVS) - added} kept, {len(ordered)} in {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
