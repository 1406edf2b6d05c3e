"""Byte-identity corpus of the command line: for each argv, the sha256
and length of its stdout and its exit code, in tests/data/cli_corpus.json.

Usage, from the repository root:
  python3 tests/cli_corpus.py          record the argvs missing from the file
  python3 tests/cli_corpus.py --check  replay them all; exit 1 on any change

Each argv of ARGVS missing from the file runs once in a fresh process
(`python -m nearmiss4.cli`) and is added.  An argv already in the file is
neither run nor rewritten: the file keeps the bytes of the commit that
first recorded it.  To record one again on purpose, delete its entry by
hand and say why in CHANGES.md.  stderr is left out: it holds a timing.
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
    # thresholds; y0 = isqrt(t) + 1 splits the band from the kernel
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
    "--min-x 5 --max-x 900 --exact-residual 72",
    # exact residuals
    "--max-x 2000 --exact-residual -7",
    "--max-x 3000 --exact-residual 8",
    "--max-x 2000 --exact-residual 72",
    "--max-x 2000 --exact-residual 239",
    "--max-x 1000 --exact-residual -239",
    "--max-x 1500 --exact-residual 1296",
    "--max-x 1500 --exact-residual 1000003",
    "--max-x 1500 --exact-residual -1000003",
    # |R| = 2^25 and one past it: y0 = 5793, so x <= 400 is all band
    "--max-x 400 --exact-residual 33554432",
    "--max-x 400 --exact-residual -33554432",
    "--max-x 300 --exact-residual 33554433",
    "--max-x 300 --exact-residual -33554433",
    "--min-x 5700 --max-x 5900 --exact-residual 33554432",
    "--min-x 5700 --max-x 5900 --exact-residual -33554432",
    "--min-x 5750 --max-x 5850 --exact-residual 33554433",
    f"--min-x {BIG_X} --max-x {BIG_X} --exact-residual {BIG_R}",
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
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{added} added, {len(ARGVS) - added} kept, {len(corpus)} in {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
