"""The benchmark's workloads and the output gate of every op.

A workload has two rate ops (op1, op2) that run once per pass, ops that
run once per benchmark run, and probes that run only in the traced run.
Inputs come from the seed: a scan workload uses variant seed % VARIANTS
of its x-range, the family workload draws its perturbed identity suites.

Every op's stdout is checked against a reference: refs.json, made once
by make_refs.py, or for the identity suites the verdicts their
perturbations imply.  A check returns None when the output is right and
a reason when it is wrong; the runner counts a non-zero exit code as a
failed op.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

VARIANTS = 8

# name -> (fixed search arguments, (min_x, max_x) of each variant).
# Ops are kept near half a second so that many fit in one run.
SCANS = {
    # numpy int64 kernel: max_x below FAST_PATH_MAX_X (38967); holds
    # family members n=0 and n=1
    "scan-int64": (("--exact-residual", "8"), [(1, 7000 - 50 * j) for j in range(VARIANTS)]),
    # pure-Python big-int path: max_x above FAST_PATH_MAX_X
    "scan-bigint": (
        ("--exact-residual", "8"),
        [(51948 - 20 * j, 52967 - 20 * j) for j in range(VARIANTS)],
    ),
    # output-bound: nearly one row per pair, most from the exact window
    # loop.  Rows per pair grow as max_x shrinks (1.14 at max_x 365, 0.97
    # at 400), so the variants differ by one step only, to keep pairs/s
    # from depending on the seed.
    "scan-dense": (("--threshold", "20000"), [(1, 400 - j) for j in range(VARIANTS)]),
}
FAMILY = {"verify": 500, "suites": 100, "gen": 5000}
POOL_RANGE = (1, 2)  # trivial scan that times pool start-up

# Seeds of the family's recurrences (the n = 0 and n = 1 rows).
FAMILY_SEEDS = ((22, 23, 717), (1058, 1103, 1653213))

Check = Callable[[bytes, int], "str | None"]


@dataclass(frozen=True)
class Op:
    name: str
    metric: str  # name of its rate in the report
    unit: str  # unit of that rate
    work: float  # units of work in one op: pairs, indices, suites or MB
    spec: dict  # handed to opproc.py
    check: Check
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    op1: Op
    op2: Op
    once: tuple[Op, ...] = ()
    probes: tuple[Op, ...] = ()
    inputs: dict = field(default_factory=dict)

    @property
    def rate_ops(self) -> tuple[Op, Op]:
        return (self.op1, self.op2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def family_rows() -> Iterator[tuple[int, int, int, int]]:
    """(n, x, y, z) of the residual-8 family, by its integer recurrences.

    Written here rather than taken from nearmiss4 so that the gen op is
    checked against an independent computation.
    """
    (x0, y0, z0), (x1, y1, z1) = FAMILY_SEEDS
    yield 0, x0, y0, z0
    n = 1
    while True:
        yield n, x1, y1, z1
        n += 1
        x0, x1 = x1, 48 * x1 + x0
        y0, y1 = y1, 48 * y1 + y0
        z0, z1 = z1, 2306 * z1 - z0 + (192 if n % 2 == 0 else -192)


def scan_key(mode: tuple[str, ...], lo: int, hi: int) -> list[str]:
    return ["search", *mode, "--min-x", str(lo), "--max-x", str(hi)]


def _keeps_residual_8(mode: tuple[str, ...]) -> bool:
    if not mode:
        return False
    flag, value = mode
    return int(value) == 8 if flag == "--exact-residual" else int(value) >= 8


def search_check(mode: tuple[str, ...], lo: int, hi: int, ref: dict) -> Check:
    from nearmiss4 import sequences
    from nearmiss4.search import SearchHit, verify_hit

    members = set()
    if _keeps_residual_8(mode):
        for t in sequences.gen_recurrence(8):
            if lo <= t.x and t.y <= hi:
                members.add(f"{t.x}\t{t.y}\t{t.z}\t8")
    verified: set[str] = set()

    def check(out: bytes, rc: int) -> str | None:
        if rc != 0:
            return None
        digest = sha256(out)
        # every worker count is held to this one reference, so outputs at
        # 1 and 2 workers are byte-identical whenever both pass
        if digest != ref["sha256"]:
            return f"stdout differs from the reference ({ref['rows']} rows, {ref['bytes']} bytes)"
        if digest in verified:
            return None
        lines = out.decode().splitlines()
        for line in lines:
            if not verify_hit(SearchHit(*map(int, line.split("\t")))):
                return f"row fails verify_hit: {line}"
        missing = members.difference(lines)
        if missing:
            return f"family members missing from the output: {sorted(missing)}"
        verified.add(digest)
        return None

    return check


def digest_check(ref: dict) -> Check:
    def check(out: bytes, rc: int) -> str | None:
        if rc != 0 or sha256(out) == ref["sha256"]:
            return None
        return f"stdout differs from the reference ({ref['rows']} rows, {ref['bytes']} bytes)"

    return check


def gen_check(ref: dict) -> Check:
    def check(out: bytes, rc: int) -> str | None:
        if rc == 0:
            return None if sha256(out) == ref["sha256"] else "stdout differs from the reference"
        # a failing run must still have printed a correct prefix of whole rows
        text = out.decode()
        if text and not text.endswith("\n"):
            return "output ends inside a row"
        for line, (n, x, y, z) in zip(text.splitlines(), family_rows()):
            if x**4 + y**4 - 8 - z * z != 0:
                return f"row {n}: residual is not 0"
            if line != f"{n}\t{x}\t{y}\t{z}":
                return f"row {n} differs from the recurrence"
        return None

    return check


# Identities each closed-form constant enters: the five equalities, the
# three root identities, then the expansion-table equality.  Shifting one
# constant by a positive rational breaks exactly the identities it enters:
# keeping one would need a shift of 0, of minus twice an irrational
# constant, or of -2g < 0.
IDENTITY_USES = (
    set("eac"),
    set("fbd"),
    set("egabcd"),
    set("fgabcd"),
    set("efgabcd"),
    {"lambda1", "lambda2"},
    {"mu1", "lambda1"},
    {"mu1", "mu2"},
    set("abcdefg"),
)
CONSTANTS = ("lambda1", "lambda2", "mu1", "mu2", "a", "b", "c", "d", "e", "f", "g")


def draw_suites(seed: int, count: int) -> tuple[list, str]:
    """The canonical suite plus count - 1 seeded perturbations, and the
    verdict lines opproc.py must print for them."""
    rng = random.Random(seed)
    suites: list = [None]
    for _ in range(count - 1):
        suites.append([rng.choice(CONSTANTS), rng.randint(1, 9), rng.choice((1, 2, 577, 1154))])
    lines = []
    for suite in suites:
        flags = ["0" if suite and suite[0] in uses else "1" for uses in IDENTITY_USES]
        lines.append(f"{''.join(flags[:5])} {''.join(flags[5:8])} {flags[8]}\n")
    return suites, "".join(lines)


def scan_workload(name: str, mode, variants, seed: int, refs: dict) -> Workload:
    index = seed % len(variants)
    lo, hi = variants[index]
    args = scan_key(mode, lo, hi)
    ref = refs["scan"][" ".join(args)]
    check = search_check(mode, lo, hi, ref)
    n = hi - lo + 1
    pairs = n * (n + 1) // 2
    facts = {"pairs": pairs, "rows": ref["rows"], "bytes": ref["bytes"]}
    op1, op2 = (
        Op(f"search-w{w}", metric, "pairs/s", pairs,
           {"op": "cli", "argv": args + ["--workers", str(w)]}, check, facts)
        for w, metric in ((1, "pairs_per_s"), (2, "pairs_per_s_w2"))
    )
    probe_args = scan_key((), *POOL_RANGE)
    probe_ref = refs["scan"][" ".join(probe_args)]
    probe = Op(
        "pool-probe", "pool_start", "1/s", 1,
        {"op": "cli", "argv": probe_args + ["--workers", "2"]},
        search_check((), *POOL_RANGE, probe_ref),
        {"pairs": 3, "rows": probe_ref["rows"], "bytes": probe_ref["bytes"]},
    )
    inputs = {"variant": index, "args": args, "min_x": lo, "max_x": hi, "pairs": pairs}
    return Workload(name, op1, op2, probes=(probe,), inputs=inputs)


def family_workload(sizes: dict, seed: int, refs: dict) -> Workload:
    verify_ref = refs["verify"][str(sizes["verify"])]
    gen_ref = refs["gen"][str(sizes["gen"])]
    suites, expected = draw_suites(seed, sizes["suites"])
    expected_bytes = expected.encode()

    def suites_check(out: bytes, rc: int) -> str | None:
        if rc != 0 or out == expected_bytes:
            return None
        got, want = out.decode().splitlines(), expected.splitlines()
        pairs = enumerate(zip(got, want))
        bad = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        return f"identity verdicts differ from the expected ones (first at suite {bad})"

    verify = Op(
        "verify", "verified_per_s", "indices/s", sizes["verify"],
        {"op": "cli", "argv": ["verify", "--count", str(sizes["verify"])]},
        digest_check(verify_ref), {"rows": verify_ref["rows"], "bytes": verify_ref["bytes"]},
    )
    suites_op = Op(
        "identity-suites", "identity_suites_per_s", "suites/s", sizes["suites"],
        {"op": "suites", "suites": suites}, suites_check,
        {"rows": sizes["suites"], "bytes": len(expected_bytes)},
    )
    gen = Op(
        "gen", "gen_MB_per_s", "MB/s", gen_ref["bytes"] / 1e6,
        {"op": "cli", "argv": ["gen", "--count", str(sizes["gen"])]},
        gen_check(gen_ref), {"rows": gen_ref["rows"], "bytes": gen_ref["bytes"]},
    )
    inputs = {"suites": sizes["suites"], "perturbations": suites[1:]}
    return Workload("family", verify, suites_op, once=(gen,), inputs=inputs)


NAMES = (*SCANS, "family")


def build(name: str, seed: int, refs: dict, scans=SCANS, family=FAMILY) -> Workload:
    if name == "family":
        return family_workload(family, seed, refs)
    mode, variants = scans[name]
    return scan_workload(name, mode, variants, seed, refs)
