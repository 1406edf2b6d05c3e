"""Self-test of the benchmark.

Usage, from the repository root:  python3 perfbench/selftest.py

1. Smoke pass: every workload runs untraced and traced at small sizes,
   against references made on the spot (tests/oracle.py for the two
   small scans, scan(force_exact=True) for the big-int one).  No op may
   fail and every layer a workload exercises must report work.
2. Gate check: one row of a search op's output is corrupted between the
   op process and the gate; the run must count exactly that op as failed
   and report correct = false.

Exits 0 when both hold.  Takes about 15 seconds on two cores.
"""

from __future__ import annotations

import sys

import make_refs  # puts src/ and tests/ on sys.path
import run
import workloads

SMOKE_SCANS = {
    "scan-int64": (("--exact-residual", "8"), [(1, 40)]),
    "scan-bigint": (("--exact-residual", "8"), [(38960, 38975)]),
    "scan-dense": (("--threshold", "50"), [(1, 40)]),
}
SMOKE_FAMILY = {"verify": 20, "suites": 5, "gen": 30}
SMOKE_METHODS = {"scan-int64": "oracle", "scan-bigint": "exact", "scan-dense": "oracle"}

# per-layer metrics that must be non-zero where the layer does work
BUSY_LAYERS = {
    "scan-int64": ("cli.self_s", "search.scan_s", "search.pairs", "search.pool_start_s"),
    "scan-bigint": ("cli.self_s", "search.scan_s", "search.pairs", "search.ns_per_pair"),
    "scan-dense": ("cli.self_s", "search.scan_s", "search.hits", "search.scaling_eff_w2"),
    "family": (
        "cli.self_s",
        "sequences.gen_recurrence_s",
        "sequences.closed_form.calls",
        "identities.verify_five_s",
        "exactmath.mul.calls",
        "exactmath.ns_per_op",
    ),
}


def smoke(refs: dict) -> list[str]:
    errors = []
    for name in workloads.NAMES:
        w = workloads.build(name, 0, refs, SMOKE_SCANS, SMOKE_FAMILY)
        plain = run.run_one(w, seed=0, seconds=0, trace=False)
        traced = run.run_one(w, seed=0, seconds=0, trace=True)
        for mode, result in (("untraced", plain), ("traced", traced)):
            if result["failed"] or not result["correct"]:
                errors.append(f"{name} {mode}: {result['failed']} failed ops")
        zero = [k for k, v in plain["metrics"].items() if not v["value"] > 0]
        zero += [k for k in BUSY_LAYERS[name] if not traced["metrics"][k]["value"] > 0]
        if zero:
            errors.append(f"{name}: metrics without a value: {zero}")
    return errors


def corrupted_row_is_caught(refs: dict) -> list[str]:
    real_execute = run.execute
    corrupted = []

    def corrupting(spec: dict, timeout: float):
        out, record, err = real_execute(spec, timeout)
        if not corrupted and spec.get("argv", [""])[0] == "search" and out:
            x, y, z, rest = out.split(b"\t", 3)
            out = b"\t".join([x, y, str(int(z) + 1).encode(), rest])
            corrupted.append(spec["op_id"])
        return out, record, err

    run.execute = corrupting
    try:
        w = workloads.build("scan-int64", 0, refs, SMOKE_SCANS, SMOKE_FAMILY)
        result = run.run_one(w, seed=0, seconds=0, trace=False)
    finally:
        run.execute = real_execute
    if corrupted and result["failed"] == 1 and not result["correct"]:
        return []
    return [f"corrupted row not caught: corrupted {corrupted}, result {result}"]


def main() -> int:
    sys.set_int_max_str_digits(0)
    refs = make_refs.make(SMOKE_SCANS, SMOKE_FAMILY, SMOKE_METHODS)
    errors = smoke(refs) + corrupted_row_is_caught(refs)
    for e in errors:
        print(f"SELFTEST FAIL: {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
