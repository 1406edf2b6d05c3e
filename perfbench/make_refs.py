"""Make perfbench/refs.json, the reference output of every benchmark op.

Usage, from the repository root:  python3 perfbench/make_refs.py

Run it once, and again only when a workload's inputs change.  Scan
references come from tests/oracle.py where the brute force finishes and
from scan(..., force_exact=True) elsewhere; each workload's variants are
cut from one scan over the union of their ranges, which is exact because
whether a pair (x, y) yields a row does not depend on the range.  The
verify reference is the output its contract prescribes ("n=<k> ok" for
every index) and the gen reference comes from the recurrence in
workloads.family_rows, checked row by row for residual 0.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402

REFS = HERE / "refs.json"


def _mode_fields(mode: tuple[str, ...]) -> dict:
    if not mode:
        return {"threshold": 0, "exact_residual": None}
    flag, value = mode
    if flag == "--exact-residual":
        return {"threshold": 0, "exact_residual": int(value)}
    return {"threshold": int(value), "exact_residual": None}


def scan_rows(mode: tuple[str, ...], lo: int, hi: int, method: str) -> list[tuple]:
    fields = _mode_fields(mode)
    if method == "oracle":
        from oracle import naive_scan

        return naive_scan(lo, hi, **fields)
    from nearmiss4.search import SearchConfig, scan

    hits = scan(SearchConfig(max_x=hi, min_x=lo, workers=2, **fields), force_exact=True)
    return [(h.x, h.y, h.z, h.delta) for h in hits]


def text_ref(text: str, made_by: str) -> dict:
    data = text.encode()
    return {
        "rows": text.count("\n"),
        "bytes": len(data),
        "sha256": workloads.sha256(data),
        "made_by": made_by,
    }


def scan_refs(mode: tuple[str, ...], variants: list, method: str) -> dict:
    lo = min(v[0] for v in variants)
    hi = max(v[1] for v in variants)
    rows = scan_rows(mode, lo, hi, method)
    made_by = (
        "tests/oracle.py naive_scan" if method == "oracle" else "scan(force_exact=True)"
    ) + f" over x in {lo}..{hi}"
    refs = {}
    for v_lo, v_hi in variants:
        kept = [r for r in rows if v_lo <= r[0] and r[1] <= v_hi]
        text = "".join(f"{x}\t{y}\t{z}\t{d}\n" for x, y, z, d in kept)
        refs[" ".join(workloads.scan_key(mode, v_lo, v_hi))] = text_ref(text, made_by)
    return refs


def verify_ref(count: int) -> dict:
    return text_ref("".join(f"n={k} ok\n" for k in range(count)), "verify output contract")


def gen_ref(count: int) -> dict:
    sys.set_int_max_str_digits(0)
    lines = []
    for (n, x, y, z), _ in zip(workloads.family_rows(), range(count)):
        if x**4 + y**4 - 8 - z * z != 0:
            raise SystemExit(f"recurrence row {n} has a non-zero residual")
        lines.append(f"{n}\t{x}\t{y}\t{z}\n")
    return text_ref("".join(lines), "workloads.family_rows, residual 0 on every row")


def make(scans: dict, family: dict, scan_method: dict) -> dict:
    """References for the given sizes; scan_method maps workload -> method."""
    refs = {"scan": {}, "verify": {}, "gen": {}}
    for name, (mode, variants) in scans.items():
        start = time.perf_counter()
        refs["scan"].update(scan_refs(mode, variants, scan_method[name]))
        print(f"{name}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    refs["scan"].update(scan_refs((), [workloads.POOL_RANGE], "oracle"))
    refs["verify"][str(family["verify"])] = verify_ref(family["verify"])
    refs["gen"][str(family["gen"])] = gen_ref(family["gen"])
    return refs


# The brute-force oracle tries every z up to sqrt(x^4 + y^4): from 10^5
# to 10^9 candidates per pair at these sizes, so it finishes on none.
FULL_METHODS = {name: "exact" for name in workloads.SCANS}

if __name__ == "__main__":
    refs = make(workloads.SCANS, workloads.FAMILY, FULL_METHODS)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS}", file=sys.stderr)
