"""Run one benchmark op in a fresh process and report how it went.

Usage: python3 perfbench/opproc.py '<op spec as JSON>'

The op writes its data to stdout exactly as the CLI does.  After it
finishes, one JSON line goes to stderr: exit code, seconds spent inside
the op, seconds of the calibration loop (mean of one run just before and
one just after the op), peak resident memory of this process and its
children, and, when tracing, the per-span summary.  Importing nearmiss4
and building the op's inputs happen before the clock starts; run.py
times the import on its own as setup_s.

Spec keys: "op" is "cli" (with "argv") or "suites" (with "suites", a
list of [constant, numerator, denominator] perturbations, null for the
canonical constants); "trace" is a bool; "op_id" and "span_file" name
the trace output.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from collections.abc import Callable
from fractions import Fraction


_BIG = 3**6000 + 12345  # about 2900 digits


def calibrate() -> float:
    """Seconds this process takes for fixed pure-Python work (~30 ms):
    a small-int loop, which loads the interpreter, then big-int products,
    which load the multiplier.  Together they track the host's slow
    stretches better than either alone."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    x = _BIG
    for _ in range(200):
        x = (x * _BIG) >> 9500
    return time.perf_counter() - start


def _suites_op(perturbations: list) -> Callable[[], int]:
    from nearmiss4 import identities, sequences

    canonical = sequences.canonical_constants()
    suites = []
    for p in perturbations:
        if p is None:
            suites.append(canonical)
        else:
            name, num, den = p
            shifted = getattr(canonical, name) + Fraction(num, den)
            suites.append(dataclasses.replace(canonical, **{name: shifted}))

    def run() -> int:
        # one verdict line per suite: five equalities, root identities, tables
        for k in suites:
            five = identities.verify_five_identities(k)
            roots = identities.verify_root_identities(k)
            tables = identities.tables_equal(identities.expand_lhs(k), identities.expand_rhs(k))
            flags = ["".join("1" if c.equal else "0" for c in checks) for checks in (five, roots)]
            print(f"{flags[0]} {flags[1]} {int(tables)}")
        return 0

    return run


def main() -> None:
    spec = json.loads(sys.argv[1])
    from nearmiss4 import cli

    if spec["op"] == "cli":
        run = lambda: cli.main(spec["argv"])  # noqa: E731 - looked up after tracing wraps it
    else:
        run = _suites_op(spec["suites"])

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["op_id"])
        tracer.install()

    calib_before = calibrate()
    start = time.perf_counter()
    rc = run()
    sys.stdout.flush()
    op_s = time.perf_counter() - start
    calib_s = (calib_before + calibrate()) / 2

    rss_kb = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    record = {"rc": rc, "op_s": op_s, "calib_s": calib_s, "rss_kb": rss_kb, "spans": None}
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.write(spec["span_file"])
    sys.stderr.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
