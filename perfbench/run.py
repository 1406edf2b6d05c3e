"""Benchmark of nearmiss4, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of scan-int64, scan-bigint, scan-dense, family, or "all" to
run them one after another.  Each op is a CLI subcommand run through
nearmiss4.cli.main (or a library call where the CLI has none) in a fresh
process started by perfbench/opproc.py, one op at a time; search ops at
--workers 2 start their own pool.  A pass runs the workload's two rate
ops; passes repeat until S seconds have gone.  Every op's output is
checked against refs.json.

Times are normalized to a reference host speed.  On a shared host the
same op can take twice as long from one minute to the next, and a whole
run can fall in a slow stretch.  Every op process and every set-up
sample therefore also times a fixed pure-Python loop (opproc.calibrate)
next to the measured work, and each time is scaled by
CALIB_REF_S / calibration seconds: what it would have been on a host
that runs the loop in CALIB_REF_S.  Metrics are medians of these
normalized times; the report also prints the raw ones.

--trace 0 reports the end-to-end metrics:
  setup_s      interpreter start to `import nearmiss4` done, median of
               one sample per pass (at least 5)
  op1_per_s    work per second of the workload's first rate op
  op2_per_s    work per second of its second rate op
  peak_rss_MB  peak resident memory of the rate op processes (children
               included), the larger of the two ops' medians
--trace 1 runs each rate op with and without spans (tracer.py) and
reports the per-layer metrics of one pass, from the traced run of each
op with the median normalized time, plus the tracing overhead.

The last line of stdout is the JSON result; a fuller record, with
machine facts and every sample, goes to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from opproc import calibrate
from tracer import QUADELEM_OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFS = HERE / "refs.json"

MIN_SETUP_SAMPLES = 5
# opproc.calibrate() time on the reference host: about its fastest runs on
# the baseline host (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11.7).
CALIB_REF_S = 0.025
OPS_DEADLINE_S = 150  # no op may run past this point of a run

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@dataclass
class Sample:
    op: str
    traced: bool
    rc: int | None  # None: the op process ended without a result
    op_s: float
    calib_s: float
    rss_kb: int
    rows: int
    bytes: int
    problem: str | None  # why the output is wrong, if it is
    spans: dict | None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.problem is None

    @property
    def norm_s(self) -> float:
        return self.op_s * CALIB_REF_S / self.calib_s


def execute(spec: dict, timeout: float) -> tuple[bytes, dict | None, str]:
    """Run one op process; return its stdout, result record and stderr."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "opproc.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
        start_new_session=True,  # its pool workers share its process group
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    text = err.decode(errors="replace")
    last = text.rstrip("\n").rpartition("\n")[2]
    record = json.loads(last) if last.startswith("{") else None
    return out, record, text


def time_import() -> tuple[float, float]:
    """Wall time of `import nearmiss4` in a fresh interpreter, and the
    calibration loop time around it."""
    calib_before = calibrate()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nearmiss4"], env=ENV, check=True)
    import_s = time.perf_counter() - start
    return import_s, (calib_before + calibrate()) / 2


class Runner:
    """Runs a workload's ops and keeps every sample."""

    def __init__(self, workload, trace_dir: Path | None) -> None:
        self.workload = workload
        self.trace_dir = trace_dir
        self.samples: list[Sample] = []
        self.setup: list[tuple[float, float]] = []  # (import seconds, calibration seconds)
        self.start = time.monotonic()

    def run_op(self, op, traced: bool) -> None:
        op_id = len(self.samples)
        spec = dict(op.spec, trace=traced, op_id=op_id)
        if traced:
            spec["span_file"] = str(self.trace_dir / f"op{op_id}-{op.name}.tsv")
        timeout = max(1.0, OPS_DEADLINE_S - (time.monotonic() - self.start))
        try:
            out, record, err = execute(spec, timeout)
        except subprocess.TimeoutExpired:
            out, record, err = b"", None, "timed out"
        rc = record["rc"] if record else None
        problem = op.check(out, rc) if rc is not None else None
        sample = Sample(
            op.name, traced, rc,
            record["op_s"] if record else 0.0,
            record["calib_s"] if record else 0.0,
            record["rss_kb"] if record else 0,
            out.count(b"\n"), len(out), problem,
            record["spans"] if record else None,
        )
        if not sample.ok:
            lines = err.strip().splitlines() or [""]
            reason = problem or f"exit {rc}: {lines[0] if rc is not None else lines[-1]}"[:300]
            print(f"failed op {op_id} {op.name} after {sample.rows} rows, {sample.bytes} bytes: {reason}")
        self.samples.append(sample)

    def run(self, seconds: float, trace: bool) -> None:
        w = self.workload
        if not trace:
            time_import()  # warm-up: writes the bytecode caches
        for op in w.once:
            self.run_op(op, trace)
        passes = 0
        while passes == 0 or time.monotonic() - self.start < seconds:
            if time.monotonic() - self.start > OPS_DEADLINE_S:
                break
            if not trace:
                # one set-up sample per pass spreads them over the whole run
                self.setup.append(time_import())
            for op in w.rate_ops:
                # traced and untraced runs of one op alternate in order
                for traced in ((passes % 2 == 1, passes % 2 == 0) if trace else (False,)):
                    self.run_op(op, traced)
            if trace:
                for op in w.probes:
                    self.run_op(op, True)
            passes += 1
        while not trace and len(self.setup) < MIN_SETUP_SAMPLES:
            self.setup.append(time_import())

    def good(self, op, traced: bool) -> list[Sample]:
        return [s for s in self.samples if s.op == op.name and s.traced == traced and s.ok]

    def typical(self, op, traced: bool) -> Sample | None:
        """The good sample with the (lower) median normalized time."""
        good = sorted(self.good(op, traced), key=lambda s: s.norm_s)
        return good[(len(good) - 1) // 2] if good else None


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner) -> dict:
    w = runner.workload
    setup = statistics.median(t * CALIB_REF_S / calib for t, calib in runner.setup)
    metrics = {"setup_s": (setup, "s")}
    rss = []
    for key, op in (("op1_per_s", w.op1), ("op2_per_s", w.op2)):
        norm_s = median_or_zero(s.norm_s for s in runner.good(op, traced=False))
        metrics[key] = (op.work / norm_s if norm_s else 0.0, "1/s")
        rss.append(median_or_zero(s.rss_kb for s in runner.good(op, traced=False)) / 1024)
    metrics["peak_rss_MB"] = (max(rss), "MB")
    return metrics


def _span(sample: Sample, name: str, field: int) -> float:
    return sample.spans.get(name, (0, 0.0, 0.0))[field]


def _layer_self(sample: Sample, layer: str) -> float:
    return sum(v[2] for k, v in sample.spans.items() if k.startswith(layer + "."))


EXACTMATH_OPS = tuple(dict.fromkeys(QUADELEM_OPS.values()))  # mul, add, sub, pow, inverse


def per_layer(runner: Runner) -> dict:
    """Per-layer metrics of one pass, taken from each op's typical traced
    sample and summed over the rate ops and the once-per-run ops.  Times
    are raw seconds of that sample."""
    w = runner.workload
    ops = (*w.rate_ops, *w.once)
    best = {op.name: runner.typical(op, traced=True) for op in (*ops, *w.probes)}

    def per_pass(value, ops=ops) -> float:
        return sum(value(best[op.name]) for op in ops if best[op.name])

    def total(*names):
        return per_pass(lambda s: sum(_span(s, n, 1) for n in names))

    cli_ops = [op for op in ops if op.spec["op"] == "cli"]
    m = {
        "cli.self_s": (per_pass(lambda s: _layer_self(s, "cli")), "s"),
        "cli.rows": (per_pass(lambda s: s.rows, cli_ops), "count"),
        "cli.out_bytes": (per_pass(lambda s: s.bytes, cli_ops), "B"),
    }

    # search: the --workers 1 op is op1 on every scan workload
    scan_s = per_pass(lambda s: _span(s, "search.scan", 1), [w.op1])
    scan_s_w2 = per_pass(lambda s: _span(s, "search.scan", 1), [w.op2])
    pairs = w.op1.work if scan_s else 0
    m.update({
        "search.scan_s": (scan_s, "s"),
        "search.pairs": (pairs, "count"),
        "search.hits": (per_pass(lambda s: s.rows, [w.op1]) if scan_s else 0, "count"),
        "search.ns_per_pair": (scan_s / pairs * 1e9 if pairs else 0.0, "ns"),
        "search.pool_start_s": (per_pass(lambda s: _span(s, "search.scan", 1), w.probes), "s"),
        "search.scaling_eff_w2": (scan_s / (2 * scan_s_w2) if scan_s_w2 else 0.0, "ratio"),
    })

    m.update({
        "sequences.gen_recurrence_s": (total("sequences.gen_recurrence"), "s"),
        "sequences.closed_form.calls": (
            per_pass(lambda s: sum(_span(s, f"sequences.closed_form_{v}", 0) for v in ("xy", "z"))),
            "count",
        ),
        "sequences.closed_form.self_s": (
            per_pass(lambda s: sum(_span(s, f"sequences.closed_form_{v}", 2) for v in ("xy", "z"))),
            "s",
        ),
        "sequences.residual_s": (total("sequences.residual"), "s"),
        "identities.expand_s": (total("identities.expand_lhs", "identities.expand_rhs"), "s"),
        "identities.verify_five_s": (total("identities.verify_five_identities"), "s"),
        "identities.verify_roots_s": (total("identities.verify_root_identities"), "s"),
        "identities.tables_equal_s": (total("identities.tables_equal"), "s"),
    })

    calls = self_s = 0.0
    for op in EXACTMATH_OPS:
        n = per_pass(lambda s: _span(s, f"exactmath.{op}", 0))
        t = per_pass(lambda s: _span(s, f"exactmath.{op}", 2))
        m[f"exactmath.{op}.calls"] = (n, "count")
        m[f"exactmath.{op}.self_s"] = (t, "s")
        calls, self_s = calls + n, self_s + t
    m["exactmath.ns_per_op"] = (self_s / calls * 1e9 if calls else 0.0, "ns")

    traced = per_pass(lambda s: s.norm_s, w.rate_ops)
    plain = sum(s.norm_s for s in (runner.typical(op, False) for op in w.rate_ops) if s)
    m["tracing_overhead_pct"] = (100 * (traced - plain) / plain if plain else 0.0, "%")
    return m


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "nearmiss4").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_nearmiss4_lines": lines,
    }


def report(workload, runner: Runner, metrics: dict, facts: dict, seed: int, trace: bool) -> dict:
    print(f"== {workload.name} seed {seed} trace {int(trace)}: inputs {json.dumps(workload.inputs)[:200]}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for op in (*workload.rate_ops, *workload.once, *(workload.probes if trace else ())):
        for traced in ((False, True) if trace else (False,)):
            mine = [s for s in runner.samples if s.op == op.name and s.traced == traced]
            if not mine:
                continue
            good = [s for s in mine if s.ok]
            raw_s = median_or_zero(s.op_s for s in good)
            norm_s = median_or_zero(s.norm_s for s in good)
            rate = f"{op.work / norm_s:.6g} {op.unit} (raw {op.work / raw_s:.6g})" if good else "no sample"
            print(
                f"op {op.name}{' traced' if traced else ''}: {len(mine)} run, "
                f"{len(mine) - len(good)} failed; {json.dumps(op.facts)}; "
                f"median {norm_s:.4f} s normalized, {raw_s:.4f} s raw; {op.metric} = {rate}"
            )
    names = {"op1_per_s": workload.op1.metric, "op2_per_s": workload.op2.metric}
    for name, (value, unit) in metrics.items():
        alias = f" ({names[name]})" if name in names else ""
        print(f"{name}{alias} = {value:.6g} {unit}")
    # attempted counts the workload's distinct ops, not their executions:
    # how many times an op runs depends on the host's speed, so a count
    # of executions would differ between runs of the same code
    attempted = {s.op for s in runner.samples}
    failed = {s.op for s in runner.samples if not s.ok}
    print(f"failed_ops = {len(failed)} of {len(attempted)} ops ({', '.join(sorted(failed)) or 'none'}); "
          f"{sum(not s.ok for s in runner.samples)} of {len(runner.samples)} executions failed")
    return {
        "correct": not any(s.problem for s in runner.samples),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report and return the result object."""
    name = workload.name
    trace_dir = None
    if trace:
        trace_dir = OUT / "trace" / name
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("*.tsv"):
            old.unlink()
    runner = Runner(workload, trace_dir)
    runner.run(seconds, trace)
    metrics = per_layer(runner) if trace else end_to_end(runner)
    facts = machine_facts()
    result = report(workload, runner, metrics, facts, seed, trace)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts, "inputs": workload.inputs, "calib_ref_s": CALIB_REF_S,
        "setup": runner.setup,
        "ops": {op.name: op.facts for op in (*workload.rate_ops, *workload.once, *workload.probes)},
        "samples": [asdict(s) for s in runner.samples], "result": result,
    }
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nearmiss4" / "__init__.py").is_file() or not REFS.is_file():
        print(f"error: run from a nearmiss4 checkout; {SRC / 'nearmiss4'} or {REFS} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        parser.error(f"unknown workload {unknown[0]}; choose from {', '.join(workloads.NAMES)} or all")
    # the gen gate formats family members longer than CPython's default
    # 4300-digit limit on int -> str conversion
    sys.set_int_max_str_digits(0)
    refs = json.loads(REFS.read_text())
    for name in names:
        workload = workloads.build(name, args.seed, refs)
        result = run_one(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
