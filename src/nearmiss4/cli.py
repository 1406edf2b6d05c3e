"""Command-line front end: gen, verify, closed-form, identities, search.

Data rows go to stdout, diagnostics to stderr.  All numbers print as
full decimal strings.  Exit codes: 0 success, 1 verification failure,
2 usage error (argparse's convention), 141 (128 + SIGPIPE) when the
reader closes stdout early, as `| head` does.  Ranges are the library's
to check: its ValueError prints as `error: <message>`, before any output.

TSV columns: gen -> n, x, y, z; search -> x, y, z, delta.  JSONL mirrors
the TSV with the same field names; every field, n included, is a JSON
string so no consumer is tempted to round them.  gen and search write
their rows in batches, one write per batch; a gen that stops at the
int -> str digit limit has already printed every earlier row whole.
search renders int64 columns a chunk of rows at a time, with numpy,
into the same bytes the per-row template gives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from . import identities, search, sequences

__all__ = ["main", "app", "build_parser"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process it killed

# Rows per stdout write: few writes, while one batch's text and bytes
# stay small.  The bound alone does not make a closed pipe exit 141;
# _write's loop does.  Through sys.stdout.write, all 3.37 MB of
# `gen --count 1000` in one write left `| head -c 100` exiting 0,
# silently truncated, and so did any one-batch output over the 64 KB
# pipe buffer, such as `gen --count 200`.
_BATCH_ROWS = 256

# Rows per stdout write of int64 columns, which _render_columns turns
# into text a chunk at a time.  2^11 to 2^14 rows ran alike on
# `search --threshold 20000 --max-x 400`, and a chunk's uint8 matrix
# stays at a few hundred KB.
_CHUNK_ROWS = 2**12


def _digit_groups() -> np.ndarray:
    """Four ASCII digits per uint32.  Entry k < 10^4 is k with its leading
    zeros ("0042"), entry 10^4 + k is k with them as 0 bytes, so that
    entry 10^4 is "0" alone."""
    k = np.arange(10**4)
    digits = k[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    shown = np.arange(4) >= 3 - np.searchsorted([10, 100, 1000], k, side="right")[:, None]
    groups = np.concatenate([digits, digits * shown]).astype(np.uint8)
    return groups.view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_groups()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearmiss4",
        description="Generate, verify and search near-solutions of x^4 + y^4 = z^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help=f"emit triplets of the residual-{sequences.R} family")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")

    verify = sub.add_parser("verify", help="check residual and closed forms per index")
    verify.add_argument("--count", type=int, required=True)

    closed = sub.add_parser(
        "closed-form", help=f"show the exact Q(sqrt({sequences.D})) evaluation"
    )
    closed.add_argument("--n", type=int, required=True)

    sub.add_parser("identities", help="verify the coefficient and root identities")

    scan = sub.add_parser(
        "search",
        help="scan min_x <= x <= y <= max_x for x^4 + y^4 - z^2 in a residual window",
        description="Scan min_x <= x <= y <= max_x for hits: |x^4 + y^4 - z^2| <= T "
        "with --threshold T (default 0), or x^4 + y^4 - z^2 = R with --exact-residual R.",
    )
    scan.add_argument("--min-x", type=int, default=1)
    scan.add_argument("--max-x", type=int, required=True)
    residual = scan.add_mutually_exclusive_group()
    residual.add_argument("--threshold", type=int, default=0, metavar="T", help="window -T..T")
    residual.add_argument(
        "--exact-residual", type=int, default=None, metavar="R", help="window R..R"
    )
    scan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run at most WORKERS processes, at most one per CPU, one per x in the "
        f"range and one per {search.MIN_STRIPE_PAIRS:,} pairs of estimated work, so a "
        "small scan runs in one process whatever WORKERS is; above "
        f"{search.MAX_WORKERS} is a usage error",
    )
    scan.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")

    return parser


def _write(text: str | bytes) -> None:
    """Write text, or ASCII bytes, to stdout whole, or raise BrokenPipeError.

    A pipe write that the reader's close cuts short returns a partial
    count and raises nothing, and sys.stdout.write drops the rest.  Only
    a further write raises, so the bytes go to the binary buffer, each
    write starting where the last one's count stopped.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text if isinstance(text, str) else text.decode("ascii"))
        return
    sys.stdout.flush()  # text written before stays before
    data = memoryview(text.encode(sys.stdout.encoding) if isinstance(text, str) else text)
    written = 0
    while written < len(data):
        written += out.write(data[written:])


def _template(fmt: str, names: tuple[str, ...]) -> str:
    """The %-template of one row: a %s per field, in the order of names."""
    if fmt == "tsv":
        return "\t".join(["%s"] * len(names)) + "\n"
    # the bytes of json.dumps(..., separators=(",", ":")) on the row's
    # strs: keys are field names and values decimal digits, so nothing
    # needs escaping
    return "{" + ",".join(f'"{name}":"%s"' for name in names) + "}\n"


def _emit_rows(fmt: str, names: tuple[str, ...], rows: Iterable[tuple[int, ...]]) -> None:
    template = _template(fmt, names)
    rows = iter(rows)
    while True:
        lines: list[str] = []
        try:
            for row in islice(rows, _BATCH_ROWS):
                lines.append(template % row)
        finally:
            # a row that cannot be formatted (int -> str digit limit)
            # still leaves every earlier row on stdout, whole
            _write("".join(lines))
        if len(lines) < _BATCH_ROWS:
            return


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal text of each int64 of v, one row per value: a column
    of signs ("-" or a 0 byte) and a uint8 matrix of digits, right-aligned
    to the widest, with 0 bytes on the left."""
    negative = v < 0
    magnitude = v.astype(np.uint64)
    # negated mod 2^64: |v|, also for -2^63, where np.abs wraps
    magnitude[negative] = 0 - magnitude[negative]
    groups = []  # four digits each, the lowest first
    while True:
        high, low = np.divmod(magnitude, 10**4)
        # below a non-zero high part a group shows all four digits; the
        # top group drops its leading zeros, and a group above it all
        group = _DIGIT_GROUPS[low + (high == 0) * np.uint64(10**4)]
        if groups:
            group *= magnitude != 0
        groups.append(group)
        if not high.any():
            break
        magnitude = high
    signs = (negative * np.uint8(ord("-")))[:, None]
    return signs, np.stack(groups[::-1], axis=1).view(np.uint8)


def _render_columns(template: str, columns: Sequence[np.ndarray]) -> bytes:
    """The bytes of template % row for every row of the int64 columns: the
    template's literal pieces and each column's signs and digits side by
    side in one uint8 matrix, read row by row without its 0 bytes."""
    pieces = [np.frombuffer(p.encode("ascii"), dtype=np.uint8) for p in template.split("%s")]
    rows = len(columns[0])
    parts = [np.broadcast_to(pieces[0], (rows, pieces[0].size))]
    for column, piece in zip(columns, pieces[1:]):
        parts += [*_digits(column), np.broadcast_to(piece, (rows, piece.size))]
    text = np.concatenate(parts, axis=1)
    return text[text != 0].tobytes()


def _emit_columns(fmt: str, names: tuple[str, ...], columns: Sequence[np.ndarray]) -> None:
    template = _template(fmt, names)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        _write(_render_columns(template, [c[start : start + _CHUNK_ROWS] for c in columns]))


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit_rows(args.format, sequences.Triplet._fields, sequences.gen_recurrence(args.count))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    constants = sequences.canonical_constants()
    members = sequences.gen_recurrence(args.count)
    failures = 0
    for t, powers in zip(members, sequences.carried_powers(args.count, constants)):
        problems = []
        r = sequences.residual(t.x, t.y, t.z)
        if r != sequences.R:
            problems.append(f"residual={r}")
        try:
            cx, cy = sequences.closed_form_xy(t.n, constants, powers)
            cz = sequences.closed_form_z(t.n, constants, powers)
            if (cx, cy, cz) != (t.x, t.y, t.z):
                problems.append(
                    f"closed-form=({cx},{cy},{cz}) != recurrence=({t.x},{t.y},{t.z})"
                )
        except sequences.CancellationError as exc:
            problems.append(f"closed-form error: {exc}")
        if problems:
            failures += 1
            print(f"n={t.n} FAIL " + "; ".join(problems))
        else:
            print(f"n={t.n} ok")
    if failures:
        print(f"{failures} of {args.count} indices failed", file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {args.count} indices verified", file=sys.stderr)
    return EXIT_OK


def _cmd_closed_form(args: argparse.Namespace) -> int:
    k = sequences.canonical_constants()
    n = args.n
    p = sequences.closed_form_powers(n, k)  # rejects n before any power is raised
    x, y = sequences.closed_form_xy(n, k, p)
    z = sequences.closed_form_z(n, k, p)
    sign = 1 if n % 2 == 0 else -1
    # lift CPython's int -> str digit limit for these prints only: z_n
    # passes its default of 4300 digits at n = 1278; 0 means no limit
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        print(f"n = {n}")
        print(f"lambda1^n   = {p.lambda1}")
        print(f"a*lambda1^n = {k.a * p.lambda1}")
        print(f"b*lambda2^n = {k.b * p.lambda2}")
        print(f"x_n         = {x}")
        print(f"c*lambda1^n = {k.c * p.lambda1}")
        print(f"d*lambda2^n = {k.d * p.lambda2}")
        print(f"y_n         = {y}")
        print(f"mu1^n       = {p.mu1}")
        print(f"e*mu1^n     = {k.e * p.mu1}")
        print(f"f*mu2^n     = {k.f * p.mu2}")
        print(f"(-1)^n * g  = {sign * k.g}")
        print(f"z_n         = {z}")
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)
    return EXIT_OK


def _cmd_identities(_args: argparse.Namespace) -> int:
    k = sequences.canonical_constants()
    lhs, rhs = identities.expand_lhs(k), identities.expand_rhs(k)
    five = identities.five_identities(lhs, rhs)
    roots = identities.verify_root_identities(k)
    tables_ok = identities.tables_equal(lhs, rhs)
    all_ok = all(c.equal for c in five + roots) and tables_ok
    doc = {
        "five_equalities": identities.report_as_json(five),
        "root_identities": identities.report_as_json(roots),
        "expansion_tables_equal": tables_ok,
        "all_ok": all_ok,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if all_ok else EXIT_FAILURE


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = search.SearchConfig(
        max_x=args.max_x,
        min_x=args.min_x,
        threshold=args.threshold,
        exact_residual=args.exact_residual,
        workers=args.workers,
    )
    start = time.perf_counter()
    hits = search.scan(cfg)
    elapsed = time.perf_counter() - start
    if all(c.dtype == np.int64 for c in hits.columns):
        _emit_columns(args.format, search.SearchHit._fields, hits.columns)
    else:  # a value past int64, from the window loop
        _emit_rows(args.format, search.SearchHit._fields, hits)
    print(
        f"scanned x in {cfg.min_x}..{cfg.max_x} with {search.processes(cfg)} worker(s): "
        f"{len(hits)} hit(s) in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK  # zero hits is a valid result


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "closed-form": _cmd_closed_form,
    "identities": _cmd_identities,
    "search": _cmd_search,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): point stdout at
        # devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    app()
