"""Command-line front end: gen, verify, closed-form, identities, search.

Data rows go to stdout, diagnostics to stderr.  All numbers print as
full decimal strings.  Exit codes: 0 success, 1 verification failure,
2 usage error (argparse's convention).

TSV columns: gen -> n, x, y, z; search -> x, y, z, delta.  JSONL mirrors
the TSV with the same field names; x, y, z, delta are JSON strings so no
consumer is tempted to round them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Iterable, Sequence

from . import identities, search, sequences

__all__ = ["main", "app", "build_parser"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearmiss4",
        description="Generate, verify and search near-solutions of x^4 + y^4 = z^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help=f"emit triplets of the residual-{sequences.R} family")
    gen.add_argument("--count", type=_positive_int, required=True)
    gen.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")

    verify = sub.add_parser("verify", help="check residual and closed forms per index")
    verify.add_argument("--count", type=_positive_int, required=True)

    closed = sub.add_parser("closed-form", help="show the exact Q(sqrt(577)) evaluation")
    closed.add_argument("--n", type=_nonnegative_int, required=True)

    sub.add_parser("identities", help="verify the coefficient and root identities")

    scan = sub.add_parser(
        "search",
        help="scan min_x <= x <= y <= max_x for x^4 + y^4 - z^2 in a residual window",
        description="Scan min_x <= x <= y <= max_x for hits: |x^4 + y^4 - z^2| <= T "
        "with --threshold T (default 0), or x^4 + y^4 - z^2 = R with --exact-residual R.",
    )
    scan.add_argument("--min-x", type=_positive_int, default=1)
    scan.add_argument("--max-x", type=_positive_int, required=True)
    residual = scan.add_mutually_exclusive_group()
    residual.add_argument(
        "--threshold", type=_nonnegative_int, default=0, metavar="T", help="window -T..T"
    )
    residual.add_argument(
        "--exact-residual", type=int, default=None, metavar="R", help="window R..R"
    )
    scan.add_argument("--workers", type=_positive_int, default=1)
    scan.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")

    return parser


def _emit_rows(fmt: str, names: tuple[str, ...], rows: Iterable[tuple[int, ...]]) -> None:
    if fmt == "tsv":
        for row in rows:
            print("\t".join(map(str, row)))
    else:
        for row in rows:
            doc = dict(zip(names, map(str, row)))
            print(json.dumps(doc, separators=(",", ":")))


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit_rows(args.format, sequences.Triplet._fields, sequences.gen_recurrence(args.count))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    constants = sequences.canonical_constants()
    failures = 0
    for t in sequences.gen_recurrence(args.count):
        problems = []
        r = sequences.residual(t.x, t.y, t.z)
        if r != sequences.R:
            problems.append(f"residual={r}")
        try:
            cx, cy = sequences.closed_form_xy(t.n, constants)
            cz = sequences.closed_form_z(t.n, constants)
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
    x, y = sequences.closed_form_xy(n, k)  # rejects n before any power is raised
    z = sequences.closed_form_z(n, k)
    l1n, l2n = k.lambda1**n, k.lambda2**n
    m1n, m2n = k.mu1**n, k.mu2**n
    sign = 1 if n % 2 == 0 else -1
    # lift CPython's int -> str digit limit for these prints only: z_n
    # passes its default of 4300 digits at n = 1278; 0 means no limit
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        print(f"n = {n}")
        print(f"lambda1^n   = {l1n}")
        print(f"a*lambda1^n = {k.a * l1n}")
        print(f"b*lambda2^n = {k.b * l2n}")
        print(f"x_n         = {x}")
        print(f"c*lambda1^n = {k.c * l1n}")
        print(f"d*lambda2^n = {k.d * l2n}")
        print(f"y_n         = {y}")
        print(f"mu1^n       = {m1n}")
        print(f"e*mu1^n     = {k.e * m1n}")
        print(f"f*mu2^n     = {k.f * m2n}")
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
    _emit_rows(args.format, search.SearchHit._fields, hits)
    print(
        f"scanned x in {cfg.min_x}..{cfg.max_x} with {cfg.workers} worker(s): "
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
    raise SystemExit(main())


if __name__ == "__main__":
    app()
