"""Command-line surface tests, run in-process via cli.main."""

import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import sys
import time
from dataclasses import replace
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cli_corpus
from oracle import naive_scan
from nearmiss4 import cli, exactmath, identities, search, sequences

FIXTURE = Path(__file__).parent / "data" / "search_oracle_max60_t50.tsv"
BENCH_REFS = Path(__file__).parent.parent / "perfbench" / "refs.json"

PAPER_TSV = (
    "0\t22\t23\t717\n"
    "1\t1058\t1103\t1653213\n"
    "2\t50806\t52967\t3812308653\n"
    "3\t2439746\t2543519\t8791182100413\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def writes(monkeypatch):
    """Every text or bytes given to cli._write, in order; each still reaches stdout."""
    recorded = []
    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda text: recorded.append(text) or write(text))
    return recorded


def test_gen_reproduces_table(capsys):
    code, out, _ = run(capsys, "gen", "--count", "4")
    assert code == 0
    assert out == PAPER_TSV


def test_gen_single_row(capsys):
    code, out, _ = run(capsys, "gen", "--count", "1")
    assert code == 0
    assert out == "0\t22\t23\t717\n"


def test_gen_jsonl(capsys):
    code, out, _ = run(capsys, "gen", "--count", "2", "--format", "jsonl")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"n": "0", "x": "22", "y": "23", "z": "717"}
    assert json.loads(lines[1]) == {"n": "1", "x": "1058", "y": "1103", "z": "1653213"}


def test_gen_formats_carry_identical_numbers(capsys):
    _, tsv, _ = run(capsys, "gen", "--count", "5")
    _, jsonl, _ = run(capsys, "gen", "--count", "5", "--format", "jsonl")
    tsv_rows = [line.split("\t") for line in tsv.splitlines()]
    json_rows = [
        [doc["n"], doc["x"], doc["y"], doc["z"]]
        for doc in map(json.loads, jsonl.splitlines())
    ]
    assert tsv_rows == json_rows


def reference_output(fmt, rows):
    """What the CLI prints for these records, one line per row: TSV of
    their strs, or compact json.dumps of them."""
    if fmt == "tsv":
        return "".join("\t".join(map(str, row)) + "\n" for row in rows)
    return "".join(
        json.dumps(dict(zip(row._fields, map(str, row))), separators=(",", ":")) + "\n"
        for row in rows
    )


@pytest.mark.parametrize(
    "argv, rows",
    [
        (
            ["search", "--max-x", "40", "--threshold", "20"],
            lambda: search.scan(search.SearchConfig(max_x=40, threshold=20)),
        ),
        (["gen", "--count", "5"], lambda: sequences.gen_recurrence(5)),
    ],
    ids=["search", "gen"],
)
def test_jsonl_bytes_are_compact_json_dumps(capsys, argv, rows):
    # byte for byte, not just the parsed values: key order, separators and
    # the quoting of every value (the search rows include negative deltas)
    expected = reference_output("jsonl", rows())
    assert argv[0] == "gen" or '"delta":"-' in expected
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    assert code == 0
    assert out == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_gen_past_the_digit_limit_prints_every_earlier_row_whole(capsys, fmt):
    # with the limit at 1000 digits, z_297 (1002 digits) is the first field
    # that cannot be printed; rows 0..296 span two output batches
    members = list(sequences.gen_recurrence(300))
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        code, out, err = run(capsys, "gen", "--count", "300", "--format", fmt)
        sys.set_int_max_str_digits(0)
        assert [len(str(t.z)) for t in members[296:298]] == [999, 1002]
        expected = reference_output(fmt, members[:297])
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2
    assert err.startswith("error: ") and "limit" in err
    assert out == expected


def test_rows_reach_a_text_only_stdout(monkeypatch):
    # a stream without a binary buffer, as contextlib.redirect_stdout
    # callers pass, gets the same text
    import io

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["gen", "--count", "4"]) == 0
    assert out.getvalue() == PAPER_TSV


def test_search_rows_reach_a_text_only_stdout(monkeypatch):
    import io

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert cli.main(["search", "--max-x", "60", "--threshold", "50"]) == 0
    assert out.getvalue() == FIXTURE.read_text()


# 0, +-1, -2^63 (np.abs wraps it to itself, which reads as 2^63 in
# uint64), 2^63 - 1, and +-(10^k - 1) and +-10^k, where the digit count
# steps
EDGE_VALUES = [0, 1, -1, -(2**63), 2**63 - 1] + [
    v for k in range(1, 19) for v in (10**k - 1, 10**k, 1 - 10**k, -(10**k))
]


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_columns_render_as_the_row_template(fmt):
    v = np.array(EDGE_VALUES, dtype=np.int64)
    template = cli._template(fmt, search.SearchHit._fields)
    for columns in (
        [v, v[::-1].copy(), np.roll(v, 3), np.roll(v, 7)],
        [v[:1], v[:1], v[-1:], v[3:4]],
    ):
        rows = zip(*(c.tolist() for c in columns))
        expected = "".join(template % row for row in rows).encode()
        assert cli._render_columns(template, columns) == expected
    for value in EDGE_VALUES:  # each value alone sets the width of its column
        one = np.array([value], dtype=np.int64)
        expected = (template % (value, 0, value, value)).encode()
        assert cli._render_columns(template, [one, one * 0, one, one]) == expected


def test_search_prints_columns_a_chunk_at_a_time(capsys, monkeypatch, writes):
    # int64 columns go through the renderer, one write per chunk; a value
    # past int64 keeps the per-row template
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 100)
    code, out, _ = run(capsys, "search", "--max-x", "60", "--threshold", "50")
    assert code == 0 and out == FIXTURE.read_text()
    assert [len(w.splitlines()) for w in writes] == [100, 100, 55]
    assert all(type(w) is bytes for w in writes)
    writes.clear()
    x, r = cli_corpus.BIG_X, cli_corpus.BIG_R
    argv = ["search", "--min-x", str(x), "--max-x", str(x), "--exact-residual", str(r)]
    code, out, _ = run(capsys, *argv)
    z = math.isqrt(2 * x**4)
    assert code == 0 and out == f"{x}\t{x}\t{z}\t{r}\n" and z > 2**63 and r > 2**63
    assert [type(w) for w in writes] == [str]


@pytest.mark.parametrize(
    "argv, batches",
    [
        (["verify", "--count", "250"], [100, 100, 50]),
        (["gen", "--count", "250"], [100, 100, 50]),
        (["closed-form", "--n", "5"], [13]),
        (["identities"], None),  # the whole JSON document in one write
    ],
    ids=["verify", "gen", "closed-form", "identities"],
)
def test_each_command_writes_its_stdout_in_batches(capsys, monkeypatch, writes, argv, batches):
    # every stdout line goes through _write, _BATCH_ROWS lines to a write
    monkeypatch.setattr(cli, "_BATCH_ROWS", 100)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "".join(writes) == out
    assert [len(w.splitlines()) for w in writes] == (batches or [len(out.splitlines())])


def test_cli_matches_the_corpus_byte_for_byte(capsys):
    # stdout sha256 and length and exit code of every argv recorded by
    # tests/cli_corpus.py, replayed in-process
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    assert list(corpus) == [cli_corpus.key(argv) for argv in cli_corpus.ARGVS]
    changed = []
    for key, ref in corpus.items():
        code, out, _ = run(capsys, *key.split())
        data = out.encode()
        if (hashlib.sha256(data).hexdigest(), len(data), code) != (
            ref["sha256"],
            ref["bytes"],
            ref["exit"],
        ):
            changed.append(key)
    assert changed == []


def test_gen_zero_count_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", "--count", "0")
    assert (code, out) == (2, "")
    assert err == "error: count must be in 1..10000, got 0\n"


@pytest.mark.parametrize(
    "argv", [["search", "--max-x", "10", "--threshold", "-1"], ["closed-form", "--n", "-1"]]
)
def test_negative_values_are_usage_errors(capsys, argv):
    # the library's range check, in the one format of every range error
    message = {
        "search": "threshold must be >= 0, got -1",
        "closed-form": "index must be in 0..9999, got -1",
    }[argv[0]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", "--count", "2", "--frobnicate")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --frobnicate" in err


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--count", "8")
    assert code == 0
    assert out.splitlines() == [f"n={i} ok" for i in range(8)]
    assert "all 8 indices verified" in err


def test_verify_depth_50(capsys):
    code, out, _ = run(capsys, "verify", "--count", "50")
    assert code == 0
    assert out.splitlines()[-1] == "n=49 ok"


def test_verify_corrupted_seed_names_index(capsys, monkeypatch, writes):
    # the seed fails 248 of the 250 indices; the failures, counted as the
    # lines go out in batches, set the exit code and the summary
    corrupted = ((22, 23, 718), sequences.INITIAL_TRIPLETS[1])
    monkeypatch.setattr(sequences, "INITIAL_TRIPLETS", corrupted)
    monkeypatch.setattr(cli, "_BATCH_ROWS", 100)
    code, out, err = run(capsys, "verify", "--count", "250")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("n=0 FAIL")
    assert [len(w.splitlines()) for w in writes] == [100, 100, 50]
    assert sum(" FAIL " in line for line in lines) == 248
    assert "248 of 250 indices failed" in err


@pytest.mark.parametrize(
    "field, shift, problem",
    [
        # an integer shift of g moves z_n by +-1: a value mismatch
        ("g", 1, "closed-form=(22,23,718) != recurrence=(22,23,717)"),
        # half of a lambda1^n term is left over: no integer at all
        ("a", Fraction(1, 2), "closed-form error: x_0: non-integer rational part 45/2"),
    ],
)
def test_verify_reports_perturbed_constants(capsys, monkeypatch, field, shift, problem):
    k = sequences.canonical_constants()
    perturbed = replace(k, **{field: getattr(k, field) + shift})
    monkeypatch.setattr(sequences, "canonical_constants", lambda: perturbed)
    code, out, err = run(capsys, "verify", "--count", "5")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5 and all(" FAIL " in line for line in lines)
    assert lines[0] == f"n=0 FAIL {problem}"
    assert "5 of 5 indices failed" in err


def verify_reference(count):
    """verify's stdout built index by index from the random-access closed
    forms, each raising its roots to the index's power."""
    k = sequences.canonical_constants()
    lines = []
    for t in sequences.gen_recurrence(count):
        problems = []
        r = sequences.residual(t.x, t.y, t.z)
        if r != sequences.R:
            problems.append(f"residual={r}")
        try:
            cx, cy = sequences.closed_form_xy(t.n, k)
            cz = sequences.closed_form_z(t.n, k)
            if (cx, cy, cz) != (t.x, t.y, t.z):
                problems.append(
                    f"closed-form=({cx},{cy},{cz}) != recurrence=({t.x},{t.y},{t.z})"
                )
        except sequences.CancellationError as exc:
            problems.append(f"closed-form error: {exc}")
        lines.append(f"n={t.n} FAIL " + "; ".join(problems) if problems else f"n={t.n} ok")
    return "".join(line + "\n" for line in lines)


# the perturbations of test_verify_reports_perturbed_constants
@pytest.mark.parametrize("perturbation", [None, ("g", 1), ("a", Fraction(1, 2))])
@pytest.mark.parametrize("count", [1, 2, 50])
def test_verify_matches_the_random_access_reference(capsys, monkeypatch, perturbation, count):
    if perturbation is not None:
        field, shift = perturbation
        k = sequences.canonical_constants()
        perturbed = replace(k, **{field: getattr(k, field) + shift})
        monkeypatch.setattr(sequences, "canonical_constants", lambda: perturbed)
    code, out, _ = run(capsys, "verify", "--count", str(count))
    assert code == (0 if perturbation is None else 1)
    assert out == verify_reference(count)


def test_verify_raises_no_power_per_index(capsys, monkeypatch):
    # the powers are carried from index to index, so the count of
    # QuadElem.__pow__ calls does not grow with --count
    calls = []
    original = exactmath.QuadElem.__pow__

    def counted(self, exponent):
        calls.append(exponent)
        return original(self, exponent)

    monkeypatch.setattr(exactmath.QuadElem, "__pow__", counted)
    per_count = []
    for count in ("20", "200"):
        calls.clear()
        code, _, _ = run(capsys, "verify", "--count", count)
        assert code == 0
        per_count.append(len(calls))
    assert per_count[0] == per_count[1] <= 4


def test_derivation_follows_the_seeds(capsys, monkeypatch):
    # a second A = 48, R = 8 family: verify passes only if the z recurrence
    # and the closed-form constants are derived from the seeds
    monkeypatch.setattr(sequences, "INITIAL_TRIPLETS", ((1, 2, 3), (71, 74, 7443)))
    code, out, _ = run(capsys, "verify", "--count", "8")
    assert code == 0
    assert out.splitlines() == [f"n={i} ok" for i in range(8)]
    t = list(sequences.gen_recurrence(4))
    assert (t[2].x, t[2].y, t[2].z) == (3409, 3554, 17163747)
    assert (t[3].x, t[3].y, t[3].z) == (163703, 170666, 39579592947)
    k = sequences.canonical_constants()
    assert all(c.equal for c in identities.verify_five_identities(k))
    assert identities.tables_equal(identities.expand_lhs(k), identities.expand_rhs(k))


def test_verify_rejects_non_consecutive_seeds(capsys, monkeypatch):
    # members n=0 and n=2 of the paper's family: constants fitted to them
    # reproduce both seeds, but the next term is no member
    seeds = ((22, 23, 717), (50806, 52967, 3812308653))
    monkeypatch.setattr(sequences, "INITIAL_TRIPLETS", seeds)
    code, out, _ = run(capsys, "verify", "--count", "3")
    assert code == 1
    assert out.splitlines()[:2] == ["n=0 ok", "n=1 ok"]
    assert out.splitlines()[2].startswith("n=2 FAIL")


def test_identities_report(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["expansion_tables_equal"] is True
    assert len(doc["five_equalities"]) == 5
    assert len(doc["root_identities"]) == 3
    for check in doc["five_equalities"] + doc["root_identities"]:
        assert check["equal"] is True
        assert "left" in check and "right" in check


def test_identities_perturbed_g_fails(capsys, monkeypatch):
    k = sequences.canonical_constants()
    monkeypatch.setattr(
        sequences, "canonical_constants", lambda: replace(k, g=k.g + 1)
    )
    code, out, _ = run(capsys, "identities")
    assert code == 1
    assert json.loads(out)["all_ok"] is False


def test_identities_expands_each_table_once(capsys, monkeypatch):
    calls = []
    for name in ("expand_lhs", "expand_rhs"):
        original = getattr(identities, name)

        def counted(constants, original=original, name=name):
            calls.append(name)
            return original(constants)

        monkeypatch.setattr(identities, name, counted)
    code, _, _ = run(capsys, "identities")
    assert code == 0
    assert sorted(calls) == ["expand_lhs", "expand_rhs"]


def test_closed_form_exposes_cancellation(capsys):
    code, out, _ = run(capsys, "closed-form", "--n", "0")
    assert code == 0
    assert "x_n         = 22" in out
    assert "y_n         = 23" in out
    assert "z_n         = 717" in out
    assert "sqrt(577)" in out
    assert "(-1)^n * g  = 48/577" in out


def test_closed_form_forms_each_term_once(capsys, monkeypatch):
    # the six terms it prints are the ones that the closed forms sum, each
    # a product formed once, and each is printed on its own line
    n = 7
    terms = sequences.closed_form_terms(n)
    products = []
    original = exactmath.QuadElem.__mul__

    def counted(self, other):
        products.append(original(self, other))
        return products[-1]

    monkeypatch.setattr(exactmath.QuadElem, "__mul__", counted)
    monkeypatch.setattr(exactmath.QuadElem, "__rmul__", counted)
    code, out, _ = run(capsys, "closed-form", "--n", str(n))
    assert code == 0
    labels = ["a*lambda1^n", "b*lambda2^n", "c*lambda1^n", "d*lambda2^n", "e*mu1^n", "f*mu2^n"]
    for label, term in zip(labels, terms):
        assert products.count(term) == 1
        assert f"{label:<11} = {term}" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [["gen", "--count", "10001"], ["verify", "--count", "10001"], ["closed-form", "--n", "10000"]],
)
def test_indices_past_max_index_are_usage_errors(capsys, monkeypatch, argv):
    # refused before any member is generated or any power is raised
    def no_power(*_):
        raise AssertionError("raised a power past the bound")

    monkeypatch.setattr(exactmath.QuadElem, "__pow__", no_power)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert sequences.MAX_INDEX == 10**4
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be in" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_closed_form_prints_past_the_digit_limit(capsys):
    # z_1300 has about 4400 digits, past CPython's default limit of 4300,
    # and x_1300 about 2200, past the limit of 1000 set here
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out, _ = run(capsys, "closed-form", "--n", "1300")
        assert sys.get_int_max_str_digits() == 1000  # restored
        t = list(sequences.gen_recurrence(1301))[-1]
        sys.set_int_max_str_digits(0)
        expected = [f"x_n         = {t.x}", f"y_n         = {t.y}", f"z_n         = {t.z}"]
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    assert [line for line in out.splitlines() if line[1:3] == "_n"] == expected


@pytest.mark.parametrize(
    "record, text",
    [
        (sequences.Triplet(0, 22, 23, 717), "Triplet(n=0, x=22, y=23, z=717)"),
        (search.SearchHit(1, 2, 3, 8), "SearchHit(x=1, y=2, z=3, delta=8)"),
    ],
)
def test_output_records(record, text):
    # the CLI prints these records as they are, one column per field
    cls = type(record)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in cls._fields) == record
    with pytest.raises(AttributeError):
        record.x = 0
    twin = cls(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record


def test_search_finds_exact_residual(capsys):
    code, out, err = run(capsys, "search", "--max-x", "30", "--exact-residual", "8")
    assert code == 0
    assert "1\t2\t3\t8" in out
    assert "hit(s)" in err  # diagnostics stay off stdout


def test_search_matches_oracle_fixture_byte_for_byte(capsys):
    code, out, _ = run(capsys, "search", "--max-x", "60", "--threshold", "50")
    assert code == 0
    assert out == FIXTURE.read_text()


def test_search_matches_benchmark_refs_byte_for_byte(capsys):
    # every scan range of the benchmark, held to the sha256 of the
    # reference output recorded in perfbench/refs.json
    refs = json.loads(BENCH_REFS.read_text())["scan"]
    assert refs
    for key, ref in refs.items():
        code, out, _ = run(capsys, *key.split(), "--workers", "1")
        assert code == 0
        data = out.encode()
        assert (len(data), out.count("\n")) == (ref["bytes"], ref["rows"]), key
        assert hashlib.sha256(data).hexdigest() == ref["sha256"], key


def test_search_zero_hits_is_success(capsys):
    code, out, _ = run(capsys, "search", "--max-x", "100", "--threshold", "0")
    assert code == 0
    assert out == ""


def test_search_formats_carry_identical_numbers(capsys):
    _, tsv, _ = run(capsys, "search", "--max-x", "40", "--threshold", "20")
    _, jsonl, _ = run(
        capsys, "search", "--max-x", "40", "--threshold", "20", "--format", "jsonl"
    )
    tsv_rows = [line.split("\t") for line in tsv.splitlines()]
    json_rows = [
        [doc["x"], doc["y"], doc["z"], doc["delta"]]
        for doc in map(json.loads, jsonl.splitlines())
    ]
    assert tsv_rows == json_rows


def test_search_help_names_both_windows(capsys):
    code, out, _ = run(capsys, "search", "--help")
    assert code == 0
    assert "--exact-residual" in out and "--threshold" in out
    assert "bound" not in out


def test_search_huge_threshold_window_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--max-x", "20", "--threshold", str(10**12))
    assert code == 2
    assert out == ""
    assert "rows" in err


def test_search_threshold_and_residual_are_exclusive(capsys):
    argv = ["search", "--max-x", "10", "--threshold", "3", "--exact-residual", "8"]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "window",
    [["--threshold", "0", "--exact-residual", "8"], ["--exact-residual", "8", "--threshold", "0"]],
    ids=["threshold-first", "residual-first"],
)
def test_search_threshold_zero_and_residual_are_exclusive(capsys, window):
    # 0 is the threshold's value when it is not given, yet given it
    # conflicts with --exact-residual as any other value does
    code, out, err = run(capsys, "search", "--max-x", "5", *window)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    assert run(capsys, "search", "--max-x", "5", "--threshold", "0")[:2] == (0, "")


def test_search_workers_above_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--max-x", "10", "--workers", "100000")
    assert code == 2
    assert out == ""
    assert "workers" in err


def test_search_invalid_range_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--min-x", "9", "--max-x", "3")
    assert code == 2
    assert "error" in err


def test_console_script_end_to_end():
    import shutil
    import subprocess
    import sys

    # without an installed script, run the module from the tree under test
    exe = shutil.which("nearmiss4")
    cmd = [exe] if exe else [sys.executable, "-m", "nearmiss4.cli"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        cmd + ["gen", "--count", "4"], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == PAPER_TSV
    proc = subprocess.run(
        cmd + ["gen", "--count", "0"], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "1000"],
        ["search", "--max-x", "400", "--threshold", "20000", "--workers", "2"],
        ["gen", "--count", "256"],  # one write batch of 223 KB
        ["search", "--max-x", "400", "--threshold", "20000", "--format", "jsonl"],
        ["verify", "--count", "10000"],  # all of it would take about 25 s
    ],
)
def test_closed_pipe_exits_141_without_traceback(argv):
    # each command prints more than a 64 KB pipe buffer holds after the
    # first line, and stops soon after the reader closes the pipe
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nearmiss4.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    closed = time.monotonic()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert time.monotonic() - closed < 10
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["--max-x", "3000", "--exact-residual", "8", "--workers", "1024"], 2),
        (["--min-x", "5", "--max-x", "5", "--workers", "64"], 1),
    ],
)
def test_search_reports_the_processes_it_ran(capsys, monkeypatch, pool_at_any_size, argv, ran):
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    started = []
    real_pool = search.Pool

    def counted_pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(search, "Pool", counted_pool)
    code, out, err = run(capsys, "search", *argv)
    assert code == 0
    assert f" with {ran} worker(s): " in err
    assert started == ([ran] if ran > 1 else [])  # one process runs in-process
    assert out == run(capsys, "search", *argv[:-2])[1]  # as with --workers 1


def test_search_below_the_work_cap_runs_in_process(capsys, monkeypatch):
    # about 472,000 kept pairs, under one MIN_STRIPE_PAIRS: eight CPUs and
    # eight workers still run one process
    monkeypatch.setattr(search, "_cpus", lambda: 8)
    started = []
    monkeypatch.setattr(search, "Pool", started.append)
    argv = ["search", "--max-x", "3000", "--exact-residual", "8"]
    code, out, err = run(capsys, *argv, "--workers", "8")
    assert code == 0
    assert " with 1 worker(s): " in err
    assert started == []
    assert out == run(capsys, *argv)[1]


def test_search_workers_flag(capsys):
    code1, out1, _ = run(capsys, "search", "--max-x", "80", "--threshold", "9")
    code2, out2, _ = run(
        capsys, "search", "--max-x", "80", "--threshold", "9", "--workers", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2


# The oracle's rows over 1 <= x <= y <= ORACLE_MAX_X with |delta| up to
# ORACLE_BOUND hold the hits of every search window drawn below.
ORACLE_MAX_X = 80
ORACLE_BOUND = 10**4


@pytest.fixture(scope="module")
def oracle_rows():
    return naive_scan(1, ORACLE_MAX_X, threshold=ORACLE_BOUND)


@st.composite
def cli_argvs(draw):
    """(argv, valid): an argv of a subcommand from small ranges, and whether
    it is valid.  Between a quarter and a half have one flaw: a value out of range
    (zero, negative, min_x > max_x, workers past MAX_WORKERS), both window
    flags, at their defaults' values too, an unknown flag or a value that
    is no integer."""
    command = draw(st.sampled_from(["search"] * 4 + ["gen", "verify", "closed-form", "identities"]))
    flaws = {
        "search": ["min_x", "range", "threshold", "both", "both", "workers"],
        "gen": ["count"],
        "verify": ["count"],
        "closed-form": ["n"],
        "identities": [],
    }[command]
    flaw = draw(st.sampled_from([None] * 8 + flaws + ["flag", "value"]))
    argv = [command]
    if command == "search":
        min_x = draw(st.integers(1, ORACLE_MAX_X))
        max_x = draw(st.integers(min_x, ORACLE_MAX_X))
        if flaw == "min_x":
            min_x = draw(st.integers(-1, 0))
        elif flaw == "range":
            max_x = draw(st.integers(1, ORACLE_MAX_X - 1))
            min_x = draw(st.integers(max_x + 1, ORACLE_MAX_X))
        argv += ["--min-x", str(min_x)] if min_x != 1 or draw(st.booleans()) else []
        argv += ["--max-x", str(max_x)]
        window = draw(st.sampled_from(["threshold", "residual"]))
        if flaw in ("both", "threshold"):
            window = flaw
        if window != "residual":
            t = draw(st.integers(-3, -1) if flaw == "threshold" else st.integers(0, 2000))
            if window == "both" and draw(st.booleans()):
                t = 0  # the value of no threshold must not pass the exclusion either
            argv += ["--threshold", str(t)]
        if window != "threshold":
            argv += ["--exact-residual", str(draw(st.integers(-ORACLE_BOUND, ORACLE_BOUND)))]
        if window == "both" and draw(st.booleans()):
            argv[-4:] = argv[-2:] + argv[-4:-2]  # the other flag first
        if flaw == "workers":
            workers = draw(st.sampled_from([0, -1, search.MAX_WORKERS + 1]))
        else:
            workers = draw(st.integers(1, 3))
        argv += ["--workers", str(workers)] if workers != 1 or draw(st.booleans()) else []
    elif command in ("gen", "verify"):
        count = draw(st.integers(-2, 0) if flaw == "count" else st.integers(1, 40))
        argv += ["--count", str(count)]
    elif command == "closed-form":
        argv += ["--n", str(draw(st.integers(-3, -1) if flaw == "n" else st.integers(0, 40)))]
    if command in ("search", "gen"):
        argv += ["--format", draw(st.sampled_from(["tsv", "jsonl"]))]
    if flaw == "flag":
        argv.insert(draw(st.integers(1, len(argv))), "--frobnicate")
    elif flaw == "value":
        if len(argv) == 1:
            argv.append("0")  # identities takes no argument
        else:
            argv[-1] = "x" + argv[-1]
    return argv, flaw is None


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parsed_rows(fmt, out):
    if fmt == "tsv":
        return [tuple(map(int, line.split("\t"))) for line in out.splitlines()]
    return [tuple(map(int, json.loads(line).values())) for line in out.splitlines()]


@settings(
    max_examples=200,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_argvs())
# the defect of a --threshold that defaults to 0: argparse's exclusion lets
# a value that is its default pass
@example((["search", "--max-x", "5", "--threshold", "0", "--exact-residual", "8"], False))
@example((["search", "--max-x", "5", "--exact-residual", "0", "--threshold", "0"], False))
def test_cli_contract(monkeypatch, pool_at_any_size, oracle_rows, drawn):
    # every --workers count runs that many processes, up to the CPUs
    argv, valid = drawn
    code, out, err = run_main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code == (0 if valid else 2)
    if code == 2:
        assert out == ""
    if code != 0 or argv[0] not in ("search", "gen"):
        return
    args = cli.build_parser().parse_args(argv)
    rows = parsed_rows(args.format, out)
    if args.command == "gen":
        assert [row[0] for row in rows] == list(range(args.count))
        assert all(sequences.residual(*row[1:]) == sequences.R for row in rows)
        # x and y follow x_n = A*x_{n-1} + x_{n-2}, and z its three-term
        # recurrence, forced by a constant of alternating sign
        a, b, c = rows[:-2], rows[1:-1], rows[2:]
        for i in (1, 2):
            assert all(w[i] == sequences.A * v[i] + u[i] for u, v, w in zip(a, b, c))
        forcing = [w[3] - (sequences.A**2 + 2) * v[3] + u[3] for u, v, w in zip(a, b, c)]
        assert all(f == -g != 0 for f, g in zip(forcing, forcing[1:]))
        return
    other = "jsonl" if args.format == "tsv" else "tsv"
    code, other_out, _ = run_main(argv[:-1] + [other])
    assert code == 0 and parsed_rows(other, other_out) == rows
    if args.exact_residual is None:
        lo, hi = -(args.threshold or 0), args.threshold or 0
    else:
        lo = hi = args.exact_residual
    keys = [(y, x, z) for x, y, z, _ in rows]
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))
    for x, y, z, delta in rows:
        assert delta == sequences.residual(x, y, z) and lo <= delta <= hi
    assert rows == [
        row
        for row in oracle_rows
        if args.min_x <= row[0] and row[1] <= args.max_x and lo <= row[3] <= hi
    ]
