"""Command-line surface tests, run in-process via cli.main."""

import hashlib
import json
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

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


def test_gen_zero_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--count", "0"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--count", "2", "--frobnicate"])
    assert exc.value.code == 2


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--count", "8")
    assert code == 0
    assert out.splitlines() == [f"n={i} ok" for i in range(8)]
    assert "all 8 indices verified" in err


def test_verify_depth_50(capsys):
    code, out, _ = run(capsys, "verify", "--count", "50")
    assert code == 0
    assert out.splitlines()[-1] == "n=49 ok"


def test_verify_corrupted_seed_names_index(capsys, monkeypatch):
    corrupted = ((22, 23, 718), sequences.INITIAL_TRIPLETS[1])
    monkeypatch.setattr(sequences, "INITIAL_TRIPLETS", corrupted)
    code, out, _ = run(capsys, "verify", "--count", "3")
    assert code == 1
    assert out.splitlines()[0].startswith("n=0 FAIL")


def test_derivation_follows_the_seeds(capsys, monkeypatch):
    # a second A = 48, R = 8 family: verify passes only if the z recurrence
    # and the closed-form constants are derived from the seeds
    monkeypatch.setattr(sequences, "INITIAL_TRIPLETS", ((1, 2, 3), (71, 74, 7443)))
    code, out, _ = run(capsys, "verify", "--count", "8")
    assert code == 0
    assert out.splitlines() == [f"n={i} ok" for i in range(8)]
    t = sequences.gen_recurrence(4)
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
        t = sequences.gen_recurrence(1301)[-1]
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
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "--exact-residual" in out and "--threshold" in out
    assert "bound" not in out


def test_search_huge_threshold_window_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--max-x", "20", "--threshold", str(10**12))
    assert code == 2
    assert out == ""
    assert "rows" in err


def test_search_threshold_and_residual_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--max-x", "10", "--threshold", "3", "--exact-residual", "8"])
    assert exc.value.code == 2


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


def test_search_workers_flag(capsys):
    code1, out1, _ = run(capsys, "search", "--max-x", "80", "--threshold", "9")
    code2, out2, _ = run(
        capsys, "search", "--max-x", "80", "--threshold", "9", "--workers", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2
