"""Command-line surface: wire formats, exit codes, determinism, config files."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import diotuple.cli as cli

# children import the same diotuple as this process, installed or not
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "diotuple", *args],
        capture_output=True, text=True, timeout=300, env=_CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_verify_tuple_ok():
    code, out, _ = run_cli("verify", "--k", "3", "--n", "1", "--tuple", "2,13")
    assert code == 0
    rec = records(out)[0]
    assert rec["ok"] is True
    assert rec["failures"] == []


def test_verify_tuple_not_ok_still_exits_zero():
    # a well-formed question with answer "no" is not an input error
    code, out, _ = run_cli("verify", "--k", "3", "--n", "1", "--tuple", "2,14")
    assert code == 0
    rec = records(out)[0]
    assert rec["ok"] is False
    assert rec["failures"] == [["2", "14", "29"]]


def test_verify_bipartite():
    code, out, _ = run_cli("verify", "--k", "3", "--n", "-1",
                           "--A", "1,14", "--B", "2,9")
    assert code == 0
    assert records(out)[0]["ok"] is True


def test_verify_rejects_mixed_modes():
    code, _, err = run_cli("verify", "--k", "3", "--n", "1",
                           "--tuple", "2,13", "--A", "1")
    assert code == 1
    assert err


def test_input_errors_exit_one():
    cases = [
        ("verify", "--k", "3", "--n", "0", "--tuple", "2,13"),  # zero shift
        ("verify", "--k", "3", "--n", "1", "--tuple", "12x"),  # malformed int
        ("constants", "--k", "2"),  # below the table
        ("search-tuples", "--k", "3", "--n", "1"),  # missing --N
        ("bound", "--n", "1", "--k", "3", "--wat", "7"),  # unknown flag
    ]
    for args in cases:
        code, _, err = run_cli(*args)
        assert code == 1, args
        assert err, args


def test_constants_csv_frozen():
    code, out, _ = run_cli("constants", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,r,s,t,u,alpha,beta"
    assert lines[1] == "3,9,6,15399/938,15,9/1,5761/5"


def test_search_tuples_jsonl():
    code, out, _ = run_cli("search-tuples", "--k", "3", "--n", "-1",
                           "--N", "10")
    assert code == 0
    recs = records(out)
    assert [r["elements"] for r in recs if r["type"] == "tuple"] == [
        ["1", "2"], ["1", "9"], ["4", "7"]]
    summary = recs[-1]
    assert summary["type"] == "summary"
    assert summary["count"] == "3"
    assert summary["truncated"] is False


def test_search_truncation_exit_two():
    code, out, _ = run_cli("search-tuples", "--k", "3", "--n", "1",
                           "--N", "30", "--max-results", "2")
    assert code == 2
    recs = records(out)
    assert recs[-1]["truncated"] is True
    assert len([r for r in recs if r["type"] == "tuple"]) == 2


def test_search_bipartite_round_trips_through_verify():
    code, out, _ = run_cli("search-bipartite", "--k", "3", "--n", "1",
                           "--N", "50", "--minA", "1", "--minB", "2")
    assert code == 0
    pairs = [r for r in records(out) if r["type"] == "pair"]
    assert pairs, "expected at least one pair"
    for rec in pairs:
        code2, out2, _ = run_cli(
            "verify", "--k", rec["k"], "--n", rec["n"],
            "--A", ",".join(rec["A"]), "--B", ",".join(rec["B"]))
        assert code2 == 0
        assert records(out2)[0]["ok"] is True


def test_bound_formats():
    code, out, _ = run_cli("bound", "--n", "7", "--k", "6", "--L", "5/4")
    assert code == 0
    recs = records(out)
    names = [r["name"] for r in recs]
    assert "tail-term" in names and "bipartite-side" in names
    for r in recs:
        assert set(r) == {"type", "name", "parameters", "value", "exact",
                          "anchor"}
    code, out, _ = run_cli("bound", "--n", "1", "--k", "3", "--format", "csv")
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("bipartite-side")]
    assert row and "10/1" in row[0]


def test_sieve_pipeline_record():
    code, out, _ = run_cli("sieve", "--set", "2,9,28", "--n", "100",
                           "--k", "3", "--L", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["degenerate"] is False
    assert rec["primes"][0] == "7"
    assert rec["cap"] == "100"
    assert set(rec["diagnostics"]) >= {"sum_log_p", "asymptotic_target"}


def test_sieve_set_file(tmp_path):
    f = tmp_path / "set.txt"
    f.write_text("2\n9\n28\n")
    code, out, _ = run_cli("sieve", "--set-file", str(f), "--n", "100",
                           "--k", "3", "--L", "1")
    assert code == 0
    assert records(out)[0]["evaluation"]["size"] == "3"
    code, _, err = run_cli("sieve", "--set-file", str(tmp_path / "nope.txt"),
                           "--n", "100", "--k", "3", "--L", "1")
    assert code == 1


def test_sieve_set_file_bad_line_is_an_input_error(tmp_path):
    f = tmp_path / "set.txt"
    for bad in ("9x", "0"):
        f.write_text(f"2\n{bad}\n28\n")
        code, out, err = run_cli("sieve", "--set-file", str(f), "--n", "100",
                                 "--k", "3", "--L", "1")
        assert code == 1, bad
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_sieve_cap_beyond_float_range(capsys):
    # |n|^L near 10^403 overflows a float; the exact ceiling does not
    code = cli.main(["sieve", "--set", "2,9", "--n", str(10 ** 400),
                     "--k", "3", "--L", "131/130"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert int(rec["cap"]).bit_length() == 1339


def test_sieve_audit_deterministic():
    a = run_cli("sieve", "--audit", "25", "--seed", "7")
    b = run_cli("sieve", "--audit", "25", "--seed", "7")
    c = run_cli("sieve", "--audit", "25", "--seed", "8")
    assert a[0] == 0
    assert a[1] == b[1]
    assert a[1] != c[1]
    summary = records(a[1])[-1]
    assert summary["type"] == "audit-summary"
    assert summary["violations"] == "0"


def test_ff_scan_bipartite_record():
    code, out, _ = run_cli("ff-scan", "--mode", "bipartite", "--p", "13",
                           "--k", "3", "--maxA", "3")
    assert code == 0
    recs = records(out)
    assert recs[0]["max_product"] == "4"
    assert recs[0]["extremal"] == [["1", "3"], ["4", "11"]]
    assert recs[-1]["type"] == "summary"
    assert recs[-1]["violations"] == "0"


def test_char_sum_single_and_sweep():
    code, out, _ = run_cli("char-sum", "--p", "13", "--k", "3",
                           "--A", "1,2,3,4", "--B", "1,2,3,4")
    assert code == 0
    rec = records(out)[0]
    assert rec["counts"] == ["5", "3", "8"]

    code, out, _ = run_cli("char-sum", "--k", "2", "--max-p", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,")
    assert len(lines) > 3


def test_thue_scan_record():
    code, out, _ = run_cli("thue-scan", "--a", "2", "--b", "1", "--k", "3",
                           "--c", "1", "--X", "1000")
    assert code == 0
    rec = records(out)[0]
    assert rec["solutions"] == [["1", "1"]]
    assert rec["large"] == []
    assert rec["alpha"] == "9/1"
    assert rec["beta"] == "5761/5"


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "search.conf"
    cfg.write_text("k = 3\nn = -1\nN = 10\n")
    code, out, _ = run_cli("search-tuples", "--config", str(cfg))
    assert code == 0
    assert records(out)[-1]["count"] == "3"
    # explicit flags win over config values
    code, out, _ = run_cli("search-tuples", "--config", str(cfg), "--N", "5")
    assert code == 0
    assert records(out)[-1]["count"] == "1"  # only (1, 2) fits below 5

    bad = tmp_path / "bad.conf"
    bad.write_text("k = 3\nwhatever = 1\n")
    code, _, err = run_cli("search-tuples", "--config", str(bad))
    assert code == 1
    assert "whatever" in err


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "typo.conf"
    cfg.write_text("k = 3\nn = 1\nheight = 10\n")
    code, out, err = run_cli("search-tuples", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: unknown config key 'height' for search-tuples\n"


def test_config_true_false_key(tmp_path):
    # help is the one valueless flag: true adds it, false leaves it out
    base = "k = 3\nn = -1\nN = 10\n"
    cfg = tmp_path / "flag.conf"
    cfg.write_text(base + "help = false\n")
    code, out, _ = run_cli("search-tuples", "--config", str(cfg))
    assert code == 0
    assert records(out)[-1]["count"] == "3"
    cfg.write_text(base + "help = TRUE\n")
    code, out, _ = run_cli("search-tuples", "--config", str(cfg))
    assert code == 0
    assert out == run_cli("search-tuples", "--help")[1]
    cfg.write_text(base + "help = maybe\n")
    code, out, err = run_cli("search-tuples", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: help takes true/false, got 'maybe'\n"


def test_exit_three_on_fabricated_violation(monkeypatch, capsys):
    # no genuine input can trip the at-most-one-large lemma, so splice in
    # a doctored report to pin the exit-code plumbing
    from dataclasses import replace

    import diotuple.bounds as bounds_mod

    doctored = replace(bounds_mod.thue_scan(1, 1, 3, 0, 50),
                       lemma_violation=True)
    monkeypatch.setattr(bounds_mod, "thue_scan",
                        lambda *a, **kw: doctored)
    code = cli.main(["thue-scan", "--a", "1", "--b", "1", "--k", "3",
                     "--c", "0", "--X", "50"])
    assert code == 3
    assert json.loads(capsys.readouterr().out.splitlines()[0])[
        "lemma_violation"] is True


def test_main_inprocess_matches_subprocess():
    code_sub, out_sub, _ = run_cli("constants", "--k", "6")
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code_in = cli.main(["constants", "--k", "6"])
    assert code_in == code_sub == 0
    assert buf.getvalue() == out_sub


# one command per value kind; the value under test replaces "{}"
_FLAG_KINDS = {
    "positive": ("constants", "--k", "{}"),
    "signed": ("verify", "--k", "3", "--tuple", "2,13", "--n", "{}"),
    "rational": ("sieve", "--set", "2,9", "--n", "100", "--k", "3",
                 "--L", "{}"),
    "elements": ("verify", "--k", "3", "--n", "1", "--B", "13", "--A", "{}"),
    "residues": ("char-sum", "--p", "13", "--k", "3", "--B", "1",
                 "--A", "{}"),
    "natural": ("thue-scan", "--a", "2", "--b", "1", "--k", "3", "--X", "50",
                "--c", "{}"),
}

_FLAG_CASES = [
    ("positive", "3", 0), ("positive", " 3", 0), ("positive", "0", 1),
    ("positive", "+3", 1), ("positive", "-3", 1), ("positive", "3x", 1),
    ("positive", "3.0", 1),
    ("signed", "5", 0), ("signed", "+5", 0), ("signed", "-5", 0),
    ("signed", "5x", 1), ("signed", "+-5", 1), ("signed", "5/1", 1),
    ("rational", "5/4", 0), ("rational", "5", 0), ("rational", "+5/4", 0),
    ("rational", "1/0", 1), ("rational", "1.25", 1), ("rational", "1e1", 1),
    ("rational", "1_0", 1), ("rational", "5/-4", 1),
    ("elements", "1,2", 0), ("elements", "1,,2", 0), ("elements", "1,-2", 1),
    ("elements", "1,0", 1), ("elements", "1;2", 1),
    ("residues", "0,1", 0), ("residues", "1,-2", 1),
    ("natural", "0", 0), ("natural", "1", 0), ("natural", "-1", 1),
]


def _main_exit(argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse's error path
        return exc.code


def test_flag_grammar(capsys):
    for kind, value, want in _FLAG_CASES:
        argv = [value if a == "{}" else a for a in _FLAG_KINDS[kind]]
        assert _main_exit(argv) == want, (kind, value)
        err = capsys.readouterr().err
        if want:
            # the message names the flag and gives the parser's reason, not
            # argparse's generic "invalid ... value"
            assert err.startswith("error: argument " + argv[-2]), err
            assert "invalid" not in err, err


def test_threads_is_unknown(tmp_path, capsys):
    for argv in (("search-tuples", "--k", "3", "--n", "1", "--N", "10"),
                 ("search-bipartite", "--k", "3", "--n", "1", "--N", "10"),
                 ("ff-scan", "--mode", "clique", "--p", "13", "--k", "3")):
        assert _main_exit([*argv, "--threads", "2"]) == 1, argv
        assert "--threads" in capsys.readouterr().err
    cfg = tmp_path / "threads.conf"
    cfg.write_text("k = 3\nn = 1\nN = 10\nthreads = 2\n")
    assert _main_exit(["search-tuples", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: unknown config key 'threads' for search-tuples\n")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [ln for block in re.findall(r"```sh\n(.*?)```", section, re.S)
             for ln in block.splitlines() if ln.startswith("diotuple ")]
    assert len(lines) > 10
    parser, _ = cli._build_parser()
    for line in lines:
        if "--config" in line:
            continue
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# runs one CLI command in a fresh interpreter, then lists what it imported
_IMPORT_PROBE = """
import contextlib, io, json, sys
from diotuple import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m == "mpmath" or m.startswith("diotuple."))}))
"""


@pytest.mark.parametrize("argv, needed, absent", [
    (["--help"], {"diotuple.cli"}, {"mpmath"}),
    (["ff-scan", "--mode", "bipartite", "--p", "97", "--k", "3",
      "--maxA", "3"],
     {"diotuple.ff"},
     {"mpmath", "diotuple.search", "diotuple.core", "diotuple.bounds",
      "diotuple.sieve"}),
    (["search-tuples", "--k", "3", "--n", "1", "--N", "2000"],
     {"diotuple.search", "diotuple.core"},
     {"mpmath", "diotuple.ff", "diotuple.bounds"}),
], ids=["help", "ff-scan", "search-tuples"])
def test_subcommand_loads_only_its_layers(argv, needed, absent):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, timeout=300,
                          env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["code"] == 0
    loaded = set(probe["modules"])
    assert needed <= loaded
    assert not loaded & absent, sorted(loaded & absent)
