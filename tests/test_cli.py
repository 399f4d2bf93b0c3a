"""Command-line surface: wire formats, exit codes, determinism, config files."""

import hashlib
import importlib
import json
import os
import re
import resource
import runpy
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


@pytest.mark.parametrize("argv, flags", [
    (["ff-scan", "--mode", "clique", "--p", "13", "--k", "3", "--lam", "5",
      "--lam-max", "2"], ("--lam", "--lam-max")),
    (["char-sum", "--k", "3", "--max-p", "20", "--p", "13", "--A", "1",
      "--B", "2"], ("--max-p", "--A")),
    (["char-sum", "--k", "3", "--max-p", "20", "--g", "2"],
     ("--max-p", "--g")),
    (["char-sum", "--p", "13", "--k", "3", "--A", "1,2", "--B", "1,2",
      "--interval", "5"], ("--interval", "--max-p")),
    (["sieve", "--audit", "3", "--set", "2,9", "--n", "5", "--k", "3",
      "--L", "1"], ("--audit", "--set")),
    (["sieve", "--set", "2,9", "--set-file", "F", "--n", "100", "--k", "3",
      "--L", "1"], ("--set", "--set-file")),
    (["sieve", "--set", "2,9", "--n", "100", "--k", "3", "--L", "1",
      "--N", "50", "--seed", "4"], ("--N", "--seed", "--audit")),
    (["ff-scan", "--mode", "clique", "--p", "13", "--k", "3", "--maxA", "9"],
     ("--maxA", "--mode")),
], ids=["ff-scan", "char-sum", "char-sum-g", "char-sum-interval",
        "sieve-audit", "sieve-set-file", "sieve-audit-flags", "ff-scan-maxA"])
def test_mixed_modes_are_refused(argv, flags, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags)


def test_mode_defaults_apply_where_read(capsys):
    # --seed and --maxA default to None so that other modes can refuse them;
    # the modes that read them still default to 0 and 3
    for argv, default in [
            (["sieve", "--audit", "5"], ["--seed", "0"]),
            (["ff-scan", "--mode", "bipartite", "--p", "13", "--k", "3"],
             ["--maxA", "3"])]:
        assert cli.main(argv) == 0
        implicit = capsys.readouterr().out
        assert cli.main(argv + default) == 0
        assert capsys.readouterr().out == implicit


def test_char_sum_sweep_cap_refused_before_sieving(monkeypatch, capsys):
    from diotuple import exact

    def no_sieve(n):
        raise AssertionError("sieved before refusing")

    # the sweep runs the sieve of exact, bound in cli at import
    assert cli.primes_up_to is exact.primes_up_to
    monkeypatch.setattr(cli, "primes_up_to", no_sieve)
    assert cli.main(["char-sum", "--k", "2", "--max-p", str(10 ** 9)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-p" in captured.err


def test_sweeps_past_their_budget_refused_before_any_work(monkeypatch,
                                                         capsys):
    # a shift sweep beyond p - 1, and the sweeps whose whole work passes
    # its budget, exit 1 before the first scan, sum or trial
    from diotuple import ff, sieve

    def spy(*args):
        raise AssertionError("worked before refusing")

    for module, name in ((ff, "ff_scan_clique"), (ff, "ff_scan_bipartite"),
                         (ff, "char_sum"), (sieve, "gallagher_bound")):
        monkeypatch.setattr(module, name, spy)
    for argv, refusal in (
            (["ff-scan", "--mode", "clique", "--p", "499", "--k", "2",
              "--lam-max", "499"], "shift must be in [1, p-1], got 499"),
            (["ff-scan", "--mode", "bipartite", "--p", "97", "--k", "3",
              "--lam-max", "97"], "shift must be in [1, p-1], got 97"),
            (["ff-scan", "--mode", "bipartite", "--p", "3137", "--k", "2",
              "--lam-max", "9"],
             "a sweep of 9 bipartite scans at p=3137 with sides of 3 needs "
             "about 61 s"),
            (["char-sum", "--k", "2", "--max-p", "400000"],
             "above the cap of 60 s"),
            (["char-sum", "--k", "2", "--max-p", "20000", "--interval",
              "20000"], "above the cap of 60 s"),
            (["sieve", "--audit", "700001"], "--audit capped at 700000")):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), argv
        assert refusal in captured.err and captured.err.count("\n") == 1


def test_audit_trial_cap_admits_up_to_the_cap(monkeypatch, capsys):
    from diotuple import sieve
    monkeypatch.setattr(sieve, "AUDIT_TRIALS_CAP", 5)
    assert cli.main(["sieve", "--audit", "5"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])[
        "trials"] == "5"
    assert cli.main(["sieve", "--audit", "6"]) == 1
    assert capsys.readouterr().err == "error: --audit capped at 5 trials\n"


def test_caps_refused_at_once(monkeypatch, capsys):
    # p - 1 = 2 * 50000000000000549 for the safe prime below: FieldConfig
    # factors it by Pollard's rho, so each scan's own cap refuses at once;
    # a search is refused before any row is built
    from diotuple import search

    def spy(*args):
        raise AssertionError("built before refusing")

    for name in ("_row", "_power_side_table", "kth_power_residues"):
        monkeypatch.setattr(search, name, spy)
    big = "100000000000001099"
    for argv, cap in (
            (["char-sum", "--p", big, "--k", "2", "--A", "1", "--B", "1"],
             "character sums capped"),
            (["ff-scan", "--mode", "clique", "--p", big, "--k", "2"],
             "clique scan capped"),
            (["ff-scan", "--mode", "bipartite", "--p", big, "--k", "2"],
             "bipartite scan capped"),
            (["ff-scan", "--mode", "bipartite", "--p", "197", "--k", "2",
              "--maxA", "6"], "bipartite scan capped"),
            (["search-tuples", "--k", "3", "--n", "1", "--N", str(10 ** 12)],
             "above the cap"),
            (["search-bipartite", "--k", "2", "--n", "-1", "--N", "40000"],
             "above the cap")):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert cap in captured.err, argv


def test_explicit_char_sum_past_its_budget_refused_before_packing(
        monkeypatch, capsys, tmp_path):
    # one sum at p = 999983 over the sides 1..m, given through --config:
    # m = 3 * 10^5 would take minutes and is refused before the packed
    # pass, m = 10^5 (about 20 s) goes on to pack
    from diotuple import ff

    class Packed(Exception):
        pass

    def no_packing(sa, sb):
        raise Packed

    monkeypatch.setattr(ff, "_packed_sums", no_packing)
    for m in (3 * 10 ** 5, 10 ** 5):
        side = ",".join(map(str, range(1, m + 1)))
        config = tmp_path / f"sides-{m}.conf"
        config.write_text(f"p=999983\nk=2\nA={side}\nB={side}\n")
        argv = ["char-sum", "--config", str(config)]
        if m == 10 ** 5:
            with pytest.raises(Packed):
                cli.main(argv)
            continue
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: this character sum needs about "
                                "181 s and 13 MiB, above the cap of 60 s and "
                                "2048 MiB\n")


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
    # the bytes are pinned: at N >= 60 a trial's set size is never clipped
    assert hashlib.sha256(a[1].encode()).hexdigest() == \
        "81670e06bd852b6a545372a79b1bcce58f0f13e9f0bf94613eb0c82f78da7b8e"
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


def test_char_sum_sweep_bytes(capsys):
    # one record per prime in every format; p = 7 has no exponent
    want = {
        "jsonl": (
            '{"type": "char-sweep", "p": "3", "k": "2", "side": "1", '
            '"zero_hits": "0", "magnitude": 1.0, "exponent": 0.0}\n'
            '{"type": "char-sweep", "p": "5", "k": "2", "side": "2", '
            '"zero_hits": "0", "magnitude": 2.0, '
            '"exponent": -0.43067655807339306}\n'
            '{"type": "char-sweep", "p": "7", "k": "2", "side": "2", '
            '"zero_hits": "0", "magnitude": 0.0, "exponent": null}\n'),
        "csv": ("p,k,side,zero_hits,magnitude,exponent\n"
                "3,2,1,0,1.0,0.0\n"
                "5,2,2,0,2.0,-0.43067655807339306\n"
                "7,2,2,0,0.0,\n"),
        "table": ("p  k  side  zero_hits  magnitude  exponent\n"
                  "3  2  1     0          1.0        0.0\n"
                  "5  2  2     0          2.0        -0.43067655807339306\n"
                  "7  2  2     0          0.0\n"),
    }
    for fmt, text in want.items():
        assert cli.main(["char-sum", "--k", "2", "--max-p", "8",
                         "--format", fmt]) == 0
        assert capsys.readouterr().out == text, fmt


_BOUND_ANCHORS = {
    "bipartite-side": "r_k+1 if |n|=1 else max{(loglog|n|+3.3)/log(k-1)+8, "
                      "(max{4n^2,|n|^(2(k+1)/(k-2))}+n)^(1/k)+20}",
    "tuple-size-closed": "2^(1/k)|n|^(2/(k-2))+16",
    "tuple-size-small-regime": "closed bound <= 19 once |n|>=2 and "
                               "k >= 2log|n|+2",
    "tail-term": "3(log18-logL)/(log(k-1)-log(3+k/L-k))+12",
    "tuple-size-parametric": "(|n|^(2L)+n)^(1/k)+T(k,L)+1",
}

_PINNED_STDOUT = {
    ("constants", "--k", "3", "--format", "jsonl"): (
        '{"type": "constants", "k": "3", "r": "9", "s": "6", '
        '"t": "15399/938", "u": "15", "alpha": "9/1", "beta": "5761/5"}\n'),
    ("constants", "--k", "3", "--format", "csv"): (
        "k,r,s,t,u,alpha,beta\n"
        "3,9,6,15399/938,15,9/1,5761/5\n"),
    ("constants", "--k", "3", "--format", "table"): (
        "k  r  s  t          u   alpha  beta\n"
        "3  9  6  15399/938  15  9/1    5761/5\n"),
    ("bound", "--n", "7", "--k", "6", "--L", "5/4", "--format", "jsonl"): (
        '{"type": "bound", "name": "bipartite-side", '
        '"parameters": {"n": "7", "k": "6"}, "value": 23.11551639118127, '
        '"exact": false, "anchor": "' + _BOUND_ANCHORS["bipartite-side"]
        + '"}\n'
        '{"type": "bound", "name": "tuple-size-closed", '
        '"parameters": {"n": "7", "k": "6"}, "value": 18.96975543593477, '
        '"exact": false, "anchor": "' + _BOUND_ANCHORS["tuple-size-closed"]
        + '"}\n'
        '{"type": "bound", "name": "tuple-size-small-regime", '
        '"parameters": {"n": "7", "k": "6"}, "value": "19/1", '
        '"exact": true, "anchor": "'
        + _BOUND_ANCHORS["tuple-size-small-regime"] + '"}\n'
        '{"type": "bound", "name": "tail-term", '
        '"parameters": {"k": "6", "L": "5/4"}, "value": 19.832109674485945, '
        '"exact": false, "anchor": "' + _BOUND_ANCHORS["tail-term"] + '"}\n'
        '{"type": "bound", "name": "tuple-size-parametric", '
        '"parameters": {"n": "7", "k": "6", "L": "5/4"}, '
        '"value": 23.101611849424195, "exact": false, "anchor": "'
        + _BOUND_ANCHORS["tuple-size-parametric"] + '"}\n'
        '{"type": "bound", "name": "large-exponent-main", '
        '"parameters": {"k": "6"}, "value": "29/24", "exact": true, '
        '"anchor": "t_k/k"}\n'
        '{"type": "bound", "name": "large-exponent-secondary", '
        '"parameters": {"k": "6"}, "value": "1/4", "exact": true, '
        '"anchor": "1/(k-2)"}\n'),
    ("bound", "--n", "7", "--k", "6", "--L", "5/4", "--format", "csv"): (
        "name,parameters,value,exact,anchor\n"
        'bipartite-side,n=7 k=6,23.11551639118127,false,"'
        + _BOUND_ANCHORS["bipartite-side"] + '"\n'
        "tuple-size-closed,n=7 k=6,18.96975543593477,false,"
        + _BOUND_ANCHORS["tuple-size-closed"] + "\n"
        "tuple-size-small-regime,n=7 k=6,19/1,true,"
        + _BOUND_ANCHORS["tuple-size-small-regime"] + "\n"
        "tail-term,k=6 L=5/4,19.832109674485945,false,"
        + _BOUND_ANCHORS["tail-term"] + "\n"
        'tuple-size-parametric,n=7 k=6 L=5/4,23.101611849424195,false,"'
        + _BOUND_ANCHORS["tuple-size-parametric"] + '"\n'
        "large-exponent-main,k=6,29/24,true,t_k/k\n"
        "large-exponent-secondary,k=6,1/4,true,1/(k-2)\n"),
    ("bound", "--n", "7", "--k", "6", "--L", "5/4", "--format", "table"): (
        "name                      parameters     value               "
        "exact  anchor\n"
        "bipartite-side            n=7 k=6        23.11551639118127   "
        "false  " + _BOUND_ANCHORS["bipartite-side"] + "\n"
        "tuple-size-closed         n=7 k=6        18.96975543593477   "
        "false  " + _BOUND_ANCHORS["tuple-size-closed"] + "\n"
        "tuple-size-small-regime   n=7 k=6        19/1                "
        "true   " + _BOUND_ANCHORS["tuple-size-small-regime"] + "\n"
        "tail-term                 k=6 L=5/4      19.832109674485945  "
        "false  " + _BOUND_ANCHORS["tail-term"] + "\n"
        "tuple-size-parametric     n=7 k=6 L=5/4  23.101611849424195  "
        "false  " + _BOUND_ANCHORS["tuple-size-parametric"] + "\n"
        "large-exponent-main       k=6            29/24               "
        "true   t_k/k\n"
        "large-exponent-secondary  k=6            1/4                 "
        "true   1/(k-2)\n"),
    ("search-tuples", "--k", "3", "--n", "-1", "--N", "30"): "".join(
        '{"type": "tuple", "k": "3", "n": "-1", '
        f'"elements": ["{a}", "{b}"]}}\n'
        for a, b in [(1, 2), (1, 9), (1, 28), (2, 14), (4, 7), (5, 13),
                     (6, 21), (7, 18), (9, 14), (19, 27)])
        + '{"type": "summary", "count": "10", "truncated": false}\n',
    ("search-bipartite", "--k", "3", "--n", "1", "--N", "50",
     "--minA", "1", "--minB", "2"): (
        '{"type": "pair", "k": "3", "n": "1", "A": ["1"], '
        '"B": ["7", "26"]}\n'
        '{"type": "pair", "k": "3", "n": "1", "A": ["1", "9"], "B": ["7"]}\n'
        '{"type": "pair", "k": "3", "n": "1", "A": ["1", "28"], '
        '"B": ["26"]}\n'
        '{"type": "pair", "k": "3", "n": "1", "A": ["7", "38"], "B": ["9"]}\n'
        '{"type": "pair", "k": "3", "n": "1", "A": ["9", "35"], '
        '"B": ["38"]}\n'
        '{"type": "summary", "count": "5", "truncated": false}\n'),
    # result records: nested evaluation, null evaluation and int diagnostics
    ("sieve", "--set", "2", "--n", "5", "--k", "3", "--L", "1"): (
        '{"type": "sieve", "n": "5", "k": "3", "L": "1", '
        '"Q": 13.814882101227917, "cap": "5", "primes": ["7", "13"], '
        '"degenerate": false, "evaluation": {"size": "1", '
        '"numerator": 2.9014215940827492, "denominator": 2.9014215940827492, '
        '"bound": 1.0, "occupied": {"7": "1", "13": "1"}}, "diagnostics": {'
        '"sum_log_p": 4.51085950651685, "window_over_phi": 6.907441050613959, '
        '"sum_log_p_over_sqrt_p": 1.4468738599568431, '
        '"two_sqrt_window_over_phi": 3.7168376479512686, '
        '"sum_log_p_over_sqrt_p_per_k": 2.5060590375885488, '
        '"asymptotic_target": 4.2918344331576, '
        '"shift_prime_drag": 0.7197625155536004}}\n'),
    ("sieve", "--set", "1", "--n", "-2", "--k", "3", "--L", "1"): (
        '{"type": "sieve", "n": "-2", "k": "3", "L": "1", '
        '"Q": 2.5624160742304074, "cap": "2", "primes": [], '
        '"degenerate": true, "evaluation": null, "diagnostics": {'
        '"sum_log_p": "0", "window_over_phi": 1.2812080371152037, '
        '"sum_log_p_over_sqrt_p": "0", '
        '"two_sqrt_window_over_phi": 1.6007548451372582, '
        '"sum_log_p_over_sqrt_p_per_k": "0", '
        '"asymptotic_target": 1.8483924814931874, '
        '"shift_prime_drag": 0.49012907173427356}}\n'),
    ("ff-scan", "--mode", "bipartite", "--p", "13", "--k", "3", "--lam", "1"): (
        '{"type": "ff-bipartite", "p": "13", "k": "3", "lam": "1", '
        '"class_size": "4", "scanned": "24", "max_product": "4", '
        '"extremal": [["1", "3"], ["4", "11"]], "min_slack": "2", '
        '"violations": [], "violation_count": "0"}\n'
        '{"type": "summary", "scans": "1", "violations": "0"}\n'),
    ("ff-scan", "--mode", "clique", "--p", "13", "--k", "3", "--lam-max", "2"): (
        '{"type": "ff-clique", "p": "13", "k": "3", "lam": "1", '
        '"max_size": "3", "witness": ["1", "7", "11"], '
        '"bound": 6.82842712474619, "violation": false}\n'
        '{"type": "ff-clique", "p": "13", "k": "3", "lam": "2", '
        '"max_size": "3", "witness": ["5", "10", "11"], '
        '"bound": 6.82842712474619, "violation": false}\n'
        '{"type": "summary", "scans": "2", "violations": "0"}\n'),
    ("char-sum", "--p", "13", "--k", "3", "--A", "1,2,3", "--B", "2,5"): (
        '{"type": "char-sum", "p": "13", "k": "3", "size_a": "3", '
        '"size_b": "2", "counts": ["2", "1", "3"], "zero_hits": "0", '
        '"magnitude": 1.7320508075688767, "exponent": -0.48439682494301717, '
        '"g": "2"}\n'),
    ("thue-scan", "--a", "3", "--b", "2", "--k", "3", "--c", "25",
     "--X", "400"): (
        '{"type": "thue-scan", "a": "3", "b": "2", "k": "3", "c": "25", '
        '"X": "400", "solutions": [["1", "1"], ["1", "2"], ["2", "1"], '
        '["7", "8"]], "large": [], "alpha": "9/1", "beta": "5761/5", '
        '"lemma_violation": false}\n'),
}


def test_output_bytes_pinned(capsys):
    # the wire form of the tabular subcommands in every format, of the
    # tuple and pair records, and of each result record
    for argv, text in _PINNED_STDOUT.items():
        assert cli.main(list(argv)) == 0, argv
        assert capsys.readouterr().out == text, argv


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
    # every config key names a flag that takes a value; help takes none
    cfg = tmp_path / "flag.conf"
    for value in ("true", "false"):
        cfg.write_text(f"k = 3\nn = -1\nN = 10\nhelp = {value}\n")
        code, out, err = run_cli("search-tuples", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == "error: unknown config key 'help' for search-tuples\n"


def test_config_is_read_in_both_spellings_and_no_other(tmp_path, capsys):
    # --config FILE and --config=FILE apply the file; an abbreviation, a
    # second --config or a missing file is refused, never parsed and dropped
    cfg = tmp_path / "one.conf"
    cfg.write_text("max-results=1\n")
    base = ["search-tuples", "--k", "3", "--n", "1", "--N", "50"]
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"],
                     [f"--config={cfg}", "--max-results", "1"]):
        assert _main_exit(base + spelling) == 2, spelling
        assert len(records(capsys.readouterr().out)) == 2  # a tuple, summary
    for spelling in (["--conf", str(cfg)], [f"--conf={cfg}"],
                     ["--config", str(cfg), "--config", str(cfg)],
                     [f"--config={cfg}", "--config", str(cfg)],
                     ["--config=" + str(tmp_path / "missing.conf")],
                     ["--config"]):
        assert _main_exit(base + spelling) == 1, spelling
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and \
            captured.err.count("\n") == 1, spelling
    # thue-scan's exact --c still parses next to an abbreviated --config
    thue = ["thue-scan", "--a", "2", "--b", "1", "--k", "3", "--X", "100"]
    assert _main_exit(thue + ["--c", "1"]) == 0
    assert records(capsys.readouterr().out)[0]["c"] == "1"
    assert _main_exit(thue + ["--c", "1", "--conf", "/missing"]) == 1
    assert capsys.readouterr().out == ""


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


# a CLI process whose invariant check is forced to fail: the Thue threshold
# set to zero, every audit trial's bound set to 1/2, partner rows made
# asymmetric, a clique replay that finds nothing, or a clique number above
# the pairwise bound
_FORCED_FAILURES = {
    "thue": """
from fractions import Fraction
from diotuple import bounds
bounds.evertse_constants = lambda k: (Fraction(1), Fraction(0))
""",
    "audit": """
from diotuple import sieve
sieve.gallagher_bound = lambda A, N, P: sieve.SieveEvaluation(
    len(A), 0.0, 1.0, 0.5, {})
""",
    "orbits": """
from diotuple import ff
rows = ff._partner_rows
def asymmetric(config):
    out = rows(config)
    out[1] ^= 1 << 2  # 2 leaves the partners of 1; 1 stays a partner of 2
    return out
ff._partner_rows = asymmetric
""",
    "replay": """
from diotuple import ff
ff._clique_search = lambda adj, p, size: ()
""",
    "pairwise": """
from diotuple import ff
ff._clique_number = lambda adj, p: 9
ff._clique_search = lambda adj, p, size: tuple(range(1, size + 1))
""",
}


def _forced(name: str, body: str) -> str:
    return _FORCED_FAILURES[name] + "from diotuple import cli\n" + body


@pytest.mark.parametrize("name, argv, stderr", [
    ("thue", ["thue-scan", "--a", "3", "--b", "2", "--k", "3", "--c", "25",
              "--X", "400"],
     "ERROR diotuple.bounds: two primitive solutions above the Thue "
     "threshold for (a,b,k,c)=(3,2,3,25): ((1, 1), (1, 2), (2, 1), (7, 8)) "
     "-- this is a bug\n"),
    ("audit", ["sieve", "--audit", "3", "--seed", "4"],
     "".join(f"ERROR diotuple.cli: sieve bound undercounted on trial {t}\n"
             for t in range(3))),
    ("orbits", ["ff-scan", "--mode", "bipartite", "--p", "11", "--k", "2"],
     "INVARIANT VIOLATION: 2 walked sides of size 3 do not fill whole "
     "scaling orbits at p=11 k=2 lam=1\n"),
    ("replay", ["ff-scan", "--mode", "clique", "--p", "13", "--k", "3"],
     "INVARIANT VIOLATION: clique replay found size 2, not 3, at p=13 k=3 "
     "lam=1\n"),
    ("pairwise", ["ff-scan", "--mode", "clique", "--p", "13", "--k", "3"],
     "ERROR diotuple.ff: pairwise bound failed at p=13 k=3 lam=1: size 9\n"),
])
def test_forced_failure_reports_to_stderr(name, argv, stderr):
    probe = _forced(name, "import sys\nsys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=_CHILD_ENV)
    assert (proc.returncode, proc.stderr) == (3, stderr)


def test_failure_report_goes_to_the_current_stderr():
    # two in-process runs under different stderr targets, in a child so
    # that no log capture takes the records; the CLI configures no logging
    probe = _forced("audit", """
import contextlib, io, json, sys
streams = []
for trials in ("1", "2"):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            code = cli.main(["sieve", "--audit", trials])
    streams.append([code, err.getvalue()])
print(json.dumps({"streams": streams, "logging": "logging" in sys.modules}))
""")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    line = "ERROR diotuple.cli: sieve bound undercounted on trial {}\n"
    assert json.loads(proc.stdout) == {
        "streams": [[3, line.format(0)],
                    [3, line.format(0) + line.format(1)]],
        "logging": False}


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
    for line in lines:
        if "--config" in line:
            continue
        argv = shlex.split(line, comments=True)[1:]
        parser, _ = cli._build_parser(argv[0])
        try:
            parser.parse_args(argv)
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
    m for m in sys.modules
    if m in ("mpmath", "fractions", "dataclasses", "inspect", "logging")
    or m.startswith("diotuple."))}))
"""


@pytest.mark.parametrize("argv, needed, absent", [
    (["--help"], {"diotuple.cli"},
     {"mpmath", "fractions", "dataclasses", "inspect", "logging"}),
    (["ff-scan", "--mode", "bipartite", "--p", "97", "--k", "3",
      "--maxA", "3"],
     {"diotuple.ff"},
     {"mpmath", "fractions", "dataclasses", "inspect", "logging",
      "diotuple.search", "diotuple.core", "diotuple.bounds", "diotuple.sieve"}),
    # the clique and character-sum results are dataclasses, declared on
    # first use
    (["ff-scan", "--mode", "clique", "--p", "13", "--k", "3"],
     {"diotuple.ff", "dataclasses"},
     {"mpmath", "fractions", "logging", "diotuple.search", "diotuple.core",
      "diotuple.bounds", "diotuple.sieve"}),
    (["char-sum", "--p", "13", "--k", "3", "--A", "1,2", "--B", "3"],
     {"diotuple.ff", "dataclasses"},
     {"mpmath", "fractions", "logging", "diotuple.search", "diotuple.core",
      "diotuple.bounds", "diotuple.sieve"}),
    (["search-tuples", "--k", "3", "--n", "1", "--N", "2000"],
     {"diotuple.search", "diotuple.core"},
     {"mpmath", "logging", "diotuple.ff", "diotuple.bounds",
      "diotuple.sieve"}),
    (["search-bipartite", "--k", "2", "--n", "-1", "--N", "300"],
     {"diotuple.search", "diotuple.core"},
     {"mpmath", "logging", "diotuple.ff", "diotuple.bounds",
      "diotuple.sieve"}),
    (["char-sum", "--k", "2", "--max-p", "40"],
     {"diotuple.ff"},
     {"mpmath", "fractions", "logging", "diotuple.search", "diotuple.core",
      "diotuple.bounds", "diotuple.sieve"}),
    (["sieve", "--set", "2,9", "--n", "100", "--k", "3", "--L", "3/2"],
     {"diotuple.sieve", "fractions"},
     {"mpmath", "logging", "diotuple.search", "diotuple.core", "diotuple.ff",
      "diotuple.bounds"}),
], ids=["help", "ff-scan", "ff-scan-clique", "char-sum", "search-tuples",
        "search-bipartite", "char-sum-sweep", "sieve"])
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


# stdout, stderr and exit code of the help and parse-error paths, recorded
# at 80 columns (argparse wraps help to the terminal width)
_PINNED = json.loads(Path(__file__).with_name("cli_help_pinned.json").read_text())


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != _PINNED["python"],
                    reason="argparse formats help differently on other Pythons")
@pytest.mark.parametrize("case", _PINNED["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "no-args")
def test_help_and_parse_errors_pinned(case):
    proc = subprocess.run(
        [sys.executable, "-m", "diotuple", *case["argv"]],
        capture_output=True, text=True, timeout=60,
        env=dict(_CHILD_ENV, COLUMNS=str(_PINNED["columns"])))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["code"], case["stdout"], case["stderr"])


def test_console_script_is_the_module_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["diotuple"]
    module, _, name = target.partition(":")

    class Entered(Exception):
        pass

    def entered():
        raise Entered

    monkeypatch.setattr(importlib.import_module(module), name, entered)
    with pytest.raises(Entered):
        runpy.run_module("diotuple", run_name="__main__")


def test_entry_freezes_the_heap_and_keeps_atexit():
    # an atexit handler still runs after the entry returns, and sees the
    # heap frozen; stdout is flushed and the exit code is main's
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
             "from diotuple.cli import entry\n"
             "sys.argv[1:] = ['search-tuples', '--k', '3', '--n', '1',\n"
             "                '--N', '2000', '--max-results', '1']\n"
             "entry()\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=_CHILD_ENV)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-2])["truncated"] is True
    assert lines[-1] == "frozen True"


# every subcommand from a small input, with one of its degree, shift,
# height, prime, slack or box flags set to the least 19-digit prime
_BIG = "1000000000000000003"
_HUGE_BASES = (
    (["constants", "--k", "3"], ("--k",)),
    (["bound", "--n", "5", "--k", "3"], ("--n", "--k")),
    (["search-tuples", "--k", "3", "--n", "1", "--N", "100"],
     ("--k", "--n", "--N")),
    (["search-tuples", "--k", "2", "--n", "1", "--N", "100"], ("--n", "--N")),
    (["search-bipartite", "--k", "3", "--n", "1", "--N", "100"],
     ("--k", "--n", "--N")),
    (["search-bipartite", "--k", "2", "--n", "1", "--N", "100"],
     ("--n", "--N")),
    (["verify", "--k", "3", "--n", "1", "--tuple", "1,7"], ("--k", "--n")),
    (["sieve", "--set", "2,9", "--n", "100", "--k", "3", "--L", "1"],
     ("--k", "--n")),
    (["sieve", "--audit", "2", "--N", "1000"], ("--audit", "--N")),
    (["ff-scan", "--mode", "bipartite", "--p", "97", "--k", "3", "--lam",
      "1"], ("--p", "--k", "--lam")),
    (["ff-scan", "--mode", "clique", "--p", "97", "--k", "3", "--lam", "1"],
     ("--p", "--k", "--lam")),
    (["ff-scan", "--mode", "bipartite", "--p", "97", "--k", "3",
      "--lam-max", "2"], ("--lam-max",)),
    (["ff-scan", "--mode", "clique", "--p", "499", "--k", "2", "--lam-max",
      "2"], ("--lam-max",)),
    (["char-sum", "--p", "97", "--k", "3", "--A", "1,2", "--B", "1,2"],
     ("--p", "--k")),
    (["char-sum", "--k", "3", "--max-p", "100"], ("--k", "--max-p")),
    (["char-sum", "--k", "2", "--max-p", "20000", "--interval", "5"],
     ("--interval",)),
    (["thue-scan", "--a", "2", "--b", "1", "--k", "3", "--c", "1", "--X",
      "100"], ("--k", "--c", "--X")),
)
# sieve_pipeline trial-divides |n| for its shift_prime_drag diagnostic
_HUGE_HANGS = {("sieve", "--n")}
# inputs that once ended in a traceback: an audit universe smaller than a
# trial's set, and files that are not UTF-8 (NOT_UTF8 names one)
_TRACEBACKS = (
    ["sieve", "--audit", "25", "--seed", "7", "--N", "5"],
    ["search-tuples", "--config", "NOT_UTF8", "--N", "100"],
    ["sieve", "--set-file", "NOT_UTF8", "--n", "100", "--k", "3", "--L", "1"],
)


def _huge_inputs():
    for base, flags in _HUGE_BASES:
        for flag in flags:
            argv = list(base)
            argv[argv.index(flag) + 1] = _BIG
            marks = [pytest.mark.xfail(
                strict=True, reason="ROADMAP item 7: trial division of |n|")] \
                if (base[0], flag) in _HUGE_HANGS else []
            yield pytest.param(argv, marks=marks,
                               id=" ".join(argv).replace(_BIG, "BIG"))
    for argv in _TRACEBACKS:
        yield pytest.param(argv, id=" ".join(argv))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("argv", _huge_inputs())
def test_huge_parameter_is_answered_or_refused(argv, tmp_path):
    # within 5 s and 1 GiB of address space: an answer or exit 1, never a
    # hang, a MemoryError or another traceback
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("k = 3\nn = \u00b11\n".encode("latin-1"))
    argv = [str(not_utf8) if arg == "NOT_UTF8" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "diotuple", *argv],
                          capture_output=True, text=True, timeout=5,
                          env=_CHILD_ENV, preexec_fn=_limit_address_space)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    if str(not_utf8) in argv:
        # one error line naming the flag and the file
        flag = argv[argv.index(str(not_utf8)) - 1]
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {flag} {not_utf8}: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
