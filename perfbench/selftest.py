"""Checks that the benchmark's own checks work.

    python3 perfbench/selftest.py

- a corrupted golden (CLI sha256 or library item digest) counts as a failure;
- a job that hangs is killed at its timeout and counts as a failure
  (the input is the `sieve` call that trial-divides an 18-digit prime);
- the traced run prints the untraced bytes, removes every wrapper, and its
  per-layer counts repeat exactly from one run to the next;
- self time is computed correctly from a hand-made span tree.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run
from workloads import Job

HANG = Job("cli", ("sieve", "--set", "2,9", "--n", "1000000000000000003",
                   "--k", "3", "--L", "1"))
CLI_JOB = Job("cli", ("search-bipartite", "--k", "2", "--n", "1", "--N", "600"))
LIB_JOB = Job("lib", ("gap:2", "bounds:-7,5,5/3", "gallagher:3"))


def far() -> float:
    return time.perf_counter() + 120


def corrupted_golden(goldens: dict) -> None:
    assert run.run_job(CLI_JOB, goldens, far(), "self-cli").error is None
    assert run.run_job(LIB_JOB, goldens, far(), "self-lib").error is None
    bad = copy.deepcopy(goldens)
    entry = bad["cli"][" ".join(CLI_JOB.args)]
    entry["sha256"] = entry["sha256"][::-1]
    assert run.run_job(CLI_JOB, bad, far(), "self-cli").error == \
        "stdout differs from golden"
    bad = copy.deepcopy(goldens)
    bad["items"]["bounds:-7,5,5/3"] = "0" * 16
    assert run.run_job(LIB_JOB, bad, far(), "self-lib").error == \
        "bounds:-7,5,5/3 differs from golden"
    bad = copy.deepcopy(goldens)
    bad["cli"][" ".join(CLI_JOB.args)]["exit"] = 2
    assert run.run_job(CLI_JOB, bad, far(), "self-cli").error.startswith("exit 0")


def hang_times_out(goldens: dict) -> None:
    t0 = time.perf_counter()
    result = run.run_job(HANG, goldens, time.perf_counter() + 2.0, "self-hang")
    assert result.error == "timed out", result.error
    assert time.perf_counter() - t0 < 10


def trace_fidelity(goldens: dict) -> None:
    plain = [run.run_job(j, goldens, far(), f"self-plain-{i}")
             for i, j in enumerate((CLI_JOB, LIB_JOB))]
    repeated = []
    for rep in range(2):
        traced = [run.run_job(j, goldens, far(), f"self-traced-{i}", traced=True)
                  for i, j in enumerate((CLI_JOB, LIB_JOB))]
        assert all(r.error is None for r in traced), [r.error for r in traced]
        assert not run.fidelity(plain, traced)
        assert all(r.spans["restored"] for r in traced)
        m = run.layer_metrics(plain, traced)
        repeated.append(run.counts(m))
    assert repeated[0] == repeated[1], repeated
    assert repeated[0]["core.verify_bipartite.calls"] > 0
    assert repeated[0]["search.candidates_for.calls"] > 0


def self_time() -> None:
    # root [0, 10] > child [1, 4] > grandchild of the same name [2, 3]
    doc = {"names": ["cli.main", "search.kth_power_residues"],
           "span_name": [0, 1, 1], "parent": [-1, 0, 1],
           "start": [0.0, 1.0, 2.0], "end": [10.0, 4.0, 3.0],
           "counters": {}, "caches": {}}
    a = run.analyse([doc])
    assert a["layer_self"]["cli"] == 7.0
    assert a["layer_self"]["search"] == 3.0
    assert a["inclusive"]["search.kth_power_residues"] == 3.0
    assert a["calls"]["search.kth_power_residues"] == 2
    assert a["covered"] == 10.0


def main() -> int:
    if not __debug__:
        print("the checks are assert statements; run without -O", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    goldens = json.loads(run.GOLDENS.read_text())
    checks = [("corrupted golden counts as a failure", lambda: corrupted_golden(goldens)),
              ("hanging job is killed at its timeout", lambda: hang_times_out(goldens)),
              ("traced run is faithful and repeatable", lambda: trace_fidelity(goldens)),
              ("self time from spans", self_time)]
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
