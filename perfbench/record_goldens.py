"""Record the golden outputs of every input any seed can produce.

    python3 perfbench/record_goldens.py

Runs each CLI argv and each library item of the workload menus once, from
`src/` of this checkout, and writes `perfbench/goldens.json`: for a CLI job
its exit code and the sha256 of its stdout, for a library item the digest
of its output line.  Run it only at a commit whose outputs are known good;
every later run of the benchmark is checked against this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import workloads
from run import GOLDENS, JOB_TIMEOUT, OUT, command, line_digest, spawn
from workloads import Job

CHUNK = 50  # library items per interpreter


def main() -> int:
    OUT.mkdir(exist_ok=True)
    argvs, items = workloads.every_input()
    goldens = {"cli": {}, "items": {}}
    out_path = OUT / "golden.out"
    for argv in argvs:
        wall, _, code = spawn(command(Job("cli", argv)), out_path, JOB_TIMEOUT)
        if code is None:
            print(f"timed out: {' '.join(argv)}", file=sys.stderr)
            return 1
        goldens["cli"][" ".join(argv)] = {
            "exit": code,
            "sha256": hashlib.sha256(out_path.read_bytes()).hexdigest()}
        print(f"{wall:6.2f}s exit {code}  {' '.join(argv)}", file=sys.stderr)
    for start in range(0, len(items), CHUNK):
        chunk = tuple(items[start:start + CHUNK])
        t0 = time.perf_counter()
        _, _, code = spawn(command(Job("lib", chunk)), out_path, 10 * JOB_TIMEOUT)
        if code != 0:
            print(f"library items failed (exit {code}): {chunk[0]}...", file=sys.stderr)
            return 1
        for line in out_path.read_text().splitlines():
            goldens["items"][line.split("\t", 1)[0]] = line_digest(line)
        print(f"{time.perf_counter() - t0:6.2f}s {len(chunk)} items from {chunk[0]}",
              file=sys.stderr)
    if len(goldens["items"]) != len(items):
        print("some library items printed no line", file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
