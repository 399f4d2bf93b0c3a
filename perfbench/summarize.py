"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workloads tuples-tall ...] [--trace 0] [--out summary.json]

Runs `run.py` once per workload and seed, one run at a time, and prints for
every metric the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread (q3 - q1) / median next to the bound in BENCHMARK.json.  With
`--out` the values are also written as JSON (the form of `baseline.json`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from run import ROOT


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    result = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "nproc": os.cpu_count(), "workloads": {}}
    for workload in args.workloads:
        lines = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stderr.write(proc.stderr)
            lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        names = list(lines[0]["metrics"])
        entry = {"correct": all(line["correct"] for line in lines),
                 "attempted": sum(line["attempted"] for line in lines),
                 "failed": sum(line["failed"] for line in lines),
                 "metrics": {name: summary([line["metrics"][name]["value"]
                                            for line in lines])
                             for name in names}}
        result["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f"  bound {bound:.2f} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.2%}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
