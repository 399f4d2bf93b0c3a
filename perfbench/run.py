"""Benchmark runner for diotuple: one workload, one seed, one result line.

    python3 perfbench/run.py --workload tuples-tall --seed 1 --seconds 25 --trace 0

Closed loop, one client: the jobs of a workload run one after another, each
in a fresh interpreter started from `src/` of this checkout, and the loop
repeats the whole list for about `--seconds` (at least twice).  Every job's exit code
and stdout are checked against `goldens.json`; a job that times out,
crashes, exits with another code or prints other bytes counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` each repetition runs the list untraced and
then traced (`trace.py`) and the line reports the per-layer metrics.  A
fuller report with provenance, per-job figures and the traced profile is
written to `.perfbench/` in the checkout; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import workloads
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = BENCH / "goldens.json"

SETUP_SAMPLES = 11
JOB_TIMEOUT = 60.0  # about ten times the slowest job at the seed commit
RUN_DEADLINE = 170.0  # no job may run past this many seconds into a run

LAYERS = ("exact", "core", "search", "bounds", "sieve", "ff", "cli")
TIMED = ("search.kth_power_residues", "ff.ff_scan_bipartite",
         "ff.ff_scan_clique", "ff.char_sum", "bounds.thue_scan",
         "bounds.bound_reports")
COUNTED = ("search.candidates_for", "exact.integer_kth_root",
           "exact.is_perfect_kth_power", "exact.compare_value_to_power",
           "exact.trial_factor", "exact.is_prime", "core.verify_tuple",
           "core.verify_bipartite", "core.check_gap_quadruple")


class JobRun(NamedTuple):
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | None  # None when the job was killed at its timeout
    stdout: bytes
    error: str | None  # why the job counts as failed; None when it passed
    spans: dict | None = None


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def command(job: Job, spans: Path | None = None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(BENCH / "trace.py"), str(spans),
                job.kind, *job.args]
    if job.kind == "cli":
        return [sys.executable, "-m", "diotuple", *job.args]
    return [sys.executable, str(BENCH / "jobs.py"), *job.args]


def spawn(cmd: list[str], out_path: Path, timeout: float):
    """Run cmd to completion; (wall s, rusage, exit code or None on timeout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    killed = []
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def on_alarm(signum, frame):
            killed.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, None if killed else proc.returncode


def check(job: Job, exit_code: int | None, stdout: bytes, goldens: dict) -> str | None:
    """None when the job's exit code and stdout match the goldens."""
    if exit_code is None:
        return "timed out"
    if job.kind == "cli":
        want = goldens["cli"].get(" ".join(job.args))
        if want is None:
            return "no golden for this argv"
        if exit_code != want["exit"]:
            return f"exit {exit_code}, golden {want['exit']}"
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return "stdout differs from golden"
        return None
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        lines = stdout.decode().splitlines()
    except UnicodeDecodeError:
        return "stdout is not text"
    if [line.split("\t", 1)[0] for line in lines] != list(job.args):
        return "items missing or out of order"
    for item, line in zip(job.args, lines):
        if goldens["items"].get(item) != line_digest(line):
            return f"{item} differs from golden"
    return None


def run_job(job: Job, goldens: dict, deadline: float, tag: str,
            traced: bool = False) -> JobRun:
    out_path = OUT / f"{tag}.out"
    spans_path = OUT / f"{tag}.spans.json" if traced else None
    timeout = min(JOB_TIMEOUT, deadline - time.perf_counter())
    if timeout <= 0:
        return JobRun(job, 0.0, 0.0, 0.0, None, b"", "not started: run deadline")
    wall, usage, exit_code = spawn(command(job, spans_path), out_path, timeout)
    stdout = out_path.read_bytes()
    error = check(job, exit_code, stdout, goldens)
    spans = None
    if traced and exit_code is not None:
        spans = json.loads(spans_path.read_text())
        if not spans["restored"]:
            error = error or "a trace wrapper was left in place"
    return JobRun(job, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, exit_code, stdout, error, spans)


def run_pass(jobs: list[Job], goldens: dict, deadline: float,
             traced: bool = False) -> list[JobRun]:
    mode = "traced" if traced else "plain"
    return [run_job(job, goldens, deadline, f"{mode}-{i}", traced)
            for i, job in enumerate(jobs)]


def pass_wall(runs: list[JobRun]) -> float:
    return sum(r.wall_s for r in runs)


def measure_setup(deadline: float) -> list[float]:
    """Wall time of a fresh interpreter importing diotuple and building the
    CLI parser (`python -m diotuple --help`); the first, untimed call lets
    the interpreter write its bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, code = spawn([sys.executable, "-m", "diotuple", "--help"],
                              OUT / "setup.out",
                              min(JOB_TIMEOUT, deadline - time.perf_counter()))
        if code != 0:
            raise RuntimeError(f"`diotuple --help` exited with {code}")
        if i:
            samples.append(wall)
    return samples


# ------------------------------------------------------------------ traces

def analyse(docs: list[dict]) -> dict:
    """Per-name calls, inclusive and self time, per-layer self time, from spans."""
    calls, inclusive, layer_self = Counter(), Counter(), Counter()
    counters, caches = Counter(), {}
    covered = 0.0
    for doc in docs:
        names, nm, par = doc["names"], doc["span_name"], doc["parent"]
        dur = [e - s for s, e in zip(doc["start"], doc["end"])]
        child = [0.0] * len(nm)
        for i, p in enumerate(par):
            if p >= 0:
                child[p] += dur[i]
        for i, p in enumerate(par):
            name = names[nm[i]]
            calls[name] += 1
            layer_self[name.split(".")[0]] += dur[i] - child[i]
            while p >= 0 and nm[p] != nm[i]:
                p = par[p]
            if p < 0:  # outermost span of this name: no double counting
                inclusive[name] += dur[i]
            if par[i] < 0:
                covered += dur[i]
        counters.update(doc["counters"])
        for name, info in doc["caches"].items():
            total = caches.setdefault(name, Counter())
            total.update(info)
    return {"calls": calls, "inclusive": inclusive, "layer_self": layer_self,
            "counters": counters, "caches": caches, "covered": covered}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(plain: list[JobRun], traced: list[JobRun]) -> dict[str, float]:
    a = analyse([r.spans for r in traced])
    calls, inc, own, counters = a["calls"], a["inclusive"], a["layer_self"], a["counters"]
    m = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    for name in TIMED:
        m[f"{name}.s"] = inc[name]
    for name in COUNTED:
        m[f"{name}.calls"] = calls[name]
    kpr = a["caches"].get("search.kth_power_residues")
    if kpr is not None:
        m["search.kth_power_residues.calls"] = kpr["hits"] + kpr["misses"]
        m["search.kth_power_residues.hit_ratio"] = _ratio(kpr["hits"], kpr["hits"] + kpr["misses"])
    else:
        m["search.kth_power_residues.calls"] = calls["search.kth_power_residues"]
        m["search.kth_power_residues.hit_ratio"] = 0.0
    m["search.multipliers_per_s"] = _ratio(counters["search.multipliers"], own["search"])
    m["ff.scanned_per_s"] = _ratio(counters["ff.scanned"], inc["ff.ff_scan_bipartite"])
    m["bounds.thue_boxes_per_s"] = _ratio(calls["bounds.thue_scan"], inc["bounds.thue_scan"])
    m["sieve.usable_ratio"] = _ratio(counters["sieve.usable"], counters["sieve.evaluations"])
    cli = [r for r in plain if r.job.kind == "cli"]
    m["cli.records"] = sum(r.stdout.count(b"\n") for r in cli)
    m["cli.stdout_bytes"] = sum(len(r.stdout) for r in cli)
    m["cli.cpu_s"] = sum(r.cpu_s for r in cli)
    m["trace.wall_s"] = pass_wall(traced)
    m["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    m["trace.outside_s"] = pass_wall(traced) - a["covered"]
    return m


def counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that are counts or ratios of counts, not times or rates."""
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}


def fidelity(plain: list[JobRun], traced: list[JobRun]) -> list[str]:
    """Ways in which the traced pass differs from the untraced one."""
    out = []
    for p, t in zip(plain, traced):
        if t.stdout != p.stdout or t.exit != p.exit:
            out.append(f"traced output differs: {' '.join(p.job.args)[:80]}")
    return out


# -------------------------------------------------------------- provenance

def provenance(seed: int) -> dict:
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "diotuple").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath, "git_sha": git_sha,
            "source_sha256": tree.hexdigest(), "seed": seed,
            "machine": platform.machine()}


def timing_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (None with fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "samples": n, "tail": tail}


# -------------------------------------------------------------------- main

def load_declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "diotuple" / "__init__.py").is_file():
        print(f"error: no diotuple sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_declared()
    goldens = json.loads(GOLDENS.read_text())
    jobs = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE
    load_before = os.getloadavg()
    setup = measure_setup(deadline)
    measure_end = time.perf_counter() + args.seconds
    passes: list[list[JobRun]] = []  # in trace mode: plain, traced, plain, ...
    pairs: list[tuple[list[JobRun], list[JobRun], dict]] = []
    problems: list[str] = []
    failed_fidelity = 0
    while True:
        pass_start = time.perf_counter()
        plain = run_pass(jobs, goldens, deadline)
        passes.append(plain)
        if args.trace:
            traced = run_pass(jobs, goldens, deadline, traced=True)
            passes.append(traced)
            mismatched = fidelity(plain, traced)
            problems += mismatched
            failed_fidelity += len(mismatched)
            if all(r.spans is not None for r in traced):
                pairs.append((plain, traced, layer_metrics(plain, traced)))
        # stop before a repetition that would end after --seconds, so that
        # a run takes about --seconds whatever the speed of the machine
        now = time.perf_counter()
        took = now - pass_start
        enough = len(passes) >= 2  # two plain passes, or one plain/traced pair
        if (enough and now + took > measure_end) or now + took > deadline:
            break
    load_after = os.getloadavg()

    runs = [r for p in passes for r in p]
    attempted = len(runs)
    failed = sum(r.error is not None for r in runs) + failed_fidelity
    problems += [f"{r.error}: {' '.join(r.job.args)[:80]}" for r in runs if r.error]
    if args.trace:
        repeated = [counts(m) for _, _, m in pairs]
        if any(c != repeated[0] for c in repeated[1:]):
            problems.append("per-layer counts differ between repetitions")
        if not pairs:
            problems.append("no complete traced pass")
    nproc = os.cpu_count() or 1
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed),
        "load_before": load_before, "load_after": load_after,
        "suspect": max(load_before[0], load_after[0]) > nproc,
        "jobs": [list(j.args) if j.kind == "cli" else [f"{len(j.args)} items", j.args[0]]
                 for j in jobs],
        "setup_s": timing_summary(setup),
        "passes": [{"traced": bool(args.trace and i % 2),
                    "wall_s": pass_wall(p),
                    "job_wall_s": [r.wall_s for r in p],
                    "job_cpu_s": [r.cpu_s for r in p],
                    "job_rss_mb": [r.rss_mb for r in p]}
                   for i, p in enumerate(passes)],
        "problems": problems,
    }

    if args.trace:
        metrics = {}
        for name in per_layer:
            values = [m[name] for _, _, m in pairs] or [0.0]
            metrics[name] = statistics.median(values)
        wall = metrics["trace.wall_s"]
        report["profile"] = {name: round(_ratio(value, wall), 4)
                             for name, value in sorted(metrics.items())
                             if name.endswith(".self_s") or name.endswith(".s")
                             or name == "trace.outside_s"}
        units = per_layer
    else:
        walls = [pass_wall(p) for p in passes]
        report["wall_s"] = timing_summary(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "ok_share": (attempted - failed) / attempted,
        }
        units = end_to_end
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    report["metrics"] = metrics
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"{tag}: {len(passes)} passes, walls "
          f"{', '.join(f'{pass_wall(p):.3f}' for p in passes)} s, "
          f"load {load_before[0]:.2f} -> {load_after[0]:.2f}"
          f"{' (SUSPECT: load above nproc)' if report['suspect'] else ''}",
          file=sys.stderr)
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    if args.trace:
        top = sorted(report["profile"].items(), key=lambda kv: -kv[1])[:8]
        print("  profile: " + ", ".join(f"{k} {v:.0%}" for k, v in top), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
