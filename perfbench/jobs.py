"""Library jobs of the certify-mix workload.

Each job runs a slice of one acceptance criterion through the library, in
its own interpreter, the way the acceptance suite calls it:

    python perfbench/jobs.py <item> [<item> ...]

An item is `<job>:<key>`, one entry of the menus in `workloads.py`.  For
every item the job prints one line, `<item>\\t<canonical result>`, so that
each line can be checked against the golden recorded for that item,
whatever slice a seed picks.  A result that breaks the criterion's own
assertion ends the job with exit code 3, as the CLI does for a failed
invariant.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys
from fractions import Fraction

from diotuple import bounds, core, ff, search, sieve

THUE_X = 10 ** 4
GAP_HEIGHT = 10 ** 5
SIEVE_N = 10 ** 4
GALLAGHER_BATCH = 100


class CriterionFailed(Exception):
    """A library result contradicts the acceptance criterion it comes from."""


def _wire(obj):
    """Canonical text form of a result: exact values stay exact."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _wire(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _wire(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wire(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ints(key: str) -> list[int]:
    return [int(part) for part in key.split(",")]


# ----------------------------------------------------------------- runners

def _thue(key: str):
    a, b, k = _ints(key)
    reports = [bounds.thue_scan(a, b, k, c, THUE_X) for c in range(21)]
    if any(r.lemma_violation for r in reports):
        raise CriterionFailed(f"thue {key}: two large primitive solutions")
    return reports


def _clique(key: str):
    p, k, lam = _ints(key)
    r = ff.ff_scan_clique(ff.FieldConfig(p, k, lam))
    if r.violation:
        raise CriterionFailed(f"clique {key}: size above the bound")
    return r


def _charsum(key: str):
    p, k = _ints(key)
    r = ff.char_sum(range(p), range(p), ff.FieldConfig(p, k))
    if r.magnitude != 0.0 or r.zero_hits != p:
        raise CriterionFailed(f"charsum {key}: full-field sum did not cancel")
    return r


def _gallagher(key: str):
    rng = random.Random(int(key))
    pool = sieve.primes_up_to(1000)
    out = []
    for _ in range(GALLAGHER_BATCH):
        A = rng.sample(range(1, SIEVE_N + 1), rng.randint(1, 60))
        P = rng.sample(pool, rng.randint(1, 25))
        ev = sieve.gallagher_bound(A, SIEVE_N, P)
        if ev.bound is not None and len(set(A)) > ev.bound + 1e-9:
            raise CriterionFailed(f"gallagher {key}: bound undercounted")
        out.append(ev)
    return out


def _pipeline(key: str):
    n, k, L = key.split(",")
    n, k = int(n), int(k)
    # every third natural up to |n|, which lies inside [1, |n|^L] for L >= 1
    A = list(range(1, abs(n) + 1, 3))
    return sieve.sieve_pipeline(A, n, k, L)


def _gap(key: str):
    n = int(key)
    cfg = core.TupleConfig(k=3, n=n)
    certs = []
    for a in range(1, 101):
        for b in range(a + 1, 101):
            common = search.candidates_for([a, b], cfg, GAP_HEIGHT)
            for c, d in itertools.combinations(common, 2):
                if a * c >= 2 * abs(n):
                    cert = core.check_gap_quadruple(a, b, c, d, cfg)
                    if not cert.holds:
                        raise CriterionFailed(f"gap {key}: {(a, b, c, d)}")
                    certs.append(cert)
    return certs


def _bounds(key: str):
    n, k, L = key.split(",")
    return bounds.bound_reports(int(n), int(k),
                                None if L == "-" else Fraction(L))


RUNNERS = {
    "thue": _thue,
    "clique": _clique,
    "charsum": _charsum,
    "gallagher": _gallagher,
    "pipeline": _pipeline,
    "gap": _gap,
    "bounds": _bounds,
}


def run(argv: list[str], out) -> int:
    """Run items such as `thue:3,1,4` in order, one output line each."""
    for item in argv:
        job, _, key = item.partition(":")
        try:
            result = RUNNERS[job](key)
        except CriterionFailed as exc:
            print(f"CRITERION FAILED: {exc}", file=sys.stderr)
            return 3
        text = json.dumps(_wire(result), separators=(",", ":"))
        out.write(f"{item}\t{text}\n")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], sys.stdout))
