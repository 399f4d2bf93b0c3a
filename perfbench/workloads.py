"""The four workloads: fixed input menus and the seeded choice among them.

A workload run is a list of jobs run one after another, each in a fresh
interpreter.  A CLI job is a `diotuple` argv; a library job is a list of
items of `jobs.py`.  The seed only picks entries from the menus below, so
every input a seed can produce has a golden output recorded in
`goldens.json`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ("tuples-tall", "tuples-dense", "field-bipartite", "certify-mix")

# Menus of (shift, height).  Entries of one menu cost about the same, so the
# seed changes the inputs but not the amount of work: the bulk of a search
# (trial powers for k = 3, the residue scan for k = 2) runs over every
# multiplier whatever the shift.  Negative shifts are left out of
# TALL_PAIRS because that bipartite search costs about 1.7 times as much
# with them.
TALL_TUPLES = ((1, 40000), (-1, 40000), (2, 40000), (-2, 40000))
TALL_PAIRS = ((1, 5000), (2, 5000))
DENSE_TUPLES = ((1, 6000), (4, 6000))
DENSE_TUPLES_NEG = ((-1, 6000), (-3, 6000))
DENSE_PAIRS = ((1, 600), (4, 600))
FIELD_SHIFTS = tuple(range(1, 97))
FIELD_JOBS = 10


def _primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


# Library menus: one key per item of jobs.py.
def _thue_menu() -> list[str]:
    # criterion 9: a, b <= 10, k in {3, 4, 5}; one item covers c = 0..20
    return [f"{a},{b},{k}" for k in (3, 4, 5)
            for a in range(1, 11) for b in range(1, 11)]


def _clique_menu() -> list[str]:
    # criterion 7, clique half: p <= 200, every k | p - 1, lam in {1, 2}
    return [f"{p},{k},{lam}" for p in _primes(200)
            for k in range(2, p) if (p - 1) % k == 0
            for lam in (1, 2) if lam <= p - 1]


def _charsum_menu() -> list[str]:
    # criterion 8: full-field sums, p <= 200, every k | p - 1
    return [f"{p},{k}" for p in _primes(200)
            for k in range(2, p) if (p - 1) % k == 0]


def _gallagher_menu() -> list[str]:
    # criterion 6 in batches: each batch is 100 sets from its own stream
    return [str(b) for b in range(64)]


def _pipeline_menu() -> list[str]:
    return [f"{n},{k},{L}" for n in (100, -100, 360, -360, 1001, 2310)
            for k in (3, 5) for L in ("1", "3/2")]


def _gap_menu() -> list[str]:
    # criterion 3: one item is one shift over a < b <= 100 at height 1e5
    return [str(n) for n in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)]


def _bounds_menu() -> list[str]:
    # bound_reports over shifts and degrees, with no L, the midpoint of the
    # admissible L range and its closed upper end
    out = []
    for n in (1, -1, 2, -2, 3, -3, 7, -7, 100, -100, 10 ** 6, -10 ** 6):
        for k in range(3, 13):
            lo, hi = Fraction(k, 2 * k - 4), Fraction(k, k - 2)
            for L in ("-", str((lo + hi) / 2), str(hi)):
                out.append(f"{n},{k},{L}")
    return out


LIBRARY_MENUS = {
    "thue": _thue_menu(),
    "clique": _clique_menu(),
    "charsum": _charsum_menu(),
    "gallagher": _gallagher_menu(),
    "pipeline": _pipeline_menu(),
    "gap": _gap_menu(),
    "bounds": _bounds_menu(),
}


class Job(NamedTuple):
    kind: str  # "cli" or "lib"
    args: tuple[str, ...]  # diotuple argv, or jobs.py items


def _tuples(k: int, n: int, N: int) -> Job:
    return Job("cli", ("search-tuples", "--k", str(k), "--n", str(n),
                       "--N", str(N)))


def _pairs(k: int, n: int, N: int, extra=()) -> Job:
    return Job("cli", ("search-bipartite", "--k", str(k), "--n", str(n),
                       "--N", str(N), *extra))


def _field(lam: int) -> Job:
    return Job("cli", ("ff-scan", "--mode", "bipartite", "--p", "97",
                       "--k", "3", "--maxA", "3", "--lam", str(lam)))


def _lib(job: str, keys) -> Job:
    return Job("lib", tuple(f"{job}:{key}" for key in keys))


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload run for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tuples-tall":
        return [_tuples(3, *rng.choice(TALL_TUPLES)),
                _pairs(3, *rng.choice(TALL_PAIRS), ("--minA", "2", "--minB", "1"))]
    if workload == "tuples-dense":
        return [_tuples(2, *rng.choice(DENSE_TUPLES)),
                _tuples(2, *rng.choice(DENSE_TUPLES_NEG)),
                _pairs(2, *rng.choice(DENSE_PAIRS))]
    if workload == "field-bipartite":
        return [_field(lam) for lam in rng.sample(FIELD_SHIFTS, FIELD_JOBS)]
    if workload == "certify-mix":
        menu = LIBRARY_MENUS
        sieve = (_lib("gallagher", rng.sample(menu["gallagher"], 10)).args
                 + _lib("pipeline", rng.sample(menu["pipeline"], 4)).args)
        return [
            _lib("thue", rng.sample(menu["thue"], 12)),
            _lib("clique", menu["clique"]),
            _lib("charsum", menu["charsum"]),
            Job("lib", sieve),
            _lib("gap", rng.sample(menu["gap"], 6)),
            _lib("bounds", rng.sample(menu["bounds"], 120)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def every_input() -> tuple[list[tuple[str, ...]], list[str]]:
    """Every CLI argv and every library item that any seed can produce."""
    argvs = [_tuples(3, *e).args for e in TALL_TUPLES]
    argvs += [_pairs(3, *e, ("--minA", "2", "--minB", "1")).args
              for e in TALL_PAIRS]
    argvs += [_tuples(2, *e).args for e in DENSE_TUPLES + DENSE_TUPLES_NEG]
    argvs += [_pairs(2, *e).args for e in DENSE_PAIRS]
    argvs += [_field(lam).args for lam in FIELD_SHIFTS]
    items = [f"{job}:{key}" for job, keys in LIBRARY_MENUS.items()
             for key in keys]
    return argvs, items
