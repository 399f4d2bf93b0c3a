"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
criterion states its tolerance and asserts its runtime budget; nothing here
is skipped or deferred.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from diotuple.bounds import (
    derive_cubic_threshold,
    evertse_constants,
    table_constants,
    tail_term,
    thue_scan,
)
from diotuple.core import TupleConfig, check_gap_quadruple
from diotuple.ff import FieldConfig, char_sum, ff_scan_bipartite, ff_scan_clique
from diotuple.search import (
    SearchBudget,
    brute_force_tuples,
    candidates_for,
    search_tuples,
)
from diotuple.sieve import gallagher_bound, primes_up_to

SHIFTS = [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]


@contextmanager
def criterion(num: int, desc: str, tolerance: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc} | tolerance: {tolerance}")
        raise
    dt = time.perf_counter() - t0
    line = (f"criterion {num}: {desc} | tolerance: {tolerance} | "
            f"{dt:.2f}s (budget {budget:.0f}s)")
    if dt >= budget:
        print("FAIL " + line)
        raise AssertionError(f"criterion {num} exceeded its runtime budget")
    print("PASS " + line)


def test_criterion_1_exact_constants():
    with criterion(1, "exact constant reproduction", "exact equality", 1.0):
        assert derive_cubic_threshold() == Fraction(15399, 938)
        assert table_constants(3).t == Fraction(15399, 938)
        for k in range(7, 51):
            assert table_constants(k).t == Fraction(
                k * k + k - 4, k * k - 6 * k + 6)
        assert evertse_constants(4)[0] == Fraction(5)
        assert evertse_constants(5)[0] == Fraction(13, 4)
        assert evertse_constants(6)[0] == Fraction(8, 3)


def test_criterion_2_tail_term_anchor():
    with criterion(2, "tail term at (k, L) = (3, 3)", "1e-9 relative", 1.0):
        got = tail_term(3, 3)
        want = 19.7548875022
        assert abs(got - want) / want < 1e-9


def test_criterion_3_gap_certificates():
    with criterion(
            3,
            "gap principle on every admissible quadruple "
            "(k=3, |n|<=5, a<b<=100, c<d<=1e5)",
            "exact arithmetic, zero violations", 300.0):
        checked = 0
        for n in SHIFTS:
            cfg = TupleConfig(k=3, n=n)
            for a in range(1, 101):
                for b in range(a + 1, 101):
                    common = candidates_for([a, b], cfg, 10**5)
                    for c, d in itertools.combinations(common, 2):
                        if a * c >= 2 * abs(n):
                            cert = check_gap_quadruple(a, b, c, d, cfg)
                            assert cert.holds, (n, a, b, c, d)
                            checked += 1
        assert checked > 0  # the suite must actually exercise the bound


def test_criterion_4_search_oracle_equivalence():
    with criterion(
            4, "search equals reference enumeration "
            "(k in {3,4,5}, |n|<=5, N=2000)",
            "element-for-element equality", 120.0):
        for k in (3, 4, 5):
            for n in SHIFTS:
                cfg = TupleConfig(k=k, n=n)
                got = search_tuples(cfg, SearchBudget(height=2000))
                want = brute_force_tuples(cfg, 2000, 2)
                assert [t.elements for t in got.results] == \
                       [t.elements for t in want.results], (k, n)
                assert not got.truncated


def test_criterion_5_candidate_anchors():
    with criterion(5, "candidate sets at the two pinned inputs",
                   "exact equality", 1.0):
        assert candidates_for([1], TupleConfig(k=3, n=1), 100) == [7, 26, 63]
        assert candidates_for([1, 2], TupleConfig(k=3, n=1), 400) == []


def test_criterion_6_sieve_soundness():
    with criterion(6, "larger-sieve soundness on 1000 seeded random sets",
                   "|A| <= bound whenever the bound exists", 60.0):
        rng = random.Random(20250801)
        pool = primes_up_to(1000)
        finite = 0
        for _ in range(1000):
            A = rng.sample(range(1, 10**4 + 1), rng.randint(1, 60))
            P = rng.sample(pool, rng.randint(1, 25))
            ev = gallagher_bound(A, 10**4, P)
            if ev.bound is not None:
                finite += 1
                assert len(set(A)) <= ev.bound + 1e-9
        assert finite > 0


def test_criterion_7_field_scans():
    with criterion(
            7, "prime-field size inequalities "
            "(bipartite p<=100, clique p<=200)",
            "zero violations", 600.0):
        for p in primes_up_to(100):
            for k in (2, 3, 4, 5, 6):
                if (p - 1) % k:
                    continue
                for lam in range(1, min(10, p - 1) + 1):
                    r = ff_scan_bipartite(FieldConfig(p, k, lam), 3)
                    assert r.violations == (), (p, k, lam)
                    if r.min_slack is not None:
                        assert r.min_slack >= 0, (p, k, lam)
        for p in primes_up_to(200):
            for k in range(2, p):
                if (p - 1) % k:
                    continue
                for lam in (1, 2):
                    if lam > p - 1:
                        continue
                    r = ff_scan_clique(FieldConfig(p, k, lam))
                    assert not r.violation, (p, k, lam)


def test_criterion_8_character_orthogonality():
    with criterion(
            8, "full-field character sums cancel (p<=200, every k | p-1)",
            "magnitude exactly 0.0", 30.0):
        for p in primes_up_to(200):
            for k in range(2, p):
                if (p - 1) % k:
                    continue
                r = char_sum(range(p), range(p), FieldConfig(p, k))
                assert r.magnitude == 0.0, (p, k)
                assert r.zero_hits == p


def test_criterion_9_thue_large_solutions():
    with criterion(
            9, "at most one large primitive solution per box "
            "(a,b<=10, k in {3,4,5}, c<=20, X=1e4)",
            "exact threshold comparison, zero double-larges", 30.0):
        for k in (3, 4, 5):
            for a in range(1, 11):
                for b in range(1, 11):
                    for c in range(0, 21):
                        rep = thue_scan(a, b, k, c, 10**4)
                        assert not rep.lemma_violation, (a, b, k, c)
