"""Search engine: candidate enumeration, maximal tuples, bipartite pairs."""

import importlib.util
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import primerange
from sympy.ntheory.residue_ntheory import nthroot_mod

from diotuple import search
from diotuple.core import BipartitePair, TupleConfig, verify_bipartite
from diotuple.errors import InputError, InvariantViolation
from diotuple.exact import is_perfect_kth_power
from diotuple.search import (
    SearchBudget,
    SearchOutcome,
    brute_force_tuples,
    candidates_for,
    kth_power_residues,
    search_bipartite,
    search_tuples,
)
from diotuple.search import (_candidates_single, _gap_floor_check,
                             _power_side_table, _prime_roots,
                             _residue_route)
from diotuple.sieve import primes_up_to


# ---------------------------------------------------------------- reference

def _kth_root_floor(m, k):
    if m <= 0:
        return 0
    r = int(round(m ** (1.0 / k)))
    while r**k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


def _is_kth_power(m, k):
    if m < 1:
        return None
    r = _kth_root_floor(m, k)
    return r if r**k == m else None


def _cands_naive(a, k, n, N):
    return [b for b in range(1, N + 1) if _is_kth_power(a * b + n, k)]


def _cands_fast(a, k, n, N):
    out = []
    limit = a * N + n
    if limit < 1:
        return out
    for x in range(1, _kth_root_floor(limit, k) + 1):
        v = x**k - n
        if v >= a and v % a == 0:
            out.append(v // a)
    return out


def bipartite_oracle(k, n, N, minA, minB, capA=6):
    """A-side-maximal pairs by breadth-first set growth; independent of
    the engine under test."""

    def B_of(A):
        sets = [set(_cands_fast(a, k, n, N)) for a in A]
        out = set.intersection(*sets) if sets else set()
        return frozenset(b for b in out if b <= N)

    seen = set()
    frontier = []
    for a in range(1, N + 1):
        A = frozenset([a])
        if len(B_of(A)) >= minB:
            frontier.append(A)
            seen.add(A)
    maximal = []
    while frontier:
        nxt = []
        for A in frontier:
            B = B_of(A)
            ext = [ap for ap in range(1, N + 1)
                   if ap not in A and len(B_of(A | {ap})) >= minB]
            if not ext:
                if len(A) >= minA and len(B) >= minB:
                    maximal.append((tuple(sorted(A)), tuple(sorted(B))))
            else:
                for ap in ext:
                    A2 = A | {ap}
                    if A2 not in seen and len(A2) <= capA:
                        seen.add(A2)
                        nxt.append(A2)
        frontier = nxt
    out = set()
    for A, B in maximal:
        if (min(B), list(B)) < (min(A), list(A)):
            A, B = B, A
        out.add((A, B))
    return sorted(out)


def reference_search_bipartite(config, budget):
    """The depth-first A-side growth that search_bipartite replaced.

    The enumerated side grows one element at a time; its partner side is
    always the full candidate set.  A pair is emitted when no further
    element keeps the partner side at min_partner, then oriented
    canonically and deduplicated.  Exponential in the largest
    neighborhood, so only for small heights.
    """
    N, k, n = budget.height, config.k, config.n
    min_a, min_b = budget.min_size, budget.min_partner

    def partners(v: int) -> set[int]:
        return set(_candidates_single(v, k, n, N))

    def extend(side: list[int], partner: set[int], sink: list):
        viable = {}
        reachable = set().union(*(partners(b) for b in partner)) - set(side)
        for ap in sorted(reachable):
            shrunk = partner & partners(ap)
            if len(shrunk) >= min_b:
                viable[ap] = shrunk
        if not viable:
            if len(side) >= min_a and len(partner) >= min_b:
                sink.append((tuple(side), tuple(sorted(partner))))
            return
        for ap, shrunk in viable.items():
            if ap > side[-1]:
                extend(side + [ap], shrunk, sink)

    def per_leading(a1: int) -> list:
        first = partners(a1)
        if len(first) < min_b:
            return []
        sink = []
        extend([a1], first, sink)
        return sink

    chunks = [per_leading(a1) for a1 in range(1, N + 1)]
    oriented = set()
    for chunk in chunks:
        for A, B in chunk:
            if (min(B), B) < (min(A), A):
                A, B = B, A
            oriented.add((A, B))
    found = sorted(oriented)
    truncated = len(found) > budget.max_results
    found = found[:budget.max_results]
    return SearchOutcome(
        tuple(BipartitePair(config, A, B) for A, B in found), truncated)


# ---------------------------------------------------------------- residues

def test_kth_power_residues_vs_brute():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 200)
        k = rng.randint(2, 6)
        t = rng.randint(-m, m)
        want = sorted(x for x in range(m) if pow(x, k, m) == t % m)
        assert sorted(kth_power_residues(m, k, t)) == want


def test_kth_power_residues_composite_anchor():
    # x^3 = 1 mod 9 forces x = 1, 4, 7
    assert sorted(kth_power_residues(9, 3, 1)) == [1, 4, 7]
    assert sorted(kth_power_residues(625, 2, 4)) == sorted(
        x for x in range(625) if pow(x, 2, 625) == 4)


def test_kth_power_residues_vs_nthroot_mod():
    # the prime power 64 = 2^6, 106 = 2 * 53, and moduli with two or three
    # prime-power factors; sympy's nthroot_mod is an independent route
    rng = random.Random(11)
    moduli = [64, 66, 72, 77, 100, 105, 106, 221, 240, 360, 441, 735, 864,
              900, 2021]
    for m in moduli:
        for k in range(2, 7):
            if m <= 120:
                targets = range(m)
            else:
                targets = ([0, 1, -1, m - 1]
                           + [pow(rng.randrange(m), k, m) for _ in range(20)]
                           + [rng.randrange(-m, m) for _ in range(10)])
            for t in targets:
                got = kth_power_residues(m, k, t)
                assert list(got) == nthroot_mod(t % m, k, m, all_roots=True), \
                    (m, k, t)


# --------------------------------------------------------------- candidates

def test_candidates_frozen():
    assert candidates_for([1], TupleConfig(k=3, n=1), 100) == [7, 26, 63]
    assert candidates_for([1, 2], TupleConfig(k=3, n=1), 400) == []
    assert candidates_for([1], TupleConfig(k=3, n=-1), 30) == [2, 9, 28]


def test_candidates_errors():
    cfg = TupleConfig(k=3, n=1)
    with pytest.raises(InputError):
        candidates_for([], cfg, 10)
    with pytest.raises(InputError):
        candidates_for([0], cfg, 10)
    with pytest.raises(InputError):
        candidates_for([1], cfg, 0)


def test_candidates_single_all_paths_vs_naive():
    # a within the power range (a == 1 among them, with the single residue
    # class mod 1), a beyond it up to the height, and a beyond the height;
    # all must agree with the definitional loop
    for a, k, n, N in [
        (1, 3, 1, 300),
        (8, 3, 1, 10_000),  # residue stepping (a <= xmax)
        (72, 3, -5, 10_000),
        (300, 3, 1, 400),  # direct x scan (xmax < a <= N)
        (977, 4, 3, 500),  # direct x scan (a >= N)
        (400, 2, -1, 400),
        (400, 2, -3, 400),
        (400, 3, 1, 400),
        (400, 3, -2, 400),
        (1_562_500, 3, 1, 200),  # far beyond the table
    ]:
        got = list(_candidates_single(a, k, n, N))
        assert got == _cands_naive(a, k, n, N)


def test_candidates_single_at_the_height_builds_no_table(monkeypatch):
    # at k = 2 the multiplier a = N (n < 0) is often the only one above its
    # power range; a point query answers it without the divisor table
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(search, "_power_side_table", no_table)
    _candidates_single.cache_clear()
    for n in (-1, -3):
        assert list(_candidates_single(5000, 2, n, 5000)) == \
            _cands_naive(5000, 2, n, 5000)
    _candidates_single.cache_clear()


def test_candidates_random_vs_naive():
    rng = random.Random(2024)
    for _ in range(60):
        a = rng.randint(1, 500)
        k = rng.randint(2, 5)
        n = rng.choice([1, -1, 2, -2, 5, -7, 24])
        N = rng.randint(1, 400)
        assert list(_candidates_single(a, k, n, N)) == _cands_naive(a, k, n, N)


def test_candidates_power_side_table_vs_naive():
    # every multiplier above its power range (xmax < a <= N), which the
    # searches read from the divisor table and _row from its point query
    cases = [(k, n, N) for k in range(2, 7)
             for n in (1, -1, 2, -2, 3, -3, 5, -7, 24, 100)
             for N in (1, 2, 7, 60, 120)]
    cases += [(3, 1, 400), (3, -2, 400), (4, 5, 400), (6, -7, 400)]
    table_path = set()
    for k, n, N in cases:
        for a in range(1, N + 1):
            if a * N + n >= 1 and a > _kth_root_floor(a * N + n, k):
                table_path.add((a, k, n, N))
                assert list(_candidates_single(a, k, n, N)) == \
                    _cands_naive(a, k, n, N), (a, k, n, N)
    # once N exceeds |n|, k = 2 is above its power range only at a = N,
    # n < 0, and then the searches build no table
    assert {(a, n, N) for a, k, n, N in table_path if k == 2 and N >= 60} \
        == {(N, n, N) for N in (60, 120) for n in (-1, -2, -3, -7)}
    # shifts with x^k <= n have powers that give no m >= 1
    assert (120, 6, 100, 120) in table_path


def test_power_side_table_skips_large_primes():
    # 21^3 - 1 = 2^2 * 5 * 463: 463 fits in neither side at height 100, so
    # that power contributes nothing; at height 463 it factors completely
    def factorizations(N, m):
        return {(a, b) for a, bs in _power_side_table(3, 1, N).items()
                for b in bs if a * b == m}

    assert factorizations(100, 9260) == set()
    assert factorizations(463, 9260) == {(20, 463), (463, 20)}
    assert _power_side_table(3, 1, 1) == {}
    assert 463 not in _candidates_single(20, 3, 1, 100)
    assert list(_candidates_single(20, 3, 1, 100)) == _cands_naive(20, 3, 1, 100)


def test_prime_roots_match_nthroot_mod():
    # a scan of the k-th powers tells residues from non-residues, and sympy
    # gives the roots of each residue by its own route.  Every residue of
    # the primes below 300, which take every route: one power, and
    # Adleman-Manders-Miller over q^e | gcd(k, p - 1) with q^t | p - 1 up
    # to 2^8.  Up to 2000, seeded residues and k-th powers: 12 of each
    # where gcd(k, p - 1) > 1, else 3.
    rng = random.Random(2000)
    for p in primerange(2, 2000):
        for k in range(2, 8):
            powers = sorted({pow(x, k, p) for x in range(p)})
            if p < 300:
                residues = range(p)
            else:
                draws = 12 if math.gcd(k, p - 1) > 1 else 3
                residues = rng.sample(range(p), draws) + \
                    rng.sample(powers, min(draws, len(powers)))
            for n in residues:
                got = _prime_roots(k, n, p)
                if n in powers:
                    assert got == nthroot_mod(n, k, p, all_roots=True), \
                        (p, k, n)
                else:
                    assert got == [], (p, k, n)


def _trial_division_table(k, n, N):
    """Every a <= N mapped to its sorted cofactors b <= N with a*b + n = x^k,
    from each x^k - n factored by trial division over the primes <= N."""
    top = N * N + n
    if top < 1:
        return {}
    primes = primes_up_to(N)
    table = {}
    x = 1
    while x ** k <= top:
        m = x ** k - n
        x += 1
        if m < 1:
            continue
        factors, rest = [], m
        for p in primes:
            if p * p > rest:
                break
            while rest % p == 0:
                rest //= p
                factors.append(p)
        if rest > N:
            continue  # a prime factor fits in neither side
        if rest > 1:
            factors.append(rest)
        divisors = {1}
        for p in factors:
            divisors |= {d * p for d in divisors}
        for a in sorted(divisors):
            if a <= N and m // a <= N:
                table.setdefault(a, []).append(m // a)
    return {a: tuple(bs) for a, bs in table.items()}


def test_power_side_table_matches_trial_division():
    # every shift at the small heights; at 5000 and 40000, where the sieve
    # and the split of what it leaves do the most, the shifts +-1, +-2,
    # +-100 and 8 seeded others
    rng = random.Random(40000)
    shifts = [n for n in range(-100, 101) if n]
    for k in range(3, 7):
        for n in shifts:
            for N in (1, 2, 7, 60, 120, 400):
                assert _power_side_table(k, n, N) == \
                    _trial_division_table(k, n, N), (k, n, N)
        for n in {1, -1, 2, -2, 100, -100, *rng.sample(shifts, 8)}:
            for N in (5000, 40000):
                assert _power_side_table(k, n, N) == \
                    _trial_division_table(k, n, N), (k, n, N)


def test_residue_route_is_k2_below_the_height():
    # rows only at k = 2 with |n| < N, whatever the degree or the shift
    for N in (1, 2, 3, 60, 1000):
        for n in (-N * N, -N - 1, -N, 1 - N, -1, 1, N - 1, N, N + 1, N ** 4):
            if n:
                assert _residue_route(2, n, N) == (abs(n) < N), (n, N)
                for k in (3, 4, 10 ** 12):
                    assert not _residue_route(k, n, N), (k, n, N)
    # there each residue class of row a holds at most sqrt(2N/a) + 1 of
    # the x <= iroot(a*N + n, 2) the row steps through
    for N in (2, 3, 60, 1000):
        for n in (1 - N, -1, 1, N - 1):
            for a in range(1, N + 1):
                xmax = math.isqrt(max(a * N + n, 0))
                assert xmax // a <= math.isqrt(2 * N // a), (a, n, N)


def _stepped(a, n, N):
    """How many x the k = 2 row of a steps through: each x <= xmax above the
    power range, otherwise the members of the residue classes x^2 ≡ n."""
    limit = a * N + n
    if limit < 1:
        return 0
    xmax = math.isqrt(limit)
    if a > xmax:
        return xmax
    return sum(len(range(r if r >= 1 else a, xmax + 1, a))
               for r in kth_power_residues(a, 2, n))


def test_residue_rows_step_within_their_charge():
    # _search_cost charges the rows route N^2 / 2 residue tests, the O(a)
    # residue scans of the rows up to N; the candidates the rows then step
    # through must not outnumber them.  At |n| < N they do not; far above
    # the height they do (10^14 at N = 1000 steps through 2 * 10^8), so
    # widening the route past |n| < N fails here.
    cases = [(n, N) for N in range(2, 13) for n in range(-2 * N, 2 * N + 1)]
    cases += [(n, N) for N in (60, 300, 2000)
              for n in (1 - N, -1, 1, N // 2, N - 1)]
    cases += [(10 ** 14, 1000), (60 ** 4, 60), (-(60 ** 4), 60)]
    for n, N in cases:
        if n and _residue_route(2, n, N):
            stepped = sum(_stepped(a, n, N) for a in range(1, N + 1))
            assert stepped <= N * (N + 1) // 2, (n, N)
    assert sum(_stepped(a, 10 ** 14, 1000) for a in range(1, 1001)) > 10 ** 7


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 300), st.integers(2, 6),
       st.integers(-60, 60).filter(bool), st.integers(1, 300))
def test_candidates_single_matches_definition(a, k, n, N):
    assert list(_candidates_single(a, k, n, N)) == _cands_naive(a, k, n, N)


def test_candidates_anti_monotone():
    # adding a multiplier can only shrink the candidate set
    rng = random.Random(5)
    cfg = TupleConfig(k=3, n=-1)
    for _ in range(30):
        base = rng.sample(range(1, 40), rng.randint(1, 3))
        extra = rng.randint(1, 40)
        big = set(candidates_for(base, cfg, 500))
        small = set(candidates_for(base + [extra], cfg, 500))
        assert small <= big


def test_each_search_builds_every_row_once(monkeypatch):
    # at k >= 3 a search reads its graph from one table build and calls no
    # _row; at k = 2 with |n| < N it builds the row of every multiplier
    # once, straight from the row function, and no table; either way it
    # leaves candidates_for's cache as it was
    calls, builds = Counter(), Counter()
    row, table = search._row, search._power_side_table

    def counting_row(a, k, n, N):
        calls[a, k, n, N] += 1
        return row(a, k, n, N)

    def counting_table(k, n, N):
        builds[k, n, N] += 1
        return table(k, n, N)

    monkeypatch.setattr(search, "_row", counting_row)
    monkeypatch.setattr(search, "_power_side_table", counting_table)
    _candidates_single.cache_clear()
    for (k, n, N), rows, tables in (
            ((3, 1, 257), Counter(), Counter({(3, 1, 257): 1})),
            ((2, 1, 300), Counter({(a, 2, 1, 300): 1 for a in range(1, 301)}),
             Counter()),
            ((2, -299, 300),
             Counter({(a, 2, -299, 300): 1 for a in range(1, 301)}),
             Counter())):
        for run in (search_tuples, search_bipartite):
            calls.clear()
            builds.clear()
            assert run(TupleConfig(k, n),
                       SearchBudget(height=N, min_partner=1)).results
            assert calls == rows, (k, n, N)
            assert builds == tables, (k, n, N)
            assert _candidates_single.cache_info().currsize == 0


def test_band_of_the_height_alone_builds_no_table(monkeypatch):
    # k = 2 with n < 0: only a = N is above its power range, and the point
    # query answers it; the dense searches run every row through _row
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(search, "_power_side_table", no_table)
    for n in (-1, -3, 1, 4):
        cfg = TupleConfig(k=2, n=n)
        got = search_tuples(cfg, SearchBudget(height=300))
        assert got == brute_force_tuples(cfg, 300, 2), n


def test_search_cap_refuses_before_building(monkeypatch):
    def spy(*args):
        raise AssertionError("built before the cost was estimated")

    for name in ("_row", "_power_side_table", "kth_power_residues"):
        monkeypatch.setattr(search, name, spy)
    # far too tall; residue rows past the time cap at k = 2; a huge degree;
    # a shift so negative that the table is the graph and the sieve would
    # hold about 0.7 N values; the densest k = 2 table, whose bipartite
    # walk would take over a minute (28.7 s at N = 10^5)
    for k, n, N in ((3, 1, 10 ** 12), (2, 1, 40000), (10 ** 9, 1, 10 ** 8),
                    (2, -10 ** 14 // 2, 10 ** 7),
                    (2, -2 * 10 ** 5, 2 * 10 ** 5)):
        for run in (search_tuples, search_bipartite):
            with pytest.raises(InputError, match="above the cap"):
                run(TupleConfig(k=k, n=n), SearchBudget(height=N))


def test_shifts_above_the_height_build_no_rows(monkeypatch):
    # the table sieves only the x with x^k - n in [1, N^2], none or a
    # handful here, where rows would step through iroot(n, k) / a
    # candidates each (k = 2, n = 10^14, N = 1000 took 11 s and 436 MB
    # that way, and n = 10^22 ran out of memory)
    def no_row(*args):
        raise AssertionError("row built")

    monkeypatch.setattr(search, "_row", no_row)
    for k, n, N in ((2, 10 ** 14, 1000), (2, 10 ** 22, 2),
                    (3, 10 ** 12, 10 ** 4), (3, 3 ** 40, 1000)):
        for run in (search_tuples, search_bipartite):
            start = time.process_time()
            run(TupleConfig(k=k, n=n), SearchBudget(height=N))
            elapsed = time.process_time() - start
            assert elapsed < 0.1, (k, n, N, run.__name__, elapsed)


def test_searches_match_references_where_the_table_replaced_rows():
    # the two regimes that read residue rows before and the table now:
    # k >= 3 with N - 1 within its power range (heights below about
    # n^(1/(k-1))), and k = 2 with n >= N
    cases = [(k, n, N) for k in (3, 4, 5) for N in (2, 3, 5, 10, 30, 100)
             for n in (N ** k, 3 * N ** k + 1, 7 ** k * N ** k, 10 ** 12 + 1)]
    cases += [(2, n, N) for N in (1, 2, 3, 10, 60, 100)
              for n in (N, N + 1, 2 * N + 3, N * N, 10 ** 6, 10 ** 8 + 7)]
    for k, n, N in cases:
        assert k == 2 or (N - 1) ** k <= (N - 1) * N + n, (k, n, N)
        cfg = TupleConfig(k=k, n=n)
        for min_a in (1, 2):
            assert search_tuples(cfg, SearchBudget(height=N, min_size=min_a)) \
                == brute_force_tuples(cfg, N, min_a), (k, n, N, min_a)
            for min_b in (1, 2):
                budget = SearchBudget(height=N, min_size=min_a,
                                      min_partner=min_b)
                assert search_bipartite(cfg, budget) == \
                    reference_search_bipartite(cfg, budget), \
                    (k, n, N, min_a, min_b)


def test_candidates_cap_refuses_before_building(monkeypatch):
    # a multiplier within its power range scans its a residue classes: at
    # a = N = 10^9 that is 10^9 tests, refused before any scan starts, as
    # is a point query of 10^9 powers above the range
    def spy(*args):
        raise AssertionError("scanned before the cost was estimated")

    monkeypatch.setattr(search, "kth_power_residues", spy)
    for A, k, N in (([10 ** 9], 2, 10 ** 9), ([3, 10 ** 9], 2, 10 ** 9),
                    ([10 ** 12], 3, 10 ** 15)):
        with pytest.raises(InputError, match="above the cap"):
            candidates_for(A, TupleConfig(k=k, n=1), N)
    # each test is charged one cofactor's bytes and a time per word of
    # a*N + n: the row of 2^16 at k = 16, n = 2^16 holds a cofactor of
    # every even x, 2.1 million at N = 2^336 and 16 times that at 2^400
    with pytest.raises(InputError, match="MiB, above the cap"):
        candidates_for([2 ** 16], TupleConfig(k=16, n=2 ** 16), 2 ** 400)


def test_candidates_above_the_power_range_build_no_table(monkeypatch):
    # 10^5 lies above its power range at height 3 * 10^7, where the table
    # would sieve about 10^5 values; the point query tests 14422 powers
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(search, "_power_side_table", no_table)
    got = candidates_for([10 ** 5], TupleConfig(k=3, n=1), 3 * 10 ** 7)
    assert got == []


def test_search_cost_admits_the_known_inputs():
    # the largest inputs of the tests, k = 2 well past the bench's N = 6000,
    # and sieves over 0.7 N and N values at k = 2 all fall inside both caps
    for k, n, N in ((2, 1, 6000), (2, -3, 6000), (2, 1, 20000),
                    (2, -1, 20000), (3, -2, 40000), (3, 1, 10 ** 7),
                    (4, 1, 10 ** 7), (2, -10 ** 10 // 2, 10 ** 5),
                    (2, -10 ** 5, 10 ** 5)):
        ns, size = search._search_cost(k, n, N)
        assert ns <= search.SEARCH_SECONDS_CAP * 10 ** 9, (k, n, N)
        assert size <= search.SEARCH_BYTES_CAP, (k, n, N)


def test_bench_search_inputs_are_admitted():
    # a cost model change must not turn a bench job into exit 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs, _ = workloads.every_input()
    searches = [argv for argv in argvs if argv[0].startswith("search-")]
    assert len(searches) == 12
    for argv in searches:
        flags = dict(zip(argv[1::2], argv[2::2]))
        k, n, N = int(flags["--k"]), int(flags["--n"]), int(flags["--N"])
        ns, size = search._search_cost(k, n, N)
        assert ns <= search.SEARCH_SECONDS_CAP * 10 ** 9, argv
        assert size <= search.SEARCH_BYTES_CAP, argv


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(3, 6), st.integers(-100, 100).filter(bool),
       st.integers(1, 300), st.integers(1, 3), st.integers(1, 3))
@example(3, -100, 12, 1, 1)  # every multiplier above its power range
@example(3, 5, 3, 1, 1)  # only N above its power range
@example(3, 1, 300, 2, 1)
def test_table_band_searches_match_references(k, n, N, min_a, min_b):
    cfg = TupleConfig(k=k, n=n)
    assert search_tuples(cfg, SearchBudget(height=N, min_size=min_a)) == \
        brute_force_tuples(cfg, N, min_a)
    budget = SearchBudget(height=N, min_size=min_a, min_partner=min_b)
    assert search_bipartite(cfg, budget) == \
        reference_search_bipartite(cfg, budget)


# ------------------------------------------------------------ tuple search

def _elems(outcome):
    return [t.elements for t in outcome.results]


def test_search_tuples_frozen():
    cases = {
        (3, -1, 10): [(1, 2), (1, 9), (4, 7)],
        (3, 1, 30): [(1, 7), (1, 26), (2, 13), (3, 21), (7, 9), (18, 19),
                     (26, 28)],
        (3, 1, 5): [],
        (9, 1, 100): [(7, 73)],
        (3, -1, 30): [(1, 2), (1, 9), (1, 28), (2, 14), (4, 7), (5, 13),
                      (6, 21), (7, 18), (9, 14), (19, 27)],
        (4, -3, 100): [(1, 4), (1, 19), (1, 84), (2, 42), (3, 28), (4, 21),
                       (6, 14), (7, 12), (7, 37)],
    }
    for (k, n, N), want in cases.items():
        out = search_tuples(TupleConfig(k=k, n=n), SearchBudget(height=N))
        assert _elems(out) == want
        assert not out.truncated


def test_search_matches_brute_force():
    for k in (3, 4):
        for n in (1, -1, 2, -3):
            cfg = TupleConfig(k=k, n=n)
            got = _elems(search_tuples(cfg, SearchBudget(height=60)))
            want = _elems(brute_force_tuples(cfg, 60, 2))
            assert got == want, (k, n)


def test_search_matches_brute_force_on_the_table_path():
    # at height 1500 the power-side table is the whole graph
    cfg = TupleConfig(k=3, n=1)
    got = _elems(search_tuples(cfg, SearchBudget(height=1500)))
    assert got == _elems(brute_force_tuples(cfg, 1500, 2))
    assert len(got) > 100


def test_searches_match_references_with_singletons_and_k2_tables():
    # min_size = 1 emits every multiplier without a partner alone, merged
    # into the walk's results; k = 2 with n < 1 - N reads the table alone
    cases = [(k, n, N) for k in (2, 3, 4) for n in (1, -1, 2, -3)
             for N in (1, 2, 9, 60, 300)]
    cases += [(2, n, N) for N in (2, 9, 60, 300)
              for n in (-N, -2 * N - 1, -N * N // 2, 1 - N * N)]
    for k, n, N in cases:
        cfg = TupleConfig(k=k, n=n)
        for cap in (10 ** 5, 7):
            budget = SearchBudget(height=N, min_size=1, max_results=cap)
            want = brute_force_tuples(cfg, N, 1)
            assert search_tuples(cfg, budget) == SearchOutcome(
                want.results[:cap], len(want.results) > cap), (k, n, N, cap)
        if N <= 60:
            for min_b in (1, 2):
                budget = SearchBudget(height=N, min_size=1,
                                      min_partner=min_b)
                assert search_bipartite(cfg, budget) == \
                    reference_search_bipartite(cfg, budget), (k, n, N)


def test_search_results_are_maximal():
    cfg = TupleConfig(k=3, n=-1)
    N = 50
    out = search_tuples(cfg, SearchBudget(height=N))
    for t in out.results:
        others = candidates_for(t.elements, cfg, N)
        assert not (set(others) - set(t.elements)), t.elements


def test_brute_force_isolated_singletons():
    # with no edges at all, min_size=1 reports every vertex alone
    out = brute_force_tuples(TupleConfig(k=3, n=1), 5, 1)
    assert _elems(out) == [(1,), (2,), (3,), (4,), (5,)]
    # and min_size=2 reports nothing
    assert _elems(brute_force_tuples(TupleConfig(k=3, n=1), 5, 2)) == []


def test_brute_force_caps():
    cfg = TupleConfig(k=3, n=1)
    with pytest.raises(InputError):
        brute_force_tuples(cfg, 10**4 + 1, 2)
    with pytest.raises(InputError):
        brute_force_tuples(cfg, 0, 2)


def test_search_truncation():
    cfg = TupleConfig(k=3, n=1)
    full = search_tuples(cfg, SearchBudget(height=30))
    cut = search_tuples(cfg, SearchBudget(height=30, max_results=2))
    assert cut.truncated and not full.truncated
    assert _elems(cut) == _elems(full)[:2]


def test_search_budget_validation():
    with pytest.raises(InputError):
        SearchBudget(height=0)
    with pytest.raises(InputError):
        SearchBudget(height=10, min_size=0)
    with pytest.raises(InputError):
        SearchBudget(height=10, max_results=0)


def test_gap_floor_check_trips_on_fabricated_candidate():
    # (x,y,z,w) = (1,2,9,10): y*w = 20 sits under the exact floor 2187/16,
    # so a search offering that extension must abort loudly
    cfg = TupleConfig(k=3, n=-1)
    with pytest.raises(InvariantViolation):
        _gap_floor_check([1, 2, 9], [10], cfg)
    # too-short chains and small x*z are out of the check's hypotheses
    _gap_floor_check([1, 2], [10], cfg)
    _gap_floor_check([1, 2, 9], [10], TupleConfig(k=3, n=-300))


# -------------------------------------------------------- bipartite search

def _pairs(outcome):
    return [(p.A, p.B) for p in outcome.results]


def test_search_bipartite_frozen():
    out = search_bipartite(
        TupleConfig(k=3, n=-1),
        SearchBudget(height=30, min_size=1, min_partner=3))
    assert _pairs(out) == [((1,), (2, 9, 28))]

    out = search_bipartite(
        TupleConfig(k=3, n=-1),
        SearchBudget(height=30, min_size=2, min_partner=2))
    assert _pairs(out) == [((1, 14), (2, 9))]

    out = search_bipartite(
        TupleConfig(k=3, n=1),
        SearchBudget(height=50, min_size=1, min_partner=2))
    assert _pairs(out) == [
        ((1,), (7, 26)), ((1, 9), (7,)), ((1, 28), (26,)),
        ((7, 38), (9,)), ((9, 35), (38,)),
    ]


def test_search_bipartite_matches_oracle():
    for k, n, N, minA, minB in [
        (3, 1, 30, 1, 2),
        (3, -1, 30, 1, 2),
        (3, -1, 25, 2, 2),
        (3, 2, 30, 1, 2),
        (4, -3, 40, 1, 2),
    ]:
        got = _pairs(search_bipartite(
            TupleConfig(k=k, n=n),
            SearchBudget(height=N, min_size=minA, min_partner=minB)))
        assert got == bipartite_oracle(k, n, N, minA, minB), (k, n, N)


def test_search_bipartite_pairs_verify():
    out = search_bipartite(
        TupleConfig(k=3, n=-1),
        SearchBudget(height=40, min_size=1, min_partner=2))
    for p in out.results:
        assert min(p.A) <= min(p.B)
        for a in p.A:
            for b in p.B:
                assert is_perfect_kth_power(a * b - 1, 3)


def test_search_bipartite_matches_reference_grid():
    # the closed-set enumeration against the depth-first growth it replaced
    for k, N in ((2, 60), (3, 400), (4, 400)):
        for n in (-3, -1, 1, 2, 4):
            cfg = TupleConfig(k=k, n=n)
            for min_a in (1, 2, 3):
                for min_b in (1, 2, 3):
                    budget = SearchBudget(height=N, min_size=min_a,
                                          min_partner=min_b)
                    assert search_bipartite(cfg, budget) == \
                        reference_search_bipartite(cfg, budget), \
                        (k, n, N, min_a, min_b)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 5), st.integers(-12, 12).filter(bool),
       st.integers(1, 60), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 40))
def test_search_bipartite_matches_reference(k, n, N, min_a, min_b, cap):
    cfg = TupleConfig(k=k, n=n)
    budget = SearchBudget(height=N, min_size=min_a, min_partner=min_b,
                          max_results=cap)
    assert search_bipartite(cfg, budget) == \
        reference_search_bipartite(cfg, budget)


def test_search_bipartite_at_scale():
    # far beyond the reach of the depth-first growth (N = 20000 did not
    # finish in minutes); the closed-set route takes about 0.1 s
    N, min_a, min_b = 20000, 2, 1
    cfg = TupleConfig(k=3, n=1)
    start = time.perf_counter()
    out = search_bipartite(cfg, SearchBudget(height=N, min_size=min_a,
                                             min_partner=min_b))
    elapsed = time.perf_counter() - start
    pairs = _pairs(out)
    assert not out.truncated and len(pairs) > 600
    assert pairs == sorted(set(pairs))

    def nbr(v):
        return set(_candidates_single(v, 3, 1, N))

    def enumerated_side_is_maximal(side, partner):
        # partner is all common candidates of side, and no other element
        # (every one with a candidate in partner is a candidate of some
        # element of partner) keeps min_b of them
        if len(side) < min_a or set.intersection(*map(nbr, side)) != set(partner):
            return False
        others = set().union(*map(nbr, partner)) - set(side)
        return all(len(nbr(v) & set(partner)) < min_b for v in others)

    for A, B in pairs:
        assert verify_bipartite(A, B, cfg).ok
        assert list(A) == sorted(set(A)) and list(B) == sorted(set(B))
        assert (A[0], A) <= (B[0], B)
        assert enumerated_side_is_maximal(A, B) or \
            enumerated_side_is_maximal(B, A), (A, B)
    assert elapsed < 10, f"took {elapsed:.2f} s against a 10 s budget"
