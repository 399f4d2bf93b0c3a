"""Height-bounded search for shifted-product tuples and bipartite pairs.

The kernel: every cofactor b of a multiplier a with a*b + n = x^k comes
from a power x^k, so candidates are enumerated on the power side and
mapped back, never by scanning b.  Each search reads one graph, every
multiplier with a partner mapped to its partners.  At k = 2 with |n| < N
the graph is built row by row: each row steps through the residues
x^2 ≡ n (mod a), found by one O(a) scan, with a point query above the
power range.  Everywhere else it is the divisor table of the values
x^k - n in [1, N^2], built by sieving them with the roots of x^k ≡ n
modulo each prime.  A search or candidate query whose estimated cost
passes its cap is refused before any row is built.  Tuple search
is depth-first extension over intersected candidate sets; an exact
gap-principle floor cross-checks every deep extension.  Bipartite search
enumerates closed partner sets: by the symmetry of a*b + n = x^k, every
A-side-maximal pair (A, B) has B an intersection of neighborhoods and A
the common neighborhood of B, so the pairs are read off the closed sets
without growing A one element at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from itertools import islice

from .core import (BipartitePair, DiophantineTuple, TupleConfig,
                   gap_lower_bound)
from .errors import InputError, InvariantViolation
from .exact import factor, integer_kth_root, trial_factor
from .sieve import primes_up_to

# the quadratic reference search refuses heights beyond this
ORACLE_CAP = 10 ** 4
# a search whose estimated time or memory (see _search_cost) passes these
# is refused before anything is built
SEARCH_SECONDS_CAP = 60
SEARCH_BYTES_CAP = 2 * 2 ** 30
# What one unit of a search costs at most, in (nanoseconds, bytes), measured
# on a 2-core AMD EPYC box under CPython 3.11 over search_tuples and
# search_bipartite up to N = 18000 at k = 2 with n >= 1 - N, 3 * 10^5 at
# n = -N, 6 * 10^5 at n = -N^2 / 2 and 10^7 at k >= 3: a residue test of a
# k = 2 row (the dense walk included), with the rows it builds; a sieved
# value x^k - n, with its factors and table entries, at k = 2, 3, 4 and any
# larger k (x^k - n splits into more factors, with more divisors, as k
# grows); a multiplier up to N (the whole walk at k >= 3).  The bipartite
# walk over a k = 2 table grows faster than X: at n = -N it took 540, 830
# and 780 ns times X * sqrt(X) at N = 3 * 10^4, 10^5 and 3 * 10^5.
_RESIDUE_COST = (120, 6000)
_SIEVED_COST = ((25_000, 1700), (40_000, 3500), (80_000, 14_000),
                (150_000, 50_000))
_ROW_COST = (1000, 24)
_WALK_NS = 1000
_CANDIDATE_BYTES = 96  # a row's x and cofactor b, with their list slots


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a search run.

    height: largest element considered (N); min_size: smallest tuple (or
    A-side) emitted; min_partner: smallest B-side emitted (bipartite only);
    max_results: output cap, exceeding it sets the truncation flag.
    """

    height: int
    min_size: int = 2
    min_partner: int = 2
    max_results: int = 10 ** 5

    def __post_init__(self):
        if self.height < 1:
            raise InputError(f"height must be >= 1, got {self.height}")
        if self.min_size < 1 or self.min_partner < 1:
            raise InputError("size floors must be >= 1")
        if self.max_results < 1:
            raise InputError("max_results must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple
    truncated: bool


def kth_power_residues(modulus: int, k: int, target: int) -> tuple[int, ...]:
    """Sorted x mod modulus with x^k ≡ target (mod modulus), by direct scan."""
    target %= modulus
    return tuple(x for x in range(modulus) if pow(x, k, modulus) == target)


def _qth_root(a: int, q: int, p: int, h: int) -> int:
    """One x with x^q ≡ a (mod p), for a prime q dividing p - 1, a q-th
    power residue a ≢ 0 and a q-th power non-residue h.

    Adleman–Manders–Miller in Tonelli–Shanks form (Tonelli–Shanks itself
    at q = 2).  With p - 1 = q^t * s, q ∤ s, the guess x = a^(q^-1 mod s)
    leaves err = x^q / a in the subgroup of order q^(t-1); each step
    multiplies x by a power of z = h^s, of order q^t, that lowers the order
    of err, found by a discrete log among the q-th roots of unity.
    """
    s, t = p - 1, 0
    while s % q == 0:
        s //= q
        t += 1
    x = pow(a, pow(q, -1, s), p)
    err = pow(x, q, p) * pow(a, -1, p) % p
    if err == 1:
        return x
    z = pow(h, s, p)
    omega = pow(z, q ** (t - 1), p)  # order q
    while err != 1:
        m, e = 0, err
        while e != 1:
            e = pow(e, q, p)
            m += 1
        # err has order q^m; its power of order q is omega^j
        top = pow(err, q ** (m - 1), p)
        j, w = 1, omega
        while w != top:
            w = w * omega % p
            j += 1
        # u has order q^(m+1) and u^(q^m) = omega, so err * u^(-jq) has
        # order dividing q^(m-1)
        fix = pow(pow(z, q ** (t - m - 1), p), -j, p)
        x = x * fix % p
        err = err * pow(fix, q, p) % p
    return x


def _prime_roots(k: int, n: int, p: int) -> list[int]:
    """Sorted x in [0, p) with x^k ≡ n (mod p), for a prime p.

    With d = gcd(k, p - 1), n has roots iff n^((p-1)/d) ≡ 1, and then
    x^k ≡ n iff x^d ≡ n^s for s the inverse of k/d mod (p-1)/d: a single
    root when d = 1, and else the d roots taken one prime q | d at a time,
    each q-th root times the q-th roots of unity.
    """
    n %= p
    if n == 0:
        return [0]
    d = math.gcd(k, p - 1)
    if pow(n, (p - 1) // d, p) != 1:
        return []
    roots = [pow(n, pow(k // d, -1, (p - 1) // d), p)]
    for q, e in trial_factor(d):
        h = 2  # the least q-th power non-residue
        while pow(h, (p - 1) // q, p) == 1:
            h += 1
        omega = pow(h, (p - 1) // q, p)  # order q
        for _ in range(e):
            roots = [y * pow(omega, i, p) % p
                     for r in roots if pow(r, (p - 1) // q, p) == 1
                     for y in (_qth_root(r, q, p, h),) for i in range(q)]
    return sorted(roots)


def _power_range(k: int, n: int, N: int) -> tuple[int, int]:
    """(first, X): the x with x^k - n in [1, N^2] run from first to X; none
    when first > X.  Every pair a*b + n = x^k with a, b <= N has such an x."""
    top = N * N + n
    X = integer_kth_root(top, k) if top > 0 else 0
    first = integer_kth_root(n, k) + 1 if n > 0 else 1
    return first, X


def _power_side_table(k: int, n: int, N: int) -> dict[int, tuple[int, ...]]:
    """Every a <= N mapped to its sorted cofactors b <= N with a*b + n = x^k.

    Each x in _power_range gives m = x^k - n, and every factorization
    m = a*b with a, b <= N is one entry; a prime factor of m above N fits
    in neither a nor b, so such m contribute nothing.  The values are
    sieved: each prime p <= min(X, N) is divided out along the classes of
    the roots of x^k ≡ n (mod p).  What is left of m has every prime factor
    above that bound and is split by exact.factor.  Cofactors arrive in
    increasing x, hence already sorted.
    """
    first, X = _power_range(k, n, N)
    if first > X:
        return {}
    rest = [x ** k - n for x in range(first, X + 1)]  # x at index x - first
    small: dict[int, list[tuple[int, int]]] = {}  # index -> primes <= bound
    bound = min(X, N)
    for p in primes_up_to(bound):
        for root in _prime_roots(k, n, p):
            for i in range((root - first) % p, len(rest), p):
                v, e = rest[i] // p, 1
                while v % p == 0:
                    v //= p
                    e += 1
                rest[i] = v
                small.setdefault(i, []).append((p, e))
    table: dict = {}  # a -> a list of cofactors, then its tuple
    for i, r in enumerate(rest):
        factors = small.get(i, [])
        if r > 1:
            # every prime factor of r is above bound: below bound^2, r is one
            large = [(r, 1)] if r <= bound * bound else factor(r)
            if large[-1][0] > N:
                continue  # a prime factor fits in neither a nor b
            factors += large
        m = (first + i) ** k - n
        divisors = [1]
        for p, e in factors:
            divisors += [d * p ** j for d in divisors for j in range(1, e + 1)
                         if d * p ** j <= N]
        lo = -(-m // N)  # b = m // a <= N
        for a in divisors:
            if a >= lo:
                table.setdefault(a, []).append(m // a)
    for a, bs in table.items():
        table[a] = tuple(bs)  # each list is freed as its tuple is made
    return table


def _row(a: int, k: int, n: int, N: int) -> tuple[int, ...]:
    """All b in [1, N] with a*b + n a k-th power of a positive integer.

    A multiplier within the power range (a <= xmax) steps through the
    residues x^k ≡ n (mod a), an O(a) scan; one above it tests each
    x <= xmax directly.  Either route tests at most about 2 * xmax values.
    """
    limit = a * N + n
    if limit < 1:
        return ()
    xmax = integer_kth_root(limit, k)
    if xmax < 1:
        return ()
    out = []
    if a > xmax:
        # fewer powers than residue classes
        target = n % a
        xs = (x for x in range(1, xmax + 1) if pow(x, k, a) == target)
    else:
        xs = []
        for r in kth_power_residues(a, k, n):
            start = r if r >= 1 else a
            xs.extend(range(start, xmax + 1, a))
        xs.sort()
    for x in xs:
        v = x ** k - n
        if v >= a and v % a == 0:
            b = v // a
            if b <= N:
                out.append(b)
    return tuple(sorted(out))


# candidates_for asks for the same multipliers over and over (criterion 3
# sweeps 100 of them 99 times each); the searches build their rows once
_candidates_single = lru_cache(maxsize=1 << 15)(_row)


@lru_cache(maxsize=1 << 15)
def _row_charge(a: int, k: int, n: int, N: int) -> tuple[int, int]:
    """Estimated (nanoseconds, bytes) of _row(a, k, n, N): about
    2 * iroot(a*N + n, k) tests, each charged per 64-bit word of a*N + n
    and the bytes of one cofactor b <= N (7 bits a byte)."""
    v = max(a * N + n, 0)
    tests = 2 * integer_kth_root(v, k)
    return (_RESIDUE_COST[0] * tests * (1 + v.bit_length() // 64),
            tests * (_CANDIDATE_BYTES + N.bit_length() // 7))


def _residue_route(k: int, n: int, N: int) -> bool:
    """Whether a search reads residue rows, not the table: with |n| < N a
    residue class of row a holds at most about sqrt(2N/a) + 1 candidates."""
    return k == 2 and abs(n) < N


def _search_cost(k: int, n: int, N: int) -> tuple[int, int]:
    """Estimated (nanoseconds, bytes) of a search at height N: N
    multipliers, plus N^2 / 2 residue tests on the residue route, else the
    values of _power_range sieved (at least the min(X, N) sieving primes)
    and at k = 2 the walk over them.  Integers, so no height overflows."""
    ns, size = _ROW_COST[0] * N, _ROW_COST[1] * N
    if _residue_route(k, n, N):
        return ns + _RESIDUE_COST[0] * N * N // 2, size + _RESIDUE_COST[1] * N
    first, X = _power_range(k, n, N)
    values = max(X - first + 1, 0)
    units = max(values, min(X, N))
    sieve_ns, sieve_bytes = _SIEVED_COST[min(k, 5) - 2]
    walk = _WALK_NS * values * math.isqrt(values) if k == 2 else 0
    return ns + sieve_ns * units + walk, size + sieve_bytes * units


def _refuse_above_cap(what: str, k: int, n: int, N: int, ns: int,
                      size: int):
    if ns > SEARCH_SECONDS_CAP * 10 ** 9 or size > SEARCH_BYTES_CAP:
        raise InputError(
            f"{what} at k={k}, n={n}, N={N} needs about {ns // 10 ** 9} s "
            f"and {size >> 20} MiB, above the cap of {SEARCH_SECONDS_CAP} s "
            f"and {SEARCH_BYTES_CAP >> 20} MiB; lower N")


def _graph(k: int, n: int, N: int) -> dict[int, tuple[int, ...]]:
    """Every a <= N with a partner b <= N (a*b + n = x^k), mapped to its
    sorted partners.

    On the _residue_route each row is built by _row; otherwise the
    power-side table is the graph.  Before anything is built, a search is
    refused whose _search_cost passes SEARCH_SECONDS_CAP or
    SEARCH_BYTES_CAP.
    """
    _refuse_above_cap("search", k, n, N, *_search_cost(k, n, N))
    if _residue_route(k, n, N):
        return {a: row for a in range(1, N + 1) if (row := _row(a, k, n, N))}
    return _power_side_table(k, n, N)


def candidates_for(A, config: TupleConfig, N: int) -> list[int]:
    """Exactly {b <= N : a*b + n is a positive k-th power for every a in A}.

    Refused before any row is built when the rows' _row_charge passes
    either cap.
    """
    elems = sorted(set(A))
    if not elems:
        raise InputError("need at least one multiplier")
    if elems[0] < 1:
        raise InputError(f"multipliers must be positive, got {elems[0]}")
    if N < 1:
        raise InputError(f"height must be >= 1, got {N}")
    k, n = config.k, config.n
    ns = size = 0
    for a in elems:
        row_ns, row_size = _row_charge(a, k, n, N)
        ns += row_ns
        size += row_size
    _refuse_above_cap("candidates", k, n, N, ns, size)
    rows = sorted([_candidates_single(a, k, n, N) for a in elems], key=len)
    out = set(rows[0])
    for row in rows[1:]:
        out.intersection_update(row)
        if not out:
            break
    return sorted(out)


def _gap_floor_check(chain: list[int], ext: list[int], config: TupleConfig):
    """Cross-check deep extensions against the exact gap floor.

    With x < y < z the three largest chosen elements and w > z a candidate
    compatible with all of them, the quadruple (x, y, z, w) satisfies the
    gap principle's hypotheses once x*z >= 2|n|, so y*w must reach the
    bound.  A candidate below the floor contradicts a theorem.
    """
    if len(chain) < 3:
        return
    x, y, z = chain[-3], chain[-2], chain[-1]
    if x * z < 2 * abs(config.n):
        return
    bound = gap_lower_bound(x, z, config)
    for w in ext:
        if Fraction(y * w) < bound:
            raise InvariantViolation(
                f"candidate {w} extends {chain} yet y*w = {y * w} sits below "
                f"the gap floor {bound} (k={config.k}, n={config.n})")


def _outcome(found, max_results: int, wrap, more=()) -> SearchOutcome:
    """Sort the raw results, merge in the sorted iterable more, keep the
    first max_results, wrap each one.  more is read only that far."""
    kept = list(islice(merge(sorted(found), more), max_results + 1))
    return SearchOutcome(tuple(map(wrap, kept[:max_results])),
                         len(kept) > max_results)


def search_tuples(config: TupleConfig, budget: SearchBudget) -> SearchOutcome:
    """All maximal tuples with elements <= height, smallest first.

    Maximal means no single element <= height extends the tuple.  Output
    order is lexicographic.
    """
    N = budget.height
    graph = _graph(config.k, config.n, N)
    found = []

    def extend(chain: list[int], cand: set[int]):
        ext = sorted(c for c in cand if c > chain[-1])
        _gap_floor_check(chain, ext, config)
        if not (cand - set(chain)):
            if len(chain) >= budget.min_size:
                found.append(tuple(chain))
            return
        for w in ext:
            extend(chain + [w], cand.intersection(graph[w]))

    for c1 in sorted(graph):
        extend([c1], set(graph[c1]))
    # a multiplier with no partner is a maximal tuple alone
    alone = ((v,) for v in range(1, N + 1) if v not in graph)
    return _outcome(found, budget.max_results,
                    lambda t: DiophantineTuple(config, t),
                    alone if budget.min_size <= 1 else ())


def brute_force_tuples(config: TupleConfig, N: int, min_size: int) -> SearchOutcome:
    """Reference search: quadratic pair table, then maximal-clique walk.

    Same contract as search_tuples but a different arithmetic route (a
    precomputed power table instead of residue enumeration), so the two
    must agree exactly.  Refuses N beyond ORACLE_CAP.
    """
    if N > ORACLE_CAP:
        raise InputError(f"reference search capped at N = {ORACLE_CAP}")
    if N < 1 or min_size < 1:
        raise InputError("need N >= 1 and min_size >= 1")
    k, n = config.k, config.n
    powers = set()
    x = 1
    while x ** k <= N * N + n:
        powers.add(x ** k)
        x += 1
    adj: dict[int, set[int]] = {i: set() for i in range(1, N + 1)}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if i * j + n in powers:
                adj[i].add(j)
                adj[j].add(i)
    found: list[tuple[int, ...]] = []

    def walk(clique: list[int], common: set[int], excluded: set[int]):
        if not common and not excluded:
            if len(clique) >= min_size:
                found.append(tuple(clique))
            return
        for v in sorted(common):
            walk(clique + [v], common & adj[v], excluded & adj[v])
            common = common - {v}
            excluded = excluded | {v}

    # isolated vertices are maximal singletons; keep the walk on the rest
    edged = {v for v in adj if adj[v]}
    if min_size <= 1:
        found.extend((v,) for v in range(1, N + 1) if v not in edged)
    walk([], edged, set())
    found.sort()
    return SearchOutcome(
        tuple(DiophantineTuple(config, t) for t in found), False)


def search_bipartite(config: TupleConfig, budget: SearchBudget) -> SearchOutcome:
    """All A-side-maximal bipartite pairs with elements <= height.

    A pair (A, B) is emitted when B = N(A), the common partners of A, has
    at least min_partner elements, |A| >= min_size, and no a' outside A
    keeps min_partner partners in B; it is then oriented canonically and
    deduplicated.  The relation a*b + n = x^k is symmetric, so b is in N(a)
    iff a is in N(b); an A that no a' can join is therefore closed,
    A = ∩_{b in B} N(b), and B is an intersection of neighborhoods.  The
    search enumerates those closed B sides directly: a worklist seeded with
    every N(a) of at least min_partner elements, each B side intersected
    with N(a') for every a' reachable from it.  The cost is polynomial per
    closed B side instead of exponential in the largest neighborhood.
    """
    min_a, min_b = budget.min_size, budget.min_partner

    # N(v) of every v with a partner; each element a B side can reach is
    # a partner of some b, so it has its own neighborhood here
    partners = {a: frozenset(row) for a, row in
                _graph(config.k, config.n, budget.height).items()}
    work = {B for B in partners.values() if len(B) >= min_b}
    seen = set(work)
    found = set()
    while work:
        B = work.pop()
        rows = [partners[b] for b in B]
        A = frozenset.intersection(*rows)
        maximal = True
        for ap in frozenset.union(*rows) - A:
            shrunk = B & partners[ap]
            if len(shrunk) >= min_b:
                maximal = False
                if shrunk not in seen:
                    seen.add(shrunk)
                    work.add(shrunk)
        if maximal and len(A) >= min_a:
            # canonical orientation: the side that sorts first is A
            found.add(tuple(sorted((tuple(sorted(A)), tuple(sorted(B))))))
    return _outcome(found, budget.max_results,
                    lambda AB: BipartitePair(config, *AB))
