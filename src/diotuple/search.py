"""Height-bounded search for shifted-product tuples and bipartite pairs.

The kernel: every cofactor b of a multiplier a with a*b + n = x^k comes
from a power x^k, so candidates are enumerated on the power side and
mapped back, never by scanning b.  A multiplier takes one of three routes:
within the power range it steps through the residues x^k ≡ n (mod a),
found by one O(a) scan of the classes mod a; above it but below the
height it reads its cofactors from one divisor table of the values
x^k - n, built once per (k, n, height); a point query at or above the
height tests each x directly.  Each search builds the row of every
multiplier once and reads it from there.  Tuple search is depth-first
extension over intersected candidate sets; an exact gap-principle floor
cross-checks every deep extension.  Bipartite search enumerates closed
partner sets: by the symmetry of a*b + n = x^k, every A-side-maximal pair
(A, B) has B an intersection of neighborhoods and A the common
neighborhood of B, so the pairs are read off the closed sets without
growing A one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (BipartitePair, DiophantineTuple, TupleConfig,
                   gap_lower_bound)
from .errors import InputError, InvariantViolation
from .exact import integer_kth_root
from .sieve import primes_up_to

# the quadratic reference search refuses heights beyond this
ORACLE_CAP = 10 ** 4


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


def _factor_within(m: int, primes: list[int], N: int):
    """(p, e) pairs of m >= 1 if every prime factor is <= N, else None.

    primes must hold every prime <= N.
    """
    factors = []
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    # m is now 1, a prime, or (primes exhausted) a product of primes > N
    if m > N:
        return None
    if m > 1:
        factors.append((m, 1))
    return factors


@lru_cache(maxsize=16)
def _power_side_table(k: int, n: int, N: int) -> dict[int, tuple[int, ...]]:
    """Every a <= N mapped to its sorted cofactors b <= N with a*b + n = x^k.

    Each x <= iroot(N^2 + n, k) gives m = x^k - n, and every factorization
    m = a*b with a, b <= N is one entry.  A prime factor of m above N fits
    in neither a nor b, so such m contribute nothing.  Cofactors arrive in
    increasing x, hence already sorted.
    """
    top = N * N + n
    if top < 1:
        return {}
    primes = primes_up_to(N)
    table: dict[int, list[int]] = {}
    for x in range(1, integer_kth_root(top, k) + 1):
        m = x ** k - n
        if m < 1:
            continue
        factors = _factor_within(m, primes, N)
        if factors is None:
            continue
        divisors = [1]
        for p, e in factors:
            divisors += [d * p ** i for d in divisors for i in range(1, e + 1)
                         if d * p ** i <= N]
        lo = -(-m // N)  # b = m // a <= N
        for a in divisors:
            if a >= lo:
                table.setdefault(a, []).append(m // a)
    return {a: tuple(bs) for a, bs in table.items()}


def _row(a: int, k: int, n: int, N: int) -> tuple[int, ...]:
    """All b in [1, N] with a*b + n a k-th power of a positive integer.

    Three routes: a within the power range (a <= xmax) steps through the
    residues x^k ≡ n (mod a), an O(a) scan; a above it reads its cofactors
    from the power-side divisor table when a < N, and otherwise tests each
    x <= xmax directly.  That point query serves a = N, which at k = 2 is
    often the only multiplier above its power range and would not repay a
    table build, and a > N from candidates_for.
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
        if a < N:
            return _power_side_table(k, n, N).get(a, ())
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


def _rows(k: int, n: int, N: int) -> list[tuple[int, ...]]:
    """Row v is the candidate tuple of v for 1 <= v <= N; row 0 is empty."""
    return [()] + [_row(v, k, n, N) for v in range(1, N + 1)]


def candidates_for(A, config: TupleConfig, N: int) -> list[int]:
    """Exactly {b <= N : a*b + n is a positive k-th power for every a in A}."""
    elems = sorted(set(A))
    if not elems:
        raise InputError("need at least one multiplier")
    if elems[0] < 1:
        raise InputError(f"multipliers must be positive, got {elems[0]}")
    if N < 1:
        raise InputError(f"height must be >= 1, got {N}")
    sets = sorted((set(_candidates_single(a, config.k, config.n, N))
                   for a in elems), key=len)
    out = sets[0]
    for s in sets[1:]:
        out &= s
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


def _outcome(found, max_results: int, wrap) -> SearchOutcome:
    """Sort the raw results, keep the first max_results, wrap each one."""
    found = sorted(found)
    return SearchOutcome(tuple(map(wrap, found[:max_results])),
                         len(found) > max_results)


def search_tuples(config: TupleConfig, budget: SearchBudget) -> SearchOutcome:
    """All maximal tuples with elements <= height, smallest first.

    Maximal means no single element <= height extends the tuple.  Output
    order is lexicographic.
    """
    N = budget.height
    rows = _rows(config.k, config.n, N)
    found = []

    def extend(chain: list[int], cand: set[int]):
        ext = sorted(c for c in cand if c > chain[-1])
        _gap_floor_check(chain, ext, config)
        if not (cand - set(chain)):
            if len(chain) >= budget.min_size:
                found.append(tuple(chain))
            return
        for w in ext:
            extend(chain + [w], cand.intersection(rows[w]))

    for c1 in range(1, N + 1):
        extend([c1], set(rows[c1]))
    return _outcome(found, budget.max_results,
                    lambda t: DiophantineTuple(config, t))


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

    # row v is N(v); every neighborhood lies in [1, N], so the rows cover
    # every element a B side can reach
    partners = [frozenset(row) for row in
                _rows(config.k, config.n, budget.height)]
    work = {B for B in partners if len(B) >= min_b}
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
