"""Power classes in prime fields and the exhaustive scans built on them.

Three experiments live here: two-sided product sets whose shifted products
land in the k-th power classes (with the size inequality checked on every
scanned instance), the one-set pairwise variant driven by an exact max-clique
search, and multiplicative character sums classed by Euler's criterion.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import (InputError, InvariantViolation, refuse_above_cap,
                     report_failure)
from .exact import _check_integers, _integer_items, factor, is_prime

CHAR_SUM_CAP = 10 ** 6
# What one char_sum costs, in nanoseconds, measured on a 2-core AMD EPYC box
# under CPython 3.11 at p up to 10^6: a fixed part (the field and its
# generator), a part per power of the root of unity (k of them), per slot
# of the packed pass (span(A) + span(B) slots, each sum in them classed by
# Euler's criterion at most once) and per slot and element of the smaller
# side (the packed pass adds one shifted copy of the slots per element)
_CHAR_SUM_NS = (50_000, 1500, 2000, 1)
# and its bytes per slot: a slot counts fewer than p <= CHAR_SUM_CAP pairs,
# so it takes at most 4 bytes, and the packed pass holds about five copies
# of the slots (the indicator, its integer, the total, its bytes, the counts)
_CHAR_SUM_SLOT_BYTES = 24
CLIQUE_CAP = 500
CLASS_OMEGA_CAP = 1024  # shift classes whose clique number is kept
BIPARTITE_SIDE_CAP = 6
# a bipartite scan walks up to about p^(max_side - 1) sides and builds p
# partner rows of p bits, which cost about as much as p^2 / 128 sides: at
# this cap p = 3137 with sides of 3 takes about 7 s on a 2-core AMD EPYC
# box, and p = 35677 with sides of 2 about 5 s
BIPARTITE_WORK_CAP = 10 ** 7
# what one unit of that work costs in nanoseconds, on the same box: eight
# scans at p = 3137 with sides of 3, 9,917,650 units each, took about 55 s
_BIPARTITE_UNIT_NS = 690


def _generates(g: int, p: int, factors: list[tuple[int, int]]) -> bool:
    """Whether g generates the multiplicative group mod the prime p, given
    the factorization of p - 1: g^((p-1)/q) != 1 for every prime q | p - 1."""
    return all(pow(g, (p - 1) // q, p) != 1 for q, _ in factors)


# scans of one field reuse its root; a --max-p sweep meets each prime once
@lru_cache(maxsize=256)
def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    _check_integers(p=p)
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    factors = factor(p - 1)
    return next(g for g in range(1, p) if _generates(g, p, factors))


class _Field(NamedTuple):
    p: int
    k: int
    lam: int
    g: int


class FieldConfig(_Field):
    """A prime field with a chosen power degree, shift, and generator;
    g = 0 takes the smallest primitive root."""

    __slots__ = ()

    def __new__(cls, p: int, k: int, lam: int = 1, g: int = 0):
        _check_integers(p=p, k=k, lam=lam, g=g)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if k < 2 or (p - 1) % k != 0:
            raise InputError(
                f"degree must be >= 2 and divide p-1, got k={k}, p={p}")
        if not 1 <= lam <= p - 1:
            raise InputError(f"shift must be in [1, p-1], got {lam}")
        if g == 0:
            g = primitive_root(p)
        elif not (1 <= g <= p - 1 and _generates(g, p, factor(p - 1))):
            raise InputError(f"{g} does not generate the group mod {p}")
        return super().__new__(cls, p, k, lam, g)

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, and _replace through it, skip __new__
        return cls(*iterable)

    @property
    def class_size(self) -> int:
        return (self.p - 1) // self.k


class FieldScanResult(NamedTuple):
    """Outcome of ff_scan_bipartite: the largest |A||B| over the scanned
    sides and each pair (A, B) that breaks the size inequality."""

    p: int
    k: int
    lam: int
    class_size: int
    # every side A (2 <= |A| <= max_side) whose maximal partner set has >= 2
    # elements; only those containing 1 are walked, the rest are counted
    # through their scaling orbits
    scanned: int
    max_product: int  # largest |A||B| seen
    extremal: tuple[tuple[int, ...], tuple[int, ...]] | None
    min_slack: int | None  # tightest margin of the size inequality
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _partner_rows(config: FieldConfig) -> list[int]:
    """rows[a] = bitmask of the b in [1, p-1] with a*b + lam in the power
    classes or at 0, for a in [1, p-1]; bit a is kept and rows[0] = 0.

    Bit b of row a is ind[a*b mod p], where ind[x] says whether x + lam lies
    in S_k u {0}, so row 1 is ind itself; ind is set at s - lam for the
    (p-1)/k powers s of g^k, which are S_k, and at -lam.  For a generator
    g, bit b of row a*g is bit g*b mod p of row a: the next row along the
    powers of g is the stride-g slice of the current row's bits repeated g
    times.  A row costs one slice and one base-2 parse of p characters, in
    a buffer of g*p bytes.  Any generator gives the same rows, so the walk
    takes the smallest, primitive_root(p), whatever config.g is.
    """
    p, lam, g = config.p, config.lam, primitive_root(config.p)
    bits = bytearray(b"0" * p)  # ind as the characters "0" and "1"
    bits[-lam % p] = 49
    h, s = pow(g, config.k, p), 1
    for _ in range((p - 1) // config.k):
        bits[(s - lam) % p] = 49
        s = s * h % p
    rows = [0] * p
    a = 1
    for _ in range(p - 1):
        rows[a] = int(bits[::-1], 2) & ~1
        bits = (bits * g)[::g]
        a = a * g % p
    return rows


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refuse_bipartite_work(p: int, max_side: int, shifts: int = 1):
    """Refuse a bipartite scan at p with sides up to max_side whose work
    passes its cap: p^(max_side - 1) walked sides and p^2 / 128 for the
    partner rows.  A sweep of it over this many shifts is refused when its
    time, at _BIPARTITE_UNIT_NS a unit, or one scan's p^2 / 8 bytes of
    partner rows pass the work budget of errors."""
    _check_integers(max_side=max_side)
    if not 2 <= max_side <= BIPARTITE_SIDE_CAP:
        raise InputError(f"side cap must be in [2, {BIPARTITE_SIDE_CAP}]")
    work = p ** (max_side - 1) + p * p // 128
    if work > BIPARTITE_WORK_CAP:
        raise InputError(
            f"bipartite scan capped at p^(maxA - 1) + p^2/128 <= "
            f"{BIPARTITE_WORK_CAP}, got p={p} with sides of {max_side}")
    refuse_above_cap(
        f"a sweep of {shifts} bipartite scans at p={p} with sides of "
        f"{max_side}", shifts * work * _BIPARTITE_UNIT_NS, p * p // 8,
        "; lower --lam-max")


def ff_scan_bipartite(config: FieldConfig, max_side: int) -> FieldScanResult:
    """Exhaust small sides A, pair each with its maximal partner set B.

    For fixed A the inequality |A||B| <= |S_k| + |B o (-lam A^-1)| + |A| - 1
    is tightest at the maximal B (removing one b costs the left side |A| >= 2
    and the right side at most 2), so checking the maximal partner set per A
    covers every admissible pair.  Both role assignments are checked, and
    they share one correction: a -> -lam/a maps {a in A : -lam/a in B} onto
    {b in B : -lam/b in A}, so both corrections equal |B & -lam A^-1| and
    the slack is |S_k| + corr + min(|A|, |B|) - 1 - |A||B|.

    For t != 0, (A, B) -> (tA, t^-1 B) keeps every product a*b, hence the
    maximal-partner relation, both sizes and the correction.  Every orbit
    holds a side containing 1, so only those sides (the first subtree of the
    lexicographic walk, where the first side reaching the largest product
    also lies) are walked.  Each walked side of size s stands for (p-1)/s
    sides of the full scan: an orbit with stabilizer H has (p-1)/|H| sides,
    s/|H| of which contain 1.  Violations are expanded over their orbits.
    """
    p, k, lam = config.p, config.k, config.lam
    _refuse_bipartite_work(p, max_side)
    comp = _partner_rows(config)
    negbit = [0] * p  # a -> the bit at -lam / a mod p
    for a in range(1, p):
        negbit[a] = 1 << (-lam * pow(a, -1, p) % p)
    class_size = config.class_size

    walked = [0] * (max_side + 1)  # walked sides per size
    max_product = 0
    extremal = None
    min_slack = None
    violating: list = []  # (side, mask) of walked sides

    def grow(side: tuple[int, ...], mask: int, neg: int):
        # mask has >= 2 bits; partner sets only shrink as the side grows
        nonlocal max_product, extremal, min_slack
        na = len(side)
        if na >= 2:
            walked[na] += 1
            nb = mask.bit_count()
            product = na * nb
            slack = (class_size + (mask & neg).bit_count() + min(na, nb) - 1
                     - product)
            if product > max_product:
                max_product, extremal = product, (side, tuple(_bits(mask)))
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < 0:
                violating.append((side, mask))
        if na < max_side:
            for a in range(side[-1] + 1, p):
                child = mask & comp[a]
                if child.bit_count() >= 2:
                    grow(side + (a,), child, neg | negbit[a])

    if comp[1].bit_count() >= 2:
        grow((1,), comp[1], negbit[1])

    scanned = 0
    for s in range(2, max_side + 1):
        if walked[s] * (p - 1) % s:
            raise InvariantViolation(
                f"{walked[s]} walked sides of size {s} do not fill whole "
                f"scaling orbits at p={p} k={k} lam={lam}")
        scanned += walked[s] * (p - 1) // s

    expanded = set()
    for side, mask in violating:
        B = tuple(_bits(mask))
        for t in range(1, p):
            t_inv = pow(t, -1, p)
            expanded.add((tuple(sorted(a * t % p for a in side)),
                          tuple(sorted(b * t_inv % p for b in B))))
    violations = sorted(expanded)
    for A, B in violations:
        report_failure(__name__,
                       "size inequality failed at p=%d k=%d lam=%d A=%s B=%s",
                       p, k, lam, A, B)

    return FieldScanResult(p, k, lam, class_size, scanned, max_product,
                           extremal, min_slack, tuple(violations))


def _declare_results():
    """Declare the results of ff_scan_clique and char_sum, once.

    They are frozen dataclasses, and dataclasses loads inspect, so they are
    declared on first use: by either function, or by a lookup of either
    name (__getattr__).  Declared under global, each class keeps its bare
    qualified name, so it pickles and prints as if declared at import.
    """
    global CliqueScanResult, CharacterSumResult
    if "CharacterSumResult" in globals():
        return
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class CliqueScanResult:
        """Outcome of ff_scan_clique: the clique number of the field graph,
        a witness clique, and whether it exceeds the pairwise bound."""

        p: int
        k: int
        lam: int
        max_size: int
        witness: tuple[int, ...]
        bound: float  # sqrt(2(p-1)/k) + 4
        violation: bool  # max_size above the bound; must never happen

    @dataclass(frozen=True)
    class CharacterSumResult:
        """Outcome of char_sum: how often each power of the root of unity
        occurs among chi(a + b), and the size of the sum."""

        p: int
        k: int
        size_a: int
        size_b: int
        counts: tuple[int, ...]  # per power of the root of unity
        zero_hits: int  # pairs with a + b = 0
        magnitude: float
        exponent: float | None  # log(magnitude / (|A||B|)) / log p; None at 0

        def __post_init__(self):
            if sum(self.counts) + self.zero_hits != self.size_a * self.size_b:
                raise InvariantViolation(
                    "character counts do not cover all pairs")


def __getattr__(name):
    if name in ("CliqueScanResult", "CharacterSumResult"):
        _declare_results()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _clique_graph(config: FieldConfig) -> list[int]:
    """adj[a] = bitmask of the b != a in [1, p-1] with a*b + lam in the
    power classes or at 0: the partner rows without their diagonal."""
    adj = _partner_rows(config)
    for a in range(1, config.p):
        adj[a] &= ~(1 << a)
    return adj


def _clique_search(adj: list[int], p: int, size: int) -> tuple[int, ...]:
    """Greedy-coloring branch and bound (Tomita & Kameda's MCQ) over
    1..p-1 from the record best = size - 1.

    Returns the first clique above best that it reaches, or () when there
    is none.  Vertices are colored greedily in increasing order, one bitmask
    per color class, and branched on from the highest color down, highest
    vertex first within a class; classes that cannot lift a clique above
    best are never listed.  The search unwinds at the first clique found.
    """
    # nadj[v] clears v and its neighbors from a mask
    nadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    best = size - 1
    witness: tuple[int, ...] = ()

    def expand(clique: list[int], cands: int):
        nonlocal witness
        depth = len(clique)
        if not cands:
            if depth > best:
                witness = tuple(sorted(clique))
            return
        classes = []
        color = 0
        rest = cands
        while rest:
            color += 1
            cls = 0
            avail = rest
            while avail:
                low = avail & -avail
                cls |= low
                avail &= nadj[low.bit_length() - 1]
            rest ^= cls
            if depth + color > best:
                classes.append((color, cls))
        for color, cls in reversed(classes):
            while cls:
                v = cls.bit_length() - 1
                cls ^= 1 << v
                child = cands & adj[v]
                if depth + 1 + child.bit_count() > best:
                    clique.append(v)
                    expand(clique, child)
                    clique.pop()
                    if witness:
                        return
                cands ^= 1 << v

    expand([], (1 << p) - 2)
    return witness


def _shift_class_rep(p: int, k: int, lam: int) -> int:
    """The least shift in lam * S_m, m = lcm(2, k): the shifts of this
    class have isomorphic graphs.

    For u^2 in S_k, a -> u*a maps the graph of lam onto the graph of
    u^2 lam, since (ua)(ub) + u^2 lam = u^2 (ab + lam) and S_k u {0} is
    closed under multiplication by u^2.  The squares in S_k are S_m.
    """
    e = (p - 1) // math.lcm(2, k)
    lam_inv = pow(lam, -1, p)
    return next(x for x in range(1, lam + 1) if pow(x * lam_inv, e, p) == 1)


def _clique_number(adj: list[int], p: int) -> int:
    """Pass 1 of ff_scan_clique: the clique number of the graph adj over F_p.

    A branch and bound that colors only what can prune: at depth d with
    record w, a clique inside w - d color classes has at most w - d
    vertices and cannot beat w, so only the first w - d classes are
    colored greedily, and every candidate outside them is branched on,
    highest vertex first, and dropped after its branch.  What is left is
    recolored, with fewer classes, when the record rises.  At the root a
    branch on v also drops p - v: a -> -a is an automorphism of the field
    graphs, so every clique through -v mirrors one through v.

    Any greedy coloring bounds the clique soundly.  This one takes each
    class's vertices highest first, so every mask stays non-negative:
    nadj[v] is the complement of v and its neighbors within the p bits,
    and single bits come from a table.  CPython builds a two's-complement
    temporary for each & with a negative int (avail & -avail, ~row), and
    the coloring steps are most of the work here.
    """
    full = (1 << p) - 1
    bit = [1 << v for v in range(p)]
    nadj = [full ^ (row | b) for row, b in zip(adj, bit)]
    best = 0

    def expand(depth: int, cands: int):
        nonlocal best
        while True:
            rest = cands
            for _ in range(best - depth):
                avail = rest
                while avail:
                    v = avail.bit_length() - 1
                    rest ^= bit[v]
                    avail &= nadj[v]
                if not rest:
                    return
            record = best
            while rest:
                v = rest.bit_length() - 1
                rest ^= bit[v]
                if not cands & bit[v]:
                    continue  # the mirror of a root vertex already branched on
                child = cands & adj[v]
                if depth + 1 + child.bit_count() > best:
                    if child:
                        expand(depth + 1, child)
                    else:
                        best = depth + 1
                cands ^= bit[v]
                if not depth:
                    cands &= full ^ bit[p - v]
                if best > record:
                    break  # recolor for the new record
            else:
                return

    expand(0, full ^ 1)
    return best


_class_omega: dict[tuple[int, int, int], int] = {}  # (p, k, class rep) -> w


def ff_scan_clique(config: FieldConfig) -> CliqueScanResult:
    """Exact maximum size of a set with every pairwise product shifted into
    the power classes, checked against sqrt(2(p-1)/k) + 4.

    The witness is the first maximum clique of a plain greedy-coloring branch
    and bound that branches from the highest color down and raises its
    record as it goes.  Two passes reach the same answer:

    - Pass 1 (_clique_number) proves the clique number w by its own
      search, which colors only the classes that can prune and uses the
      automorphism a -> -a ((-a)(-b) = ab) at the root.
    - Pass 2 (_clique_search) replays the plain order from the record
      w - 1 and stops at the first clique of size w.  A record of w - 1
      prunes at least what the plain search's smaller records pruned, and
      never a branch that holds a w-clique, so the first w-clique it reaches
      is the plain search's witness.

    Shifts of one class share w (see _shift_class_rep), so pass 1 runs once
    per class and process, on the graph of the first shift of the class
    scanned; the last CLASS_OMEGA_CAP classes are kept.
    """
    p, k, lam = config.p, config.k, config.lam
    if p > CLIQUE_CAP:
        raise InputError(f"clique scan capped at p <= {CLIQUE_CAP}, got {p}")
    adj = _clique_graph(config)
    key = (p, k, _shift_class_rep(p, k, lam))
    omega = _class_omega.get(key)
    if omega is None:
        omega = _clique_number(adj, p)
        if len(_class_omega) >= CLASS_OMEGA_CAP:
            del _class_omega[next(iter(_class_omega))]
        _class_omega[key] = omega
    witness = _clique_search(adj, p, omega)
    if len(witness) != omega:
        # without a witness the replay's record stayed at omega - 1
        raise InvariantViolation(
            f"clique replay found size {len(witness) or omega - 1}, not "
            f"{omega}, at p={p} k={k} lam={lam}")

    # exact form of max_size > sqrt(2(p-1)/k) + 4
    violation = omega > 4 and (omega - 4) ** 2 * k > 2 * (p - 1)
    if violation:
        report_failure(
            __name__,
            "pairwise bound failed at p=%d k=%d lam=%d: size %d",
            p, k, lam, omega)
    _declare_results()
    return CliqueScanResult(p, k, lam, omega, witness,
                            math.sqrt(2 * (p - 1) / k) + 4, violation)


def _packed_sums(sa: set[int], sb: set[int]) -> Iterable[tuple[int, int]]:
    """(s, number of pairs (a, b) with a + b = s) for every integer s from
    min(A) + min(B) to max(A) + max(B), from one packed big integer.

    The larger set's indicator sits in slots of w bits, w a whole number of
    bytes with 2^w above the smaller set's size.  One shifted copy per
    element of the smaller set is added, so slot i counts the pairs with
    a + b = i + min(A) + min(B), and no slot overflows into the next.
    """
    from array import array

    large, small = (sa, sb) if len(sa) >= len(sb) else (sb, sa)
    slot = next(t for t in "BHIQ"
                if array(t).itemsize * 8 >= len(small).bit_length())
    size = array(slot).itemsize
    lo_l, lo_s = min(large), min(small)
    width = max(large) - lo_l + 1
    ind = bytearray(size * width)
    for x in large:
        ind[size * (x - lo_l)] = 1
    packed = int.from_bytes(ind, "little")
    total = 0
    for x in small:
        total += packed << (8 * size * (x - lo_s))
    coef = array(slot)
    coef.frombytes(total.to_bytes(size * (width + max(small) - lo_s),
                                  "little"))
    if sys.byteorder == "big":
        coef.byteswap()
    return enumerate(coef, lo_l + lo_s)


def _refuse_char_sums(k: int, sums: list[tuple[int, int]], advice: str = ""):
    """Refuse char_sum at degree k over these sums, before the first one,
    when their estimated time (_CHAR_SUM_NS) or the largest packed pass
    (_CHAR_SUM_SLOT_BYTES) passes the work budget of errors.  Each sum is
    (size of the smaller side, span(A) + span(B))."""
    fixed, per_power, per_slot, per_copy = _CHAR_SUM_NS
    ns = sum(fixed + per_power * k + (per_slot + per_copy * small) * slots
             for small, slots in sums)
    size = _CHAR_SUM_SLOT_BYTES * max((slots for _, slots in sums), default=0)
    refuse_above_cap(f"this sweep of {len(sums)} character sums"
                     if len(sums) > 1 else "this character sum",
                     ns, size, advice)


def char_sum(A: Iterable[int], B: Iterable[int],
             config: FieldConfig) -> CharacterSumResult:
    """Sum the order-k character over all pairwise sums a + b.

    Values are carried as exponents mod k; only the final magnitude touches
    floating point, so full cancellation is detected exactly (all classes
    equally filled => magnitude is 0.0, not an epsilon).
    The counts of each sum come from one packed big-integer pass
    (_packed_sums), whose work grows with the smaller set's size times
    span(A) + span(B), span = max - min + 1; a sum estimated to pass the
    work budget of errors is refused before it.  Each sum s != 0 that occurs
    is classed by Euler's criterion: with e = (p-1)/k and s = g^i,
    s^e = (g^e)^(i mod k), read off the k powers of g^e, so the cost beyond
    the pass is one exponentiation per distinct sum.
    """
    p, k = config.p, config.k
    sa, sb = set(_integer_items(A, "A")), set(_integer_items(B, "B"))
    for side in (sa, sb):
        for x in side:
            if not 0 <= x <= p - 1:
                raise InputError(f"element {x} outside [0, {p - 1}]")
    if not sa or not sb:
        raise InputError("both sets must be nonempty")
    if p > CHAR_SUM_CAP:
        raise InputError(f"character sums capped at p <= {CHAR_SUM_CAP}")
    _refuse_char_sums(k, [(min(len(sa), len(sb)),
                           max(sa) - min(sa) + max(sb) - min(sb) + 2)])
    e = (p - 1) // k
    root = pow(config.g, e, p)
    index = {pow(root, j, p): j for j in range(k)}
    counts = [0] * k
    zero_hits = 0
    for s, c in _packed_sums(sa, sb):
        if not c:
            continue
        s %= p
        if s:
            counts[index[pow(s, e, p)]] += c
        else:
            zero_hits += c
    floor = min(counts)
    if max(counts) == floor:
        magnitude = 0.0
    else:
        import cmath
        total = sum((c - floor) * cmath.exp(2j * cmath.pi * j / k)
                    for j, c in enumerate(counts))
        magnitude = abs(total)
    pairs = len(sa) * len(sb)
    exponent = math.log(magnitude / pairs) / math.log(p) if magnitude > 0 else None
    _declare_results()
    return CharacterSumResult(p, k, len(sa), len(sb), tuple(counts),
                              zero_hits, magnitude, exponent)
