"""Prime-field scans: power classes, bipartite size inequality, pairwise
cliques, character sums."""

import copy
import dataclasses
import itertools
import logging
import math
import pickle
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diotuple
from diotuple import ff
from diotuple.errors import InputError, InvariantViolation
from diotuple.exact import is_prime, primes_up_to, trial_factor
from diotuple.ff import (
    CharacterSumResult,
    CliqueScanResult,
    FieldConfig,
    FieldScanResult,
    char_sum,
    ff_scan_bipartite,
    ff_scan_clique,
    _clique_graph,
    primitive_root,
)


def power_classes(p: int, k: int) -> set[int]:
    """The nonzero k-th powers mod p; k must divide p - 1 (k = 1 allowed).
    Test-only oracle for the classes the scans and sums build."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if k < 1 or (p - 1) % k != 0:
        raise InputError(f"need k >= 1 dividing p-1, got k={k}, p={p}")
    return {pow(x, k, p) for x in range(1, p)}


def ff_verify(A, B, config) -> bool:
    """True iff every product a*b + lam lands in the power classes or at 0.
    Test-only oracle for the partner sets of the bipartite scan."""
    p = config.p
    sa, sb = set(A), set(B)
    for side in (sa, sb):
        for x in side:
            if not 1 <= x <= p - 1:
                raise InputError(f"element {x} outside [1, {p - 1}]")
    good = power_classes(p, config.k) | {0}
    return all((a * b + config.lam) % p in good for a in sa for b in sb)


def test_power_classes_frozen():
    assert power_classes(7, 3) == {1, 6}
    assert power_classes(7, 2) == {1, 2, 4}
    assert power_classes(13, 3) == {1, 5, 8, 12}
    assert power_classes(13, 1) == set(range(1, 13))


def test_power_classes_size():
    # exactly (p-1)/k distinct k-th powers
    for p in primes_up_to(200):
        for k in range(1, p):
            if (p - 1) % k == 0:
                assert len(power_classes(p, k)) == (p - 1) // k, (p, k)


def test_power_classes_errors():
    with pytest.raises(InputError):
        power_classes(8, 2)
    with pytest.raises(InputError):
        power_classes(13, 5)  # 5 does not divide 12
    with pytest.raises(InputError):
        power_classes(13, 0)


def test_primitive_root_frozen():
    assert primitive_root(2) == 1
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2


def test_primitive_root_order():
    for p in primes_up_to(300):
        g = primitive_root(p)
        x, order = g % p, 1
        while x != 1:
            x = x * g % p
            order += 1
        assert order == p - 1, p
    with pytest.raises(InputError):
        primitive_root(10)


def test_field_config_validation():
    cfg = FieldConfig(13, 3)
    assert cfg.lam == 1
    assert cfg.g == 2  # smallest generator filled in
    assert cfg.class_size == 4
    assert FieldConfig(7, 3, g=5).g == 5  # any genuine generator is accepted
    with pytest.raises(InputError):
        FieldConfig(8, 2)
    with pytest.raises(InputError):
        FieldConfig(13, 1)
    with pytest.raises(InputError):
        FieldConfig(13, 5)
    with pytest.raises(InputError):
        FieldConfig(13, 3, lam=0)
    with pytest.raises(InputError):
        FieldConfig(13, 3, lam=13)
    with pytest.raises(InputError):
        FieldConfig(7, 3, g=4)  # 4^3 = 1 mod 7: not a generator


def test_field_config_builders_run_the_constructor_checks():
    # _make, and _replace through it, build as FieldConfig(...) does: each
    # invalid field gets the constructor's refusal, and g = 0 is filled in
    cfg = FieldConfig(7, 3)
    for build, message in (
            (lambda: cfg._replace(k=4), "degree must be >= 2 and divide p-1"),
            (lambda: cfg._replace(lam=True), "lam must be an integer"),
            (lambda: cfg._replace(lam=7), r"shift must be in \[1, p-1\]"),
            (lambda: cfg._replace(k=4, lam=True), "lam must be an integer"),
            (lambda: cfg._replace(g=4), "4 does not generate the group mod 7"),
            (lambda: FieldConfig._make([7, 4, 1, 3]),
             "degree must be >= 2 and divide p-1"),
            (lambda: FieldConfig._make([10, 3, 1, 0]), "10 is not prime")):
        with pytest.raises(InputError, match=message):
            build()
    assert cfg._replace(lam=2) == FieldConfig(7, 3, 2)
    assert FieldConfig._make([7, 3, 1, 0]) == cfg
    assert type(cfg._replace(lam=2)) is FieldConfig
    assert copy.copy(cfg) == cfg == pickle.loads(pickle.dumps(cfg))


def test_field_config_is_a_named_tuple():
    cfg = FieldConfig(97, 3)
    assert cfg._fields == ("p", "k", "lam", "g")
    assert tuple(cfg) == (97, 3, 1, 5)
    assert cfg == FieldConfig(97, 3, 1) == FieldConfig(97, 3, 1, 5) == \
        FieldConfig(p=97, k=3, lam=1, g=5) == FieldConfig(97, k=3, g=5)
    assert cfg != FieldConfig(97, 3, 2)
    assert repr(cfg) == "FieldConfig(p=97, k=3, lam=1, g=5)"
    assert hash(cfg) == hash(FieldConfig(p=97, k=3))
    assert len({cfg, FieldConfig(97, 3, g=5), FieldConfig(97, 3, 2)}) == 2
    assert cfg.class_size == 32
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    with pytest.raises(AttributeError):
        cfg.g = 7
    with pytest.raises(AttributeError):
        cfg.deficit = 1
    with pytest.raises(TypeError):
        FieldConfig(97)


def test_field_scan_result_is_a_named_tuple():
    r = ff_scan_bipartite(FieldConfig(13, 3, 1), 3)
    assert r._fields == ("p", "k", "lam", "class_size", "scanned",
                         "max_product", "extremal", "min_slack", "violations")
    fields = dict(p=13, k=3, lam=1, class_size=4, scanned=24, max_product=4,
                  extremal=((1, 3), (4, 11)), min_slack=2, violations=())
    assert r == FieldScanResult(**fields) == FieldScanResult(*fields.values())
    assert r._asdict() == fields
    assert repr(r) == (
        "FieldScanResult(p=13, k=3, lam=1, class_size=4, scanned=24, "
        "max_product=4, extremal=((1, 3), (4, 11)), min_slack=2, "
        "violations=())")
    assert hash(r) == hash(FieldScanResult(**fields))
    assert r != FieldScanResult(**{**fields, "scanned": 25})
    with pytest.raises(AttributeError):
        r.scanned = 0


def test_clique_and_char_sum_results_stay_dataclasses():
    # perfbench serializes both through dataclasses.fields; ff declares
    # them on first use, with the names and pickling of import-time classes
    results = (ff_scan_clique(FieldConfig(13, 3, 1)),
               char_sum([1, 2], [3], FieldConfig(13, 3)))
    for cls, r in zip((CliqueScanResult, CharacterSumResult), results):
        assert dataclasses.is_dataclass(cls) and type(r) is cls
        assert cls.__qualname__ == cls.__name__
        assert cls.__module__ == "diotuple.ff"
        assert getattr(ff, cls.__name__) is cls
        assert getattr(diotuple, cls.__name__) is cls
        assert pickle.loads(pickle.dumps(r)) == r
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.p = 7
    assert repr(results[0]) == (
        "CliqueScanResult(p=13, k=3, lam=1, max_size=3, witness=(1, 7, 11), "
        "bound=6.82842712474619, violation=False)")
    assert [f.name for f in dataclasses.fields(results[1])] == [
        "p", "k", "size_a", "size_b", "counts", "zero_hits", "magnitude",
        "exponent"]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ff.nope


def test_ff_verify():
    c13 = FieldConfig(13, 3, 1)
    # 1*4+1=5, 1*11+1=12, 3*4+1=0, 3*11+1=8: all in S_3 or zero
    assert ff_verify([1, 3], [4, 11], c13)
    assert not ff_verify([1], [1], c13)  # 2 is not a cube mod 13
    assert ff_verify([2], [3], FieldConfig(7, 3, 1))  # lands on 0
    with pytest.raises(InputError):
        ff_verify([0], [1], c13)
    with pytest.raises(InputError):
        ff_verify([1], [13], c13)


def test_ff_scan_bipartite_frozen():
    r = ff_scan_bipartite(FieldConfig(13, 3, 1), 3)
    assert (r.scanned, r.max_product) == (24, 4)
    assert r.extremal == ((1, 3), (4, 11))
    assert r.min_slack == 2
    assert r.violations == ()
    assert r.class_size == 4

    # p = 7, k = 3: no side of two keeps two partners
    r = ff_scan_bipartite(FieldConfig(7, 3, 1), 2)
    assert (r.scanned, r.max_product) == (0, 0)
    assert r.extremal is None and r.min_slack is None


def test_ff_scan_bipartite_extremal_is_maximal():
    # the reported partner side must be the full compatible set
    cfg = FieldConfig(13, 3, 1)
    r = ff_scan_bipartite(cfg, 3)
    A, B = r.extremal
    full = [b for b in range(1, 13) if ff_verify(A, [b], cfg)]
    assert list(B) == full


def test_ff_scan_bipartite_sweep_nonnegative_slack():
    for p in primes_up_to(40):
        if p < 5:
            continue
        for k in (2, 3, 4):
            if (p - 1) % k:
                continue
            for lam in (1, 2):
                r = ff_scan_bipartite(FieldConfig(p, k, lam), 3)
                assert r.violations == (), (p, k, lam)
                if r.min_slack is not None:
                    assert r.min_slack >= 0


def reference_scan_bipartite(config, max_side):
    """The exhaustive scan: every side A in lexicographic order, with both
    corrections counted separately.  Test-only oracle for the orbit walk."""
    p, k, lam = config.p, config.k, config.lam
    good = power_classes(p, k) | {0}
    comp = [0] * p
    for a in range(1, p):
        for b in range(1, p):
            if (a * b + lam) % p in good:
                comp[a] |= 1 << b
    neg_inv = [0] + [(-lam * pow(a, -1, p)) % p for a in range(1, p)]
    class_size = config.class_size
    scanned, max_product, extremal, min_slack = 0, 0, None, None
    violations = []

    def check(side, mask, nb):
        nonlocal scanned, max_product, extremal, min_slack
        scanned += 1
        B = tuple(b for b in range(1, p) if mask >> b & 1)
        na = len(side)
        product = na * nb
        corr_b = sum(1 for a in side if mask >> neg_inv[a] & 1)
        in_a = set(side)
        corr_a = sum(1 for b in B if neg_inv[b] in in_a)
        slack = min(class_size + corr_b + na - 1 - product,
                    class_size + corr_a + nb - 1 - product)
        if product > max_product:
            max_product, extremal = product, (side, B)
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if slack < 0:
            violations.append((side, B))

    def grow(side, mask):
        nb = mask.bit_count()
        if nb < 2:
            return
        if len(side) >= 2:
            check(side, mask, nb)
        if len(side) < max_side:
            for a in range(side[-1] + 1, p):
                grow(side + (a,), mask & comp[a])

    for a in range(1, p):
        grow((a,), comp[a])
    return FieldScanResult(p, k, lam, class_size, scanned, max_product,
                           extremal, min_slack, tuple(violations))


class UnderstatedConfig(FieldConfig):
    """Reports |S_k| too small by `deficit`, so that scans find violations."""

    def __new__(cls, p, k, lam, deficit):
        config = super().__new__(cls, p, k, lam)
        config.deficit = deficit
        return config

    @property
    def class_size(self) -> int:
        return super().class_size - self.deficit


def test_ff_scan_bipartite_matches_exhaustive_scan():
    for p in primes_up_to(31):
        if p < 5:
            continue
        for k in (2, 3, 6):
            if (p - 1) % k:
                continue
            for lam in range(1, p):
                for max_side in (2, 3):
                    cfg = FieldConfig(p, k, lam)
                    assert (ff_scan_bipartite(cfg, max_side)
                            == reference_scan_bipartite(cfg, max_side)), (
                        p, k, lam, max_side)


@pytest.mark.parametrize("p, k, lam, max_side, deficit, member", [
    # A = {1, 3, 9} is fixed by t = 3 (3^3 = 1 mod 13), and so is its
    # partner set {7, 8, 11}: an orbit of 4 sides, not 12
    (13, 2, 2, 3, 3, ((1, 3, 9), (7, 8, 11))),
    # side size 3 does not divide p - 1 = 10
    (11, 2, 2, 3, 1, None),
    # the frozen scan above, its extremal pair among the violations
    (13, 3, 1, 3, 3, ((1, 3), (4, 11))),
    # sides of four elements
    (31, 3, 5, 4, 3, None),
])
def test_ff_scan_bipartite_violations_match_exhaustive_scan(
        caplog, p, k, lam, max_side, deficit, member):
    cfg = UnderstatedConfig(p, k, lam, deficit=deficit)
    with caplog.at_level(logging.ERROR, logger="diotuple.ff"):
        r = ff_scan_bipartite(cfg, max_side)
    want = reference_scan_bipartite(cfg, max_side)
    assert want.violations
    assert r == want  # violations in the same order, and the same extremal
    if member is not None:
        assert member in r.violations
    assert [rec.getMessage() for rec in caplog.records] == [
        f"size inequality failed at p={p} k={k} lam={lam} A={A} B={B}"
        for A, B in want.violations]


def test_ff_scan_bipartite_cap():
    cfg = FieldConfig(13, 3, 1)
    with pytest.raises(InputError):
        ff_scan_bipartite(cfg, 1)
    with pytest.raises(InputError):
        ff_scan_bipartite(cfg, 7)


def test_sweep_budgets():
    # eight shifts at p = 3137 with sides of 3 fit the bipartite sweep
    # budget, nine do not
    ff._refuse_bipartite_work(3137, 3, 8)
    with pytest.raises(InputError, match="sweep of 9 bipartite scans"):
        ff._refuse_bipartite_work(3137, 3, 9)
    # the k = 2 character-sum sweep took about 19 s to 2 * 10^5 and 66 s
    # to 4 * 10^5 on the box that set the costs
    # (the sweep sums two intervals [1, m], so each sum is (m, 2m))
    def sums(max_p):
        return [(m, 2 * m) for m in
                (math.isqrt(p) for p in primes_up_to(max_p) if p >= 3)]
    ff._refuse_char_sums(2, sums(2 * 10 ** 5))
    with pytest.raises(InputError, match="above the cap of 60 s"):
        ff._refuse_char_sums(2, sums(4 * 10 ** 5))
    # one sum over the whole field at p near the cap is past it
    with pytest.raises(InputError, match="above the cap of 60 s"):
        ff._refuse_char_sums(2, [(999982, 2 * 999982)])


def test_ff_scan_bipartite_work_cap_refused_before_building(monkeypatch):
    # p^(max_side - 1) + p^2/128 above BIPARTITE_WORK_CAP is refused before
    # the p^2 / 8 bytes of partner rows are built
    class Built(Exception):
        pass

    def no_rows(config):
        raise Built

    monkeypatch.setattr(ff, "_partner_rows", no_rows)
    assert ff.BIPARTITE_WORK_CAP == 10 ** 7
    for p, k, max_side in ((197, 2, 6), (97, 2, 5), (3163, 2, 3),
                           (35729, 2, 2)):
        with pytest.raises(InputError, match="bipartite scan capped"):
            ff_scan_bipartite(FieldConfig(p, k, 1), max_side)
    # the golden inputs, criterion 7 and the sides of four at p = 31 pass
    # the cap and go on to build, and so does the largest p for each side
    for p, max_side in ((97, 3), (3137, 3), (31, 4), (211, 4), (53, 5),
                        (23, 6), (35677, 2)):
        with pytest.raises(Built):
            ff_scan_bipartite(FieldConfig(p, 2, 1), max_side)


def test_field_config_factors_p_minus_one_by_rho():
    # two safe primes, where trial division of p - 1 would run to
    # sqrt(p / 2), and a prime with a smooth p - 1
    for p, divisors in (
            (100000000000001099, [2, 50000000000000549]),
            (18446744073709550147, [2, 9223372036854775073]),
            (2 ** 61 - 1, [q for q, _ in trial_factor(2 ** 61 - 2)])):
        assert all(is_prime(q) for q in divisors)
        config = FieldConfig(p, 2, 1)
        g = config.g
        assert g == primitive_root(p)
        assert all(pow(g, (p - 1) // q, p) != 1 for q in divisors)
        assert FieldConfig(p, 2, 1, g=g).g == g
        with pytest.raises(InputError, match="does not generate"):
            FieldConfig(p, 2, 1, g=pow(g, 2, p))


def test_ff_scan_clique_frozen():
    r = ff_scan_clique(FieldConfig(13, 3, 1))
    assert r.max_size == 3
    assert r.witness == (1, 7, 11)
    assert r.bound == pytest.approx(6.82842712474619, rel=1e-12)
    assert not r.violation

    r = ff_scan_clique(FieldConfig(7, 2, 1))
    assert r.max_size == 3
    assert r.bound == pytest.approx(6.449489742783178, rel=1e-12)
    assert not r.violation


def test_ff_scan_clique_witness_is_valid():
    for p, k, lam in [(13, 3, 1), (7, 2, 1), (31, 5, 2), (61, 4, 3)]:
        cfg = FieldConfig(p, k, lam)
        r = ff_scan_clique(cfg)
        good = power_classes(p, k) | {0}
        for a, b in itertools.combinations(r.witness, 2):
            assert (a * b + lam) % p in good
        assert len(r.witness) == r.max_size


def test_ff_scan_clique_matches_networkx():
    for p in primes_up_to(60):
        if p < 5:
            continue
        for k in (2, 3, 4, 6):
            if (p - 1) % k:
                continue
            good = power_classes(p, k) | {0}
            for lam in (1, 2):
                g = nx.Graph()
                g.add_nodes_from(range(1, p))
                g.add_edges_from(
                    (a, b) for a in range(1, p) for b in range(a + 1, p)
                    if (a * b + lam) % p in good)
                want = max(len(c) for c in nx.find_cliques(g))
                got = ff_scan_clique(FieldConfig(p, k, lam)).max_size
                assert got == want, (p, k, lam)


def _largest_primitive_root(p: int) -> int:
    factors = trial_factor(p - 1)
    return next(g for g in range(p - 1, 0, -1)
                if all(pow(g, (p - 1) // q, p) != 1 for q, _ in factors))


def test_clique_graph_matches_pairwise_definition():
    for p in primes_up_to(60):
        for k in range(2, p):
            if (p - 1) % k:
                continue
            good = power_classes(p, k) | {0}
            for lam, g in itertools.product((1, 2, p - 1),
                                            (0, _largest_primitive_root(p))):
                if lam > p - 1:
                    continue
                adj = _clique_graph(FieldConfig(p, k, lam, g))
                assert adj[0] == 0
                for a in range(1, p):
                    want = sum(1 << b for b in range(1, p)
                               if b != a and (a * b + lam) % p in good)
                    assert adj[a] == want, (p, k, lam, a)
                    # a -> p - a maps every edge to an edge: the root of
                    # the clique search relies on it
                    mirrored = sum(1 << (p - b) for b in range(1, p)
                                   if adj[a] >> b & 1)
                    assert adj[p - a] == mirrored, (p, k, lam, a)
    # the largest generator of a prime above 3000, on a sample of rows
    p, k, lam = 3137, 2, 5
    g = _largest_primitive_root(p)
    assert g > 3000
    good = power_classes(p, k) | {0}
    adj = _clique_graph(FieldConfig(p, k, lam, g))
    for a in (1, 2, 3, g, p - 2, p - 1, *range(100, p, 97)):
        want = sum(1 << b for b in range(1, p)
                   if b != a and (a * b + lam) % p in good)
        assert adj[a] == want, a


def reference_scan_clique(config):
    """The single-pass search: pairwise-built graph, greedy coloring of
    every candidate, and a record raised as cliques are found.  Test-only
    oracle for the two-pass search."""
    p, k, lam = config.p, config.k, config.lam
    good = power_classes(p, k) | {0}
    adj = [0] * p
    for a in range(1, p):
        for b in range(a + 1, p):
            if (a * b + lam) % p in good:
                adj[a] |= 1 << b
                adj[b] |= 1 << a

    best = 0
    witness = ()

    def coloring(cands):
        order, limits = [], []
        color = 0
        rest = cands
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                rest &= ~(1 << v)
                order.append(v)
                limits.append(color)
        return order, limits

    def expand(clique, cands):
        nonlocal best, witness
        if not cands:
            if len(clique) > best:
                best = len(clique)
                witness = tuple(sorted(clique))
            return
        order, limits = coloring(cands)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + limits[i] <= best:
                return
            v = order[i]
            clique.append(v)
            expand(clique, cands & adj[v])
            clique.pop()
            cands &= ~(1 << v)

    expand([], (1 << p) - 2)
    violation = best > 4 and (best - 4) ** 2 * k > 2 * (p - 1)
    return CliqueScanResult(p, k, lam, best, witness,
                            math.sqrt(2 * (p - 1) / k) + 4, violation)


def test_ff_scan_clique_matches_single_pass_search():
    for p in primes_up_to(47):
        for k in range(2, p):
            if (p - 1) % k:
                continue
            for lam in range(1, p):
                cfg = FieldConfig(p, k, lam)
                assert ff_scan_clique(cfg) == reference_scan_clique(cfg), (
                    p, k, lam)


@pytest.mark.parametrize("p", [97, 101, 193, 197])
@pytest.mark.parametrize("lam", [1, 2])
def test_ff_scan_clique_matches_single_pass_search_large(p, lam):
    # at (197, 2, 2) the single-pass search sets its final record late, at
    # its 1357th node, after records of smaller cliques
    cfg = FieldConfig(p, 2, lam)
    assert ff_scan_clique(cfg) == reference_scan_clique(cfg)


def test_clique_number_matches_single_pass_search_on_criterion_7():
    # pass 1 alone on every shift class of criterion 7 (p <= 200, every
    # k | p - 1, lam in {1, 2}): the replay cannot see an understated pass
    # 1, since it stops at the first clique of the size it is given
    reps = {(p, k, ff._shift_class_rep(p, k, lam))
            for p in primes_up_to(200) for k in range(2, p)
            if (p - 1) % k == 0 for lam in (1, 2) if lam <= p - 1}
    assert len(reps) == 583
    for p, k, lam in sorted(reps):
        cfg = FieldConfig(p, k, lam)
        assert ff._clique_number(_clique_graph(cfg), p) == \
            reference_scan_clique(cfg).max_size, (p, k, lam)


def test_clique_number_matches_single_pass_search_beyond_criterion_7():
    # pass 1 alone on a seeded quarter of the 862 shift classes with
    # 200 < p <= 500, k >= 3 and lam in {1, 2}, and on every such class at
    # k = 2 for p = 211 and 223, where the reference takes about 0.1 s
    reps = sorted({(p, k, ff._shift_class_rep(p, k, lam))
                   for p in primes_up_to(500) if p > 200
                   for k in range(3, p) if (p - 1) % k == 0
                   for lam in (1, 2)})
    assert len(reps) == 862
    sample = random.Random(20261019).sample(reps, 215)
    sample += sorted({(p, 2, ff._shift_class_rep(p, 2, lam))
                      for p in (211, 223) for lam in (1, 2)})
    assert {k for _, k, _ in sample} >= {2, 3, 4, 5, 6}
    for p, k, lam in sample:
        cfg = FieldConfig(p, k, lam)
        assert ff._clique_number(_clique_graph(cfg), p) == \
            reference_scan_clique(cfg).max_size, (p, k, lam)


def test_ff_scan_clique_witness_at_the_cap():
    # p = 499, k = 2 takes pass 1 about 1.8 s; the witness was recorded
    # with the lowest-first pass-1 coloring and must not depend on it
    r = ff_scan_clique(FieldConfig(499, 2, 1))
    assert (r.max_size, r.witness, r.violation) == (
        12, (12, 46, 80, 214, 271, 318, 366, 388, 404, 438, 492, 494), False)


def test_clique_number_is_shared_by_shift_class():
    # a -> u*a maps the graph of lam onto the graph of u^2 lam for u^2 in
    # S_k, so every shift in lam * S_lcm(2,k) has the clique number that
    # pass 1 proves on the graph of whichever shift of the class comes first
    for p in primes_up_to(59):
        for k in range(2, p):
            if (p - 1) % k:
                continue
            squares_in_sk = power_classes(p, math.lcm(2, k))
            for lam in range(1, p):
                rep = min(lam * u % p for u in squares_in_sk)
                assert ff._shift_class_rep(p, k, lam) == rep, (p, k, lam)
                adj = _clique_graph(FieldConfig(p, k, lam))
                own = ff._clique_number(adj, p)  # uncached
                assert own == ff_scan_clique(FieldConfig(p, k, rep)).max_size
                assert own == ff_scan_clique(FieldConfig(p, k, lam)).max_size


def test_ff_scan_clique_replay_must_reach_the_proved_size(monkeypatch):
    # pass 1 is cached per shift class: empty the cache so that the
    # overstated pass 1 runs, whatever earlier tests left in it
    number = ff._clique_number

    def overstated(adj, p):
        return number(adj, p) + 1

    monkeypatch.setattr(ff, "_class_omega", {})
    monkeypatch.setattr(ff, "_clique_number", overstated)
    with pytest.raises(InvariantViolation) as err:
        ff_scan_clique(FieldConfig(13, 3, 1))
    assert str(err.value) == "clique replay found size 3, not 4, at p=13 k=3 lam=1"


def test_clique_number_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ff, "_class_omega", {})
    monkeypatch.setattr(ff, "CLASS_OMEGA_CAP", 2)
    for lam in (1, 2, 3):  # three classes at p = 13, k = 3: S_6 = {1, 12}
        ff_scan_clique(FieldConfig(13, 3, lam))
    assert list(ff._class_omega) == [(13, 3, 2), (13, 3, 3)]


def test_ff_scan_clique_cap():
    with pytest.raises(InputError):
        ff_scan_clique(FieldConfig(503, 2, 1))


def test_char_sum_frozen():
    r = char_sum([1, 2, 3, 4], [1, 2, 3, 4], FieldConfig(13, 3))
    assert r.counts == (5, 3, 8)
    assert r.zero_hits == 0
    # |5 + 3 w + 8 w^2| with w a primitive cube root: sqrt(19)
    assert r.magnitude == pytest.approx(19**0.5, rel=1e-12)
    assert r.exponent is not None and r.exponent < 0


def test_char_sum_zero_hits():
    r = char_sum([1], [12], FieldConfig(13, 3))
    assert r.zero_hits == 1
    assert r.counts == (0, 0, 0)
    assert r.magnitude == 0.0 and r.exponent is None


def pair_loop_counts(A, B, config):
    """The character counts and zero hits, pair by pair, classed through a
    discrete-log table stepped along the powers of config.g.  Test-only
    oracle for the packed count of the sums and their Euler-criterion
    classes."""
    p, k = config.p, config.k
    table = {}
    x = 1
    for i in range(p - 1):
        table[x] = i
        x = x * config.g % p
    counts = [0] * k
    zero_hits = 0
    for a in set(A):
        for b in set(B):
            if (a + b) % p:
                counts[table[(a + b) % p] % k] += 1
            else:
                zero_hits += 1
    return tuple(counts), zero_hits


@st.composite
def sum_inputs(draw):
    """A field, a generator drawn from all primitive roots of p, and two
    sides, each a random sample of a window of random width, so that both
    sparse and dense sides come up; 0, p - 1 and repeated elements
    included."""
    p = draw(st.sampled_from([q for q in primes_up_to(200) if q > 2])
             | st.just(9973))
    k = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    # the primitive roots are the g0^j with j prime to p - 1
    j = draw(st.integers(1, p - 1).filter(lambda j: math.gcd(j, p - 1) == 1))
    g = pow(primitive_root(p), j, p)
    rng = draw(st.randoms(use_true_random=False))

    def side():
        lo = draw(st.integers(0, p - 1))
        hi = min(p - 1, lo + draw(st.sampled_from([3, 30, 300, p])))
        size = draw(st.sampled_from([1, 3, 30, 300]))
        inner = rng.sample(range(lo, hi + 1), min(size, hi - lo + 1))
        ends = draw(st.lists(st.sampled_from([0, p - 1]), max_size=2))
        return inner + ends + inner[:draw(st.integers(0, 3))]

    return p, k, g, side(), side()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sum_inputs())
@example((13, 3, 2, [0, 12], [1, 5, 12]))
@example((13, 3, 6, list(range(13)) * 2, [0, 12, 12]))
@example((9973, 2, 11, [0, 9972], list(range(0, 9973, 7))))
# 300 pairs sum to 299: the slots need more than one byte
@example((9973, 3, 1483, list(range(300)), list(range(300))))
def test_char_sum_counts_match_pair_loop(case):
    p, k, g, A, B = case
    config = FieldConfig(p, k, g=g)
    r = char_sum(A, B, config)
    assert (r.counts, r.zero_hits) == pair_loop_counts(A, B, config)
    # the packed sums before they are folded mod p
    sums = Counter(a + b for a in set(A) for b in set(B))
    packed = dict(ff._packed_sums(set(A), set(B)))
    assert {s: c for s, c in packed.items() if c} == sums
    assert min(packed) == min(sums) and max(packed) == max(sums)


def test_char_sum_orthogonality_exact_zero():
    # a full line of sums fills every class equally: exact cancellation
    for p in (7, 13, 31):
        for k in (2, 3):
            if (p - 1) % k:
                continue
            cfg = FieldConfig(p, k)
            full = range(p)
            r = char_sum([0], full, cfg)
            assert r.magnitude == 0.0  # exactly, not approximately
            assert r.exponent is None
            r = char_sum(full, full, cfg)
            assert r.magnitude == 0.0
            assert r.zero_hits == p


def test_char_sum_invariant():
    r = char_sum([1, 2], [3, 4], FieldConfig(13, 3))
    assert sum(r.counts) + r.zero_hits == 4
    with pytest.raises(InvariantViolation):
        CharacterSumResult(p=13, k=3, size_a=2, size_b=2, counts=(1, 1, 1),
                           zero_hits=0, magnitude=0.0, exponent=None)


def test_char_sum_errors():
    cfg = FieldConfig(13, 3)
    with pytest.raises(InputError):
        char_sum([], [1], cfg)
    with pytest.raises(InputError):
        char_sum([1], [13], cfg)
    with pytest.raises(InputError):
        char_sum([-1], [1], cfg)
    with pytest.raises(InputError):
        char_sum([1], [2], FieldConfig(1000003, 2))  # beyond the cap
