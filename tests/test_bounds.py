"""Closed-form size bounds, tabulated constants, Thue-box scans."""

import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Integer, Rational, continued_fraction_convergents, exp, floor
from sympy import continued_fraction_iterator, root

from diotuple.bounds import (
    BoundReport,
    ThueScanReport,
    _root_convergents,
    bipartite_side_bound,
    bound_reports,
    evertse_constants,
    large_element_exponents,
    table_constants,
    tail_term,
    thue_scan,
    tuple_size_bound,
    tuple_size_bound_closed,
    tuple_size_small_regime,
)
from diotuple.errors import InputError


def test_table_constants_frozen():
    rows = {
        3: (9, 6, Fraction(15399, 938), 15),
        4: (6, 4, Fraction(34, 3), 10),
        5: (5, 3, Fraction(97, 23), 6),
        6: (4, 2, Fraction(29, 4), 8),
        7: (4, 2, Fraction(52, 13), 8),
        14: (4, 2, Fraction(206, 118), 8),
        15: (4, 2, Fraction(236, 141), 5),
        20: (4, 2, Fraction(208, 143), 5),
        50: (4, 2, Fraction(1273, 1103), 5),
    }
    for k, (r, s, t, u) in rows.items():
        got = table_constants(k)
        assert (got.r, got.s, got.t, got.u) == (r, s, t, u), k
    with pytest.raises(InputError):
        table_constants(2)


def test_table_constants_t_shape():
    # t exceeds 1 everywhere; from k = 7 on, the closed form decreases
    prev = None
    for k in range(3, 60):
        t = table_constants(k).t
        assert t > 1
        if k >= 8:
            assert t < prev
        prev = t


def derive_cubic_threshold() -> Fraction:
    """Closed form behind the k = 3 threshold ratio, evaluated exactly:
    (10 + (9/2)(rho - 1)) / (rho - 9) with rho = (5/3)^5."""
    rho = Fraction(5, 3) ** 5
    return (10 + Fraction(9, 2) * (rho - 1)) / (rho - 9)


def test_derive_cubic_threshold():
    # the tabulated t at k = 3 is the closed form, exactly
    got = derive_cubic_threshold()
    assert got == Fraction(15399, 938)
    assert got == table_constants(3).t


def test_evertse_constants_frozen():
    assert evertse_constants(3) == (Fraction(9), Fraction(5761, 5))
    assert evertse_constants(4) == (Fraction(5), Fraction(9853, 100))
    assert evertse_constants(5) == (Fraction(13, 4), Fraction(25))
    assert evertse_constants(6) == (Fraction(8, 3), Fraction(36))
    # at k = 10 the second branch of the max takes over: 9/4 > 2
    assert evertse_constants(10) == (Fraction(9, 4), Fraction(100))
    assert evertse_constants(40) == (
        max(Fraction(118, 74), Fraction(78, 38)), Fraction(1600))
    with pytest.raises(InputError):
        evertse_constants(2)


# 50-digit reference evaluations of the tail term
TAIL_FROZEN = [
    (3, Fraction(3), 19.754887502163468544361216831843),
    (3, Fraction(8, 5), 124.50806894805383823141038037354),
    (3, Fraction(2), 34.913050075838508054988851969749),
    (4, Fraction(2), 18.0),
]


def test_tail_term_frozen():
    for k, L, want in TAIL_FROZEN:
        assert tail_term(k, L) == pytest.approx(want, rel=1e-12), (k, L)
    # the k=4, L=2 case is exactly 18: log(18/2)/log(3/1) = 2
    assert tail_term(4, 2) == 18.0


def test_tail_term_domain():
    with pytest.raises(InputError) as err:
        tail_term(3, Fraction(3, 2))  # exactly the open lower endpoint
    assert "3/2" in str(err.value)
    with pytest.raises(InputError) as err:
        tail_term(3, Fraction(301, 100))  # just past the closed upper endpoint
    assert "L must not exceed" in str(err.value)
    assert "3" in str(err.value)
    with pytest.raises(InputError):
        tail_term(2, 1)
    # closed upper endpoint itself is fine
    assert tail_term(3, 3) > 12


def test_tail_term_exceeds_twelve():
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(3, 12)
        lo, hi = Fraction(k, 2 * k - 4), Fraction(k, k - 2)
        L = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        assert tail_term(k, L) > 12, (k, L)


def test_bipartite_side_bound():
    # unit shift: exact r_k + 1
    assert bipartite_side_bound(1, 3) == Fraction(10)
    assert bipartite_side_bound(-1, 5) == Fraction(6)
    assert isinstance(bipartite_side_bound(-1, 3), Fraction)
    # 50-digit reference: 34.678017139439892561905770345045
    assert bipartite_side_bound(100, 6) == pytest.approx(
        34.678017139439892561905770345045, rel=1e-12)
    with pytest.raises(InputError):
        bipartite_side_bound(0, 3)
    with pytest.raises(InputError):
        bipartite_side_bound(1, 2)


def test_bipartite_side_bound_definitional():
    # recompute the max-of-two-branches formula directly in floats; at
    # these sizes the root branch dominates and float precision suffices
    for n, k in [(100, 6), (-100, 6), (7, 4), (-3, 5), (10**6, 8)]:
        first = (math.log(math.log(abs(n))) + 3.3) / math.log(k - 1) + 8
        inner = max(4 * n * n, abs(n) ** (2 * (k + 1) / (k - 2)))
        second = (inner + n) ** (1 / k) + 20
        want = max(first, second)
        assert bipartite_side_bound(n, k) == pytest.approx(want, rel=1e-9)


# 50-digit reference evaluations of the parametric size bound
def test_tuple_size_bound_frozen():
    assert tuple_size_bound(2, 3, 3) == pytest.approx(
        24.796127522785658815163206906478, rel=1e-12)
    assert tuple_size_bound(-2, 3, 3) == pytest.approx(
        24.712779111843874023297365310863, rel=1e-12)
    assert tuple_size_bound(1, 4, 2) == pytest.approx(
        20.189207115002721066717499970560, rel=1e-12)


def test_tuple_size_bound_radicand_zero():
    # n = -1 makes |n|^(2L) + n exactly zero; the root term vanishes
    got = tuple_size_bound(-1, 3, 3)
    assert got == pytest.approx(tail_term(3, 3) + 1, rel=1e-12)
    with pytest.raises(InputError):
        tuple_size_bound(0, 3, 3)
    with pytest.raises(InputError):
        tuple_size_bound(2, 3, 10)  # L outside the tail term's range


def test_tuple_size_bound_closed_frozen():
    assert tuple_size_bound_closed(10, 4) == pytest.approx(
        27.892071150027210667174999705605, rel=1e-12)
    assert tuple_size_bound_closed(7, 6) == pytest.approx(
        18.969755435934769385731704275246, rel=1e-12)
    with pytest.raises(InputError):
        tuple_size_bound_closed(0, 4)
    with pytest.raises(InputError):
        tuple_size_bound_closed(10, 2)


def test_tuple_size_small_regime():
    # k >= 2 ln|n| + 2 with |n| >= 2
    assert tuple_size_small_regime(7, 6)  # 6 >= 2 ln 7 + 2 = 5.891...
    assert not tuple_size_small_regime(10, 4)
    assert not tuple_size_small_regime(1, 9)  # |n| = 1 excluded
    assert not tuple_size_small_regime(-1, 9)
    assert tuple_size_small_regime(2, 4)  # 4 >= 2 ln 2 + 2 = 3.386...
    with pytest.raises(InputError):
        tuple_size_small_regime(0, 4)


@pytest.mark.parametrize("bound", [bipartite_side_bound, tuple_size_bound_closed,
                                   tuple_size_small_regime])
def test_bound_domain_messages(bound):
    # the shift is checked before the degree, and each message is exact
    for n, k, message in ((0, 3, "shift n must be nonzero"),
                          (0, 2, "shift n must be nonzero"),
                          (5, 2, "bound defined for k >= 3, got 2"),
                          (-1, 1, "bound defined for k >= 3, got 1")):
        with pytest.raises(InputError) as err:
            bound(n, k)
        assert type(err.value) is InputError
        assert str(err.value) == message


def test_tuple_size_small_regime_boundary_against_sympy():
    # |n| = floor(e^((k-2)/2)) is the largest shift in the small regime and
    # the next one is outside it, e.g. 54 and 55 at k = 10; from k = 55 on,
    # the first bracket of e is too wide there and the terms double
    assert tuple_size_small_regime(54, 10)
    assert not tuple_size_small_regime(55, 10)
    for k in range(4, 161):
        edge = int(floor(exp(Rational(k - 2, 2))))
        for m in (edge, edge + 1):
            inside = bool(Integer(m) ** 2 < exp(k - 2))
            assert inside == (m == edge)
            for n in (m, -m):
                assert tuple_size_small_regime(n, k) == inside, (k, n)


def test_large_element_exponents():
    assert large_element_exponents(3) == (Fraction(5133, 938), Fraction(1))
    assert large_element_exponents(4) == (Fraction(17, 6), Fraction(1, 2))
    assert large_element_exponents(6) == (Fraction(29, 24), Fraction(1, 4))
    with pytest.raises(InputError):
        large_element_exponents(2)


def test_bound_reports_assembly():
    rows = {r.name: r for r in bound_reports(7, 6, Fraction(5, 4))}
    assert set(rows) == {
        "bipartite-side", "tuple-size-closed", "tuple-size-small-regime",
        "tail-term", "tuple-size-parametric", "large-exponent-main",
        "large-exponent-secondary",
    }
    assert rows["tuple-size-small-regime"].value == Fraction(19)
    assert rows["tuple-size-small-regime"].exact
    assert rows["large-exponent-main"].value == Fraction(29, 24)
    assert not rows["tuple-size-closed"].exact
    for r in rows.values():
        assert r.anchor  # every row names its formula
        assert r.parameters["k"] == 6

    # without L the parametric rows are absent
    names = {r.name for r in bound_reports(7, 6)}
    assert "tail-term" not in names and "tuple-size-parametric" not in names
    # small-regime row only appears when the predicate holds
    assert "tuple-size-small-regime" not in {
        r.name for r in bound_reports(10, 4)}
    # unit shift: bipartite-side row is exact
    unit = {r.name: r for r in bound_reports(1, 3)}
    assert unit["bipartite-side"].value == Fraction(10)
    assert unit["bipartite-side"].exact


# ------------------------------------------------------------------- thue

def _thue_naive(a, b, k, c, X):
    out = []
    for x in range(1, X + 1):
        for y in range(1, X + 1):
            if abs(a * x**k - b * y**k) <= c and math.gcd(x, y) == 1:
                out.append((x, y))
    return out


def reference_thue_scan(a, b, k, c, X):
    """The O(X) pointer walk over precomputed powers, kept as the oracle.

    For increasing x the matching y values are nondecreasing, so one pointer
    to the largest y with b y^k <= a x^k serves the whole box.
    """
    alpha, beta = evertse_constants(k)
    powers = [y ** k for y in range(X + 1)]
    sols = []
    floor = 1  # largest y with b*y^k <= a*x^k, clamped to [1, X]
    for x in range(1, X + 1):
        axk = a * powers[x]
        lo, hi = axk - c, axk + c
        while floor < X and b * powers[floor + 1] <= axk:
            floor += 1
        y = floor
        while y >= 1:
            v = b * powers[y]
            if v < lo:
                break
            if v <= hi and math.gcd(x, y) == 1:
                sols.append((x, y))
            y -= 1
        y = floor + 1
        while y <= X:
            if b * powers[y] > hi:
                break
            if math.gcd(x, y) == 1:
                sols.append((x, y))
            y += 1
    sols.sort()
    p, q = alpha.numerator, alpha.denominator
    rhs = beta ** q * c ** p
    large = tuple((x, y) for x, y in sols
                  if Fraction(max(a * x ** k, b * y ** k)) ** q > rhs)
    return ThueScanReport(a, b, k, c, X, tuple(sols), large, alpha, beta,
                          len(large) >= 2)


def _x0(a, b, k, c):
    """Least x with a^(k-1) b x^(k(k-2)) > (2c)^k, by counting up."""
    x = 1
    while a ** (k - 1) * b * x ** (k * (k - 2)) <= (2 * c) ** k:
        x += 1
    return x


def test_thue_scan_frozen():
    rep = thue_scan(2, 1, 3, 1, 10_000)
    assert rep.solutions == ((1, 1),)
    assert rep.large == ()
    assert not rep.lemma_violation
    assert (rep.alpha, rep.beta) == (Fraction(9), Fraction(5761, 5))

    # c = 0: threshold is zero, so the single solution counts as large
    rep = thue_scan(1, 1, 3, 0, 100)
    assert rep.solutions == ((1, 1),)
    assert rep.large == ((1, 1),)
    assert not rep.lemma_violation

    rep = thue_scan(1, 1, 4, 2, 500)
    assert rep.solutions == ((1, 1),)
    assert rep.large == ()


def test_thue_scan_vs_naive():
    rng = random.Random(1234)
    for _ in range(40):
        a = rng.randint(1, 10)
        b = rng.randint(1, 10)
        k = rng.choice([3, 4, 5])
        c = rng.randint(0, 30)
        X = rng.randint(1, 60)
        rep = thue_scan(a, b, k, c, X)
        assert list(rep.solutions) == _thue_naive(a, b, k, c, X), (a, b, k, c, X)


def test_thue_scan_large_classification():
    # classification must follow max(a x^k, b y^k) > beta * c^alpha exactly
    rep = thue_scan(3, 2, 3, 25, 400)
    thresh = rep.beta * Fraction(25) ** rep.alpha
    for x, y in rep.solutions:
        big = max(3 * x**3, 2 * y**3)
        assert ((x, y) in rep.large) == (big > thresh)
    assert rep.lemma_violation == (len(rep.large) >= 2)


def test_thue_scan_violation_is_logged(monkeypatch, caplog):
    # a zero threshold makes all four solutions large, which forces the
    # failure branch; it reports to the layer's logger once logging has a
    # handler
    import diotuple.bounds as bounds_mod
    monkeypatch.setattr(bounds_mod, "evertse_constants",
                        lambda k: (Fraction(1), Fraction(0)))
    with caplog.at_level(logging.ERROR, logger="diotuple.bounds"):
        rep = thue_scan(3, 2, 3, 25, 400)
    assert rep.lemma_violation
    assert rep.large == ((1, 1), (1, 2), (2, 1), (7, 8))
    assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [(
        "diotuple.bounds",
        "two primitive solutions above the Thue threshold for "
        "(a,b,k,c)=(3,2,3,25): ((1, 1), (1, 2), (2, 1), (7, 8)) -- this is "
        "a bug")]


def test_thue_scan_errors():
    with pytest.raises(InputError):
        thue_scan(0, 1, 3, 1, 10)
    with pytest.raises(InputError):
        thue_scan(1, 1, 2, 1, 10)
    with pytest.raises(InputError):
        thue_scan(1, 1, 3, -1, 10)
    with pytest.raises(InputError):
        thue_scan(1, 1, 3, 1, 0)


def test_thue_scan_small_zone_cap(monkeypatch, capsys):
    # with a = b = 1 and k = 3, x0 = 2c + 1, so the zone spans min(2c, X)
    import diotuple.bounds as bounds_mod
    import diotuple.cli as cli

    monkeypatch.setattr(bounds_mod, "THUE_ZONE_CAP", 40)
    for box in ((1, 1, 3, 20, 10**4), (1, 1, 3, 10**6, 40)):
        assert thue_scan(*box) == reference_thue_scan(*box), box
    for c, X in ((21, 10**4), (10**6, 41)):
        with pytest.raises(InputError, match=r"spans 4[12] .* cap of 40;"):
            thue_scan(1, 1, 3, c, X)
    assert cli.main(["thue-scan", "--a", "1", "--b", "1", "--k", "3",
                     "--c", "21", "--X", "1000000000"]) == 1
    assert "cap of 40" in capsys.readouterr().err


def test_thue_scan_degree_cap(monkeypatch):
    # a degree above the cap is refused before a power or a root is built
    import diotuple.bounds as bounds_mod

    assert thue_scan(2, 1, bounds_mod.THUE_DEGREE_CAP, 1, 100).solutions == \
        ((1, 1),)

    def spy(*args):
        raise AssertionError("root taken before refusing")

    monkeypatch.setattr(bounds_mod, "integer_kth_root", spy)
    for k in (bounds_mod.THUE_DEGREE_CAP + 1, 10 ** 18 + 3):
        with pytest.raises(InputError, match="capped at degree"):
            thue_scan(2, 1, k, 1, 100)


def test_thue_scan_criterion_9_slice_matches_reference():
    # (1,5,4,11), (4,1,4,12) and (5,1,4,11) have a solution at x0 - 2 that
    # is no convergent, (1,6,3,18) and (2,1,3,3) one at x0 itself
    for k in (3, 4, 5):
        for a, b in ((1, 1), (1, 5), (1, 6), (2, 1), (4, 1), (5, 1), (7, 3),
                     (10, 9)):
            for c in (0, 3, 11, 12, 18, 20):
                box = (a, b, k, c, 10**4)
                assert thue_scan(*box) == reference_thue_scan(*box), box


def test_thue_scan_convergent_only_solution():
    # x0 = 6 here, and 257/467 is a convergent of 6^(-1/3): 467^3 - 6*257^3 = 5
    rep = thue_scan(1, 6, 3, 5, 10**4)
    assert _x0(1, 6, 3, 5) == 6
    assert rep.solutions == ((1, 1), (2, 1), (467, 257))
    assert rep.large == ()
    assert rep == reference_thue_scan(1, 6, 3, 5, 10**4)
    # the convergent denominators around the box edge are 467 and 237385
    for X in (466, 467, 468, 5000):
        assert thue_scan(1, 6, 3, 5, X) == reference_thue_scan(1, 6, 3, 5, X)
    # (10^9 + 1)^(-1/3) = [0; 1000, about 3*10^6, ...] sits so close to 1/1000
    # that the first precision cannot settle the quotient 1000
    rep = thue_scan(1, 10**9 + 1, 3, 1, 2000)
    assert rep.solutions == ((1000, 1),)
    assert rep == reference_thue_scan(1, 10**9 + 1, 3, 1, 2000)


def test_thue_scan_c_zero():
    for k in (3, 4, 5):
        for a in range(1, 7):
            for b in range(1, 7):
                box = (a, b, k, 0, 300)
                assert thue_scan(*box) == reference_thue_scan(*box), box


def test_thue_scan_rational_root():
    # theta = 2 (8/1 at k = 3, 48/3 at k = 4), 2/3 (48/243 at k = 4) and
    # 3/2 (81/16 at k = 4): the expansion is finite and ends at theta
    for a, b, k in ((8, 1, 3), (48, 3, 4), (48, 243, 4), (81, 16, 4),
                    (2 * 125, 2 * 64, 3)):
        for c in (0, 1, 2, 7, 40):
            for X in (1, 2, 3, 5, 64, 700):
                box = (a, b, k, c, X)
                assert thue_scan(*box) == reference_thue_scan(*box), box
    assert thue_scan(81, 16, 4, 0, 10).solutions == ((2, 3),)


def test_thue_scan_box_below_x0():
    # x0 = 40 for (1, 1, 3, 20) and 86 for (1, 7, 3, 50)
    for a, b, k, c in ((1, 1, 3, 20), (1, 7, 3, 50), (2, 3, 4, 60)):
        x0 = _x0(a, b, k, c)
        for X in (1, 2, x0 - 2, x0 - 1, x0, x0 + 1):
            box = (a, b, k, c, X)
            assert thue_scan(*box) == reference_thue_scan(*box), box


def test_root_convergents_against_sympy():
    for a, b, k, X in ((1, 6, 3, 10**4), (2, 1, 3, 10**30), (5, 3, 5, 10**12),
                       (1, 10**9 + 1, 3, 10**7), (48, 243, 4, 10**6)):
        got = _root_convergents(a, b, k, X)
        want = []
        for cv in continued_fraction_convergents(
                continued_fraction_iterator(root(Rational(a, b), k))):
            if cv.p > X or cv.q > X:
                break
            want.append((int(cv.p), int(cv.q)))
        assert got == want, (a, b, k)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(3, 7),
       st.integers(0, 200), st.integers(1, 2000))
def test_thue_scan_property_matches_reference(a, b, k, c, X):
    assert thue_scan(a, b, k, c, X) == reference_thue_scan(a, b, k, c, X)
