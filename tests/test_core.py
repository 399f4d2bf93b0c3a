"""Tuple/pair domain objects, gap principle, growth exponents."""

import logging
from fractions import Fraction

import pytest

import diotuple.core as core_mod
from diotuple.core import (
    BipartitePair,
    DiophantineTuple,
    TupleConfig,
    check_gap_quadruple,
    check_superexponential_growth,
    gap_lower_bound,
    growth_exponents,
    verify_bipartite,
    verify_tuple,
)
from diotuple.errors import HypothesisError, InputError


def test_config_validation():
    cfg = TupleConfig(k=3, n=-1)
    assert cfg.k == 3 and cfg.n == -1
    assert not cfg.k_below_main_range
    assert TupleConfig(k=2, n=5).k_below_main_range
    with pytest.raises(InputError):
        TupleConfig(k=1, n=1)
    with pytest.raises(InputError):
        TupleConfig(k=3, n=0)


def test_config_and_elements_admit_integers_only():
    # floats and bools are refused, as exact.parse_rational refuses them
    # for L; True would otherwise read as 1
    for k, n in ((3.0, 1), (3, 1.0), (3, True), ("3", 1), (3, None)):
        with pytest.raises(InputError):
            TupleConfig(k, n)
    cfg = TupleConfig(k=3, n=1)
    for elements in ([True, 7], [2.0, 13], [2, 13.0]):
        with pytest.raises(InputError):
            verify_tuple(elements, cfg)
        with pytest.raises(InputError):
            verify_bipartite(elements, [13], cfg)
        with pytest.raises(InputError):
            verify_bipartite([13], elements, cfg)


def test_verify_tuple_positive():
    # 2*13+1 = 27 = 3^3
    rep = verify_tuple([2, 13], TupleConfig(k=3, n=1))
    assert rep.ok and rep.failures == ()
    # singletons and empties are vacuously fine
    assert verify_tuple([7], TupleConfig(k=3, n=1)).ok
    assert verify_tuple([], TupleConfig(k=3, n=1)).ok


def test_verify_tuple_negative():
    rep = verify_tuple([2, 14], TupleConfig(k=3, n=1))
    assert not rep.ok
    assert rep.failures == ((2, 14, 29),)


def test_verify_tuple_input_checks():
    cfg = TupleConfig(k=3, n=1)
    with pytest.raises(InputError, match="strictly increasing"):
        verify_tuple([13, 2], cfg)  # not increasing
    with pytest.raises(InputError, match="strictly increasing"):
        verify_tuple([2, 2], cfg)  # not strict
    with pytest.raises(InputError, match="must contain positive integers"):
        verify_tuple([0, 2], cfg)
    with pytest.raises(InputError, match="must contain positive integers"):
        verify_tuple([-1, 2], cfg)
    with pytest.raises(InputError):
        verify_tuple([2, "13"], cfg)


def test_verify_tuple_k2_note():
    rep = verify_tuple([2, 12], TupleConfig(k=2, n=1))  # 25 = 5^2
    assert rep.ok
    assert any("k=2" in note for note in rep.notes)


def test_verify_bipartite():
    cfg = TupleConfig(k=3, n=1)
    rep = verify_bipartite([2], [13], cfg)
    assert rep.ok
    rep = verify_bipartite([2], [14], cfg)
    assert rep.failures == ((2, 14, 29),)


def test_verify_bipartite_shared_elements_note():
    # sides may intersect; the square product is then a real constraint
    cfg = TupleConfig(k=3, n=28)  # 6*6+28 = 64
    rep = verify_bipartite([6], [6], cfg)
    assert rep.ok
    assert any("share" in note for note in rep.notes)
    bad = verify_bipartite([5], [5], cfg)  # 53 is not a cube
    assert not bad.ok


def test_tuple_object():
    cfg = TupleConfig(k=3, n=1)
    t = DiophantineTuple(cfg, (2, 13))
    assert t.elements == (2, 13)
    with pytest.raises(InputError):
        DiophantineTuple(cfg, (2, 14))


def test_bipartite_pair_orientation():
    cfg = TupleConfig(k=3, n=1)
    p = BipartitePair(cfg, A=(13,), B=(2,))
    # canonical orientation: min(A) <= min(B)
    assert p.A == (2,) and p.B == (13,)
    assert not p.has_two_per_side
    with pytest.raises(InputError):
        BipartitePair(cfg, A=(), B=(2,))
    with pytest.raises(InputError):
        BipartitePair(cfg, A=(2,), B=(14,))


def test_bipartite_pair_checks_sides_before_orienting_them():
    # orientation compares the sides, so each is read by the integer rule
    # and checked increasing first, and a refusal names the caller's side
    cfg = TupleConfig(k=3, n=1)
    for A, B, message in ((["2"], [13], "A must be integers"),
                          ([13], [None], "B must be integers"),
                          ([13], [5, 2], "B must be strictly increasing"),
                          ([0], [13], "A must contain positive integers")):
        with pytest.raises(InputError, match=message):
            BipartitePair(cfg, A, B)


def test_bipartite_pair_reads_each_side_once(monkeypatch):
    # verify_bipartite reads the caller's sides; the pair reads them no more
    calls = {"_check_elements": 0, "verify_bipartite": 0}
    for name in calls:
        def counted(*args, original=getattr(core_mod, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(core_mod, name, counted)
    p = BipartitePair(TupleConfig(3, 1), (13,), (2,))
    assert p.A == (2,) and p.B == (13,)
    assert calls == {"_check_elements": 2, "verify_bipartite": 1}


def test_record_refusals_name_the_first_failing_product():
    # the records word a failing product as _require_powers does, after
    # their own prefix; a pair names it as the caller's sides give it
    cfg = TupleConfig(k=3, n=1)
    for make, message in (
            (lambda: DiophantineTuple(cfg, (2, 14)),
             "not a D_3(1) tuple: 2*14+1 = 29 is not a positive 3-th power"),
            (lambda: BipartitePair(cfg, (2,), (14,)),
             "not a BD_3(1) pair: 2*14+1 = 29 is not a positive 3-th power"),
            (lambda: BipartitePair(cfg, (14,), (2,)),
             "not a BD_3(1) pair: 14*2+1 = 29 is not a positive 3-th power"),
            (lambda: BipartitePair(cfg, (2, 3), (13,)),
             "not a BD_3(1) pair: 3*13+1 = 40 is not a positive 3-th power")):
        with pytest.raises(InputError) as err:
            make()
        assert str(err.value) == message


def test_bipartite_pair_tie_orientation():
    # equal minima: lexicographically smaller side becomes A
    # 6*6+28 = 64 and 6*162+28 = 1000 are both cubes
    cfg = TupleConfig(k=3, n=28)
    p = BipartitePair(cfg, A=(6, 162), B=(6,))
    assert p.A == (6,) and p.B == (6, 162)


def test_gap_lower_bound_branch_constants():
    # n > 0: k^k (ac)^(k-1) / n^k
    assert gap_lower_bound(2, 9, TupleConfig(k=3, n=1)) == Fraction(8748)
    # n < 0 picks up the extra 4^(k-1) in the denominator
    assert gap_lower_bound(1, 2, TupleConfig(k=3, n=-1)) == Fraction(27, 4)
    assert gap_lower_bound(3, 4, TupleConfig(k=4, n=2)) == Fraction(
        4**4 * 12**3, 2**4
    )
    assert gap_lower_bound(3, 4, TupleConfig(k=4, n=-2)) == Fraction(
        4**4 * 12**3, 4**3 * 2**4
    )
    with pytest.raises(InputError):
        gap_lower_bound(0, 9, TupleConfig(k=3, n=1))
    with pytest.raises(InputError):
        gap_lower_bound(1, 2, TupleConfig(k=3, n=-5))  # ac < 2|n|


def test_check_gap_quadruple_holds():
    # 1*2-1=1, 14*2-1=27, 1*9-1=8, 14*9-1=125: all cubes
    cert = check_gap_quadruple(1, 14, 2, 9, TupleConfig(k=3, n=-1))
    assert cert.holds
    assert cert.bound == Fraction(27, 4)
    assert 14 * 9 >= cert.bound


def test_check_gap_quadruple_failure_is_logged(monkeypatch, caplog):
    # an overstated bound forces the failure branch, which reports to the
    # layer's logger once logging has a handler
    monkeypatch.setattr(core_mod, "gap_lower_bound",
                        lambda a, c, config: Fraction(127))
    with caplog.at_level(logging.ERROR, logger="diotuple.core"):
        cert = check_gap_quadruple(1, 14, 2, 9, TupleConfig(k=3, n=-1))
    assert not cert.holds
    assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [(
        "diotuple.core",
        "gap principle violated: b*d = 126 < 127 for (a,b,c,d)=(1,14,2,9), "
        "k=3, n=-1 -- this is a bug")]


def test_check_gap_quadruple_input_errors():
    cfg = TupleConfig(k=3, n=-1)
    with pytest.raises(InputError):
        check_gap_quadruple(14, 1, 2, 9, cfg)  # a >= b
    with pytest.raises(InputError):
        check_gap_quadruple(1, 14, 9, 2, cfg)  # c >= d
    # a*c < 2|n| is refused as bad input before any product is tested, even
    # where a product also fails: 1*1 - 5 is not a cube
    with pytest.raises(InputError) as err:
        check_gap_quadruple(1, 2, 1, 14, TupleConfig(k=3, n=-5))
    assert type(err.value) is InputError
    assert str(err.value) == "gap principle requires a*c >= 2|n|: 1*1 < 10"


def test_check_gap_quadruple_hypothesis_error():
    # 1*10-1 = 9 is not a cube
    with pytest.raises(HypothesisError) as err:
        check_gap_quadruple(1, 14, 2, 10, TupleConfig(k=3, n=-1))
    assert "9" in str(err.value)


def test_growth_exponents_frozen():
    assert growth_exponents(3, 4) == (1.25, None)
    te, tg = growth_exponents(3, Fraction(8, 5))
    assert te is None
    assert tg == pytest.approx(16 / 15, rel=1e-15)
    # both windows are open at L = k/(k-2) exactly
    assert growth_exponents(3, 3) == (None, None)
    assert growth_exponents(4, 2) == (None, None)
    te, tg = growth_exponents(4, Fraction(3, 2))
    assert te is None and tg == pytest.approx(3 / (3 + 8 / 3 - 4), rel=1e-15)


def test_growth_exponents_exceed_one():
    # wherever defined, both exponents exceed 1
    for k in (3, 4, 5, 8):
        lo, hi = Fraction(k, 2 * k - 4), Fraction(k, k - 2)
        for L in (lo + Fraction(1, 97), (lo + hi) / 2, hi - Fraction(1, 97),
                  hi + Fraction(1, 97), 2 * hi, Fraction(50)):
            te, tg = growth_exponents(k, L)
            for th in (te, tg):
                if th is not None:
                    assert th > 1


def test_growth_exponents_errors():
    with pytest.raises(InputError):
        growth_exponents(2, 4)
    with pytest.raises(InputError):
        growth_exponents(3, 0)


# Genuine zero-link growth instances: a1 < a2 <= a1^(k-1), both shifted
# products k-th powers.  Two-element B sides would already need the second
# element superexponentially far out, so desk-scale positives are chains of
# length one.
GROWTH_CASES = [
    (5, 13, [819]),  # 4096=16^3, 10648=22^3
    (7, 38, [9]),  # 64, 343
    (8, 45, [91]),  # 729, 4096
    (9, 35, [38]),  # 343, 1331
    (9, 73, [7]),  # 64, 512
    (13, 27, [1876]),  # 24389=29^3, 50653=37^3
    (13, 62, [2]),  # 27, 125
]


def test_growth_chain_positives():
    cfg = TupleConfig(k=3, n=1)
    for a1, a2, B in GROWTH_CASES:
        rep = check_superexponential_growth(a1, a2, B, cfg, L=4)
        assert rep.ok
        assert rep.checked_links == len(B) - 1
        assert rep.failures == ()
        assert rep.theta == Fraction(5, 4)


def test_growth_chain_failure_is_reported(monkeypatch, caplog):
    # with the products' check patched out, B = [819, 820] breaks its one
    # link: 820 < 819^(5/4)
    monkeypatch.setattr(core_mod, "_require_powers", lambda pairs, config: None)
    with caplog.at_level(logging.ERROR, logger="diotuple.core"):
        rep = check_superexponential_growth(5, 13, [819, 820],
                                            TupleConfig(k=3, n=1), L=4)
    assert not rep.ok
    assert (rep.checked_links, rep.failures) == (1, ((1, 819, 820),))
    assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [(
        "diotuple.core",
        "growth chain broke at links [(1, 819, 820)] for a1=5 a2=13 k=3 n=1 "
        "-- this contradicts a theorem and means a bug")]


def test_growth_chain_hypothesis_errors():
    cfg = TupleConfig(k=3, n=1)
    with pytest.raises(HypothesisError):
        check_superexponential_growth(5, 13, [819], TupleConfig(k=2, n=1), 4)
    with pytest.raises(HypothesisError):
        check_superexponential_growth(13, 5, [819], cfg, 4)  # a1 >= a2
    with pytest.raises(HypothesisError):
        check_superexponential_growth(2, 5, [819], cfg, 4)  # a1^(k-1) < a2
    with pytest.raises(HypothesisError):
        check_superexponential_growth(5, 13, [], cfg, 4)
    with pytest.raises(HypothesisError) as err:
        check_superexponential_growth(5, 13, [819], cfg, 3)  # L at k/(k-2)
    assert "k-2" in str(err.value) or "3" in str(err.value)
    with pytest.raises(HypothesisError):
        # b_1 below 2|n|
        check_superexponential_growth(5, 13, [819], TupleConfig(k=3, n=-500), 4)
    with pytest.raises(HypothesisError):
        # b_1 below |n|^L (5*n etc. irrelevant: first failing check wins)
        check_superexponential_growth(
            100, 101, [250], TupleConfig(k=3, n=100), 4)
    with pytest.raises(HypothesisError):
        check_superexponential_growth(5, 13, [820], cfg, 4)  # not a cube


def test_growth_chain_names_the_first_failing_pair():
    # a1*b pairs come before a2*b pairs, each in the order of B: 5*819 + 1
    # is 16^3, then 5*900 + 1 fails before 14*819 + 1 and 14*900 + 1 do
    cfg = TupleConfig(k=3, n=1)
    with pytest.raises(HypothesisError) as err:
        check_superexponential_growth(5, 14, [819, 900], cfg, 4)
    assert str(err.value) == "5*900+1 = 4501 is not a positive 3-th power"
    with pytest.raises(HypothesisError) as err:
        check_superexponential_growth(5, 14, [819], cfg, 4)
    assert str(err.value) == "14*819+1 = 11467 is not a positive 3-th power"


def test_growth_chain_b1_power_boundary():
    # b_1 exactly at |n|^L passes the threshold check (>= is enough),
    # whether or not the products then verify
    cfg = TupleConfig(k=3, n=1)
    rep = check_superexponential_growth(13, 62, [2], cfg, L=4)  # 1^4 = 1 <= 2
    assert rep.ok
