"""Larger-sieve estimate and the prime-window pipeline."""

import math
import random
from fractions import Fraction

import pytest

from diotuple import exact, sieve
from diotuple.errors import InputError
from diotuple.sieve import (
    euler_phi,
    gallagher_bound,
    primes_in_class,
    primes_up_to,
    sieve_pipeline,
)


def test_euler_phi():
    assert [euler_phi(k) for k in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(360) == 96
    with pytest.raises(InputError):
        euler_phi(0)


def test_euler_phi_of_a_huge_degree():
    # exact.factor splits k at once below 2^64 and refuses it from there
    assert euler_phi(10 ** 18 + 3) == 10 ** 18 + 2
    assert euler_phi(2 ** 63) == 2 ** 62
    assert euler_phi(3 * 1000000007 ** 2) == 2 * 1000000006 * 1000000007
    with pytest.raises(InputError):
        euler_phi(2 ** 64)
    with pytest.raises(InputError, match="prime window"):
        sieve_pipeline([2, 9], 100, 10 ** 18 + 3, 1)


def test_euler_phi_vs_gcd_count():
    for k in range(1, 200):
        assert euler_phi(k) == sum(1 for a in range(1, k + 1)
                                   if math.gcd(a, k) == 1)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    got = primes_up_to(2000)
    assert len(got) == 303
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in got)


def test_primes_in_class():
    assert primes_in_class(113.1, 3, 100) == [
        7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109]
    # p | n is excluded: 7 | 49
    assert 7 not in primes_in_class(50, 3, 49)
    assert primes_in_class(2.56, 3, 2) == []
    with pytest.raises(InputError):
        primes_in_class(100, 3, 0)
    with pytest.raises(InputError):
        primes_in_class(100, 1, 5)


def test_gallagher_single_element():
    # one element occupies one residue everywhere: numerator == denominator
    ev = gallagher_bound([7], 10, [3, 5, 7])
    want = math.log(3 * 5 * 7) - math.log(10)
    assert ev.numerator == pytest.approx(2.351375257163477, rel=1e-12)
    assert ev.denominator == pytest.approx(want, rel=1e-12)
    assert ev.bound == pytest.approx(1.0, rel=1e-12)
    assert ev.occupied == {3: 1, 5: 1, 7: 1}
    assert ev.size == 1


def test_gallagher_saturated_set():
    # the full interval occupies every residue; denominator goes negative
    ev = gallagher_bound(range(1, 11), 10, [3, 5, 7])
    assert ev.denominator == pytest.approx(-1.3365062501337637, rel=1e-12)
    assert ev.bound is None
    assert ev.occupied == {3: 3, 5: 5, 7: 7}


def test_gallagher_bound_is_sound_when_finite():
    # whenever the bound exists it must dominate |A|
    rng = random.Random(808)
    pool = primes_up_to(500)
    for _ in range(200):
        N = rng.randint(10, 3000)
        size = rng.randint(1, 40)
        A = rng.sample(range(1, N + 1), min(size, N))
        P = rng.sample(pool, rng.randint(1, 20))
        ev = gallagher_bound(A, N, P)
        assert ev.size == len(set(A))
        for p, occ in ev.occupied.items():
            assert 1 <= occ <= min(p, len(A))
        if ev.bound is not None:
            assert ev.bound >= ev.size - 1e-9


def test_gallagher_denominator_grows_as_a_shrinks():
    # removing elements can only free residues, so the denominator can
    # only grow (log N fixed, |A_p| non-increasing)
    rng = random.Random(2)
    for _ in range(40):
        N = 2000
        A = rng.sample(range(1, N + 1), 30)
        P = rng.sample(primes_up_to(300), 10)
        full = gallagher_bound(A, N, P)
        small = gallagher_bound(A[:15], N, P)
        assert small.denominator >= full.denominator - 1e-12


def test_gallagher_errors():
    with pytest.raises(InputError):
        gallagher_bound([], 10, [3])
    with pytest.raises(InputError):
        gallagher_bound([11], 10, [3])
    with pytest.raises(InputError):
        gallagher_bound([0], 10, [3])
    with pytest.raises(InputError):
        gallagher_bound([5], 10, [])
    with pytest.raises(InputError):
        gallagher_bound([5], 10, [4])
    for p in (1, 0, -3):  # below 2: is_prime refuses them too
        with pytest.raises(InputError, match=f"^{p} is not prime$"):
            gallagher_bound([5], 10, [p])
    # a strong pseudoprime to bases 2, 3, 5 and 7 is still refused
    with pytest.raises(InputError):
        gallagher_bound([5], 10, [3, 3215031751])


def test_pipeline_frozen():
    res = sieve_pipeline([2, 9, 28], 100, 3, 1)
    assert res.Q == pytest.approx(113.10715969020585, rel=1e-12)
    assert res.primes == (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109)
    assert res.cap == 100
    assert not res.degenerate
    assert res.evaluation is not None
    assert res.evaluation.size == 3
    assert res.L == "1"


def test_pipeline_does_not_retest_its_primes(monkeypatch):
    tested = []

    def spy(p):
        tested.append(p)
        return exact.is_prime(p)

    monkeypatch.setattr(sieve, "is_prime", spy)
    res = sieve_pipeline([2, 9, 28], 100, 3, 1)
    assert tested == []
    # the same estimate as the public entry point, which does test them
    assert res.evaluation == gallagher_bound([2, 9, 28], res.cap, res.primes)
    assert tested == list(res.primes)
    assert res.evaluation.bound == pytest.approx(3.421207578275355, rel=1e-12)


def test_pipeline_degenerate():
    # tiny window: no primes = 1 mod 3 below Q = 2.56...
    res = sieve_pipeline([1], 2, 3, 1)
    assert res.Q == pytest.approx(2.5624160742304074, rel=1e-12)
    assert res.degenerate
    assert res.primes == ()
    assert res.evaluation is None
    # diagnostics are still reported for a degenerate window
    assert res.diagnostics["sum_log_p"] == 0.0


def test_pipeline_exact_cap():
    # 8^(2/3) = 4 exactly; a float ceil would give 4.000000000000001 -> 5
    res = sieve_pipeline([1, 2], 8, 2, Fraction(2, 3))
    assert res.cap == 4
    # non-integer power rounds up: 10^(3/2) = 31.62... -> 32
    res = sieve_pipeline([1], 10, 2, Fraction(3, 2))
    assert res.cap == 32
    # denominators above 64 take the same exact route: 10^(101/67) = 32.17...
    res = sieve_pipeline([1], 10, 2, Fraction(101, 67))
    assert res.cap == 33
    # an exact tie past 64 bits: (2^67)^(68/67) = 2^68, not 2^68 + 589824
    assert sieve_pipeline([1], 2 ** 67, 3, Fraction(68, 67)).cap == 2 ** 68


def _least_power_at_least(base: int, p: int, q: int) -> int:
    """The least c >= 1 with c^q >= base^p, by bisection."""
    target = base ** p
    lo, hi = 1, 2
    while hi ** q < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_ceil_power_matches_bisection():
    rng = random.Random(20)
    cases = [(rng.randint(1, 10 ** rng.randint(1, 12)),
              Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 5, 7, 12, 64))))
             for _ in range(300)]
    # perfect powers: (c^q)^(p/q) is c^p exactly
    for _ in range(100):
        c, q = rng.randint(1, 100), rng.randint(2, 16)
        cases.append((c ** q, Fraction(rng.randint(1, 3) * q + rng.choice((0, 1)), q)))
        cases.append((c, Fraction(rng.randint(1, 40), 1)))
    # denominators above 64 take the mpmath route, ties included
    for _ in range(60):
        q = rng.randint(65, 400)
        cases.append((rng.randint(2, 10 ** 6), Fraction(rng.randint(q // 2, 3 * q), q)))
    cases += [(2 ** 67, Fraction(68, 67)), (5 ** 65, Fraction(66, 65))]
    for base, expo in cases:
        want = _least_power_at_least(base, expo.numerator, expo.denominator)
        assert sieve._ceil_power(base, expo) == want, (base, expo)


def test_ceil_power_settles_small_powers_by_integer_roots(monkeypatch):
    # q <= 64 with p * bits <= 2^22 never compares against mpmath logs;
    # q = 65 does, and both agree with the oracle
    calls = []
    compare = exact.compare_value_to_power
    monkeypatch.setattr(sieve, "compare_value_to_power",
                        lambda *a: calls.append(a) or compare(*a))
    for base, expo, compared in ((10, Fraction(129, 64), False),
                                 (10, Fraction(131, 65), True)):
        want = _least_power_at_least(base, expo.numerator, expo.denominator)
        assert sieve._ceil_power(base, expo) == want
        assert bool(calls) == compared, expo
        calls.clear()


def test_ceil_power_routes_agree_across_the_cross_powering_budget(monkeypatch):
    # each pair straddles one edge of exact._cross_powering_fits: q = 64 / 65,
    # then p * bits = 2^22 / 2^22 + 64; (2^63)^(p/63) is 2^p exactly
    edges = [(10 ** 6 + 3, Fraction(129, 64)), (10 ** 6 + 3, Fraction(131, 65)),
             (2 ** 63, Fraction(2 ** 16, 63)), (2 ** 63, Fraction(2 ** 16 + 1, 63))]
    assert [exact._cross_powering_fits(b, e.numerator, e.denominator)
            for b, e in edges] == [True, False, True, False]
    want = [_least_power_at_least(10 ** 6 + 3, 129, 64),
            _least_power_at_least(10 ** 6 + 3, 131, 65), 2 ** 2 ** 16,
            2 ** (2 ** 16 + 1)]

    def answers(cases):
        # the ceiling c, then c and c - 1 compared with base^expo; c - 1
        # only at the small bases, since next to 2^p it needs 2^17-bit logs
        return [(c := sieve._ceil_power(base, expo),
                 exact.compare_value_to_power(c, base, expo),
                 exact.compare_value_to_power(c - 1, base, expo)
                 if base < 2 ** 63 else None)
                for base, expo in cases]

    fits = answers(edges)
    assert [c for c, _, _ in fits] == want
    assert [(above, below) for _, above, below in fits] == [
        (1, -1), (1, -1), (0, None), (0, None)]
    # past the budget both already take the mpmath route; forced off, the
    # cases inside it must give the same answers by that route
    monkeypatch.setattr(exact, "_cross_powering_fits", lambda *a: False)
    monkeypatch.setattr(sieve, "_cross_powering_fits", lambda *a: False)
    assert answers(edges[::2]) == fits[::2]


def test_pipeline_diagnostics_keys_and_drag():
    res = sieve_pipeline([2, 9, 28], 100, 3, 1)
    assert set(res.diagnostics) == {
        "sum_log_p", "window_over_phi", "sum_log_p_over_sqrt_p",
        "two_sqrt_window_over_phi", "sum_log_p_over_sqrt_p_per_k",
        "asymptotic_target", "shift_prime_drag",
    }
    # n = 100 = 2^2 5^2: drag = log2/sqrt2 + log5/sqrt5
    want = math.log(2) / math.sqrt(2) + math.log(5) / math.sqrt(5)
    assert res.diagnostics["shift_prime_drag"] == pytest.approx(
        1.2098915872878744, rel=1e-12)
    assert res.diagnostics["shift_prime_drag"] == pytest.approx(want, rel=1e-12)
    assert res.diagnostics["asymptotic_target"] == pytest.approx(
        4 * 2 / 3 * math.log(100), rel=1e-12)
    assert res.diagnostics["sum_log_p"] == pytest.approx(
        sum(math.log(p) for p in res.primes), rel=1e-12)


def test_pipeline_window_cap(monkeypatch, capsys):
    # a window above the cap is refused before any prime is sieved or the
    # exact cap is computed
    import diotuple.cli as cli

    calls = []
    sieve_primes, ceil_power = sieve.primes_up_to, sieve._ceil_power
    monkeypatch.setattr(sieve, "primes_up_to",
                        lambda *a: calls.append("sieve") or sieve_primes(*a))
    monkeypatch.setattr(sieve, "_ceil_power",
                        lambda *a: calls.append("cap") or ceil_power(*a))
    # |n| = 10^400 at L = 3/2 gives Q near 1.02 * 10^7
    assert sieve.SIEVE_WINDOW_CAP == 10 ** 7
    assert cli.main(["sieve", "--set", "2,9", "--n", str(10 ** 400),
                     "--k", "3", "--L", "3/2"]) == 1
    assert "cap of 10000000;" in capsys.readouterr().err
    # Q = 113.1... for (n, k, L) = (100, 3, 1)
    monkeypatch.setattr(sieve, "SIEVE_WINDOW_CAP", 113)
    with pytest.raises(InputError, match=r"Q = 113\.1.* cap of 113;"):
        sieve_pipeline([2, 9, 28], 100, 3, 1)
    assert calls == []
    monkeypatch.setattr(sieve, "SIEVE_WINDOW_CAP", 114)
    assert sieve_pipeline([2, 9, 28], 100, 3, 1).primes[-1] == 109
    assert calls == ["cap", "sieve"]
    # a window beyond the float range is refused, not overflowed
    with pytest.raises(InputError, match=r"Q = inf "):
        sieve_pipeline([2, 9], 100, 3, 10 ** 200)


def test_pipeline_errors():
    with pytest.raises(InputError):
        sieve_pipeline([1], 1, 3, 1)  # |n| < 2
    with pytest.raises(InputError):
        sieve_pipeline([1], 100, 1, 1)  # k < 2
    with pytest.raises(InputError):
        sieve_pipeline([1], 100, 3, Fraction(1, 2))  # L <= 1/2
