"""Exact-arithmetic primitives: roots, powers, parsing, primality."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from sympy import integer_nthroot

from diotuple.errors import InputError, InvariantViolation
from diotuple.exact import (
    _MR_BASES,
    compare_value_to_power,
    factor,
    format_rational,
    integer_kth_root,
    is_perfect_kth_power,
    is_prime,
    parse_integer,
    parse_natural,
    parse_rational,
    pollard_rho,
    trial_factor,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 700), st.integers(2, 12))
def test_integer_kth_root_matches_sympy(m, k):
    # radicands below and above 52k bits, where the seed starts shifting
    assert integer_kth_root(m, k) == integer_nthroot(m, k)[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 2 ** 80), st.integers(2, 12), st.integers(-1, 1))
def test_integer_kth_root_near_powers_matches_sympy(r, k, d):
    m = r ** k + d
    assert integer_kth_root(m, k) == integer_nthroot(m, k)[0]


def test_integer_kth_root_anchors():
    assert integer_kth_root(0, 2) == 0
    assert integer_kth_root(1, 5) == 1
    assert integer_kth_root(26, 3) == 2
    assert integer_kth_root(27, 3) == 3
    assert integer_kth_root(28, 3) == 3
    assert integer_kth_root(10**60, 4) == 10**15
    assert integer_kth_root(10**60 - 1, 4) == 10**15 - 1


def test_integer_kth_root_random():
    # floor property r^k <= m < (r+1)^k across sizes up to 10^60
    rng = random.Random(20240901)
    for _ in range(400):
        k = rng.randint(2, 12)
        m = rng.randint(1, 10 ** rng.randint(1, 60))
        r = integer_kth_root(m, k)
        assert r >= 0
        assert r**k <= m < (r + 1) ** k


def test_integer_kth_root_large_degrees_and_grid():
    # a 10^5-bit radicand at k = 2000 and a 2 * 10^5-bit one at k = 9800:
    # seeded from the bit length alone, Newton shrank by about (1 - 1/k)
    # a step and took 0.76 s and 6.6 s
    rng = random.Random(20261019)
    start = time.process_time()
    for bits, k in ((10 ** 5, 2000), (2 * 10 ** 5, 9800)):
        m = rng.getrandbits(bits) | 1 << bits
        r = integer_kth_root(m, k)
        assert r ** k <= m < (r + 1) ** k, (bits, k)
    assert time.process_time() - start < 1
    # radicands on both sides of 52k bits, where the seed starts shifting,
    # and powers next to roots on both sides of the 2^40 Newton switch
    for bits in (2, 52, 53, 64, 65, 104, 105, 156, 157, 511, 513, 1100, 5000):
        for k in (2, 3, 5, 7, 16, 52, 53, 100, 1000, 3000):
            for _ in range(3):
                m = rng.getrandbits(bits) | 1 << (bits - 1)
                r = integer_kth_root(m, k)
                assert r ** k <= m < (r + 1) ** k, (m, k)
    for x in (2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1, rng.getrandbits(41),
              rng.getrandbits(200)):
        for k in (2, 3, 7):
            for d in (-1, 0, 1):
                assert integer_kth_root(x ** k + d, k) == x - (d < 0), (x, k, d)


def test_integer_kth_root_split_seed_matches_sympy():
    # roots on both sides of the 1024 bits above which the seed is the
    # root of the radicand's top bits, up to three levels down, and powers
    # next to such roots, on radicands of up to 2^18 bits
    rng = random.Random(20261020)
    cases = [(root_bits, k)
             for root_bits in (1023, 1024, 1025, 1026, 2049, 2050, 4100, 8300)
             for k in (2, 3, 7, 31, 250) if root_bits * k <= 1 << 18]
    for root_bits, k in cases:
        bits = root_bits * k
        for m in (1 << bits - 1, (1 << bits + k - 1) - 1,
                  rng.getrandbits(bits) | 1 << bits + rng.randrange(k - 1)):
            assert m.bit_length() // k == root_bits
            assert integer_kth_root(m, k) == integer_nthroot(m, k)[0], (
                root_bits, k)
        x = rng.getrandbits(root_bits) | 1 << root_bits - 1
        for d in (-1, 0, 1):
            assert integer_kth_root(x ** k + d, k) == x - (d < 0), (
                root_bits, k, d)


def test_integer_kth_root_exact_powers():
    rng = random.Random(77)
    for _ in range(200):
        k = rng.randint(2, 10)
        x = rng.randint(1, 10**12)
        assert integer_kth_root(x**k, k) == x


def test_integer_kth_root_rejects():
    with pytest.raises(InputError):
        integer_kth_root(10, 1)
    with pytest.raises(InputError):
        integer_kth_root(-1, 2)


def test_is_perfect_kth_power():
    assert is_perfect_kth_power(27, 3) == 3
    assert is_perfect_kth_power(28, 3) is None
    assert is_perfect_kth_power(1, 7) == 1
    # zero and negatives are not powers of a positive natural
    assert is_perfect_kth_power(0, 3) is None
    assert is_perfect_kth_power(-8, 3) is None
    with pytest.raises(InputError):
        is_perfect_kth_power(8, 1)


def test_is_perfect_kth_power_random_roundtrip():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(2, 9)
        x = rng.randint(2, 10**9)
        m = x**k
        assert is_perfect_kth_power(m, k) == x
        # m+1 is never a k-th power right above one (gaps grow fast)
        if is_perfect_kth_power(m + 1, k):
            assert (x + 1) ** k == m + 1


def test_natural_round_trip():
    for v in (0, 1, 7, 10**40):
        assert parse_natural(str(v)) == v
    assert parse_natural("  42 ") == 42
    with pytest.raises(InputError):
        parse_natural("-3")
    with pytest.raises(InputError):
        parse_natural("1_000")
    with pytest.raises(InputError):
        parse_natural("12x")
    with pytest.raises(InputError):
        parse_natural("\u00b2")  # a digit character that int() refuses


def test_parse_integer():
    assert parse_integer(" -12 ") == -12
    assert parse_integer("+5") == 5
    assert parse_integer(str(-10**40)) == -10**40
    for bad in ("", "-", "+-5", "5x", "1.0", "1_0", "1/1", "- 5"):
        with pytest.raises(InputError):
            parse_integer(bad)


def test_rational_round_trip():
    for v in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(22, 7)):
        assert parse_rational(format_rational(v)) == v
    # denominator is always written, even for integers
    assert format_rational(Fraction(9)) == "9/1"
    assert parse_rational("-6/4") == Fraction(-3, 2)
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("1.5")
    with pytest.raises(InputError):
        parse_rational("")


def test_parse_rational_reads_exact_values_only():
    # ints and Fractions are taken as they are; a float, a bool or any
    # other non-string is refused, not rounded to its binary value
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(Fraction(10, 4)) == Fraction(5, 2)
    assert type(parse_rational(7)) is Fraction
    for bad in (2.9, True, False, None, [3], 3j, b"3"):
        with pytest.raises(InputError):
            parse_rational(bad)


# every library function that takes the height exponent L
def _l_readers():
    from diotuple import (bound_reports, check_superexponential_growth,
                          growth_exponents, sieve_pipeline, tail_term,
                          tuple_size_bound)
    from diotuple.core import TupleConfig
    return {
        "tail_term": lambda L: tail_term(3, L),
        "tuple_size_bound": lambda L: tuple_size_bound(2, 3, L),
        "bound_reports": lambda L: bound_reports(2, 3, L),
        "growth_exponents": lambda L: growth_exponents(3, L),
        "check_superexponential_growth": lambda L: check_superexponential_growth(
            5, 13, [819], TupleConfig(k=3, n=1), L),
        "sieve_pipeline": lambda L: sieve_pipeline([2, 9], 100, 3, L),
    }


@pytest.mark.parametrize("reader", sorted(_l_readers()))
# 4.5 lies in the growth chain's range (L > 3 at k = 3), where 2.9 does not
@pytest.mark.parametrize("L", [2.9, 4.5, True, "1.5", "2.5e0", "3/0"])
def test_every_l_reader_admits_exact_rationals_only(reader, L):
    with pytest.raises(InputError):
        _l_readers()[reader](L)


def test_bound_reports_records_the_exponent_it_read():
    from diotuple import bound_reports
    for L, want in (("10/4", "5/2"), (Fraction(5, 2), "5/2"), (3, "3"),
                    (" 3/1 ", "3")):
        params = [r.parameters["L"] for r in bound_reports(2, 3, L)
                  if "L" in r.parameters]
        assert params == [want, want], L


def test_trial_factor():
    assert trial_factor(1) == []
    assert trial_factor(2) == [(2, 1)]
    assert trial_factor(360) == [(2, 3), (3, 2), (5, 1)]
    assert trial_factor(10**6 + 3) == [(1000003, 1)]
    with pytest.raises(InputError):
        trial_factor(0)


def test_integer_kth_root_huge_degree():
    # a degree at or past the bit length has root 1 and builds no power
    assert integer_kth_root(10 ** 30, 10 ** 12) == 1
    assert integer_kth_root(2 ** 100 - 1, 100) == 1
    assert integer_kth_root(2 ** 100, 100) == 2
    assert integer_kth_root(1, 2) == 1


def test_pollard_rho_splits_composites():
    rng = random.Random(3)
    primes = [q for q in range(3, 3000) if is_prime(q)]
    cases = [4, 9, 15, 25, 27, 49, 91, 2 ** 20, 3 ** 13, 1000003 ** 2,
             46441 * 46447, (2 ** 31 - 1) * (2 ** 61 - 1)]
    cases += [rng.choice(primes) ** rng.randint(2, 4) for _ in range(100)]
    cases += [rng.randrange(2, 10 ** 7) * rng.randrange(2, 10 ** 7)
              for _ in range(300)]
    for m in cases:
        d = pollard_rho(m)
        assert 1 < d < m and m % d == 0, m


def test_factor_matches_trial_division():
    rng = random.Random(5)
    cases = [1, 2, 4, 360, 3 ** 40, 2 ** 63, 1000003 ** 3, 2 ** 64 - 2,
             46441 ** 2 * 3]
    cases += [rng.randrange(1, 10 ** 12) for _ in range(200)]
    for m in cases:
        assert factor(m) == trial_factor(m), m
    # a safe prime's p - 1: trial division would run to 7 * 10^7
    assert factor(100000000000001098) == [(2, 1), (50000000000000549, 1)]
    with pytest.raises(InputError):
        factor(0)


def test_trial_factor_reconstructs():
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 10**9)
        prod = 1
        prev = 1
        for p, e in trial_factor(m):
            assert p > prev  # ascending primes
            assert is_prime(p)
            prev = p
            prod *= p**e
        assert prod == m


def test_is_prime_small_vs_sieve():
    limit = 2000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n])


def test_miller_rabin_bases_stop_at_psi_12():
    # psi_12 (Sorenson and Webster, Math. Comp. 86, 2017) is composite and
    # a strong probable prime to every base of _MR_BASES, so the bases are
    # deterministic below it only; is_prime admits nothing from 2^64 up
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    d, s = psi_12 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, psi_12)
        assert x in (1, psi_12 - 1) or any(
            pow(x, 2 ** r, psi_12) == psi_12 - 1 for r in range(1, s)), a
    assert psi_12 > 2 ** 64
    with pytest.raises(InputError):
        is_prime(psi_12)


def test_is_prime_large_words():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    assert is_prime(18446744073709551557)  # largest prime < 2^64
    with pytest.raises(InputError):
        is_prime(2**64)


def test_compare_value_to_power_exact_path():
    # small denominators go through integer cross-powering
    assert compare_value_to_power(8, 2, Fraction(3)) == 0
    assert compare_value_to_power(9, 2, Fraction(3)) == 1
    assert compare_value_to_power(7, 2, Fraction(3)) == -1
    assert compare_value_to_power(3, 2, Fraction(3, 2)) == 1  # 9 > 8
    assert compare_value_to_power(1, 1, Fraction(5)) == 0
    assert compare_value_to_power(2, 1, Fraction(5)) == 1


def test_compare_value_to_power_big_denominator(monkeypatch):
    # 506/101 is in lowest terms, so q = 101 > 64 skips cross-powering:
    # (2^101)^(506/101) == 2^506 is an exact tie, and 2^506 +- 1 differ from
    # it by 2^-506 in relative terms, which only the escalating loop settles
    base, expo = 2 ** 101, Fraction(506, 101)
    precs = []
    log = mp.log

    def spy(x):
        precs.append(mp.prec)
        return log(x)

    monkeypatch.setattr(mp, "log", spy)
    assert compare_value_to_power(2 ** 506, base, expo) == 0
    assert precs == []  # the tie is decided by integer roots
    assert compare_value_to_power(2 ** 506 + 1, base, expo) == 1
    assert max(precs) > 506
    precs.clear()
    assert compare_value_to_power(2 ** 506 - 1, base, expo) == -1
    assert max(precs) > 506


def test_compare_value_to_power_one_off_a_tie_past_old_cap():
    # 2^1301 and (2^65)^(1301/65) agree to about 1301 bits
    expo = Fraction(1301, 65)
    assert compare_value_to_power(2 ** 1301 + 1, 2 ** 65, expo) == 1
    assert compare_value_to_power(2 ** 1301 - 1, 2 ** 65, expo) == -1
    assert compare_value_to_power(2 ** 1301, 2 ** 65, expo) == 0
    assert compare_value_to_power(3 ** 1301, 3 ** 65, expo) == 0
    assert compare_value_to_power(3 ** 1301, 3 ** 65 + 1, expo) == -1


def test_compare_value_to_power_never_guesses_a_tie(monkeypatch):
    # logarithms that never separate must end in an error, not in 0
    monkeypatch.setattr(mp, "log", lambda x: mp.mpf(0))
    with pytest.raises(InvariantViolation):
        compare_value_to_power(2 ** 1301 + 1, 2 ** 65, Fraction(1301, 65))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 40), st.integers(65, 160), st.integers(1, 700),
       st.integers(-2, 2), st.integers(-1, 1))
def test_compare_value_to_power_near_ties(c, q, p, dv, db):
    # value c^p + dv against base c^q + db: a tie at dv = db = 0, and
    # otherwise a gap of about c^-p, decided at about p*log2(c) bits
    expo = Fraction(p, q)
    assume(expo.denominator > 64)
    value = c ** expo.numerator + dv
    base = c ** expo.denominator + db
    assume(value >= 1)
    lhs, rhs = value ** expo.denominator, base ** expo.numerator
    assert compare_value_to_power(value, base, expo) == (lhs > rhs) - (lhs < rhs)


def test_compare_value_to_power_rejects():
    with pytest.raises(InputError):
        compare_value_to_power(0, 2, Fraction(1))
    with pytest.raises(InputError):
        compare_value_to_power(2, 0, Fraction(1))
    with pytest.raises(InputError):
        compare_value_to_power(2, 2, Fraction(0))


def test_compare_value_to_power_random():
    rng = random.Random(4242)
    for _ in range(200):
        base = rng.randint(2, 50)
        p = rng.randint(1, 12)
        q = rng.randint(1, 200)
        v = base ** max(1, p // q) + rng.randint(-1, 1)
        if v < 1:
            continue
        got = compare_value_to_power(v, base, Fraction(p, q))
        want = (v**q > base**p) - (v**q < base**p)
        assert got == want
