"""Exact integer and rational primitives.

Arbitrary-precision k-th roots, perfect-power tests, strict decimal and
fraction parsers, the canonical fraction form, trial-division factoring,
the sieve of Eratosthenes, a deterministic primality test and Pollard's
rho, with a factorization built on them, for word-sized integers.  Floats
appear only as Newton seeds or behind a guard band; every answer is settled
in exact arithmetic.
"""

from __future__ import annotations

import math
import re

from .errors import InputError, InvariantViolation

# Natural numbers are plain Python ints (>= 0); exact rationals are
# fractions.Fraction, which already guarantees the canonical reduced form.
# Only parse_rational builds one, so it imports fractions itself and
# importing this module does not load it.

_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Deterministic Miller-Rabin bases for n < psi_12 = 318665857834031151167461
# (about 3.19 * 10^23; Sorenson and Webster, Math. Comp. 86 (2017)), the
# least strong pseudoprime to all twelve; so they cover all of u64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# integer_kth_root seeds a root above this many bits from the root of the
# radicand's top bits instead of a float
_ROOT_SPLIT_BITS = 1024


def _is_integer(value) -> bool:
    # the one integer rule of the library's entry points: an int, not a bool
    return isinstance(value, int) and not isinstance(value, bool)


def _check_integers(**values) -> None:
    """Raise InputError naming the first value that is not an integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise InputError(f"{name} must be an integer, got {value!r}")


def _integer_items(values, what: str) -> list:
    """The values as a list, after checking each one by the integer rule."""
    items = list(values)
    for value in items:
        if not _is_integer(value):
            raise InputError(f"{what} must be integers, got {value!r}")
    return items


def integer_kth_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0, k >= 2, in exact integer arithmetic."""
    if k < 2:
        raise InputError(f"root degree must be >= 2, got {k}")
    if m < 0:
        raise InputError(f"radicand must be >= 0, got {m}")
    if m == 0:
        return 0
    bits = m.bit_length()
    if k >= bits:
        return 1  # 2^k > m
    if bits // k > _ROOT_SPLIT_BITS:
        # s = the root of m >> kh gives (s + 1) 2^h above the root, off by
        # at most 2^h; with 2h <= root bits - k.bit_length() - 2, one
        # Newton step from there lands on the root or next to it, so each
        # level runs two full-size steps instead of one per doubling of a
        # float seed's 47 bits
        h = (bits // k - k.bit_length() - 2) // 2
        r = integer_kth_root(m >> k * h, k) + 1 << h
    else:
        # m >> kq keeps 52k to 53k - 1 leading bits (all of m when q = 0),
        # so 2^q times their k-th root is the root to 53 bits; the float
        # keeps 47 of them, and the 2^-40 margin puts the seed above the
        # root
        q = bits // k - 52
        q = q if q > 0 else 0
        r = int(math.exp2(math.log2(m >> k * q) / k) * (1 + 2 ** -40)) + 1 << q
    if r >> 40:
        # below 2^40 the seed is at most 3 above the floor root; above,
        # Newton from above converges monotonically down to it
        while True:
            t = ((k - 1) * r + m // r ** (k - 1)) // k
            if t >= r:
                break
            r = t
    # exact correction; never trusts the float path
    while r ** k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


def is_perfect_kth_power(m: int, k: int) -> int | None:
    """The x >= 1 with x**k == m, else None.

    Powers here are powers of positive naturals, so m <= 0 (including 0)
    never qualifies.
    """
    if k < 2:
        raise InputError(f"power degree must be >= 2, got {k}")
    if m < 1:
        return None
    r = integer_kth_root(m, k)
    return r if r ** k == m else None


def parse_natural(text: str) -> int:
    s = text.strip()
    if not s.isdecimal():
        raise InputError(f"not a decimal natural: {text!r}")
    return int(s)


def parse_integer(text: str) -> int:
    """A signed decimal integer: an optional '+' or '-', then digits."""
    s = text.strip()
    if not _INTEGER_RE.match(s):
        raise InputError(f"not a decimal integer: {text!r}")
    return int(s)


def format_rational(value: Fraction) -> str:
    """Canonical 'p/q' form; the denominator is always written."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(value) -> Fraction:
    """An exact rational from an int, a Fraction, or a 'p' or 'p/q' string;
    floats, bools and anything else are refused."""
    from fractions import Fraction
    if _is_integer(value) or isinstance(value, Fraction):
        return Fraction(value)
    s = value.strip() if isinstance(value, str) else ""
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not a rational 'p' or 'p/q': {value!r}")
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise InputError(f"zero denominator: {value!r}")
    return Fraction(int(num), int(den or 1))


def trial_factor(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division, as (p, e) pairs."""
    if m < 1:
        raise InputError(f"can only factor naturals >= 1, got {m}")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def primes_up_to(limit: int) -> list[int]:
    """Eratosthenes; empty below 2."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p::p] = bytearray(len(mark[p * p::p]))
    return [p for p in range(2, limit + 1) if mark[p]]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; valid for n < 2**64 (the bases hold up
    to psi_12, about 3.19 * 10^23)."""
    if n >= 1 << 64:
        raise InputError("primality test is deterministic only below 2**64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # a composite below 41^2 has a prime factor below 41
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pollard_rho(m: int) -> int:
    """A proper divisor d > 1 of the composite m.

    Brent's cycle finding on x -> x^2 + c mod m, with the gcds batched over
    128 steps, for c = 1, 2, ... until one splits m.  Never returns on a
    prime m.
    """
    if m % 2 == 0:
        return 2
    c = 0
    while True:
        c += 1
        y, power, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % m
            done = 0
            while done < power and g == 1:
                ys = y
                for _ in range(min(128, power - done)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                done += 128
            power *= 2
        if g == m:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def factor(m: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= m < 2**64 as sorted (p, e) pairs, by
    Miller-Rabin and Pollard's rho: fast however large the prime factors."""
    if m < 1:
        raise InputError(f"can only factor naturals >= 1, got {m}")
    primes, parts = [], [m]
    while parts:
        r = parts.pop()
        if r == 1:
            continue
        if is_prime(r):
            primes.append(r)
        else:
            d = pollard_rho(r)
            parts += [d, r // d]
    return sorted((q, primes.count(q)) for q in set(primes))


def _cross_powering_fits(base: int, p: int, q: int) -> bool:
    # the cheap exact path: a small denominator and base**p within 2^22 bits
    return q <= 64 and p * base.bit_length() <= 1 << 22


def compare_value_to_power(value: int, base: int, expo: Fraction) -> int:
    """sign(value - base**expo) for value >= 1, base >= 1, expo > 0.

    With expo = p/q in lowest terms, value**q == base**p exactly when
    base = c**q and value = c**p for one integer c, and that is decided
    with integer roots.  A small denominator is settled by integer
    cross-powering; otherwise the logarithms are compared at 80 bits inside
    a 1e-12 relative guard band, then at doubling precision.  Two unequal
    integers X = value**q and Y = base**p differ in log by at least
    1/max(X, Y), so a precision set by the operand sizes always decides;
    running past it raises InvariantViolation instead of guessing a tie.
    """
    if value < 1 or base < 1:
        raise InputError("comparison defined for positive integers only")
    if expo <= 0:
        raise InputError(f"exponent must be positive, got {expo}")
    if base == 1:
        return (value > 1) - (value < 1)
    p, q = expo.numerator, expo.denominator
    if _cross_powering_fits(base, p, q):
        lhs = value ** q
        rhs = base ** p
        return (lhs > rhs) - (lhs < rhs)
    c = integer_kth_root(base, q) if q > 1 else base
    # the bit lengths rule out most non-ties before c**p is built
    if c ** q == base and (p * (c.bit_length() - 1) < value.bit_length()
                           <= p * c.bit_length()) and c ** p == value:
        return 0
    # an undecided comparison leaves |log value - expo*log base| below
    # scale * 2^(21 - prec); a non-tie keeps it above 2^-log_span / q
    log_span = max(q * value.bit_length(), p * base.bit_length())
    needed = (log_span + 22 + q.bit_length()
              + (p * base.bit_length() + 1).bit_length())
    from mpmath import mp  # the exact paths above settle most calls without it
    guard = 1e-12
    prec = 80
    while True:
        with mp.workprec(prec):
            lhs = mp.log(value)
            rhs = mp.mpf(p) / q * mp.log(base)
            diff = lhs - rhs
            scale = max(abs(rhs), mp.mpf(1))
            if abs(diff) / scale > (guard if prec == 80 else mp.mpf(2) ** (20 - prec)):
                return 1 if diff > 0 else -1
        if prec > needed:
            raise InvariantViolation(
                f"{value} against {base}^({expo}) undecided at {prec} bits")
        prec *= 2
