"""Larger-sieve machinery over primes in a fixed residue class.

The estimate used throughout: for A a set of integers in [1, N] and P a set
of primes, |A| <= (sum log p - log N) / (sum log p / |A_p| - log N) whenever
the denominator is positive, where |A_p| is the number of residues mod p
that A occupies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .exact import (_cross_powering_fits, compare_value_to_power, factor,
                    integer_kth_root, is_prime, parse_rational, primes_up_to,
                    trial_factor)

# sieve_pipeline refuses a prime window Q above this (about 1.6 s and 72 MB
# of sieving at Q near 10^7)
SIEVE_WINDOW_CAP = 10 ** 7
# the CLI's randomized audit of gallagher_bound refuses more trials than
# this, about 55 s at some 80 microseconds a trial on a 2-core AMD EPYC box
AUDIT_TRIALS_CAP = 7 * 10 ** 5


def euler_phi(k: int) -> int:
    """Euler's totient of 1 <= k < 2**64, from exact.factor."""
    if k < 1:
        raise InputError(f"totient argument must be >= 1, got {k}")
    phi = 1
    for p, e in factor(k):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def primes_in_class(Q: float, k: int, n: int) -> list[int]:
    """Primes p <= floor(Q) with p = 1 (mod k) and p not dividing n."""
    if n == 0:
        raise InputError("shift n must be nonzero")
    if k < 2:
        raise InputError(f"class modulus k must be >= 2, got {k}")
    return [p for p in primes_up_to(math.floor(Q))
            if p % k == 1 and n % p != 0]


@dataclass(frozen=True)
class SieveEvaluation:
    """The larger-sieve estimate for one set: when the denominator is
    positive, numerator / denominator bounds the set's size."""

    size: int
    numerator: float
    denominator: float
    bound: float | None  # None whenever the denominator is not positive
    occupied: dict[int, int]  # prime -> number of residues A touches


def _sieved_set(A: Iterable[int], N: int) -> list[int]:
    """The distinct elements of A, sorted, after checking they lie in [1, N]."""
    elems = sorted(set(A))
    if not elems:
        raise InputError("the sieved set must be nonempty")
    if elems[0] < 1 or elems[-1] > N:
        raise InputError(f"elements must lie in [1, {N}]")
    return elems


def gallagher_bound(A: Iterable[int], N: int, P: Iterable[int]) -> SieveEvaluation:
    """Evaluate the larger-sieve estimate for A inside [1, N] over primes P."""
    elems = _sieved_set(A, N)
    primes = sorted(set(P))
    if not primes:
        raise InputError("need at least one sieving prime")
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    return _gallagher(elems, N, primes)


def _gallagher(elems: list[int], N: int, primes: list[int]) -> SieveEvaluation:
    """The estimate itself, for checked elements and known distinct primes."""
    log_n = math.log(N)
    occupied = {p: len({a % p for a in elems}) for p in primes}
    numerator = sum(math.log(p) for p in primes) - log_n
    denominator = sum(math.log(p) / occupied[p] for p in primes) - log_n
    bound = numerator / denominator if denominator > 0 else None
    return SieveEvaluation(len(elems), numerator, denominator, bound, occupied)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of sieve_pipeline: the sieving primes chosen for (n, k, L),
    the estimate over them, and the diagnostics of that choice."""

    n: int
    k: int
    L: str  # the height exponent, kept in exact form
    Q: float
    cap: int  # ceil(|n|^L), the box the set is measured against
    primes: tuple[int, ...]
    degenerate: bool  # no usable sieving primes below Q
    evaluation: SieveEvaluation | None
    diagnostics: dict[str, float]


def _ceil_power(base: int, expo: Fraction) -> int:
    """ceil(base^expo) exactly, for base >= 1 and rational expo > 0.

    With expo = p/q, the answer is the integer q-th root r of base^p, or
    r + 1 when r^q < base^p.  That is computed outright where
    exact._cross_powering_fits holds, as compare_value_to_power does.
    Elsewhere, mpmath seeds c at the result's bit size; compare_value_to_power
    then settles it to the least c with c >= base^expo.  The seed is off by
    about bits * 2^-guard, so guard bits beyond log2(bits) keep it a step or
    two from the answer.
    """
    p, q = expo.numerator, expo.denominator
    if _cross_powering_fits(base, p, q):
        power = base ** p
        if q == 1:
            return power
        r = integer_kth_root(power, q)
        return r if r ** q == power else r + 1
    from mpmath import mp
    bits = p * base.bit_length() // q + 1
    with mp.workprec(bits + bits.bit_length() + 32):
        c = max(1, int(mp.ceil(mp.power(base, mp.mpf(p) / q))))
    while c > 1 and compare_value_to_power(c - 1, base, expo) >= 0:
        c -= 1
    while compare_value_to_power(c, base, expo) < 0:
        c += 1
    return c


def sieve_pipeline(A: Sequence[int], n: int, k: int, L) -> PipelineResult:
    """Size up a set of candidate tuple elements below |n|^L via the sieve.

    Q = (4/k) (phi(k) L log|n|)^2 picks the prime window; the sieving primes
    are those <= Q in the class 1 mod k and coprime to n.  The sieve's time
    and memory grow with Q, so a Q above SIEVE_WINDOW_CAP is rejected with
    InputError before any sieving.  Diagnostics expose the log-weight sums
    against their asymptotic comparators.
    """
    if abs(n) < 2:
        raise InputError("pipeline needs |n| >= 2")
    if k < 2:
        raise InputError(f"degree must be >= 2, got {k}")
    Lf = parse_rational(L)
    if Lf <= Fraction(1, 2):
        raise InputError(f"height exponent must exceed 1/2, got {L}")
    phi = euler_phi(k)
    log_n = math.log(abs(n))
    try:
        Lfloat = Lf.numerator / Lf.denominator
        Q = (4 / k) * (phi * Lfloat * log_n) ** 2
    except OverflowError:  # a window past the float range is past the cap
        Q = math.inf
    if Q > SIEVE_WINDOW_CAP:
        raise InputError(
            f"the prime window Q = {Q!r} of this pipeline is above the cap of "
            f"{SIEVE_WINDOW_CAP}; lower L or |n|")
    cap = _ceil_power(abs(n), Lf)
    primes = primes_in_class(Q, k, n)
    diagnostics = {
        "sum_log_p": sum(math.log(p) for p in primes),
        "window_over_phi": Q / phi,
        "sum_log_p_over_sqrt_p": sum(math.log(p) / math.sqrt(p) for p in primes),
        "two_sqrt_window_over_phi": 2 * math.sqrt(Q) / phi,
        "sum_log_p_over_sqrt_p_per_k": sum(math.log(p) / math.sqrt(p / k)
                                           for p in primes),
        "asymptotic_target": 4 * Lfloat * phi / k * log_n,
        "shift_prime_drag": sum(math.log(p) / math.sqrt(p)
                                for p, _ in trial_factor(abs(n))),
    }
    if not primes:
        return PipelineResult(n, k, str(Lf), Q, cap, (), True, None, diagnostics)
    # primes_in_class sieved these primes; Miller-Rabin need not re-test them
    evaluation = _gallagher(_sieved_set(A, cap), cap, primes)
    return PipelineResult(n, k, str(Lf), Q, cap, tuple(primes), False,
                          evaluation, diagnostics)
