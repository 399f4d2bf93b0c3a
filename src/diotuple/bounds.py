"""Explicit constants and size bounds for shifted-product tuples.

Every constant is carried exactly (int or Fraction); the handful of bounds
that are genuinely transcendental are evaluated at 120-bit precision and
reported as floats, accurate to far better than 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, report_failure
from .exact import integer_kth_root, is_perfect_kth_power, parse_rational

# thue_scan refuses a small-x zone wider than this (about 5 s of scanning)
THUE_ZONE_CAP = 10 ** 6
# and a degree above this: its powers have k times the bits of their base,
# (2c)^k and a * 2^(kP) among them (at k = 100 and a, b, c, X near 10^18 a
# scan takes a few ms, at k = 1000 about 3 s)
THUE_DEGREE_CAP = 100


class TableConstants(NamedTuple):
    """Per-degree constants (r, s, t, u) for the element-count tables."""

    r: int
    s: int
    t: Fraction
    u: int


def table_constants(k: int) -> TableConstants:
    """The four tabulated constants for degree k >= 3.

    r bounds large-element counts, s the same under a two-sided setup,
    t is the threshold-exponent ratio, u the sporadic-range count.
    """
    if k < 3:
        raise InputError(f"constants tabulated for k >= 3, got {k}")
    r = {3: 9, 4: 6, 5: 5}.get(k, 4)
    s = {3: 6, 4: 4, 5: 3}.get(k, 2)
    if k == 3:
        t = Fraction(15399, 938)
    elif k == 4:
        t = Fraction(34, 3)
    elif k == 5:
        t = Fraction(97, 23)
    elif k == 6:
        t = Fraction(29, 4)
    else:
        t = Fraction(k * k + k - 4, k * k - 6 * k + 6)
    if k <= 5:
        u = {3: 15, 4: 10, 5: 6}[k]
    elif k <= 14:
        u = 8
    else:
        u = 5
    return TableConstants(r, s, t, u)


def evertse_constants(k: int) -> tuple[Fraction, Fraction]:
    """(alpha_k, beta_k) for the two-term Thue inequality, both exact.

    alpha_3 = 9, alpha_k = max{(3k-2)/(2(k-3)), 2(k-1)/(k-2)} for k >= 4.
    beta_3 and beta_4 are the tabulated decimals; beta_k = k^2 is a valid
    working constant from k = 5 on.
    """
    if k < 3:
        raise InputError(f"Thue constants defined for k >= 3, got {k}")
    if k == 3:
        alpha = Fraction(9)
    else:
        alpha = max(Fraction(3 * k - 2, 2 * (k - 3)),
                    Fraction(2 * (k - 1), k - 2))
    if k == 3:
        beta = Fraction("1152.2")
    elif k == 4:
        beta = Fraction("98.53")
    else:
        beta = Fraction(k * k)
    return alpha, beta


def _range_endpoints(k: int) -> tuple[Fraction, Fraction]:
    if k < 3:
        raise InputError(f"parameter range defined for k >= 3, got {k}")
    return Fraction(k, 2 * k - 4), Fraction(k, k - 2)


def tail_term(k: int, L) -> float:
    """The additive tail T(k, L) = 3(log 18 - log L)/(log(k-1) - log(3 + k/L - k)) + 12.

    Defined for k/(2k-4) < L <= k/(k-2); on that range the denominator is
    positive and T > 12.  Range ends are compared exactly.  L is an int, a
    Fraction or a 'p' or 'p/q' string (exact.parse_rational).
    """
    lo, hi = _range_endpoints(k)
    Lf = parse_rational(L)
    if Lf <= lo:
        raise InputError(f"L must exceed k/(2k-4) = {lo}, got {L}")
    if Lf > hi:
        raise InputError(f"L must not exceed k/(k-2) = {hi}, got {L}")
    from mpmath import mp
    with mp.workprec(120):
        Lm = mp.mpf(Lf.numerator) / Lf.denominator
        inner = 3 + mp.mpf(k) / Lm - k
        value = 3 * (mp.log(18) - mp.log(Lm)) / (mp.log(k - 1) - mp.log(inner)) + 12
        return float(value)


def _check_bound_domain(n: int, k: int):
    if n == 0:
        raise InputError("shift n must be nonzero")
    if k < 3:
        raise InputError(f"bound defined for k >= 3, got {k}")


def bipartite_side_bound(n: int, k: int) -> Fraction | float:
    """Explicit bound on the smaller side of a two-sided maximal pair.

    |n| = 1 gives the exact r_k + 1; otherwise the bound is
    max{(log log|n| + 3.3)/log(k-1) + 8,
        (max{4n^2, |n|^(2(k+1)/(k-2))} + n)^(1/k) + 20}.
    """
    _check_bound_domain(n, k)
    if abs(n) == 1:
        return Fraction(table_constants(k).r + 1)
    from mpmath import mp
    with mp.workprec(120):
        first = (mp.log(mp.log(abs(n))) + mp.mpf("3.3")) / mp.log(k - 1) + 8
        expo = Fraction(2 * (k + 1), k - 2)
        inner = max(mp.mpf(4) * n * n,
                    mp.power(abs(n), mp.mpf(expo.numerator) / expo.denominator))
        second = mp.power(inner + n, mp.mpf(1) / k) + 20
        return float(max(first, second))


def tuple_size_bound(n: int, k: int, L) -> float:
    """Parametric tuple-size bound (|n|^(2L) + n)^(1/k) + T(k, L) + 1.

    The radicand is provably nonnegative on the admissible range (it hits
    zero only at n = -1).
    """
    if n == 0:
        raise InputError("shift n must be nonzero")
    tail = tail_term(k, L)  # validates k and L
    Lf = parse_rational(L)
    from mpmath import mp
    with mp.workprec(120):
        radicand = mp.power(abs(n), 2 * mp.mpf(Lf.numerator) / Lf.denominator) + n
        if radicand < 0:
            radicand = mp.mpf(0)  # only roundoff can put it below zero
        return float(mp.power(radicand, mp.mpf(1) / k) + tail + 1)


def tuple_size_bound_closed(n: int, k: int) -> float:
    """Parameter-free tuple-size bound 2^(1/k) |n|^(2/(k-2)) + 16."""
    _check_bound_domain(n, k)
    from mpmath import mp
    with mp.workprec(120):
        value = mp.power(2, mp.mpf(1) / k) * mp.power(abs(n), mp.mpf(2) / (k - 2)) + 16
        return float(value)


def tuple_size_small_regime(n: int, k: int) -> bool:
    """True when |n| >= 2 and k >= 2 log|n| + 2, forcing the closed bound <= 19.

    That is n^2 < e^(k-2), never a tie: e^(k-2) is irrational for k >= 3.
    2^(k-2) < e^(k-2) < 3^(k-2) settles most shifts; the rest bracket e
    between partial sums of sum 1/i! and their tail bound, doubling the
    terms until n^2 falls outside the bracket raised to k - 2.
    """
    _check_bound_domain(n, k)
    if abs(n) < 2:
        return False
    m, j = n * n, k - 2
    if m.bit_length() <= j:
        return True  # m < 2^j
    if m >= 3 ** j:
        return False
    terms = 16
    while True:
        lo = sum(Fraction(1, math.factorial(i)) for i in range(terms))
        # sum_{i >= t} 1/i! < (t + 1) / (t * t!)
        hi = lo + Fraction(terms + 1, terms * math.factorial(terms))
        if m < lo ** j:
            return True
        if m > hi ** j:
            return False
        terms *= 2


def large_element_exponents(k: int) -> tuple[Fraction, Fraction]:
    """Exponent pair (t_k / k, 1/(k-2)) governing the large-element thresholds."""
    t = table_constants(k).t
    return t / k, Fraction(1, k - 2)


@dataclass(frozen=True)
class BoundReport:
    """One named bound instance, exact when the value is rational by nature."""

    name: str
    parameters: dict
    value: Fraction | float
    exact: bool
    anchor: str


def bound_reports(n: int, k: int, L=None) -> list[BoundReport]:
    """Assemble every applicable bound for (n, k) and optionally L."""
    reports = []
    bs = bipartite_side_bound(n, k)
    reports.append(BoundReport(
        "bipartite-side", {"n": n, "k": k}, bs, isinstance(bs, Fraction),
        "r_k+1 if |n|=1 else max{(loglog|n|+3.3)/log(k-1)+8,"
        " (max{4n^2,|n|^(2(k+1)/(k-2))}+n)^(1/k)+20}"))
    reports.append(BoundReport(
        "tuple-size-closed", {"n": n, "k": k},
        tuple_size_bound_closed(n, k), False,
        "2^(1/k)|n|^(2/(k-2))+16"))
    if tuple_size_small_regime(n, k):
        reports.append(BoundReport(
            "tuple-size-small-regime", {"n": n, "k": k}, Fraction(19), True,
            "closed bound <= 19 once |n|>=2 and k >= 2log|n|+2"))
    if L is not None:
        L = parse_rational(L)
        reports.append(BoundReport(
            "tail-term", {"k": k, "L": str(L)}, tail_term(k, L), False,
            "3(log18-logL)/(log(k-1)-log(3+k/L-k))+12"))
        reports.append(BoundReport(
            "tuple-size-parametric", {"n": n, "k": k, "L": str(L)},
            tuple_size_bound(n, k, L), False,
            "(|n|^(2L)+n)^(1/k)+T(k,L)+1"))
    main, secondary = large_element_exponents(k)
    reports.append(BoundReport(
        "large-exponent-main", {"k": k}, main, True, "t_k/k"))
    reports.append(BoundReport(
        "large-exponent-secondary", {"k": k}, secondary, True, "1/(k-2)"))
    return reports


@dataclass(frozen=True)
class ThueScanReport:
    """Primitive solutions of |a x^k - b y^k| <= c within a box.

    thue_scan splits the box at x0, the least x with
    a^(k-1) b x^(k(k-2)) > (2c)^k: below it each x tries every y its two
    integer root bounds allow, from it on only the convergents y/x of
    (a/b)^(1/k) are tried, since by Legendre's theorem no other primitive
    solution lies there.  The report does not depend on the split.
    """

    a: int
    b: int
    k: int
    c: int
    X: int
    solutions: tuple[tuple[int, int], ...]
    large: tuple[tuple[int, int], ...]  # max{|ax^k|, |by^k|} above threshold
    alpha: Fraction
    beta: Fraction
    lemma_violation: bool  # >= 2 large primitives; must never fire


def _root_convergents(a: int, b: int, k: int, X: int) -> list[tuple[int, int]]:
    """The convergents (p, q) of (a/b)^(1/k) in order, up to the first with
    p > X or q > X (exclusive), in exact integer arithmetic.

    If a/g and b/g (g = gcd(a, b)) are k-th powers u^k and v^k, the root is
    u/v and its finite expansion is Euclid's.  Otherwise the root is
    irrational and lies strictly inside (r/2^P, (r+1)/2^P) with
    r = floor(2^P (a/b)^(1/k)); while both ends have the same partial
    quotient the root has it too, and P doubles until a convergent passes X.
    """
    g = math.gcd(a, b)
    u = is_perfect_kth_power(a // g, k)
    v = is_perfect_kth_power(b // g, k)
    P = 2 * X.bit_length() + 8
    while True:
        if u and v:
            n1, d1, n2, d2 = u, v, u, v
        else:
            r = integer_kth_root((a << k * P) // b, k)
            n1, d1, n2, d2 = r, 1 << P, r + 1, 1 << P
        out = []
        p0, q0, p1, q1 = 0, 1, 1, 0  # convergents n-2 and n-1
        while d1 and d2:
            t = n1 // d1
            if t != n2 // d2:
                break
            p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
            if p1 > X or q1 > X:  # p and q never fall from here on
                return out
            out.append((p1, q1))
            n1, d1, n2, d2 = d1, n1 - t * d1, d2, n2 - t * d2
        if u and v:
            return out
        P *= 2


def thue_scan(a: int, b: int, k: int, c: int, X: int) -> ThueScanReport:
    """Enumerate primitive (x, y) in [1, X]^2 with |a x^k - b y^k| <= c.

    With theta = (a/b)^(1/k), a x^k - b y^k = b (theta x - y) times a sum of
    k nonnegative terms, one of them (theta x)^(k-1), so a solution has
    |theta - y/x| <= c / (b theta^(k-1) x^k).  From the least x0 with
    a^(k-1) b x0^(k(k-2)) > (2c)^k (an integer test, solved with one
    integer root) this is below 1/(2x^2), and by Legendre's theorem a
    primitive y/x is then a convergent of theta.  So the scan has two zones:

    - x < x0: every y between the two integer k-th roots bounding
      b y^k within [a x^k - c, a x^k + c], clamped to [1, X];
    - x >= x0: each exact convergent y/x of theta with x <= X and
      1 <= y <= X, tested directly.

    The cost is O(x0) for the first zone and O(log X) for the second, all
    in exact integer arithmetic.  x0 grows like (2c)^(1/(k-2)), linearly in
    c at k = 3, so a first zone wider than THUE_ZONE_CAP, or a degree
    above THUE_DEGREE_CAP, is rejected with InputError before any
    scanning.  Solutions are split by the Thue threshold
    beta_k * c^alpha_k (compared exactly); at most one primitive solution
    may sit above it.
    """
    if a < 1 or b < 1:
        raise InputError("coefficients must be positive")
    if c < 0:
        raise InputError(f"slack c must be >= 0, got {c}")
    if X < 1:
        raise InputError(f"box must satisfy X >= 1, got {X}")
    if k > THUE_DEGREE_CAP:
        raise InputError(
            f"thue-scan is capped at degree k <= {THUE_DEGREE_CAP}, got {k}")
    alpha, beta = evertse_constants(k)
    x0 = integer_kth_root((2 * c) ** k // (a ** (k - 1) * b), k * (k - 2)) + 1
    width = min(x0 - 1, X)
    if width > THUE_ZONE_CAP:
        raise InputError(
            f"the small-x zone of this scan spans {width} values of x, above "
            f"the cap of {THUE_ZONE_CAP}; lower c or X")
    sols = []
    gcd = math.gcd
    for x in range(1, width + 1):
        axk = a * x ** k
        # least y with b y^k >= axk - c, largest with b y^k <= axk + c
        y_lo = integer_kth_root(max(-((c - axk) // b) - 1, 0), k) + 1
        y_hi = min(integer_kth_root((axk + c) // b, k), X)
        for y in range(y_lo, y_hi + 1):
            if gcd(x, y) == 1:
                sols.append((x, y))
    for y, x in _root_convergents(a, b, k, X):
        if x >= x0 and y >= 1 and abs(a * x ** k - b * y ** k) <= c:
            sols.append((x, y))
    sols.sort()
    # exact threshold test: M > beta * c^alpha  <=>  M^q > beta^q * c^p
    p, q = alpha.numerator, alpha.denominator
    rhs = beta ** q * c ** p
    large = tuple((x, y) for x, y in sols
                  if Fraction(max(a * x ** k, b * y ** k)) ** q > rhs)
    violation = len(large) >= 2
    if violation:
        report_failure(
            __name__,
            "two primitive solutions above the Thue threshold for "
            "(a,b,k,c)=(%d,%d,%d,%d): %s -- this is a bug", a, b, k, c, large)
    return ThueScanReport(a, b, k, c, X, tuple(sols), large, alpha, beta,
                          violation)
