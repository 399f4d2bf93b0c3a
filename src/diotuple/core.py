"""Domain objects for shifted-product tuples and the four-element gap principle.

A tuple C is a set of distinct positive integers such that c_i*c_j + n is a
k-th power of a positive integer for every pair; a bipartite pair (A, B)
asks the same for every cross product a*b + n.  The gap principle bounds
how fast elements of such sets must grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import HypothesisError, InputError, report_failure
from .exact import (_check_integers, _integer_items, compare_value_to_power,
                    is_perfect_kth_power, parse_rational)


@dataclass(frozen=True)
class TupleConfig:
    """Problem parameters: power degree k >= 2 and nonzero shift n."""

    k: int
    n: int

    def __post_init__(self):
        _check_integers(k=self.k, n=self.n)
        if self.k < 2:
            raise InputError(f"power degree must be >= 2, got {self.k}")
        if self.n == 0:
            raise InputError("shift n must be nonzero")

    @property
    def k_below_main_range(self) -> bool:
        # k = 2 is admitted for prime-field cross-checks only
        return self.k == 2


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verify_tuple or verify_bipartite: each product that is
    not a k-th power once shifted, and notes on the check itself."""

    ok: bool
    failures: tuple[tuple[int, int, int], ...]  # (a, b, a*b + n)
    notes: tuple[str, ...] = ()


def _check_elements(elements: Sequence[int], what: str) -> tuple[int, ...]:
    elems = tuple(_integer_items(elements, what))
    if any(x >= y for x, y in zip(elems, elems[1:])):
        raise InputError(f"{what} must be strictly increasing: {elems}")
    if elems and elems[0] < 1:
        raise InputError(f"{what} must contain positive integers, got {elems[0]!r}")
    return elems


def _config_notes(config: TupleConfig) -> list[str]:
    if config.k_below_main_range:
        return ["k=2 is outside the main exponent range; cross-check use only"]
    return []


def _failing_products(pairs: Iterable[tuple[int, int]],
                      config: TupleConfig) -> list[tuple[int, int, int]]:
    """The (x, y, x*y + n) whose value is not a k-th power, in pair order."""
    n, k = config.n, config.k
    return [(x, y, v) for x, y in pairs
            if is_perfect_kth_power(v := x * y + n, k) is None]


def _refuse_products(failures: Sequence[tuple[int, int, int]],
                     config: TupleConfig, error=HypothesisError, prefix=""):
    """Raise error at the first (x, y, x*y + n) of failures, if any."""
    if failures:
        x, y, v = failures[0]
        raise error(f"{prefix}{x}*{y}+{config.n} = {v} "
                    f"is not a positive {config.k}-th power")


def _require_powers(pairs: Iterable[tuple[int, int]], config: TupleConfig):
    """Raise HypothesisError at the first pair whose shifted product is not
    a k-th power."""
    _refuse_products(_failing_products(pairs, config), config)


def verify_tuple(elements: Sequence[int], config: TupleConfig) -> VerifyReport:
    """Check every pairwise product: c_i*c_j + n must be a k-th power."""
    elems = _check_elements(elements, "tuple")
    failures = _failing_products(combinations(elems, 2), config)
    return VerifyReport(not failures, tuple(failures), tuple(_config_notes(config)))


def verify_bipartite(A: Sequence[int], B: Sequence[int],
                     config: TupleConfig) -> VerifyReport:
    """Check every cross product a*b + n.

    Shared elements are allowed; when a == b is tested the report notes it
    (the square product is a real constraint, not an error).
    """
    ea = _check_elements(A, "A")
    eb = _check_elements(B, "B")
    failures = _failing_products(product(ea, eb), config)
    notes = _config_notes(config)
    shared = sorted(set(ea) & set(eb))
    if shared:
        notes.append(f"sides share elements {shared}; squares were tested")
    return VerifyReport(not failures, tuple(failures), tuple(notes))


@dataclass(frozen=True)
class DiophantineTuple:
    """A verified tuple: every pairwise product is a shifted k-th power."""

    config: TupleConfig
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        k, n = self.config.k, self.config.n
        _refuse_products(verify_tuple(self.elements, self.config).failures,
                         self.config, InputError, f"not a D_{k}({n}) tuple: ")


@dataclass(frozen=True)
class BipartitePair:
    """A verified bipartite pair, stored in canonical orientation.

    Orientation: min(A) <= min(B), ties broken lexicographically.  The
    two-sided size requirement (|A|, |B| >= 2) is a property of theorems,
    not of the type; use has_two_per_side when it matters.
    """

    config: TupleConfig
    A: tuple[int, ...]
    B: tuple[int, ...]

    def __post_init__(self):
        # verify_bipartite reads and checks each side as the caller gave it,
        # so a refusal names that side; the pair is oriented after
        a, b = tuple(self.A), tuple(self.B)
        report = verify_bipartite(a, b, self.config)
        if not a or not b:
            raise InputError("both sides must be nonempty")
        k, n = self.config.k, self.config.n
        _refuse_products(report.failures, self.config, InputError,
                         f"not a BD_{k}({n}) pair: ")
        if b < a:  # the sides increase, so this compares min(b), min(a) first
            a, b = b, a
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def has_two_per_side(self) -> bool:
        return len(self.A) >= 2 and len(self.B) >= 2


def gap_lower_bound(a: int, c: int, config: TupleConfig) -> Fraction:
    """Exact lower bound forced on b*d by the gap principle.

    For a < b, c < d with all four cross products shifted k-th powers and
    a*c >= 2|n|:  b*d >= k^k (ac)^(k-1) / n^k when n > 0, and
    b*d >= k^k (ac)^(k-1) / (4^(k-1) |n|^k) when n < 0.  The positive-shift
    branch is strictly sharper; we return the branch-correct constant.
    """
    _check_integers(a=a, c=c)
    if a < 1 or c < 1:
        raise InputError("gap bound needs positive a, c")
    k, n = config.k, config.n
    if a * c < 2 * abs(n):
        raise InputError(
            f"gap principle requires a*c >= 2|n|: {a}*{c} < {2 * abs(n)}")
    if n > 0:
        return Fraction(k ** k * (a * c) ** (k - 1), n ** k)
    return Fraction(k ** k * (a * c) ** (k - 1), 4 ** (k - 1) * abs(n) ** k)


@dataclass(frozen=True)
class GapCertificate:
    """Record of one gap-principle check: holds must be True on valid input."""

    config: TupleConfig
    a: int
    b: int
    c: int
    d: int
    bound: Fraction
    holds: bool


def check_gap_quadruple(a: int, b: int, c: int, d: int,
                        config: TupleConfig) -> GapCertificate:
    """Verify the gap principle on one quadruple a < b, c < d.

    Hypothesis failures (a product that is not a k-th power) raise
    HypothesisError; the certificate itself records whether the proven
    inequality b*d >= bound held.  A certificate with holds=False means an
    implementation bug somewhere, never a fact about the numbers.
    """
    _check_integers(a=a, b=b, c=c, d=d)
    if not (0 < a < b):
        raise InputError(f"need 0 < a < b, got a={a}, b={b}")
    if not (0 < c < d):
        raise InputError(f"need 0 < c < d, got c={c}, d={d}")
    n, k = config.n, config.k
    bound = gap_lower_bound(a, c, config)
    _require_powers(((a, c), (b, c), (a, d), (b, d)), config)
    holds = Fraction(b * d) >= bound
    if not holds:
        report_failure(
            __name__,
            "gap principle violated: b*d = %d < %s for (a,b,c,d)=(%d,%d,%d,%d), "
            "k=%d, n=%d -- this is a bug", b * d, bound, a, b, c, d, k, n)
    return GapCertificate(config, a, b, c, d, bound, holds)


def growth_exponents(k: int, L) -> tuple[float | None, float | None]:
    """The two growth exponents, each present only on its validity range.

    theta_exp = k - 1 - k/L        for L > k/(k-2)
    theta_gap = (k-1)/(3 + k/L - k) for k/(2k-4) < L < k/(k-2)

    Both exceed 1 wherever defined.  Range ends are compared exactly.
    """
    _check_integers(k=k)
    if k < 3:
        raise InputError(f"growth exponents need k >= 3, got {k}")
    Lf = parse_rational(L)
    if Lf <= 0:
        raise InputError(f"L must be positive, got {L}")
    theta_exp = None
    if Lf > Fraction(k, k - 2):
        theta_exp = float(k - 1 - Fraction(k) / Lf)
    theta_gap = None
    if Fraction(k, 2 * k - 4) < Lf < Fraction(k, k - 2):
        theta_gap = float(Fraction(k - 1) / (3 + Fraction(k) / Lf - k))
    return theta_exp, theta_gap


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of check_superexponential_growth: the chain exponent theta
    and each link b_{i+1} < b_i^theta, which must never occur."""

    ok: bool
    theta: Fraction
    checked_links: int
    failures: tuple[tuple[int, int, int], ...]  # (index i, b_i, b_{i+1})
    notes: tuple[str, ...] = ()


def check_superexponential_growth(a1: int, a2: int, B: Sequence[int],
                                  config: TupleConfig, L) -> GrowthReport:
    """Check the superexponential growth chain on a verified instance.

    Hypotheses (HypothesisError when violated): a1 < a2 <= a1^(k-1); every
    a_i*b_j + n a k-th power; b_1 >= max(|n|^L, 2|n|); L > k/(k-2) so that
    theta = k - 1 - k/L exceeds 1.  The conclusion b_i >= b_1^(theta^(i-1))
    is checked as the chain b_{i+1} >= b_i^theta, link by link, with exact
    fallback on near-ties.
    """
    _check_integers(a1=a1, a2=a2)
    k, n = config.k, config.n
    if k < 3:
        raise HypothesisError(f"growth chain needs k >= 3, got {k}")
    if not 0 < a1 < a2:
        raise HypothesisError(f"need 0 < a1 < a2, got {a1}, {a2}")
    if a1 ** (k - 1) < a2:
        raise HypothesisError(
            f"need a1^(k-1) >= a2: {a1}^{k - 1} = {a1 ** (k - 1)} < {a2}")
    elems = _check_elements(B, "B")
    if not elems:
        raise HypothesisError("B must be nonempty")
    Lf = parse_rational(L)
    if Lf <= Fraction(k, k - 2):
        raise HypothesisError(
            f"L must exceed k/(k-2) = {Fraction(k, k - 2)}, got {L}")
    theta = Fraction(k - 1) - Fraction(k) / Lf
    b1 = elems[0]
    if b1 < 2 * abs(n):
        raise HypothesisError(f"b_1 = {b1} < 2|n| = {2 * abs(n)}")
    if compare_value_to_power(b1, abs(n), Lf) < 0:
        raise HypothesisError(f"b_1 = {b1} < |n|^L")
    _require_powers(product((a1, a2), elems), config)
    failures = [(i, x, y) for i, (x, y) in enumerate(zip(elems, elems[1:]), 1)
                if compare_value_to_power(y, x, theta) < 0]
    if failures:
        report_failure(
            __name__,
            "growth chain broke at links %s for a1=%d a2=%d k=%d n=%d -- "
            "this contradicts a theorem and means a bug", failures, a1, a2, k, n)
    return GrowthReport(not failures, theta, len(elems) - 1, tuple(failures),
                        tuple(_config_notes(config)))
