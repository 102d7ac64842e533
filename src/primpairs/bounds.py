"""Exact evaluation of the sufficient conditions for membership in Q_n.

Everything here is integer or rational arithmetic; no floats enter any
comparison.  The main condition q^((m-4)/2) > (n+2) W(q^m-1)^2 is tested
squared.  The sieve refinement keeps a few small primes of q^m-1 in l and
pays for the s omitted ones through delta = 1 - 2 sum 1/p_i and
Delta = (2s-1)/delta + 2; its inequality is cross-multiplied so that an
exact Fraction Delta never meets a float.  Worst-case windows bound delta
from below over every group whose prime count falls in [a, b] by pretending
the omitted primes are the globally smallest ones they could be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactorCache,
    FactoredInteger,
    decimal_lower,
    decimal_upper,
    factor,
    factor_qm_minus_1,
    factored,
    iroot,
    nth_primes,
    prime_power,
    squarefree_divisor_count,
)

#: (a, b) windows on omega(q^m-1), in cascade order; the first five drive the
#: m = 7 threshold, the last two the m >= 8 one.
WINDOWS = ((10, 61), (7, 29), (6, 23), (6, 22), (6, 21), (5, 19), (5, 18))
WINDOW_PARTS = (1, 1, 1, 1, 1, 2, 2)
WIDE_WINDOW = (31, 472)

CASCADE_MIN_M = 7


def main_margin(q: int, m: int, n: int, W: int) -> int:
    """q^(m-4) - ((n+2) W^2)^2: positive iff the main condition holds,
    zero in the equality cases the scan must keep as exceptions."""
    if m < 5:
        raise ValueError("main condition needs m >= 5")
    if q < 2 or n < 1 or W < 1:
        raise ValueError("q >= 2, n >= 1, W >= 1 required")
    return q ** (m - 4) - ((n + 2) * W * W) ** 2


def main_condition(q: int, m: int, n: int, W: int) -> bool:
    """Exact strict test of q^((m-4)/2) > (n+2) W^2, squared."""
    return main_margin(q, m, n, W) > 0


@dataclass(frozen=True)
class Lemma473Report:
    """Outcome of the 473-prime threshold check: the product of the first
    473 primes exceeds 2^4730 (so W(M) < M^(1/10) once omega(M) >= 473),
    while 472 primes do not clear the analogous bar."""

    holds_at_473: bool
    fails_at_472: bool
    margin_bits_473: int

    @property
    def ok(self) -> bool:
        return self.holds_at_473 and self.fails_at_472


def lemma_473_boundary() -> Lemma473Report:
    ps = nth_primes(473)
    prod_472 = prod(ps[:472])
    prod_473 = prod_472 * ps[472]
    holds = prod_473 > 2 ** 4730
    fails = prod_472 <= 2 ** 4720
    return Lemma473Report(holds, fails, prod_473.bit_length() - 4731)


def sieve_params(group_order: FactoredInteger,
                 l_radical: FactoredInteger) -> tuple[int, Fraction, Fraction | None]:
    """(s, delta, Delta) for keeping l_radical out of the q^m-1 primes.
    Delta is None when delta <= 0 (the choice of l certifies nothing)."""
    if any(e != 1 for _, e in l_radical.factors):
        raise ValueError("l_radical must be squarefree")
    if any(group_order.value % p != 0 for p in l_radical.primes):
        raise ValueError("l_radical must divide the group order")
    omitted = tuple(p for p in group_order.primes if l_radical.value % p)
    s = len(omitted)
    delta = 1 - 2 * sum(Fraction(1, p) for p in omitted)
    if delta <= 0:
        return s, delta, None
    return s, delta, Fraction(2 * s - 1, 1) / delta + 2


@dataclass(frozen=True)
class SieveCertificate:
    """A concrete (l, s, delta, Delta) witness for (q, m) in Q_n, or the
    record of a choice of l that fails."""

    q: int
    m: int
    n: int
    l_radical: FactoredInteger
    s: int
    delta: Fraction
    Delta: Fraction | None
    passes: bool
    omitted_primes: tuple[int, ...]

    @property
    def W_l(self) -> int:
        return squarefree_divisor_count(self.l_radical)

    def serialize(self) -> dict:
        d: dict = {
            "q": self.q, "m": self.m, "n": self.n,
            "l": int(self.l_radical), "s": self.s,
            "delta": str(self.delta),
            "delta_decimal": decimal_lower(self.delta, 10),
            "passes": self.passes,
            "omitted_primes": list(self.omitted_primes),
        }
        if self.Delta is not None:
            d["Delta"] = str(self.Delta)
            d["Delta_decimal"] = decimal_upper(self.Delta, 10)
        return d

    def csv_row(self, sr: int) -> list:
        """Sr. No., q, l, s, delta lower bound, Delta upper bound."""
        return [sr, self.q, int(self.l_radical), self.s,
                decimal_lower(self.delta, 10),
                decimal_upper(self.Delta, 10) if self.Delta is not None else ""]


def sieve_condition(q: int, m: int, n: int, cert: SieveCertificate) -> bool:
    """Exact strict test of q^((m-4)/2) > (n+2) Delta W(l)^2, squared with
    Delta = num/den cross-multiplied."""
    if m < 5:
        raise ValueError("sieve condition needs m >= 5")
    if cert.Delta is None or cert.delta <= 0:
        raise ValueError("certificate has no positive delta")
    num, den = cert.Delta.numerator, cert.Delta.denominator
    return den ** 2 * q ** (m - 4) > (num * (n + 2) * cert.W_l ** 2) ** 2


def evaluate_l(q: int, m: int, n: int, group: FactoredInteger,
               l_radical: FactoredInteger) -> SieveCertificate:
    """Build the certificate for one explicit choice of l."""
    s, delta, Delta = sieve_params(group, l_radical)
    cert = SieveCertificate(
        q, m, n, l_radical, s, delta, Delta, False,
        tuple(p for p in group.primes if l_radical.value % p))
    if Delta is not None and sieve_condition(q, m, n, cert):
        cert = SieveCertificate(q, m, n, l_radical, s, delta, Delta, True,
                                cert.omitted_primes)
    return cert


def certificate_search(q: int, m: int, n: int, *,
                       cache: FactorCache | None = None,
                       budget: int = DEFAULT_FACTOR_BUDGET
                       ) -> SieveCertificate | None:
    """First passing certificate over l_radical drawn from subsets of the
    six smallest primes of q^m-1, smaller W(l) first, then smaller l."""
    prime_power(q)  # ValueError unless q is a prime power
    group = factor_qm_minus_1(q, m, cache=cache, budget=budget)
    head = group.primes[: min(len(group.primes), 6)]
    for size in range(len(head) + 1):
        subsets = sorted(combinations(head, size), key=prod)
        for subset in subsets:
            l_radical = factored(prod(subset), [(p, 1) for p in subset])
            cert = evaluate_l(q, m, n, group, l_radical)
            if cert.passes:
                return cert
    return None


# ---------------------------------------------------------------------------
# worst-case windows and the threshold cascade

@dataclass(frozen=True)
class WorstCaseRow:
    """delta/Delta bounds valid for every group with a <= omega(q^m-1) <= b
    when l keeps the a smallest primes: the omitted ones are then at worst
    the (a+1)-th through b-th primes overall."""

    a: int
    b: int
    n: int
    delta_lower: Fraction
    Delta_upper: Fraction | None
    bound_value: int | None  # ceil((n+2) * Delta * W(l)^2)

    @property
    def W_l(self) -> int:
        return 1 << self.a

    @property
    def usable(self) -> bool:
        return self.delta_lower > 0

    @property
    def s(self) -> int:
        return self.b - self.a


def worst_case_row(a: int, b: int, n: int) -> WorstCaseRow:
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    if n < 1:
        raise ValueError("n must be positive")
    ps = nth_primes(b)
    delta = 1 - 2 * sum(Fraction(1, p) for p in ps[a:b])
    if delta <= 0:
        return WorstCaseRow(a, b, n, delta, None, None)
    s = b - a
    Delta = Fraction(2 * s - 1, 1) / delta + 2
    bound = (n + 2) * Delta * (1 << a) ** 2
    return WorstCaseRow(a, b, n, delta, Delta,
                        -(-bound.numerator // bound.denominator))


def cascade_bounds(n: int) -> tuple[int, int]:
    """(B7, B8): the part-1 and part-2 terminal worst-case bounds driving
    the q thresholds for m = 7 and m >= 8."""
    part1 = worst_case_row(*WINDOWS[4], n)
    part2 = worst_case_row(*WINDOWS[6], n)
    if not (part1.usable and part2.usable):
        raise ValueError("cascade windows unusable for this n")
    return part1.bound_value, part2.bound_value


def threshold_cascade(n: int) -> dict[int, int]:
    """m -> largest q that still needs checking.  For m = 7 failure of the
    worst-case sieve needs q^3 <= B7^2; for m >= 8 it needs q^m <= B8^4.
    Safe because the bounds are not perfect powers of the right shape, so
    equality never hides a prime power (asserted here)."""
    b7, b8 = cascade_bounds(n)
    out = {7: iroot(b7 ** 2, 3)}
    assert out[7] ** 3 != b7 ** 2
    m = 8
    while True:
        qmax = iroot(b8 ** 4, m)
        assert qmax ** m != b8 ** 4
        if qmax < 2:
            break
        out[m] = qmax
        m += 1
    return out


def wide_window_row(n: int) -> WorstCaseRow:
    """The omega in [31, 472] window that caps the prime count before the
    per-m cascade takes over."""
    return worst_case_row(*WIDE_WINDOW, n)
