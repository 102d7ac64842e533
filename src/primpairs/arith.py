"""Exact integer arithmetic: factorization, multiplicative functions, primes.

Everything here is deterministic.  Factoring trial-divides by the primes
below 10**6 that can divide the number (p = 1 mod d or p | d for a part
Phi_d(q) of q**m - 1) behind prime-product gcds, up to the square root of
what is left, then runs Brent's Pollard rho on the walk y**lcm(2, d) + c,
c = 1, 2, ... in turn: every prime of a cofactor of Phi_d(q) is 1 mod
lcm(2, d) (d = 1 for a plain n).  Primality is a lookup in the prime
table up to its limit, then
Miller-Rabin with the first k prime witnesses, k the least with
n < psi_k, where psi_k is the least strong pseudoprime to those k bases
(the ladder 2047, 1373653, ... of Jaeschke and of Sorenson and Webster,
proven up to psi_12 ~ 3.2e23), and the first 24 primes from psi_12 on.  A
cofactor left by trial division has no prime below TRIAL_LIMIT, so below
TRIAL_LIMIT**2 it is prime without a test: two of its primes would
multiply past that.  A larger cofactor is tested only where its primes
are read.

The quantities of interest downstream are the group orders q**m - 1 and
their derived multiplicative functions: omega (distinct prime count),
W = 2**omega (squarefree divisor count), phi and mu.  Each part Phi_d(q)
of q**m - 1 is split once, by `_split_parts`, into its primes below
TRIAL_LIMIT and a cofactor, and every consumer reads that split:
`factor_qm_minus_1` finishes each part by a primality test and Pollard
rho, and where only W matters `omega_bounds_row` brackets omega(q**m - 1)
for a row of q from the splits alone, no cofactor tested, and hands them
on, held, to an exact count for a pair the bracket does not decide.  That
count tests each cofactor, and for a composite one still mostly avoids
rho: a composite cofactor of Phi_d(q) has only primes p = 1
(mod lcm(2, d)) above TRIAL_LIMIT, so when none of them up to its cube
root divides it, it is a product of two primes; any other part is
finished alone.  A long row finds the small primes of all its parts
Phi_d(q) at once by a root sieve: for p not dividing d, p | Phi_d(q)
exactly when q mod p is a primitive d-th root of unity mod p, so each
root marks the q of the row in one residue class.  Once `_split_part`
takes in a cofactor below TRIAL_LIMIT**2, it gives the same split as
trial division.
Cached factorizations are checked on read (primes prime, product equal to
the key), so a corrupt cache file costs time, never a wrong W.

Exact rationals for the sieve quantities delta and Delta are plain
fractions.Fraction values; `decimal_lower` / `decimal_upper` render them
with directed rounding for comparison against printed table digits.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

TRIAL_LIMIT = 10 ** 6
#: Rows of at least this many q split their parts by root sieve; shorter
#: rows trial-divide each part, which is cheaper than finding the roots.
_ROW_SIEVE_MIN = 512
_SIEVE_BLOCK = 4096  # about this many values per array of a numpy sieve
#: A composite cofactor c is proven a product of two primes only when
#: cbrt(c) <= _CUBE_LIMIT, so each progression sieve stops here.
_CUBE_LIMIT = 2 ** 23
#: Modular squarings one Pollard rho call may spend, floor(log2 k) for each
#: step of its walk y**k + c that enters a gcd (about half of its steps;
#: the rest only move the walk on); each composite cofactor taken apart
#: gets a call of its own.
DEFAULT_FACTOR_BUDGET = 50_000_000


class FactorBudgetExceeded(RuntimeError):
    """A cofactor resisted factoring within the configured rho budget."""


# ---------------------------------------------------------------------------
# prime sieve

_sieve_primes: list[int] = []
_sieve_limit = 0


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, cached module-wide (sieve of Eratosthenes)."""
    global _sieve_primes, _sieve_limit
    if limit > _sieve_limit:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _sieve_primes = np.flatnonzero(sieve).tolist()
        _sieve_limit = limit
    return _sieve_primes[: bisect_right(_sieve_primes, limit)]


def nth_primes(k: int) -> list[int]:
    """First k primes, k up to the 78498 primes below TRIAL_LIMIT (>= 500
    needed by the worst-case tables)."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > 78498:  # primes below TRIAL_LIMIT
        raise ValueError("k beyond configured sieve bound")
    if len(_sieve_primes) < k:
        primes_upto(TRIAL_LIMIT)
    return _sieve_primes[:k]


# ---------------------------------------------------------------------------
# primality

#: the first 24 primes: the trial divisors and Miller-Rabin bases
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89)
#: psi_k, the least strong pseudoprime to the first k prime bases, for
#: k = 1..12 (Jaeschke 1993; Sorenson and Webster, Math. Comp. 86 (2017);
#: OEIS A014233): below psi_k the first k bases decide primality.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)
_PSI_12 = _PSI[-1]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin.  A table lookup up to the sieved limit; deterministic
    below psi_12 = 318665857834031151167461 with the first k prime
    witnesses, k the least with n < psi_k (proven there); from psi_12 on,
    the first 24 primes serve as witnesses, which keeps results
    reproducible."""
    if n < 2:
        return False
    if n <= _sieve_limit:
        i = bisect_right(_sieve_primes, n)
        return i > 0 and _sieve_primes[i - 1] == n
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = bisect_right(_PSI, n)
    for a in _MR_WITNESSES[: k + 1] if k < 12 else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_cofactor(c: int) -> bool:
    """Whether c > 1 with no prime below TRIAL_LIMIT is prime: it is when
    c < TRIAL_LIMIT**2, since two such primes multiply past that."""
    return c < TRIAL_LIMIT ** 2 or is_probable_prime(c)


# ---------------------------------------------------------------------------
# factoring

_trial_chunks: dict[int, list[tuple[int, int, int]]] = {}


@functools.cache
def _trial_primes() -> np.ndarray:
    return np.array(primes_upto(TRIAL_LIMIT), dtype=np.int64)


def _get_trial_chunks(d: int) -> list[tuple[int, int, int]]:
    """Table d, built on first use: the primes below TRIAL_LIMIT that can
    divide a value of Phi_d, p = 1 (mod d) or p | d (all primes for d <= 2),
    as (lo, hi, product) of ~512 of them, all in _sieve_primes[lo:hi].
    A product starts from int64 products of prime triples, each below
    TRIAL_LIMIT^3 = 10^18 < 2^63, so math.prod takes 171 factors, not
    512."""
    chunks = _trial_chunks.get(d)
    if chunks is None:
        ps = _trial_primes()
        idx = np.flatnonzero((ps % d == 1 % d) | (d % ps == 0))
        chunks = _trial_chunks[d] = []
        for i in range(0, len(idx), 512):
            sel = idx[i : i + 512]
            v = ps[sel]
            n = len(v) - len(v) % 3
            triples = v[0:n:3] * v[1:n:3] * v[2:n:3]
            chunks.append((int(sel[0]), int(sel[-1]) + 1,
                           math.prod(triples.tolist() + v[n:].tolist())))
    return chunks


def _residues(c: int, ps: np.ndarray) -> np.ndarray:
    """c mod p for c >= 0 and each p of the int64 array ps (each p
    < 2**31), by Horner over c's 32-bit limbs from the top one down: each
    partial residue r < p has (r << 32) + limb < 2**63."""
    top = max(c.bit_length() - 1, 0) // 32 * 32
    r = (c >> top) % ps
    for shift in range(top - 32, -1, -32):
        r = ((r << 32) + (c >> shift & 0xFFFFFFFF)) % ps
    return r


def _trial_divide(n: int, d: int = 1) -> tuple[dict[int, int], int]:
    """Split n >= 1, with d = 1 or n a value of Phi_d, into primes {p: e}
    and a cofactor that is 1 or at least TRIAL_LIMIT**2 with no prime
    below TRIAL_LIMIT, by table d, which holds every prime below
    TRIAL_LIMIT that can divide n.

    Division stops at the first chunk whose least prime P has P*P > rem:
    every prime of rem is then at least P, so rem is 1 or prime.  A rem
    left at the end is prime when below TRIAL_LIMIT**2 (two of its primes
    would multiply past that).  A prime rem goes into {p: e}.

    A chunk's gcd g with rem is a product of distinct primes of the
    chunk, each at least P: below P*P it is one prime, and otherwise its
    primes are those p <= g of _sieve_primes[lo:hi] with g mod p = 0,
    read in one numpy pass."""
    fac: dict[int, int] = {}
    rem = n
    for lo, hi, prod in _get_trial_chunks(d):
        least_sq = _sieve_primes[lo] ** 2
        if least_sq > rem:
            break
        g = math.gcd(rem, prod)
        if g == 1:
            continue
        if g < least_sq:
            hits = [g]
        else:
            ps = _trial_primes()[lo : bisect_right(_sieve_primes, g, lo, hi)]
            hits = ps[_residues(g, ps) == 0].tolist()
        for p in hits:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            fac[p] = e
    if 1 < rem < TRIAL_LIMIT ** 2:
        fac[rem] = 1
        rem = 1
    return fac, rem


def _divide_out(n: int, primes) -> tuple[dict[int, int], int]:
    """Split n >= 1 into {p: e} over those of `primes` that divide it and
    the cofactor, by repeated division."""
    fac: dict[int, int] = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            fac[p] = e
    return fac, n


def _pow_mod(base: np.ndarray, exp, p: np.ndarray) -> np.ndarray:
    """base**exp mod p elementwise in int64, for p < 2**31 and exponents
    (an array like p, or one int) >= 0."""
    out = np.ones_like(p)
    base = base % p
    exp = np.array(np.broadcast_to(exp, p.shape))
    while exp.any():
        out = np.where(exp & 1 == 1, out * base % p, out)
        base = base * base % p
        exp >>= 1
    return out


def _sieve_blocks(d: int, qmax: int) -> Iterator[np.ndarray]:
    """The primes p = 1 (mod d) below TRIAL_LIMIT (p <= qmax + 1 for
    d <= 2), none of which divides d, in int64 blocks of about
    _SIEVE_BLOCK candidate q <= qmax per root: p counts qmax // p + 1.
    Each block comes from one slice of the prime table, so no array spans
    all of it."""
    ps = _trial_primes()
    if d <= 2:
        ps = ps[: np.searchsorted(ps, qmax + 1, side="right")]
    # about one prime in phi(d) is 1 (mod d)
    step = _SIEVE_BLOCK * sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
    for i in range(0, len(ps), step):
        p = ps[i : i + step]
        p = p[p % d == 1 % d]
        if len(p):
            load = np.cumsum(qmax // p + 1)
            cuts = np.arange(_SIEVE_BLOCK, load[-1], _SIEVE_BLOCK)
            yield from (b for b in np.split(p, np.searchsorted(load, cuts))
                        if len(b))


def _roots_of_unity(d: int, p: np.ndarray) -> np.ndarray:
    """An element of order d mod p, for each p = 1 (mod d) of the block.

    For d <= 2 that is 1 or -1.  For d >= 3, x = a**((p-1)/d) has order
    dividing d, and exactly d when x**(d/l) != 1 for every prime l | d;
    a = 2, 3, ... is tried until it is."""
    if d <= 2:
        return np.ones_like(p) if d == 1 else p - 1
    ells = [ell for ell in primes_upto(d) if d % ell == 0]
    x = np.zeros_like(p)
    todo = np.arange(len(p))
    for a in count(2):
        pt = p[todo]
        cand = _pow_mod(np.full_like(pt, a), (pt - 1) // d, pt)
        ok = np.ones(len(todo), dtype=bool)
        for ell in ells:
            ok &= _pow_mod(cand, d // ell, pt) != 1
        x[todo[ok]] = cand[ok]
        todo = todo[~ok]
        if not len(todo):
            return x


def _progressions(r: np.ndarray, p: np.ndarray, qmax: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) with q = r + j*p <= qmax, j >= 0, over the pairs (r, p)."""
    low = r <= qmax
    r, p = r[low], p[low]
    reps = (qmax - r) // p + 1
    start = np.cumsum(reps) - reps
    p = np.repeat(p, reps)
    j = np.arange(len(p)) - np.repeat(start, reps)
    return np.repeat(r, reps) + j * p, p


def _root_sieve(d: int, qs: list[int]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The primes p of table d, p not dividing d, that divide Phi_d(q) for
    the q >= 2 of the row qs, as (p, lo, hi): those of qs[i] are
    p[lo[i]:hi[i]], ascending.

    For p not dividing d, p | Phi_d(q) exactly when q has order d mod p,
    that is, when q mod p is a primitive d-th root of unity; such roots
    exist only for p = 1 (mod d), and they are the powers x**k,
    gcd(k, d) = 1, of one of them.  For d <= 2 the one root is 1 or -1,
    and p <= q + 1.  Each root r <= max(qs) marks the q = r + j*p of the
    row.  Primes come a block at a time and roots one power at a time, so
    an array holds about _SIEVE_BLOCK values (or the progression of one
    small p), and hits are kept only for the q of the row."""
    qmax = max(qs)
    in_row = np.zeros(qmax + 1, dtype=bool)
    in_row[list(qs)] = True
    hit_q, hit_p = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for p in _sieve_blocks(d, qmax):
        x = xk = _roots_of_unity(d, p)
        for k in range(1, d + 1):
            if math.gcd(k, d) == 1:
                q, pq = _progressions(xk, p, qmax)
                hit = in_row[q]
                hit_q.append(q[hit])
                hit_p.append(pq[hit])
            xk = xk * x % p
    q, p = np.concatenate(hit_q), np.concatenate(hit_p)
    order = np.lexsort((p, q))
    q = q[order]
    return (p[order], np.searchsorted(q, qs, side="left"),
            np.searchsorted(q, qs, side="right"))


class _RowSieve:
    """Table-d splits of the parts Phi_d(q) of one row of q, from one
    _root_sieve per d over the whole row, run when a part first needs it
    (a part read from the cache needs none)."""

    def __init__(self, qs: list[int]):
        self.qs = qs
        self._hits: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def split(self, i: int, n: int, d: int) -> tuple[dict[int, int], int]:
        """_trial_divide(n, d) for n = Phi_d(qs[i]); the primes dividing d
        are tested directly."""
        hits = self._hits.get(d)
        if hits is None:
            hits = self._hits[d] = _root_sieve(d, self.qs)
        p, lo, hi = hits
        return _divide_out(n, p[lo[i] : hi[i]].tolist()
                           + [ell for ell in primes_upto(d) if d % ell == 0])


def _perfect_power(n: int) -> tuple[int, int]:
    """Return (b, k) with b**k == n and k maximal, or (n, 1).

    Only prime exponents are tried: n is an r-th power for every prime r
    dividing the maximal k, so taking prime roots while one is exact ends
    at the same b and k."""
    b, k = n, 1
    while True:
        for r in primes_upto(b.bit_length() - 1):
            root = iroot(b, r)
            if root ** r == b:
                b, k = root, k * r
                break
        else:
            return b, k


@functools.cache
def _progression_primes(step: int) -> np.ndarray:
    """The primes p = 1 (mod step) in (TRIAL_LIMIT, _CUBE_LIMIT], as int32,
    for step <= 2 * TRIAL_LIMIT, sieved over that progression alone by the
    primes up to its square root (none of which is a term, all terms
    exceeding TRIAL_LIMIT), 8 * _SIEVE_BLOCK terms at a time."""
    start = TRIAL_LIMIT + 1 + (-TRIAL_LIMIT) % step
    terms = (_CUBE_LIMIT - start) // step + 1
    ells = [ell for ell in primes_upto(math.isqrt(_CUBE_LIMIT)) if step % ell]
    # term j, start + j*step, is a multiple of ell exactly when j = j0 (mod ell)
    j0s = [-start * pow(step, -1, ell) % ell for ell in ells]
    out = []
    for lo in range(0, terms, 8 * _SIEVE_BLOCK):
        prime = np.ones(min(8 * _SIEVE_BLOCK, terms - lo), dtype=bool)
        for ell, j0 in zip(ells, j0s):
            prime[(j0 - lo) % ell :: ell] = False
        out.append((start + step * (lo + np.flatnonzero(prime))).astype(np.int32))
    return np.concatenate(out)


def _divides_any(c: int, ps: np.ndarray) -> bool:
    """Whether some p of ps (each < 2**31) divides c, _SIEVE_BLOCK primes
    at a time."""
    return any(
        not _residues(c, ps[i : i + _SIEVE_BLOCK].astype(np.int64)).all()
        for i in range(0, len(ps), _SIEVE_BLOCK))


def _two_primes(c: int, d: int) -> bool:
    """Whether c, a composite cofactor of Phi_d(q) left by table-d trial
    division (1 <= d < TRIAL_LIMIT), is proven a product of two distinct
    primes.

    Each prime p of c exceeds TRIAL_LIMIT > d, so p does not divide d, q
    has order d mod p and p = 1 (mod lcm(2, d)).  When no such p up to
    cbrt(c) divides c, every prime of c exceeds cbrt(c), so c has at most
    two prime factors counted with multiplicity: exactly two, as c is
    composite, and distinct, as c is not a square.  The proof is tried
    only for cbrt(c) <= _CUBE_LIMIT."""
    root = iroot(c, 3)
    if root > _CUBE_LIMIT or math.isqrt(c) ** 2 == c:
        return False
    ps = _progression_primes(math.lcm(2, d))
    return not _divides_any(c, ps[: bisect_right(ps, root)])


def _brent_rho(n: int, k: int, budget: int) -> int:
    """Nontrivial factor of composite odd n by Brent's cycle search on the
    walk y -> y**k + c (mod n), k even.  Mod a prime p with k | p - 1,
    y**k takes (p - 1)/k + 1 values, so the walk meets a repeat about
    sqrt(k - 1) times sooner than with k = 2 (Brent and Pollard,
    Math. Comp. 36, 1981).  Deterministic: constants c = 1, 2, 3, ...
    tried in order from x0 = 2, differences batched 128 at a time before
    each gcd.  The budget counts modular squarings: floor(log2 k) for
    each step whose difference enters a gcd."""
    if n % 2 == 0:
        return 2
    cost = k.bit_length() - 1
    total = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (pow(y, k, n) + c) % n
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(128, r - j)):
                    y = (pow(y, k, n) + c) % n
                    q = q * (x - y) % n
                total += min(128, r - j) * cost
                if total > budget:
                    raise FactorBudgetExceeded(f"rho budget exhausted on {n}")
                g = math.gcd(q, n)
                j += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (pow(ys, k, n) + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # cycle collapsed for this c; retry with the next constant


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization,
    factors sorted by prime."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be sorted with exponents >= 1")
            prev = p
            prod *= p ** e
        if prod != self.value or self.value < 1:
            raise ValueError(f"factorization does not recompose to {self.value}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def radical(self) -> int:
        return math.prod(self.primes)

    def radical_factored(self) -> "FactoredInteger":
        return FactoredInteger(self.radical(), tuple((p, 1) for p in self.primes))

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def factored(n: int, factors) -> FactoredInteger:
    """Build a FactoredInteger from a known factor list (validated)."""
    return FactoredInteger(n, tuple(sorted((int(p), int(e)) for p, e in factors)))


def factor(n: int, *, cache: "FactorCache | None" = None,
           budget: int = DEFAULT_FACTOR_BUDGET) -> FactoredInteger:
    """Complete prime factorization of n >= 1."""
    if n < 1:
        raise ValueError("factor() needs a positive integer")
    return _finish_part(n, 1, *_split_part(n, 1, cache), cache, budget)


def _take_apart(c: int, d: int, budget: int) -> list[int]:
    """Factors > 1 of a composite c multiplying to c: b, k times, for the
    perfect power c = b**k, else the two of a Brent rho split.  c divides
    a cofactor of Phi_d(q) (d = 1: of any n), so for d < TRIAL_LIMIT each
    prime p of c is 1 (mod lcm(2, d)), as in _two_primes, and rho walks
    y**lcm(2, d) + c, whose exponent divides p - 1."""
    b, k = _perfect_power(c)
    if k > 1:
        return [b] * k
    f = _brent_rho(c, math.lcm(2, d), budget)
    return [f, c // f]


def _cache_part(n: int, fac: dict[int, int], cache: "FactorCache | None"
                ) -> FactoredInteger:
    """The whole factorization {p: e} of n, cached."""
    result = factored(n, fac.items())
    if cache is not None:
        cache.put(n, result.factors)
    return result


def _finish_part(n: int, d: int, fac: dict[int, int], rem: int,
                 cache: "FactorCache | None", budget: int, *,
                 composite: bool = False) -> FactoredInteger:
    """The factorization of n, a value of Phi_d if d > 1, from its split
    ({p: e}, cofactor) by _split_part: a cofactor is proven prime or
    taken apart by perfect powers and Brent rho (its first test is
    skipped when `composite` says it failed already), and the result is
    cached."""
    if rem == 1:
        return factored(n, fac.items())
    fac = dict(fac)
    stack = _take_apart(rem, d, budget) if composite else [rem]
    while stack:
        c = stack.pop()
        if _is_prime_cofactor(c):
            fac[c] = fac.get(c, 0) + 1
        else:
            stack.extend(_take_apart(c, d, budget))
    return _cache_part(n, fac, cache)


def _split_part(n: int, d: int, cache: "FactorCache | None",
                divide=None) -> tuple[dict[int, int], int]:
    """Split n >= 1 (a value of Phi_d if d > 1) into {p: e} and a cofactor,
    from the cache or by trial division by table d (or `divide(n, d)`, a
    root sieve's split).  The cofactor is 1 or at least TRIAL_LIMIT**2,
    and it is not tested: it may be prime, and whoever reads its primes
    proves it (_finish_part, _exact_omega).  A cofactor below
    TRIAL_LIMIT**2, which a root sieve's split can leave, is prime
    untested (_is_prime_cofactor), so it goes into {p: e}; a split with
    cofactor 1 is the whole factorization, and it is cached."""
    if n == 1:
        return {}, 1
    hit = cache.get(n) if cache is not None else None
    if hit is not None:
        return dict(hit), 1
    fac, rem = (_trial_divide if divide is None else divide)(n, d)
    if rem >= TRIAL_LIMIT ** 2:
        return fac, rem
    if rem > 1:
        fac[rem] = 1
    _cache_part(n, fac, cache)
    return fac, 1


def _divisors_of(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@functools.cache
def _cyclotomic_exponents(d: int) -> tuple[tuple[int, int], ...]:
    """(d // s, mu(s)) over the squarefree divisors s of d."""
    return tuple((d // s.value, moebius(s)) for s in squarefree_divisors(factor(d)))


def cyclotomic_value(d: int, q: int) -> int:
    """Phi_d(q), the d-th cyclotomic polynomial at q, via the Moebius
    product Phi_d(q) = prod over squarefree s | d of (q^(d/s) - 1)^mu(s),
    from one factorization of d.  Exact division."""
    num = 1
    den = 1
    for e, mu in _cyclotomic_exponents(d):
        if mu == 1:
            num *= q ** e - 1
        else:
            den *= q ** e - 1
    assert num % den == 0
    return num // den


def _split_parts(q: int, ds: list[int], cache: "FactorCache | None",
                 divide=None
                 ) -> Iterator[tuple[int, int, dict[int, int], int]]:
    """(Phi_d(q), d, {p: e}, cofactor) for each part of q**m - 1 =
    prod_{d|m} Phi_d(q), over ds = _divisors_of(m) (ascending), each split
    by _split_part when it is reached, so cache reads and writes keep the
    order of the parts."""
    for d in ds:
        part = cyclotomic_value(d, q)
        yield (part, d, *_split_part(part, d, cache, divide))


def factor_qm_minus_1(q: int, m: int, *, cache: "FactorCache | None" = None,
                      budget: int = DEFAULT_FACTOR_BUDGET) -> FactoredInteger:
    """Factor q**m - 1 through its cyclotomic splitting
    q^m - 1 = prod_{d|m} Phi_d(q); each part is much smaller than the
    whole, and parts recur across m (Phi_1(q) = q - 1 for every m).  Each
    part is finished before the next is split."""
    if m < 1:
        raise ValueError("m must be positive")
    fac: dict[int, int] = {}
    for part, d, pf, rem in _split_parts(q, _divisors_of(m), cache):
        for p, e in _finish_part(part, d, pf, rem, cache, budget).factors:
            fac[p] = fac.get(p, 0) + e
    return factored(q ** m - 1, fac.items())


def _exact_omega(parts, cache: "FactorCache | None",
                 budget: int = DEFAULT_FACTOR_BUDGET) -> int:
    """omega(q**m - 1) from the splits of its parts: a cofactor is tested
    once, and a prime one counts 1 (and its part is cached); a composite
    one counts 2 when _two_primes proves it, and any other part is
    finished alone.  Counts add, since cofactor primes of different parts
    are distinct (see omega_bounds_row)."""
    primes: set[int] = set()
    pairs = 0
    for part, d, fac, rem in parts:
        if rem > 1 and _is_prime_cofactor(rem):
            fac = {**fac, rem: 1}
            _cache_part(part, fac, cache)
        elif rem > 1 and _two_primes(rem, d):
            pairs += 1
        elif rem > 1:
            fac = dict(_finish_part(part, d, fac, rem, cache, budget,
                                    composite=True).factors)
        primes.update(fac)
    return len(primes) + 2 * pairs


def omega_bounds_row(qs: list[int], m: int, *,
                     cache: "FactorCache | None" = None
                     ) -> Iterator[tuple[int, int, Callable[..., int]]]:
    """(lo, hi, exact) with lo <= omega(q**m - 1) <= hi for each q >= 2 of
    the row qs in turn, yielded lazily, so the cache reads and writes of
    each q happen before the caller acts on its bracket; exact(budget)
    finds omega(q**m - 1) from the split the bracket was read from,
    splitting no part again.

    Each part Phi_d(q), d | m, is read from the cache or split by table d,
    which holds every prime below TRIAL_LIMIT that can divide it: for p not
    dividing d, p | Phi_d(q) exactly when q has order d mod p, so d | p - 1.
    A row of at least _ROW_SIEVE_MIN q finds these primes for all its parts
    at once by a root sieve: p = 1 (mod d) divides Phi_d(q) when q mod p is
    a primitive d-th root of unity (the same criterion), and the primes
    dividing d are tested directly, so it finds the same primes as table d,
    each exponent by repeated division.  A shorter row trial-divides each
    part, cheaper there than finding the roots.  Each prime of a cofactor
    exceeds TRIAL_LIMIT, so one below TRIAL_LIMIT**2 is prime untested and
    makes the part exact (and the part is cached).  A larger cofactor c is
    not tested here, prime or not: it has at least 1 and at most k
    distinct primes, k the largest with TRIAL_LIMIT**k < c, and the
    bracket counts it so.  exact proves c prime first (and caches the
    part), counts a composite c as 2 when no prime up to cbrt(c) divides
    it and c is not a square (the cube-root argument of _two_primes), and
    otherwise factors that part alone by Pollard rho and caches it.

    Primes are unioned across parts and cofactor counts add.  This is
    sound because a prime dividing Phi_d(q) and Phi_e(q) for d != e must
    divide m: with d0 the order of q mod p, p | Phi_d(q) only for
    d = d0 * p**j, j >= 0, so one of d, e is a multiple of p.  As
    m < TRIAL_LIMIT, a shared prime is in the table of each part it
    divides, so the split finds it, never two cofactors."""
    if not 1 <= m < TRIAL_LIMIT:
        raise ValueError("omega bounds need 1 <= m < TRIAL_LIMIT")
    sieve = _RowSieve(qs) if len(qs) >= _ROW_SIEVE_MIN else None
    ds = _divisors_of(m)
    for i, q in enumerate(qs):
        divide = None if sieve is None else functools.partial(sieve.split, i)
        parts = list(_split_parts(q, ds, cache, divide))
        primes: set[int] = set()
        lo = hi = 0  # distinct primes inside the composite cofactors
        for _, _, fac, rem in parts:
            primes.update(fac)
            if rem > 1:
                k = 1
                while TRIAL_LIMIT ** (k + 1) < rem:
                    k += 1
                lo += 1
                hi += k
        yield (len(primes) + lo, len(primes) + hi,
               functools.partial(_exact_omega, parts, cache))


# ---------------------------------------------------------------------------
# multiplicative functions on factored integers

def omega(f: FactoredInteger) -> int:
    return len(f.factors)


def squarefree_divisor_count(f: FactoredInteger) -> int:
    """Number of squarefree divisors, 2**omega; the W of the main
    inequality."""
    return 1 << len(f.factors)


def euler_phi(f: FactoredInteger) -> int:
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(f: FactoredInteger) -> int:
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def squarefree_divisors(f: FactoredInteger) -> list[FactoredInteger]:
    """All 2**omega squarefree divisors, sorted ascending by value."""
    divs = [FactoredInteger(1, ())]
    for p, _ in f.factors:
        divs += [factored(d.value * p, d.factors + ((p, 1),)) for d in divs]
    return sorted(divs, key=lambda d: d.value)


# ---------------------------------------------------------------------------
# integer roots and prime powers

def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) computed exactly (Newton on integers)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if k == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime; ValueError when q is not a prime
    power."""
    if q >= 2:
        b, k = _perfect_power(q)
        if is_probable_prime(b):
            return b, k
    raise ValueError(f"q = {q} is not a prime power")


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers p^j <= limit (j >= 1), ascending."""
    if limit < 2:
        return []
    out = []
    for p in primes_upto(limit):
        v = p
        while v <= limit:
            out.append(v)
            v *= p
    return sorted(out)


# ---------------------------------------------------------------------------
# exact decimal rendering for table comparisons

def decimal_lower(x: Fraction, places: int = 10) -> str:
    """x rounded toward zero to `places` decimal digits.  The reference
    tables' "delta >" columns truncate, so each stored value is a lower
    bound exactly when it is <= this rendering."""
    if x < 0:
        return "-" + decimal_upper(-x, places)
    shift = 10 ** places
    whole, frac = divmod(x.numerator * shift // x.denominator, shift)
    return f"{whole}.{frac:0{places}d}"


def decimal_upper(x: Fraction, places: int = 10) -> str:
    """x rounded away from zero to `places` digits (upper bound rendering,
    the "Delta <" columns)."""
    if x < 0:
        return "-" + decimal_lower(-x, places)
    shift = 10 ** places
    scaled = -(-x.numerator * shift // x.denominator)  # ceil
    whole, frac = divmod(scaled, shift)
    return f"{whole}.{frac:0{places}d}"


# ---------------------------------------------------------------------------
# factorization cache

class FactorCache:
    """JSON file mapping decimal integer strings to factor lists.  Loaded
    lazily; writes go through a temp file + os.replace so a crash cannot
    leave a torn file.  Entries are checked on first read, so a corrupt or
    hostile file can only cause misses."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._data: dict[str, list[list[int]]] | None = None
        self._valid: dict[int, tuple[tuple[int, int], ...]] = {}
        self._dirty = False

    def _load(self) -> dict[str, list[list[int]]]:
        if self._data is None:
            try:
                with open(self.path) as fh:
                    self._data = json.load(fh)
            except (OSError, ValueError, RecursionError):
                self._data = {}
            if not isinstance(self._data, dict):
                self._data = {}
        return self._data

    def get(self, n: int):
        """The factors of n as sorted (p, e) pairs, or None.  An entry
        that is malformed, lists a non-prime or does not recompose to n
        counts as a miss."""
        if n in self._valid:
            return self._valid[n]
        entry = self._load().get(str(n))
        if entry is None:
            return None
        try:
            pairs = [(p, e) for p, e in entry]
            if not all(type(p) is int and type(e) is int and 1 < p <= n
                       and 0 < e and (p.bit_length() - 1) * e < n.bit_length()
                       and is_probable_prime(p) for p, e in pairs):
                return None
            factors = factored(n, pairs).factors
        except (TypeError, ValueError):
            return None
        self._valid[n] = factors
        return factors

    def put(self, n: int, factors) -> None:
        self._load()[str(n)] = [[p, e] for p, e in factors]
        self._valid[n] = tuple(factors)
        self._dirty = True

    def save(self) -> None:
        if not self._dirty or self._data is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # the bytes of json.dump, which always takes the pure-Python
                # encoder: the C encoder of json.dumps, a slice at a time
                entries = iter(self._data.items())
                fh.write("{")
                sep = ""
                while part := dict(islice(entries, 512)):
                    fh.write(sep + json.dumps(part)[1:-1])
                    sep = ", "
                fh.write("}")
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False
