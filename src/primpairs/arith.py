"""Exact integer arithmetic: factorization, multiplicative functions, primes.

Everything here is deterministic.  Factoring trial-divides by the primes
below 10**6 that can divide the number (p = 1 mod d or p | d for a part
Phi_d(q) of q**m - 1) behind prime-product gcds, then runs Brent's Pollard
rho with a fixed parameter sequence.  Primality is Miller-Rabin with the
deterministic 12-witness set below 2**64 and fixed prime witnesses above.

The quantities of interest downstream are the group orders q**m - 1 and
their derived multiplicative functions: omega (distinct prime count),
W = 2**omega (squarefree divisor count), phi and mu.  Where only W
matters, `omega_bounds_qm_minus_1` brackets omega(q**m - 1) by trial
division alone, so Pollard rho runs only when the bracket is not enough.
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
from itertools import count
from pathlib import Path

import numpy as np

TRIAL_LIMIT = 10 ** 6
DEFAULT_FACTOR_BUDGET = 50_000_000  # Pollard rho iterations per factor() call


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

_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin.  Deterministic below 2**64 (first-12-prime witness
    set); above that, the first `rounds` primes serve as witnesses, which
    keeps results reproducible."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES_64 if n < 2 ** 64 else tuple(nth_primes(rounds))
    for a in witnesses:
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


# ---------------------------------------------------------------------------
# factoring

_trial_chunks: dict[int, list[tuple[int, int, int]]] = {}


@functools.cache
def _trial_primes() -> np.ndarray:
    return np.array(primes_upto(TRIAL_LIMIT), dtype=np.int32)


def _get_trial_chunks(d: int) -> list[tuple[int, int, int]]:
    """Table d, built on first use: the primes below TRIAL_LIMIT that can
    divide a value of Phi_d, p = 1 (mod d) or p | d (all primes for d <= 2),
    as (lo, hi, product) of ~512 of them, all in _sieve_primes[lo:hi]."""
    chunks = _trial_chunks.get(d)
    if chunks is None:
        ps = _trial_primes()
        idx = np.flatnonzero((ps % d == 1 % d) | (d % ps == 0))
        chunks = _trial_chunks[d] = [
            (int(sel[0]), int(sel[-1]) + 1, math.prod(ps[sel].tolist()))
            for sel in (idx[i : i + 512] for i in range(0, len(idx), 512))]
    return chunks


def _trial_divide(n: int, d: int = 1) -> tuple[dict[int, int], int]:
    """Split n >= 1 into {p: e} over its primes in table d and a cofactor,
    whose primes all exceed TRIAL_LIMIT if d = 1 or n is a value of Phi_d."""
    fac: dict[int, int] = {}
    rem = n
    for lo, hi, prod in _get_trial_chunks(d):
        if rem == 1:
            break
        g = math.gcd(rem, prod)
        if g == 1:
            continue
        for p in _sieve_primes[lo:hi]:
            if g % p == 0:
                e = 0
                while rem % p == 0:
                    rem //= p
                    e += 1
                fac[p] = e
                g //= p
                if g == 1:
                    break
    return fac, rem


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


def _brent_rho(n: int, budget: int) -> int:
    """Nontrivial factor of composite odd n.  Deterministic: constants
    c = 1, 2, 3, ... tried in order from x0 = 2, differences batched 128
    at a time before each gcd."""
    if n % 2 == 0:
        return 2
    total = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                total += min(128, r - k)
                if total > budget:
                    raise FactorBudgetExceeded(f"rho budget exhausted on {n}")
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
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


def merge_factored(a: FactoredInteger, b: FactoredInteger) -> FactoredInteger:
    fac: dict[int, int] = dict(a.factors)
    for p, e in b.factors:
        fac[p] = fac.get(p, 0) + e
    return factored(a.value * b.value, fac.items())


def factor(n: int, *, cache: "FactorCache | None" = None,
           budget: int = DEFAULT_FACTOR_BUDGET) -> FactoredInteger:
    """Complete prime factorization of n >= 1."""
    return _factor_part(n, 1, cache, budget)


def _factor_part(n: int, d: int, cache: "FactorCache | None",
                 budget: int) -> FactoredInteger:
    """factor(n), trial-dividing by table d (n a value of Phi_d if d > 1)."""
    if n < 1:
        raise ValueError("factor() needs a positive integer")
    if n == 1:
        return FactoredInteger(1, ())
    fac, rem = _split_part(n, d, cache)
    if rem == 1:
        return factored(n, fac.items())
    stack = [rem]
    while stack:
        c = stack.pop()
        if is_probable_prime(c):
            fac[c] = fac.get(c, 0) + 1
            continue
        b, k = _perfect_power(c)
        if k > 1:
            stack.extend([b] * k)
            continue
        f = _brent_rho(c, budget)
        stack.append(f)
        stack.append(c // f)

    result = factored(n, fac.items())
    if cache is not None:
        cache.put(n, result.factors)
    return result


def _split_part(n: int, d: int, cache: "FactorCache | None"
                ) -> tuple[dict[int, int], int]:
    """Split n >= 1 (a value of Phi_d if d > 1) into {p: e} and a cofactor
    that is 1 or composite, from the cache or by trial division by table d
    and a primality test on what is left.  A split with no composite
    cofactor is the whole factorization, and it is cached."""
    hit = cache.get(n) if cache is not None else None
    if hit is not None:
        return dict(hit), 1
    fac, rem = _trial_divide(n, d)
    if rem > 1 and not is_probable_prime(rem):
        return fac, rem
    if rem > 1:
        fac[rem] = 1
    if cache is not None and n > 1:
        cache.put(n, factored(n, fac.items()).factors)
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


def factor_qm_minus_1(q: int, m: int, *, cache: "FactorCache | None" = None,
                      budget: int = DEFAULT_FACTOR_BUDGET) -> FactoredInteger:
    """Factor q**m - 1 through its cyclotomic splitting
    q^m - 1 = prod_{d|m} Phi_d(q); each part is much smaller than the
    whole, and parts recur across m (Phi_1(q) = q - 1 for every m)."""
    out = FactoredInteger(1, ())
    for d in _divisors_of(m):
        out = merge_factored(out, _factor_part(cyclotomic_value(d, q), d, cache, budget))
    assert out.value == q ** m - 1
    return out


def omega_bounds_qm_minus_1(q: int, m: int, *,
                            cache: "FactorCache | None" = None) -> tuple[int, int]:
    """(lo, hi) with lo <= omega(q**m - 1) <= hi, from trial division alone.

    Each part Phi_d(q), d | m, is read from the cache or trial-divided by
    table d, which holds every prime below TRIAL_LIMIT that can divide it
    (for p not dividing d, q has order d mod p, so d | p - 1).  A cofactor
    that is 1 or passes is_probable_prime makes the part exact (and the
    part is cached); a composite cofactor c has at least 1 and at most k
    distinct primes, k the largest with TRIAL_LIMIT**k < c, since each of
    them exceeds TRIAL_LIMIT.

    Primes are unioned across parts and cofactor counts add.  This is
    sound because a prime dividing Phi_d(q) and Phi_e(q) for d != e must
    divide m: with d0 the order of q mod p, p | Phi_d(q) only for
    d = d0 * p**j, j >= 0, so one of d, e is a multiple of p.  As
    m < TRIAL_LIMIT, a shared prime is in the table of each part it
    divides, so trial division finds it, never two cofactors."""
    if not 1 <= m < TRIAL_LIMIT:
        raise ValueError("omega bounds need 1 <= m < TRIAL_LIMIT")
    primes: set[int] = set()
    lo = hi = 0  # distinct primes inside the composite cofactors
    for d in _divisors_of(m):
        fac, rem = _split_part(cyclotomic_value(d, q), d, cache)
        primes.update(fac)
        if rem > 1:
            k = 1
            while TRIAL_LIMIT ** (k + 1) < rem:
                k += 1
            lo += 1
            hi += k
    return len(primes) + lo, len(primes) + hi


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
        divs += [merge_factored(d, FactoredInteger(p, ((p, 1),))) for d in divs]
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
            except (OSError, ValueError):
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

    def __len__(self) -> int:
        return len(self._load())

    def save(self) -> None:
        if not self._dirty or self._data is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._data, fh)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False
