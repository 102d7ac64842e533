"""Explicit finite fields F_{q^m} over F_q = F_{p^k}, as a two-step tower.

F_q is itself a FieldCtx over F_p (F_p directly when k = 1), so one class
serves every level of the tower.  Elements are integer codes in [0, q^m):
read the code in base q to get the coefficient vector over F_q (low degree
first), and each F_q coefficient in base p to get its coefficient vector over
F_p.  Because q = p^k these two readings agree with plain base-p digits of
the code, which makes addition a digitwise mod-p operation in every field of
the tower: FieldCtx.add, neg and sub take codes or numpy code arrays alike,
compute the digits on the fly (XOR in characteristic 2), and need no table.

Defining polynomials are the canonically least monic irreducibles: candidates
are ordered by the integer formed from their coefficient tuple
(c_0, c_1, ..., c_{d-1}) with c_0 most significant, i.e. the constant term is
compared first.  The generator is the code-smallest primitive element.  Both
choices make contexts reproducible across runs and machines.

Fields with at most `dlog_limit` elements additionally carry numpy tables
(powers of the generator, discrete logs, Frobenius, trace, inverses) that the
character-sum and brute-force layers index directly.  There is no digit
table.

With tables, a monic quadratic x^2 + c1 x + c0 is irreducible exactly when it
has no root (Lidl-Niederreiter, Finite Fields, ch. 3): for odd q when its
discriminant c1^2 - 4 c0 is a nonsquare, i.e. has odd dlog; in characteristic
2 when c1 != 0 and Tr_{F/F_2}(c0 / c1^2) = 1 (Artin-Schreier, after the
substitution x = c1 y).  No table of quadratics is kept.
"""

from __future__ import annotations

import numpy as np

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactoredInteger,
    factor,
    factor_qm_minus_1,
    is_probable_prime,
)

DLOG_LIMIT = 1 << 22


class _PoleType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "POLE"


POLE = _PoleType()


# ---------------------------------------------------------------------------
# polynomial helpers over any field-like object
#
# A "field-like" exposes: card (element count) and code-level add, sub, mul,
# neg, inv.  Polynomials are tuples of codes, lowest degree first, with no
# trailing zeros (the zero polynomial is the empty tuple).

def poly_trim(cs) -> tuple:
    cs = tuple(cs)
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def poly_add(F, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


def poly_neg(F, a) -> tuple:
    return tuple(F.neg(c) for c in a)


def poly_sub(F, a, b) -> tuple:
    return poly_add(F, a, poly_neg(F, b))


def poly_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return poly_trim(out)


def poly_mod(F, a, b) -> tuple:
    """Remainder of a modulo b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial modulus is zero")
    inv_lead = F.inv(b[-1])
    db = len(b) - 1
    rem = list(a)
    while len(rem) > db:
        lead = rem[-1]
        if lead:
            fac = F.mul(lead, inv_lead)
            off = len(rem) - 1 - db
            for i, c in enumerate(b[:-1]):
                if c:
                    rem[off + i] = F.sub(rem[off + i], F.mul(fac, c))
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) > db:
            rem.pop()
    return poly_trim(rem)


def poly_gcd(F, a, b) -> tuple:
    while b:
        a, b = b, poly_mod(F, a, b)
    if a:
        inv_lead = F.inv(a[-1])
        a = tuple(F.mul(c, inv_lead) for c in a)
    return a


def poly_eval(F, cs, x):
    acc = 0
    for c in reversed(cs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_from_index(d: int, n: int, Q: int) -> tuple:
    """n-th monic degree-d polynomial in canonical order: n's base-Q digits,
    most significant digit = constant term."""
    coeffs = []
    for i in range(d - 1, -1, -1):
        coeffs.append((n // Q ** i) % Q)
    return tuple(coeffs) + (1,)


def poly_index(cs, Q: int) -> int:
    """Inverse of poly_from_index for monic cs."""
    d = len(cs) - 1
    return sum(c * Q ** (d - 1 - i) for i, c in enumerate(cs[:-1]))


def _frobenius_power(F, Q: int, base: tuple, e: int, modulus: tuple) -> tuple:
    """base^(Q^e) mod modulus via e repeated Q-th powers."""
    t = base
    for _ in range(e):
        t = _poly_pow_mod(F, t, Q, modulus)
    return t


def _poly_pow_mod(F, base: tuple, e: int, modulus: tuple) -> tuple:
    result = (1,)
    base = poly_mod(F, base, modulus)
    while e:
        if e & 1:
            result = poly_mod(F, poly_mul(F, result, base), modulus)
        base = poly_mod(F, poly_mul(F, base, base), modulus)
        e >>= 1
    return result


def is_irreducible_poly(F, cs) -> bool:
    """Irreducibility of monic cs over the field-like F with Q elements.
    Uses the Frobenius criterion: x^(Q^d) = x mod cs and, for each prime
    r | d, gcd(x^(Q^(d/r)) - x, cs) = 1."""
    d = len(cs) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if cs[0] == 0:
        return False  # root at 0
    Q = F.card
    x = (0, 1)
    full = _frobenius_power(F, Q, x, d, cs)
    if full != poly_mod(F, x, cs):
        return False
    for r in {p for p, _ in factor(d).factors}:
        t = _frobenius_power(F, Q, x, d // r, cs)
        if poly_gcd(F, poly_sub(F, t, x), cs) != (1,):
            return False
    return True


def first_irreducible(F, d: int) -> tuple:
    """Canonically least monic irreducible of degree d over F."""
    Q = F.card
    # zero constant term means a root at 0, so for d >= 2 skip that whole
    # leading block of the canonical order
    start = 0 if d == 1 else Q ** (d - 1)
    for n in range(start, Q ** d):
        cand = poly_from_index(d, n, Q)
        if is_irreducible_poly(F, cand):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# the prime field, the base of every tower

class _PrimeField:
    """F_p with codes 0..p-1."""

    def __init__(self, p: int):
        self.p = p
        self.k = 1
        self.q = p
        self.card = p
        self.poly = None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


# ---------------------------------------------------------------------------
# the big field

class FieldCtx:
    """F_{q^m} = F_q[y]/(defining_poly), q = p^k.

    The subfield F_q is _PrimeField(p) when k = 1 and FieldCtx(p, 1, k)
    otherwise, so the same class builds every level of the tower.

    add/sub/neg work on integer codes and numpy code arrays alike, with no
    table.  The other code-level methods (mul/inv/pow_, frobenius, trace_q)
    take integer codes and are table-backed when the field is small enough;
    varr_mul and varr_inv operate on numpy code arrays and require the
    tables.
    """

    def __init__(self, p: int, k: int, m: int, *, dlog_limit: int = DLOG_LIMIT,
                 cache=None, factor_budget: int = DEFAULT_FACTOR_BUDGET):
        if not is_probable_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        self.p = p
        self.k = k
        self.m = m
        self.q = p ** k
        self.N = self.q ** m
        self.card = self.N
        self.order = self.N - 1
        if k == 1:
            self.subfield = _PrimeField(p)
        else:
            self.subfield = FieldCtx(p, 1, k, dlog_limit=dlog_limit,
                                     cache=cache, factor_budget=factor_budget)
        self.poly = first_irreducible(self.subfield, m)
        self.group_factors: FactoredInteger = factor_qm_minus_1(
            self.q, m, cache=cache, budget=factor_budget)

        self.exp = None
        self.dlog = None
        self.frob_t = None
        self.trace_t = None
        self.inv_t = None
        self.trace_abs_t = None
        self._unity = None

        self.generator = self._find_generator_scalar()
        if self.N <= dlog_limit:
            self._build_tables()

    # -- code <-> coefficient vectors over F_q

    def decode(self, code: int) -> tuple:
        q = self.q
        return tuple((code // q ** i) % q for i in range(self.m))

    def encode(self, coeffs) -> int:
        return sum(int(c) * self.q ** i for i, c in enumerate(coeffs))

    # -- digit-wise arithmetic on codes or code arrays

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        # (a // w + b // w) % p is the sum of the two digits of weight w:
        # the higher digits only add multiples of p
        p, out, w = self.p, 0, 1
        for _ in range(self.k * self.m):
            out = out + (a // w + b // w) % p * w
            w *= p
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        p, out, w = self.p, 0, 1
        for _ in range(self.k * self.m):
            out = out + -(a // w) % p * w
            w *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # -- multiplicative arithmetic on codes

    def _mul_poly(self, a: int, b: int) -> int:
        F = self.subfield
        prod = poly_mul(F, self.decode(a), self.decode(b))
        return self.encode(poly_mod(F, prod, self.poly)) if prod else 0

    def mul(self, a: int, b: int) -> int:
        if self.dlog is not None:
            if a == 0 or b == 0:
                return 0
            e = (int(self.dlog[a]) + int(self.dlog[b])) % self.order
            return int(self.exp[e])
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.inv_t is not None:
            return int(self.inv_t[a])
        return self.pow_(a, self.order - 1)

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            return 0
        e %= self.order
        if self.dlog is not None:
            return int(self.exp[int(self.dlog[a]) * e % self.order])
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def frobenius(self, a: int) -> int:
        if self.frob_t is not None:
            return int(self.frob_t[a])
        return self.pow_(a, self.q)

    def trace_q(self, a: int) -> int:
        """Tr_{F_{q^m}/F_q} as a code < q."""
        if self.trace_t is not None:
            return int(self.trace_t[a])
        acc = a
        for _ in range(self.m - 1):
            a = self.frobenius(a)
            acc = self.add(acc, a)
        assert acc < self.q, "trace left the base field"
        return acc

    # -- primitivity / u-freeness on codes

    def is_primitive_code(self, a: int) -> bool:
        return self.is_u_free_code(a, self.order)

    def is_u_free_code(self, a: int, u: int) -> bool:
        if a == 0:
            raise ValueError("0 is not in the multiplicative group")
        if u < 1 or self.order % u != 0:
            raise ValueError(f"u = {u} does not divide the group order")
        return all(self.pow_(a, self.order // r) != 1
                   for r in self.group_factors.primes if u % r == 0)

    # -- construction internals

    def _find_generator_scalar(self) -> int:
        if self.order == 1:
            return 1
        # codes < q are F_q constants with order dividing q-1; they can only
        # generate when m == 1
        start = 2 if self.m == 1 else self.q
        return next(c for c in range(start, self.N) if self.is_primitive_code(c))

    def _build_tables(self):
        N, p, km = self.N, self.p, self.k * self.m
        weights = p ** np.arange(km, dtype=np.int64)

        # multiplication by the generator is F_p-linear; its matrix columns
        # are g * (basis element p^t)
        g = self.generator
        M = np.empty((km, km), dtype=np.int64)
        for t in range(km):
            prod = self._mul_poly(g, p ** t)
            M[:, t] = [(prod // p ** s) % p for s in range(km)]
        perm = np.empty(N, dtype=np.int64)
        step = 1 << 16
        for lo in range(0, N, step):
            block = np.arange(lo, min(lo + step, N), dtype=np.int64)
            digits = block[:, None] // weights % p
            perm[lo:lo + len(block)] = digits @ M.T % p @ weights

        # orbit of 1 under multiplication by g, filled by permutation doubling
        n1 = N - 1
        exp = np.empty(n1, dtype=np.int64)
        exp[0] = 1
        filled = 1
        perm_pow = perm  # perm composed 2^j times
        while filled < n1:
            take = min(filled, n1 - filled)
            exp[filled:filled + take] = perm_pow[exp[:take]]
            filled += take
            if filled < n1:
                perm_pow = perm_pow[perm_pow]
        self.exp = exp

        dlog = np.full(N, -1, dtype=np.int64)
        dlog[exp] = np.arange(n1, dtype=np.int64)
        if (dlog[1:] < 0).any():
            raise RuntimeError("generator orbit did not cover the group")
        self.dlog = dlog

        self.frob_t = np.zeros(N, dtype=np.int64)
        self.frob_t[exp] = exp[(np.arange(n1, dtype=np.int64) * self.q) % n1]

        self.inv_t = np.zeros(N, dtype=np.int64)
        self.inv_t[exp] = exp[(-np.arange(n1, dtype=np.int64)) % n1]

        acc = cur = np.arange(N, dtype=np.int64)
        for _ in range(self.m - 1):
            cur = self.frob_t[cur]
            acc = self.add(acc, cur)
        if (acc >= self.q).any():
            raise RuntimeError("trace left the base field")
        self.trace_t = acc
        if self.k == 1:
            self.trace_abs_t = np.arange(self.p, dtype=np.int64)
        else:
            self.trace_abs_t = self.subfield.trace_t

    # -- array arithmetic (requires tables)

    def _need_tables(self):
        if self.dlog is None:
            raise RuntimeError(
                f"field with {self.N} elements exceeds the dlog table limit")

    def varr_mul(self, a, b):
        self._need_tables()
        out = self.exp[(self.dlog[a] + self.dlog[b]) % self.order]
        return np.where((a == 0) | (b == 0), 0, out)

    def varr_inv(self, a):
        self._need_tables()
        return self.inv_t[a]

    def unity_roots(self):
        """e^(2 pi i k / (N-1)) for k = 0..N-2, indexed by discrete log."""
        if self._unity is None:
            n1 = self.order
            self._unity = np.exp(2j * np.pi * np.arange(n1) / n1)
        return self._unity

    # -- irreducible quadratics

    def quad_reducible_mask(self, c0, c1):
        """True where x^2 + c1 x + c0 splits over this field (code arrays or
        scalars, broadcast together).  Odd q: the discriminant c1^2 - 4 c0
        is 0 or has even dlog.  Characteristic 2: c1 = 0, or
        Tr_{F/F_2}(c0 / c1^2) = 0; with inv(0) = 0 the first case is the
        trace of 0."""
        self._need_tables()
        if self.p == 2:
            t = self.varr_mul(c0, self.varr_inv(self.varr_mul(c1, c1)))
            return self.trace_abs_t[self.trace_t[t]] == 0
        disc = self.add(self.varr_mul(c1, c1),
                        self.varr_mul((-4) % self.p, c0))
        return (disc == 0) | (self.dlog[disc] % 2 == 0)

    # -- serialization

    def describe(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "m": self.m,
            "subfield_poly": list(self.subfield.poly) if self.subfield.poly else None,
            "poly": list(self.poly),
            "generator": self.generator,
            "group_order": self.order,
            "group_factors": [[p, e] for p, e in self.group_factors.factors],
        }

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, k={self.k}, m={self.m})"


def build_ctx(p: int, k: int, m: int, *, dlog_limit: int = DLOG_LIMIT,
              cache=None, factor_budget: int = DEFAULT_FACTOR_BUDGET
              ) -> FieldCtx:
    """Deterministic field context for F_{(p^k)^m}."""
    return FieldCtx(p, k, m, dlog_limit=dlog_limit, cache=cache,
                    factor_budget=factor_budget)


# ---------------------------------------------------------------------------
# rational functions

class RationalFunction:
    """c * p(x) / q(x) with p, q monic irreducible over F_{q^m}, q(x) monic,
    and the scale c absorbed into the stored numerator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldCtx, num, den, *, check: bool = True):
        num = poly_trim(num)
        den = poly_trim(den)
        if not num or not den:
            raise ValueError("numerator and denominator must be nonzero")
        if den[-1] != 1:
            raise ValueError("denominator must be monic")
        self.ctx = ctx
        self.num = num
        self.den = den
        if check:
            self._validate()

    def _validate(self):
        ctx = self.ctx
        n1, n2 = self.degrees
        if n1 == 0 and n2 == 0:
            raise ValueError("degenerate rational function (0,0)")
        monic_num = self.monic_num
        for poly, d in ((monic_num, n1), (self.den, n2)):
            if d >= 1 and not is_irreducible_in_ctx(ctx, poly):
                raise ValueError(f"{poly} is reducible")
        if n1 == n2 and n1 >= 1 and monic_num == self.den:
            raise ValueError("numerator and denominator share a factor")

    @property
    def degrees(self) -> tuple:
        return len(self.num) - 1, len(self.den) - 1

    @property
    def n(self) -> int:
        return len(self.num) + len(self.den) - 2

    @property
    def scale(self) -> int:
        return self.num[-1]

    @property
    def monic_num(self) -> tuple:
        c = self.num[-1]
        if c == 1:
            return self.num
        inv = self.ctx.inv(c)
        return tuple(self.ctx.mul(x, inv) for x in self.num)

    def excluded_codes(self) -> tuple:
        """S: zeros and poles of f in F_{q^m}, together with 0.  Irreducible
        parts of degree >= 2 contribute nothing (their roots live upstairs)."""
        ctx = self.ctx
        out = {0}
        for poly in (self.num, self.den):
            if len(poly) == 2:
                out.add(ctx.mul(ctx.neg(poly[0]), ctx.inv(poly[1])))
        return tuple(sorted(out))

    def eval_code(self, code: int):
        """f(alpha) as a code, or POLE."""
        ctx = self.ctx
        d = poly_eval(ctx, self.den, code)
        if d == 0:
            return POLE
        n = poly_eval(ctx, self.num, code)
        return ctx.mul(n, ctx.inv(d))

    def varr_eval(self, codes):
        """Vectorized evaluation; poles come back as -1."""
        ctx = self.ctx
        num = self._varr_poly(self.num, codes)
        den = self._varr_poly(self.den, codes)
        out = ctx.varr_mul(num, ctx.varr_inv(den))
        return np.where(den == 0, -1, out)

    def _varr_poly(self, poly, codes):
        ctx = self.ctx
        acc = poly[-1]
        for c in reversed(poly[:-1]):
            acc = ctx.varr_mul(acc, codes)
            if c:
                acc = ctx.add(acc, c)
        return acc

    def serialize(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}

    def label(self) -> str:
        def side(poly):
            terms = []
            for i in range(len(poly) - 1, -1, -1):
                c = poly[i]
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                else:
                    xs = "x" if i == 1 else f"x^{i}"
                    terms.append(xs if c == 1 else f"{c}*{xs}")
            return " + ".join(terms) if terms else "0"
        return f"({side(self.num)})/({side(self.den)})"

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.ctx is other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((id(self.ctx), self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.label()})"


def is_irreducible_in_ctx(ctx: FieldCtx, poly: tuple) -> bool:
    """Irreducibility over the big field of poly, monic or not.  Degrees 0
    and 1 return True."""
    d = len(poly) - 1
    if d in (0, 1):
        return True
    lead = poly[-1]
    monic = poly if lead == 1 else tuple(
        ctx.mul(c, ctx.inv(lead)) for c in poly)
    if d == 2 and ctx.dlog is not None:
        return not ctx.quad_reducible_mask(monic[0], monic[1])
    return is_irreducible_poly(ctx, monic)


def find_irreducibles(degree: int, ctx: FieldCtx):
    """Stream every monic irreducible of the given degree over F_{q^m} in
    canonical order."""
    if degree < 1:
        raise ValueError("degree must be positive")
    N = ctx.N
    if degree == 1:
        for c in range(N):
            yield (c, 1)
        return
    if degree == 2 and ctx.dlog is not None:
        # c0 is the most significant digit of the canonical order: one row
        # of fixed c0 at a time keeps that order in O(N) memory
        c1 = np.arange(N, dtype=np.int64)
        for c0 in range(N):
            for b in np.flatnonzero(~ctx.quad_reducible_mask(c0, c1)):
                yield (c0, int(b), 1)
        return
    for n in range(N ** (degree - 1), N ** degree):
        cand = poly_from_index(degree, n, N)
        if is_irreducible_poly(ctx, cand):
            yield cand
