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
compared first.  The generator is the least primitive code from q on (from 2
when m = 1).  Both choices make contexts reproducible across runs and
machines.

Every field has at most DLOG_LIMIT elements and carries numpy tables (powers
of the generator, discrete logs, trace, inverses) that the character-sum
and brute-force layers index directly; a larger field is refused at
construction.  There is no digit table.

Construction makes those choices by linear algebra over F_p:

- The modulus: first_irreducible takes the first candidate that passes
  Ben-Or's test (Gao-Panario 1997).  f of degree d is irreducible iff
  gcd(x^(Q^i) - x, f) = 1 for i = 1, ..., d // 2, since x^(Q^i) - x is the
  product of the monic irreducibles of degree dividing i and a reducible f
  has a factor of degree at most d/2.  h = x^(Q^i) mod f takes one Q-th
  power a step, and most candidates have a small factor and fail at once.
- The generator: multiplication by a code c is F_p-linear on the k m
  base-p digits, with the matrix M_c = sum_t digit_t(c) E_t, E_t that of
  the basis code p^t = y^i z^j (t = i k + j), i.e. Y^i Z^j for Y and Z
  multiplying by y and z.  The digits of c^e are M_c^e times those of 1,
  so c is primitive iff they are not those of 1 at e = (N - 1)/r for each
  prime r | N - 1: one square chain of M_c serves every r.  Entries stay
  below k m p^2 < 2^63 before each reduction mod p.
- The tables: an F_p-linear map L on codes is tabled from its k m basis
  images by doubling over the digits: the code j P + x, x < P = p^t, maps
  to L(x) + j L(p^t), one broadcast add per digit.  The powers of g come in
  runs of S, about sqrt(N): the first by matrix products on digit vectors,
  each later run the one before times g^S, such a tabled map.  The trace
  to F_q is F_p-linear too, tabled from the traces b + b^q + ... +
  b^(q^(m-1)) of the basis codes, read off the power table.

A monic quadratic x^2 + c1 x + c0 is irreducible exactly when it has no root
(Lidl-Niederreiter, Finite Fields, ch. 3): for odd q when its discriminant
c1^2 - 4 c0 is a nonsquare, i.e. has odd dlog; in characteristic 2 when
c1 != 0 and Tr_{F/F_2}(c0 / c1^2) = 1 (Artin-Schreier, after the substitution
x = c1 y).  No table of quadratics is kept.

Above degree 2 there is one irreducibility algorithm, Ben-Or's test.
is_irreducible_poly runs it on one tuple over any field-like F, and serves
first_irreducible, which finds the defining polynomial of F_{q^m} over its
subfield, F_p when k = 1 and the tabled F_q otherwise.
FieldCtx.irreducible_mask runs the same steps on a block of monic
polynomials over the field that owns it, as code arrays: quadratics by the
root test above, and every higher-degree row f at once, with h = x^(N^i) mod
f one N-th power a step, and a row dropped at its first gcd(h - x, f) != 1.
find_irreducibles streams it over blocks of canonical indices, and
is_irreducible_in_ctx takes it on one row.
"""

from __future__ import annotations

import operator

import numpy as np

from .arith import FactoredInteger, factor_qm_minus_1, is_probable_prime

DLOG_LIMIT = 1 << 22
_BLOCK_POLYS = 1 << 16  # canonical indices find_irreducibles tests at once
_GENERATOR_BLOCK = 8  # candidate generators tested at once


class EnumerationBudgetExceeded(RuntimeError):
    """The field (or the representative count) is too large for the
    requested exhaustive work."""


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


def poly_rows_from_index(d: int, v: np.ndarray, Q: int) -> np.ndarray:
    """poly_from_index on an index array v: a row per index, its base-Q
    digits, most significant first, then the leading 1 (the only column
    for degree 0)."""
    digits = [v // Q ** (d - 1 - i) % Q for i in range(d)]
    return np.column_stack([*(c.astype(np.int64) for c in digits),
                            np.ones(len(v), dtype=np.int64)])


def poly_index(cs, Q: int) -> int:
    """Inverse of poly_from_index for monic cs."""
    d = len(cs) - 1
    return sum(c * Q ** (d - 1 - i) for i, c in enumerate(cs[:-1]))


def _poly_pow_mod(F, base: tuple, e: int, modulus: tuple) -> tuple:
    """base^e mod modulus for e >= 1, by left-to-right square-and-multiply."""
    base = poly_mod(F, base, modulus)
    out = base
    for bit in bin(e)[3:]:
        out = poly_mod(F, poly_mul(F, out, out), modulus)
        if bit == "1":
            out = poly_mod(F, poly_mul(F, out, base), modulus)
    return out


def is_irreducible_poly(F, cs) -> bool:
    """Irreducibility of monic cs over the field-like F with Q elements, by
    Ben-Or's test: cs of degree d is irreducible iff it has no factor of
    degree i <= d/2, i.e. gcd(x^(Q^i) - x, cs) = 1 for i = 1, ..., d//2,
    as x^(Q^i) - x is the product of the monic irreducibles of degree
    dividing i.  It stops at the least degree of a factor."""
    d = len(cs) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if cs[0] == 0:
        return False  # root at 0
    Q = F.card
    x = h = (0, 1)
    for _ in range(d // 2):
        h = _poly_pow_mod(F, h, Q, cs)
        if poly_gcd(F, poly_sub(F, h, x), cs) != (1,):
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
# the code check of every level, and the prime field, the base of the tower

class _CodeField:
    """What every level of the tower shares: its elements are the codes
    0, ..., card - 1."""

    card: int

    def check_code(self, x) -> int:
        """x as an int when it is the code of an element; the tables are
        indexed with it, where a negative code would read from the end."""
        try:
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"code {x!r} is not an integer") from None
        if not 0 <= x < self.card:
            raise ValueError(f"code {x} out of range (N = {self.card})")
        return x


class _PrimeField(_CodeField):
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

def check_field(p: int, k: int, m: int) -> None:
    """Refuse what FieldCtx(p, k, m) cannot build: k or m below 1, more
    than DLOG_LIMIT elements, or a p that is not prime."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be positive")
    # for p >= 2 an exponent past the limit's bit length already exceeds
    # the limit; test it first, since p ** (k m) may not fit in memory
    km = k * m
    if km > DLOG_LIMIT.bit_length() or p ** km > DLOG_LIMIT:
        raise EnumerationBudgetExceeded(
            f"field size {p}^{km} beyond dlog table limit {DLOG_LIMIT}")
    if not is_probable_prime(p):
        raise ValueError(f"p = {p} is not prime")


class FieldCtx(_CodeField):
    """F_{q^m} = F_q[y]/(defining_poly), q = p^k, with at most DLOG_LIMIT
    elements and always its tables.

    The subfield F_q is _PrimeField(p) when k = 1 and FieldCtx(p, 1, k)
    otherwise, so the same class builds every level of the tower.

    factor_qm_minus_1 factors the group order N - 1 with no cache and no
    budget: N - 1 < 2^22 < TRIAL_LIMIT^2 = 10^12, so trial division splits
    it and Pollard rho, the one reader of a budget, is never reached.

    add/sub/neg work on integer codes and numpy code arrays alike, with no
    table.  mul/inv/pow_ and trace_q take integer codes, varr_mul and
    varr_inv numpy code arrays; all of them read the tables.
    """

    def __init__(self, p: int, k: int, m: int):
        check_field(p, k, m)
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
            self.subfield = FieldCtx(p, 1, k)
        self.poly = first_irreducible(self.subfield, m)
        self.group_factors: FactoredInteger = factor_qm_minus_1(self.q, m)
        self._unity = None
        self.generator, M = self._find_generator()
        self._build_tables(M)

    # -- code <-> coefficient vectors over F_q

    def decode(self, code: int) -> tuple:
        q = self.q
        return tuple((code // q ** i) % q for i in range(self.m))

    def encode(self, coeffs) -> int:
        return sum(int(c) * self.q ** i for i, c in enumerate(coeffs))

    # -- digit-wise arithmetic on codes or code arrays

    def _digitwise(self, a, b, sign):
        """The code of a + sign * b, sign = 1 or -1, digit by digit."""
        if self.p == 2:
            return a ^ b
        # (a // w + sign * (b // w)) % p is that sum of the two digits of
        # weight w: the higher digits only add multiples of p
        p, out, w = self.p, 0, 1
        for _ in range(self.k * self.m):
            out = out + (a // w + sign * (b // w)) % p * w
            w *= p
        return out

    def add(self, a, b):
        return self._digitwise(a, b, 1)

    def neg(self, a):
        return self._digitwise(0, a, -1)

    def sub(self, a, b):
        return self._digitwise(a, b, -1)

    # -- multiplicative arithmetic on codes

    def _mul_poly(self, a: int, b: int) -> int:
        F = self.subfield
        prod = poly_mul(F, self.decode(a), self.decode(b))
        return self.encode(poly_mod(F, prod, self.poly)) if prod else 0

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.dlog[a]) + int(self.dlog[b]))
                            % self.order])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_t[a])

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.exp[int(self.dlog[a]) * e % self.order])

    def trace_q(self, a: int) -> int:
        """Tr_{F_{q^m}/F_q} as a code < q."""
        return int(self.trace_t[a])

    # -- argument checks

    def check_divisor(self, u: int) -> int:
        """u itself when it divides the group order N - 1."""
        if u < 1 or self.order % u != 0:
            raise ValueError(
                f"{u} does not divide the group order {self.order}")
        return u

    # -- primitivity / u-freeness on codes

    def is_primitive_code(self, a: int) -> bool:
        return self.is_u_free_code(a, self.order)

    def is_u_free_code(self, a: int, u: int) -> bool:
        if a == 0:
            raise ValueError("0 is not in the multiplicative group")
        self.check_divisor(u)
        return all(self.pow_(a, self.order // r) != 1
                   for r in self.group_factors.primes if u % r == 0)

    # -- construction internals

    def _digits(self, codes) -> np.ndarray:
        """The k m base-p digits of a code (array), lowest first, on a new
        last axis."""
        codes = np.asarray(codes, dtype=np.int64)[..., None]
        return codes // self.p ** np.arange(self.k * self.m) % self.p

    def _basis_matrices(self) -> np.ndarray:
        """E[t], the F_p matrix on digit vectors of multiplication by the
        code p^t = y^i z^j, t = i k + j: Y^i Z^j, with Y multiplying by y
        (code q) and Z by z (code p), each tabled from its k m basis
        images by the defining polynomials."""
        p, km = self.p, self.k * self.m

        def powers(c, n):  # I, C, ..., C^(n-1), C multiplying by code c
            out = [np.eye(km, dtype=np.int64)]
            if n > 1:
                C = self._digits([self._mul_poly(c, p ** t)
                                  for t in range(km)]).T
                for _ in range(n - 1):
                    out.append(out[-1] @ C % p)
            return out

        return np.stack([y @ z % p for y in powers(self.q, self.m)
                         for z in powers(p, self.k)])

    def _find_generator(self) -> tuple:
        """(g, M): the least primitive code from q on, from 2 when m = 1
        (codes < q are F_q constants, of order dividing q - 1), and its
        multiplication matrix M = sum_t digit_t(g) E[t].  c is primitive
        iff c^((N-1)/r) != 1 for every prime r | N - 1, and the digit
        vector of c^e is M_c^e times that of 1, so the test is one square
        chain of M_c and a matrix-vector product per set bit of each
        exponent.  The candidates go _GENERATOR_BLOCK at a time, tested
        for every r at once."""
        p, km = self.p, self.k * self.m
        E = self._basis_matrices()
        if self.order == 1:
            return 1, E[0]
        exps = np.array([self.order // r for r in self.group_factors.primes])
        one = np.zeros(km, dtype=np.int64)
        one[0] = 1
        for lo in range(2 if self.m == 1 else self.q, self.N, _GENERATOR_BLOCK):
            cs = np.arange(lo, min(lo + _GENERATOR_BLOCK, self.N))
            # entries stay below k m p^2 < 2^63 before each reduction
            Ms = sq = np.tensordot(self._digits(cs), E, axes=1) % p
            vec = np.broadcast_to(one, (len(cs), len(exps), km)).copy()
            e = exps
            while True:
                odd = e & 1 == 1
                vec[:, odd] = vec[:, odd] @ sq.swapaxes(1, 2) % p
                e = e >> 1
                if not e.any():
                    break
                sq = sq @ sq % p
            primitive = ~(vec == one).all(axis=2).any(axis=1)
            if primitive.any():
                i = int(np.argmax(primitive))
                return int(cs[i]), Ms[i]
        raise RuntimeError("no primitive element found")  # unreachable

    def _linear_table(self, imgs, field=None) -> np.ndarray:
        """The N-entry table of the F_p-linear map from this field into
        `field` (this field by default) that sends the basis code p^t to
        imgs[t], doubled one digit at a time: with the table out of the
        codes x < P = p^t, the code j P + x maps to out[x] + j imgs[t],
        for every j < p in one broadcast add of `field`."""
        p, add = self.p, (field or self).add
        # multiples[j, t] = j imgs[t], digit by digit
        multiples = (np.arange(p)[:, None, None] * self._digits(imgs) % p
                     @ p ** np.arange(self.k * self.m))
        out = np.zeros(1, dtype=np.int64)
        for col in multiples.T:
            out = add(col[:, None], out).ravel()
        return out

    def _build_tables(self, M):
        p, N, km = self.p, self.N, self.k * self.m
        weights = p ** np.arange(km)

        # exp[a S + b] = g^(a S) g^b, S a power of two near sqrt(N).  The
        # first S powers are digit vectors doubled by matrix products: those
        # of g^P, ..., g^(2P-1) are M^P times those of 1, ..., g^(P-1).
        # Each later run of S is the run before it times g^S, an F_p-linear
        # map with the matrix M^S, read from its table.
        n1 = N - 1
        S = 1 << (n1.bit_length() + 1) // 2
        vecs = np.zeros((S, km), dtype=np.int64)
        vecs[0, 0] = 1
        P, MP = 1, M  # MP = M^P
        while P < S:
            vecs[P:2 * P] = vecs[:P] @ MP.T % p
            P, MP = 2 * P, MP @ MP % p
        exp = np.empty(n1, dtype=np.int64)
        exp[:S] = (vecs @ weights)[:n1]
        if S < n1:
            step = self._linear_table(weights @ MP)
            for lo in range(S, n1, S):
                hi = min(lo + S, n1)
                exp[lo:hi] = step[exp[lo - S:hi - S]]
        self.exp = exp

        dlog = np.full(N, -1, dtype=np.int64)
        dlog[exp] = np.arange(n1, dtype=np.int64)
        if (dlog[1:] < 0).any():
            raise RuntimeError("generator orbit did not cover the group")
        self.dlog = dlog

        self.inv_t = np.zeros(N, dtype=np.int64)
        self.inv_t[exp] = exp[(-np.arange(n1, dtype=np.int64)) % n1]

        # Tr_{F_{q^m}/F_q} is F_p-linear into F_q: table it from the traces
        # b + b^q + ... + b^(q^(m-1)) of the basis codes b = p^t, summed
        # in F_q
        conj = exp[dlog[weights][:, None] * self.q ** np.arange(self.m) % n1]
        traces = conj[:, 0]
        for s in range(1, self.m):
            traces = self.add(traces, conj[:, s])
        if (traces >= self.q).any():
            raise RuntimeError("trace left the base field")
        self.trace_t = self._linear_table(traces, self.subfield)
        if self.k == 1:
            self.trace_abs_t = np.arange(self.p, dtype=np.int64)
        else:
            self.trace_abs_t = self.subfield.trace_t

    # -- array arithmetic

    def varr_mul(self, a, b):
        out = self.exp[(self.dlog[a] + self.dlog[b]) % self.order]
        return np.where((a == 0) | (b == 0), 0, out)

    def varr_inv(self, a):
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
        mul = self.varr_mul
        if self.p == 2:
            t = mul(c0, self.inv_t[mul(c1, c1)])
            return self.trace_abs_t[self.trace_t[t]] == 0
        disc = self.add(mul(c1, c1), mul((-4) % self.p, c0))
        return (disc == 0) | (self.dlog[disc] % 2 == 0)

    # -- irreducible polynomials, a block at a time

    def irreducible_mask(self, low) -> np.ndarray:
        """True where the monic x^d + low[i, d-1] x^(d-1) + ... + low[i, 0]
        is irreducible, for a B x d code array low: is_irreducible_poly's
        Ben-Or test on code arrays, every row f at once.

        Degree 2 is quad_reducible_mask.  Above it, for i = 1, ..., d // 2,
        h = x^(N^i) mod f takes one N-th power of the h before it, by
        square-and-multiply, and a row is refused, and dropped from the
        later steps, at its first gcd(h - x, f) != 1."""
        low = np.asarray(low, dtype=np.int64)
        B, d = low.shape
        if d == 1:
            return np.ones(B, dtype=bool)
        if d == 2:
            return ~self.quad_reducible_mask(low[:, 0], low[:, 1])
        add, mul = self.add, self.varr_mul

        def reduce(prod, top):  # prod mod f, with top = x^d mod f
            for t in range(len(prod) - 1, d - 1, -1):
                for i in range(d):
                    prod[t - d + i] = add(prod[t - d + i],
                                          mul(prod[t], top[i]))
            return np.array(prod[:d])

        def mulmod(a, b, top):
            prod = [0] * (2 * d - 1)
            for i in range(d):
                for j in range(d):
                    prod[i + j] = add(prod[i + j], mul(a[i], b[j]))
            return reduce(prod, top)

        f = np.column_stack([low, np.ones(B, dtype=np.int64)])
        live = np.arange(B)  # the rows not refused yet
        x = np.zeros((d, 1), dtype=np.int64)
        x[1] = 1
        h = x.repeat(B, axis=1)  # a column per row
        for step in range(d // 2):
            top, base = self.neg(low[live].T), h
            for bit in bin(self.N)[3:]:
                h = mulmod(h, h, top)
                if bit == "1":  # times x, the first base, is a shift
                    h = (reduce([0, *h], top) if step == 0
                         else mulmod(h, base, top))
            keep = self._coprime(f[live], self.sub(h, x).T)
            live, h = live[keep], h[:, keep]
        ok = np.zeros(B, dtype=bool)
        ok[live] = True
        return ok

    def _coprime(self, a, b) -> np.ndarray:
        """True where rows of a (monic, degree d) and b (d columns, so of
        lower degree) have no common factor: Euclid's algorithm, removing
        one leading term of every row per step."""
        a = a.copy()
        b = np.column_stack([b, np.zeros(len(b), dtype=np.int64)])
        cols = np.arange(a.shape[1])

        def degree(g):
            nz = g != 0
            return np.where(nz.any(axis=1),
                            cols[-1] - np.argmax(nz[:, ::-1], axis=1), -1)

        da, db = degree(a), degree(b)
        while (live := np.flatnonzero(db > 0)).size:
            A, Bp, sa, sb = a[live], b[live], da[live], db[live]
            # A -= (lead A / lead Bp) x^(sa - sb) Bp, as sa >= sb
            r = np.arange(len(live))
            c = self.varr_mul(A[r, sa], self.inv_t[Bp[r, sb]])
            shift = cols - (sa - sb)[:, None]
            moved = np.where(shift >= 0, np.take_along_axis(
                Bp, np.maximum(shift, 0), axis=1), 0)
            A = self.sub(A, self.varr_mul(c[:, None], moved))
            sa = degree(A)
            swap = sa < sb
            a[live] = np.where(swap[:, None], Bp, A)
            b[live] = np.where(swap[:, None], A, Bp)
            da[live] = np.where(swap, sb, sa)
            db[live] = np.where(swap, sa, sb)
        return db == 0

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


def build_ctx(p: int, k: int, m: int) -> FieldCtx:
    """Deterministic field context for F_{(p^k)^m}."""
    return FieldCtx(p, k, m)


# ---------------------------------------------------------------------------
# rational functions

class RationalFunction:
    """c * p(x) / q(x) with p, q monic irreducible over F_{q^m}, q(x) monic,
    and the scale c absorbed into the stored numerator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldCtx, num, den, *, check: bool = True):
        num = poly_trim(ctx.check_code(x) for x in num)
        den = poly_trim(ctx.check_code(x) for x in den)
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

    def __repr__(self):
        return f"RationalFunction({self.label()})"


def is_irreducible_in_ctx(ctx: FieldCtx, poly: tuple) -> bool:
    """Irreducibility over the big field of poly, monic or not: the
    irreducible_mask row of its monic multiple.  Degree 0 returns True."""
    if len(poly) < 2:
        return True
    inv = ctx.inv(poly[-1])
    low = [ctx.mul(c, inv) for c in poly[:-1]]
    return bool(ctx.irreducible_mask([low])[0])


def find_irreducibles(degree: int, ctx: FieldCtx):
    """Stream every monic irreducible of the given degree over F_{q^m} in
    canonical order: the canonical indices in blocks of _BLOCK_POLYS, each
    block decided by one irreducible_mask call."""
    if degree < 1:
        raise ValueError("degree must be positive")
    N = ctx.N
    end = N ** degree
    # a zero constant term is a root at 0, so for degree >= 2 skip that
    # whole leading block of the canonical order
    start = 0 if degree == 1 else N ** (degree - 1)
    dtype = np.int64 if end <= 1 << 63 else object
    for lo in range(start, end, _BLOCK_POLYS):
        v = np.arange(lo, min(lo + _BLOCK_POLYS, end), dtype=dtype)
        rows = poly_rows_from_index(degree, v, N)
        keep = ctx.irreducible_mask(rows[:, :-1])
        yield from zip(*rows[keep].T.tolist())
