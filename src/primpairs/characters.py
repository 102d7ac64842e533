"""Characters over the constructed fields and the counting identity built
from them.

Multiplicative characters of F_{q^m}^* are powers of a fixed generator
character: chi with exponent e maps x to exp(2 pi i * e * dlog(x) / (q^m-1)).
The canonical additive character of F_q is psi0(x) = exp(2 pi i * tr(x) / p)
with tr the absolute trace to F_p; its lift to F_{q^m} composes with the
relative trace.  These index the context's dlog and trace tables, which
every context carries.  Elements are the context's integer codes, each
range-checked by the check_code of its level of the tower: the indicators
rho_u(ctx, alpha, u) and tau_a(ctx, alpha, a) take the context and the code
of alpha.

The headline operation is the exact-count identity: the number of alpha with
alpha l1-free, f(alpha) l2-free, and both traces prescribed equals

  theta(l1) theta(l2) / q^2 * sum over square-free d1|l1, d2|l2 of
    mu(d1) mu(d2) / (phi(d1) phi(d2)) * sum over chi_d1, chi_d2 of
      chi_fab(f, a, b, chi_d1, chi_d2)

evaluated here in complex doubles and compared against brute force in the
verify layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from weakref import WeakKeyDictionary

import numpy as np

from .arith import euler_phi, factor, moebius, squarefree_divisors
from .ff import FieldCtx, RationalFunction


def tolerance(summands: int) -> float:
    """Comparison tolerance for character sums with the given summand count."""
    return 1e-6 * max(summands, 1)


class MultChar:
    """x -> exp(2 pi i * exponent * dlog(x) / (q^m - 1)); zero at x = 0."""

    __slots__ = ("ctx", "exponent")

    def __init__(self, ctx: FieldCtx, exponent: int):
        self.ctx = ctx
        self.exponent = exponent % ctx.order

    @property
    def order(self) -> int:
        return self.ctx.order // math.gcd(self.exponent, self.ctx.order)

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def value(self, x: int) -> complex:
        if self.ctx.check_code(x) == 0:
            return 0j
        e = self.exponent * int(self.ctx.dlog[x]) % self.ctx.order
        return complex(self.ctx.unity_roots()[e])

    def values(self, codes: np.ndarray) -> np.ndarray:
        out = self.ctx.unity_roots()[self.exponent * self.ctx.dlog[codes] % self.ctx.order]
        return np.where(codes == 0, 0j, out)

    def __repr__(self):
        return f"MultChar(exponent={self.exponent}, order={self.order})"


def all_chars_of_order(d: int, ctx: FieldCtx) -> list[MultChar]:
    """The phi(d) multiplicative characters of exact order d, exponents
    j*(q^m-1)/d for j coprime to d, ascending."""
    step = ctx.order // ctx.check_divisor(d)
    return [MultChar(ctx, j * step) for j in range(1, d + 1) if math.gcd(j, d) == 1]


class AddChar:
    """The canonical additive character pair of a context: psi0 on F_q and
    its trace lift psihat on F_{q^m}."""

    __slots__ = ("ctx", "psi0_t", "psihat_t")

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.psi0_t = np.exp(2j * np.pi * ctx.trace_abs_t / ctx.p)
        self.psihat_t = self.psi0_t[ctx.trace_t]

    def psi0(self, x) -> complex:
        return complex(self.psi0_t[self.ctx.subfield.check_code(x)])

    def psihat(self, x: int) -> complex:
        return complex(self.psihat_t[self.ctx.check_code(x)])


_addchar_cache: "WeakKeyDictionary[FieldCtx, AddChar]" = WeakKeyDictionary()


def canonical_add_char(ctx: FieldCtx) -> AddChar:
    ac = _addchar_cache.get(ctx)
    if ac is None:
        ac = AddChar(ctx)
        _addchar_cache[ctx] = ac
    return ac


# ---------------------------------------------------------------------------
# indicator functions

def rho_u(ctx: FieldCtx, alpha: int, u: int) -> complex:
    """Character-sum indicator of u-freeness of the code alpha: theta(u) *
    sum over square-free d | u of mu(d)/phi(d) * sum over chi of order d of
    chi(alpha)."""
    if ctx.check_code(alpha) == 0:
        raise ValueError("rho_u is defined on the multiplicative group")
    fu = factor(ctx.check_divisor(u))
    total = 0j
    for d in squarefree_divisors(fu):
        coeff = Fraction(moebius(d), euler_phi(d))
        s = sum(chi.value(alpha) for chi in all_chars_of_order(d.value, ctx))
        total += float(coeff) * s
    theta = Fraction(euler_phi(fu), u)
    return float(theta) * total


def tau_a(ctx: FieldCtx, alpha: int, a: int) -> complex:
    """Character-sum indicator of Tr(alpha) = a for the code alpha and the
    F_q code a: averages psi(Tr(alpha) - a) over all q additive characters
    psi of F_q."""
    alpha = ctx.check_code(alpha)
    ac = canonical_add_char(ctx)
    sub = ctx.subfield
    a = sub.check_code(a)
    diff = sub.sub(ctx.trace_q(alpha), a)
    total = sum(ac.psi0(sub.mul(u, diff)) for u in range(ctx.q))
    return total / ctx.q


# ---------------------------------------------------------------------------
# the weighted double sum

class ChiPrecompute:
    """Shared per-f arrays for repeated chi_fab evaluation: the alpha domain
    (everything outside S), discrete logs of alpha and f(alpha), and the
    psihat(u*alpha + v/alpha) matrix indexed by (u, v)."""

    __slots__ = ("alphas", "dl_alpha", "dl_f", "psimat")

    def __init__(self, f: RationalFunction):
        ctx = f.ctx
        excluded = np.zeros(ctx.N, dtype=bool)
        excluded[list(f.excluded_codes())] = True
        alphas = np.flatnonzero(~excluded).astype(np.int64)
        fvals = f.varr_eval(alphas)
        if (fvals <= 0).any():
            raise RuntimeError("f has an unexcluded zero or pole")
        self.alphas = alphas
        self.dl_alpha = ctx.dlog[alphas]
        self.dl_f = ctx.dlog[fvals]
        ac = canonical_add_char(ctx)
        inv = ctx.varr_inv(alphas)
        rows = []
        for u in range(ctx.q):
            ua = ctx.varr_mul(u, alphas)
            for v in range(ctx.q):
                vi = ctx.varr_mul(v, inv)
                rows.append(ac.psihat_t[ctx.add(ua, vi)])
        self.psimat = np.array(rows)  # shape (q^2, len(alphas))


def chi_fab(f: RationalFunction, a, b, chi1: MultChar, chi2: MultChar,
            pre: ChiPrecompute) -> complex:
    """sum over u, v in F_q of psi0(-au - bv) * sum over alpha outside S of
    chi1(alpha) chi2(f(alpha)) psihat(u alpha + v alpha^{-1})."""
    ctx = f.ctx
    sub = ctx.subfield
    a, b = sub.check_code(a), sub.check_code(b)
    ac = canonical_add_char(ctx)
    unity = ctx.unity_roots()
    w = unity[(chi1.exponent * pre.dl_alpha + chi2.exponent * pre.dl_f) % ctx.order]
    inner = pre.psimat @ w
    coeffs = np.empty(ctx.q * ctx.q, dtype=complex)
    for u in range(ctx.q):
        au = sub.mul(a, u)
        for v in range(ctx.q):
            coeffs[u * ctx.q + v] = ac.psi0_t[
                sub.neg(sub.add(au, sub.mul(b, v)))]
    return complex(coeffs @ inner)


def chi_fab_bound(f: RationalFunction) -> float:
    """(n+2) * q^(m/2+2): the proven ceiling for |chi_fab| away from the
    all-trivial tuple."""
    ctx = f.ctx
    return (f.n + 2) * ctx.q ** (ctx.m / 2 + 2)


def count_via_characters(f: RationalFunction, a, b, l1: int, l2: int,
                         pre: ChiPrecompute) -> float:
    """Exact count N_{f,a,b}(l1, l2) evaluated through the character
    identity; returns a real number within tolerance of the true integer."""
    ctx = f.ctx
    fl1, fl2 = factor(ctx.check_divisor(l1)), factor(ctx.check_divisor(l2))
    total = 0j
    for d1 in squarefree_divisors(fl1):
        c1 = Fraction(moebius(d1), euler_phi(d1))
        chars1 = all_chars_of_order(d1.value, ctx)
        for d2 in squarefree_divisors(fl2):
            c2 = Fraction(moebius(d2), euler_phi(d2))
            chars2 = all_chars_of_order(d2.value, ctx)
            coeff = float(c1 * c2)
            s = 0j
            for chi1 in chars1:
                for chi2 in chars2:
                    s += chi_fab(f, a, b, chi1, chi2, pre=pre)
            total += coeff * s
    theta = Fraction(euler_phi(fl1), l1) * Fraction(euler_phi(fl2), l2)
    out = float(theta) / (ctx.q ** 2) * total
    return out.real
