"""Brute-force ground truth on explicitly constructed fields.

The bounds layer proves membership in Q_n from inequalities; this layer
earns it the hard way: enumerate representatives of R_{n1,n2}, walk every
alpha, and count.  Every count goes through one kernel, _GridCounter: it
reads the context's dlog tables (an element g^k is r-free exactly when r
does not divide k) and fills the whole q x q trace-pair grid with one
bincount.  A scalar pass over alpha fills the same grid for a context
without tables and is the oracle the kernel is tested against.
resolve_pair chains the cheap certificates before falling back to
enumeration, and scan_exceptions regenerates the full list of pairs the main
condition cannot settle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactorCache,
    factor,
    factor_qm_minus_1,
    moebius,
    omega_bounds_qm_minus_1,
    prime_power,
    prime_powers_upto,
    squarefree_divisor_count,
)
from .bounds import (
    SieveCertificate,
    certificate_search,
    main_margin,
    threshold_cascade,
)
from .ff import (
    DLOG_LIMIT,
    FieldCtx,
    RationalFunction,
    build_ctx,
    find_irreducibles,
    is_irreducible_in_ctx,
    poly_from_index,
)

DEFAULT_ALPHA_BUDGET = 1 << 20  # exhaustive alpha-loops up to this field size
DEFAULT_F_BUDGET = 10 ** 7  # exhaustive f-loops up to this many representatives
DEFAULT_SAMPLE = 1000

CERTIFIED_MAIN = "certified_main"
CERTIFIED_SIEVE = "certified_sieve"
EXCEPTION_WITNESS = "exception_witness"
VERIFIED_EXHAUSTIVE = "verified_exhaustive"
VERIFIED_SAMPLED = "verified_sampled"
UNDECIDED = "undecided"


class EnumerationBudgetExceeded(RuntimeError):
    """The field (or the representative count) is too large for the
    requested exhaustive work."""


def splits_of(n: int) -> list[tuple[int, int]]:
    """(n1, n2) degree splits of n, numerator-heavy first."""
    if n < 1:
        raise ValueError("n must be positive")
    return [(n1, n - n1) for n1 in range(n, -1, -1)]


# ---------------------------------------------------------------------------
# enumeration of R_{n1,n2}

def _irreducible_count(ctx: FieldCtx, d: int) -> int:
    """Monic irreducibles of degree d by the Gauss count
    (1/d) sum_{e|d} mu(e) N^(d/e); degree 0 has the one polynomial 1."""
    if d == 0:
        return 1
    return sum(moebius(factor(e)) * ctx.N ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


def count_R(n1: int, n2: int, ctx: FieldCtx) -> int:
    """Number of distinct representatives c * p/q of R_{n1,n2}."""
    if n1 == 0 and n2 == 0:
        raise ValueError("degenerate split (0, 0)")
    c1, c2 = _irreducible_count(ctx, n1), _irreducible_count(ctx, n2)
    if n1 == n2:
        c2 -= 1  # numerator and denominator must differ
    return (ctx.N - 1) * c1 * c2


def _monic_irreducibles(degree: int, ctx: FieldCtx):
    if degree == 0:
        yield (1,)
        return
    yield from find_irreducibles(degree, ctx)


def _scaled(ctx: FieldCtx, c: int, poly: tuple) -> tuple:
    return tuple(ctx.mul(c, x) for x in poly)


def enumerate_R(n1: int, n2: int, ctx: FieldCtx, mode: str = "exhaustive",
                *, count: int | None = None, seed: int | None = None):
    """Stream of R_{n1,n2} representatives.

    Exhaustive mode walks c, then numerator, then denominator, each in
    canonical code order.  Sample mode draws `count` representatives from a
    generator seeded with `seed` (duplicates possible, order reproducible).
    """
    if n1 == 0 and n2 == 0:
        raise ValueError("degenerate split (0, 0)")
    if mode == "exhaustive":
        for c in range(1, ctx.N):
            for p in _monic_irreducibles(n1, ctx):
                for q in _monic_irreducibles(n2, ctx):
                    if n1 == n2 and p == q:
                        continue
                    yield RationalFunction(ctx, _scaled(ctx, c, p), q,
                                           check=False)
    elif mode == "sample":
        if count is None or seed is None:
            raise ValueError("sample mode needs count and seed")
        rng = random.Random(seed)
        for _ in range(count):
            yield _draw_representative(n1, n2, ctx, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _draw_irreducible(degree: int, ctx: FieldCtx, rng: random.Random) -> tuple:
    if degree == 0:
        return (1,)
    if degree == 1:
        return (rng.randrange(ctx.N), 1)
    while True:
        n = rng.randrange(ctx.N ** degree)
        cs = poly_from_index(degree, n, ctx.N)
        if is_irreducible_in_ctx(ctx, cs):
            return cs


def _draw_representative(n1: int, n2: int, ctx: FieldCtx,
                         rng: random.Random) -> RationalFunction:
    c = rng.randrange(1, ctx.N)
    p = _draw_irreducible(n1, ctx, rng)
    while True:
        q = _draw_irreducible(n2, ctx, rng)
        if not (n1 == n2 and p == q):
            break
    return RationalFunction(ctx, _scaled(ctx, c, p), q, check=False)


# ---------------------------------------------------------------------------
# counting

def _check_l(ctx: FieldCtx, l: int) -> None:
    if l < 1 or ctx.order % l != 0:
        raise ValueError(f"l = {l} does not divide the group order")


def _free_mask(ctx: FieldCtx, dlogs: np.ndarray, l: int) -> np.ndarray:
    """l-free mask for elements given by their discrete logs."""
    mask = np.ones(dlogs.shape, dtype=bool)
    for p in ctx.group_factors.primes:
        if l % p == 0:
            mask &= dlogs % p != 0
    return mask


class _GridCounter:
    """The counting kernel.  For one context and one l1 it precomputes the
    l1-free codes and the trace-pair cell (Tr(alpha), Tr(alpha^-1)) of each,
    so the work per f is dropping S, evaluating f and one bincount of the
    cells where f(alpha) is l2-free."""

    def __init__(self, ctx: FieldCtx, l1: int):
        ctx._need_tables()
        self.ctx = ctx
        keep = _free_mask(ctx, ctx.dlog, l1)
        keep[0] = False
        self.codes = np.flatnonzero(keep).astype(np.int64)
        self.cell = (ctx.trace_t[self.codes].astype(np.int64) * ctx.q
                     + ctx.trace_t[ctx.inv_t[self.codes]])

    def grid(self, f: RationalFunction, l2: int) -> np.ndarray:
        """q x q array of counts indexed by the trace pair (a, b)."""
        ctx = self.ctx
        codes, cell = self.codes, self.cell
        S = [c for c in f.excluded_codes() if c]
        if S:
            keep = ~np.isin(codes, np.asarray(S, dtype=np.int64))
            codes, cell = codes[keep], cell[keep]
        fmask = _free_mask(ctx, ctx.dlog[f.varr_eval(codes)], l2)
        return np.bincount(cell[fmask], minlength=ctx.q ** 2).reshape(
            ctx.q, ctx.q)


def _scalar_grid(f: RationalFunction, l1: int, l2: int) -> list:
    """The same q x q grid by one scalar pass over alpha: the path for a
    context without tables, and the oracle the kernel is tested against."""
    ctx = f.ctx
    S = set(f.excluded_codes())
    grid = [[0] * ctx.q for _ in range(ctx.q)]
    for alpha in range(1, ctx.N):
        if alpha in S or not ctx.is_u_free_code(alpha, l1):
            continue
        if ctx.is_u_free_code(f.eval_code(alpha), l2):
            grid[ctx.trace_q(alpha)][ctx.trace_q(ctx.inv(alpha))] += 1
    return grid


@dataclass(frozen=True)
class CountTable:
    """q x q grid of brute-force counts indexed by the trace pair (a, b)."""

    f: RationalFunction
    l1: int
    l2: int
    counts: tuple  # q rows of q ints

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def cell(self, a: int, b: int) -> int:
        return self.counts[a][b]

    def min_cell(self) -> int:
        return min(min(row) for row in self.counts)


def count_table(f: RationalFunction, l1: int, l2: int, *,
                budget: int = DEFAULT_ALPHA_BUDGET) -> CountTable:
    """All q^2 brute-force counts of f in one pass."""
    ctx = f.ctx
    if ctx.N > budget:
        raise EnumerationBudgetExceeded(
            f"field size {ctx.N} exceeds alpha budget {budget}")
    _check_l(ctx, l1)
    _check_l(ctx, l2)
    if ctx.dlog is None:
        grid = _scalar_grid(f, l1, l2)
    else:
        grid = _GridCounter(ctx, l1).grid(f, l2)
    counts = tuple(tuple(int(x) for x in row) for row in grid)
    return CountTable(f, l1, l2, counts)


def brute_force_count(f: RationalFunction, a, b, l1: int, l2: int, *,
                      budget: int = DEFAULT_ALPHA_BUDGET) -> int:
    """#{alpha outside S : alpha l1-free, f(alpha) l2-free, Tr(alpha) = a,
    Tr(alpha^-1) = b}, by direct enumeration."""
    if not (0 <= a < f.ctx.q and 0 <= b < f.ctx.q):
        raise ValueError("a and b must be F_q codes")
    return count_table(f, l1, l2, budget=budget).cell(a, b)


# ---------------------------------------------------------------------------
# pair resolution

@dataclass(frozen=True)
class PairVerdict:
    q: int
    m: int
    n: int
    status: str
    certificate: SieveCertificate | None = None
    witness: dict | None = None
    coverage: str = ""
    seed: int | None = None

    @property
    def in_Qn(self) -> bool | None:
        if self.status in (CERTIFIED_MAIN, CERTIFIED_SIEVE, VERIFIED_EXHAUSTIVE):
            return True
        if self.status == EXCEPTION_WITNESS:
            return False
        return None  # sampled evidence and undecided prove nothing

    def serialize(self) -> dict:
        out = {"q": self.q, "m": self.m, "n": self.n, "status": self.status,
               "coverage": self.coverage}
        if self.certificate is not None:
            out["certificate"] = self.certificate.serialize()
        if self.witness is not None:
            out["witness"] = self.witness
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _first_zero(grid: np.ndarray):
    hits = np.argwhere(grid == 0)
    if len(hits):
        return int(hits[0][0]), int(hits[0][1])
    return None


def resolve_pair(q: int, m: int, n: int, *,
                 alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                 f_budget: int = DEFAULT_F_BUDGET,
                 sample_count: int = DEFAULT_SAMPLE,
                 seed: int = 0,
                 cache: FactorCache | None = None,
                 factor_budget: int = DEFAULT_FACTOR_BUDGET) -> PairVerdict:
    """Cheapest-first membership pipeline for (q, m) in Q_n."""
    p, k = prime_power(q)
    group = factor_qm_minus_1(q, m, cache=cache, budget=factor_budget)
    W = squarefree_divisor_count(group)
    if m >= 5:
        if main_margin(q, m, n, W) > 0:
            return PairVerdict(q, m, n, CERTIFIED_MAIN,
                               coverage=f"main condition with W={W}")
        cert = certificate_search(q, m, n, cache=cache, budget=factor_budget)
        if cert is not None:
            return PairVerdict(
                q, m, n, CERTIFIED_SIEVE, certificate=cert,
                coverage=f"sieve certificate l={int(cert.l_radical)}")
    if q ** m > alpha_budget:
        return PairVerdict(
            q, m, n, UNDECIDED,
            coverage=f"field size {q}^{m} beyond alpha budget {alpha_budget}")
    if q ** m > DLOG_LIMIT:
        return PairVerdict(
            q, m, n, UNDECIDED,
            coverage=f"field size {q}^{m} beyond dlog table limit {DLOG_LIMIT}")
    ctx = build_ctx(p, k, m, cache=cache, factor_budget=factor_budget)
    counter = _GridCounter(ctx, ctx.order)
    exhaustive = sum(count_R(n1, n2, ctx)
                     for n1, n2 in splits_of(n)) <= f_budget
    if not exhaustive and sample_count < 1:
        raise ValueError("sample count must be positive")
    checked = 0
    for n1, n2 in splits_of(n):
        if exhaustive:
            stream = enumerate_R(n1, n2, ctx)
        else:
            stream = enumerate_R(n1, n2, ctx, "sample",
                                 count=sample_count, seed=seed + n1)
        for f in stream:
            checked += 1
            zero = _first_zero(counter.grid(f, ctx.order))
            if zero is not None:
                a, b = zero
                witness = {"f": f.serialize(), "a": a, "b": b,
                           "split": [n1, n2]}
                return PairVerdict(
                    q, m, n, EXCEPTION_WITNESS, witness=witness,
                    coverage=f"zero cell after {checked} representatives",
                    seed=None if exhaustive else seed)
    if exhaustive:
        return PairVerdict(
            q, m, n, VERIFIED_EXHAUSTIVE,
            coverage=f"all {checked} representatives, all trace pairs")
    return PairVerdict(
        q, m, n, VERIFIED_SAMPLED, seed=seed,
        coverage=f"{checked} sampled representatives, all trace pairs")


# ---------------------------------------------------------------------------
# character-sum crosscheck

@dataclass(frozen=True)
class CrosscheckReport:
    ctx_label: str
    trials: int
    seed: int
    max_deviation: float
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.max_deviation < 0.5

    def serialize(self) -> dict:
        return {"ctx": self.ctx_label, "trials": self.trials, "seed": self.seed,
                "max_deviation": self.max_deviation,
                "mismatches": list(self.mismatches)}


def crosscheck_identity(ctx: FieldCtx, trials: int, seed: int) -> CrosscheckReport:
    """Random (f, a, b, l1, l2) tuples: the character-sum count must round
    to the brute-force integer every time."""
    from .characters import ChiPrecompute, count_via_characters
    if trials < 1:
        raise ValueError("trials must be positive")
    ctx._need_tables()
    rng = random.Random(seed)
    divisors = [d for d in range(1, ctx.order + 1) if ctx.order % d == 0]
    max_dev = 0.0
    mismatches = []
    pres: dict[RationalFunction, ChiPrecompute] = {}
    for _ in range(trials):
        n1, n2 = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
        f = _draw_representative(n1, n2, ctx, rng)
        if f not in pres:
            pres[f] = ChiPrecompute(f)
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        l1, l2 = rng.choice(divisors), rng.choice(divisors)
        approx = count_via_characters(f, a, b, l1, l2, pre=pres[f])
        exact = brute_force_count(f, a, b, l1, l2)
        dev = abs(approx - exact)
        max_dev = max(max_dev, dev)
        if round(approx) != exact:
            mismatches.append({"f": f.serialize(), "a": a, "b": b,
                               "l1": l1, "l2": l2,
                               "approx": approx, "exact": exact})
    label = f"F_{ctx.p}^{ctx.k * ctx.m}/F_{ctx.q}"
    return CrosscheckReport(label, trials, seed, max_dev, tuple(mismatches))


# ---------------------------------------------------------------------------
# the exception scan

@dataclass(frozen=True)
class ScanRecord:
    q: int
    m: int
    equality: bool  # main condition failed with exact equality


def scan_exceptions(n: int = 2, *, cache: FactorCache | None = None,
                    budget: int = DEFAULT_FACTOR_BUDGET,
                    progress=None) -> list[ScanRecord]:
    """Every prime power under the threshold cascade whose exact main
    condition fails, ordered by (m, q).  Each of these pairs must then be
    settled by certificate_search or brute force.

    main_margin falls as W = 2**omega grows, so the trial-division bracket
    lo <= omega(q**m - 1) <= hi decides most pairs: margin > 0 at 2**hi
    means the condition holds, margin < 0 at 2**lo means it fails without
    equality.  Only a pair whose bracket straddles margin 0 is factored in
    full (Pollard rho); equality is read only from an exact W."""
    out = []
    cascade = threshold_cascade(n)
    for m in sorted(cascade):
        qmax = cascade[m]
        for q in prime_powers_upto(qmax):
            lo, hi = omega_bounds_qm_minus_1(q, m, cache=cache)
            margin = main_margin(q, m, n, 1 << hi)
            if margin <= 0 and lo < hi:
                margin = main_margin(q, m, n, 1 << lo)
                if margin >= 0:  # the bracket straddles 0: factor in full
                    group = factor_qm_minus_1(q, m, cache=cache,
                                              budget=budget)
                    margin = main_margin(q, m, n,
                                         squarefree_divisor_count(group))
            if margin <= 0:
                out.append(ScanRecord(q, m, margin == 0))
        if progress is not None:
            progress(m, qmax, len(out))
    return out
