"""Brute-force ground truth on explicitly constructed fields.

The bounds layer proves membership in Q_n from inequalities; this layer
earns it the hard way: enumerate representatives of R_{n1,n2}, walk every
alpha, and count.  A representative c * p/q is a row of coefficient codes
from enumerate_R, which yields blocks of rows (the monic pairs scaled by
one c with varr_mul, or a block of seeded draws), to the one counting
kernel.  _draw_rows draws a sample phase by phase from random.Random's
32-bit words: every c, then every p, then every q, with the rows
FieldCtx.irreducible_mask refuses drawn again in one call per round.  A
sample can only find a witness, so its stream is pinned by seed and
count, not matched to any other sampler.  The kernel,
_GridCounter.grids, works on discrete logs (g^k is r-free exactly when r
does not divide k), evaluates a block at every alpha in one 2-D Horner
pass whose step is one Zech-logarithm lookup,
log(g^u + g^v) = v + Z[u - v], with no field addition, and fills its
q x q trace-pair grids with one bincount.  A scalar pass over alpha is the kernel's oracle.
resolve_pair chains the cheap certificates before falling back to
enumeration, counted in slices of about _BLOCK_ALPHAS alpha-entries; and
scan_exceptions regenerates the full list of pairs the main condition
cannot settle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactorCache,
    _divisors_of,
    factor,
    factor_qm_minus_1,
    moebius,
    omega_bounds_row,
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
    EnumerationBudgetExceeded,
    FieldCtx,
    RationalFunction,
    build_ctx,
    check_field,
    find_irreducibles,
)

#: resolve_pair counts, exhaustively or by sampling, up to this field size
DEFAULT_ALPHA_BUDGET = 1 << 20
DEFAULT_F_BUDGET = 10 ** 7  # exhaustive f-loops up to this many representatives
DEFAULT_SAMPLE = 1000
_BLOCK_ALPHAS = 1 << 15  # alpha-entries a block of representatives spans

CERTIFIED_MAIN = "certified_main"
CERTIFIED_SIEVE = "certified_sieve"
EXCEPTION_WITNESS = "exception_witness"
VERIFIED_EXHAUSTIVE = "verified_exhaustive"
VERIFIED_SAMPLED = "verified_sampled"
UNDECIDED = "undecided"


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


def _monic_irreducibles(degree: int, ctx: FieldCtx) -> np.ndarray:
    """Rows of the monic irreducibles of one degree in canonical order;
    degree 0 has the one polynomial 1."""
    polys = [(1,)] if degree == 0 else find_irreducibles(degree, ctx)
    return np.fromiter(polys, dtype=np.dtype((np.int64, degree + 1)))


def enumerate_R(n1: int, n2: int, ctx: FieldCtx, *,
                count: int | None = None, seed: int | None = None):
    """Stream of R_{n1,n2} representatives c * p/q as blocks (num, den) of
    coefficient rows, lowest degree first; the context needs its tables.

    Without count and seed, every representative: the monic pairs (p, q)
    in canonical code order, one block per scale c = 1, ..., N-1, so the
    stream walks c, then numerator, then denominator.  With them, one block
    of `count` representatives from _draw_rows(n1, n2, ctx,
    random.Random(seed), count) (duplicates possible): c uniform in
    [1, N), p and q uniform among the monic irreducibles of their degrees,
    and q != p on the middle split.  The block depends on count as well as
    on seed: a smaller sample is not a prefix of a larger one.
    """
    if n1 == 0 and n2 == 0:
        raise ValueError("degenerate split (0, 0)")
    if (count is None) != (seed is None):
        raise ValueError("sampling needs both count and seed")
    if count is None:
        ps, qs = _monic_irreducibles(n1, ctx), _monic_irreducibles(n2, ctx)
        p = np.repeat(ps, len(qs), axis=0)
        q = np.tile(qs, (len(ps), 1))
        if n1 == n2:
            keep = (p != q).any(axis=1)
            p, q = p[keep], q[keep]
        for c in range(1, ctx.N):
            yield ctx.varr_mul(c, p), q
    else:
        rows = _draw_rows(n1, n2, ctx, random.Random(seed), count)
        c, p, q = np.split(rows, [1, n1 + 2], axis=1)
        yield ctx.varr_mul(c, p), q


# ---------------------------------------------------------------------------
# seeded draws

def _uniform(rng: random.Random, width: int, count: int) -> np.ndarray:
    """`count` values uniform below width (at most 2^32): the top k bits of
    each of rng's next 32-bit words, k = max(1, bit length of width - 1),
    kept in word order where they fall below width."""
    shift = 32 - max(1, (width - 1).bit_length())
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        need = count - len(out)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        v = np.frombuffer(raw, dtype="<u4").astype(np.int64) >> shift
        out = np.concatenate([out, v[v < width]])
    return out


def _monic_rows(d: int, ctx: FieldCtx, rng: random.Random, count: int,
                other: np.ndarray | None = None) -> np.ndarray:
    """`count` monic irreducible rows of degree d, lowest degree first: d
    codes of _uniform(N) a row, and the rows irreducible_mask refuses, or
    that equal their row of `other`, drawn again in row order."""
    rows = np.ones((count, d + 1), dtype=np.int64)
    todo = np.arange(count if d else 0)
    while len(todo):
        low = _uniform(rng, ctx.N, len(todo) * d).reshape(-1, d)
        rows[todo, :d] = low
        bad = ~ctx.irreducible_mask(low)
        if other is not None:
            bad |= (rows[todo] == other[todo]).all(axis=1)
        todo = todo[bad]
    return rows


def _draw_rows(n1: int, n2: int, ctx: FieldCtx, rng: random.Random,
               count: int) -> np.ndarray:
    """`count` rows (c, p, q) of coefficients drawn from rng, p and q monic
    and lowest degree first: every c as 1 + _uniform(N - 1), then every p,
    then every q (again where q = p on the middle split)."""
    if n1 == n2 and count_R(n1, n2, ctx) == 0:
        raise ValueError(f"R_{n1},{n2} has no representatives to draw")
    c = 1 + _uniform(rng, ctx.order, count)
    p = _monic_rows(n1, ctx, rng, count)
    q = _monic_rows(n2, ctx, rng, count, p if n1 == n2 else None)
    return np.column_stack([c, p, q])


# ---------------------------------------------------------------------------
# counting

def _free_residues(ctx: FieldCtx, l: int) -> np.ndarray:
    """True at the discrete logs k = 0..N-2 of the l-free elements g^k: no
    prime of l divides k."""
    free = np.ones(ctx.order, dtype=bool)
    for r in ctx.group_factors.primes:
        if l % r == 0:
            free[::r] = False
    return free


def _zech_logs(ctx: FieldCtx) -> np.ndarray:
    """Zech logarithms Z[t] = dlog(1 + g^t) for t < N-1, as int32, and -1
    at the t with g^t = -1."""
    return ctx.dlog[ctx.add(ctx.exp, 1)].astype(np.int32)


class _GridCounter:
    """The counting kernel for one context and one l1.

    It keeps the L l1-free codes alpha, their discrete logs and the
    trace-pair cell (Tr(alpha), Tr(alpha^-1)) of each.  grids counts a block
    of B representatives of one split in one pass over a B x L array:
    Horner's rule evaluates every numerator and denominator at every alpha
    on discrete logs, f(alpha) is l2-free when log num - log den (mod n,
    n = N-1) is, and one bincount of row * q^2 + cell fills all B grids.

    A Horner step acc * alpha + c is lc + W[acc + log alpha - lc], lc the
    log of c, since log(g^u + g^lc) = lc + Z[u - lc] with the Zech
    logarithms Z[t] = log(1 + g^t).  Logs are not reduced mod n: a nonzero
    value lies in [0, 2n-2], a zero one in [z-n+1, z] with z = -(5n-2),
    and the coefficient 0 has the log -(3n-1).  So s = acc + log alpha - lc
    falls in disjoint regions of W, read at s + 3n-1 with the index clipped:
      acc = 0, c != 0   s <= -4n+1     W = 0, the step gives c
      acc = 0, c = 0    [-3n+2, -n]    W = z + 3n-1, it gives z
      both nonzero      [-n+1, 3n-2]   W = Z[s mod n], or z-n+1 where
                                       g^u = -c, so it gives a zero
      acc != 0, c = 0   [3n-1, 6n-3]   W = (s mod n) + 3n-1: acc * alpha
    The l2 table is read at log num - log den + 2n-1, clipped: both
    nonzero land in [1, 4n-3], and a zero numerator or denominator clips
    to a False end.  That drops the zeros and poles of f in F, which is S
    without 0: an irreducible part of degree >= 2 has no root in F, so for
    a valid f numerator and denominator never vanish together.  W (9n-2
    int32) and one l2 table (4n-1 bools) take 40 bytes per field element.
    """

    def __init__(self, ctx: FieldCtx, l1: int):
        self.ctx = ctx
        n = ctx.order
        self._zero = -(5 * n - 2)
        self._zero_coef = -(3 * n - 1)
        keep = np.zeros(ctx.N, dtype=bool)
        keep[1:] = _free_residues(ctx, l1)[ctx.dlog[1:]]
        self.codes = np.flatnonzero(keep)
        # alpha's log with the offset of s in W folded in
        self._dlog_alpha = (ctx.dlog[self.codes] + 3 * n - 1).astype(np.int32)
        self.cell = (ctx.trace_t[self.codes] * ctx.q
                     + ctx.trace_t[ctx.inv_t[self.codes]])
        # W[s + 3n-1]: Z four times from s = -n, the ends overwritten
        zech = _zech_logs(ctx)
        zech[zech < 0] = self._zero - n + 1
        step = self._step = np.empty(9 * n - 2, dtype=np.int32)
        step[2 * n - 1:6 * n - 1].reshape(4, n)[:] = zech
        step[0] = 0
        step[1:2 * n] = self._zero - self._zero_coef
        step[6 * n - 2:].reshape(3, n)[:] = np.arange(3 * n - 1, 4 * n - 1)
        self._l2_tables: dict[int, np.ndarray] = {}
        self._rows = np.empty((0, len(self.codes)), dtype=np.int64)

    def _l2_table(self, l2: int) -> np.ndarray:
        """l2-freeness of f(alpha) at log num - log den + 2n-1: entry i is
        that of the residue i + 1 (mod n), and the two ends are False."""
        table = self._l2_tables.get(l2)
        if table is None:
            free = np.tile(_free_residues(self.ctx, l2), 4)[1:]
            free[[0, -1]] = False
            self._l2_tables[l2] = table = free
        return table

    def _horner(self, coeffs: np.ndarray) -> tuple:
        """(w, c): the logs of the polynomials in the rows of coeffs (lowest
        degree first) at every counted alpha are w + c, w a B x L block
        (None for a constant) and c the column of constant-term logs."""
        logs = np.where(coeffs == 0, self._zero_coef,
                        self.ctx.dlog[coeffs]).astype(np.int32)
        w, c = None, np.where(coeffs[:, -1:] == 0, self._zero, logs[:, -1:])
        for j in range(coeffs.shape[1] - 2, -1, -1):
            s = self._dlog_alpha + (c - logs[:, j:j + 1])
            if w is not None:
                s += w
            w, c = self._step.take(s, mode="clip"), logs[:, j:j + 1]
        return w, c

    def grids(self, num, den, l2: int) -> np.ndarray:
        """B x q x q counts indexed by the trace pair (a, b), one grid per
        representative: row i of num and den holds the coefficients of its
        numerator and denominator, lowest degree first."""
        q, b = self.ctx.q, len(num)
        wn, cn = self._horner(np.asarray(num))
        wd, cd = self._horner(np.asarray(den))
        u = cn - cd + (2 * self.ctx.order - 1)
        if wn is not None:
            u = u + wn
        if wd is not None:
            u = u - wd
        free = self._l2_table(l2).take(u, mode="clip")
        if len(self._rows) < b:  # bincount offsets of the largest block
            self._rows = np.arange(b)[:, None] * q * q + self.cell
        rows = self._rows[:b]
        # compress: several times faster here than rows[free]
        return np.bincount(rows.compress(free.ravel()),
                           minlength=b * q * q).reshape(b, q, q)


def _scalar_grid(f: RationalFunction, l1: int, l2: int) -> list:
    """The same q x q grid by one scalar pass over alpha: the oracle the
    kernel is tested against."""
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


def count_table(f: RationalFunction, l1: int, l2: int) -> CountTable:
    """All q^2 brute-force counts of f in one pass."""
    ctx = f.ctx
    ctx.check_divisor(l1)
    ctx.check_divisor(l2)
    grid = _GridCounter(ctx, l1).grids([f.num], [f.den], l2)[0]
    counts = tuple(tuple(int(x) for x in row) for row in grid)
    return CountTable(f, l1, l2, counts)


def brute_force_count(f: RationalFunction, a, b, l1: int, l2: int) -> int:
    """#{alpha outside S : alpha l1-free, f(alpha) l2-free, Tr(alpha) = a,
    Tr(alpha^-1) = b}, by direct enumeration."""
    if not (0 <= a < f.ctx.q and 0 <= b < f.ctx.q):
        raise ValueError("a and b must be F_q codes")
    return count_table(f, l1, l2).cell(a, b)


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


def resolve_pair(q: int, m: int, n: int, *,
                 alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                 sample_count: int = DEFAULT_SAMPLE,
                 seed: int = 0,
                 cache: FactorCache | None = None,
                 factor_budget: int = DEFAULT_FACTOR_BUDGET) -> PairVerdict:
    """Cheapest-first membership pipeline for (q, m) in Q_n: the main
    condition, a sieve certificate, then a count over F_{q^m}, undecided
    past alpha_budget or DLOG_LIMIT (2^22) field elements and sampled,
    sample_count per split, past DEFAULT_F_BUDGET (10^7) representatives."""
    if sample_count < 1:
        raise ValueError("sample count must be positive")
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
                     for n1, n2 in splits_of(n)) <= DEFAULT_F_BUDGET
    if not exhaustive and sample_count > DEFAULT_F_BUDGET:
        raise EnumerationBudgetExceeded(
            f"sample count {sample_count} exceeds f budget {DEFAULT_F_BUDGET}")
    block = max(1, _BLOCK_ALPHAS // len(counter.codes))
    checked = 0
    for n1, n2 in splits_of(n):
        stream = (enumerate_R(n1, n2, ctx) if exhaustive else
                  enumerate_R(n1, n2, ctx, count=sample_count,
                              seed=seed + n1))
        for nums, dens in stream:
            for lo in range(0, len(nums), block):
                num, den = nums[lo:lo + block], dens[lo:lo + block]
                # (row, a, b) in lexicographic order: the first
                # representative in stream order with a zero cell, at its
                # first zero cell
                zeros = np.argwhere(counter.grids(num, den, ctx.order) == 0)
                if not len(zeros):
                    checked += len(num)
                    continue
                i, a, b = (int(x) for x in zeros[0])
                checked += i + 1
                f = RationalFunction(ctx, num[i].tolist(), den[i].tolist(),
                                     check=False)
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


def check_crosscheck(p: int, k: int, m: int, trials: int,
                     budget: int) -> None:
    """Refuse a crosscheck over F_{(p^k)^m} before any field is built: a
    field FieldCtx would refuse, no trials, or psi-hat matrices of
    q^2 N = p^(k(m+2)) entries each above the budget."""
    check_field(p, k, m)
    if trials < 1:
        raise ValueError("trials must be positive")
    entries = p ** (k * (m + 2))
    if entries > budget:
        raise EnumerationBudgetExceeded(
            f"q^2 * N = {entries} character-sum entries exceed alpha budget "
            f"{budget}")


def crosscheck_identity(ctx: FieldCtx, trials: int, seed: int, *,
                        budget: int = DEFAULT_ALPHA_BUDGET) -> CrosscheckReport:
    """Random (f, a, b, l1, l2) tuples: the character-sum count must round
    to the brute-force integer every time.  Refused when q^2 N, the entry
    count of each f's psi-hat matrix, exceeds the budget."""
    from .characters import ChiPrecompute, count_via_characters
    check_crosscheck(ctx.p, ctx.k, ctx.m, trials, budget)
    rng = random.Random(seed)
    divisors = _divisors_of(ctx.order)
    max_dev = 0.0
    mismatches = []
    pres: dict[RationalFunction, ChiPrecompute] = {}
    for _ in range(trials):
        n1, n2 = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
        (c, *pq), = _draw_rows(n1, n2, ctx, rng, 1).tolist()
        f = RationalFunction(ctx, [ctx.mul(c, x) for x in pq[:n1 + 1]],
                             pq[n1 + 1:], check=False)
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
                    budget: int = DEFAULT_FACTOR_BUDGET) -> list[ScanRecord]:
    """Every prime power under the threshold cascade whose exact main
    condition fails, ordered by (m, q).  Each of these pairs must then be
    settled by certificate_search or brute force.

    main_margin falls as W = 2**omega grows, so the bracket
    lo <= omega(q**m - 1) <= hi of omega_bounds_row, walked one row of m
    at a time, decides most pairs: margin > 0 at 2**hi means the
    condition holds, margin < 0 at 2**lo means it fails without equality.
    The bracket proves no cofactor prime.  Only for a pair whose bracket
    straddles margin 0 is omega found exactly, right after its bracket, so
    cache reads and writes keep their order: the row's exact(budget) reads
    the split the bracket came from, proves each cofactor of at least
    TRIAL_LIMIT**2 prime or composite, counts a composite one with no
    prime up to its cube root as two primes, and factors a part by
    Pollard rho only when it cannot.  Equality is read only from an exact
    W."""
    out = []
    for m, qmax in sorted(threshold_cascade(n).items()):
        qs = prime_powers_upto(qmax)
        for q, (lo, hi, exact) in zip(qs, omega_bounds_row(qs, m, cache=cache)):
            margin = main_margin(q, m, n, 1 << hi)
            if margin <= 0 and lo < hi:
                margin = main_margin(q, m, n, 1 << lo)
                if margin >= 0:  # the bracket straddles 0: omega exactly
                    margin = main_margin(q, m, n, 1 << exact(budget))
            if margin <= 0:
                out.append(ScanRecord(q, m, margin == 0))
    return out
