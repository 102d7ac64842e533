"""Ground-truth layer: R_{n1,n2} enumeration, brute-force counts against a
scalar recount, grid invariants, the resolve_pair pipeline, and the
character-sum crosscheck."""

import hashlib
import json
import random

import numpy as np
import pytest

from primpairs import arith, verify as V
from primpairs.arith import (
    FactorCache,
    euler_phi,
    factor_qm_minus_1,
)
from primpairs.bounds import main_margin
from primpairs.characters import ChiPrecompute, count_via_characters
from primpairs.ff import (
    RationalFunction,
    build_ctx,
    find_irreducibles,
    is_irreducible_poly,
    poly_eval,
)
from primpairs.refdata import load_certificate_rows
from primpairs.verify import (
    CountTable,
    EnumerationBudgetExceeded,
    brute_force_count,
    count_R,
    count_table,
    crosscheck_identity,
    enumerate_R,
    resolve_pair,
    splits_of,
)


def functions(ctx, stream):
    """The rows of an enumerate_R stream as RationalFunctions, in order."""
    return [RationalFunction(ctx, n.tolist(), d.tolist(), check=False)
            for num, den in stream for n, d in zip(num, den)]


@pytest.fixture(scope="module")
def F4():
    return build_ctx(2, 2, 1)


@pytest.fixture(scope="module")
def F4_over_F2():
    return build_ctx(2, 1, 2)


@pytest.fixture(scope="module")
def F9():
    return build_ctx(3, 1, 2)


@pytest.fixture(scope="module")
def F64():
    return build_ctx(2, 1, 6)


@pytest.fixture(scope="module")
def F64_over_F4():
    return build_ctx(2, 2, 3)  # F_q an extension field: q = 4, m = 3


@pytest.fixture(scope="module")
def F81():
    return build_ctx(3, 1, 4)


# -- splits and representative counts ---------------------------------------

def test_splits_of():
    assert splits_of(2) == [(2, 0), (1, 1), (0, 2)]
    assert splits_of(1) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        splits_of(0)


def test_count_R_over_F4(F4):
    assert count_R(1, 1, F4) == 36
    assert count_R(2, 0, F4) == 18
    assert count_R(0, 2, F4) == 18
    with pytest.raises(ValueError):
        count_R(0, 0, F4)


# -- enumeration ------------------------------------------------------------

def test_enumerate_exhaustive_counts_match(F4):
    for n1, n2 in [(1, 1), (2, 0), (0, 2)]:
        reps = functions(F4, enumerate_R(n1, n2, F4))
        assert len(reps) == count_R(n1, n2, F4)
        assert len({(f.num, f.den) for f in reps}) == len(reps)


@pytest.mark.parametrize("pkm", [(2, 1, 4), (2, 2, 2), (3, 1, 2)])
def test_enumerate_rows_equal_nested_scalar_enumeration(pkm):
    # F_16 over F_2 and over F_4, and F_9: the blocks, read in order, are
    # the loops over c, then p, then q, scaled with the scalar mul
    ctx = build_ctx(*pkm)
    for n1, n2 in splits_of(2):
        ps = [(1,)] if n1 == 0 else list(find_irreducibles(n1, ctx))
        qs = [(1,)] if n2 == 0 else list(find_irreducibles(n2, ctx))
        want = [(tuple(ctx.mul(c, x) for x in p), q)
                for c in range(1, ctx.N) for p in ps for q in qs
                if not (n1 == n2 and p == q)]
        got = [(tuple(n), tuple(d)) for num, den in enumerate_R(n1, n2, ctx)
               for n, d in zip(num.tolist(), den.tolist())]
        assert got == want
        assert len(got) == count_R(n1, n2, ctx)


def test_enumerate_order_is_canonical(F4):
    reps = functions(F4, enumerate_R(1, 1, F4))
    assert reps[0].label() == "(x)/(x + 1)"
    assert reps[-1].label() == "(3*x + 2)/(x + 2)"
    # scale is the outermost loop
    scales = [f.scale for f in reps]
    assert scales == sorted(scales)


def test_enumerate_representatives_validate(F4):
    for f in functions(F4, enumerate_R(1, 1, F4)):
        RationalFunction(F4, f.num, f.den)  # check=True must not raise
    for f in functions(F4, enumerate_R(2, 0, F4)):
        RationalFunction(F4, f.num, f.den)


def test_enumerate_rejects(F4):
    with pytest.raises(ValueError):
        next(enumerate_R(0, 0, F4))
    with pytest.raises(ValueError):
        next(enumerate_R(1, 1, F4, count=5))  # seed missing


def test_sampling_is_reproducible(F9):
    a, b, c = ([f.serialize() for f in functions(
        F9, enumerate_R(1, 1, F9, count=30, seed=seed))] for seed in (1, 1, 2))
    assert a == b
    assert a != c
    assert len(a) == 30


def test_sampled_representatives_validate(F64):
    for n1, n2 in [(1, 1), (2, 0), (0, 2)]:
        for f in functions(F64, enumerate_R(n1, n2, F64, count=10, seed=5)):
            assert f.degrees == (n1, n2)
            RationalFunction(F64, f.num, f.den)


def _contract_rows(n1, n2, F, rng, count):
    """The draw contract read one generator word at a time, over a context
    or its TabledField F: the oracle _draw_rows is tested against.  A value
    below width is the top k bits of a 32-bit word, k = max(1, bit length of
    width - 1), and a word that is not below width is skipped; a round
    draws every row still open, and a row is open again when the scalar
    is_irreducible_poly refuses it or it equals p on the middle split."""
    def uniform(width):
        k = max(1, (width - 1).bit_length())
        while (v := rng.getrandbits(32) >> (32 - k)) >= width:
            pass
        return v

    def monic(d, other):
        rows, todo = [(1,)] * count, list(range(count)) if d else []
        while todo:
            for i in todo:
                rows[i] = tuple(uniform(F.N) for _ in range(d)) + (1,)
            todo = [i for i in todo if not is_irreducible_poly(F, rows[i])
                    or other is not None and rows[i] == other[i]]
        return rows

    c = [1 + uniform(F.N - 1) for _ in range(count)]
    p = monic(n1, None)
    q = monic(n2, p if n1 == n2 else None)
    return [[ci, *pi, *qi] for ci, pi, qi in zip(c, p, q)]


@pytest.mark.parametrize("pkm, counts", [
    ((2, 1, 1), (1, 2, 1000)), ((2, 2, 1), (1, 2, 1000)),
    ((3, 1, 2), (1, 2, 1000)), ((3, 2, 2), (1, 2, 1000)),
    ((2, 1, 12), (1, 2, 50))])
def test_draw_rows_follow_the_word_contract(pkm, counts, scalar_field):
    # same rows and same final generator state as the scalar reading, on
    # every split of n = 2 and n = 3: F_2 still spends words on c in
    # [1, 2), F_{2^12} draws cubics; every c is in [1, N), p and q are
    # monic, irreducible and of their degrees, and p != q on middle splits
    ctx = build_ctx(*pkm)
    F = scalar_field(ctx)
    for n1, n2 in splits_of(2) + splits_of(3):
        for count in counts:
            seed = 100 * n1 + 10 * n2 + count
            got, want = random.Random(seed), random.Random(seed)
            rows = V._draw_rows(n1, n2, ctx, got, count).tolist()
            assert rows == _contract_rows(n1, n2, F, want, count), (
                n1, n2, count)
            assert got.getstate() == want.getstate()
            for c, *pq in rows:
                p, q = tuple(pq[:n1 + 1]), tuple(pq[n1 + 1:])
                assert 1 <= c < ctx.N
                assert len(q) == n2 + 1 and p[-1] == q[-1] == 1
                assert all(0 <= x < ctx.N for x in pq)
                assert n1 == 0 or is_irreducible_poly(F, p)
                assert n2 == 0 or is_irreducible_poly(F, q)
                assert n1 != n2 or p != q


def test_draw_rows_continue_a_shared_generator(F9):
    # crosscheck_identity interleaves one-row draws with its own calls on
    # the same generator: the draws are the contract's, and the interleaved
    # stream is the same at the same seed
    def stream(rng, draw):
        out = []
        for n1, n2 in [(1, 1), (2, 0), (0, 2), (1, 1), (2, 0)] * 4:
            out.append(rng.randrange(9))
            out.append(draw(n1, n2, rng))
        return out

    def rows(n1, n2, rng):
        return V._draw_rows(n1, n2, F9, rng, 1).tolist()

    got, again, want = random.Random(3), random.Random(3), random.Random(3)
    assert stream(got, rows) == stream(again, rows) == stream(
        want, lambda n1, n2, rng: _contract_rows(n1, n2, F9, rng, 1))
    assert got.getstate() == want.getstate()


def test_draw_rows_are_uniform_on_F4(F4):
    # fixed-seed chi-square against uniform: the 6 monic irreducible
    # quadratics over F_4 and the 3 values of c, at the 0.1 % critical
    # values of 5 and 2 degrees of freedom
    rows = V._draw_rows(2, 0, F4, random.Random(0), 6000)
    quads = list(find_irreducibles(2, F4))
    assert len(quads) == 6

    def chi2(values, cells):
        seen = dict.fromkeys(cells, 0)
        for v in values:
            seen[v] += 1
        expect = len(values) / len(cells)
        return sum((n - expect) ** 2 / expect for n in seen.values())

    assert chi2([tuple(r) for r in rows[:, 1:4].tolist()], quads) < 20.52
    assert chi2(rows[:, 0].tolist(), [1, 2, 3]) < 13.82


def test_draw_rows_refuse_an_empty_split():
    # over F_2 there is one irreducible quadratic, so no p/q of split (2, 2)
    with pytest.raises(ValueError, match="no representatives"):
        next(enumerate_R(2, 2, build_ctx(2, 1, 1), count=1, seed=0))


def test_sampled_draw_stream_is_pinned():
    # every sampled verdict is verified_sampled whatever its rows, so the
    # rows themselves are pinned: 1000 draws per split at seeds 0 and 1 on
    # the sampled fields, F_{9^2} and F_{5^3} (n = 2), and the cubic splits
    # of F_{2^12} and F_{2^7}.  The digest was taken from the rows of
    # _contract_rows, the word-at-a-time reading of the draw contract.
    fields = [(q, 1, m) for q, m in SAMPLED_PAIRS]  # every q is prime
    cases = ([(pkm, s) for pkm in fields + [(3, 2, 2), (5, 1, 3)]
              for s in splits_of(2)]
             + [((2, 1, m), s) for m in (12, 7) for s in ((3, 0), (0, 3))])
    h = hashlib.sha256()
    for pkm, (n1, n2) in cases:
        ctx = build_ctx(*pkm)
        for seed in (0, 1):
            (num, den), = enumerate_R(n1, n2, ctx, count=1000, seed=seed)
            h.update(np.asarray(num, dtype="<i8").tobytes())
            h.update(np.asarray(den, dtype="<i8").tobytes())
    assert h.hexdigest() == (
        "fb0ce202fc3547ad7f40628c8e6b4589a84cb538fc0a547dd2798f3bb41b2349")


# -- brute-force counts -----------------------------------------------------

def test_hand_checked_trace_pairs_on_F4(F4_over_F2):
    # f = x/1, l1 = l2 = 1: pure trace-pair counting over the 3 nonzero
    # elements; only alpha = 1 has Tr(alpha) = Tr(alpha^-1) = 0
    f = RationalFunction(F4_over_F2, (0, 1), (1,))
    assert brute_force_count(f, 0, 0, 1, 1) == 1
    assert brute_force_count(f, 1, 1, 1, 1) == 2
    assert brute_force_count(f, 0, 1, 1, 1) == 0
    assert brute_force_count(f, 1, 0, 1, 1) == 0


def test_vector_path_equals_scalar_path(F9, F64, F64_over_F4):
    # the kernel's full grid against the scalar oracle for every divisor
    # pair (l1, l2), on sampled f of each split of n = 2
    for ctx in (F9, F64, F64_over_F4):
        divs = [d for d in range(1, ctx.N) if ctx.order % d == 0]
        for n1, n2 in ((1, 1), (2, 0), (0, 2)):
            f, = functions(ctx, enumerate_R(n1, n2, ctx, count=1, seed=n1))
            for l1 in divs:
                for l2 in divs:
                    assert (count_table(f, l1, l2).counts
                            == tuple(map(tuple, V._scalar_grid(f, l1, l2))))


def test_count_rejects(F9):
    f = RationalFunction(F9, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        brute_force_count(f, 0, 0, 3, 8)  # 3 does not divide 8
    with pytest.raises(ValueError):
        brute_force_count(f, 0, 3, 8, 8)  # b outside F_q


def test_l_monotonicity(F64):
    # u-free sets shrink as u grows: fix f and (a,b), walk divisor chains
    f = RationalFunction(F64, (1, 1), (3, 1))
    for a in range(2):
        for b in range(2):
            for chain in ([1, 3, 9, 63], [1, 7, 21, 63]):
                counts = [brute_force_count(f, a, b, l, 63) for l in chain]
                assert counts == sorted(counts, reverse=True)
                counts = [brute_force_count(f, a, b, 63, l) for l in chain]
                assert counts == sorted(counts, reverse=True)


def test_partition_over_trace_pairs(F9, F64):
    # summing the grid kills the trace conditions: total = #{alpha outside
    # S, l1-free, f(alpha) l2-free}, recounted here without the grid
    for ctx, l1, l2 in ((F9, 8, 4), (F64, 63, 21)):
        f = RationalFunction(ctx, (1, 1), (0, 1))  # (x+1)/x
        total = sum(brute_force_count(f, a, b, l1, l2)
                    for a in range(ctx.q) for b in range(ctx.q))
        S = set(f.excluded_codes())
        direct = sum(
            1 for alpha in range(1, ctx.N)
            if alpha not in S
            and ctx.is_u_free_code(alpha, l1)
            and ctx.is_u_free_code(f.eval_code(alpha), l2))
        assert total == direct


def test_scaling_keeps_counts_within_phi(F64):
    # c*f shares S with f but counts may differ; both stay under phi
    phi = euler_phi(F64.group_factors)
    f = RationalFunction(F64, (1, 0, 1), (1,), check=False)
    g = RationalFunction(F64, tuple(F64.mul(5, c) for c in f.num), (1,),
                         check=False)
    t_f = count_table(f, 63, 63)
    t_g = count_table(g, 63, 63)
    assert f.excluded_codes() == g.excluded_codes()
    assert t_f.total <= phi and t_g.total <= phi
    assert max(t_f.min_cell(), t_g.min_cell()) >= 0
    # deterministic recomputation
    assert count_table(f, 63, 63).counts == t_f.counts


# -- count tables -----------------------------------------------------------

def test_count_table_matches_per_cell(F9):
    f = RationalFunction(F9, (0, 1), (1, 1))
    table = count_table(f, 8, 8)
    for a in range(3):
        for b in range(3):
            assert table.cell(a, b) == brute_force_count(f, a, b, 8, 8)
    assert table.total == sum(sum(r) for r in table.counts)
    assert table.min_cell() == min(min(r) for r in table.counts)


def test_count_table_primitive_caps(F64):
    phi = euler_phi(F64.group_factors)
    f = RationalFunction(F64, (1, 1), (3, 1))
    table = count_table(f, 63, 63)
    assert all(v <= phi for row in table.counts for v in row)
    assert table.total <= phi


def test_grid_counter_agrees_with_count_table(F9, F64):
    # one counter reused across f, as resolve_pair uses it, matches the
    # fresh counter count_table builds per call
    for ctx in (F9, F64):
        for l1 in (1, ctx.order):
            counter = V._GridCounter(ctx, l1)
            for f in functions(ctx, enumerate_R(1, 1, ctx, count=5,
                                                seed=11)):
                for l2 in (1, ctx.order):
                    table = count_table(f, l1, l2)
                    assert (counter.grids([f.num], [f.den], l2)[0].tolist()
                            == [list(r) for r in table.counts])


@pytest.mark.parametrize("pkm", [(2, 1, 4), (2, 2, 2)])
def test_grids_equal_scalar_oracle_on_all_of_F16(pkm):
    # every representative of every split of n = 2, in blocks of 97 so
    # that blocks straddle the scalings c
    ctx = build_ctx(*pkm)
    counter = V._GridCounter(ctx, ctx.order)
    seen = 0
    for n1, n2 in splits_of(2):
        nums, dens = map(np.concatenate, zip(*enumerate_R(n1, n2, ctx)))
        fs = functions(ctx, [(nums, dens)])
        for lo in range(0, len(fs), 97):
            grids = counter.grids(nums[lo:lo + 97], dens[lo:lo + 97],
                                  ctx.order)
            for f, grid in zip(fs[lo:lo + 97], grids.tolist()):
                assert grid == V._scalar_grid(f, ctx.order, ctx.order)
        seen += len(fs)
    assert seen == sum(count_R(n1, n2, ctx) for n1, n2 in splits_of(2))


def _edge_functions(ctx):
    """Valid f whose evaluation reaches a zero coefficient (x, x^2 + c0),
    the Zech table's zero entry (x + 1 at alpha = -1 = g^(n/2)) and an
    intermediate zero of Horner's rule (x^2 + x + c0 at alpha = -1)."""
    minus_one = ctx.neg(1)
    rows = [((0, 1), (1,)), ((1,), (0, 1)), ((0, 1), (1, 1)),
            ((1, 1), (0, 1)), ((1, 1), (1,)), ((1,), (1, 1)),
            ((0, minus_one), (1, 1)), ((5 % ctx.N, 5 % ctx.N), (0, 1))]
    for c1 in (0, 1):
        c0 = next((c for c in range(1, ctx.N)
                   if not ctx.quad_reducible_mask(c, c1)), None)
        if c0 is None:
            continue  # no x^2 + c0 is irreducible in characteristic 2
        quad = (c0, c1, 1)
        rows += [(quad, (1,)), ((1,), quad), (quad, (0, 1)), ((0, 1), quad),
                 (quad, (1, 1)), ((1, 1), quad),
                 (tuple(ctx.mul(minus_one, x) for x in quad), (1,))]
    return [RationalFunction(ctx, num, den) for num, den in rows]


@pytest.mark.parametrize("pkm", [(3, 1, 2), (2, 1, 6), (3, 1, 4), (2, 2, 3),
                                 (5, 1, 2), (7, 1, 2), (3, 2, 2)])
def test_grids_equal_scalar_oracle_on_samples(pkm):
    # F_9, F_64, F_{3^4}, F_{4^3}, F_25, F_49 and F_{9^2}; l1 and l2 each
    # 1, a prime divisor of the group order, and the order itself; seeded
    # draws of every split, then the edge rows one at a time
    ctx = build_ctx(*pkm)
    ls = (1, ctx.group_factors.primes[-1], ctx.order)
    for l1 in ls:
        counter = V._GridCounter(ctx, l1)
        for n1, n2 in splits_of(2) + splits_of(1):
            (num, den), = enumerate_R(n1, n2, ctx, count=6,
                                      seed=10 * n1 + n2)
            fs = functions(ctx, [(num, den)])
            for l2 in ls:
                for f, grid in zip(fs, counter.grids(num, den, l2).tolist()):
                    assert grid == V._scalar_grid(f, l1, l2)
        for f in _edge_functions(ctx):
            for l2 in ls:
                grid, = counter.grids([f.num], [f.den], l2).tolist()
                assert grid == V._scalar_grid(f, l1, l2), (f, l1, l2)


ZECH_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 1, 4), (2, 2, 3), (3, 1, 2),
               (3, 1, 4), (5, 1, 2), (7, 1, 2), (3, 2, 2)]


@pytest.mark.parametrize("pkm", ZECH_FIELDS)
def test_zech_logs_add_one(pkm):
    # exp[Z[t]] = g^t + 1, and the one t with g^t = -1 has no log: t = n/2
    # for odd p, t = 0 in characteristic 2
    ctx = build_ctx(*pkm)
    n = ctx.order
    zech = V._zech_logs(ctx)
    assert zech.shape == (n,)
    assert np.flatnonzero(zech < 0).tolist() == [n // 2 if ctx.p > 2 else 0]
    t = np.flatnonzero(zech >= 0)
    assert (ctx.exp[zech[t]] == ctx.add(ctx.exp[t], 1)).all()


@pytest.mark.parametrize("pkm", ZECH_FIELDS)
def test_horner_logs_equal_scalar_evaluation(pkm):
    # polynomials of degree 0..4 with many zero coefficients, zero leading
    # coefficients and intermediate zeros included: w + c is the log of
    # p(alpha) mod n in [0, 2n-2], or lies in the zero range [z-n+1, z]
    ctx = build_ctx(*pkm)
    n, counter = ctx.order, V._GridCounter(ctx, 1)
    rng = np.random.default_rng(sum(pkm))
    alphas = counter.codes.tolist()
    for d in range(5):
        coeffs = rng.integers(0, ctx.N, size=(40, d + 1))
        coeffs[rng.random(coeffs.shape) < 0.4] = 0
        coeffs[:3] = [1] + [0] * d, [ctx.neg(1)] * (d + 1), [1] * (d + 1)
        w, c = counter._horner(coeffs)
        logs = np.broadcast_to(c if w is None else w + c,
                               (len(coeffs), len(alphas)))
        for row, got in zip(coeffs.tolist(), logs.tolist()):
            for alpha, log in zip(alphas, got):
                value = poly_eval(ctx, row, alpha)
                if value == 0:
                    assert counter._zero - n < log <= counter._zero
                else:
                    assert 0 <= log <= 2 * n - 2
                    assert log % n == ctx.dlog[value]


# -- resolve_pair -----------------------------------------------------------

def test_resolve_certified_main():
    v = resolve_pair(2, 100, 2)
    assert v.status == "certified_main"
    assert v.in_Qn is True
    assert "W=4096" in v.coverage
    assert v.certificate is None


def test_resolve_certified_sieve_matches_reference():
    v = resolve_pair(32, 7, 2)
    assert v.status == "certified_sieve"
    assert int(v.certificate.l_radical) == 1
    row = next(r for r in load_certificate_rows() if r.m == 7 and r.q == 32)
    assert row.l == 1 and v.certificate.s == row.s

    v16 = resolve_pair(4, 16, 2)
    row16 = next(r for r in load_certificate_rows() if r.m == 16 and r.q == 4)
    assert v16.status == "certified_sieve"
    assert int(v16.certificate.l_radical) == row16.l == 3
    assert v16.certificate.s == row16.s


def test_resolve_verified_exhaustive():
    v = resolve_pair(2, 5, 1)
    assert v.status == "verified_exhaustive"
    assert v.in_Qn is True
    assert "1984" in v.coverage
    assert v.seed is None


def test_resolve_exhaustive_gate():
    # (2,5) for n = 2: every representative, no zero cell
    v = resolve_pair(2, 5, 2)
    assert v.status == "verified_exhaustive"
    assert v.coverage == "all 61504 representatives, all trace pairs"


def test_resolve_exhaustive_cubic_splits():
    # n = 3 walks every monic irreducible cubic over F_{2^5}
    v = resolve_pair(2, 5, 3)
    assert v.status == "verified_exhaustive"
    assert v.coverage == "all 1660608 representatives, all trace pairs"


@pytest.mark.parametrize("q, m, num", [(2, 4, [1, 0, 1, 1]),
                                       (3, 3, [1, 0, 3, 1])])
def test_resolve_cubic_witnesses_are_pinned(q, m, num):
    v = resolve_pair(q, m, 3)
    assert v.status == "exception_witness"
    assert v.witness == {"f": {"num": num, "den": [1]},
                         "a": 0, "b": 0, "split": [3, 0]}


def test_resolve_verdicts_do_not_depend_on_block_size(monkeypatch):
    # blocks of 1 and of 7 representatives give the default run's
    # verdict, witness and "zero cell after k representatives"
    for q, m in ((2, 5), (2, 6), (3, 4), (4, 3), (3, 5)):
        want = resolve_pair(q, m, 2).serialize()
        L = euler_phi(factor_qm_minus_1(q, m))  # alpha-entries per row
        for block in (1, 7):
            monkeypatch.setattr(V, "_BLOCK_ALPHAS", block * L)
            assert resolve_pair(q, m, 2).serialize() == want
        monkeypatch.undo()


def test_resolve_exception_witness_is_deterministic():
    # m = 6 sits below the theory's reach, so the pipeline goes straight
    # from failed certificates to enumeration and meets a zero cell on the
    # canonically first representative
    v = resolve_pair(2, 6, 2)
    assert v.status == "exception_witness"
    assert v.in_Qn is False
    assert v.witness == {"f": {"num": [1, 3, 1], "den": [1]},
                         "a": 0, "b": 0, "split": [2, 0]}
    ctx = build_ctx(2, 1, 6)
    f = RationalFunction(ctx, v.witness["f"]["num"], v.witness["f"]["den"])
    assert brute_force_count(f, 0, 0, ctx.order, ctx.order) == 0
    assert resolve_pair(2, 6, 2).serialize() == v.serialize()


def test_resolve_small_m_skips_certificates():
    v = resolve_pair(4, 3, 2)
    assert v.status == "exception_witness"
    assert v.certificate is None


def test_resolve_sampled_is_reproducible():
    a = resolve_pair(3, 7, 2, sample_count=40, seed=9)
    b = resolve_pair(3, 7, 2, sample_count=40, seed=9)
    assert a.status == "verified_sampled"
    assert a.in_Qn is None
    assert a.seed == 9
    assert a.serialize() == b.serialize()


def test_resolve_refuses_a_sample_count_above_the_f_budget(monkeypatch):
    # 10**9 draws would need a 10**9 x 5 int64 array before the first row
    def unexpected(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(V, "_draw_rows", unexpected)
    with pytest.raises(EnumerationBudgetExceeded, match="sample count"):
        resolve_pair(2, 8, 2, sample_count=10 ** 9)
    monkeypatch.setattr(V, "DEFAULT_F_BUDGET", 100)
    with pytest.raises(EnumerationBudgetExceeded):
        resolve_pair(2, 8, 2, sample_count=101)


SAMPLED_PAIRS = ((2, 8), (2, 9), (3, 7), (2, 10), (2, 11), (2, 12))


def test_sampled_verdicts_are_pinned():
    # the unresolved pairs the benchmark samples, 1000 draws per split at
    # seed 0: a kernel change must not move a verdict, a coverage count or
    # a witness.  The digest was taken before the Zech-logarithm kernel.
    blob = json.dumps([resolve_pair(q, m, 2, seed=0,
                                    sample_count=1000).serialize()
                       for q, m in SAMPLED_PAIRS], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c4afae2215c0e997b0ac1005775997d2b425de5d5a3bb3817e5d62fd22aaa3bd")


def test_resolve_undecided_beyond_alpha_budget():
    v = resolve_pair(2, 24, 2)  # sieve fails and 2^24 exceeds the budget
    assert v.status == "undecided"
    assert v.in_Qn is None
    assert "budget" in v.coverage

    w = resolve_pair(3, 7, 2, alpha_budget=1000)
    assert w.status == "undecided"

    # inside a raised alpha budget but above the dlog table limit (2^22):
    # undecided, not a table-free context handed to the kernel
    x = resolve_pair(64, 4, 2, alpha_budget=1 << 25)
    assert x.status == "undecided"
    assert "dlog table limit" in x.coverage

    # the n = 2 pairs with 2^20 < q^m <= 2^22: a dlog table would fit, but
    # the default alpha budget stops them first
    for q, m in ((8, 7), (5, 9)):
        assert V.DEFAULT_ALPHA_BUDGET < q ** m <= V.DLOG_LIMIT
        assert resolve_pair(q, m, 2).serialize() == {
            "q": q, "m": m, "n": 2, "status": "undecided",
            "coverage": f"field size {q}^{m} beyond alpha budget 1048576"}


def test_verdict_serialize_shape():
    v = resolve_pair(32, 7, 2)
    blob = v.serialize()
    assert blob["status"] == "certified_sieve"
    assert blob["certificate"]["l"] == 1
    assert "witness" not in blob


# -- character-sum crosscheck -----------------------------------------------

def test_crosscheck_on_F4(F4_over_F2):
    rep = crosscheck_identity(F4_over_F2, 20, seed=0)
    assert rep.ok
    assert rep.trials == 20
    assert rep.max_deviation < 1e-6
    assert rep.mismatches == ()


def test_crosscheck_on_F81(F81):
    rep = crosscheck_identity(F81, 10, seed=4)
    assert rep.ok
    assert rep.max_deviation < 0.5


def test_crosscheck_reproducible(F9):
    a = crosscheck_identity(F9, 15, seed=3)
    b = crosscheck_identity(F9, 15, seed=3)
    assert a.serialize() == b.serialize()


def test_divisors_from_group_factors(F9, F64, F81):
    # crosscheck_identity's rng.choice needs them in ascending order
    for ctx in (F9, F64, F81, build_ctx(2, 1, 12)):
        assert arith._divisors_of(ctx.order) == [
            d for d in range(1, ctx.N) if ctx.order % d == 0]


def test_trace_only_crosscheck_is_near_exact(F81):
    # with l1 = l2 = 1 no multiplicative characters remain and the identity
    # is numerically tight
    for f in functions(F81, enumerate_R(1, 1, F81, count=3, seed=8)):
        pre = ChiPrecompute(f)
        for a, b in ((0, 0), (1, 2), (2, 1)):
            approx = count_via_characters(f, a, b, 1, 1, pre=pre)
            exact = brute_force_count(f, a, b, 1, 1)
            assert abs(approx - exact) < 1e-9


def test_brute_force_agrees_with_characters_on_F81(F81):
    for f in functions(F81, enumerate_R(1, 1, F81, count=3, seed=2)):
        pre = ChiPrecompute(f)
        for a, b in ((0, 0), (2, 1)):
            approx = count_via_characters(f, a, b, 80, 80, pre=pre)
            exact = brute_force_count(f, a, b, 80, 80)
            assert round(approx) == exact


def _track_exact(monkeypatch):
    """Record (q, m, lo, hi, omega) for each exact count scan_exceptions
    asks of omega_bounds_row."""
    row, sent = V.omega_bounds_row, []

    def tracked_row(qs, m, **kwargs):
        for q, (lo, hi, exact) in zip(qs, row(qs, m, **kwargs)):
            def counting(budget, q=q, lo=lo, hi=hi, exact=exact):
                sent.append((q, m, lo, hi, exact(budget)))
                return sent[-1][-1]
            yield lo, hi, counting

    monkeypatch.setattr(V, "omega_bounds_row", tracked_row)
    return sent


def test_scan_factors_only_straddling_pairs(monkeypatch):
    """scan_exceptions decides the main condition from the trial-division
    bracket on omega; omega is found exactly only for the pairs whose
    bracket straddles margin 0, 139 of the 3,016 for n = 2, all with
    m = 7.  Pollard rho runs on one cofactor alone, that of Phi_7(3061),
    which has a prime below its cube root; the other cofactors are proven
    products of two primes."""
    from sympy import factorint

    rho, split = arith._brent_rho, []

    def tracked_rho(n, budget):
        split.append(n)
        return rho(n, budget)

    sent = _track_exact(monkeypatch)
    monkeypatch.setattr(arith, "_brent_rho", tracked_rho)
    records = V.scan_exceptions(2)
    assert len(records) == 495
    assert len(sent) == 139 and {m for _, m, *_ in sent} == {7}
    assert split == [arith._trial_divide(arith.cyclotomic_value(7, 3061), 7)[1]]
    for q, m, lo, hi, om in sent:
        assert main_margin(q, m, 2, 1 << hi) <= 0 <= main_margin(q, m, 2, 1 << lo)
        assert om == len(factorint(q ** m - 1))


def test_scan_records_and_saved_cache_are_pinned(tmp_path, monkeypatch):
    """scan_exceptions(2) into a fresh cache: the records' repr and the
    saved cache file, byte for byte (entries and their order), hashed.
    The records' digest was taken with every part trial-divided.  A part
    is saved only when its split is whole or an exact count proves its
    cofactor prime or finishes it, so a part of a pair the bracket decides
    whose cofactor is at least TRIAL_LIMIT**2 is not saved, nor one whose
    cofactor is proven a product of two primes; factoring the straddling
    pairs then adds the parts left of them."""
    sent = _track_exact(monkeypatch)
    cache = FactorCache(tmp_path / "factors.json")
    records = V.scan_exceptions(2, cache=cache)
    cache.save()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == ("200e87ad68bcf36f56095ba2befe67f7"
                      "512e7e1c5f660a89eea0bd6a852f9b23")
    digest = hashlib.sha256(cache.path.read_bytes()).hexdigest()
    assert digest == ("f29c65289c7db96264d92183b5e67daa"
                      "1bc956dafa118aa8461e7ec308fc10a2")
    for q, m, *_ in sent:
        factor_qm_minus_1(q, m, cache=cache)
    cache.save()
    content = json.dumps(json.loads(cache.path.read_text()), sort_keys=True)
    digest = hashlib.sha256(content.encode()).hexdigest()
    assert digest == ("990308e21c61bc1800bf945d87379069"
                      "2f3ca57a5741d8ac2aa65be6993f5951")


def test_scan_long_row_is_root_sieved(tmp_path, monkeypatch):
    """The m = 7 row (2,290 prime powers) splits its parts Phi_d(q) by the
    root sieve, and the exact counts of its straddling pairs read those
    splits: no part of the row is trial-divided.  Shorter rows still
    trial-divide.  factor(), which cyclotomic_value runs on d the first
    time it meets d, splits no part, so its trial divisions are not
    counted."""
    where = {"m": None, "factor": False}
    calls = []
    row, fac, trial = V.omega_bounds_row, arith.factor, arith._trial_divide

    def tracked_row(qs, m, **kwargs):
        where["m"] = m
        yield from row(qs, m, **kwargs)

    def tracked_factor(n, **kwargs):
        where["factor"] = True
        try:
            return fac(n, **kwargs)
        finally:
            where["factor"] = False

    def tracked_trial(n, d=1):
        if not where["factor"]:
            calls.append(where["m"])
        return trial(n, d)

    monkeypatch.setattr(V, "omega_bounds_row", tracked_row)
    monkeypatch.setattr(arith, "factor", tracked_factor)
    monkeypatch.setattr(arith, "_trial_divide", tracked_trial)
    sent = _track_exact(monkeypatch)
    cache = FactorCache(tmp_path / "factors.json")
    assert len(V.scan_exceptions(2, cache=cache)) == 495
    assert len(sent) == 139
    assert 7 not in calls
    assert 8 in calls


def test_scan_proves_cofactors_prime_only_in_exact_counts(monkeypatch):
    """The bracket proves no cofactor prime: scan_exceptions(2) tests
    values of at least 10**12 for primality 140 times, all in the exact
    counts of its 139 straddling pairs (one of them a factor rho split off
    the cofactor of (3061, 7)), and _two_primes only ever sees a composite
    cofactor."""
    from sympy import isprime

    prime, two_primes, big = arith.is_probable_prime, arith._two_primes, []

    def tracked(n):
        if n >= 10 ** 12:
            big.append(n)
        return prime(n)

    def composite_only(c, d):
        assert not isprime(c), c
        return two_primes(c, d)

    monkeypatch.setattr(arith, "is_probable_prime", tracked)
    monkeypatch.setattr(arith, "_two_primes", composite_only)
    assert len(V.scan_exceptions(2)) == 495
    assert len(big) == 140
