import functools
import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from primpairs import ff
from primpairs.arith import euler_phi, factor, factor_qm_minus_1
from primpairs.ff import (
    POLE,
    EnumerationBudgetExceeded,
    RationalFunction,
    build_ctx,
    find_irreducibles,
    first_irreducible,
    is_irreducible_in_ctx,
    is_irreducible_poly,
    poly_add,
    poly_from_index,
    poly_gcd,
    poly_index,
    poly_mod,
    poly_mul,
    poly_neg,
)
from primpairs.verify import _irreducible_count

# session-scoped contexts are provided by conftest


def test_build_ctx_f4(ctx_f4):
    assert ctx_f4.poly == (1, 1, 1)  # x^2 + x + 1, the unique choice
    assert ctx_f4.N == 4
    assert ctx_f4.generator == 2


def test_build_ctx_f8_canonical_poly(ctx_f8):
    # canonical order compares constant coefficient first: x^3+x^2+1 precedes
    # x^3+x+1 because (1,0,1) < (1,1,0)
    assert ctx_f8.poly == (1, 0, 1, 1)


def test_build_ctx_f3_7(ctx_f3_7):
    assert ctx_f3_7.N == 2187
    assert ctx_f3_7.group_factors.factors == ((2, 1), (1093, 1))


def test_build_ctx_32_7_no_tables():
    # F_{32^7} is past the dlog table limit, so it has no context; the
    # group order still factors
    with pytest.raises(EnumerationBudgetExceeded,
                       match=r"field size 2\^35 beyond dlog table limit"):
        build_ctx(2, 5, 7)
    assert factor_qm_minus_1(32, 7).primes == (31, 71, 127, 122921)


def test_build_ctx_refuses_a_huge_field_before_evaluating_it():
    # 3^(10^7) is never computed: the exponent alone is past the limit
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetExceeded):
            build_ctx(3, 1, 10 ** 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_build_memory_2_18():
    # with the factor path warm, the peak is the table build: the four
    # int64 tables of N = 2^18 entries kept (exp, dlog, inv_t, trace_t)
    # take 8.4 MB, and the table of the step g^S and the operands of the
    # last doubling about 5 MB more
    factor_qm_minus_1(2, 18)
    tracemalloc.start()
    try:
        build_ctx(2, 1, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def test_build_ctx_rejects_composite_p():
    with pytest.raises(ValueError):
        build_ctx(4, 1, 2)


def test_canonical_poly_is_minimal_against_sympy(ctx_f8, ctx_f9):
    # every earlier candidate in canonical order must be reducible (sympy as
    # the independent judge)
    from sympy import GF, Poly, Symbol
    x = Symbol("x")
    for ctx in (ctx_f8, ctx_f9):
        d = ctx.m
        n_found = poly_index(ctx.poly, ctx.p)
        for n in range(ctx.p ** (d - 1), n_found + 1):
            cs = poly_from_index(d, n, ctx.p)
            sp = Poly(list(reversed(cs)), x, domain=GF(ctx.p))
            sympy_irred = len(sp.factor_list()[1]) == 1 and \
                sp.factor_list()[1][0][1] == 1
            assert sympy_irred == (n == n_found), (ctx.p, cs)


def test_exp_dlog_consistency(ctx_f3_7):
    c = ctx_f3_7
    g = c.generator
    # generator^(dlog[x]) == x for a sample
    for x in [1, 2, 5, 100, 2186, 1093]:
        assert c.pow_(g, int(c.dlog[x])) == x
    assert sorted(c.exp.tolist()) == list(range(1, c.N))


def test_element_arithmetic_f4(ctx_f4):
    c = ctx_f4
    # additive group is (Z/2)^2
    for a in range(4):
        assert c.add(a, a) == 0
    # multiplicative group is cyclic of order 3
    g = c.generator
    assert c.mul(c.mul(g, g), g) == 1
    assert c.pow_(g, 3) == 1
    assert c.inv(g) == c.mul(g, g)
    assert c.mul(1, c.inv(g)) == c.inv(g)
    with pytest.raises(ZeroDivisionError):
        c.inv(0)


def test_field_axioms_sampled(ctx_f9, ctx_f2_6):
    rng = random.Random(7)
    for c in (ctx_f9, ctx_f2_6):
        for _ in range(50):
            a, b, d = (rng.randrange(c.N) for _ in range(3))
            assert c.add(a, b) == c.add(b, a)
            assert c.mul(a, b) == c.mul(b, a)
            assert c.mul(a, c.add(b, d)) == c.add(c.mul(a, b), c.mul(a, d))
            assert c.add(a, c.neg(a)) == 0
            if a:
                assert c.mul(a, c.inv(a)) == 1


def test_trace_to_base_basics(ctx_f3_7):
    c = ctx_f3_7
    assert c.trace_q(0) == 0
    # embedded constants: trace is m * c computed in F_q (m=7 = 1 mod 3)
    for const in range(1, 3):
        assert c.trace_q(const) == (7 * const) % 3


def test_trace_matches_frobenius_sum(ctx_f3_7):
    c = ctx_f3_7
    rng = random.Random(3)
    for _ in range(25):
        a = rng.randrange(c.N)
        acc, t = a, a
        for _ in range(c.m - 1):
            t = c.pow_(t, c.q)   # repeated q-th power oracle
            acc = c.add(acc, t)
        assert acc == c.trace_q(a)


def test_trace_linearity_and_frobenius_invariance(ctx_f2_6):
    c = ctx_f2_6
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.randrange(c.N), rng.randrange(c.N)
        assert c.trace_q(c.add(a, b)) == c.subfield.add(c.trace_q(a), c.trace_q(b))
        assert c.trace_q(c.pow_(a, c.q)) == c.trace_q(a)


def test_trace_surjectivity_counts(ctx_f4, ctx_f9, ctx_f3_4, ctx_f2_6):
    for c in (ctx_f4, ctx_f9, ctx_f3_4, ctx_f2_6):
        counts = np.bincount(c.trace_t, minlength=c.q)
        assert (counts == c.N // c.q).all()


def test_is_primitive_f4(ctx_f4):
    c = ctx_f4
    g = c.generator
    assert c.is_primitive_code(g)
    assert c.is_primitive_code(c.mul(g, g))
    assert not c.is_primitive_code(1)
    with pytest.raises(ValueError):
        c.is_primitive_code(0)


def test_primitive_count_f3_7(ctx_f3_7):
    c = ctx_f3_7
    n = sum(c.is_primitive_code(a) for a in range(1, c.N))
    assert n == euler_phi(factor(2186)) == 1092


def test_is_u_free_edges(ctx_f3_4):
    c = ctx_f3_4
    # u=1: every nonzero element
    assert all(c.is_u_free_code(a, 1) for a in range(1, c.N))
    # u = full order agrees with primitivity
    for a in range(1, c.N):
        assert c.is_u_free_code(a, 80) == c.is_primitive_code(a)
    with pytest.raises(ValueError):
        c.is_u_free_code(1, 7)  # 7 does not divide 80
    with pytest.raises(ValueError):
        c.is_u_free_code(0, 2)


def test_is_u_free_f4(ctx_f4):
    c = ctx_f4
    free = [a for a in range(1, 4) if c.is_u_free_code(a, 3)]
    assert len(free) == 2 and 1 not in free


def test_u_free_multiplicative(ctx_f2_6):
    # order 63 = 9*7: u-freeness for coprime parts multiplies
    c = ctx_f2_6
    for a in range(1, c.N):
        u9 = c.is_u_free_code(a, 9)
        u7 = c.is_u_free_code(a, 7)
        assert c.is_u_free_code(a, 63) == (u9 and u7)


def test_ufree_dlog_crosscheck(ctx_f3_4):
    # dlog characterization: u-free iff gcd(u, gcd(e, N-1)) == 1
    import math
    c = ctx_f3_4
    for a in range(1, c.N):
        e = int(c.dlog[a])
        for u in (1, 2, 5, 8, 16, 80):
            expect = math.gcd(u, math.gcd(e, 80)) == 1
            assert c.is_u_free_code(a, u) == expect


def test_find_irreducibles_degree1(ctx_f4):
    polys = list(find_irreducibles(1, ctx_f4))
    assert polys == [(c, 1) for c in range(4)]


def test_find_irreducibles_degree2_f4(ctx_f4):
    polys = list(find_irreducibles(2, ctx_f4))
    assert len(polys) == (16 - 4) // 2 == 6
    # no roots, by brute force
    for cs in polys:
        for x in range(4):
            assert ff.poly_eval(ctx_f4, cs, x) != 0
    # canonical order is increasing in (c0, c1)
    idx = [poly_index(cs, 4) for cs in polys]
    assert idx == sorted(idx)


def test_find_irreducibles_degree2_count_f3_7(ctx_f3_7):
    n = sum(1 for _ in find_irreducibles(2, ctx_f3_7))
    assert n == (2187 ** 2 - 2187) // 2 == 2390391


def test_find_irreducibles_limit(ctx_f9):
    polys = list(islice(find_irreducibles(2, ctx_f9), 5))
    assert len(polys) == 5


def test_find_irreducibles_degree3_matches_count(ctx_f4):
    # number of monic irreducible cubics over F_Q is (Q^3 - Q)/3
    polys = list(find_irreducibles(3, ctx_f4))
    assert len(polys) == (64 - 4) // 3 == 20
    for cs in polys:
        assert is_irreducible_poly(ctx_f4, cs)


@pytest.mark.parametrize("pkm", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1),
                                 (7, 1, 1), (3, 1, 2)])
def test_is_irreducible_poly_count_is_the_necklace_count(pkm, scalar_field):
    # over F_2, F_3, F_4, F_5, F_7 and F_9, the monic polynomials of degree
    # d <= 5 the scalar test accepts number (1/d) sum_{e|d} mu(e) Q^(d/e)
    c = build_ctx(*pkm)
    F = ff._PrimeField(c.p) if c.m == 1 else scalar_field(c)
    for d in range(1, 6):
        accepted = sum(is_irreducible_poly(F, poly_from_index(d, n, c.N))
                       for n in range(c.N ** d))
        assert accepted == _irreducible_count(c.N, d), d


# both characteristics, prime and tower base fields
QUAD_FIELDS = {"F4": (2, 1, 2), "F8": (2, 1, 3), "F9": (3, 1, 2),
               "F25": (5, 1, 2), "F64_over_F4": (2, 2, 3),
               "F81_over_F9": (3, 2, 2)}


@functools.cache
def _quadratics(name, scalar_field):
    """A context, its N^2 monic quadratics in canonical order, and the
    Frobenius verdict on each."""
    c = build_ctx(*QUAD_FIELDS[name])
    F = scalar_field(c)
    polys = [poly_from_index(2, n, c.N) for n in range(c.N ** 2)]
    return c, polys, [is_irreducible_poly(F, cs) for cs in polys]


@pytest.mark.parametrize("name", QUAD_FIELDS)
def test_quadratic_mask_against_generic_test(name, scalar_field):
    # the discriminant / trace criterion and the Frobenius test must agree
    # on every monic quadratic
    c, polys, irreducible = _quadratics(name, scalar_field)
    c0, c1 = np.array([cs[:2] for cs in polys]).T
    assert (~c.quad_reducible_mask(c0, c1)).tolist() == irreducible
    assert [is_irreducible_in_ctx(c, cs) for cs in polys] == irreducible


@pytest.mark.parametrize("pkm, d, sample", [
    ((2, 1, 1), 10, None), ((2, 1, 1), 9, None), ((3, 1, 1), 6, None),
    ((5, 1, 1), 5, 400), ((2, 1, 2), 6, 400), ((2, 1, 2), 4, None),
    ((3, 1, 2), 3, None), ((2, 1, 4), 3, 400), ((2, 2, 3), 3, 300),
    ((3, 1, 7), 4, 60), ((2, 1, 12), 3, 200)])
def test_irreducible_mask_against_generic_test(pkm, d, sample):
    # prime, prime-power and composite degrees in both characteristics and
    # over a tower: every monic polynomial of degree d, or a sample
    c = build_ctx(*pkm)
    rng = random.Random(d)
    ns = (range(c.N ** d) if sample is None
          else [rng.randrange(c.N ** d) for _ in range(sample)])
    polys = [poly_from_index(d, n, c.N) for n in ns]
    low = np.array([cs[:-1] for cs in polys], dtype=np.int64)
    assert c.irreducible_mask(low).tolist() == [
        is_irreducible_poly(c, cs) for cs in polys]


@pytest.mark.parametrize("name", QUAD_FIELDS)
def test_find_irreducibles_degree2_is_filtered_canonical_stream(
        name, scalar_field):
    c, polys, irreducible = _quadratics(name, scalar_field)
    assert list(find_irreducibles(2, c)) == [
        cs for cs, ok in zip(polys, irreducible) if ok]


def _scalar_filter(F, d, start=0):
    """What find_irreducibles must yield: the monic polynomials of degree
    d in canonical order from index start on, kept where
    is_irreducible_poly holds."""
    return (cs for n in range(start, F.N ** d)
            if is_irreducible_poly(F, cs := poly_from_index(d, n, F.N)))


@pytest.mark.parametrize("pkm", [(2, 1, 1), (2, 1, 2), (3, 1, 2)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_find_irreducibles_is_filtered_canonical_stream(pkm, d, scalar_field,
                                                        monkeypatch):
    # F_2, F_4 and F_9; with blocks of 100 indices the walk also crosses
    # block boundaries and ends on a partial block
    c = build_ctx(*pkm)
    want = list(_scalar_filter(scalar_field(c), d))
    assert list(find_irreducibles(d, c)) == want
    monkeypatch.setattr(ff, "_BLOCK_POLYS", 100)
    assert list(find_irreducibles(d, c)) == want


def test_find_irreducibles_first_cubics_over_f128(scalar_field):
    # the walk starts at N^2, past the cubics with a root at 0
    c = build_ctx(2, 1, 7)
    want = list(islice(_scalar_filter(scalar_field(c), 3, c.N ** 2), 2000))
    assert list(islice(find_irreducibles(3, c), 2000)) == want


def test_find_irreducibles_past_int64_indices(scalar_field, monkeypatch):
    # over F_{2^8} the walk of degree 9 starts at index 2^64, past int64
    c = build_ctx(2, 1, 8)
    monkeypatch.setattr(ff, "_BLOCK_POLYS", 10)
    want = list(islice(_scalar_filter(scalar_field(c), 9, c.N ** 8), 3))
    assert list(islice(find_irreducibles(9, c), 3)) == want


def test_quadratic_irreducibility_needs_no_table(ctx_f3_7):
    # one degree-2 decision must not build anything of size N^2 (at
    # N = 4096 a byte per quadratic is 16.7 MB)
    for c in (build_ctx(2, 1, 12), ctx_f3_7):
        tracemalloc.start()
        try:
            is_irreducible_in_ctx(c, (3, 5, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_poly_helpers_roundtrip(ctx_f4):
    c = ctx_f4
    a = (1, 2, 3, 1)
    b = (2, 1, 1)
    prod = poly_mul(c, a, b)
    assert poly_mod(c, prod, b) == ()
    g = poly_gcd(c, prod, b)
    assert g == b  # b monic, divides prod


def test_rational_function_validation(ctx_f4):
    c = ctx_f4
    # x/1
    f = RationalFunction(c, (0, 1), (1,))
    assert f.degrees == (1, 0)
    assert f.n == 1
    # reducible numerator rejected: x^2 (double root 0)
    with pytest.raises(ValueError):
        RationalFunction(c, (0, 0, 1), (1,))
    # shared factor rejected
    with pytest.raises(ValueError):
        RationalFunction(c, (1, 1), (1, 1))
    # non-monic denominator rejected
    with pytest.raises(ValueError):
        RationalFunction(c, (0, 1), (2,))
    # degenerate (0,0)
    with pytest.raises(ValueError):
        RationalFunction(c, (2,), (1,))


@pytest.mark.parametrize("num", [(-1, 1), (16, 1), (0, 1, -3)])
def test_rational_function_refuses_codes_outside_the_field(num):
    # a negative code would read a table from the end and 16 past it
    # (F_16 has codes 0..15); both must be refused, with or without check
    c = build_ctx(2, 1, 4)
    for check in (True, False):
        with pytest.raises(ValueError, match="out of range"):
            RationalFunction(c, num, (1,), check=check)
        with pytest.raises(ValueError, match="out of range"):
            RationalFunction(c, (1,), tuple(reversed(num)), check=check)


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2), "1", None])
def test_check_code_refuses_a_non_integer(bad):
    # the kernel's int32 cast would read 1.5 as 1; every level of the tower
    # refuses it, and no RationalFunction is built with it
    c = build_ctx(2, 2, 2)
    for level in (c, c.subfield, c.subfield.subfield):
        with pytest.raises(ValueError, match="not an integer"):
            level.check_code(bad)
    with pytest.raises(ValueError, match="not an integer"):
        RationalFunction(c, (bad, 1), (1,), check=False)


def test_check_code_returns_a_python_int():
    c = build_ctx(2, 2, 2)
    for level in (c, c.subfield, c.subfield.subfield):
        for x in (np.int64(1), np.int32(1), True, 1):
            got = level.check_code(x)
            assert type(got) is int and got == 1
        with pytest.raises(ValueError, match="out of range"):
            level.check_code(np.int64(level.card))
    f = RationalFunction(c, (np.int64(3), 1), (1,))
    assert [type(x) for x in f.num] == [int, int]


def test_check_divisor(ctx_f3_4):
    assert ctx_f3_4.check_divisor(16) == 16
    for u in (0, -80, 7, 160):
        with pytest.raises(ValueError, match="does not divide"):
            ctx_f3_4.check_divisor(u)


def test_eval_rational_identity(ctx_f4):
    c = ctx_f4
    f = RationalFunction(c, (0, 1), (1,))
    for x in range(4):
        assert f.eval_code(x) == x


def test_eval_rational_pole(ctx_f9):
    c = ctx_f9
    beta = 5
    # c0 = -beta so that denominator = x - beta
    f = RationalFunction(c, (2,), (c.neg(beta), 1))
    assert f.eval_code(beta) is POLE
    assert f.eval_code(beta) is POLE
    other = f.eval_code(3)
    assert other == c.mul(2, c.inv(c.sub(3, beta)))
    assert f.excluded_codes() == tuple(sorted({0, beta}))


def test_rational_scale_and_monic_num(ctx_f9):
    c = ctx_f9
    # 2 * (x + 1)
    f = RationalFunction(c, (2, 2), (1,))
    assert f.scale == 2
    assert f.monic_num == (1, 1)


def test_varr_eval_matches_scalar(ctx_f3_4):
    c = ctx_f3_4
    quad = next(find_irreducibles(2, c))
    f = RationalFunction(c, quad, (2, 1))
    codes = np.arange(c.N, dtype=np.int64)
    vec = f.varr_eval(codes)
    for x in range(c.N):
        want = f.eval_code(x)
        if want is POLE:
            assert vec[x] == -1
        else:
            assert vec[x] == want


def test_varr_ops_match_scalar(ctx_f2_6):
    c = ctx_f2_6
    rng = np.random.default_rng(5)
    a = rng.integers(0, c.N, 200)
    b = rng.integers(0, c.N, 200)
    vm = c.varr_mul(a, b)
    for i in range(200):
        assert vm[i] == c.mul(int(a[i]), int(b[i]))
    nz = a[a != 0]
    vi = c.varr_inv(nz)
    for i in range(len(nz)):
        assert c.mul(int(nz[i]), int(vi[i])) == 1


def test_ctx_describe_roundtrip(ctx_f64_tower):
    d = ctx_f64_tower.describe()
    assert d["p"] == 2 and d["k"] == 2 and d["m"] == 3
    assert d["subfield_poly"] == [1, 1, 1]
    assert d["group_order"] == 63
    c2 = build_ctx(d["p"], d["k"], d["m"])
    assert c2.describe() == d


def test_tower_and_flat_f64_agree_on_invariants(ctx_f2_6, ctx_f64_tower):
    # different towers over the same 64-element field: primitive counts and
    # trace fiber sizes must match even though codes differ
    flat, tower = ctx_f2_6, ctx_f64_tower
    assert flat.order == tower.order == 63
    n_flat = sum(flat.is_primitive_code(a) for a in range(1, 64))
    n_tower = sum(tower.is_primitive_code(a) for a in range(1, 64))
    assert n_flat == n_tower == euler_phi(factor(63))


def test_first_irreducible_tower_subfield():
    # F_64 built over F_4: subfield poly is the unique quadratic, the cubic
    # over F_4 is canonically least
    c = build_ctx(2, 2, 3)
    assert c.subfield.poly == (1, 1, 1)
    assert is_irreducible_poly(c.subfield, c.poly)
    n_found = poly_index(c.poly, 4)
    for n in range(4 ** 2, n_found):
        assert not is_irreducible_poly(c.subfield, poly_from_index(3, n, 4))


def test_first_irreducible_start_block():
    # the skipped block (constant term 0) really contains no irreducibles
    c = build_ctx(5, 1, 1)
    sub = c.subfield
    assert first_irreducible(sub, 2)[0] != 0


# -- the F_q level of the tower ---------------------------------------------

TOWERS = [(2, 2, 3), (3, 2, 2), (2, 5, 3)]  # F_{4^3}, F_{9^2}, F_{32^3}


def _digits(code, p, k):
    return ff.poly_trim((code // p ** i) % p for i in range(k))


def _undigits(cs, p):
    return sum(c * p ** i for i, c in enumerate(cs))


@pytest.mark.parametrize("p,k,m", [(2, 1, 6), (3, 1, 4), *TOWERS])
def test_add_is_digitwise_polynomial_sum(p, k, m):
    # on code arrays, add/neg/sub are coefficient-wise sums over F_p of the
    # base-p digits, and agree with the scalar call on every entry
    c = build_ctx(p, k, m)
    Fp, km = ff._PrimeField(p), k * m
    rng = np.random.default_rng(5)
    a = rng.integers(0, c.N, 200)
    b = rng.integers(0, c.N, 200)
    rows = zip(a.tolist(), b.tolist(), c.add(a, b), c.neg(a), c.sub(a, b))
    for x, y, s, n, d in rows:
        dx, dy = _digits(x, p, km), _digits(y, p, km)
        assert s == c.add(x, y) == _undigits(poly_add(Fp, dx, dy), p)
        assert n == c.neg(x) == _undigits(poly_neg(Fp, dx), p)
        assert d == c.sub(x, y) == _undigits(
            poly_add(Fp, dx, poly_neg(Fp, dy)), p)


@pytest.mark.parametrize("p,k,m", TOWERS)
def test_subfield_arithmetic_matches_polynomials_over_fp(p, k, m):
    # F_q = F_p[x]/(subfield poly): mul and inv agree with plain polynomial
    # arithmetic over the prime field on every pair of codes
    c = build_ctx(p, k, m)
    sub, Fp, q = c.subfield, ff._PrimeField(p), c.q
    for a in range(q):
        for b in range(q):
            prod = poly_mod(Fp, poly_mul(Fp, _digits(a, p, k), _digits(b, p, k)),
                            sub.poly)
            assert sub.mul(a, b) == _undigits(prod, p)
    for a in range(1, q):
        assert sub.mul(a, sub.inv(a)) == 1


def _frobenius_trace(a, p, k, modulus):
    # a + a^p + ... + a^(p^(k-1)) over F_p[x]/(modulus), one p-th power at
    # a time by repeated multiplication
    Fp = ff._PrimeField(p)
    cur = _digits(a, p, k)
    acc = cur
    for _ in range(k - 1):
        nxt = (1,)
        for _ in range(p):
            nxt = poly_mod(Fp, poly_mul(Fp, nxt, cur), modulus)
        cur = nxt
        acc = ff.poly_add(Fp, acc, cur)
    assert len(acc) <= 1, "absolute trace left F_p"
    return acc[0] if acc else 0


@pytest.mark.parametrize("p,k,m", TOWERS)
def test_absolute_trace_is_frobenius_sum(p, k, m):
    c = build_ctx(p, k, m)
    assert len(c.trace_abs_t) == c.q
    for a in range(c.q):
        assert c.trace_abs_t[a] == _frobenius_trace(a, p, k, c.subfield.poly)


def test_tower_describe_is_pinned():
    assert build_ctx(2, 5, 3).describe() == {
        "p": 2, "k": 5, "m": 3,
        "subfield_poly": [1, 0, 0, 1, 0, 1],
        "poly": [1, 0, 1, 1],
        "generator": 34,
        "group_order": 32767,
        "group_factors": [[7, 1], [31, 1], [151, 1]],
    }
