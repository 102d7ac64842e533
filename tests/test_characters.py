"""Character layer: exact orders, orthogonality, the rho/tau indicators,
chi_fab against a direct double-loop oracle, and the counting identity
against brute enumeration."""

import numpy as np
import pytest

from primpairs.characters import (
    ChiPrecompute,
    MultChar,
    all_chars_of_order,
    canonical_add_char,
    chi_fab,
    chi_fab_bound,
    count_via_characters,
    rho_u,
    tau_a,
    tolerance,
)
from primpairs.ff import RationalFunction, find_irreducibles

SMALL_FIELDS = ["ctx_f4", "ctx_f8", "ctx_f9", "ctx_f3_4", "ctx_f2_6"]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- independent oracles ----------------------------------------------------

def chi_fab_direct(f, a, b, chi1, chi2):
    """Same double sum as chi_fab, evaluated element by element in plain
    Python with no shared precompute."""
    ctx = f.ctx
    sub = ctx.subfield
    ac = canonical_add_char(ctx)
    S = set(f.excluded_codes())
    total = 0j
    for u in range(ctx.q):
        for v in range(ctx.q):
            coeff = ac.psi0(sub.neg(sub.add(sub.mul(a, u), sub.mul(b, v))))
            inner = 0j
            for alpha in range(ctx.N):
                if alpha in S:
                    continue
                fa = f.eval_code(alpha)
                arg = ctx.add(ctx.mul(u, alpha), ctx.mul(v, ctx.inv(alpha)))
                inner += chi1.value(alpha) * chi2.value(fa) * ac.psihat(arg)
            total += coeff * inner
    return total


def count_direct(f, a, b, l1, l2):
    ctx = f.ctx
    S = set(f.excluded_codes())
    n = 0
    for alpha in range(1, ctx.N):
        if alpha in S:
            continue
        if not ctx.is_u_free_code(alpha, l1):
            continue
        if not ctx.is_u_free_code(f.eval_code(alpha), l2):
            continue
        if ctx.trace_q(alpha) != a or ctx.trace_q(ctx.inv(alpha)) != b:
            continue
        n += 1
    return n


# -- multiplicative characters ----------------------------------------------

def test_all_chars_counts_and_orders(ctx_f9):
    seen = set()
    for d in divisors(ctx_f9.order):
        chars = all_chars_of_order(d, ctx_f9)
        assert len(chars) == len([j for j in range(1, d + 1)
                                  if np.gcd(j, d) == 1])
        for chi in chars:
            assert chi.order == d
            seen.add(chi.exponent)
    # every character of the group appears exactly once across the orders
    assert seen == set(range(ctx_f9.order))


def test_all_chars_rejects_non_divisor(ctx_f9):
    with pytest.raises(ValueError):
        all_chars_of_order(7, ctx_f9)
    with pytest.raises(ValueError):
        all_chars_of_order(0, ctx_f9)


def test_trivial_char(ctx_f4):
    (chi,) = all_chars_of_order(1, ctx_f4)
    assert chi.is_trivial
    for x in range(1, ctx_f4.N):
        assert chi.value(x) == 1
    assert chi.value(0) == 0


def test_quadratic_char_is_square_sign(ctx_f9):
    (chi,) = all_chars_of_order(2, ctx_f9)
    g = ctx_f9.generator
    for k in range(ctx_f9.order):
        x = ctx_f9.pow_(g, k)
        want = 1 if k % 2 == 0 else -1
        assert abs(chi.value(x) - want) < 1e-12


def test_multiplicativity(ctx_f3_4):
    rng = np.random.default_rng(7)
    chars = [all_chars_of_order(d, ctx_f3_4)[0] for d in (5, 8, 80)]
    for _ in range(40):
        x, y = rng.integers(1, ctx_f3_4.N, size=2)
        xy = ctx_f3_4.mul(int(x), int(y))
        for chi in chars:
            assert abs(chi.value(xy) - chi.value(int(x)) * chi.value(int(y))) < 1e-12


def test_char_has_exact_order(ctx_f3_4):
    g = ctx_f3_4.generator
    for d in (2, 5, 8, 16, 80):
        for chi in all_chars_of_order(d, ctx_f3_4):
            val = chi.value(g)
            assert abs(val ** d - 1) < 1e-9
            for r in (2, 5):
                if d % r == 0:
                    assert abs(val ** (d // r) - 1) > 0.1


@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_orthogonality_mult(name, request):
    ctx = request.getfixturevalue(name)
    codes = np.arange(1, ctx.N)
    for d in divisors(ctx.order):
        for chi in all_chars_of_order(d, ctx):
            s = chi.values(codes).sum()
            if chi.is_trivial:
                assert abs(s - ctx.order) < tolerance(ctx.order)
            else:
                assert abs(s) < tolerance(ctx.order)


@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_orthogonality_add(name, request):
    ctx = request.getfixturevalue(name)
    ac = canonical_add_char(ctx)
    assert abs(ac.psihat_t.sum()) < tolerance(ctx.N)
    assert abs(ac.psi0_t.sum()) < tolerance(ctx.q)


def test_addchar_homomorphism(ctx_f3_4):
    ctx = ctx_f3_4
    ac = canonical_add_char(ctx)
    rng = np.random.default_rng(11)
    for _ in range(40):
        x, y = (int(t) for t in rng.integers(0, ctx.N, size=2))
        assert abs(ac.psihat(ctx.add(x, y)) - ac.psihat(x) * ac.psihat(y)) < 1e-12
    sub = ctx.subfield
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert abs(ac.psi0(sub.add(x, y)) - ac.psi0(x) * ac.psi0(y)) < 1e-12


@pytest.mark.parametrize("name", ["ctx_f2_6", "ctx_f3_4"])
def test_psihat_restricts_to_psi0_power(name, request):
    # on an embedded subfield element the relative trace is m*c, so the
    # lifted character collapses to the m-th power of the base one
    ctx = request.getfixturevalue(name)
    ac = canonical_add_char(ctx)
    for c in range(ctx.q):
        assert abs(ac.psihat(c) - ac.psi0(c) ** ctx.m) < 1e-12


# -- indicator functions ----------------------------------------------------

@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_rho_matches_u_free_indicator(name, request):
    ctx = request.getfixturevalue(name)
    for u in divisors(ctx.order):
        for code in range(1, ctx.N):
            want = 1.0 if ctx.is_u_free_code(code, u) else 0.0
            assert abs(rho_u(ctx, code, u) - want) < 1e-6


def test_rho_hand_checked_f4(ctx_f4):
    g = ctx_f4.generator
    assert abs(rho_u(ctx_f4, g, 3) - 1) < 1e-9
    assert abs(rho_u(ctx_f4, 1, 3)) < 1e-9
    assert abs(rho_u(ctx_f4, 1, 1) - 1) < 1e-12


def test_rho_rejects(ctx_f4):
    with pytest.raises(ValueError):
        rho_u(ctx_f4, 0, 3)
    with pytest.raises(ValueError):
        rho_u(ctx_f4, 2, 2)  # 2 does not divide 3
    for code in (-1, 4):  # outside F_4
        with pytest.raises(ValueError):
            rho_u(ctx_f4, code, 3)
        with pytest.raises(ValueError):
            tau_a(ctx_f4, code, 0)


def test_characters_refuse_codes_outside_the_field(ctx_f4):
    # a negative code would index the dlog and trace tables from the end
    chi = MultChar(ctx_f4, 1)
    ac = canonical_add_char(ctx_f4)
    for code in (-1, -4, 4):
        with pytest.raises(ValueError):
            chi.value(code)
        with pytest.raises(ValueError):
            ac.psihat(code)
    assert chi.value(0) == 0 and ac.psihat(3) == complex(ac.psihat_t[3])


def test_characters_check_codes_alike_at_both_levels(ctx_f4):
    # psi0 reads an F_q code and psihat an F_{q^m} code through the same
    # check: a numpy integer is a code at both, a non-integer at neither
    ac = canonical_add_char(ctx_f4)
    assert ac.psi0(np.int64(1)) == ac.psi0(1)
    assert ac.psihat(np.int64(1)) == ac.psihat(1)
    assert ac.psihat(True) == ac.psihat(1)
    for bad in (1.5, np.float64(1)):
        with pytest.raises(ValueError, match="not an integer"):
            ac.psi0(bad)
        with pytest.raises(ValueError, match="not an integer"):
            ac.psihat(bad)
        with pytest.raises(ValueError, match="not an integer"):
            tau_a(ctx_f4, 1, bad)
    with pytest.raises(ValueError, match="out of range"):
        ac.psi0(2)  # F_2 has the codes 0 and 1


@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_tau_matches_trace_indicator(name, request):
    ctx = request.getfixturevalue(name)
    for code in range(ctx.N):
        tr = ctx.trace_q(code)
        for a in range(ctx.q):
            want = 1.0 if tr == a else 0.0
            assert abs(tau_a(ctx, code, a) - want) < 1e-6


def test_tau_partition_of_unity(ctx_f3_4):
    rng = np.random.default_rng(3)
    for code in rng.integers(0, ctx_f3_4.N, size=10):
        total = sum(tau_a(ctx_f3_4, int(code), a)
                    for a in range(ctx_f3_4.q))
        assert abs(total - 1) < 1e-9


def test_tau_zero_covers_half_of_f2_6(ctx_f2_6):
    total = sum(tau_a(ctx_f2_6, c, 0) for c in range(ctx_f2_6.N))
    assert abs(total - 32) < 1e-6


# -- chi_fab ----------------------------------------------------------------

def test_chi_fab_matches_direct_f4(ctx_f4):
    f = RationalFunction(ctx_f4, (0, 1), (1,))  # x / 1
    pre = ChiPrecompute(f)
    chars = [chi for d in divisors(ctx_f4.order)
             for chi in all_chars_of_order(d, ctx_f4)]
    for chi1 in chars:
        for chi2 in chars:
            for a in range(ctx_f4.q):
                for b in range(ctx_f4.q):
                    got = chi_fab(f, a, b, chi1, chi2, pre=pre)
                    want = chi_fab_direct(f, a, b, chi1, chi2)
                    assert abs(got - want) < 1e-9
                    # fresh precompute path agrees too
                    assert abs(chi_fab(f, a, b, chi1, chi2) - got) < 1e-12


def test_chi_fab_matches_direct_with_pole(ctx_f9):
    f = RationalFunction(ctx_f9, (0, 1), (1, 1))  # x / (x + 1)
    assert len(f.excluded_codes()) == 2
    chis = all_chars_of_order(8, ctx_f9) + all_chars_of_order(1, ctx_f9)
    for chi1, chi2 in [(chis[0], chis[1]), (chis[-1], chis[0]),
                       (chis[2], chis[2])]:
        for a, b in [(0, 0), (1, 2), (2, 2)]:
            got = chi_fab(f, a, b, chi1, chi2)
            want = chi_fab_direct(f, a, b, chi1, chi2)
            assert abs(got - want) < 1e-9


def test_chi_fab_trivial_main_term(ctx_f9):
    # the (u,v) = (0,0) row of the precompute is identically 1, so with both
    # characters trivial it contributes exactly N - |S|
    f = RationalFunction(ctx_f9, (0, 1), (1,))
    pre = ChiPrecompute(f)
    main = pre.psimat[0] @ np.ones(len(pre.alphas))
    assert abs(main - (ctx_f9.N - len(f.excluded_codes()))) < 1e-12


def test_chi_fab_bound_sampled(ctx_f9, ctx_f2_6):
    rng = np.random.default_rng(23)
    for ctx in (ctx_f9, ctx_f2_6):
        quad = next(find_irreducibles(2, ctx))
        pool = [RationalFunction(ctx, (0, 1), (1,)),
                RationalFunction(ctx, quad, (1,)),
                RationalFunction(ctx, (0, 1), quad)]
        pres = {f: ChiPrecompute(f) for f in pool}
        for _ in range(30):
            f = pool[rng.integers(len(pool))]
            a, b = (int(t) for t in rng.integers(0, ctx.q, size=2))
            e1, e2 = (int(t) for t in rng.integers(0, ctx.order, size=2))
            val = chi_fab(f, a, b, MultChar(ctx, e1), MultChar(ctx, e2),
                          pre=pres[f])
            assert abs(val) <= chi_fab_bound(f) + 1e-9


# -- the counting identity --------------------------------------------------

def test_count_matches_direct_f9(ctx_f9):
    f = RationalFunction(ctx_f9, (0, 1), (1,))
    pre = ChiPrecompute(f)
    for a in range(3):
        for b in range(3):
            got = count_via_characters(f, a, b, 8, 8, pre=pre)
            want = count_direct(f, a, b, 8, 8)
            assert round(got) == want
            assert abs(got - want) < 0.5


def test_count_trace_only_partition(ctx_f9):
    # l1 = l2 = 1 counts alpha outside S with both traces prescribed;
    # summed over all (a, b) that is everything outside S
    f = RationalFunction(ctx_f9, (0, 1), (1, 1))
    pre = ChiPrecompute(f)
    total = 0.0
    for a in range(3):
        for b in range(3):
            got = count_via_characters(f, a, b, 1, 1, pre=pre)
            assert round(got) == count_direct(f, a, b, 1, 1)
            total += got
    assert abs(total - (ctx_f9.N - len(f.excluded_codes()))) < 1e-6


def test_count_matches_direct_f3_4(ctx_f3_4):
    f = RationalFunction(ctx_f3_4, (0, 2), (1, 1))  # 2x / (x + 1)
    got = count_via_characters(f, 1, 0, 80, 80)
    want = count_direct(f, 1, 0, 80, 80)
    assert round(got) == want
    assert abs(got - want) < 0.5


def test_count_rejects_bad_l(ctx_f9):
    f = RationalFunction(ctx_f9, (0, 1), (1,))
    with pytest.raises(ValueError):
        count_via_characters(f, 0, 0, 3, 8)


def test_tolerance_scales():
    assert tolerance(1) == 1e-6
    assert tolerance(1000) == pytest.approx(1e-3)
    assert tolerance(0) == 1e-6
