"""Acceptance gate: one test per numbered criterion, summarized per
criterion at the end of the run (see conftest).

Criterion 1 holds every one of the 431 reference certificate rows to the
table's own contract: printed delta a lower bound, printed Delta an upper
bound, each within 1e-9 of the exact value, or within one printed unit for
the six Delta values printed with only 8 decimals.  The nine printed strings
that break it are source-table errata (certificate_errata.csv); for those
the corrected digits are held to the same contract, and each erratum must
name a string that really breaks it.
"""

import math
import random
from fractions import Fraction

import pytest

from primpairs.arith import (
    decimal_lower,
    decimal_upper,
    euler_phi,
    factor,
    factor_qm_minus_1,
)
from primpairs.bounds import (
    WINDOWS,
    certificate_search,
    evaluate_l,
    lemma_473_boundary,
    wide_window_row,
    worst_case_row,
)
from primpairs.characters import (
    ChiPrecompute,
    MultChar,
    chi_fab,
    chi_fab_bound,
    rho_u,
    tau_a,
)
from primpairs.ff import RationalFunction, build_ctx
from primpairs.refdata import (
    bound_window,
    load_certificate_errata,
    load_certificate_rows,
    load_exception_pairs,
    load_unresolved_pairs,
    load_window_rows,
)
from primpairs.verify import (
    count_table,
    crosscheck_identity,
    scan_exceptions,
    _draw_rows,
)

# -- criterion 1: certificate table reproduction ----------------------------

def _bound_problem(exact: Fraction, printed: str, lower: bool) -> str | None:
    """Why `printed` fails as the table's bound on `exact` (a lower bound
    for delta, an upper bound for Delta), or None when it holds."""
    listed = Fraction(printed)
    gap = exact - listed if lower else listed - exact
    window = bound_window(printed)
    if gap < 0:
        side = "below" if lower else "above"
        return f"{side} listed bound by {float(-gap):.3g}"
    if gap >= window:
        side = "above" if lower else "below"
        return (f"{float(gap):.3g} {side} listed bound "
                f"(>= {float(window):.0e})")
    return None


def test_criterion_1_certificate_rows(fcache):
    rows = load_certificate_rows()
    assert len(rows) == 431
    errata = {(e.m, e.q, e.column): e for e in load_certificate_errata()}
    assert len(errata) == 9
    failures = []
    for row in rows:
        group = factor_qm_minus_1(row.q, row.m, cache=fcache)
        cert = evaluate_l(row.q, row.m, 2, group, factor(row.l))
        tag = f"m={row.m} q={row.q} l={row.l}"
        if cert.s != row.s:
            failures.append(f"{tag}: s={cert.s} listed {row.s}")
            continue
        if not cert.passes:
            failures.append(f"{tag}: sieve inequality does not pass")
        for column, exact, lower in (("delta", cert.delta, True),
                                     ("Delta", cert.Delta, False)):
            printed = getattr(row, column)
            erratum = errata.pop((row.m, row.q, column), None)
            if erratum is not None:
                if erratum.printed != printed:
                    failures.append(f"{tag}: {column} erratum names "
                                    f"{erratum.printed}, table prints {printed}")
                elif _bound_problem(exact, printed, lower) is None:
                    failures.append(f"{tag}: {column} erratum for {printed}, "
                                    "which already meets the contract")
                printed = erratum.corrected
            problem = _bound_problem(exact, printed, lower)
            if problem is not None:
                failures.append(f"{tag}: {column} {printed} {problem}")
        if row.m == 7 and row.q == 32:
            assert Fraction("0.8915505547") < cert.delta < Fraction("0.8915505548")
    failures.extend(f"m={m} q={q}: {column} erratum matches no table row"
                    for m, q, column in errata)
    assert not failures, (
        f"{len(failures)} problems over {len(rows)} listed rows:\n  "
        + "\n  ".join(failures))


# -- criterion 2: exception scan --------------------------------------------

def test_criterion_2_exception_scan(fcache):
    records = scan_exceptions(2, cache=fcache)
    got = {(r.q, r.m) for r in records}
    reference = load_exception_pairs()
    assert got == {(r.q, r.m) for r in reference}

    printed_or_note = {(r.q, r.m) for r in reference
                       if r.source in ("listed", "equality-note")}
    assert len(printed_or_note) == 494
    assert printed_or_note < got
    assert got - printed_or_note == {(256, 8)}

    equalities = {(r.q, r.m) for r in records if r.equality}
    assert equalities == {(4, 16), (4, 20), (4, 24), (8, 20), (256, 8)}

    by_key = sorted(got)
    assert len(by_key) == 495


# -- criterion 3: certificate closure ---------------------------------------

def test_criterion_3_certificate_closure(fcache):
    unresolved = {(r.q, r.m) for r in load_unresolved_pairs()}
    assert len(unresolved) == 64
    certified = set()
    missing = []
    for pair in load_exception_pairs():
        cert = certificate_search(pair.q, pair.m, 2, cache=fcache)
        if cert is not None:
            certified.add((pair.q, pair.m))
        else:
            missing.append((pair.q, pair.m))
    assert set(missing) == unresolved
    assert certified == {(r.q, r.m) for r in load_exception_pairs()} - unresolved
    assert len(certified) == 431


# -- criterion 4: window and cascade constants ------------------------------

def test_criterion_4_window_constants():
    reference = load_window_rows()
    assert [(r.a, r.b) for r in reference] == list(WINDOWS)
    for ref in reference:
        row = worst_case_row(ref.a, ref.b, 2)
        assert decimal_lower(row.delta_lower, 7) == ref.delta
        assert decimal_upper(row.Delta_upper, 7) == ref.Delta
        assert row.bound_value == ref.bound
        assert row.W_l == 1 << ref.log2_Wl

    wide = wide_window_row(2)
    assert wide.delta_lower > Fraction("0.0008225")
    assert wide.Delta_upper < Fraction("1071081.2759510")
    assert 4 * wide.Delta_upper * Fraction((1 << 31) ** 2) < 19758 * 10 ** 21

    lemma = lemma_473_boundary()
    assert lemma.holds_at_473
    assert lemma.fails_at_472
    assert lemma.ok


# -- criterion 5: indicator identities and crosscheck -----------------------

def test_criterion_5_character_identities(ctx_f4, ctx_f8, ctx_f9, ctx_f3_4,
                                          ctx_f2_6):
    for ctx in (ctx_f4, ctx_f8, ctx_f9, ctx_f3_4, ctx_f2_6):
        order = ctx.order
        divisors = [u for u in range(1, order + 1) if order % u == 0]
        for u in divisors:
            for code in range(1, ctx.N):
                want = 1.0 if ctx.is_u_free_code(code, u) else 0.0
                assert abs(rho_u(ctx, code, u) - want) < 1e-6
        for a in range(ctx.q):
            for code in range(ctx.N):
                want = 1.0 if ctx.trace_q(code) == a else 0.0
                assert abs(tau_a(ctx, code, a) - want) < 1e-6

        report = crosscheck_identity(ctx.p, ctx.k, ctx.m, 20,
                                     seed=50 + ctx.N)
        assert report.trials == 20
        assert report.max_deviation < 0.5
        assert report.mismatches == ()


# -- criterion 6: character sum bound ---------------------------------------

def test_criterion_6_character_sum_bound(ctx_f4, ctx_f8, ctx_f9, ctx_f3_4,
                                         ctx_f2_6):
    for ctx in (ctx_f4, ctx_f8, ctx_f9, ctx_f3_4, ctx_f2_6):
        rng = random.Random(60 + ctx.N)
        draws = 0
        while draws < 100:
            n1, n2 = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
            (c, *pq), = _draw_rows(n1, n2, ctx, rng, 1).tolist()
            f = RationalFunction(ctx, [ctx.mul(c, x) for x in pq[:n1 + 1]],
                                 pq[n1 + 1:], check=False)
            pre = ChiPrecompute(f)
            cap = chi_fab_bound(f)
            for _ in range(5):
                chi1 = MultChar(ctx, rng.randrange(ctx.order))
                chi2 = MultChar(ctx, rng.randrange(ctx.order))
                a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
                val = chi_fab(f, a, b, chi1, chi2, pre=pre)
                assert abs(val) <= cap + 1e-9
                draws += 1


# -- criterion 7: exhaustive count table ------------------------------------

def _local_recount_f3_7(poly):
    """#{alpha primitive, alpha^2 + 1 primitive} in F_3[x]/(poly), built
    from scratch: schoolbook polynomial arithmetic, generator walk for
    discrete logs, no field tables involved."""
    p, deg = 3, len(poly) - 1
    order = 3 ** deg - 1

    def mul(a, b):
        out = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        for i in range(len(out) - 1, deg - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(deg):
                    out[i - deg + j] = (out[i - deg + j] - c * poly[j]) % p
        return out[:deg]

    def power(a, e):
        acc = [1] + [0] * (deg - 1)
        while e:
            if e & 1:
                acc = mul(acc, a)
            a = mul(a, a)
            e >>= 1
        return acc

    def decode(code):
        return [(code // p ** i) % p for i in range(deg)]

    def encode(cs):
        return sum(c * p ** i for i, c in enumerate(cs))

    one = [1] + [0] * (deg - 1)
    gen = None
    for cand in range(2, 3 ** deg):
        a = decode(cand)
        if power(a, order // 2) != one and power(a, order // 1093) != one:
            gen = a
            break
    dlog = {}
    acc = one
    for j in range(1, order + 1):
        acc = mul(acc, gen)
        dlog[encode(acc)] = j
    assert len(dlog) == order and dlog[encode(one)] == order

    total = 0
    for code in range(1, 3 ** deg):
        if math.gcd(dlog[code], order) != 1:
            continue
        alpha = decode(code)
        image = mul(alpha, alpha)
        image[0] = (image[0] + 1) % p
        icode = encode(image)
        if icode and math.gcd(dlog[icode], order) == 1:
            total += 1
    return total


def test_criterion_7_exhaustive_count_table(ctx_f3_7):
    f = RationalFunction(ctx_f3_7, (1, 0, 1), (1,))
    table = count_table(f, 2186, 2186)
    phi = euler_phi(ctx_f3_7.group_factors)
    assert phi == 1092
    assert all(v <= 1092 for row in table.counts for v in row)
    assert table.total <= 1092

    fresh = build_ctx(3, 1, 7)
    again = count_table(RationalFunction(fresh, (1, 0, 1), (1,)), 2186, 2186)
    assert again.counts == table.counts

    assert table.total == _local_recount_f3_7(ctx_f3_7.poly)
