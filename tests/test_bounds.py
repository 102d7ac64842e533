"""Bounds layer: exact main/sieve conditions, certificate search order,
worst-case windows against their reference digit strings, and the q-range
cascade."""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from primpairs.arith import (
    FactorCache,
    decimal_lower,
    decimal_upper,
    factor,
    factor_qm_minus_1,
    factored,
    prime_powers_upto,
    squarefree_divisor_count,
)
from primpairs.bounds import (
    WINDOWS,
    cascade_bounds,
    certificate_search,
    evaluate_l,
    lemma_473_boundary,
    main_condition,
    main_margin,
    sieve_params,
    threshold_cascade,
    wide_window_row,
    worst_case_row,
)
from primpairs.verify import scan_exceptions

EQUALITY_PAIRS = [(4, 16), (4, 20), (4, 24), (8, 20), (256, 8)]


def W_of_group(q, m):
    return squarefree_divisor_count(factor_qm_minus_1(q, m))


# -- main condition ---------------------------------------------------------

def test_main_condition_spot_values():
    assert not main_condition(32, 7, 2, 16)  # 32^3 < (4*256)^2
    assert main_condition(19687, 7, 2, 32)
    assert not main_condition(19687, 7, 2, 1024)


def test_main_condition_rejects_small_m():
    with pytest.raises(ValueError):
        main_condition(9, 4, 2, 4)
    with pytest.raises(ValueError):
        main_margin(2, 5, 0, 1)


@pytest.mark.parametrize("q,m", EQUALITY_PAIRS)
def test_main_condition_equality_pairs(q, m):
    # q^(m-4) == ((n+2) W^2)^2 exactly: kept as failures
    W = W_of_group(q, m)
    assert main_margin(q, m, 2, W) == 0
    assert not main_condition(q, m, 2, W)


# -- lemma at 473 primes ----------------------------------------------------

def test_lemma_473_boundary():
    report = lemma_473_boundary()
    assert report.holds_at_473
    assert report.fails_at_472
    assert report.ok
    assert report.margin_bits_473 >= 0


def test_small_omega_needs_no_lemma():
    # W(30) = 8 is far above 30^(1/10): the inequality is a genuinely
    # large-omega phenomenon
    assert 8 ** 10 > 30


# -- sieve parameters -------------------------------------------------------

def test_sieve_params_32_7():
    group = factor_qm_minus_1(32, 7)
    s, delta, Delta = sieve_params(group, factored(1, []))
    assert s == 4
    assert delta == 1 - 2 * sum(Fraction(1, p) for p in (31, 71, 127, 122921))
    assert decimal_lower(delta, 10) == "0.8915505547"
    assert decimal_upper(Delta, 10) == "9.8514897025"
    assert 0.8915505547 < float(delta) < 0.8915505548


def test_sieve_params_3_7_keep_2():
    group = factor_qm_minus_1(3, 7)  # 2186 = 2 * 1093
    s, delta, Delta = sieve_params(group, factored(2, [(2, 1)]))
    assert s == 1
    assert delta == Fraction(1091, 1093)
    assert Delta == Fraction(1093, 1091) + 2


def test_sieve_params_full_radical():
    group = factor_qm_minus_1(64, 7)
    s, delta, Delta = sieve_params(group, group.radical_factored())
    assert (s, delta, Delta) == (0, 1, 1)


def test_sieve_params_rejects():
    group = factor_qm_minus_1(3, 7)
    with pytest.raises(ValueError):
        sieve_params(group, factored(4, [(2, 2)]))
    with pytest.raises(ValueError):
        sieve_params(group, factored(7, [(7, 1)]))


def test_sieve_with_full_radical_equals_main():
    for q, m in [(32, 7), (64, 7), (101, 8)]:
        group = factor_qm_minus_1(q, m)
        cert = evaluate_l(q, m, 2, group, group.radical_factored())
        assert cert.s == 0 and cert.Delta == 1
        assert cert.passes == main_condition(q, m, 2, squarefree_divisor_count(group))


def test_sieve_monotone_in_l():
    q, m = 64, 7
    group = factor_qm_minus_1(q, m)
    certs = []
    for i in range(len(group.primes) + 1):
        value = 1
        for p in group.primes[:i]:
            value *= p
        certs.append(evaluate_l(
            q, m, 2, group, factored(value, [(p, 1) for p in group.primes[:i]])))
    for prev, cur in zip(certs, certs[1:]):
        assert cur.s == prev.s - 1
        assert cur.delta > prev.delta
        if prev.Delta is not None and cur.Delta is not None:
            assert cur.Delta < prev.Delta


# -- certificate search -----------------------------------------------------

def test_certificate_search_32_7():
    cert = certificate_search(32, 7, 2)
    assert cert is not None and cert.passes
    assert int(cert.l_radical) == 1
    assert cert.s == 4
    assert cert.omitted_primes == (31, 71, 127, 122921)
    assert cert.csv_row(1) == [1, 32, 1, 4, "0.8915505547", "9.8514897025"]


def test_certificate_search_64_7():
    cert = certificate_search(64, 7, 2)
    assert int(cert.l_radical) == 3
    assert cert.s == 5
    assert decimal_lower(cert.delta, 10) == "0.6457222649"


def test_certificate_search_2_7_fails():
    assert certificate_search(2, 7, 2) is None


def test_certificate_search_2_22():
    cert = certificate_search(2, 22, 2)
    assert int(cert.l_radical) == 1
    assert cert.s == 4
    assert decimal_lower(cert.delta, 10) == "0.2209766437"


def test_certificate_serialize():
    cert = certificate_search(32, 7, 2)
    d = cert.serialize()
    assert d["q"] == 32 and d["l"] == 1 and d["passes"] is True
    assert d["delta_decimal"] == "0.8915505547"
    assert d["Delta_decimal"] == "9.8514897025"
    assert d["omitted_primes"] == [31, 71, 127, 122921]


def search_by_evaluate_l(q, m, n, cache=None):
    """The certificate search with every subset built by evaluate_l in
    Fractions, in the same order: the oracle for the integer test."""
    group = factor_qm_minus_1(q, m, cache=cache)
    head = group.primes[:6]
    for size in range(len(head) + 1):
        for subset in sorted(combinations(head, size), key=prod):
            cert = evaluate_l(q, m, n, group,
                              factored(prod(subset), [(p, 1) for p in subset]))
            if cert.passes:
                return cert
    return None


def test_certificate_search_matches_evaluate_l_on_the_scan(tmp_path):
    # every exception of scan 2 at n = 2, and a seeded sample at n = 1, 3, 4
    cache = FactorCache(tmp_path / "factors.json")
    pairs = [(r.q, r.m) for r in scan_exceptions(2, cache=cache)]
    assert len(pairs) == 495
    rng = random.Random(18)
    cases = [(q, m, 2) for q, m in pairs] + [
        (q, m, n) for n in (1, 3, 4) for q, m in rng.sample(pairs, 60)]
    found = 0
    for q, m, n in cases:
        cert = certificate_search(q, m, n, cache=cache)
        assert cert == search_by_evaluate_l(q, m, n, cache), (q, m, n)
        found += cert is not None
    assert 0 < found < len(cases)


def test_certificate_search_matches_evaluate_l_at_the_edges():
    # omega <= 6 puts the s = 0 subset (l the whole radical) in the
    # search; delta <= 0 at l = 1 means some subsets have no Delta
    whole_radical = no_delta = 0
    for q in prime_powers_upto(64):
        for m in range(5, 10):
            group = factor_qm_minus_1(q, m)
            whole_radical += len(group.primes) <= 6
            no_delta += sieve_params(group, factored(1, []))[2] is None
            for n in (1, 2, 3, 4):
                assert certificate_search(q, m, n) == search_by_evaluate_l(
                    q, m, n), (q, m, n)
    assert whole_radical >= 20 and no_delta >= 20


# -- worst-case windows -----------------------------------------------------

TABLE_ROWS = [
    (10, 61, "0.0479926", "2106.4882452", 8835252073),
    (7, 29, "0.1237982", "349.3392467", 22894297),
    (6, 23, "0.1255013", "264.9453729", 4340865),
    (6, 22, "0.1495977", "209.2223842", 3427900),
    (6, 21, "0.1749141", "167.7955787", 2749163),
    (5, 19, "0.0766343", "354.3225878", 1451306),
    (5, 18, "0.1064850", "236.7747170", 969830),
]


@pytest.mark.parametrize("a,b,delta_str,Delta_str,bound", TABLE_ROWS)
def test_worst_case_rows_match_printed(a, b, delta_str, Delta_str, bound):
    row = worst_case_row(a, b, 2)
    assert row.usable
    assert row.W_l == 2 ** a
    assert row.s == b - a
    assert decimal_lower(row.delta_lower, 7) == delta_str
    assert decimal_upper(row.Delta_upper, 7) == Delta_str
    assert row.bound_value == bound


def test_windows_constant_matches_rows():
    assert tuple((a, b) for a, b, *_ in TABLE_ROWS) == WINDOWS


def test_wide_window():
    row = wide_window_row(2)
    assert (row.a, row.b) == (31, 472)
    assert row.delta_lower > Fraction(8225, 10 ** 7)
    assert decimal_lower(row.delta_lower, 7) == "0.0008225"
    assert row.Delta_upper < Fraction(10710812759510, 10 ** 7)
    assert row.bound_value < 19758 * 10 ** 21


def test_unusable_window_flagged():
    row = worst_case_row(1, 60, 2)
    assert not row.usable
    assert row.Delta_upper is None and row.bound_value is None


def test_worst_case_row_rejects():
    with pytest.raises(ValueError):
        worst_case_row(0, 5, 2)
    with pytest.raises(ValueError):
        worst_case_row(6, 5, 2)


# -- threshold cascade ------------------------------------------------------

EXPLICIT_QMAX = {7: 19624, 8: 984, 9: 457, 10: 248, 11: 150, 12: 98, 13: 69,
                 14: 51, 15: 39, 16: 31, 17: 25, 18: 21, 19: 18, 20: 15,
                 21: 13, 22: 12, 23: 10, 24: 9, 25: 9, 26: 8, 27: 7, 28: 7}
GROUPED_QSETS = [(range(29, 35), {2, 3, 4, 5}), (range(35, 40), {2, 3, 4}),
                 (range(40, 51), {2, 3}), (range(51, 80), {2})]


def test_cascade_bounds():
    assert cascade_bounds(2) == (2749163, 969830)


def test_cascade_explicit_thresholds():
    casc = threshold_cascade(2)
    for m, qmax in EXPLICIT_QMAX.items():
        assert casc[m] == qmax, m


def test_cascade_grouped_rows():
    casc = threshold_cascade(2)
    for ms, qset in GROUPED_QSETS:
        for m in ms:
            assert set(prime_powers_upto(casc[m])) == qset, m
    assert max(casc) == 79
    assert sorted(casc) == list(range(7, 80))
