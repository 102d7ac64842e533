import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from primpairs import arith
from primpairs.arith import (
    FactorCache,
    FactoredInteger,
    decimal_lower,
    decimal_upper,
    euler_phi,
    factor,
    factor_qm_minus_1,
    factored,
    is_probable_prime,
    moebius,
    nth_primes,
    omega,
    omega_bounds_qm_minus_1,
    primes_upto,
    squarefree_divisor_count,
    squarefree_divisors,
)


def test_primes_upto_small():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]


def test_primes_upto_small_limit_after_large_sieve():
    primes_upto(10 ** 5)
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(97)[-1] == 97
    assert len(primes_upto(10 ** 5)) == 9592


def test_nth_primes():
    assert nth_primes(5) == [2, 3, 5, 7, 11]
    ps = nth_primes(500)
    assert len(ps) == 500
    assert ps[31] == 131   # 32nd prime
    assert ps[471] == 3347  # 472nd prime
    assert ps[472] == 3359
    with pytest.raises(ValueError):
        nth_primes(0)


@pytest.mark.parametrize("n,expect", [
    (1, False), (2, True), (3, True), (4, False), (97, True),
    (1093, True), (122921, True), (2186, False),
    (2**61 - 1, True), (2**67 - 1, False),
    (390001, True),   # Phi_24(5)
    (51871, True),
    (96983, False),   # 293 * 331
])
def test_is_probable_prime(n, expect):
    assert is_probable_prime(n) is expect


def test_is_probable_prime_vs_sieve():
    ps = set(primes_upto(2000))
    for n in range(2000):
        assert is_probable_prime(n) == (n in ps)


@pytest.mark.parametrize("n,expect", [
    (1, ()),
    (2, ((2, 1),)),
    (12, ((2, 2), (3, 1))),
    (2186, ((2, 1), (1093, 1))),
    (2**35 - 1, ((31, 1), (71, 1), (127, 1), (122921, 1))),
    (2**42 - 1, ((3, 2), (7, 2), (43, 1), (127, 1), (337, 1), (5419, 1))),
    (2**32 - 1, ((3, 1), (5, 1), (17, 1), (257, 1), (65537, 1))),
    (969830, ((2, 1), (5, 1), (293, 1), (331, 1))),
    (2749163, ((53, 1), (51871, 1))),
])
def test_factor_known(n, expect):
    assert factor(n).factors == expect


def test_factor_large_semiprime():
    # both factors above the trial division limit forces rho
    p, q = 1_000_003, 1_000_033
    assert factor(p * q).factors == ((p, 1), (q, 1))


def test_factor_perfect_power_of_big_prime():
    p = 1_000_003
    assert factor(p ** 3).factors == ((p, 3),)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factor_recomposes(n):
    f = factor(n)
    assert math.prod(p ** e for p, e in f.factors) == n
    assert all(is_probable_prime(p) for p in f.primes)


def test_perfect_power_beyond_float_range():
    p = 2 ** 607 - 1
    assert arith._perfect_power(p ** 3) == (p, 3)
    n = 2 ** 1100 + 1  # not a perfect power (Mihailescu)
    assert arith._perfect_power(n) == (n, 1)
    assert arith._perfect_power(1_000_003 ** 6) == (1_000_003, 6)
    assert arith._perfect_power(3 ** (2 * 3 * 5)) == (3, 30)
    assert arith._perfect_power(p ** 12) == (p, 12)


def test_prime_power_agrees_with_factor():
    for q in range(3000):
        fs = factor(q).factors if q else ()
        if len(fs) == 1:
            assert arith.prime_power(q) == fs[0]
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                arith.prime_power(q)
    p = 2 ** 607 - 1
    assert arith.prime_power(p ** 5) == (p, 5)
    with pytest.raises(ValueError):
        arith.prime_power(p * (2 ** 127 - 1))


def test_factored_integer_validation():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 2),))          # wrong product
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))   # unsorted
    with pytest.raises(ValueError):
        FactoredInteger(0, ())


def test_factor_qm_minus_1_matches_direct():
    for q, m in [(2, 12), (3, 8), (5, 6), (4, 16), (9, 5), (32, 7)]:
        assert factor_qm_minus_1(q, m).factors == factor(q ** m - 1).factors


# pairs whose bracket is not exact: Phi_13(q) leaves a composite cofactor
@example(31, 13)
@example(53, 13)
@example(49, 13)
@given(st.sampled_from(arith.prime_powers_upto(64)),
       st.integers(min_value=1, max_value=15))
def test_omega_bounds_contain_omega(q, m):
    lo, hi = omega_bounds_qm_minus_1(q, m)
    exact = omega(factor_qm_minus_1(q, m))
    assert lo <= exact <= hi
    if lo == hi:
        assert lo == exact


def test_omega_bounds_strict_bracket():
    # Phi_13(53) keeps a composite cofactor after trial division
    assert omega_bounds_qm_minus_1(53, 13) == (3, 5)
    assert omega(factor_qm_minus_1(53, 13)) == 4


def test_omega_bounds_read_and_fill_cache(tmp_path):
    c = FactorCache(tmp_path / "cache.json")
    assert omega_bounds_qm_minus_1(12, 2, cache=c) == (2, 2)  # 11 * 13
    assert c.get(13) == ((13, 1),) and c.get(11) == ((11, 1),)
    factor_qm_minus_1(53, 13, cache=c)  # caches the composite part
    assert omega_bounds_qm_minus_1(53, 13, cache=c) == (4, 4)
    with pytest.raises(ValueError):
        omega_bounds_qm_minus_1(2, arith.TRIAL_LIMIT)


def test_cyclotomic_values():
    assert arith.cyclotomic_value(1, 10) == 9
    assert arith.cyclotomic_value(2, 10) == 11
    assert arith.cyclotomic_value(6, 2) == 3
    assert arith.cyclotomic_value(24, 5) == 390001
    # Phi_12(q) = (q^12 - 1)(q^2 - 1) / ((q^6 - 1)(q^4 - 1))
    assert arith._cyclotomic_exponents(12) == ((12, 1), (6, -1), (4, -1), (2, 1))


# a prime dividing both d and the part: Phi_7(8) = 7 * 42799, Phi_3(4) =
# 3 * 7, Phi_9(4) = 3 * 19 * 73; d a prime power: 8, 9, 49
@example(8, 7)
@example(4, 3)
@example(4, 9)
@example(3, 8)
@example(7, 9)
@example(8, 49)
@given(st.sampled_from(arith.prime_powers_upto(20000)),
       st.integers(min_value=1, max_value=80))
def test_trial_table_d_finds_every_small_prime_of_phi_d(q, d):
    part = arith.cyclotomic_value(d, q)
    assert arith._trial_divide(part, d) == arith._trial_divide(part)


def test_cyclotomic_prime_factors_are_in_table_d():
    # oracle: sympy's factorization, not the package's
    from sympy import factorint
    for d in range(1, 25):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for p in factorint(arith.cyclotomic_value(d, q)):
                assert p % d == 1 % d or d % p == 0, (d, q, p)
                if p < arith.TRIAL_LIMIT:
                    assert any(prod % p == 0 for _, _, prod
                               in arith._get_trial_chunks(d)), (d, q, p)


def test_trial_tables_hold_only_the_primes_that_can_divide():
    ps = primes_upto(arith.TRIAL_LIMIT - 1)
    assert len(arith._get_trial_chunks(1)) == math.ceil(len(ps) / 512) == 154
    ones_mod_7 = sum(p % 7 == 1 for p in ps)
    assert len(arith._get_trial_chunks(7)) <= math.ceil(ones_mod_7 / 512) + 1


@pytest.mark.parametrize("n,om,phi,mu", [
    (1, 0, 1, 1),
    (2, 1, 1, -1),
    (12, 2, 4, 0),
    (30, 3, 8, -1),
    (2186, 2, 1092, 1),
])
def test_multiplicative_functions(n, om, phi, mu):
    f = factor(n)
    assert omega(f) == om
    assert squarefree_divisor_count(f) == 2 ** om
    assert euler_phi(f) == phi
    assert moebius(f) == mu


def test_squarefree_divisors():
    f = factor(60)  # 2^2 * 3 * 5
    divs = squarefree_divisors(f)
    assert [int(d) for d in divs] == [1, 2, 3, 5, 6, 10, 15, 30]
    assert all(moebius(d) in (-1, 1) for d in divs)


@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=1, max_value=20000))
def test_W_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) != 1:
        return
    Wa = squarefree_divisor_count(factor(a))
    Wb = squarefree_divisor_count(factor(b))
    assert squarefree_divisor_count(factor(a * b)) == Wa * Wb


def test_decimal_rendering_directions():
    x = Fraction(1, 7)
    lo, hi = decimal_lower(x, 10), decimal_upper(x, 10)
    assert lo == "0.1428571428"
    assert hi == "0.1428571429"
    assert Fraction(lo) <= x <= Fraction(hi)
    # exact values render identically in both directions
    assert decimal_lower(Fraction(3, 8), 4) == decimal_upper(Fraction(3, 8), 4) == "0.3750"


def test_decimal_rendering_negative():
    x = Fraction(-1, 3)
    assert decimal_lower(x, 5) == "-0.33334"
    assert decimal_upper(x, 5) == "-0.33333"
    assert Fraction(decimal_lower(x, 5)) <= x <= Fraction(decimal_upper(x, 5))


def test_factor_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    c = FactorCache(path)
    f = factor(2 ** 35 - 1, cache=c)
    c.save()
    assert path.exists()
    c2 = FactorCache(path)
    assert c2.get(2 ** 35 - 1) == f.factors
    # a fresh factor() call must hit the cache rather than recompute
    assert factor(2 ** 35 - 1, cache=c2).factors == f.factors


def test_factor_cache_missing_file_ok(tmp_path):
    c = FactorCache(tmp_path / "no_such.json")
    assert c.get(10) is None
    c.save()  # nothing dirty: must not create the file
    assert not (tmp_path / "no_such.json").exists()


@pytest.mark.parametrize("entry", [
    [[91, 1]],            # composite listed as prime
    [[7, 1], [11, 1]],    # does not recompose
    [[7, 1], [13, 1], [13, 1]],  # repeated prime
    [[7, 1.0], [13, 1]],  # non-integer exponent
    [[2, 10 ** 9]],       # absurd exponent
    "7 * 13",
    [[7], [13]],
    None,
])
def test_factor_cache_rejects_invalid_entry(tmp_path, entry):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"91": entry}))
    c = FactorCache(path)
    assert c.get(91) is None
    assert str(factor(91, cache=c)) == "7 * 13"
    assert c.get(91) == ((7, 1), (13, 1))


def test_factor_cache_non_object_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("[[91, 1]]")
    c = FactorCache(path)
    assert c.get(91) is None
    assert factor(91, cache=c).factors == ((7, 1), (13, 1))


def test_factored_str():
    assert str(factor(1)) == "1"
    assert str(factor(12)) == "2^2 * 3"
    assert str(factor(2 ** 35 - 1)) == "31 * 71 * 127 * 122921"


def test_iroot_exact():
    assert arith.iroot(0, 3) == 0
    assert arith.iroot(1, 5) == 1
    assert arith.iroot(26, 3) == 2
    assert arith.iroot(27, 3) == 3
    assert arith.iroot(969830 ** 4, 8) == 984
    assert arith.iroot(2749163 ** 2, 3) == 19624
    with pytest.raises(ValueError):
        arith.iroot(-1, 2)
    with pytest.raises(ValueError):
        arith.iroot(5, 0)


@given(st.integers(min_value=0, max_value=10 ** 30),
       st.integers(min_value=1, max_value=11))
def test_iroot_bracketing(n, k):
    r = arith.iroot(n, k)
    assert r ** k <= n
    assert (r + 1) ** k > n


def test_prime_powers_upto():
    assert arith.prime_powers_upto(1) == []
    assert arith.prime_powers_upto(32) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
                                           17, 19, 23, 25, 27, 29, 31, 32]
    pp = arith.prime_powers_upto(1000)
    assert 729 in pp and 1000 not in pp
    assert pp == sorted(set(pp))


def test_radical_factored():
    f = factor(360)
    rf = f.radical_factored()
    assert int(rf) == 30
    assert rf.factors == ((2, 1), (3, 1), (5, 1))
