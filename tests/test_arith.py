import functools
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    omega_bounds_row,
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


PSI_12 = 399165290221 * 798330580441  # psi_12, Sorenson and Webster 2017


def test_twelve_bases_decide_primality_only_below_psi12():
    # psi_12 passes the 12-base test, so that test is proven only below it
    assert PSI_12 == arith._PSI_12 == 318665857834031151167461
    from sympy.ntheory.primetest import mr
    assert mr(PSI_12, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    assert not is_probable_prime(PSI_12)
    assert is_probable_prime(PSI_12 - 1) is False  # even


def test_is_probable_prime_below_psi12_matches_sympy():
    from sympy import isprime, nextprime
    rng = random.Random(2017)
    sample = [nextprime(rng.randrange(2 ** 64, PSI_12 - 2 ** 20))
              for _ in range(100)]
    while len(sample) < 200:  # products of two ~40-bit primes
        n = nextprime(rng.randrange(2 ** 38, 2 ** 40)) * nextprime(
            rng.randrange(2 ** 38, 2 ** 40))
        if 2 ** 64 <= n < PSI_12:
            sample.append(n)
    sample += [rng.randrange(2 ** 64, PSI_12) | 1 for _ in range(200)]
    assert sum(map(isprime, sample)) >= 100
    for n in sample:
        assert is_probable_prime(n) == isprime(n), n


#: psi_1 .. psi_12, OEIS A014233 (Jaeschke 1993, Sorenson and Webster 2017)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, PSI_12)


def strong_probable_prime(n, a):
    """One Miller-Rabin round of odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("k", range(1, 13))
def test_psi_ladder_fools_exactly_the_bases_it_is_proven_for(k):
    # psi_k is composite yet passes the first k prime bases, so below it,
    # and only there, those k bases decide primality
    from sympy import isprime
    psi = PSI[k - 1]
    assert arith._PSI[k - 1] == psi and not isprime(psi)
    assert all(strong_probable_prime(psi, a) for a in nth_primes(k))
    assert is_probable_prime(psi) is False


def test_is_probable_prime_below_2_64_matches_sympy():
    from sympy import isprime, nextprime
    rng = random.Random(1993)
    sample = [rng.randrange(arith.TRIAL_LIMIT, 2 ** 64) for _ in range(300)]
    sample += [nextprime(rng.randrange(arith.TRIAL_LIMIT, 2 ** 64))
               for _ in range(100)]
    for psi in PSI[:11]:  # within 2**16 of each step of the ladder
        sample += [psi + rng.randrange(-2 ** 16, 2 ** 16) for _ in range(40)]
        sample += [nextprime(psi - 2 ** 16), nextprime(psi)]
    for bits in (21, 26, 32):  # semiprimes with both factors above 10**6
        sample += [nextprime(rng.randrange(10 ** 6, 2 ** bits))
                   * nextprime(rng.randrange(10 ** 6, 2 ** bits))
                   for _ in range(30)]
    assert sum(map(isprime, sample)) >= 120
    for n in sample:
        assert is_probable_prime(n) == isprime(n), n


def test_cofactors_below_trial_limit_squared_are_prime():
    # parts whose cofactor above the primes below TRIAL_LIMIT lies in
    # (TRIAL_LIMIT, TRIAL_LIMIT**2), taken prime untested, or just above,
    # prime or a product of two primes above TRIAL_LIMIT that rho splits
    from sympy import factorint
    limit = arith.TRIAL_LIMIT
    rng = random.Random(12)
    qs = arith.prime_powers_upto(3000)
    cases = {"below": [], "above prime": [], "above composite": []}
    while min(map(len, cases.values())) < 6:
        q, m = rng.choice(qs), rng.randrange(5, 11)
        for d in arith._divisors_of(m):
            fac, rem = arith._trial_divide(arith.cyclotomic_value(d, q), d)
            rem *= math.prod(p ** e for p, e in fac.items() if p > limit)
            if limit < rem < limit ** 2:
                kind = "below"
            elif limit ** 2 <= rem < 10 * limit ** 2:
                kind = "above prime" if is_probable_prime(rem) else (
                    "above composite")
            else:
                continue
            if len(cases[kind]) < 6:
                cases[kind].append((q, m))
            break
    for q, m in sum(cases.values(), []):
        assert dict(factor_qm_minus_1(q, m).factors) == factorint(
            q ** m - 1), (q, m)


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


def test_rho_walks_x_to_the_k_on_cyclotomic_cofactors():
    # the cofactor of Phi_7(2311), 40091927 * 18725553757, both primes
    # 1 (mod 14): the walk y**14 + c splits it in 9,213 modular squarings
    # (3,071 steps), y**2 + c needs 15,615
    n = 750743534260219739
    assert arith._brent_rho(n, 14, 12_000) in (40091927, 18725553757)
    with pytest.raises(arith.FactorBudgetExceeded):
        arith._brent_rho(n, 2, 12_000)


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


# pairs whose bracket is not exact: Phi_13(q) leaves a composite cofactor;
# the cofactor of Phi_7(q) is a proven product of two primes at q = 173,
# has a prime below its cube root at q = 1367 (two primes) and q = 5953
# (three), and has its cube root above _CUBE_LIMIT at q = 2939
@example(31, 13)
@example(53, 13)
@example(49, 13)
@example(173, 7)
@example(1367, 7)
@example(5953, 7)
@example(2939, 7)
@given(st.sampled_from(arith.prime_powers_upto(64)),
       st.integers(min_value=1, max_value=15))
def test_omega_bounds_contain_omega(q, m):
    lo, hi, exact = next(omega_bounds_row([q], m))
    om = omega(factor_qm_minus_1(q, m))
    assert lo <= om <= hi
    if lo == hi:
        assert lo == om
    assert exact() == om


def test_omega_bounds_strict_bracket():
    # Phi_13(53) keeps a composite cofactor after trial division
    assert next(omega_bounds_row([53], 13))[:2] == (3, 5)
    assert omega(factor_qm_minus_1(53, 13)) == 4


def test_omega_bounds_read_and_fill_cache(tmp_path):
    c = FactorCache(tmp_path / "cache.json")
    assert next(omega_bounds_row([12], 2, cache=c))[:2] == (2, 2)  # 11 * 13
    assert c.get(13) == ((13, 1),) and c.get(11) == ((11, 1),)
    factor_qm_minus_1(53, 13, cache=c)  # caches the composite part
    assert next(omega_bounds_row([53], 13, cache=c))[:2] == (4, 4)
    with pytest.raises(ValueError):
        next(omega_bounds_row([2], arith.TRIAL_LIMIT))


def _prime_1_mod_14(x):
    """The least prime p = 1 (mod 14) above x."""
    p = x - x % 14 + 15
    while not is_probable_prime(p):
        p += 14
    return p


_ABOVE_TRIAL = st.integers(min_value=10 ** 6, max_value=2 ** 34)


@given(_ABOVE_TRIAL, _ABOVE_TRIAL)
def test_two_primes_proves_a_product_of_two_primes(a, b):
    p, q = _prime_1_mod_14(a), _prime_1_mod_14(b)
    if p != q:
        assert arith._two_primes(p * q, 7)
    assert not arith._two_primes(p * p, 7)


@given(st.lists(st.integers(min_value=10 ** 6, max_value=2 ** 23 - 2 ** 16),
                min_size=3, max_size=3))
def test_two_primes_rejects_three_primes(xs):
    c = math.prod(_prime_1_mod_14(x) for x in xs)
    assert c < 2 ** 69 and not arith._two_primes(c, 7)


# offset 0: the prime p is floor(cbrt(p * q)) itself
@example(10 ** 6, 0)
@example(2 ** 22, 0)
@given(st.integers(min_value=10 ** 6, max_value=2 ** 22),
       st.integers(min_value=0, max_value=2 ** 24))
def test_two_primes_rejects_a_prime_below_the_cube_root(a, offset):
    p = _prime_1_mod_14(a)
    q = _prime_1_mod_14(p * p + offset)
    assert p <= arith.iroot(p * q, 3) <= arith._CUBE_LIMIT
    assert not arith._two_primes(p * q, 7)


# three primes above _CUBE_LIMIT would pass a search that stopped there
@given(st.lists(st.integers(min_value=arith._CUBE_LIMIT, max_value=2 ** 30),
                min_size=3, max_size=3),
       st.lists(st.integers(min_value=2 ** 35, max_value=2 ** 40),
                min_size=2, max_size=2))
def test_two_primes_needs_the_cube_root_below_the_limit(three, two):
    for xs in (three, two):
        c = math.prod(_prime_1_mod_14(x) for x in xs)
        assert arith.iroot(c, 3) > arith._CUBE_LIMIT
        assert not arith._two_primes(c, 7)


@pytest.mark.parametrize("step", [2, 14, 158, 30030])
def test_progression_primes_are_the_primes_of_the_progression(step):
    from sympy import primerange

    ps = arith._progression_primes(step)
    assert ps.dtype == np.int32
    limit = arith._CUBE_LIMIT
    for lo, hi in ((arith.TRIAL_LIMIT, 1_300_000), (limit - 300_000, limit)):
        window = ps[(ps > lo) & (ps <= hi)].tolist()
        assert window == [p for p in primerange(lo + 1, hi + 1)
                          if p % step == 1]


def test_exact_omega_caches_only_factored_parts(tmp_path):
    c = FactorCache(tmp_path / "cache.json")
    part = arith.cyclotomic_value(7, 173)  # a proven product of two primes
    _, _, exact = next(omega_bounds_row([173], 7, cache=c))
    assert exact() == 4  # 2, 43, and those two
    assert c.get(172) == ((2, 2), (43, 1)) and c.get(part) is None
    assert exact() == 4


def test_exact_omega_finishes_the_held_split(tmp_path, monkeypatch):
    # the cofactor of Phi_7(3061) has a prime below its cube root: exact
    # factors that part alone by rho, from the split the bracket was read
    # from, and caches it
    from sympy import factorint

    c = FactorCache(tmp_path / "cache.json")
    _, _, exact = next(omega_bounds_row([3061], 7, cache=c))

    def unexpected(n, d=1):
        raise AssertionError("a part is split again")

    monkeypatch.setattr(arith, "_trial_divide", unexpected)
    assert exact() == len(factorint(3061 ** 7 - 1))
    part = arith.cyclotomic_value(7, 3061)
    assert c.get(part) == tuple(sorted(factorint(part).items()))


def test_exact_omega_proves_a_prime_cofactor_once(tmp_path, monkeypatch):
    # Phi_7(149) leaves a prime cofactor above TRIAL_LIMIT**2: the bracket
    # reads it untested, and exact() proves it prime before _two_primes
    # sees it, counts it as one prime and caches the part
    from sympy import factorint, isprime

    part = arith.cyclotomic_value(7, 149)
    _, rem = arith._split_part(part, 7, None)
    assert rem >= arith.TRIAL_LIMIT ** 2 and isprime(rem)
    tested, prime = [], arith.is_probable_prime

    def tracked(n):
        tested.append(n)
        return prime(n)

    def two_primes(c, d):
        raise AssertionError("a prime cofactor reached _two_primes")

    monkeypatch.setattr(arith, "is_probable_prime", tracked)
    monkeypatch.setattr(arith, "_two_primes", two_primes)
    c = FactorCache(tmp_path / "cache.json")
    lo, hi, exact = next(omega_bounds_row([149], 7, cache=c))
    assert tested == []
    om = len(factorint(149 ** 7 - 1))
    assert lo <= om <= hi and lo < hi
    assert exact() == om and tested == [rem]
    assert c.get(part) == tuple(sorted(factorint(part).items()))


_PRIMES = primes_upto(arith.TRIAL_LIMIT)
#: where each chunk of table 1 but the first starts in _PRIMES
_CHUNK_LOS = [lo for lo, _, _ in arith._get_trial_chunks(1)[1:]]
_PHI_D_QS = {d: arith.prime_powers_upto(
    min(20000, 2 ** (64 // euler_phi(factor(d))))) for d in range(1, 25)}


def _assert_split_matches_sympy(n, d):
    """_split_part(n, d, None) recomposes to n, with sympy's primes below
    TRIAL_LIMIT and a cofactor of the rest: 1, or at least TRIAL_LIMIT**2."""
    from sympy import factorint

    fac, rem = arith._split_part(n, d, None)
    assert math.prod(p ** e for p, e in fac.items()) * rem == n
    want = factorint(n)
    if rem > 1:
        assert rem >= arith.TRIAL_LIMIT ** 2
        want = {p: e for p, e in want.items() if p < arith.TRIAL_LIMIT}
    assert fac == want, (n, d)


# the first draw of each d builds its trial table, which can take most
# of a second; the deadline would read that cached build as flakiness
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=24).flatmap(
    lambda d: st.tuples(st.just(d), st.sampled_from(_PHI_D_QS[d]))))
def test_square_root_stop_splits_cyclotomic_values(dq):
    d, q = dq
    _assert_split_matches_sympy(arith.cyclotomic_value(d, q), d)


# the square of a chunk's first prime, stopped at that chunk, would be
# taken for a prime; so would a product of two primes of one chunk,
# stopped by the chunk's last prime; the primes up to 53, with and
# without powers of 2 and 3, meet chunk 0 in a gcd above 2**63
@example(math.prod(primes_upto(53)))
@example(math.prod(primes_upto(53)) * 2 ** 7 * 3 ** 4)
@example(_PRIMES[_CHUNK_LOS[0]] ** 2)
@example(_PRIMES[_CHUNK_LOS[0]] * _PRIMES[_CHUNK_LOS[0] + 1])
@example(_PRIMES[_CHUNK_LOS[-1]] ** 2)
@example(_PRIMES[_CHUNK_LOS[0] - 1] ** 2)
@example(_PRIMES[-1])
@example(1)
@settings(deadline=None)
@given(st.one_of(
    st.integers(min_value=1, max_value=10 ** 18),
    st.sampled_from(_PRIMES),
    st.builds(lambda i, j, k: _PRIMES[i] * _PRIMES[i + j] * k,
              st.sampled_from([lo + s for lo in _CHUNK_LOS for s in (-1, 0, 1)]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=50))))
def test_square_root_stop_splits_plain_integers(n):
    _assert_split_matches_sympy(n, 1)


# Phi_7(2311) = 7 * 29 * 40091927 * 18725553757 and Phi_7(59) = 43 * 281
# * 757 * 4691: the first chunk of table 7, whose least prime is 7, meets
# each in a gcd of several primes, at least 7**2, read from its residues
@pytest.mark.parametrize("q, hit", [(2311, 7 * 29),
                                    (59, 43 * 281 * 757 * 4691)])
def test_a_chunk_hit_of_several_primes_is_read_from_residues(q, hit):
    part = arith.cyclotomic_value(7, q)
    lo, _, prod = arith._get_trial_chunks(7)[0]
    assert math.gcd(part, prod) == hit >= _PRIMES[lo] ** 2
    _assert_split_matches_sympy(part, 7)


@example(0)
@example(2 ** 63)
@example(2 ** 96 - 1)
@given(st.integers(min_value=0, max_value=2 ** 300))
def test_residues_are_the_remainders_by_each_prime(c):
    ps = arith._trial_primes()[::401]
    assert arith._residues(c, ps).tolist() == [c % p for p in ps.tolist()]


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


# 7 || Phi_7(q) for q = 1 (mod 7); d a prime power or with two primes;
# q in {2, 3} for d <= 2; q = p**k with p in table d (29 = 1 mod 7, and
# every prime is in table 1); table 500009 holds no prime = 1 (mod d)
@example(7, [8, 29, 43, 71, 2, 19609])
@example(8, [3, 5, 7, 9, 17, 41, 4913])
@example(9, [2, 4, 7, 19, 37, 361])
@example(12, [5, 7, 13, 25, 37, 169])
@example(1, [2, 3])
@example(2, [2, 3])
@example(7, [29, 841, 24389, 43, 1849])
@example(1, [9, 27, 81, 125])
@example(500009, [2, 3])
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=80),
       st.lists(st.sampled_from(arith.prime_powers_upto(20000)),
                min_size=1, max_size=12, unique=True))
def test_root_sieve_splits_like_trial_division(d, qs):
    sieve = arith._RowSieve(qs)
    for i, q in enumerate(qs):
        part = arith.cyclotomic_value(d, q)
        divide = functools.partial(sieve.split, i)
        assert arith._split_part(part, d, None, divide) == arith._split_part(
            part, d, None), q


@pytest.mark.parametrize("m", [7, 12])
def test_omega_bounds_of_a_sieved_row_match_one_q_at_a_time(m):
    qs = arith.prime_powers_upto(4000)
    assert len(qs) >= arith._ROW_SIEVE_MIN
    assert [b[:2] for b in omega_bounds_row(qs, m)] == [
        next(omega_bounds_row([q], m))[:2] for q in qs]


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


@pytest.mark.parametrize("n", [0, 1300])
def test_factor_cache_save_writes_the_bytes_of_json_dump(tmp_path, n):
    c = FactorCache(tmp_path / "cache.json")
    c._load()  # an empty cache, saved as {}
    c._dirty = True
    for k in range(2, n + 2):
        factor(k, cache=c)
    c.save()
    want = io.StringIO()
    json.dump(c._data, want)
    assert len(c._data) == n
    assert c.path.read_text() == want.getvalue()


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
