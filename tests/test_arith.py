from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import carmichael_lambda, crt_combine, divisors, euler_phi, mobius, multiplicative_order
from rsa_fixpoints import arith
from rsa_fixpoints.arith import Factorization, factorize, is_prime
from rsa_fixpoints.census import make_instance
from rsa_fixpoints.errors import FactoringError


def test_gcd_zero_convention():
    assert gcd(0, 12) == 12
    assert gcd(24, 36) == 12
    assert gcd(5**2 - 1, 6) == 6


def test_factorize_examples():
    assert factorize(1) == Factorization((), 1)
    assert factorize(35).factors == ((5, 1), (7, 1))
    assert factorize(2**6 * 3**2).factors == ((2, 6), (3, 2))


def test_factorize_splits_squares_of_primes_above_trial_division():
    # A cofactor that is a perfect square is split by isqrt, not by rho.
    r = 2**31 - 1
    assert factorize(r * r).factors == ((r, 2),)
    assert factorize(3 * r * r).factors == ((3, 1), (r, 2))
    assert factorize(r**4).factors == ((r, 4),)


def test_factorize_reconstructs_and_lists_primes():
    for n in range(1, 100_001):
        f = factorize(n)
        assert f.value == n
        assert prod(p**a for p, a in f.factors) == n
        previous = 1
        for p, a in f.factors:
            assert p > previous and a >= 1 and is_prime(p)
            previous = p


def test_factorize_large_semiprime():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_budget_exhaustion_carries_partial():
    # two 31-digit primes; a tiny budget cannot split their product
    a = 1000000000000000000000000000057
    b = 1000000000000000000000000000099
    with pytest.raises(FactoringError) as exc:
        factorize(4 * a * b, budget=10)
    err = exc.value
    assert err.partial.factors == ((2, 2),)
    assert err.remaining == a * b
    assert err.partial.value * err.remaining == 4 * a * b


def test_factorize_memo_keeps_results_not_errors():
    # The memo on factorize is what perfbench's cache_hit_ratio reads.
    assert callable(arith.factorize.cache_info)
    n = 1_000_000_007 * 998_244_353
    for _ in range(2):  # the second call is not answered from the memo
        with pytest.raises(FactoringError):
            factorize(n, budget=10)
    expected = Factorization(((998_244_353, 1), (1_000_000_007, 1)), n)
    assert factorize(n) == expected
    assert factorize(n, budget=10**6) == expected
    hits = arith.factorize.cache_info().hits
    assert factorize(n) == expected
    assert arith.factorize.cache_info().hits == hits + 1


def test_is_prime_small_and_carmichael():
    primes_below_100 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
    for n in range(100):
        assert is_prime(n) == (n in primes_below_100)
    assert not is_prime(561)        # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(2**61 - 1)
    # The sieve that factorize divides by, against trial division.
    trial = [m for m in range(2, 1 << 16) if all(m % d for d in range(2, isqrt(m) + 1))]
    assert arith._small_primes() == tuple(trial)


# 1287836182261 * 2575672364521, the least strong pseudoprime to every
# Miller-Rabin base is_prime uses.
MR_PSEUDOPRIME = 3317044064679887385961981


def test_is_prime_rejects_the_pseudoprime_to_all_bases():
    assert not is_prime(MR_PSEUDOPRIME)
    with pytest.raises(ValueError, match="odd prime"):
        make_instance(MR_PSEUDOPRIME, 1_000_003, 7)
    assert factorize(MR_PSEUDOPRIME).factors == ((1287836182261, 1), (2575672364521, 1))


def test_strong_lucas_accepts_primes_and_its_own_pseudoprimes():
    for m in (89, 107, 127):
        assert arith._strong_lucas(2**m - 1)
    # Strong Lucas pseudoprimes for Selfridge's parameters (OEIS A217255):
    # the Lucas test alone passes them, Miller-Rabin does not.
    for n in (5459, 5777, 10877, 16109, 18971):
        assert arith._strong_lucas(n)
        assert not is_prime(n)
    assert not arith._strong_lucas(MR_PSEUDOPRIME)


def test_divisors_examples():
    assert divisors(factorize(1)) == [1]
    assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]
    assert divisors(factorize(35)) == [1, 5, 7, 35]


def test_divisors_count_and_order():
    for n in range(1, 2000):
        f = factorize(n)
        divs = divisors(f)
        assert divs == sorted(set(divs))
        assert len(divs) == prod(a + 1 for _, a in f.factors)
        assert all(n % d == 0 for d in divs)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_divisor_sum_is_indicator():
    for n in range(1, 10_001):
        total = sum(mobius(d) for d in divisors(factorize(n)))
        assert total == (1 if n == 1 else 0)


def test_euler_phi_examples():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(35)) == 24
    assert euler_phi(factorize(8)) == 4


def test_euler_phi_matches_literal_count():
    for n in range(1, 1501):
        brute = sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)
        assert euler_phi(factorize(n)) == brute


def test_euler_phi_matches_sieve_to_ten_thousand():
    limit = 10_000
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    for n in range(1, limit + 1):
        assert euler_phi(factorize(n)) == phi[n]


def test_carmichael_lambda_examples():
    assert carmichael_lambda(factorize(8)) == 2
    assert carmichael_lambda(factorize(35)) == 12
    assert carmichael_lambda(factorize(1)) == 1


def test_carmichael_lambda_is_max_unit_order():
    for n in (8, 15, 16, 24, 35, 36, 63, 80, 100):
        lam = carmichael_lambda(factorize(n))
        orders = [multiplicative_order(a, n) for a in range(1, n) if gcd(a, n) == 1]
        assert max(orders) == lam
        assert all(lam % d == 0 for d in orders)


def test_multiplicative_order_examples():
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)
    with pytest.raises(ValueError):
        multiplicative_order(2, 1)


def test_multiplicative_order_divides_lambda_everywhere():
    for m in range(2, 2001):
        lam = carmichael_lambda(factorize(m))
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert lam % multiplicative_order(a, m) == 0


def test_multiplicative_order_is_minimal():
    for m in (7, 9, 15, 16, 35, 97):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            d = multiplicative_order(a, m)
            assert pow(a, d, m) == 1
            assert all(pow(a, i, m) != 1 for i in range(1, d))


@st.composite
def _order_cases(draw):
    # (a, m, factors) with ord_m(a) dividing the product N of the factors:
    # lambda(m)'s primes at raised exponents, extra primes at exponent 0 to
    # 2, in any order, and a unit a reduced or not.
    m = draw(st.integers(2, 10**5))
    unit = draw(st.integers(1, max(1, m - 1)).filter(lambda u: gcd(u, m) == 1))
    a = unit + m * draw(st.integers(0, 3))
    exps = {s: c + draw(st.integers(0, 2)) for s, c in factorize(carmichael_lambda(factorize(m))).factors}
    for s in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 101)), unique=True, max_size=3)):
        exps.setdefault(s, draw(st.integers(0, 2)))
    return a, m, tuple(draw(st.permutations(list(exps.items()))))


@given(_order_cases())
@example((1, 97, ((2, 5), (3, 1))))  # a = 1
@example((3 + 2 * 1024, 1024, ((2, 8),)))  # 2**k, unreduced a
@example((5, 7, ((7, 0), (2, 1), (3, 1))))  # the (r, b - 1) entry of the order table at b = 1
@example((5, 3, ((3, 0), (2, 1))))  # the order table of (5, 7, 5) at r = 3, b = 1: (3, 0) peels last
@example((2, 63, ((2, 3), (3, 2), (101, 1))))  # a prime of N outside the order, peeled first
@settings(max_examples=200, deadline=None)
def test_order_exponents_match_brute_force_order(case):
    a, m, factors = case
    d, y = 1, a % m
    while y != 1:
        d, y = d + 1, y * a % m
    want = {}
    for s, _ in factors:
        want[s] = 0
        while d % s**(want[s] + 1) == 0:
            want[s] += 1
    assert arith._order_exponents(a, m, arith._peel_plan(factors)) == want


def test_crt_combine_examples():
    assert crt_combine([(0, 5), (1, 7)]) == 15
    assert crt_combine([(9, 4)]) == 1
    assert crt_combine([(1, 5), (1, 7)]) == 1


def test_crt_combine_rejects_shared_factor():
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 9)])


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_crt_combine_round_trip(residues, data):
    # draw pairwise-coprime moduli, then check componentwise reduction
    moduli = []
    acc = 1
    for _ in residues:
        m = data.draw(st.integers(1, 1000).filter(lambda v: gcd(v, acc) == 1))
        moduli.append(m)
        acc *= m
    pairs = [(r % m, m) for r, m in zip(residues, moduli)]
    x = crt_combine(pairs)
    assert 0 <= x < acc
    for r, m in pairs:
        assert x % m == r


@given(st.integers(0, 2**64), st.integers(0, 2**64))
def test_gcd_is_greatest_common_divisor(a, b):
    g = gcd(a, b)
    if a or b:
        assert a % g == 0 and b % g == 0


@given(st.integers(2, 10**9))
@settings(max_examples=300, deadline=None)
def test_factorize_round_trip_random(n):
    f = factorize(n)
    assert prod(p**a for p, a in f.factors) == n
    assert all(is_prime(p) for p, _ in f.factors)
