import random
import time
from math import gcd, lcm, prod

import pytest

from conftest import (
    brute_element_orders,
    brute_poly_fixed,
    brute_roots_of_unity,
    carmichael_lambda,
    cumulative_unit_fixed_count,
    divisors,
    euler_phi,
    invert,
    invert_at,
    lattice_census,
    mobius,
    multiplicative_order,
    odd_primes_upto,
    per_prime_exact_order_count,
    sample_exponents,
    semiprime_pairs,
    walk_periods,
)
from rsa_fixpoints import arith, census
from rsa_fixpoints.arith import factorize
from rsa_fixpoints.census import (
    elements_of_order_count,
    exact_order_all_count,
    exact_order_unit_count,
    exact_quasi_order_count,
    full_census,
    make_instance,
    max_period,
    poly_fixed_count,
    roots_of_unity_count,
)
from rsa_fixpoints.errors import CapExceededError


def test_make_instance_derives_group_orders():
    inst = make_instance(5, 7, 5)
    assert (inst.n, inst.phi, inst.lam) == (35, 24, 12)
    assert gcd(inst.e, inst.phi) == 1


@pytest.mark.parametrize(
    "p,q,e",
    [
        (4, 7, 5),    # p not prime
        (5, 5, 3),    # p = q
        (2, 7, 5),    # even prime rejected
        (1, 7, 5),    # p below 3, odd and not prime
        (-3, 7, 5),   # p negative
        (5, 7, 4),    # gcd(e, lambda) != 1
        (5, 7, 0),    # e < 1
        (5, 9, 7),    # q not prime
    ],
)
def test_make_instance_rejects(p, q, e):
    with pytest.raises(ValueError):
        make_instance(p, q, e)


def test_roots_of_unity_examples():
    for n in (6, 15, 35, 99):
        assert roots_of_unity_count(1, factorize(n)) == 1
    assert roots_of_unity_count(2, factorize(15)) == 4  # {1, 4, 11, 14}
    assert roots_of_unity_count(2, factorize(8)) == 4   # {1, 3, 5, 7}


def test_roots_of_unity_two_power_regression():
    # the unit group of Z/8 is C2 x C2, not cyclic: a product of
    # gcd(r, phi(2^a)) factors would undercount
    f8 = factorize(8)
    cyclic_product = prod(gcd(2, p ** (a - 1) * (p - 1)) for p, a in f8.factors)
    assert cyclic_product == 2
    assert roots_of_unity_count(2, f8) == 4 == brute_roots_of_unity(2, 8)


def test_roots_of_unity_matches_brute_scan():
    for n in range(2, 200):
        f = factorize(n)
        lam = carmichael_lambda(f)
        for r in range(1, 2 * lam + 2):
            assert roots_of_unity_count(r, f) == brute_roots_of_unity(r, n), (n, r)


def test_roots_of_unity_partition_by_exact_order_to_512():
    # x^r = 1 solutions split by exact order: count = sum of the brute
    # order histogram over divisors of r
    for n in range(2, 513):
        f = factorize(n)
        lam = carmichael_lambda(f)
        hist = brute_element_orders(n)
        for r in range(1, lam + 2):
            expected = sum(hist.get(d, 0) for d in divisors(factorize(r)))
            assert roots_of_unity_count(r, f) == expected, (n, r)


def test_poly_fixed_partition_by_quasi_order_to_512():
    # x^d = x solutions split by the minimal return exponent: count =
    # sum of the brute quasi-order histogram over L | d-1
    for n in range(2, 513):
        f = factorize(n)
        lam = carmichael_lambda(f)
        hist = brute_poly_fixed(n, 2)[1]
        for d in range(2, lam + 3):
            expected = sum(hist.get(L + 1, 0) for L in divisors(factorize(d - 1)))
            assert poly_fixed_count(d, f) == expected, (n, d)
        assert poly_fixed_count(1, f) == n


def test_cumulative_unit_fixed_count_examples():
    inst = make_instance(5, 7, 5)
    assert cumulative_unit_fixed_count(inst, 1) == 8
    assert cumulative_unit_fixed_count(inst, 2) == 24
    identity = make_instance(5, 7, 1)
    assert cumulative_unit_fixed_count(identity, 1) == identity.phi


def test_cumulative_matches_brute_count():
    inst = make_instance(5, 7, 5)
    for k in (1, 2, 3, 4):
        brute = sum(
            1
            for x in range(35)
            if gcd(x, 35) == 1 and pow(x, pow(inst.e, k), 35) == x
        )
        assert cumulative_unit_fixed_count(inst, k) == brute


def test_exact_order_unit_count_examples():
    inst = make_instance(5, 7, 5)
    assert exact_order_unit_count(inst, 1) == 8
    assert exact_order_unit_count(inst, 2) == 16
    assert exact_order_unit_count(inst, 3) == 0


def test_exact_order_all_count_examples():
    inst = make_instance(5, 7, 5)
    assert exact_order_all_count(inst, 1) == 15
    assert exact_order_all_count(inst, 2) == 20
    identity = make_instance(5, 7, 1)
    assert exact_order_all_count(identity, 1) == 35


def test_per_prime_exact_order_examples():
    assert per_prime_exact_order_count(5, 5, 1) == 4
    assert per_prime_exact_order_count(7, 5, 1) == 2
    assert per_prime_exact_order_count(7, 5, 2) == 4


def test_elements_of_order_examples():
    assert elements_of_order_count(factorize(7), 3) == 2
    assert elements_of_order_count(factorize(8), 2) == 3
    for n in (7, 8, 45):
        assert elements_of_order_count(factorize(n), 1) == 1


def test_elements_of_order_matches_brute_orders():
    for n in range(2, 200):
        f = factorize(n)
        lam = carmichael_lambda(f)
        hist = brute_element_orders(n)
        for r in range(1, lam + 1):
            assert elements_of_order_count(f, r) == hist.get(r, 0), (n, r)


def test_poly_fixed_examples():
    f15 = factorize(15)
    assert poly_fixed_count(1, f15) == 15
    assert poly_fixed_count(2, f15) == 4   # idempotents {0, 1, 6, 10}
    assert poly_fixed_count(3, f15) == 9


def test_poly_fixed_matches_brute_scan():
    for n in range(2, 150):
        f = factorize(n)
        lam = carmichael_lambda(f)
        for d in range(1, lam + 2):
            assert poly_fixed_count(d, f) == brute_poly_fixed(n, d)[0], (n, d)


def test_exact_quasi_order_examples():
    f15 = factorize(15)
    assert exact_quasi_order_count(f15, 2) == 4
    assert exact_quasi_order_count(f15, 3) == 5
    assert exact_quasi_order_count(f15, 4) == 0
    with pytest.raises(ValueError):
        exact_quasi_order_count(f15, 1)


def test_exact_quasi_order_matches_brute_histogram():
    for n in range(2, 150):
        f = factorize(n)
        lam = carmichael_lambda(f)
        hist = brute_poly_fixed(n, 2)[1]
        for r in range(2, lam + 2):
            assert exact_quasi_order_count(f, r) == hist.get(r, 0), (n, r)
        # the histograms cover exactly the residues whose components are
        # all zero-or-unit; that is the whole of Z_n iff n is squarefree
        coverage = prod(1 + euler_phi(factorize(p**a)) for p, a in f.factors)
        assert sum(hist.values()) == coverage


def test_order_table_matches_multiplicative_order():
    # The per-instance table against the classic order search: o(r, b) =
    # ord_{r**b}(e) for every r**b | lambda, p - 1 and q - 1 factored, and
    # K = ord_lambda(e) factored.
    for p, q in semiprime_pairs(3000)[::9]:
        lam = lcm(p - 1, q - 1)
        for e in [1, *sample_exponents(lam, 3, seed=f"table:{p}:{q}")]:
            orders, sides, k_max = census._orders(make_instance(p, q, e))
            assert [(x, f) for x, f, _ in sides] == [(p, factorize(p - 1)), (q, factorize(q - 1))]
            for r, a in factorize(lam).factors:
                assert orders[r] == tuple(multiplicative_order(e, r**b) if b else 1 for b in range(a + 1))
            assert k_max == factorize(multiplicative_order(e, lam))


def test_divisor_budget_bounds_the_census_lattice(monkeypatch):
    # d(K) = 12 for K = 60: at a budget of 12 every count comes out as
    # before; at 11 a transform over K's divisors refuses before its lattice,
    # naming d(K), and one over k = 30 (d = 8) still runs.
    inst = make_instance(1201, 1249, 65537)
    assert max_period(inst) == 60
    expected = full_census(inst)
    monkeypatch.setattr(census, "DIVISOR_BUDGET", 12)
    assert full_census(inst) == expected
    assert exact_order_all_count(inst, 60) == expected.all_counts[60]
    monkeypatch.setattr(census, "DIVISOR_BUDGET", 11)
    assert exact_order_all_count(inst, 30) == expected.all_counts[30]

    def no_lattice(f):
        raise AssertionError("divisor lattice built above the budget")

    monkeypatch.setattr(arith, "_divisor_lattice", no_lattice)
    for count in (lambda: full_census(inst), lambda: exact_order_all_count(inst, 60)):
        with pytest.raises(CapExceededError) as exc:
            count()
        assert (exc.value.count, exc.value.cap) == (12, 11)
        assert str(exc.value) == "divisor count d(K) = 12 exceeds the census budget 11"


def test_max_period_examples():
    assert max_period(make_instance(5, 7, 5)) == 2
    assert max_period(make_instance(5, 7, 13)) == 1  # 13 = 1 mod 12
    assert max_period(make_instance(3, 5, 7)) == 2


def test_full_census_reference_instance():
    cen = full_census(make_instance(5, 7, 5))
    assert cen.k_max == 2
    assert cen.unit_counts == {1: 8, 2: 16}
    assert cen.all_counts == {1: 15, 2: 20}


def test_full_census_identity_exponent():
    inst = make_instance(5, 7, 13)
    cen = full_census(inst)
    assert cen.unit_counts == {1: inst.phi}
    assert cen.all_counts == {1: inst.n}


def test_full_census_keys_are_divisors_of_k_max():
    inst = make_instance(5, 7, 11)
    cen = full_census(inst)
    assert cen.k_max == 2
    assert list(cen.all_counts) == divisors(factorize(cen.k_max))
    assert sum(cen.all_counts.values()) == 35
    identity = full_census(make_instance(5, 7, 1))
    assert identity.k_max == 1
    assert list(identity.unit_counts) == list(identity.all_counts) == [1]


def test_counts_vanish_beyond_k_max():
    inst = make_instance(5, 7, 5)  # k_max = 2
    # A 201-bit semiprime beyond the default rho budget: the count is 0
    # because k does not divide k_max, with no attempt to factor k.
    semiprime = 1267650600228229401496703205653 * 1267650600228229401496704205379
    for k in (3, 4, 5, 6, 7, 8, 12, 24, semiprime):
        assert exact_order_unit_count(inst, k) == 0
        assert exact_order_all_count(inst, k) == 0
    for count in (exact_order_unit_count, exact_order_all_count):
        with pytest.raises(ValueError, match="k must be >= 1"):
            count(inst, 0)


def _quick_grid(n_limit=1000, e_count=3):
    for p, q in semiprime_pairs(n_limit):
        lam = lcm(p - 1, q - 1)
        for e in sample_exponents(lam, e_count, seed=p * q * 7919):
            yield make_instance(p, q, e)


def test_partition_of_cumulative_counts():
    for inst in _quick_grid(600):
        for k in range(1, 25):
            lhs = sum(
                exact_order_unit_count(inst, d)
                for d in divisors(factorize(k))
            )
            assert lhs == cumulative_unit_fixed_count(inst, k), (inst, k)
            sides = [sum(census._period_histogram(inst, i, k).values()) for i in (0, 1)]
            assert prod(sides) == lhs, (inst, k)


def test_crt_decomposition_identity():
    for inst in _quick_grid():
        k_max = max_period(inst)
        for k in divisors(factorize(k_max)):
            expected = (
                exact_order_unit_count(inst, k)
                + per_prime_exact_order_count(inst.p, inst.e, k)
                + per_prime_exact_order_count(inst.q, inst.e, k)
                + (1 if k == 1 else 0)
            )
            assert exact_order_all_count(inst, k) == expected, (inst, k)


def test_unit_count_is_lcm_convolution_of_per_prime_counts():
    for inst in _quick_grid(600):
        k_max = max_period(inst)
        for k in divisors(factorize(k_max)):
            ks = divisors(factorize(k))
            tp = {i: per_prime_exact_order_count(inst.p, inst.e, i) for i in ks}
            tq = {j: per_prime_exact_order_count(inst.q, inst.e, j) for j in ks}
            conv = sum(
                tp[i] * tq[j] for i in ks for j in ks if lcm(i, j) == k
            )
            assert exact_order_unit_count(inst, k) == conv, (inst, k)


def test_completeness_divisibility_and_nonnegativity():
    for inst in _quick_grid():
        cen = full_census(inst)
        assert sum(cen.unit_counts.values()) == inst.phi
        assert sum(cen.all_counts.values()) == inst.n
        for k in cen.all_counts:
            t_k, e_k = cen.unit_counts[k], cen.all_counts[k]
            assert t_k >= 0 and e_k >= t_k
            assert t_k % k == 0 and e_k % k == 0


def test_nine_fixed_points_bound_quick():
    for inst in _quick_grid(600):
        if inst.e > 1:
            assert exact_order_all_count(inst, 1) >= 9, inst


def test_census_matches_walk_periods_quick():
    for inst in _quick_grid(400, e_count=2):
        cen = full_census(inst)
        periods = walk_periods(inst.n, inst.e)
        tally_all: dict[int, int] = {}
        tally_units: dict[int, int] = {}
        for x, k in enumerate(periods):
            tally_all[k] = tally_all.get(k, 0) + 1
            if gcd(x, inst.n) == 1:
                tally_units[k] = tally_units.get(k, 0) + 1
        for k in cen.all_counts:
            assert cen.all_counts[k] == tally_all.get(k, 0), (inst, k)
            assert cen.unit_counts[k] == tally_units.get(k, 0), (inst, k)
        assert set(tally_all) <= set(cen.all_counts)


def _smooth_prime(rng, bits, small=(3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    # p = m + 1 with m = 2 * (small primes) of the given bit length, so
    # that lambda(lambda(n)) and hence d(K) run into the hundreds.
    while True:
        m = 2
        while m.bit_length() < bits:
            m *= rng.choice(small)
        if m.bit_length() == bits and arith.is_prime(m + 1):
            return m + 1


def _random_instances(seed, count):
    rng = random.Random(seed)
    while count:
        bits = rng.choice((24, 32))
        p, q = _smooth_prime(rng, bits), _smooth_prime(rng, bits)
        lam = lcm(p - 1, q - 1)
        e = rng.choice((3, 65537, rng.randrange(3, lam, 2)))
        if p != q and gcd(e, lam) == 1:
            count -= 1
            yield make_instance(p, q, e)


def _literal_inversion(cumulative, k):
    # The per-k Mobius sum, written out as the reference.
    return sum(mobius(k // d) * cumulative(d) for d in divisors(factorize(k)))


def test_full_census_matches_literal_mobius_sums():
    largest = 0
    for inst in _random_instances(seed=7, count=12):
        cen = full_census(inst)
        largest = max(largest, len(cen.all_counts))
        e, p1, q1 = inst.e, inst.p - 1, inst.q - 1

        def g(d):
            return gcd(pow(e, d, p1) - 1, p1), gcd(pow(e, d, q1) - 1, q1)

        for k in cen.all_counts:
            t_k = _literal_inversion(lambda d: g(d)[0] * g(d)[1], k)
            e_k = _literal_inversion(lambda d: (g(d)[0] + 1) * (g(d)[1] + 1), k)
            assert (cen.unit_counts[k], cen.all_counts[k]) == (t_k, e_k), (inst, k)
            assert (exact_order_unit_count(inst, k), exact_order_all_count(inst, k)) == (t_k, e_k)
        assert sum(cen.unit_counts.values()) == inst.phi
        assert sum(cen.all_counts.values()) == inst.n
    assert largest >= 300  # the sample reaches d(K) in the hundreds


@pytest.mark.parametrize("k", [1, 2**6, 3**4, 360, 2**3 * 3**2 * 5**2 * 7])
def test_invert_helper_cases(k):
    # k = 1, prime powers, and k with repeated primes: sum of phi(c) over
    # c | d is d, so inverting d -> d gives phi, and constants invert to
    # the indicator of d = 1.
    f = factorize(k)
    divs = arith._divisor_lattice(f)
    assert sorted(divs) == divisors(f) and divs[-1] == k
    assert invert(f, list(divs)) == [euler_phi(factorize(d)) for d in divs]
    assert invert(f, [5] * len(divs)) == [5 if d == 1 else 0 for d in divs]
    squares = invert(f, [c * c for c in divs])
    assert squares == [_literal_inversion(lambda c: c * c, d) for d in divs]


BIG_64 = (12792783115444427129, 13143893440431103967, 3)

# p - 1 and q - 1 are products of primes below 120, drawn by a seeded search
# for d(K) >= 3 * 10**5 with at least 8 * 10**6 pairs of unit periods.
SMOOTH_128 = (197616663239849237535513726019150957183, 322213434309879116516078883102923599399, 65537)


def test_full_census_64_bit_instance():
    # p - 1 and q - 1 are smooth, so K has 11,520 divisors and one Mobius
    # sum per k would take 2 * 3,936,600 terms; the merge of per-prime
    # period maps touches at most 11,520 keys per prime power.
    inst = make_instance(*BIG_64)
    assert inst.p.bit_length() == inst.q.bit_length() == 64
    cen = full_census(inst)
    assert len(cen.all_counts) >= 10_000
    assert list(cen.unit_counts) == list(cen.all_counts) == divisors(factorize(cen.k_max))
    assert sum(cen.all_counts.values()) == inst.n
    assert sum(cen.unit_counts.values()) == inst.phi
    for k in cen.all_counts:
        assert cen.all_counts[k] % k == 0 and cen.unit_counts[k] % k == 0


def test_census_matches_the_lattice_inversion():
    # The merge against the paper's inversion over the divisor lattice of K
    # (conftest.lattice_census): the census, key order included, and the
    # single-k counts, on the sample grid and the 64-bit instance.
    for inst in [*_quick_grid(), make_instance(*BIG_64)]:
        cen = full_census(inst)
        units, alls = lattice_census(inst)
        assert (list(cen.unit_counts.items()), list(cen.all_counts.items())) == (
            list(units.items()),
            list(alls.items()),
        ), inst
        for k in list(alls)[:: max(1, len(alls) // 300)]:
            assert exact_order_unit_count(inst, k) == units[k], (inst, k)
            assert exact_order_all_count(inst, k) == alls[k], (inst, k)


def test_census_merge_has_no_pair_loop():
    # Two smooth 128-bit sides: a loop over pairs of unit periods, one from
    # each side, would take |H_p| * |H_q| >= 8 * 10**6 steps; the merge of
    # per-prime maps stays within d(K) keys per step.
    inst = make_instance(*SMOOTH_128)
    assert inst.p.bit_length() == inst.q.bit_length() == 128
    k_max = max_period(inst)
    hp, hq = (census._period_histogram(inst, i, k_max) for i in (0, 1))
    assert len(hp) * len(hq) >= 8 * 10**6
    start = time.perf_counter()
    cen = full_census(inst)
    assert time.perf_counter() - start < 2.0
    assert len(cen.all_counts) >= 3 * 10**5
    assert sum(cen.all_counts.values()) == inst.n
    assert sum(cen.unit_counts.values()) == inst.phi
    assert all(e_k % k == 0 for k, e_k in cen.all_counts.items())


def test_element_and_quasi_order_counts_match_the_inversion():
    # The closed forms against the inversion of the root and fixed-point
    # counts over the divisor lattice of r (or r - 1), on random (n, r).
    rng = random.Random("element-quasi")
    for _ in range(600):
        f = factorize(rng.randrange(2, 10**6))
        r = rng.randrange(1, 5000)
        assert elements_of_order_count(f, r) == invert_at(r, lambda d: roots_of_unity_count(d, f)), (f, r)
        if r >= 2:
            expected = invert_at(r - 1, lambda L: poly_fixed_count(L + 1, f))
            assert exact_quasi_order_count(f, r) == expected, (f, r)


def test_element_and_quasi_order_counts_stay_small_on_a_primorial(monkeypatch):
    # r = the product of the 29 primes below 110 has d(r) = 2**29 divisors.
    # The element count takes one root count per prime of r; the quasi-order
    # count at r + 1 has 2**29 squarefree terms, past DIVISOR_BUDGET, and
    # refuses before its first term.
    r = prod(odd_primes_upto(110)) * 2
    f35 = factorize(35)
    start = time.perf_counter()
    assert elements_of_order_count(f35, r) == 0

    def no_term(*args):
        raise AssertionError("a term was evaluated above the budget")

    monkeypatch.setattr(census, "poly_fixed_count", no_term)
    with pytest.raises(CapExceededError) as exc:
        exact_quasi_order_count(f35, r + 1)
    assert (exc.value.count, exc.value.cap) == (2**29, census.DIVISOR_BUDGET)
    assert time.perf_counter() - start < 1.0
