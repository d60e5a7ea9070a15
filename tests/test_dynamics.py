import random
from math import gcd, lcm

import pytest

from conftest import multiplicative_order, odd_primes_upto, sample_exponents, semiprime_pairs, walk_periods
from rsa_fixpoints import arith, census, dynamics
from rsa_fixpoints.arith import divisors, factorize
from rsa_fixpoints.census import RsaInstance, make_instance
from rsa_fixpoints.dynamics import (
    PeriodRecord,
    _period_products,
    analytic_cycle_structure,
    enumerate_fixed_points,
    extract_factor_from_fixed_point,
    find_nontrivial_fixed_point,
    iterate_power_map,
    period_of_point,
)
from rsa_fixpoints.errors import CapExceededError

INST = make_instance(5, 7, 5)


def _sample_instances(n_limit=400, e_count=2):
    for p, q in semiprime_pairs(n_limit):
        import math

        lam = math.lcm(p - 1, q - 1)
        for e in sample_exponents(lam, e_count, seed=f"dyn:{p}:{q}"):
            yield make_instance(p, q, e)


def test_iterate_power_map():
    assert iterate_power_map(17, INST, 0) == 17
    assert iterate_power_map(2, INST, 1) == 32
    assert iterate_power_map(2, INST, 2) == 2
    with pytest.raises(ValueError):
        iterate_power_map(35, INST, 1)


def test_period_of_point_examples():
    assert period_of_point(1, INST).period == 1
    rec = period_of_point(2, INST)
    assert rec.period == 2
    assert rec.component_orders == (4, 3)
    rec15 = period_of_point(15, INST)
    assert rec15.period == 1
    assert rec15.component_orders == (None, 1)


def test_period_record_matches_iteration():
    for inst in _sample_instances(300):
        periods = walk_periods(inst.n, inst.e)
        for x in range(inst.n):
            rec = period_of_point(x, inst)
            assert rec.period == periods[x], (inst, x)
            assert iterate_power_map(x, inst, rec.period) == x


def test_power_map_is_permutation_preserving_units():
    for inst in _sample_instances(300, e_count=1):
        image = {pow(x, inst.e, inst.n) for x in range(inst.n)}
        assert len(image) == inst.n
        for x in range(inst.n):
            y = pow(x, inst.e, inst.n)
            assert (gcd(x, inst.n) == 1) == (gcd(y, inst.n) == 1)


def test_enumerate_fixed_points_reference():
    points = enumerate_fixed_points(INST, 1)
    assert points == sorted(points)
    assert len(points) == 15
    for expected in (0, 1, 6, 15, 34):
        assert expected in points
    for m in points:
        assert pow(m, INST.e, INST.n) == m


def test_enumerate_period_two_disjoint_from_fixed():
    ones = set(enumerate_fixed_points(INST, 1))
    twos = enumerate_fixed_points(INST, 2)
    assert len(twos) == 20
    assert ones.isdisjoint(twos)
    for m in twos:
        assert iterate_power_map(m, INST, 2) == m
        assert iterate_power_map(m, INST, 1) != m


def test_enumerate_always_contains_trivial_fixed_points():
    for inst in (INST, make_instance(3, 5, 7), make_instance(11, 13, 7)):
        points = enumerate_fixed_points(inst, 1)
        for m in (0, 1, inst.n - 1):
            assert m in points


def test_enumerate_counts_match_census_on_sample():
    for inst in _sample_instances(300):
        cen = census.full_census(inst)
        seen = set()
        for k, e_k in cen.all_counts.items():
            pts = enumerate_fixed_points(inst, k)
            assert len(pts) == e_k, (inst, k)
            assert pts == sorted(set(pts))
            assert seen.isdisjoint(pts)
            seen.update(pts)
        assert len(seen) == inst.n


def test_enumerate_cap_error_carries_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_fixed_points(INST, 1, cap=5)
    assert exc.value.count == 15
    assert exc.value.cap == 5
    # 64-bit p, q at k = K_max: E_k is about n = 2^128, so the cap must trip
    # before anything n-sized is allocated.
    big = make_instance(2**64 - 59, 2**64 - 83, 65537)
    k_max = census.max_period(big)
    with pytest.raises(CapExceededError) as exc:
        enumerate_fixed_points(big, k_max)
    assert exc.value.count == census.exact_order_all_count(big, k_max)
    assert exc.value.count > big.n // 2
    assert exc.value.cap == 1_000_000


def test_enumerate_matches_iteration_beyond_sweep():
    # Seeded moduli 10^4 <= n <= 10^5, past the acceptance sweep's pq <= 3000,
    # against literal iteration for every k | K_max.
    rng = random.Random("enumerate-beyond-sweep")
    primes = odd_primes_upto(10**5 // 11)
    grid_sides = set()
    for e_choice in (3, 65537, None, 1):
        while True:
            p, q = sorted(rng.sample(primes, 2))
            lam = lcm(p - 1, q - 1)
            e = e_choice or sample_exponents(lam, 1, seed=f"beyond:{p}:{q}")[0]
            if 10**4 <= p * q <= 10**5 and gcd(e, lam) == 1:
                break
        inst = make_instance(p, q, e)
        by_period: dict[int, list[int]] = {}
        for x, k in enumerate(walk_periods(inst.n, e)):
            by_period.setdefault(k, []).append(x)
        cen = census.full_census(inst)
        for k, e_k in cen.all_counts.items():
            assert enumerate_fixed_points(inst, k, cap=inst.n) == by_period.get(k, []), (inst, k)
            if e_k:
                products, _, Q = _period_products(inst, k)
                grid_sides.add(16 * e_k >= Q * sum(len(A) for A, _ in products))
        if e == 1:
            assert enumerate_fixed_points(inst, 1, cap=inst.n) == list(range(inst.n))
    # Both emitters ran: the grid read back row by row and CRT pairing with a sort.
    assert grid_sides == {True, False}


def test_analytic_cycle_structure_reference():
    cs = analytic_cycle_structure(INST)
    assert cs.entries == {1: (15, 15), 2: (20, 10)}
    assert cs.n == 35


def test_cycle_structure_identity_map():
    inst = make_instance(5, 7, 13)
    cs = analytic_cycle_structure(inst)
    assert cs.entries == {1: (35, 35)}


def test_cycle_structure_matches_brute_decomposition():
    for inst in _sample_instances(300, e_count=1):
        periods = walk_periods(inst.n, inst.e)
        brute: dict[int, int] = {}
        for k in periods:
            brute[k] = brute.get(k, 0) + 1
        cs = analytic_cycle_structure(inst)
        assert cs.entries == {k: (pts, pts // k) for k, pts in brute.items()}
        assert sum(pts for pts, _ in cs.entries.values()) == inst.n
        for k, (pts, cycles) in cs.entries.items():
            assert pts == k * cycles


def test_extract_factor_examples():
    assert extract_factor_from_fixed_point(15, 35) == 5
    assert extract_factor_from_fixed_point(6, 35) == 5
    assert extract_factor_from_fixed_point(1, 35) is None
    assert extract_factor_from_fixed_point(0, 35) is None
    assert extract_factor_from_fixed_point(34, 35) is None


def test_find_nontrivial_fixed_point_reference():
    m = find_nontrivial_fixed_point(INST)
    assert m == 6
    assert m not in (0, 1, 34)
    assert pow(m, 5, 35) == m


def test_find_nontrivial_on_sample():
    for inst in _sample_instances(300, e_count=1):
        m = find_nontrivial_fixed_point(inst)
        assert m not in (0, 1, inst.n - 1)
        assert pow(m, inst.e, inst.n) == m
        assert extract_factor_from_fixed_point(m, inst.n) in (inst.p, inst.q)
        # smallest such point: every fixed point below m fails to split n
        for x in enumerate_fixed_points(inst, 1):
            if x == m:
                break
            assert extract_factor_from_fixed_point(x, inst.n) is None


def test_find_nontrivial_budget_fallback():
    m = find_nontrivial_fixed_point(INST, budget=5)  # E_1 = 15 > 5
    assert m == 15  # (0 mod 5, 1 mod 7)
    assert pow(m, 5, 35) == m


def _prime_with_known_p_minus_1(rng, bits):
    # A bits-bit prime p = 2 * B * (primes below 2**16) + 1, B a 20-bit
    # prime: the reference below factors lcm(ord_p, ord_q) from scratch, and
    # with these sizes that stays a short rho run on B_p * B_q.
    small = odd_primes_upto(1 << 16)
    while True:
        b = rng.randrange(1 << 19, 1 << 20)
        m = 2 * b
        while m.bit_length() < bits - 1:
            m *= rng.choice((2, 3, 5, 7)) if rng.random() < 0.5 else rng.choice(small)
        if (m + 1).bit_length() == bits and arith.is_prime(b) and arith.is_prime(m + 1):
            return m + 1


def _big_instances(seed, count, bits=(48, 64)):
    # count instances with p, q of bits[0] to bits[1] bits; e cycles
    # through 3, 65537 and a seeded random e.
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, q = (_prime_with_known_p_minus_1(rng, rng.randint(*bits)) for _ in range(2))
        lam = lcm(p - 1, q - 1)
        e = (3, 65537, rng.randrange(3, lam, 2))[len(out) % 3]
        if p != q and gcd(e, lam) == 1:
            out.append(make_instance(p, q, e))
    return out


def _points(rng, inst, count):
    # 0, eight multiples of p, eight of q, and seeded residues.
    return (
        [0]
        + [inst.p * rng.randrange(1, inst.q) for _ in range(8)]
        + [inst.q * rng.randrange(1, inst.p) for _ in range(8)]
        + [rng.randrange(inst.n) for _ in range(count - 17)]
    )


def _reference_period(x, inst):
    op, oq = (multiplicative_order(x % m, m) if x % m else None for m in (inst.p, inst.q))
    L = lcm(op or 1, oq or 1)
    return PeriodRecord(x, multiplicative_order(inst.e, L) if L > 1 else 1, (op, oq)), L


def test_period_of_point_matches_reference_at_64_bits():
    rng = random.Random("period-differential")
    for inst in _big_instances("period-differential", 6):
        for x in _points(rng, inst, 100):
            rec = period_of_point(x, inst)
            expected, L = _reference_period(x, inst)
            assert rec == expected, (inst, x)
            # The period is exact: e**P = 1 mod L, and no P / r is a period.
            P = rec.period
            assert pow(inst.e, P, L) == 1 % L
            for r, _ in factorize(P).factors:
                assert pow(inst.e, P // r, L) != 1, (inst, x, r)
        # e = 1 is the identity map: every point has period 1.
        ident = make_instance(inst.p, inst.q, 1)
        for x in _points(rng, ident, 20):
            rec = period_of_point(x, ident)
            assert rec.period == 1
            assert rec == _reference_period(x, ident)[0]


def test_no_factoring_after_the_order_table(monkeypatch):
    big = _big_instances("no-factoring", 1, bits=(64, 64))[0]
    small = make_instance(1201, 1249, 65537)
    rng = random.Random("no-factoring")
    points = [rng.randrange(big.n) for _ in range(50)]
    census._orders(big)
    census._orders(small)
    ks = divisors(factorize(census.max_period(small)))

    def run():
        return (
            [period_of_point(x, big) for x in points],
            [(census.max_period(i), census.full_census(i)) for i in (big, small)],
            [census.cumulative_unit_fixed_count(i, k) for i in (big, small) for k in (1, 2, 6, 12)],
            [enumerate_fixed_points(small, k, cap=small.n) for k in ks],
        )

    expected = run()
    dynamics._residues_by_period.cache_clear()

    def no_factoring(*args, **kwargs):
        raise AssertionError("factorize called after the order table was built")

    monkeypatch.setattr(arith, "factorize", no_factoring)
    assert run() == expected
