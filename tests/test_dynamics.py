import json
import random
from math import gcd, lcm, prod

import pytest

from conftest import (
    divisors,
    euler_phi,
    iterate_power_map,
    multiplicative_order,
    odd_primes_upto,
    sample_exponents,
    semiprime_pairs,
    walk_periods,
)
from rsa_fixpoints import arith, census, dynamics, reports
from rsa_fixpoints.arith import factorize
from rsa_fixpoints.census import RsaInstance, make_instance
from rsa_fixpoints.dynamics import (
    PeriodRecord,
    _period_products,
    enumerate_fixed_points,
    extract_factor_from_fixed_point,
    find_nontrivial_fixed_point,
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
    emitters = set()
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
            if 9 * e_k >= 5 * inst.n:
                emitters.add("mask")
            elif e_k:
                products, _, Q = _period_products(inst, k)
                emitters.add("grid" if 16 * e_k >= Q * sum(len(A) for A, _ in products) else "sort")
        if e == 1:
            assert enumerate_fixed_points(inst, 1, cap=inst.n) == list(range(inst.n))
    # All three emitters ran: the full-width mask (e = 1 among others), the
    # column grid read back row by row, and CRT pairing with a sort.
    assert emitters == {"mask", "grid", "sort"}


def test_period_classes_match_literal_iteration():
    # Each side's period classes, straight from the per-prime builder, against
    # y -> y**e mod x iterated, for every k | K of seeded p, q < 300: class s
    # holds only residues of period s, the classes are disjoint, and together
    # they are the y with y**(e**k) = y mod x.
    rng = random.Random("side-classes")
    primes = odd_primes_upto(300)
    for _ in range(12):
        p, q = rng.sample(primes, 2)
        for e in (1, *sample_exponents(lcm(p - 1, q - 1), 3, seed=f"side:{p}:{q}")):
            inst = make_instance(p, q, e)
            walks = [walk_periods(x, e) for x in (p, q)]
            for k in divisors(factorize(census.max_period(inst))):
                for i, (x, periods) in enumerate(zip((p, q), walks)):
                    classes = dynamics._residues_by_period(inst, i, k)
                    listed = [y for _, ys in classes for y in ys]
                    assert all(periods[y] == s for s, ys in classes for y in ys), (inst, i, k)
                    assert len(listed) == len(set(listed)), (inst, i, k)
                    assert set(listed) == {y for y in range(x) if pow(y, pow(e, k, x - 1), x) == y}, (inst, i, k)


def _check_class_bound(inst, k):
    # E_k >= phi(m_p) * phi(m_q) when E_k > 0, m_x = gcd(e**k - 1, x - 1) the
    # units mod x of period dividing k, and side x lists m_x + 1 residues; so
    # m_x + 1 <= (m_x / phi(m_x)) * E_k + 1, under 7.3 * E_k + 1 below 2**64.
    e_k = census.exact_order_all_count(inst, k)
    ms = [gcd((pow(inst.e, k, x - 1) - 1) % (x - 1), x - 1) for x in (inst.p, inst.q)]
    if e_k:
        assert e_k >= euler_phi(factorize(ms[0])) * euler_phi(factorize(ms[1])), (inst, k)
    if sum(ms) <= 10**5:
        for i, m in enumerate(ms):
            assert sum(len(ys) for _, ys in dynamics._residues_by_period(inst, i, k)) == m + 1, (inst, i, k)


def test_enumeration_classes_are_bounded_by_the_count():
    # The cap check on E_k also bounds the per-side classes enumeration builds,
    # on the census sample grid and on 64-bit instances at small k.
    for p, q in semiprime_pairs(1000):
        for e in sample_exponents(lcm(p - 1, q - 1), 3, seed=p * q * 7919):
            inst = make_instance(p, q, e)
            for k in divisors(factorize(census.max_period(inst))):
                _check_class_bound(inst, k)
    for inst in [make_instance(2**64 - 59, 2**64 - 83, 65537), *_big_instances("class-bound", 3, bits=(64, 64))]:
        k_max = census.max_period(inst)
        for k in range(1, 61):
            if k_max % k == 0:
                _check_class_bound(inst, k)


def cycle_structure(inst):
    # ({k: (points, cycles)}, n) as the cycles renderer writes them from the census.
    payload = json.loads(reports.render_cycles(census.full_census(inst), inst.n, "json"))
    entries = {int(k): (int(v["points"]), int(v["cycles"])) for k, v in payload["entries"].items()}
    return entries, int(payload["n"])


def test_analytic_cycle_structure_reference():
    entries, n = cycle_structure(INST)
    assert entries == {1: (15, 15), 2: (20, 10)}
    assert n == 35


def test_cycle_structure_identity_map():
    inst = make_instance(5, 7, 13)
    entries, _ = cycle_structure(inst)
    assert entries == {1: (35, 35)}


def test_cycle_structure_matches_brute_decomposition():
    for inst in _sample_instances(300, e_count=1):
        periods = walk_periods(inst.n, inst.e)
        brute: dict[int, int] = {}
        for k in periods:
            brute[k] = brute.get(k, 0) + 1
        entries, _ = cycle_structure(inst)
        assert entries == {k: (pts, pts // k) for k, pts in brute.items()}
        assert sum(pts for pts, _ in entries.values()) == inst.n
        for k, (pts, cycles) in entries.items():
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
    # budget=0 is below every E_1, so each instance takes the fallback.
    for inst in [*_sample_instances(), *_big_instances("fallback", 1, bits=(64, 64))]:
        p, q, n = inst.p, inst.q, inst.n
        m = find_nontrivial_fixed_point(inst, budget=0)
        assert m % p == 0 and m % q == 1 and 0 < m < n, inst
        assert pow(m, inst.e, n) == m
        assert extract_factor_from_fixed_point(m, n) == p


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
            [census._period_histogram(i, j, k) for i in (big, small) for j in (0, 1) for k in (1, 2, 6, 12)],
            [enumerate_fixed_points(small, k, cap=small.n) for k in ks],
        )

    expected = run()
    dynamics._residues_by_period.cache_clear()

    def no_factoring(*args, **kwargs):
        raise AssertionError("factorize called after the order table was built")

    monkeypatch.setattr(arith, "factorize", no_factoring)
    assert run() == expected
    # The period classes were rebuilt, one per side and k with E_k > 0, under the patch.
    built = sum(2 for k in ks if census.exact_order_all_count(small, k))
    assert dynamics._residues_by_period.cache_info().misses == built > 0


def test_period_classes_come_from_the_census_walk(monkeypatch):
    # Each build of a side's classes is one census._period_histogram walk, and
    # the units of order r**b come from an r-th power nonresidue, so the order
    # kernel (a generator search) is never called once the order table exists.
    inst = make_instance(1201, 1249, 65537)
    ks = divisors(factorize(census.max_period(inst)))
    expected = [dynamics._residues_by_period(inst, i, k) for i in (0, 1) for k in ks]
    dynamics._residues_by_period.cache_clear()
    walks = []
    walk = census._period_histogram

    def counted_walk(*args):
        walks.append(args[:3])
        return walk(*args)

    def no_order_kernel(*args):
        raise AssertionError("order kernel called while listing period classes")

    monkeypatch.setattr(census, "_period_histogram", counted_walk)
    monkeypatch.setattr(arith, "_order_exponents", no_order_kernel)
    got = [dynamics._residues_by_period(inst, i, k) for i in (0, 1) for k in ks]
    assert [{s: set(xs) for s, xs in c} for c in got] == [{s: set(xs) for s, xs in c} for c in expected]
    assert walks == [(inst, i, k) for i in (0, 1) for k in ks]


def test_order_kernel_stays_within_the_peel_plan(monkeypatch):
    # The pows of period_of_point, counted through arith.pow per modulus on
    # 64-bit instances, against the heaviest-first plan for that side: at
    # each step but the last, one pow by rest and one by s**c, and at each
    # step c - 1 pows by s.
    rng = random.Random("peel-work")
    for inst in _big_instances("peel-work", 3, bits=(64, 64)):
        census._orders(inst)
        plan = {}
        for x in (inst.p, inst.q):
            factors = factorize(x - 1).factors
            qs = sorted((s**c for s, c in factors), reverse=True)
            steps = [prod(qs[i + 1 :]).bit_length() + q.bit_length() for i, q in enumerate(qs[:-1])]
            leaves = [(c - 1) * s.bit_length() for s, c in factors]
            plan[x] = (2 * len(steps) + sum(c - 1 for _, c in factors), sum(steps) + sum(leaves))
        work = {}

        def counting(base, exp, mod):
            calls, bits = work.get(mod, (0, 0))
            work[mod] = (calls + 1, bits + exp.bit_length())
            return pow(base, exp, mod)

        points = _points(rng, inst, 60)
        expected = [_reference_period(x, inst)[0] for x in points]
        monkeypatch.setattr(arith, "pow", counting, raising=False)
        for x, rec in zip(points, expected):
            work.clear()
            assert period_of_point(x, inst) == rec
            assert set(work) <= {inst.p, inst.q}, (inst, x)
            for m, (calls, bits) in work.items():
                assert calls <= plan[m][0] and bits <= plan[m][1], (inst, x, m, work[m], plan[m])
        monkeypatch.undo()
