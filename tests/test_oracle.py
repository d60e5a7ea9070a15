import random
from math import gcd, lcm

import pytest

from conftest import (
    brute_element_orders,
    brute_poly_fixed,
    brute_roots_of_unity,
    euler_phi,
    odd_primes_upto,
    sample_exponents,
)
from rsa_fixpoints import census, reports
from rsa_fixpoints.arith import factorize
from rsa_fixpoints.census import make_instance
from rsa_fixpoints.errors import CapExceededError
from rsa_fixpoints.oracle import brute_power_map_census


def test_brute_census_reference_instance():
    cen = brute_power_map_census(make_instance(5, 7, 5))
    assert cen.unit_counts == {1: 8, 2: 16}
    assert cen.all_counts == {1: 15, 2: 20}
    assert cen.k_max == 2
    assert sum(cen.all_counts.values()) == 35


def test_brute_census_identity_exponent():
    inst = make_instance(5, 7, 13)
    cen = brute_power_map_census(inst)
    assert cen.all_counts == {1: 35}
    assert cen.unit_counts == {1: 24}
    assert cen.k_max == 1


def test_brute_census_k_max_matches_closed_form():
    for p, q, e in [(5, 7, 5), (5, 7, 11), (3, 5, 7), (11, 71, 17), (13, 17, 5)]:
        inst = make_instance(p, q, e)
        assert brute_power_map_census(inst).k_max == census.max_period(inst)


def test_brute_census_respects_limit():
    with pytest.raises(CapExceededError) as info:
        brute_power_map_census(make_instance(5, 7, 5), limit=10)
    exc = info.value
    assert str(exc) == "modulus 35 exceeds scan limit 10"
    assert (exc.count, exc.cap) == (35, 10)


def test_return_times_are_exactly_multiples_of_period():
    # iterating from any x, the exponents m with x^(e^m) = x must be
    # exactly the multiples of the recorded period
    inst = make_instance(5, 7, 5)
    cen = brute_power_map_census(inst)
    for x in range(inst.n):
        y, steps = x, 0
        returns = []
        for m in range(1, 2 * cen.k_max + 1):
            y = pow(y, inst.e, inst.n)
            if y == x:
                returns.append(m)
        period = returns[0]
        assert returns == [m for m in range(1, 2 * cen.k_max + 1) if m % period == 0]


def test_brute_roots_of_unity_examples():
    assert brute_roots_of_unity(1, 15) == 1
    assert brute_roots_of_unity(2, 8) == 4
    assert brute_roots_of_unity(2, 15) == 4


def test_brute_element_orders_examples():
    assert brute_element_orders(7) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert brute_element_orders(8) == {1: 1, 2: 3}
    for n in (7, 8, 12, 45):
        assert sum(brute_element_orders(n).values()) == euler_phi(factorize(n))


def test_brute_poly_fixed_examples():
    count, hist = brute_poly_fixed(15, 1)
    assert count == 15
    count2, hist2 = brute_poly_fixed(15, 2)
    assert count2 == 4
    assert hist2 == {2: 4, 3: 5, 5: 6}
    assert hist == hist2  # histogram does not depend on d
    assert sum(hist2.values()) == 15


def test_brute_poly_fixed_non_squarefree_has_non_returning_points():
    _, hist = brute_poly_fixed(8, 2)
    # 2, 4, 6 never return to themselves under powering
    assert sum(hist.values()) == 5
    assert hist == {2: 2, 3: 3}


def test_census_and_cycle_rows_match_brute_census_beyond_sweep():
    # Seeded moduli 10^4 < n <= 10^5, past the acceptance sweep's pq <= 3000:
    # the closed-form census and the cycle rows rendered from it against the
    # census of literal iteration, two instances per kind of exponent.
    rng = random.Random("census-differential")
    primes = odd_primes_upto(10**5 // 11)
    for e_choice in (3, 65537, None, 1) * 2:
        while True:
            p, q = sorted(rng.sample(primes, 2))
            lam = lcm(p - 1, q - 1)
            e = e_choice or sample_exponents(lam, 1, seed=f"differential:{p}:{q}")[0]
            if 10**4 < p * q <= 10**5 and gcd(e, lam) == 1:
                break
        inst = make_instance(p, q, e)
        cen, ocen = census.full_census(inst), brute_power_map_census(inst)
        assert cen.k_max == ocen.k_max, inst
        assert set(ocen.all_counts) <= set(cen.all_counts), inst
        for k in cen.all_counts:
            assert cen.all_counts[k] == ocen.all_counts.get(k, 0), (inst, k)
            assert cen.unit_counts[k] == ocen.unit_counts.get(k, 0), (inst, k)
        for fmt in ("json", "csv", "table"):
            rows = reports.render_cycles(cen, inst.n, fmt)
            assert rows == reports.render_cycles(ocen, inst.n, fmt), (inst, fmt)
