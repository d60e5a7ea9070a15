"""Shared helpers: instance grids, deterministic exponent sampling, the
classic order search, and the brute-force period walk used as ground
truth."""

from __future__ import annotations

import random
from math import gcd, lcm

from rsa_fixpoints import arith, census


def odd_primes_upto(bound: int) -> list[int]:
    return [p for p in arith._small_primes() if 2 < p <= bound]


def semiprime_pairs(limit: int) -> list[tuple[int, int]]:
    """All (p, q), p < q odd primes, with p*q <= limit."""
    primes = odd_primes_upto(limit // 3)
    return [
        (p, q)
        for i, p in enumerate(primes)
        for q in primes[i + 1 :]
        if p * q <= limit
    ]


def sample_exponents(lam: int, count: int, seed) -> list[int]:
    """Deterministic sample of distinct e >= 2 with gcd(e, lam) = 1."""
    rng = random.Random(seed)
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < count:
        e = rng.randrange(2, 1_000_000)
        if e in seen or gcd(e, lam) != 1:
            continue
        seen.add(e)
        out.append(e)
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(#prime factors)."""
    if n < 1:
        raise ValueError(f"mobius is defined for n >= 1, got {n}")
    f = arith.factorize(n)
    if any(a > 1 for _, a in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def carmichael_lambda(f: arith.Factorization) -> int:
    """Exponent of the unit group modulo f.value.

    lambda(p**a) = phi(p**a) for odd p and for 2 and 4; lambda(2**a) =
    2**(a-2) for a >= 3 (the unit group splits off a C2 factor there).
    """
    result = 1
    for p, a in f.factors:
        part = 1 << (a - 2) if p == 2 and a >= 3 else p ** (a - 1) * (p - 1)
        result = lcm(result, part)
    return result


def multiplicative_order(a: int, m: int) -> int:
    """Smallest d >= 1 with a**d = 1 (mod m), for gcd(a, m) = 1.

    The classic search, kept apart from the library's order kernel: start
    from lambda(m) and divide out each prime s while a**(d/s) = 1.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    d = carmichael_lambda(arith.factorize(m))
    for s, _ in arith.factorize(d).factors:
        while d % s == 0 and pow(a, d // s, m) == 1:
            d //= s
    return d


def _gcd_pow_minus_one(e: int, k: int, m: int) -> int:
    # gcd(e**k - 1, m) without forming e**k: gcd(x, m) = gcd(x mod m, m).
    return gcd((pow(e, k, m) - 1) % m, m)


def per_prime_exact_order_count(prime: int, e: int, k: int) -> int:
    """Units mod an odd prime with exact period k under x -> x**e."""
    return census._invert_at(k, lambda d: _gcd_pow_minus_one(e, d, prime - 1))


def walk_periods(n: int, e: int) -> list[int]:
    """Exact period of every x in [0, n) by iterating the map, one cycle
    walk per orbit."""
    period = [0] * n
    visited = bytearray(n)
    for x in range(n):
        if visited[x]:
            continue
        cycle = [x]
        y = pow(x, e, n)
        while y != x:
            cycle.append(y)
            y = pow(y, e, n)
        k = len(cycle)
        for z in cycle:
            period[z] = k
            visited[z] = 1
    return period
