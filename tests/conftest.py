"""Shared helpers: instance grids, deterministic exponent sampling, and
the brute-force period walk used as ground truth."""

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
