"""Shared helpers: instance grids, deterministic exponent sampling, the
reference arithmetic the library is checked against (divisors, Euler phi,
Mobius, CRT, the classic order search, the units fixed by x**(e**k), the
paper's Mobius inversion over the divisor lattice), and the ground truth:
literal iteration, the brute-force period walk, and full scans for roots
of unity (brute_roots_of_unity), element orders (brute_element_orders)
and the solutions and minimal returns of x**d = x (brute_poly_fixed)."""

from __future__ import annotations

import random
from math import gcd, lcm, prod
from operator import sub

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


def divisors(f: arith.Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    return sorted(arith._divisor_lattice(f))


def euler_phi(f: arith.Factorization) -> int:
    """Number of units modulo f.value."""
    return prod(p ** (a - 1) * (p - 1) for p, a in f.factors)


def crt_combine(residues) -> int:
    """Unique x in [0, prod moduli) matching every (residue, modulus) pair.

    Moduli must be pairwise coprime and >= 1.
    """
    x, modulus = 0, 1
    for r, m in residues:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        g = gcd(modulus, m)
        if g != 1:
            raise ValueError(f"moduli are not pairwise coprime (shared factor {g})")
        t = (r - x) * pow(modulus, -1, m) % m if m > 1 else 0
        x += modulus * t
        modulus *= m
    return x % modulus


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


def cumulative_unit_fixed_count(inst: census.RsaInstance, k: int) -> int:
    """|{x in Z_n*: x**(e**k) = x}| = gcd(e**k - 1, p-1) * gcd(e**k - 1, q-1).

    Counts units of period dividing k, i.e. the divisor-sum of the exact
    counts; gcd(0, m) = m makes this total at e = 1.
    """
    return prod(_gcd_pow_minus_one(inst.e, k, x - 1) for x in (inst.p, inst.q))


def invert(f: arith.Factorization, cumulative) -> list[int]:
    """exact(d) from cumulative(d) = the sum of exact(c) over c | d, for the
    d | f.value in ``arith._divisor_lattice`` order (first prime fastest).

    Per prime r**a of stride s, each d with r | d takes away the old value at
    d / r, s places back: by blocks of s * (a + 1) or by strided columns,
    whichever are fewer.
    """
    h = list(cumulative)
    n = s = len(h)
    for _, a in reversed(f.factors):
        s //= a + 1
        b = s * (a + 1)
        if s * a < n // b:
            for o in range(b - 1, s - 1, -1):
                h[o::b] = map(sub, h[o::b], h[o - s :: b])
        else:
            for i in range(0, n, b):
                h[i + s : i + b] = map(sub, h[i + s : i + b], h[i : i + b - s])
    return h


def invert_at(k: int, cumulative) -> int:
    """exact(k) from the cumulative function, evaluated at each d | k."""
    f = arith.factorize(k)
    return invert(f, map(cumulative, arith._divisor_lattice(f)))[-1]


def lattice_census(inst: census.RsaInstance) -> tuple[dict[int, int], dict[int, int]]:
    """(T, E) at every divisor of K, ascending, by the paper's inversion of
    g_p(d) g_q(d) and (g_p(d) + 1)(g_q(d) + 1), g_x(d) = gcd(e**d - 1, x - 1)."""
    f = arith.factorize(census.max_period(inst))
    divs = arith._divisor_lattice(f)
    gs = [[_gcd_pow_minus_one(inst.e, d, x - 1) for d in divs] for x in (inst.p, inst.q)]
    units = invert(f, [a * b for a, b in zip(*gs)])
    alls = invert(f, [(a + 1) * (b + 1) for a, b in zip(*gs)])
    order = sorted(range(len(divs)), key=divs.__getitem__)
    return {divs[i]: units[i] for i in order}, {divs[i]: alls[i] for i in order}


def per_prime_exact_order_count(prime: int, e: int, k: int) -> int:
    """Units mod an odd prime with exact period k under x -> x**e."""
    return invert_at(k, lambda d: _gcd_pow_minus_one(e, d, prime - 1))


def iterate_power_map(x: int, inst: census.RsaInstance, steps: int) -> int:
    """Apply x -> x**e mod n ``steps`` times (e**steps is never formed)."""
    if not 0 <= x < inst.n:
        raise ValueError(f"x must lie in [0, {inst.n}), got {x}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    y = x
    for _ in range(steps):
        y = pow(y, inst.e, inst.n)
    return y


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


def brute_roots_of_unity(r: int, n: int) -> int:
    """Literal scan count of x**r = 1 over 1 <= x < n."""
    return sum(1 for x in range(1, n) if pow(x, r, n) == 1)


def brute_element_orders(n: int) -> dict[int, int]:
    """Histogram order -> count over the units mod n, by walking powers."""
    hist: dict[int, int] = {}
    for x in range(1, n):
        if gcd(x, n) != 1:
            continue
        y, d = x, 1
        while y != 1:
            y = y * x % n
            d += 1
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def brute_poly_fixed(n: int, d: int) -> tuple[int, dict[int, int]]:
    """Scan count of x**d = x over Z_n, plus the minimal-return histogram.

    The histogram is keyed by the smallest r >= 2 with x**r = x;
    residues that never return (possible only for non-squarefree n) are
    absent.  Any x that returns does so by r = n + 1, so the scan is
    conclusive.
    """
    count = sum(1 for x in range(n) if pow(x, d, n) == x)
    hist: dict[int, int] = {}
    for x in range(n):
        y, r = x * x % n, 2
        while y != x and r <= n + 1:
            y = y * x % n
            r += 1
        if y == x:
            hist[r] = hist.get(r, 0) + 1
    return count, dict(sorted(hist.items()))
