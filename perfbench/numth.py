"""The benchmark's own number theory, independent of the package under test.

Instances are built with known factorizations of p - 1 and q - 1, so every
quantity the checks need (lambda, the maximal period K, its divisors, exact
period counts) follows from those factorizations without calling the
library.  Only small numbers are ever factored here, by trial division.
"""

from __future__ import annotations

from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


SMALL_PRIMES = _sieve(1 << 16)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:15]:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_small(m: int) -> dict[int, int]:
    """Factorization of m < 2**32 by trial division."""
    if m < 1 or m >= 1 << 32:
        raise ValueError(f"factor_small needs 1 <= m < 2**32, got {m}")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def merge_max(*facs: dict[int, int]) -> dict[int, int]:
    """Factorization of the lcm of the given factorizations."""
    out: dict[int, int] = {}
    for f in facs:
        for r, a in f.items():
            out[r] = max(out.get(r, 0), a)
    return out


def value(f: dict[int, int]) -> int:
    v = 1
    for r, a in f.items():
        v *= r**a
    return v


def divisors(f: dict[int, int]) -> list[int]:
    divs = [1]
    for r, a in f.items():
        divs = [d * r**i for d in divs for i in range(a + 1)]
    return sorted(divs)


def factor_over(m: int, primes) -> dict[int, int]:
    """Factorization of m over a known superset of its prime factors."""
    out: dict[int, int] = {}
    for r in primes:
        while m % r == 0:
            out[r] = out.get(r, 0) + 1
            m //= r
    if m != 1:
        raise ValueError("cofactor left over: prime list is incomplete")
    return out


def carmichael_of(f: dict[int, int]) -> dict[int, int]:
    """Factorization of lambda(m) for odd m (or m = 2**a, a <= 2) given as f.

    Every prime of f must be below 2**32 so that r - 1 factors by trial
    division.
    """
    out: dict[int, int] = {}
    for r, a in f.items():
        part = factor_small(r - 1) if r > 2 else {}
        if a > 1:
            part[r] = part.get(r, 0) + a - 1
        out = merge_max(out, part)
    return out


def order_mod(a: int, m: int, lam_f: dict[int, int]) -> int:
    """Multiplicative order of a modulo m, given the factorization of lambda(m)."""
    order = value(lam_f)
    for r in lam_f:
        while order % r == 0 and pow(a, order // r, m) == 1:
            order //= r
    return order


def order_factored(a: int, m: int, lam_f: dict[int, int]) -> dict[int, int]:
    return factor_over(order_mod(a, m, lam_f), lam_f)


def inversion_terms(f: dict[int, int]) -> int:
    """Sum over k | K of d(k): the Mobius terms a per-k census evaluates."""
    t = 1
    for a in f.values():
        t *= (a + 1) * (a + 2) // 2
    return t


def divisor_count(f: dict[int, int]) -> int:
    t = 1
    for a in f.values():
        t *= a + 1
    return t


def _mobius_invert(cumulative: dict[int, int], f: dict[int, int]) -> dict[int, int]:
    # Exact counts from divisor-closed cumulative counts: one differencing
    # pass per prime of K.
    exact = dict(cumulative)
    for r in f:
        for k in sorted(exact, reverse=True):
            if k % r == 0:
                exact[k] -= exact[k // r]
    return exact


def exact_period_counts(p: int, q: int, e: int, k_f: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """(T_k over units, E_k over Z_n) for every k | K, K given factored."""
    unit_cum, all_cum = {}, {}
    for d in divisors(k_f):
        gp = gcd(pow(e, d, p - 1) - 1, p - 1)
        gq = gcd(pow(e, d, q - 1) - 1, q - 1)
        unit_cum[d] = gp * gq
        all_cum[d] = (gp + 1) * (gq + 1)
    return _mobius_invert(unit_cum, k_f), _mobius_invert(all_cum, k_f)


def is_exact_period(x: int, n: int, lam: int, e: int, k: int, k_primes) -> bool:
    """x**(e**k) = x (mod n) and no proper divisor k / s of k has that property."""
    def returns(j: int) -> bool:
        return pow(x, pow(e, j, lam) or lam, n) == x

    if not returns(k):
        return False
    return all(not returns(k // s) for s in k_primes if k % s == 0)


def brent_steps(p: int, c: int = 1, limit: int | None = None) -> int:
    """Steps Brent's rho (x -> x*x + c from 2, gcds batched 128 at a time)
    takes before the prime p divides the accumulated product.

    Run on n = p * q, rho finds p after this many steps if q does not show
    up first; it is the work a factorization of n does to split off p.
    With ``limit``, gives up once past it and returns a count above it.
    """
    y, r, acc, steps = 2, 1, 1, 0
    while limit is None or steps <= limit:
        x = y
        for _ in range(r):
            y = (y * y + c) % p
        steps += r
        k = 0
        while k < r:
            block = min(128, r - k)
            for _ in range(block):
                y = (y * y + c) % p
                acc = acc * (x - y) % p
            steps += block
            if acc == 0:
                return steps
            k += block
        r <<= 1
    return steps
