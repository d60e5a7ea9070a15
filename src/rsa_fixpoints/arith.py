"""Exact integer kernel: gcd, factoring, multiplicative structure, CRT.

Everything works on plain Python ints, so all arithmetic is arbitrary
precision end to end.  Nothing here is constant-time or otherwise hardened
against side channels; the factoring routines are meant for desk-scale
inputs (64-bit by default, larger attempted under a step budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import FactoringError

__all__ = [
    "Factorization",
    "is_prime",
    "factorize",
    "divisors",
    "euler_phi",
    "crt_combine",
    "DEFAULT_FACTOR_BUDGET",
]

_TRIAL_BOUND = 1 << 16

# Rho step budget; enough for any 64-bit input, configurable per call.
DEFAULT_FACTOR_BUDGET = 1 << 22


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization of a positive integer.

    ``factors`` lists (prime, exponent) pairs with primes strictly
    increasing and exponents >= 1; the empty tuple represents 1.
    """

    factors: tuple[tuple[int, int], ...]
    value: int


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(_TRIAL_BOUND) if sieve[i])


# Smallest known base set that makes Miller-Rabin deterministic below
# 3_317_044_064_679_887_385_961_981 (~3.3e24), comfortably past 64 bits.
# Above that bound the same bases are a strong probabilistic test only.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below ~3.3e24)."""
    if n < 53:
        return n in {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """One nontrivial factor of an odd composite n, or None if the budget
    runs out.  Deterministic: fixed start point and polynomial schedule.

    Returns (factor_or_None, budget_left).
    """
    for c in range(1, 1_000):
        y, r, q = 2, 1, 1
        x = ys = y
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(128, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget -= block
                g = gcd(q, n)
                k += block
            if budget <= 0 and g == 1:
                return None, 0
            r <<= 1
        if g == n:
            # gcd batched past the factor; redo the last block one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget
        # cycle collapsed for this polynomial, try the next c
    return None, 0


@lru_cache(maxsize=65536)
def factorize(n: int, *, budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Canonical factorization of n >= 1, memoized.

    Trial division below 2**16, then Brent's rho with deterministic
    primality testing.  Raises FactoringError (carrying the partial
    result) if the step budget is exhausted first; an error is not
    memoized, so a later call with a larger budget starts afresh.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    value = n
    counts: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d, budget = _brent_rho(m, budget)
        if d is None:
            remaining = m * prod(stack)
            partial = Factorization(tuple(sorted(counts.items())), value // remaining)
            raise FactoringError(value, partial, remaining)
        stack += [d, m // d]
    return Factorization(tuple(sorted(counts.items())), value)


def _divisor_lattice(f: Factorization) -> list[int]:
    # The divisors of f.value, the exponent of the last prime varying fastest.
    divs = [1]
    for p, a in f.factors:
        divs = [d * p**i for d in divs for i in range(a + 1)]
    return divs


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    return sorted(_divisor_lattice(f))


def euler_phi(f: Factorization) -> int:
    """Number of units modulo f.value."""
    return prod(p ** (a - 1) * (p - 1) for p, a in f.factors)


def _order_exponents(a: int, m: int, factors) -> dict[int, int]:
    # {s: v_s(ord_m(a))} for each (s, c) of factors, given that ord_m(a)
    # divides their product N.  A product tree on a work list: an item
    # (y, lo, hi) holds y = a**(N / Q), Q the product of s**c over
    # factors[lo:hi], so the order of y divides Q.  A range splits at its
    # midpoint, each half raising y to the other half's product, and a y
    # of 1 leaves v = 0 on its whole range.  At a leaf y has order s**v,
    # v >= 1: count the s-th powers to 1, and after c - 1 of them v = c.
    qs = [s**c for s, c in factors]
    vs = dict.fromkeys([s for s, _ in factors], 0)
    work = [(a % m, 0, len(qs))]
    while work:
        y, lo, hi = work.pop()
        if y == 1:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            work.append((pow(y, prod(qs[mid:hi]), m), lo, mid))
            work.append((pow(y, prod(qs[lo:mid]), m), mid, hi))
            continue
        s, c = factors[lo]
        v = 1
        while v < c:
            y = pow(y, s, m)
            if y == 1:
                break
            v += 1
        vs[s] = v
    return vs


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
