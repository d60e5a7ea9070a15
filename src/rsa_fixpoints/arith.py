"""Exact integer kernel: primality, factoring, divisor lattices, element orders.

Everything works on plain Python ints, so all arithmetic is arbitrary
precision end to end.  Nothing here is constant-time or otherwise hardened
against side channels; the factoring routines are meant for desk-scale
inputs (64-bit by default, larger attempted under a step budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import FactoringError

__all__ = [
    "Factorization",
    "is_prime",
    "factorize",
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
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_BOUND, i)))
    return tuple(compress(range(_TRIAL_BOUND), sieve))


# The primes to 47, which is_prime divides out.  The first 13 are the smallest
# known base set that makes Miller-Rabin deterministic below _MR_EXACT
# (~3.3e24), the first strong pseudoprime to all; beyond it, Baillie-PSW.
_PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES = _PRIMES_TO_47[:13]
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def _jacobi(a: int, n: int) -> int:
    # The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity.
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # Strong Lucas probable-prime test on odd n > 2 with Selfridge's
    # parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    # Q = (1 - D)/4.  With n + 1 = d * 2**s, n passes when U_d = 0 or
    # V_(d * 2**r) = 0 mod n for some r < s.  A square has no such D.
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q**k from k = 1 up the bits of d: 2k, then 2k + 1 at a 1
    # (a halving, exact mod the odd n).
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, exact below ~3.3e24; Baillie-PSW above."""
    if n < 53 or any(n % p == 0 for p in _PRIMES_TO_47):
        return n in _PRIMES_TO_47
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
    return n < _MR_EXACT or _strong_lucas(n)


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
    # The divisors of f.value, the exponent of the first prime varying fastest:
    # with the smallest primes innermost the list is in long ascending runs.
    divs = [1]
    for p, a in f.factors:
        layer = divs
        for _ in range(a):
            layer = [d * p for d in layer]
            divs += layer
    return divs


def _peel_plan(factors) -> tuple:
    # For _order_exponents: the primes of factors, then ((s**c, s, c), rest) per
    # c >= 1, heaviest s**c first for the fewest exponent bits, rest the product after it.
    steps = sorted(((s**c, s, c) for s, c in factors if c), reverse=True)
    rests = [prod(q for q, _, _ in steps[i + 1 :]) for i in range(len(steps))]
    return tuple(s for s, _ in factors), tuple(zip(steps, rests))


def _order_exponents(a: int, m: int, plan) -> dict[int, int]:
    # {s: v_s(ord_m(a))} for each prime of plan = _peel_plan(factors), where
    # ord_m(a) divides the product of factors.  y's order divides s**c * rest,
    # so z = y**rest has order s**v, v <= c: count its s-th powers to 1.  Then
    # y drops s**c, unless z = 1 (it divides rest already) or this is the last step.
    vs = dict.fromkeys(plan[0], 0)
    y = a % m
    for (q, s, c), rest in plan[1]:
        if y == 1:
            break
        z = pow(y, rest, m) if rest > 1 else y
        if z == 1:
            continue
        if rest > 1:
            y = pow(y, q, m)
        v = 1
        while v < c and (z := pow(z, s, m)) != 1:
            v += 1
        vs[s] = v
    return vs
