"""Seeded instance generation.

Every prime is built as p = 2 * (product of drawn primes) + 1, so the
factorization of p - 1 is known by construction.  From it the benchmark
derives lambda(n), the maximal period K = ord_lambda(e) and its
factorization, which fix the work a census or enumeration must do.  The
same seed always gives the same instances.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from math import gcd

from . import numth

TINY_PRIMES = [r for r in numth.SMALL_PRIMES if 3 <= r < 100]
MID_PRIMES = [r for r in numth.SMALL_PRIMES if 100 <= r < 1 << 12]


@dataclass
class Instance:
    """An RSA instance with everything the checks need, all factored."""

    p: int
    q: int
    e: int
    e_class: str
    p1_f: dict[int, int]
    q1_f: dict[int, int]
    n: int = field(init=False)
    phi: int = field(init=False)
    lam: int = field(init=False)
    lam_f: dict[int, int] = field(init=False)
    k_max: int = field(init=False)
    k_f: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.n = self.p * self.q
        self.phi = (self.p - 1) * (self.q - 1)
        self.lam_f = numth.merge_max(self.p1_f, self.q1_f)
        self.lam = numth.value(self.lam_f)
        self.k_f = numth.order_factored(self.e, self.lam, numth.carmichael_of(self.lam_f))
        self.k_max = numth.value(self.k_f)

    @property
    def bits(self) -> int:
        return max(self.p.bit_length(), self.q.bit_length())

    def describe(self) -> dict:
        """Provenance record: the instance and the work it implies."""
        return {
            "p": str(self.p),
            "q": str(self.q),
            "e": str(self.e),
            "bits": self.bits,
            "e_class": self.e_class,
            "k_max": str(self.k_max),
            "divisors_kmax": numth.divisor_count(self.k_f),
            "inversion_terms": numth.inversion_terms(self.k_f),
        }


def constructed_prime(
    rng: random.Random,
    bits: int,
    pool: list[int],
    smooth_bits: int,
    big_bits: int = 0,
    avoid: frozenset = frozenset(),
    big_ok=lambda r: True,
) -> tuple[int, dict[int, int]]:
    """A prime p of exactly ``bits`` bits with p - 1 factored.

    p - 1 = 2 * B * S * F: B is a prime of ``big_bits`` bits (omitted when
    0) for which ``big_ok`` holds, S a product of primes drawn from
    ``pool`` up to about ``smooth_bits`` bits, and F a prime filling the
    remaining bits.  No prime in ``avoid`` divides p - 1.
    """
    while True:
        f = {2: 1}
        m = 2
        if big_bits:
            big = random_prime(rng, 1 << (big_bits - 1), 1 << big_bits)
            while big in avoid or not big_ok(big):
                big = random_prime(rng, 1 << (big_bits - 1), 1 << big_bits)
            f[big] = 1
            m *= big
        while m.bit_length() < 1 + big_bits + smooth_bits:
            r = rng.choice(pool)
            if r not in avoid:
                f[r] = f.get(r, 0) + 1
                m *= r
        lo = -(-((1 << (bits - 1)) - 1) // m)
        hi = ((1 << bits) - 2) // m
        if lo < 3 or hi < lo:
            continue
        for _ in range(64):
            filler = rng.randrange(lo, hi + 1)
            if filler in avoid or not numth.is_probable_prime(filler):
                continue
            p = m * filler + 1
            if numth.is_probable_prime(p):
                f[filler] = f.get(filler, 0) + 1
                return p, f


def random_prime(rng: random.Random, lo: int, hi: int, avoid: int | None = None, tries: int | None = None):
    """A random prime in [lo, hi) such that ``avoid`` does not divide p - 1.

    None if ``tries`` draws find none.
    """
    for _ in itertools.count() if tries is None else range(tries):
        p = rng.randrange(lo, hi) | 1
        if p < hi and numth.is_probable_prime(p) and not (avoid and (p - 1) % avoid == 0):
            return p
    return None


E_FIXED = {"e3": 3, "e65537": 65537}


def instance_for(rng: random.Random, p: int, q: int, e_class: str, pf=None, qf=None) -> Instance | None:
    """The instance on p, q with an exponent of the class, or None if that
    fixed exponent shares a factor with lambda(n).  A random exponent is
    drawn below 2**32 and stepped to the next one coprime to lambda(n).
    """
    pf = pf or numth.factor_small(p - 1)
    qf = qf or numth.factor_small(q - 1)
    lam = numth.value(numth.merge_max(pf, qf))
    e = E_FIXED.get(e_class)
    if e is None:
        e = rng.randrange(3, 1 << 32) | 1
        while gcd(e, lam) != 1:
            e += 2
    return Instance(p, q, e, e_class, pf, qf) if gcd(e, lam) == 1 else None


def pick_instance(
    rng: random.Random,
    bits: int,
    e_class: str,
    pool: list[int],
    smooth_bits,
    big_bits: int = 0,
    big_ok=lambda r: True,
) -> Instance:
    """One instance of the given size and exponent class.

    ``smooth_bits`` is an int or a zero-argument callable drawing one.
    """
    fixed_e = E_FIXED.get(e_class)
    avoid = frozenset({fixed_e}) if fixed_e else frozenset()
    draw = smooth_bits if callable(smooth_bits) else (lambda: smooth_bits)
    while True:
        p, pf = constructed_prime(rng, bits, pool, draw(), big_bits, avoid, big_ok)
        q, qf = constructed_prime(rng, bits, pool, draw(), big_bits, avoid, big_ok)
        if p != q and (inst := instance_for(rng, p, q, e_class, pf, qf)) is not None:
            return inst


def typical_k_bits(bits: int, terms: int) -> int:
    """Median bit length of K among random candidates with this census work.

    Fitted to the candidates ``instance_near_terms`` draws; the cost of a
    Mobius term grows with the size of the exponents, i.e. of K.
    """
    slope, offset = (2.3, -5) if bits <= 24 else (2.4, -3)
    return round(slope * math.log2(terms) + offset)


def instance_near_terms(
    rng: random.Random, bits: int, e_class: str, target: int, tol: float, k_bits_tol: int = 2
) -> Instance:
    """An instance whose census does within ``tol`` of ``target`` Mobius terms,
    with K of typical size for that work (within ``k_bits_tol`` bits).

    Smooth parts of random size give a wide spread of divisor counts of
    K; candidates outside the band are drawn again.
    """
    k_bits = typical_k_bits(bits, target)
    while True:
        inst = pick_instance(
            rng, bits, e_class, TINY_PRIMES, lambda: rng.randrange(bits // 3, bits - 4)
        )
        terms = numth.inversion_terms(inst.k_f)
        if abs(terms - target) <= tol * target and abs(inst.k_max.bit_length() - k_bits) <= k_bits_tol:
            return inst
