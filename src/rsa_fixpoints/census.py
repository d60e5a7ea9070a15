"""Closed-form counting for the fixed points of x -> x**e (mod n).

A residue x modulo n = p*q has a well-defined period under repeated
e-th powering whenever gcd(e, lambda(n)) = 1: splitting x by CRT, each
component is either zero or a unit, and x returns to itself after k
steps iff e**k = 1 modulo the lcm L of the nonzero component orders.
Every count in this module falls out of Mobius inversion over a divisor
lattice built on that observation; the full census is one such transform
over the d(K) divisors of K = k_max, costing O(d(K) * omega(K)).

Two counting-formula corrections are baked in (see the docstrings of
``roots_of_unity_count`` and ``exact_quasi_order_count``): the unit
group of Z/2**a is not cyclic for a >= 3, and the minimal-return-time
census must be indexed by r - 1, not r.  Both corrected formulas are
regression-tested against brute force.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm, prod
from operator import mul, sub

from . import arith
from .arith import Factorization

__all__ = [
    "RsaInstance",
    "ExactOrderCensus",
    "make_instance",
    "roots_of_unity_count",
    "cumulative_unit_fixed_count",
    "exact_order_unit_count",
    "exact_order_all_count",
    "elements_of_order_count",
    "poly_fixed_count",
    "exact_quasi_order_count",
    "max_period",
    "full_census",
]


@dataclass(frozen=True)
class RsaInstance:
    """Validated modulus/exponent pair with derived group orders.

    ``gcd_e_phi_ok`` records whether the stricter classical validity
    condition gcd(e, phi(n)) = 1 holds; construction via
    ``make_instance`` only requires gcd(e, lambda(n)) = 1.
    """

    p: int
    q: int
    n: int
    e: int
    phi: int
    lam: int
    gcd_e_phi_ok: bool


@dataclass(frozen=True)
class ExactOrderCensus:
    """Per-period point counts: T_k over units, E_k over all of Z_n.

    Both maps are keyed by every divisor k of ``k_max`` in increasing
    order (counts may be zero).
    """

    k_max: int
    unit_counts: dict[int, int]
    all_counts: dict[int, int]


def make_instance(p: int, q: int, e: int) -> RsaInstance:
    """Build an RsaInstance from two distinct odd primes and an exponent.

    e = 1 is accepted as the degenerate identity map.  Raises ValueError
    on non-prime p/q, p = q, e < 1, or gcd(e, lambda(n)) != 1.
    """
    for name, v in (("p", p), ("q", q)):
        if v < 3 or v % 2 == 0 or not arith.is_prime(v):
            raise ValueError(f"{name} must be an odd prime, got {v}")
    if p == q:
        raise ValueError(f"p and q must be distinct, got {p} twice")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    phi = (p - 1) * (q - 1)
    lam = lcm(p - 1, q - 1)
    if gcd(e, lam) != 1:
        raise ValueError(
            f"gcd(e, lambda(n)) = {gcd(e, lam)} != 1; the power map is not a permutation"
        )
    return RsaInstance(
        p=p, q=q, n=p * q, e=e, phi=phi, lam=lam, gcd_e_phi_ok=gcd(e, phi) == 1
    )


@lru_cache(maxsize=1024)
def _orders(inst: RsaInstance) -> tuple[dict[int, tuple[int, ...]], tuple, Factorization]:
    # The factored-order table, the one place an instance's numbers are
    # factored: o(r, b) = ord_{r**b}(e) at orders[r][b] for each r**b | lambda
    # (1 at b = 0), over the primes of r**(b-1) * (r - 1); (x, x - 1 factored)
    # for x = p, q; and K = lcm of o(r, v_r(lambda)), factored.  The sort puts
    # the larger exponent of a prime of both p - 1 and q - 1 last, so it wins.
    sides = tuple((x, arith.factorize(x - 1)) for x in (inst.p, inst.q))
    orders, k_exps = {}, {}
    for r, a in dict(sorted(sides[0][1].factors + sides[1][1].factors)).items():
        rf = arith.factorize(r - 1).factors
        vs = [arith._order_exponents(inst.e, r**b, ((r, b - 1), *rf)) for b in range(1, a + 1)]
        orders[r] = (1, *(prod(s**j for s, j in v.items()) for v in vs))
        for s, j in vs[-1].items():
            k_exps[s] = max(j, k_exps.get(s, 0))
    k_factors = tuple(sorted((s, j) for s, j in k_exps.items() if j))
    return orders, sides, Factorization(k_factors, prod(s**j for s, j in k_factors))


def _unit_gcd(orders: dict[int, tuple[int, ...]], f: Factorization, d: int) -> int:
    # gcd(e**d - 1, x - 1) for f = x - 1 factored: per r**c || x - 1, the
    # factor r**b with b the largest exponent up to c such that o(r, b) | d.
    g = 1
    for r, b in f.factors:
        while d % orders[r][b]:
            b -= 1
        g *= r**b
    return g


def _invert(f: Factorization, cumulative: Iterable[int]) -> list[int]:
    # exact(d) from cumulative(d) = the sum of exact(c) over c | d, for the
    # d | f.value in arith._divisor_lattice order.  Per prime r**a of stride s,
    # each d with r | d takes away the old value at d / r, s places back: by
    # blocks of s * (a + 1) or by strided columns, whichever are fewer.
    h = list(cumulative)
    n = s = len(h)
    for _, a in f.factors:
        s //= a + 1
        b = s * (a + 1)
        if s * a < n // b:
            for o in range(b - 1, s - 1, -1):
                h[o::b] = map(sub, h[o::b], h[o - s :: b])
        else:
            for i in range(0, n, b):
                h[i + s : i + b] = map(sub, h[i + s : i + b], h[i : i + b - s])
    return h


def _invert_at(k: int, cumulative: Callable[[int], int]) -> int:
    # exact(k) from the cumulative function, evaluated at each d | k; k is last.
    f = arith.factorize(k)
    return _invert(f, map(cumulative, arith._divisor_lattice(f)))[-1]


def _period_counts(inst: RsaInstance, f: Factorization) -> tuple[list[int], list[int], list[int]]:
    # The divisors d of f.value in lattice order, with T_d and E_d at each:
    # inversions of g_p g_q and (g_p + 1)(g_q + 1).  g_x(d) depends on d only
    # through gcd(d, K_x), K_x = ord_{x-1}(e), so _unit_gcd runs once per value.
    orders, sides, _ = _orders(inst)
    divs, gs = arith._divisor_lattice(f), []
    for _, fx in sides:
        cs = list(map(gcd, divs, repeat(lcm(*(orders[r][c] for r, c in fx.factors)))))
        table = {c: _unit_gcd(orders, fx, c) for c in set(cs)}
        gs.append(list(map(table.__getitem__, cs)))
    gp, gq = gs
    units = _invert(f, map(mul, gp, gq))
    return divs, units, _invert(f, map(mul, map((1).__add__, gp), map((1).__add__, gq)))


def _unit_root_count_prime_power(r: int, p: int, a: int) -> int:
    # Solutions of x**r = 1 among units mod p**a.  The unit group is
    # cyclic of order phi(p**a) except for 2**a with a >= 3, where it is
    # C2 x C2**(a-2).
    if p == 2 and a >= 3:
        return gcd(r, 2) * gcd(r, 1 << (a - 2))
    return gcd(r, p ** (a - 1) * (p - 1))


def roots_of_unity_count(r: int, f: Factorization) -> int:
    """|{x in Z_n*: x**r = 1}| for n = f.value >= 2.

    Per prime power this is gcd(r, phi(p**a)), except that 2**a with
    a >= 3 contributes gcd(r, 2) * gcd(r, 2**(a-2)): its unit group is
    not cyclic, and the naive cyclic product undercounts (n = 8, r = 2
    has the four roots 1, 3, 5, 7, not two).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return prod(_unit_root_count_prime_power(r, p, a) for p, a in f.factors)


def cumulative_unit_fixed_count(inst: RsaInstance, k: int) -> int:
    """|{x in Z_n*: x**(e**k) = x}| = gcd(e**k - 1, p-1) * gcd(e**k - 1, q-1).

    Counts units of period dividing k, i.e. the divisor-sum of the exact
    counts; gcd(0, m) = m makes this total at e = 1.
    """
    orders, sides, _ = _orders(inst)
    return prod(_unit_gcd(orders, f, k) for _, f in sides)


def _period_counts_at(inst: RsaInstance, k: int) -> tuple[int, int]:
    # (T_k, E_k); a k that does not divide k_max is no period, so it gets
    # (0, 0) without factoring k, which may be large and hard to factor.
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _, _, k_max = _orders(inst)
    if k_max.value % k:
        return 0, 0
    # k factored over K's primes, with no search.
    exps = ((r, next(b for b in range(a, -1, -1) if k % r**b == 0)) for r, a in k_max.factors)
    _, units, alls = _period_counts(inst, Factorization(tuple([(r, b) for r, b in exps if b]), k))
    return units[-1], alls[-1]


def exact_order_unit_count(inst: RsaInstance, k: int) -> int:
    """Units of exact period k under x -> x**e; 0 when k does not divide k_max."""
    return _period_counts_at(inst, k)[0]


def exact_order_all_count(inst: RsaInstance, k: int) -> int:
    """Residues in all of Z_n with exact period k.

    Mobius inversion of (gcd(e**d - 1, p-1) + 1)(gcd(e**d - 1, q-1) + 1):
    per prime the solutions of x**(e**d) = x are the units of order
    dividing e**d - 1 plus the single zero residue.
    """
    return _period_counts_at(inst, k)[1]


def elements_of_order_count(f: Factorization, r: int) -> int:
    """|{x in Z_n*: ord_n(x) = r}| via inversion of the root counts."""
    return _invert_at(r, lambda d: roots_of_unity_count(d, f))


def poly_fixed_count(d: int, f: Factorization) -> int:
    """|{x in Z_n: x**d = x}| for d >= 1; d = 1 fixes everything.

    For d >= 2, x(x**(d-1) - 1) = 0 mod p**a forces x to be 0 or a unit
    (any x with 0 < v_p(x) < a leaves x**(d-1) - 1 a unit), so each
    prime power contributes 1 + #(units with x**(d-1) = 1).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return f.value
    return prod(1 + _unit_root_count_prime_power(d - 1, p, a) for p, a in f.factors)


def exact_quasi_order_count(f: Factorization, r: int) -> int:
    """Count of x in Z_n whose smallest s >= 2 with x**s = x is exactly r.

    Such x are exactly those whose CRT components are all zero-or-unit;
    the smallest return exponent is L + 1 where L is the lcm of the unit
    component orders.  Inverting over divisors of r - 1 (not r: the sets
    are indexed by L = r - 1, and inverting over divisors of r produces
    negative values, e.g. -11 at n = 15, r = 2) gives

        sum over L | r-1 of mu((r-1)/L) * poly_fixed_count(L + 1, f).
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    return _invert_at(r - 1, lambda L: poly_fixed_count(L + 1, f))


def max_period(inst: RsaInstance) -> int:
    """Smallest K with e**K = 1 mod lambda(n): every period divides K."""
    _, _, k_max = _orders(inst)
    return k_max.value


def full_census(inst: RsaInstance) -> ExactOrderCensus:
    """Evaluate the exact-period counts at every divisor of k_max."""
    _, _, k_max = _orders(inst)
    divs, units, alls = _period_counts(inst, k_max)
    order = sorted(range(len(divs)), key=divs.__getitem__)
    keys, units, alls = (list(map(h.__getitem__, order)) for h in (divs, units, alls))
    return ExactOrderCensus(k_max.value, dict(zip(keys, units)), dict(zip(keys, alls)))
