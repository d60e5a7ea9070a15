"""Closed-form counting for the fixed points of x -> x**e (mod n).

A residue x modulo n = p*q has a well-defined period under repeated
e-th powering whenever gcd(e, lambda(n)) = 1: splitting x by CRT, each
component is zero (period 1) or a unit, and x has the lcm of their
periods.  The phi(r**b) units of order r**b in the r-part of the cyclic
group mod p have period o(r, b) = ord_{r**b}(e), so each side's periods
are counted one prime power of p - 1 (or q - 1) at a time, in small
{period: count} maps merged by lcm, and the other side's units are merged
in the same way.  Every key divides K = k_max, so the census makes at
most d(K) lcms per r**b, with no Mobius inversion and no pair loop.

Two counting-formula corrections are baked in (see the docstrings of
``roots_of_unity_count`` and ``exact_quasi_order_count``): the unit
group of Z/2**a is not cyclic for a >= 3, and the minimal-return-time
census must be indexed by r - 1, not r.  Both corrected formulas are
regression-tested against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from . import arith
from .arith import Factorization
from .errors import CapExceededError

__all__ = [
    "RsaInstance",
    "ExactOrderCensus",
    "make_instance",
    "roots_of_unity_count",
    "exact_order_unit_count",
    "exact_order_all_count",
    "elements_of_order_count",
    "poly_fixed_count",
    "exact_quasi_order_count",
    "max_period",
    "full_census",
    "DIVISOR_BUDGET",
]

# Most divisors of k a count may merge over: at d(K) = 589,824 a census
# peaks at 90 MB and a CLI census in JSON at 165 MB, about half of it the
# render, in 2.3 s (ru_maxrss; 2 vCPU, CPython 3.11), about linear in d(K).
DIVISOR_BUDGET = 1 << 20


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
    # The factored-order table, the one place an instance's numbers are factored:
    # o(r, b) = ord_{r**b}(e) at orders[r][b] for each r**b | lambda (1 at b = 0),
    # over the primes of r**(b-1) * (r - 1); (x, x - 1 factored, its peel plan)
    # for x = p, q; and K = lcm of o(r, v_r(lambda)), factored.  The sort puts
    # the larger exponent of a prime of both p - 1 and q - 1 last, so it wins.
    fs = [arith.factorize(x - 1) for x in (inst.p, inst.q)]
    sides = tuple(zip((inst.p, inst.q), fs, [arith._peel_plan(f.factors) for f in fs]))
    orders, k_exps = {}, {}
    for r, a in dict(sorted(fs[0].factors + fs[1].factors)).items():
        rf = arith.factorize(r - 1).factors
        plans = [arith._peel_plan(((r, b - 1), *rf)) for b in range(1, a + 1)]
        vs = [arith._order_exponents(inst.e, r**b, plan) for b, plan in enumerate(plans, 1)]
        orders[r] = (1, *(prod(s**j for s, j in v.items()) for v in vs))
        for s, j in vs[-1].items():
            k_exps[s] = max(j, k_exps.get(s, 0))
    k_factors = tuple(sorted((s, j) for s, j in k_exps.items() if j))
    return orders, sides, Factorization(k_factors, prod(s**j for s, j in k_factors))


def _period_histogram(inst: RsaInstance, i: int, k: int, h=None, units=lambda r, b: (r - 1) * r ** (b - 1), mul=mul):
    # h, {1: 1} by default, lcm-merged with the units mod x (side i of inst) of
    # period dividing k: per r**c || x - 1, units(r, b), the phi(r**b) units of
    # order r**b (by default their count), at period o(r, b) for b = 1..c up to
    # the first o(r, b) not dividing k, as o(r, b) | o(r, b + 1).  Classes join
    # by + and multiply by mul.  Every key divides k: a map holds <= d(k) keys.
    orders, sides, _ = _orders(inst)
    h = {1: 1} if h is None else h
    for r, c in sides[i][1].factors:
        dist = {}
        for b, o in enumerate(orders[r][1 : c + 1], 1):
            if k % o:
                break
            w = units(r, b)
            dist[o] = dist[o] + w if o in dist else w
        merged = h.copy()
        for t, w in dist.items():
            for s, n in h.items():
                u, v = lcm(s, t), mul(n, w)
                merged[u] = merged[u] + v if u in merged else v
        h = merged
    return h


def _exact_counts(inst: RsaInstance, k: int) -> tuple[dict[int, int], dict[int, int]]:
    # (T, E): the units and the residues of each period dividing k that occurs.
    # T lcm-merges the smaller of H_p and H_q (fewer steps) with the other
    # side's units; E adds the residues with a zero component, H_p and H_q, and
    # 0 itself.  A k that does not divide K is no period, so it gets empty maps
    # without factoring k, which may be large and hard to factor; otherwise
    # d(k), over K's primes, is held to DIVISOR_BUDGET before any merge.
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _, _, k_max = _orders(inst)
    if k_max.value % k:
        return {}, {}
    d = prod(next(b for b in range(a, -1, -1) if k % r**b == 0) + 1 for r, a in k_max.factors)
    if d > DIVISOR_BUDGET:
        name = "d(K)" if k == k_max.value else f"d({k})"
        raise CapExceededError(d, DIVISOR_BUDGET, f"divisor count {name} =", "the census budget")
    hs = [_period_histogram(inst, i, k) for i in (0, 1)]
    i = len(hs[1]) < len(hs[0])
    units = _period_histogram(inst, 1 - i, k, hs[i])
    alls = dict(units)
    alls[1] += 1
    for h in hs:
        for s, n in h.items():
            alls[s] = alls.get(s, 0) + n
    return units, alls


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


def exact_order_unit_count(inst: RsaInstance, k: int) -> int:
    """Units of exact period k under x -> x**e; 0 when k does not divide k_max."""
    return _exact_counts(inst, k)[0].get(k, 0)


def exact_order_all_count(inst: RsaInstance, k: int) -> int:
    """Residues in all of Z_n with exact period k.

    Counted per side, one prime power of p - 1 or q - 1 at a time, and
    the sides merged by lcm, keeping only the periods that divide k.
    """
    return _exact_counts(inst, k)[1].get(k, 0)


def elements_of_order_count(f: Factorization, r: int) -> int:
    """|{x in Z_n*: ord_n(x) = r}|: the product over s**j || r of the
    R(s**j) - R(s**(j-1)) units of order s**j, R = ``roots_of_unity_count``."""
    R = roots_of_unity_count
    return prod(R(s**j, f) - R(s ** (j - 1), f) for s, j in arith.factorize(r).factors)


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

        sum over L | r-1 of mu((r-1)/L) * poly_fixed_count(L + 1, f),

    whose nonzero terms are the 2**omega(r - 1) squarefree d = (r-1)/L.
    Raises CapExceededError when that count exceeds DIVISOR_BUDGET.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    primes = [s for s, _ in arith.factorize(r - 1).factors]
    if (count := 1 << len(primes)) > DIVISOR_BUDGET:
        raise CapExceededError(count, DIVISOR_BUDGET, f"squarefree divisor count of {r - 1} =", "the census budget")
    terms = [(1, 1)]  # (d, mu(d))
    for s in primes:
        terms += [(d * s, -mu) for d, mu in terms]
    return sum(mu * poly_fixed_count((r - 1) // d + 1, f) for d, mu in terms)


def max_period(inst: RsaInstance) -> int:
    """Smallest K with e**K = 1 mod lambda(n): every period divides K."""
    _, _, k_max = _orders(inst)
    return k_max.value


def full_census(inst: RsaInstance) -> ExactOrderCensus:
    """Evaluate the exact-period counts at every divisor of k_max."""
    _, _, k_max = _orders(inst)
    units, alls = _exact_counts(inst, k_max.value)
    all_counts = dict.fromkeys(sorted(arith._divisor_lattice(k_max)), 0)
    unit_counts = all_counts.copy()
    unit_counts.update(units)
    all_counts.update(alls)
    return ExactOrderCensus(k_max.value, unit_counts, all_counts)
