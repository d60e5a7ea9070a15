"""The power map x -> x**e (mod pq) as a dynamical system.

Closed-form per-point periods, analytic cycle structure, constructive
CRT enumeration of the points of a given period, and the fixed-point ->
factor extraction.  Everything assumes a validated RsaInstance: on a
squarefree modulus with gcd(e, lambda) = 1 the map is a permutation, so
"period" is well defined for every residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from . import arith, census
from .census import RsaInstance
from .errors import CapExceededError

__all__ = [
    "PeriodRecord",
    "CycleStructure",
    "iterate_power_map",
    "period_of_point",
    "analytic_cycle_structure",
    "enumerate_fixed_points",
    "extract_factor_from_fixed_point",
    "find_nontrivial_fixed_point",
]

DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class PeriodRecord:
    """A residue, its period, and its CRT component orders.

    ``component_orders`` holds (ord mod p, ord mod q) with None marking
    a zero component.  The period is ord_L(e) for L = lcm of the
    non-None entries (1 when both are None).
    """

    point: int
    period: int
    component_orders: tuple[int | None, int | None]


@dataclass(frozen=True)
class CycleStructure:
    """Map from cycle length k to (point count, cycle count) for Z_n."""

    entries: dict[int, tuple[int, int]]
    n: int


def iterate_power_map(x: int, inst: RsaInstance, steps: int) -> int:
    """Apply x -> x**e mod n ``steps`` times (e**steps is never formed)."""
    if not 0 <= x < inst.n:
        raise ValueError(f"x must lie in [0, {inst.n}), got {x}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    y = x
    for _ in range(steps):
        y = pow(y, inst.e, inst.n)
    return y


@lru_cache(maxsize=4096)
def _primitive_root(p: int) -> int:
    # Smallest generator of Z_p*; deterministic so enumeration order is
    # reproducible.
    checks = [(p - 1) // r for r, _ in arith.factorize(p - 1).factors]
    g = 2
    while not all(pow(g, c, p) != 1 for c in checks):
        g += 1
    return g


def _component_order(x: int, prime: int) -> int | None:
    xp = x % prime
    if xp == 0:
        return None
    return arith.multiplicative_order(xp, prime)


def period_of_point(x: int, inst: RsaInstance) -> PeriodRecord:
    """Exact period of x under the power map, computed without iterating."""
    if not 0 <= x < inst.n:
        raise ValueError(f"x must lie in [0, {inst.n}), got {x}")
    op = _component_order(x, inst.p)
    oq = _component_order(x, inst.q)
    L = lcm(op or 1, oq or 1)
    period = 1 if L == 1 else arith.multiplicative_order(inst.e, L)
    return PeriodRecord(point=x, period=period, component_orders=(op, oq))


def analytic_cycle_structure(inst: RsaInstance) -> CycleStructure:
    """Cycle type of the permutation: points of period k split into E_k / k cycles."""
    cen = census.full_census(inst)
    entries = {k: (e_k, e_k // k) for k, e_k in cen.all_counts.items() if e_k > 0}
    return CycleStructure(entries=entries, n=inst.n)


def _solution_classes(prime: int, e: int, k: int) -> list[tuple[int | None, list[int]]]:
    # Residues mod prime with x**(e**k) = x, grouped by multiplicative
    # order: the zero class plus, for each u | gcd(e**k - 1, prime - 1),
    # the phi(u) units of exact order u (powers of a primitive root).
    m = census._gcd_pow_minus_one(e, k, prime - 1)
    root_of_order_m = pow(_primitive_root(prime), (prime - 1) // m, prime)
    classes: list[tuple[int | None, list[int]]] = [(None, [0])]
    for u in arith.divisors(arith.factorize(m)):
        h = pow(root_of_order_m, m // u, prime)
        classes.append((u, [pow(h, j, prime) for j in range(1, u + 1) if gcd(j, u) == 1]))
    return classes


def enumerate_fixed_points(
    inst: RsaInstance, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """All residues of exact period k, ascending.

    Built by CRT-pairing the per-prime solution sets of x**(e**k) = x
    and keeping the pairs whose combined order gives period exactly k.
    Raises CapExceededError (carrying the count) when the census says
    the list would exceed ``cap``.
    """
    expected = census.exact_order_all_count(inst, k)
    if expected > cap:
        raise CapExceededError(expected, cap)
    if expected == 0:
        return []
    p, q, n, e = inst.p, inst.q, inst.n, inst.e
    # CRT basis: cp = 1 mod p, 0 mod q and cq the other way around.
    cp = q * pow(q, -1, p) % n
    cq = p * pow(p, -1, q) % n
    period_of_lcm: dict[int, int] = {1: 1}
    points: list[int] = []
    classes_q = _solution_classes(q, e, k)
    for u, elems_p in _solution_classes(p, e, k):
        for v, elems_q in classes_q:
            L = lcm(u or 1, v or 1)
            period = period_of_lcm.get(L)
            if period is None:
                period = arith.multiplicative_order(e, L)
                period_of_lcm[L] = period
            if period != k:
                continue
            for a in elems_p:
                base = a * cp
                points += [(base + b * cq) % n for b in elems_q]
    points.sort()
    return points


def extract_factor_from_fixed_point(m: int, n: int) -> int | None:
    """A nontrivial factor of n revealed by the fixed point m, if any.

    Tries gcd(m, n), gcd(m - 1, n), gcd(m + 1, n) in that order: a fixed
    point with one zero CRT component, or one component equal to +-1
    while the other is not, splits n immediately.  Returns None when all
    three gcds are trivial (m with both components in {0, 1, -1}).
    """
    for c in (m, m - 1, m + 1):
        g = gcd(c, n)
        if 1 < g < n:
            return g
    return None


def find_nontrivial_fixed_point(inst: RsaInstance, budget: int = DEFAULT_ENUMERATION_CAP) -> int:
    """A fixed point whose gcd extraction splits n, witnessing the factoring link.

    Returns the smallest fixed point from which
    ``extract_factor_from_fixed_point`` recovers p or q, or, when E_1
    exceeds ``budget``, the fixed point (0 mod p, 1 mod q), for which
    gcd(m, n) = p.  Requires the factorization (carried by inst); this
    makes no attempt to find fixed points from (n, e) alone.
    """
    try:
        points = enumerate_fixed_points(inst, 1, cap=budget)
    except CapExceededError:
        return arith.crt_combine([(0, inst.p), (1, inst.q)])
    # (0 mod p, 1 mod q) is among the points, so one always splits n.
    return next(m for m in points if extract_factor_from_fixed_point(m, inst.n) is not None)
