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
from itertools import chain, compress, count, cycle, repeat
from math import gcd, isqrt, lcm, prod
from operator import add

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
    """Map from cycle length k, ascending, to (point count, cycle count) for Z_n."""

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


def period_of_point(x: int, inst: RsaInstance) -> PeriodRecord:
    """Exact period of x under the power map, computed without iterating.

    Only pows mod p and mod q: each component order comes from a product
    tree over the primes of p - 1 or q - 1, about log2(omega) levels of
    full-size pows, and the period is the lcm of o(r, b) = ord_{r**b}(e)
    over the r**b || either component order.
    """
    if not 0 <= x < inst.n:
        raise ValueError(f"x must lie in [0, {inst.n}), got {x}")
    orders, sides, _ = census._orders(inst)
    vs = [arith._order_exponents(x, prime, f.factors) if x % prime else None for prime, f in sides]
    # Lists, not generators, feed tuple() and lcm(*...): a tuple grown from a
    # generator of varying length leaves freed blocks that raise peak RSS.
    comps = tuple([None if v is None else prod(r**b for r, b in v.items()) for v in vs])
    period = lcm(*[orders[r][b] for v in vs if v for r, b in v.items()])
    return PeriodRecord(point=x, period=period, component_orders=comps)


def analytic_cycle_structure(inst: RsaInstance) -> CycleStructure:
    """Cycle type of the permutation: points of period k split into E_k / k cycles."""
    cen = census.full_census(inst)
    entries = {k: (e_k, e_k // k) for k, e_k in cen.all_counts.items() if e_k > 0}
    return CycleStructure(entries=entries, n=inst.n)


@lru_cache(maxsize=128)
def _residues_by_period(inst: RsaInstance, i: int, m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # The x mod prime (side i of inst) with x**(m + 1) = x (m | prime - 1)
    # grouped by their period under y -> y**e mod prime, ascending: x of
    # order u has period ord_u(e), the lcm of o(r, v_r(u)), and x = 0 has
    # period 1.  With h of order m, h**j has order m // gcd(j, m).
    orders, sides, _ = census._orders(inst)
    prime, f = sides[i]
    # g is the smallest generator of Z_prime*, so the order is reproducible.
    g = next(g for g in count(2) if all(pow(g, (prime - 1) // r, prime) != 1 for r, _ in f.factors))
    h = pow(g, (prime - 1) // m, prime)
    period = {1: 1}
    for r, a in f.factors:
        ups = ((u * r**b, lcm(s, orders[r][b])) for u, s in period.items() for b in range(a + 1))
        period = {u: s for u, s in ups if m % u == 0}
    by_period: dict[int, list[int]] = {s: [] for s in sorted(set(period.values()))}
    by_period[1].append(0)
    x = 1
    for j in range(m):
        by_period[period[m // gcd(j, m)]].append(x)
        x = x * h % prime
    return tuple((s, tuple(xs)) for s, xs in by_period.items())


def _period_products(inst: RsaInstance, k: int) -> tuple[list[tuple[list[int], list[int]]], int, int]:
    # The residues of exact period k as products A x B (A's disjoint, A mod
    # P, B mod Q), with (P, Q) = (p, q) or (q, p), whichever gives fewer A
    # residues times Q.  x has the lcm of its components' periods.
    P, Q = inst.p, inst.q
    orders, sides, _ = census._orders(inst)
    ms = [census._unit_gcd(orders, f, k) for _, f in sides]
    classes_a, classes_b = (_residues_by_period(inst, i, m) for i, m in enumerate(ms))
    links = [[lcm(s, t) == k for t, _ in classes_b] for s, _ in classes_a]
    used_a = sum(len(xs) for (_, xs), row in zip(classes_a, links) if any(row))
    used_b = sum(len(xs) for (_, xs), col in zip(classes_b, zip(*links)) if any(col))
    if P * used_b < Q * used_a:
        P, Q, classes_a, classes_b, links = Q, P, classes_b, classes_a, list(zip(*links))
    # The a-classes linked to the same b-classes share one B.
    groups: dict[tuple[int, ...], list[int]] = {}
    for (_, xs), row in zip(classes_a, links):
        linked = tuple(j for j, ok in enumerate(row) if ok)
        if linked:
            groups.setdefault(linked, []).extend(xs)
    products = [(A, list(chain.from_iterable(classes_b[j][1] for j in js))) for js, A in groups.items()]
    return products, P, Q


def enumerate_fixed_points(
    inst: RsaInstance, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """All residues of exact period k, ascending.

    They are products A x B of per-prime solution classes (A mod P, B mod
    Q, {P, Q} = {p, q}), marked in a grid of rows t in [0, Q) by columns
    a in the A's, ascending, whose cell (t, a) is x = a + P*t.  Read back
    row by row the marks come out ascending, with no sort, at a cost in
    proportion to the period's own size, not to n.  A period that would
    mark under 1/16 of its grid is CRT-paired and sorted instead.  Raises
    CapExceededError (carrying the count) when the census says the list
    would exceed ``cap``; that check comes before anything is allocated.
    """
    expected = census.exact_order_all_count(inst, k)
    if expected > cap:
        raise CapExceededError(expected, cap)
    if expected == 0:
        return []
    products, P, Q = _period_products(inst, k)
    n = inst.n
    cols = sorted(chain.from_iterable(A for A, _ in products))
    w = len(cols)
    if 16 * expected < Q * w:
        cp, cq = Q * pow(Q, -1, P), P * pow(P, -1, Q)  # cp = 1 mod P, 0 mod Q; cq the reverse
        return sorted((a * cp + b * cq) % n for A, B in products for a in A for b in B)
    # x = a + P*t is b mod Q exactly when t = (b - a)*P^-1 mod Q, so
    # column a is B's marks rotated left by a*P^-1.
    p_inv = pow(P, -1, Q)
    column = {a: j for j, a in enumerate(cols)}
    rows = isqrt(64 * Q // w) + 1  # rows per block: ~Q / rows calls against rows * w values
    size = -(-Q // rows) * rows * w  # whole blocks; the rows past Q stay unmarked
    grid = bytearray(size)
    for A, B in products:
        ind = bytearray(Q)
        for b in B:
            ind[b * p_inv % Q] = 1
        ind *= 2  # ind[s : s + Q] is then ind rotated left by s
        for a in A:
            s = a * p_inv % Q
            grid[column[a] : Q * w : w] = ind[s : s + Q]
    # Read back a block at a time: cell r*w + j of block i is cols[j] + P*r
    # + P*rows*i, ascending in the cell, and the blocks ascend with i.
    block = rows * w
    block_cols = [a + P * r for r in range(rows) for a in cols]
    starts = range(0, size, block)
    marks_per_block = map(grid.count, repeat(1), starts, range(block, size + block, block))
    bases = chain.from_iterable(map(repeat, range(0, size // w * P, rows * P), marks_per_block))
    return list(map(add, compress(cycle(block_cols), grid), bases))


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
