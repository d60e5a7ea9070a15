"""The power map x -> x**e (mod pq) as a dynamical system.

Closed-form per-point periods, constructive enumeration of the points
of a given period, and the fixed-point -> factor extraction.  Everything
assumes a validated RsaInstance: on a squarefree modulus with
gcd(e, lambda) = 1 the map is a permutation, so "period" is well defined
for every residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat
from math import gcd, isqrt, lcm, prod
from operator import add

from . import arith, census
from .census import RsaInstance
from .errors import CapExceededError

__all__ = [
    "PeriodRecord",
    "period_of_point",
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


def period_of_point(x: int, inst: RsaInstance) -> PeriodRecord:
    """Exact period of x under the power map, computed without iterating.

    Only pows mod p and mod q: each component order peels the prime
    powers of p - 1 or q - 1 off x, heaviest first, by the plan the order
    table holds, and the period is the lcm of o(r, b) = ord_{r**b}(e) over
    the r**b || either component order.
    """
    if not 0 <= x < inst.n:
        raise ValueError(f"x must lie in [0, {inst.n}), got {x}")
    orders, sides, _ = census._orders(inst)
    vs = [arith._order_exponents(x, prime, plan) if x % prime else None for prime, _, plan in sides]
    # Lists, not generators, feed tuple() and lcm(*...): a tuple grown from a
    # generator of varying length leaves freed blocks that raise peak RSS.
    comps = tuple([None if v is None else prod(r**b for r, b in v.items()) for v in vs])
    period = lcm(*[orders[r][b] for v in vs if v for r, b in v.items()])
    return PeriodRecord(point=x, period=period, component_orders=comps)


@lru_cache(maxsize=128)
def _residues_by_period(inst: RsaInstance, i: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # The x mod prime (side i of inst) with x**(e**k) = x by period under
    # y -> y**e, periods ascending: census._period_histogram's walk over lists
    # of residues, multiplied pairwise mod prime, and 0 at period 1.  The units
    # of order r**b are z**j, r not dividing j, z = y**((prime - 1) / r**b) for
    # the smallest y that is no r-th power, so no generator is searched for.
    prime = census._orders(inst)[1][i][0]

    def units(r, b):
        y = next(y for y in count(2) if pow(y, (prime - 1) // r, prime) != 1)
        z = pow(y, (prime - 1) // r**b, prime)
        ys = list(accumulate(repeat(z, r**b - 1), lambda y, z: y * z % prime, initial=1))
        del ys[::r]  # z**j with r | j has a lower order
        return ys

    by_period = census._period_histogram(
        inst, i, k, {1: [1]}, units, lambda xs, ys: [x * y % prime for x in xs for y in ys]
    )
    by_period[1].append(0)
    return tuple((s, tuple(by_period[s])) for s in sorted(by_period))


def _period_products(inst: RsaInstance, k: int) -> tuple[list[tuple[tuple[int, ...], list[int]]], int, int]:
    # The residues of exact period k as products A x B, A mod P, B mod Q: each
    # A-class of period s (the A's are disjoint) with the B-classes of period
    # t, lcm(s, t) = k.  (P, Q) = (p, q) or (q, p), whichever gives fewer A
    # residues times Q.
    P, Q = inst.p, inst.q
    classes_a, classes_b = (_residues_by_period(inst, i, k) for i in (0, 1))
    links = [[lcm(s, t) == k for t, _ in classes_b] for s, _ in classes_a]
    used_a = sum(len(xs) for (_, xs), row in zip(classes_a, links) if any(row))
    used_b = sum(len(xs) for (_, xs), col in zip(classes_b, zip(*links)) if any(col))
    if P * used_b < Q * used_a:
        P, Q, classes_a, classes_b, links = Q, P, classes_b, classes_a, list(zip(*links))
    bs = [ys for _, ys in classes_b]
    products = [(xs, list(chain.from_iterable(compress(bs, row)))) for (_, xs), row in zip(classes_a, links) if any(row)]
    return products, P, Q


def enumerate_fixed_points(
    inst: RsaInstance, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """All residues of exact period k, ascending.

    They are products A x B of per-prime period classes (A mod P, B mod
    Q, {P, Q} = {p, q}), which census._period_histogram lists as residues
    by its per-prime walk, and marked in a grid of rows t in [0, Q) by
    columns a, ascending, whose cell (t, a) is x = a + P*t.  Three emitters
    read them back: a period with 9*E_k >= 5*n takes every residue mod P as
    a column, an n-byte mask of at most 9/5*cap bytes read by
    compress(range(n), mask); any other takes the residues of its A's and
    is read row by row, ascending with no sort, at a cost in proportion to
    its own size; one that would mark under 1/16 of that grid is CRT-paired
    and sorted.  Raises CapExceededError (carrying the count) when the
    census says the list would exceed ``cap``, before anything is
    allocated.  That bounds the classes too: side x lists m + 1 residues,
    m = gcd(e**k - 1, x - 1), and m < 7.3 * E_k for p, q < 2**64.
    """
    expected = census.exact_order_all_count(inst, k)
    if expected > cap:
        raise CapExceededError(expected, cap)
    if expected == 0:
        return []
    products, P, Q = _period_products(inst, k)
    n = inst.n
    # From 5/9 of Z_n on, the mask outruns the column grid, though it makes an
    # int for every residue; then cell (t, a) sits at index x, and range(P)[a] = a.
    full = 9 * expected >= 5 * n
    cols = range(P) if full else sorted(chain.from_iterable(A for A, _ in products))
    w = len(cols)
    if 16 * expected < Q * w:
        cp, cq = Q * pow(Q, -1, P), P * pow(P, -1, Q)  # cp = 1 mod P, 0 mod Q; cq the reverse
        return sorted((a * cp + b * cq) % n for A, B in products for a in A for b in B)
    # x = a + P*t is b mod Q exactly when t = (b - a)*P^-1 mod Q, so
    # column a is B's marks rotated left by a*P^-1.
    p_inv = pow(P, -1, Q)
    column = cols if full else {a: j for j, a in enumerate(cols)}
    # Rows per block: ~Q / rows calls against rows * w values; the full mask is one block.
    rows = Q if full else isqrt(64 * Q // w) + 1
    grid = bytearray(Q * w)
    for A, B in products:
        ind = bytearray(Q)
        for b in B:
            ind[b * p_inv % Q] = 1
        ind *= 2  # ind[s : s + Q] is then ind rotated left by s
        for a in A:
            s = a * p_inv % Q
            grid[column[a] :: w] = ind[s : s + Q]
    if full:
        return list(compress(range(n), grid))
    # Read back a block of rows at a time: cell start + j is block_cols[j] +
    # P*(start // w), ascending in j, and the blocks ascend with start.
    block = rows * w
    block_cols = [a + P * r for r in range(rows) for a in cols]
    points = []
    for start in range(0, Q * w, block):
        points += map(add, compress(block_cols, grid[start : start + block]), repeat(start // w * P))
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
        return inst.p * pow(inst.p, -1, inst.q)
    # (0 mod p, 1 mod q) is among the points, so one always splits n.
    return next(m for m in points if extract_factor_from_fixed_point(m, inst.n) is not None)
