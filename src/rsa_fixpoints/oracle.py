"""Brute-force census of the power map, the reference behind ``oracle``.

Deliberately naive: periods come from literally iterating the map.
Nothing here calls the closed-form code paths; only gcd/lcm and builtin
modular powering are used, so the census can arbitrate disagreements.
"""

from __future__ import annotations

from math import gcd, lcm

from .census import ExactOrderCensus, RsaInstance
from .errors import CapExceededError

__all__ = ["brute_power_map_census", "DEFAULT_SCAN_LIMIT"]

DEFAULT_SCAN_LIMIT = 100_000


def brute_power_map_census(inst: RsaInstance, limit: int = DEFAULT_SCAN_LIMIT) -> ExactOrderCensus:
    """Tally exact periods by iterating x -> x**e from every residue.

    Each cycle of the permutation is walked once; the walk length is the
    measured period of every point on it.  k_max is the lcm of the
    observed periods, and only observed periods appear as keys.
    """
    n, e = inst.n, inst.e
    if n > limit:
        raise CapExceededError(n, limit, "modulus", "scan limit")
    unit_counts: dict[int, int] = {}
    all_counts: dict[int, int] = {}
    visited = bytearray(n)
    k_max = 1
    for x in range(n):
        if visited[x]:
            continue
        cycle = [x]
        y = pow(x, e, n)
        while y != x:
            cycle.append(y)
            y = pow(y, e, n)
        k = len(cycle)
        units = 0
        for z in cycle:
            visited[z] = 1
            if gcd(z, n) == 1:
                units += 1
        all_counts[k] = all_counts.get(k, 0) + k
        if units:
            unit_counts[k] = unit_counts.get(k, 0) + units
        k_max = lcm(k_max, k)
    return ExactOrderCensus(
        k_max=k_max,
        unit_counts=dict(sorted(unit_counts.items())),
        all_counts=dict(sorted(all_counts.items())),
    )
