"""Exception types shared across the package."""

from __future__ import annotations


class FactoringError(Exception):
    """Step budget ran out before the input was fully factored.

    Carries whatever was found: ``partial`` is the factored part (a
    ``Factorization`` of the product of all primes found so far) and
    ``remaining`` is the unfactored composite cofactor.
    """

    def __init__(self, n: int, partial, remaining: int):
        self.n = n
        self.partial = partial
        self.remaining = remaining
        super().__init__(
            f"factoring budget exhausted for {n}; unfactored cofactor {remaining}"
        )


class CapExceededError(Exception):
    """An enumeration would produce more results than the caller's cap, a
    count would run over more divisors than the census budget allows, or a
    brute-force scan was asked to cover a modulus above its limit."""

    def __init__(self, count: int, cap: int, what: str = "result count", limit: str = "cap"):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} {count} exceeds {limit} {cap}")
