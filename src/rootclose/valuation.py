"""Exact integer utilities: p-adic valuations and the binomial rule.

Everything here runs on arbitrary-precision integers with no modular
shortcuts; this module is the oracle layer for the rest of the package.
"""

from __future__ import annotations

import math

#: Valuation of zero.  Using +inf keeps divisibility loops branch-free.
INFINITY = math.inf


def is_prime(n: int) -> bool:
    """Trial division; every prime used in this package is tiny."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


#: Primes are refused from here up, before any trial division: every
#: prime the package uses is tiny, and a huge one only stalls the search.
PRIME_BOUND = 2**16


def check_prime(p: int) -> int:
    if p >= PRIME_BOUND:
        raise ValueError(f"primes must be below 2^16 = {PRIME_BOUND}")
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return p


def vp(p: int, n: int) -> int | float:
    """Largest r with p**r dividing n, and INFINITY for n == 0."""
    if p < 2:
        raise ValueError("prime must be >= 2")
    if n == 0:
        return INFINITY
    n = abs(n)
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return r


def binom_valuation(p: int, m: int, i: int) -> int:
    """p-adic valuation of C(p**m, i) for 1 <= i <= p**m.

    Computed as m - vp(p, i); the contract that this equals
    vp(p, math.comb(p**m, i)) is checked exhaustively by the test suite.
    """
    check_prime(p)
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 1 <= i <= p**m:
        raise ValueError(f"need 1 <= i <= p^m, got i={i}")
    v = vp(p, i)
    assert isinstance(v, int)
    return m - v
