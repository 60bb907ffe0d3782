"""Shared exact integer helpers: gcd bookkeeping, primality, factoring."""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt

# The first 13 primes as Miller-Rabin witnesses decide primality for every
# n below _MR_LIMIT (Sorenson and Webster 2015); without 41 the limit is 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Trial-division bound for the determinants and norms whose primes decide
# strong faithfulness and condition (d).
FACTOR_BOUND = 10**6


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def is_prime(n: int) -> bool:
    """Miller-Rabin: proved for n < _MR_LIMIT, probable above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int, bound: int | None = None) -> tuple[dict[int, int], int]:
    """Trial-divide |n| and return (factor exponents, unfactored leftover).

    The leftover is 1 on complete factorization.  With a bound, trial
    division stops there; a leftover is still counted when it is proved prime
    (below bound**2, or below _MR_LIMIT by Miller-Rabin).  Otherwise it is
    returned: a composite, or a probable prime above _MR_LIMIT.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    limit = isqrt(n)
    while d <= limit and (bound is None or d <= bound):
        for q in (d, d + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
                limit = isqrt(n)
        d += 6
    if n > 1 and (bound is None or n <= bound * bound or (n < _MR_LIMIT and is_prime(n))):
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0 in increasing order, built from its
    prime factorization."""
    out = [1]
    for p, e in prime_factors(n)[0].items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    factors, rest = prime_factors(n)
    assert rest == 1
    out = 1
    for p, e in factors.items():
        out *= (p - 1) * p ** (e - 1)
    return out


def iter_primes(bound: int) -> Iterator[int]:
    """The primes up to bound in increasing order, sieved lazily in segments
    [lo, 2*lo): a scan that stops early allocates only what it reached, and
    the sieving primes kept are those up to sqrt(bound).
    """
    sieving: list[int] = []
    lo = 2
    while lo <= bound:
        hi = min(2 * lo, bound + 1)
        segment = bytearray([1]) * (hi - lo)
        # every prime below sqrt(hi) is below lo, so sieving holds it already
        for q in sieving:
            if q * q >= hi:
                break
            start = -lo % q
            segment[start::q] = bytes(len(range(start, hi - lo, q)))
        for i, flag in enumerate(segment):
            if flag:
                p = lo + i
                if p * p <= bound:
                    sieving.append(p)
                yield p
        lo = hi
