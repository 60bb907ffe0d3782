"""Polynomial arithmetic over F_p and the distinct-degree splitting signature.

Polynomials mod p are coefficient lists (low degree first, entries in [0, p),
no trailing zeros).  Only what the splitting signature needs is implemented:
division, gcd, and modular exponentiation of x.
"""

from __future__ import annotations

from .arith import is_prime
from .polynomials import Poly

RAMIFIED = "ramified"


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] % p
        if c:
            q = c * inv % p
            quot[i] = q
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - q * cb) % p
    return _trim(quot), _trim(a)


def _mod(a, b, p):
    return _divmod(a, b, p)[1]


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _pow_x(exp: int, modulus, p):
    """x^exp mod (modulus, p) by square and multiply."""
    result = [1]
    base = _mod([0, 1], modulus, p)
    while exp:
        if exp & 1:
            result = _mod(_mul(result, base, p), modulus, p)
        base = _mod(_mul(base, base, p), modulus, p)
        exp >>= 1
    return result


def _derivative(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def reduce_poly(f: Poly, p: int) -> list[int]:
    if not f.is_integral():
        raise ValueError("integer polynomial required")
    return _trim([c % p for c in f.coeffs])


def ddf_signature(f: Poly, p: int):
    """Degrees of the irreducible factors of f mod p, or 'ramified'.

    Requires f monic with p prime (and p not dividing the leading
    coefficient, which monicity guarantees).  If f mod p is not squarefree the
    prime is reported as ramified rather than factored further; distinguishers
    simply skip such primes.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not f.is_monic():
        raise ValueError("monic polynomial required")
    fbar = reduce_poly(f, p)
    if len(fbar) - 1 != f.degree:
        raise ValueError("leading coefficient vanishes mod p")
    if _gcd(fbar, _derivative(fbar, p), p) != [1]:
        return RAMIFIED
    degrees: list[int] = []
    g = fbar
    d = 0
    while len(g) - 1 > 0:
        d += 1
        if 2 * d > len(g) - 1:
            degrees.append(len(g) - 1)
            break
        h = _pow_x(p**d, g, p)
        hx = _sub(h, [0, 1], p)
        common = _gcd(g, hx, p)
        deg_common = len(common) - 1
        if deg_common > 0:
            degrees.extend([d] * (deg_common // d))
            g = _divmod(g, common, p)[0]
    return tuple(sorted(degrees))
