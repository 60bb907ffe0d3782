"""Polynomial arithmetic over F_p and the distinct-degree splitting signature.

Polynomials mod p are coefficient lists (low degree first, entries in [0, p),
no trailing zeros).  Only what the splitting signature needs is implemented:
division, gcd, powering modulo a polynomial, and the distinct-degree
factorization, which iterates the Frobenius h -> h^p mod g from h = x
(Cohen, GTM 138, Alg. 3.4.3).
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


def _pow_mod(base, exp: int, modulus, p):
    """base^exp mod (modulus, p) for exp >= 1 and base reduced mod modulus, by
    left-to-right square and multiply: exp.bit_length() - 1 squarings and one
    product per further set bit.
    """
    result = base
    for bit in bin(exp)[3:]:
        result = _mod(_mul(result, result, p), modulus, p)
        if bit == "1":
            result = _mod(_mul(result, base, p), modulus, p)
    return result


def _derivative(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def reduce_poly(f: Poly, p: int) -> list[int]:
    if not f.is_integral():
        raise ValueError("integer polynomial required")
    return _trim([c % p for c in f.coeffs])


def _distinct_degree_factors(fbar, p):
    """The pairs (d, g_d), d increasing, where g_d is the product of the
    degree-d irreducible factors of fbar, a monic squarefree polynomial mod p.
    Only nonconstant g_d are listed, and their product is fbar.

    h holds x^(p^d) mod g, one p-th power per degree.  Once the factors of
    degree at most d are divided out, a g of degree below 2(d+1) is
    irreducible, so what is left of g is one factor.
    """
    pairs = []
    g = fbar
    h = [0, 1]
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, g, p)
        common = _gcd(g, _sub(h, [0, 1], p), p)
        if len(common) > 1:
            pairs.append((d, common))
            g = _divmod(g, common, p)[0]
            h = _mod(h, g, p)
    if len(g) > 1:
        pairs.append((len(g) - 1, g))
    return pairs


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
    pairs = _distinct_degree_factors(fbar, p)
    # A list, not a generator: CPython sizes tuple(generator) by a guess and
    # shrinks it, which moves a tuple between its per-size free lists on
    # every call and grows them to their caps (a few MB over a long run).
    return tuple([d for d, g_d in pairs for _ in range((len(g_d) - 1) // d)])
