"""Pins `modp.ddf_signature`, which iterates the Frobenius h -> h^p mod g once
per degree, against the loop it replaced, which rebuilt x^(p^d) mod g from x
at every degree d.  Checks the pairs (d, g_d) of `_distinct_degree_factors`
directly, and against sympy's factorization mod p where it is installed."""

import random
from functools import reduce

import pytest

from algact.arith import is_prime
from algact.modp import (
    RAMIFIED,
    _derivative,
    _distinct_degree_factors,
    _divmod,
    _gcd,
    _mod,
    _mul,
    _sub,
    ddf_signature,
    reduce_poly,
)
from algact.polynomials import Poly

PRIMES = [p for p in range(600) if is_prime(p)]


def pow_x_reference(exp: int, modulus, p):
    """The replaced powering: x^exp mod (modulus, p) by square and multiply."""
    result = [1]
    base = _mod([0, 1], modulus, p)
    while exp:
        if exp & 1:
            result = _mod(_mul(result, base, p), modulus, p)
        base = _mod(_mul(base, base, p), modulus, p)
        exp >>= 1
    return result


def ddf_signature_reference(f: Poly, p: int):
    """The replaced signature loop: x^(p^d) mod g from scratch at every d."""
    fbar = reduce_poly(f, p)
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
        h = pow_x_reference(p**d, g, p)
        hx = _sub(h, [0, 1], p)
        common = _gcd(g, hx, p)
        deg_common = len(common) - 1
        if deg_common > 0:
            degrees.extend([d] * (deg_common // d))
            g = _divmod(g, common, p)[0]
    return tuple(sorted(degrees))


def random_pairs(seed: int, count: int):
    """Seeded (f, p): f monic of degree 1-12, p < 600; a quarter of the pairs
    take p in (2, 3), mostly below deg f."""
    rng = random.Random(seed)
    for _ in range(count):
        deg = rng.randint(1, 12)
        f = Poly([rng.randint(-40, 40) for _ in range(deg)] + [1])
        p = rng.choice((2, 3)) if rng.random() < 0.25 else rng.choice(PRIMES)
        yield f, p


def assert_pairs_factor(fbar, p):
    """(d, g_d) with d increasing, d | deg g_d, g_d monic, product fbar."""
    pairs = _distinct_degree_factors(fbar, p)
    assert [d for d, _ in pairs] == sorted({d for d, _ in pairs})
    for d, g_d in pairs:
        assert len(g_d) > 1 and (len(g_d) - 1) % d == 0 and g_d[-1] == 1, d
    assert reduce(lambda a, b: _mul(a, b, p), (g_d for _, g_d in pairs), [1]) == fbar
    return pairs


def test_signature_matches_replaced_loop():
    small_prime_below_degree = split = 0
    for f, p in random_pairs(2024, 3000):
        signature = ddf_signature(f, p)
        assert signature == ddf_signature_reference(f, p), (f.coeffs, p)
        small_prime_below_degree += p in (2, 3) and p < f.degree
        if signature != RAMIFIED:
            split += len(assert_pairs_factor(reduce_poly(f, p), p)) > 1
    assert small_prime_below_degree >= 500
    assert split >= 1000


def test_pairs_match_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    checked = 0
    for f, p in random_pairs(5, 400):
        fbar = reduce_poly(f, p)
        if _gcd(fbar, _derivative(fbar, p), p) != [1]:
            continue
        _, factors = sympy.Poly(list(reversed(f.coeffs)), z, modulus=p).factor_list()
        assert all(mult == 1 for _, mult in factors)
        by_degree: dict[int, list[int]] = {}
        for factor, _ in factors:
            coeffs = [int(c) % p for c in reversed(factor.all_coeffs())]
            d = len(coeffs) - 1
            by_degree[d] = _mul(by_degree.get(d, [1]), coeffs, p)
        assert _distinct_degree_factors(fbar, p) == sorted(by_degree.items()), (f.coeffs, p)
        assert ddf_signature(f, p) == tuple(sorted(factor.degree() for factor, _ in factors))
        checked += 1
    assert checked >= 200
