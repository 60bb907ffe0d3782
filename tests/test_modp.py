import random

import pytest
from hypothesis import given, strategies as st

from algact import modp
from algact.arith import is_prime
from algact.modp import RAMIFIED, ddf_signature
from algact.polynomials import Poly

PRIMES = [p for p in range(600) if is_prime(p)]


def test_signature_known_cases():
    z2p1 = Poly((1, 0, 1))
    assert ddf_signature(z2p1, 5) == (1, 1)
    assert ddf_signature(z2p1, 3) == (2,)
    assert ddf_signature(z2p1, 2) == RAMIFIED


def test_composite_prime_rejected():
    with pytest.raises(ValueError):
        ddf_signature(Poly((1, 0, 1)), 6)


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        ddf_signature(Poly((1, 2)), 5)


def count_roots(f: Poly, p: int) -> int:
    return sum(1 for x in range(p) if f(x) % p == 0)


def test_degree_one_count_matches_root_enumeration():
    # For squarefree reductions the number of degree-1 factors equals the
    # number of roots in F_p (enumerated directly: an independent oracle).
    rng = random.Random(7)
    primes = [3, 5, 7, 11, 13]
    for _ in range(60):
        deg = rng.randint(1, 5)
        f = Poly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        for p in primes:
            sig = ddf_signature(f, p)
            if sig == RAMIFIED:
                continue
            assert sig.count(1) == count_roots(f, p), (f.coeffs, p)


def test_degrees_sum_to_degree():
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13, 17]
    for _ in range(80):
        deg = rng.randint(1, 6)
        f = Poly([rng.randint(-20, 20) for _ in range(deg)] + [1])
        for p in primes:
            sig = ddf_signature(f, p)
            if sig != RAMIFIED:
                assert sum(sig) == deg


def test_irreducible_detection():
    # z^2 + 1 is irreducible mod p iff -1 is not a square mod p (p odd).
    f = Poly((1, 0, 1))
    for p in (3, 7, 11, 19, 23):
        assert ddf_signature(f, p) == (2,)
    for p in (5, 13, 17, 29):
        assert ddf_signature(f, p) == (1, 1)


def test_known_ramified():
    # disc(z^2 - 2) = 8: ramified exactly at 2
    f = Poly((-2, 0, 1))
    assert ddf_signature(f, 2) == RAMIFIED
    assert ddf_signature(f, 7) == (1, 1)  # 3^2 = 2 mod 7
    assert ddf_signature(f, 5) == (2,)


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=10),
    st.integers(-25, 25),
    st.sampled_from(PRIMES[:40]),
)
def test_signature_invariant_under_taylor_shift(lower, k, p):
    # z -> z + k is an automorphism of F_p[z], so it maps factors to factors
    # of the same degree, and squarefree to squarefree
    f = Poly([*lower, 1])
    assert ddf_signature(f(Poly((k, 1))), p) == ddf_signature(f, p)


def test_multiplication_count_per_signature(monkeypatch):
    # one p-th power per degree d <= n/2, each at most 2 * p.bit_length()
    # products; rebuilding x^(p^d) at every d would cost d times as many
    calls = 0
    real_mul = modp._mul

    def counting(a, b, p):
        nonlocal calls
        calls += 1
        return real_mul(a, b, p)

    monkeypatch.setattr(modp, "_mul", counting)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        f = Poly([rng.randint(-40, 40) for _ in range(n)] + [1])
        p = rng.choice(PRIMES)
        calls = 0
        ddf_signature(f, p)
        assert calls <= (n // 2) * 2 * p.bit_length(), (f.coeffs, p, calls)
