from itertools import islice
from math import isqrt

from algact.arith import _MR_LIMIT, divisors, is_prime, iter_primes, prime_factors

BOUND = 10**6


def test_proven_prime_leftover_is_counted():
    p = 1000000000039
    assert p > BOUND * BOUND and is_prime(p)
    assert prime_factors(2 * p, bound=BOUND) == ({2: 1, p: 1}, 1)


def test_prime_leftover_above_proof_limit_is_left():
    p = 2**89 - 1  # a Mersenne prime above the Miller-Rabin proof limit
    assert p > _MR_LIMIT
    assert prime_factors(2 * p, bound=BOUND) == ({2: 1}, p)


def test_composite_leftover_is_left():
    n = 1000003 * 1000033
    assert prime_factors(n, bound=BOUND) == ({}, n)
    assert prime_factors(3 * n) == ({3: 1, 1000003: 1, 1000033: 1}, 1)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert prime_factors(n, bound=BOUND) == ({}, n)


def test_is_prime_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(2000) if is_prime(n)] == [n for n in range(2000) if slow(n)]


def test_iter_primes_against_is_prime():
    # bounds on and around the segment ends 2^k and squares of primes
    for bound in [*range(60), 127, 128, 129, 168, 169, 170, 1024, 10007]:
        assert list(iter_primes(bound)) == [n for n in range(bound + 1) if is_prime(n)], bound


def test_iter_primes_is_lazy():
    assert list(islice(iter_primes(10**18), 5)) == [2, 3, 5, 7, 11]


def test_divisors_against_trial_division():
    def reference(n):
        small, large = [], []
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                small.append(d)
                if d != n // d:
                    large.append(n // d)
        return small + large[::-1]

    for n in range(1, 3000):
        assert divisors(n) == divisors(-n) == reference(n), n
    assert len(divisors(10**20)) == 21 * 21
