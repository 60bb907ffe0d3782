"""Differential test: `orders.regular_shift`, read off the characteristic
polynomial, against the search it replaced, kept here as the reference.

The reference tries kappa = 1, 2, ... and tests whether a + kappa*1 has a
nonzero norm, up to the cap 2 + max |chi_i| on the integer eigenvalues.
"""

import random

import pytest

from algact.matrices import charpoly
from algact.orders import RING_PRESETS, act_matrix, norm, regular_shift, ring_preset


def reference_regular_shift(ring, a):
    chi = charpoly(act_matrix(ring, a))
    cap = 2 + max(abs(chi[i]) for i in range(chi.degree + 1))
    for kappa in range(1, cap + 1):
        shifted = tuple(x + kappa * o for x, o in zip(a, ring.one))
        if norm(ring, shifted) != 0:
            return kappa
    raise ArithmeticError("regular shift exceeded the eigenvalue bound")


@pytest.mark.parametrize("name", sorted(RING_PRESETS))
def test_regular_shift_matches_reference(name):
    ring = ring_preset(name)
    rng = random.Random(f"regular-shift-{name}")
    # -1 has the single eigenvalue -1, so its shift is 2
    samples = [tuple(-o for o in ring.one)]
    samples += [tuple(rng.randint(-6, 6) for _ in range(ring.n)) for _ in range(300)]
    shifts = set()
    for a in samples:
        kappa = regular_shift(ring, a)
        assert kappa == reference_regular_shift(ring, a), a
        shifts.add(kappa)
    assert {1, 2} <= shifts
