import random

import pytest

from algact.actions import FREE_ABELIAN
from algact.matrices import Matrix
from algact.orders import (
    StructureRing,
    action_from_ring,
    act_matrix,
    has_scalar_generator,
    norm,
    regular_shift,
    ring_preset,
    validate,
)
from algact.polyring import MPoly, buchberger, parse_poly, quotient_algebra


# -- validation -----------------------------------------------------------------


def test_validate_known_cases():
    assert validate(ring_preset("Z")).valid
    assert validate(ring_preset("Zi")).valid

    # i*i = 1 with i*1 = 0 breaks the unit law
    broken = StructureRing(2, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], (1, 0))
    rep = validate(broken)
    assert not rep.valid
    assert rep.failures


def test_validate_all_presets():
    for name in ("Z", "Zi", "Zsqrt2", "M2Z", "ZC2"):
        assert validate(ring_preset(name)).valid, name


def test_nonassociative_rejected():
    # e1*e1 = e1 with weird mixed products fails associativity
    c = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    ring = StructureRing(2, c, (1, 0))
    rep = validate(ring)
    if not rep.valid:
        with pytest.raises(ValueError):
            act_matrix(ring, (1, 0))


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        StructureRing(2, [[[1]]], (1, 0))
    with pytest.raises(ValueError):
        StructureRing.from_flat(2, [0] * 7, (1, 0))


# -- multiplication matrices ------------------------------------------------------


def test_act_matrix_known_cases():
    zi = ring_preset("Zi")
    assert act_matrix(zi, (1, 1)) == Matrix([[1, -1], [1, 1]])
    assert norm(zi, (1, 1)) == 2

    assert norm(zi, (0, 0)) == 0

    m2 = ring_preset("M2Z")
    assert norm(m2, (1, 0, 0, 0)) == 0  # E11 is a left zero-divisor


def test_act_matrix_is_ring_homomorphism(rng):
    local = random.Random(23)
    for name in ("Zi", "Zsqrt2", "M2Z", "ZC2"):
        ring = ring_preset(name)
        for _ in range(20):
            a = tuple(local.randint(-4, 4) for _ in range(ring.n))
            b = tuple(local.randint(-4, 4) for _ in range(ring.n))
            sa, sb = act_matrix(ring, a), act_matrix(ring, b)
            assert act_matrix(ring, ring.multiply(a, b)) == sa * sb
            total = tuple(x + y for x, y in zip(a, b))
            assert act_matrix(ring, total) == sa + sb


def test_norm_multiplicative_on_regular(rng):
    local = random.Random(29)
    for name in ("Zi", "Zsqrt2", "ZC2", "M2Z"):
        ring = ring_preset(name)
        found = 0
        while found < 10:
            a = tuple(local.randint(-3, 3) for _ in range(ring.n))
            b = tuple(local.randint(-3, 3) for _ in range(ring.n))
            if norm(ring, a) != 0 and norm(ring, b) != 0:
                found += 1
                assert norm(ring, ring.multiply(a, b)) == norm(ring, a) * norm(ring, b)


# -- regular shift ------------------------------------------------------------------


def test_regular_shift_known_cases():
    z = ring_preset("Z")
    assert regular_shift(z, (0,)) == 1
    assert regular_shift(z, (-1,)) == 2

    m2 = ring_preset("M2Z")
    assert regular_shift(m2, (1, 0, 0, 0)) == 1  # E11 + I is invertible


def test_regular_shift_always_lands_regular(rng):
    local = random.Random(31)
    for name in ("Z", "Zi", "M2Z", "ZC2"):
        ring = ring_preset(name)
        for _ in range(15):
            a = tuple(local.randint(-5, 5) for _ in range(ring.n))
            kappa = regular_shift(ring, a)
            shifted = tuple(x + kappa * o for x, o in zip(a, ring.one))
            assert norm(ring, shifted) != 0
            for smaller in range(1, kappa):
                worse = tuple(x + smaller * o for x, o in zip(a, ring.one))
                assert norm(ring, worse) == 0


# -- bridge to actions ------------------------------------------------------------------


def test_action_from_ring_known_cases():
    zi_action = action_from_ring(ring_preset("Zi"), [(1, 1)])
    assert zi_action.n == 2 and zi_action.matrices[0].det() == 2

    z_action = action_from_ring(ring_preset("Z"), [(2,), (3,)])
    assert z_action.monoid_kind == FREE_ABELIAN
    assert [m[0, 0] for m in z_action.matrices] == [2, 3]

    m2_action = action_from_ring(ring_preset("M2Z"), [(2, 0, 0, 2)])
    assert m2_action.n == 4 and m2_action.matrices[0].det() == 16


def test_action_from_ring_rejects_irregular():
    with pytest.raises(ValueError):
        action_from_ring(ring_preset("M2Z"), [(1, 0, 0, 0)])


def test_scalar_generator_detection():
    m2 = ring_preset("M2Z")
    assert has_scalar_generator(m2, [(2, 0, 0, 2)])
    assert not has_scalar_generator(m2, [(1, 1, 0, 1)])
    assert not has_scalar_generator(m2, [(1, 0, 0, 1), (0, 0, 0, 0), (3, 0, 0, 2)])


def test_scalar_generator_detection_has_no_size_bound():
    assert has_scalar_generator(ring_preset("Z"), [(65,)])
    zi = ring_preset("Zi")
    assert has_scalar_generator(zi, [(100, 0)])
    assert has_scalar_generator(zi, [(1, 1), (-70, 0)])
    assert not has_scalar_generator(zi, [(100, 1), (1, 0), (0, 0)])


def test_scalar_generator_detection_reads_a_spread_out_unit():
    # Z x Z on its idempotent basis: the unit is (1, 1).
    zz = StructureRing(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 1))
    assert validate(zz).valid
    assert has_scalar_generator(zz, [(5, 5)])
    assert has_scalar_generator(zz, [(-100, -100)])
    assert not has_scalar_generator(zz, [(1, 1), (0, 0), (5, 6), (6, 5)])
    # Z x Z on the basis b1 = (1, 0), b2 = (-2, 1): the unit is 3*b1 + b2.
    skew = StructureRing(2, [[[1, 0], [-2, 0]], [[-2, 0], [6, 1]]], (3, 1))
    assert validate(skew).valid
    assert has_scalar_generator(skew, [(6, 2)])
    assert has_scalar_generator(skew, [(-210, -70)])
    assert not has_scalar_generator(skew, [(3, 1), (7, 2), (8, 2), (6, 3)])


def test_round_trip_with_quotient_algebra():
    # Build the golden-ratio ring from its quotient algebra and check the
    # regular representation matches the multiplication matrices.
    qa = quotient_algebra(buchberger([parse_poly("u^2-u-1", ["u"])]), 1)
    n = qa.dimension
    constants = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = MPoly.monomial(1, (qa.basis[i][0] + qa.basis[j][0],))
            plane.append(list(qa.coords(prod)))
        constants.append(plane)
    one = list(qa.coords(MPoly.constant(1, 1)))
    ring = StructureRing(n, constants, one)
    assert validate(ring).valid
    u_coords = list(qa.coords(MPoly.variable(1, 0)))
    assert act_matrix(ring, u_coords) == qa.var_matrices[0]
