"""Differential test: level maps and translation orbits against the point-by-point
enumerations they replaced, kept here as the reference.

The reference level map reduces M x for every canonical representative x of
the source and checks injectivity with a set of the images seen.  The
reference orbit is a breadth-first search over Z^n / C along the standard
basis translations.
"""

import itertools

import pytest

from algact.actions import FREE, FREE_ABELIAN, AlgebraicAction, constructible_family
from algact.groupoid import level_map, translation_orbit_size
from algact.lattices import Lattice, preimage, quotient
from algact.matrices import Matrix

from conftest import random_nonsingular

MAX_INDEX = 3000


def reference_translation_orbit(level, start):
    """Orbit of a coset under the standard-basis translations, by search."""
    q = quotient(level)
    translations = [tuple(1 if j == i else 0 for j in range(level.n)) for i in range(level.n)]
    start = q.from_cyclic(q.to_cyclic(start))
    seen = {start}
    frontier = [start]
    while frontier:
        point = frontier.pop()
        for t in translations:
            nxt = q.from_cyclic(q.to_cyclic(tuple(a + b for a, b in zip(point, t))))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_level_table(mat, level):
    """x + s^{-1}C -> s.x + C on canonical representatives, one point at a time."""
    source = quotient(preimage(mat, level))
    target = quotient(level)
    table = {}
    seen = set()
    for coords in itertools.product(*(range(d) for d in source.factors)):
        rep = source.from_cyclic(coords)
        out = target.from_cyclic(target.to_cyclic(mat.apply(rep)))
        if out in seen:
            raise ArithmeticError("level map failed to be injective")
        seen.add(out)
        table[tuple(rep)] = out
    return table


def assert_matches_reference(mat, level):
    lm = level_map(mat, quotient(level))
    # Same pairs in the same (cyclic-coordinate) order.
    assert list(lm.table.items()) == list(reference_level_table(mat, level).items())
    return lm


def random_action(rng, n, kind, gens):
    m = random_nonsingular(rng, n, 3)
    mats = [m]
    if gens == 2 and kind == FREE:
        mats.append(random_nonsingular(rng, n, 3))
    elif gens == 2:
        # a m + b I commutes with m
        while len(mats) < 2:
            a, b = rng.choice((-1, 1, 2)), rng.randint(-2, 2)
            other = m * a + Matrix.identity(n) * b
            if other.det() != 0:
                mats.append(other)
    return AlgebraicAction(n, list(zip("st", mats)), kind)


def word_matrices(action):
    """The matrices of the empty word, of each generator, and of the word
    (last generator)(first generator)."""
    yield Matrix.identity(action.n)
    yield from action.matrices
    yield action.matrices[-1] * action.matrices[0]


def sample_levels(rng, action):
    """The two largest levels of the depth-2 family up to MAX_INDEX, and one more."""
    levels = sorted(
        (lat for lat in constructible_family(action, 2).lattices if lat.index() <= MAX_INDEX),
        key=Lattice.index,
    )
    return levels[-2:] + rng.sample(levels[:-2], min(1, len(levels[:-2])))


def nontrivial_factors(level):
    return sum(d > 1 for d in quotient(level).factors)


@pytest.mark.parametrize("kind", [FREE, FREE_ABELIAN])
def test_random_level_maps_match_reference(rng, kind):
    shapes = set()
    for n, gens in itertools.product((1, 2, 3), (1, 2)):
        for _ in range(3):
            action = random_action(rng, n, kind, gens)
            for level in sample_levels(rng, action):
                for mat in word_matrices(action):
                    lm = assert_matches_reference(mat, level)
                    shapes.add(nontrivial_factors(lm.source.lattice))
                    shapes.add(nontrivial_factors(level))
    assert {1, 2} <= shapes


@pytest.mark.parametrize(
    "matrix,level",
    [
        # Z^2/C = Z/4 x Z/16, source Z/2 x Z/4
        (Matrix([[2, 0], [0, 4]]), Lattice(Matrix([[4, 0], [0, 16]]))),
        # rank 3, factors (2, 2, 2): the companion of z^3-2
        (Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]]), Lattice(Matrix.identity(3) * 2)),
        # three nontrivial factors on both sides, with a shear
        (Matrix([[3, 1, 0], [0, 3, 0], [0, 0, 1]]), Lattice(Matrix([[2, 0, 0], [0, 6, 0], [0, 0, 12]]))),
        # source and target of index 2048 in rank 2, like the benchmark's levels
        (Matrix([[1, -1], [1, 1]]), Lattice.from_generators(2, [(32, 32), (-32, 32)])),
    ],
)
def test_multi_factor_level_maps_match_reference(matrix, level):
    for mat in (Matrix.identity(matrix.rows), matrix, matrix * matrix):
        assert_matches_reference(mat, level)
    assert nontrivial_factors(level) >= 2


@pytest.mark.parametrize("kind", [FREE, FREE_ABELIAN])
def test_three_factor_levels_match_reference(rng, kind):
    # Diagonal levels d_1 | d_2 | d_3 with d_1 > 1 on random rank-3 actions.
    for _ in range(4):
        action = random_action(rng, 3, kind, 2)
        d1 = rng.choice((2, 3))
        d2, d3 = d1 * rng.choice((1, 2)), d1 * rng.choice((2, 4))
        level = Lattice(Matrix([[d1, 0, 0], [0, d2, 0], [0, 0, d3]]))
        for mat in word_matrices(action):
            assert_matches_reference(mat, level)
        assert nontrivial_factors(level) == 3


def test_orbit_size_matches_reference(rng):
    for n in (1, 2, 3):
        action = random_action(rng, n, FREE, 2)
        for level in constructible_family(action, 2).lattices:
            if level.index() > MAX_INDEX:
                continue
            start = tuple(rng.randint(-9, 9) for _ in range(n))
            assert len(reference_translation_orbit(level, start)) == translation_orbit_size(level)
