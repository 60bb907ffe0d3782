import itertools

import pytest

from algact import groupoid
from algact.actions import AlgebraicAction
from algact.groupoid import level_map, translation_orbit_size, verify_word_identity
from algact.lattices import Lattice, preimage, quotient
from algact.matrices import Matrix
from algact.polynomials import Poly
from algact.presets import EXAMPLE_ACTIONS, doubling

from conftest import block_diagonal, random_nonsingular
from test_level_reference import reference_translation_orbit


# -- level maps ----------------------------------------------------------------


def test_level_map_doubling_mod4():
    lm = level_map(Matrix([[2]]), quotient(Lattice(Matrix([[4]]))))
    assert lm.table == {(0,): (0,), (1,): (2,)}
    assert lm.image_index == 2


def test_level_map_identity_word():
    lm = level_map(Matrix.identity(1), quotient(Lattice(Matrix([[4]]))))
    assert all(src == dst for src, dst in lm.table.items())
    assert lm.image_index == 1


def test_level_map_tripling_mod4_bijective():
    lm = level_map(Matrix([[3]]), quotient(Lattice(Matrix([[4]]))))
    assert sorted(lm.table) == [(0,), (1,), (2,), (3,)]
    assert sorted(lm.table.values()) == [(0,), (1,), (2,), (3,)]
    assert lm.image_index == 1


def test_level_map_rejects_group_words():
    # a negative power of the doubling is the non-integer matrix (1/2)
    target = quotient(Lattice(Matrix([[4]])))
    with pytest.raises(ValueError, match="integer matrix required"):
        level_map(Matrix([[2]]).inverse(), target)
    with pytest.raises(ValueError, match="does not act"):
        level_map(Matrix.identity(2), target)


def level_actions_for_groupoid_axiom(rng):
    yield doubling(), Lattice(Matrix([[8]]))
    yield AlgebraicAction(1, [("s", Matrix([[2]])), ("t", Matrix([[3]]))]), Lattice(Matrix([[12]]))
    yield AlgebraicAction(2, [("s", Matrix([[0, 1], [2, 0]]))]), Lattice.from_generators(
        2, [(4, 0), (0, 4)]
    )


def test_level_map_composition_is_functorial(rng):
    # level_map(s, C) after level_map(t, s^{-1}C) equals level_map(st, C)
    for action, level in level_actions_for_groupoid_axiom(rng):
        for i, j in itertools.product(range(len(action.gens)), repeat=2):
            ms, mt = action.matrices[i], action.matrices[j]
            outer = level_map(ms, quotient(level))
            inner = level_map(mt, quotient(preimage(ms, level)))
            combined = level_map(ms * mt, quotient(level))
            for rep, image in combined.table.items():
                assert outer.table[inner.table[rep]] == image


def test_level_map_injective_and_index_identity(rng):
    for action, level in level_actions_for_groupoid_axiom(rng):
        for i in range(len(action.gens)):
            lm = level_map(action.matrices[i], quotient(level))
            values = list(lm.table.values())
            assert len(values) == len(set(values))
            assert len(values) * lm.image_index == level.index()


# -- translation orbits -----------------------------------------------------------


def test_orbit_known_cases():
    assert reference_translation_orbit(Lattice(Matrix([[4]])), (1,)) == {(0,), (1,), (2,), (3,)}
    assert translation_orbit_size(Lattice(Matrix([[4]]))) == 4

    lat = Lattice.from_generators(2, [(1, 1), (0, 2)])
    assert len(reference_translation_orbit(lat, (0, 0))) == 2
    assert translation_orbit_size(lat) == 2


def test_orbit_covers_random_levels(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        diag = [rng.randint(1, 4) for _ in range(n)]
        lat = Lattice(block_diagonal(*(Matrix([[d]]) for d in diag)))
        start = tuple(rng.randint(-5, 5) for _ in range(n))
        assert len(reference_translation_orbit(lat, start)) == translation_orbit_size(lat) == lat.index()


# -- word identities ----------------------------------------------------------------


def test_word_identity_doubling():
    rep = verify_word_identity("s", Matrix([[2]]))
    assert rep.degree == 1 and rep.kappas == (2, 1)
    assert rep.all_hold


def test_word_identity_fibonacci():
    fib = EXAMPLE_ACTIONS["fibonacci"]()
    rep = verify_word_identity("s", fib.matrices[0])
    assert rep.kappas == (1, 1, 1) and rep.samples_checked == 3
    assert rep.all_hold


def test_word_identity_epsilon_matches_det(rng):
    # kappa_d * det(I - M) = epsilon, computed independently on both sides
    for _ in range(25):
        n = rng.randint(1, 3)
        m = random_nonsingular(rng, n, 4)
        rep = verify_word_identity("s", m)
        assert rep.all_hold
        assert rep.epsilon == (Matrix.identity(n) - m).det() * rep.kappas[-1]


def test_word_identity_all_shipped_examples():
    for name, factory in EXAMPLE_ACTIONS.items():
        action = factory()
        for gen, mat in action.gens:
            rep = verify_word_identity(gen, mat)
            assert rep.all_hold and rep.word == gen, (name, gen)


def test_word_identity_composite_word():
    rep = verify_word_identity("s t", Matrix([[2]]) * Matrix([[3]]))
    assert rep.kappas == (6, 1)  # word matrix is x6
    assert rep.all_hold


def test_word_identity_reports_a_failing_sample(monkeypatch):
    # a wrong characteristic polynomial stands in for an arithmetic bug
    monkeypatch.setattr(groupoid, "charpoly", lambda mat: Poly((-3, 1)))
    rep = verify_word_identity("s", Matrix([[2]]))
    assert rep.witness == (1,)
    assert not rep.module_identity_holds and not rep.semidirect_identity_holds


def test_word_identity_rejects_non_integer_matrices():
    with pytest.raises(ValueError, match="square integer matrix"):
        verify_word_identity("s^-1", Matrix([[2]]).inverse())
    with pytest.raises(ValueError, match="square integer matrix"):
        verify_word_identity("s", Matrix([[1, 2]]))
