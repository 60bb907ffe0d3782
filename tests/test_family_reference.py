"""Differential test: the semi-naive constructible_family against the naive
closure it replaced, kept here as the reference.

The reference redoes every image, preimage and pairwise meet of the whole
family in each round, and decides saturation by replaying one more full
round.  Its total-intersection indices are the ones `exactness` reported
before it took a family.
"""

import itertools
import random

import pytest

from algact.actions import FREE, AlgebraicAction, constructible_family, exactness
from algact.lattices import Lattice, image, intersect, preimage
from algact.matrices import Matrix
from algact.presets import EXAMPLE_ACTIONS

from conftest import random_nonsingular


def reference_closure(action, depth):
    """(ordered lattices, saturated, empirical intersection indices)."""
    current = {Lattice.standard(action.n)}
    stages = [frozenset(current)]
    for _ in range(depth):
        new = set(current)
        for lat in current:
            for _, mat in action.gens:
                new.add(image(mat, lat))
                new.add(preimage(mat, lat))
        for a, b in itertools.combinations(current, 2):
            new.add(intersect(a, b))
        if new == current:
            saturated = True
            stages.append(frozenset(current))
            break
        current = new
        stages.append(frozenset(current))
    else:
        saturated = _closed_under_one_more_round(action, current)
    indices = []
    for stage in stages:
        total = None
        for lat in stage:
            total = lat if total is None else intersect(total, lat)
        indices.append(total.index())
    ordered = sorted(current, key=lambda lat: (lat.index(), lat.basis.flat()))
    return tuple(ordered), saturated, indices


def _closed_under_one_more_round(action, current):
    for lat in current:
        for _, mat in action.gens:
            if image(mat, lat) not in current or preimage(mat, lat) not in current:
                return False
    for a, b in itertools.combinations(current, 2):
        if intersect(a, b) not in current:
            return False
    return True


def _actions():
    out = [pytest.param(factory(), id=name) for name, factory in EXAMPLE_ACTIONS.items()]
    free = AlgebraicAction(2, [("s", Matrix([[2, 0], [0, 1]])), ("t", Matrix([[1, 1], [0, 3]]))], FREE)
    out.append(pytest.param(free, id="free-diag21-shear13"))
    rng = random.Random(20261017)
    for k in range(6):
        out.append(pytest.param(AlgebraicAction(2, [("s", random_nonsingular(rng, 2, 3))]), id=f"random2x2-{k}"))
    return out


@pytest.mark.parametrize("action", _actions())
def test_semi_naive_closure_matches_reference(action):
    for depth in range(6):
        family = constructible_family(action, depth)
        lattices, saturated, indices = reference_closure(action, depth)
        assert family.lattices == lattices, depth
        assert family.saturated == saturated, depth
        assert exactness(family).empirical_indices == indices, depth


def test_saturation_inside_the_loop_repeats_the_last_index():
    family = constructible_family(EXAMPLE_ACTIONS["fibonacci"](), 3)
    assert family.saturated
    assert family.rounds[-1] == ()
    assert exactness(family).empirical_indices == [1, 1]
