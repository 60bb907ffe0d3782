"""Differential test: the shared word walk behind `check_standing` and
`check_condition_F` against the two enumerations it replaced, kept here as
the reference.

The reference finds a multiplicative relation by rebuilding prod M_i^{e_i}
from fresh powers for every exponent vector, and checks condition F by
evaluating every group word from scratch with `Word.evaluate`.
"""

import itertools
import random

import pytest

from algact.actions import (
    FREE,
    FREE_ABELIAN,
    AlgebraicAction,
    ConditionFReport,
    StandingReport,
    Word,
    check_condition_F,
    check_standing,
    has_root_of_unity_eigenvalue,
)
from algact.matrices import Matrix
from algact.presets import EXAMPLE_ACTIONS

from conftest import random_nonsingular

BOUNDS = (0, 1, 3, 6)


def reference_standing(action, word_bound):
    dets = {name: mat.det() for name, mat in action.gens}
    fi = all(d != 0 for d in dets.values())
    non_auto = any(abs(d) > 1 for d in dets.values())
    mats = action.matrices
    faithful = len(set(mats)) == len(mats)
    note = "pairwise distinct generator matrices"
    commuting = all(a * b == b * a for a, b in itertools.combinations(mats, 2))
    if action.monoid_kind == FREE_ABELIAN and faithful:
        witness = reference_dependent_exponent_vector(mats, word_bound)
        if witness is not None:
            faithful = False
            note = f"multiplicative relation at exponents {witness}"
        else:
            note = f"multiplicatively independent up to word length {word_bound}"
    if action.monoid_kind == FREE_ABELIAN:
        pc = True
        jf = "holds automatically: Ore monoid acting on a torsion-free group"
    else:
        pc = None
        jf = "assumed (automatic only for Ore monoids)"
    return StandingReport(fi, non_auto, faithful, note, commuting, pc, jf, dets)


def reference_dependent_exponent_vector(mats, bound):
    ident = Matrix.identity(mats[0].rows)
    for total in range(1, bound + 1):
        for vec in reference_signed_vectors(len(mats), total):
            out = ident
            for m, e in zip(mats, vec):
                if e:
                    out = out * (m ** e)
            if out == ident:
                return vec
    return None


def reference_signed_vectors(num, total):
    for split in itertools.product(range(total + 1), repeat=num):
        if sum(split) != total:
            continue
        nonzero = [i for i, e in enumerate(split) if e]
        if not nonzero:
            continue
        for signs in itertools.product((1, -1), repeat=len(nonzero) - 1):
            vec = list(split)
            for i, s in zip(nonzero[1:], signs):
                vec[i] *= s
            yield tuple(vec)


def reference_condition_F(action, word_bound):
    ident = Matrix.identity(action.n)
    failing = None
    checked = 0
    for word in reference_group_words(action, word_bound):
        mat = word.evaluate(action, allow_inverses=True)
        checked += 1
        if (ident - mat).det() == 0:
            failing = word.describe(action)
            break
    equivalence = None
    if len(action.gens) == 1:
        rou, k = has_root_of_unity_eigenvalue(action.matrices[0])
        equivalence = {
            "no_root_of_unity_eigenvalue": not rou,
            "holds_at_every_power": not rou,
            "witness_order": k,
        }
    return ConditionFReport(failing is None, word_bound, failing, checked, equivalence)


def reference_group_words(action, bound):
    num = len(action.gens)
    if action.monoid_kind == FREE_ABELIAN:
        for total in range(1, bound + 1):
            for vec in reference_signed_vectors(num, total):
                yield Word.from_exponents(vec)
                neg = tuple(-e for e in vec)
                if neg != vec:
                    yield Word.from_exponents(neg)
    else:
        letters = [(i, 1) for i in range(num)] + [(i, -1) for i in range(num)]

        def extend(word, length):
            if word:
                yield Word.from_pairs(word)
            if length == bound:
                return
            for i, s in letters:
                if word and word[-1][0] == i and word[-1][1] * s < 0:
                    continue
                yield from extend(word + [(i, s)], length + 1)

        yield from extend([], 0)


def _abelian(*mats):
    return AlgebraicAction(mats[0].rows, [(f"g{i}", m) for i, m in enumerate(mats)], FREE_ABELIAN)


def _free(*mats):
    return AlgebraicAction(mats[0].rows, [(f"g{i}", m) for i, m in enumerate(mats)], FREE)


ROTATION = Matrix([[0, -1], [1, 0]])
SHEAR = Matrix([[1, 1], [0, 1]])


def _fixed_actions():
    d = Matrix.diagonal
    return {
        "diag22-diag44": _abelian(d([2, 2]), d([4, 4])),
        "diag-sign-pair": _abelian(d([-1, 1]), d([1, -1])),
        "diag-sign-triple": _abelian(d([-1, 1]), d([1, -1]), d([2, 2])),
        "diag2-diag3-diag6": _abelian(d([2]), d([3]), d([6])),
        "diag21-diag12": _abelian(d([2, 1]), d([1, 2])),
        "rotation": _abelian(ROTATION),
        "rotation-doubling": _abelian(ROTATION, d([2, 2])),
        "minus-one": _abelian(d([-1])),
        "shear-powers": _abelian(SHEAR, SHEAR * SHEAR),
        "free-doubling": _free(d([2])),
        "free-rotation": _free(ROTATION),
        "free-diag21-shear13": _free(d([2, 1]), Matrix([[1, 1], [0, 3]])),
        "free-rotation-shear": _free(ROTATION, SHEAR),
    }


def _random_commuting(rng, n, k):
    """k commuting nonsingular matrices: polynomials a + b*B + c*B^2 in one
    random B, or small diagonal matrices."""
    if rng.random() < 0.3:
        entries = (-2, -1, 1, 2, 3)
        return [Matrix.diagonal([rng.choice(entries) for _ in range(n)]) for _ in range(k)]
    base = random_nonsingular(rng, n, 2)
    square = base * base
    ident = Matrix.identity(n)
    out = []
    while len(out) < k:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        m = ident * a + base * b + square * c
        if m.det() != 0:
            out.append(m)
    return out


def _random_actions():
    rng = random.Random(20261018)
    out = {}
    for t in range(12):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        out[f"random-abelian-{t}"] = _abelian(*_random_commuting(rng, n, k))
    for t in range(4):
        k = rng.randint(1, 2)
        out[f"random-free-{t}"] = _free(*(random_nonsingular(rng, 2, 2) for _ in range(k)))
    return out


def _actions():
    out = [pytest.param(factory(), id=name) for name, factory in EXAMPLE_ACTIONS.items()]
    out += [pytest.param(action, id=name) for name, action in _fixed_actions().items()]
    out += [pytest.param(action, id=name) for name, action in _random_actions().items()]
    return out


@pytest.mark.parametrize("action", _actions())
def test_word_walk_matches_reference(action):
    for bound in BOUNDS:
        assert check_standing(action, bound) == reference_standing(action, bound), bound
        assert check_condition_F(action, bound) == reference_condition_F(action, bound), bound


def test_reference_cases_cover_relations_and_failures():
    actions = [param.values[0] for param in _actions()]
    standing = [reference_standing(a, 6) for a in actions if a.monoid_kind == FREE_ABELIAN]
    assert sum(not rep.faithful_on_generators for rep in standing) >= 10
    assert sum(not reference_condition_F(a, 6).holds_up_to_bound for a in actions) >= 15
    note = reference_standing(_fixed_actions()["diag22-diag44"], 6).faithful_note
    assert note == "multiplicative relation at exponents (2, -1)"


@pytest.mark.parametrize(
    "action",
    [
        pytest.param(EXAMPLE_ACTIONS["doubling_tripling"](), id="doubling_tripling"),
        pytest.param(_fixed_actions()["diag2-diag3-diag6"], id="diag2-diag3-diag6"),
        pytest.param(_fixed_actions()["free-doubling"], id="free-doubling"),
    ],
)
def test_each_walk_inverts_each_generator_at_most_once(action, monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    check_condition_F(action, 6)
    assert len(calls) <= len(action.gens)
    calls.clear()
    check_standing(action, 6)
    assert len(calls) <= len(action.gens)
