import itertools
from math import gcd

import pytest

from algact import cli
from algact.actions import (
    FREE,
    FREE_ABELIAN,
    AlgebraicAction,
    _describe,
    _word_matrices,
    check_condition_F,
    check_SF_via_det,
    check_standing,
    constructible_family,
    exactness,
)
from algact.lattices import Lattice, image, intersect, preimage
from algact.matrices import Matrix, charpoly
from algact.polynomials import cyclotomic_split
from algact.presets import EXAMPLE_ACTIONS, doubling, doubling_tripling, fibonacci

from conftest import random_nonsingular


def scalar_action(*values, kind=FREE_ABELIAN):
    gens = [(chr(ord("a") + i), Matrix([[v]])) for i, v in enumerate(values)]
    return AlgebraicAction(1, gens, kind)


# -- construction ---------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        AlgebraicAction(1, [("s", Matrix([[0]]))])
    with pytest.raises(ValueError):
        AlgebraicAction(1, [("s", Matrix([[2]])), ("s", Matrix([[3]]))])
    with pytest.raises(ValueError):
        # non-commuting generators cannot define a free-abelian action
        AlgebraicAction(
            2,
            [("a", Matrix([[1, 1], [0, 1]])), ("b", Matrix([[1, 0], [1, 1]]))],
            FREE_ABELIAN,
        )
    # the same pair is fine as a free monoid
    AlgebraicAction(
        2, [("a", Matrix([[1, 1], [0, 1]])), ("b", Matrix([[1, 0], [1, 1]]))], FREE
    )


# -- standing report --------------------------------------------------------------


def test_standing_known_cases():
    rep = check_standing(doubling())
    assert rep.fi_holds and rep.non_automorphic and rep.faithful_on_generators

    minus_i = AlgebraicAction(2, [("s", Matrix([[-1, 0], [0, -1]]))])
    rep2 = check_standing(minus_i)
    assert rep2.fi_holds and not rep2.non_automorphic

    dup = AlgebraicAction(1, [("a", Matrix([[2]])), ("b", Matrix([[2]]))])
    rep3 = check_standing(dup)
    assert not rep3.faithful_on_generators
    assert rep3.faithful_note == "generators 'a' and 'b' have the same matrix"
    rep4 = check_standing(AlgebraicAction(1, dup.gens, FREE))
    assert rep4.faithful_note == rep3.faithful_note


def test_standing_multiplicative_dependence():
    # 2 and 4 are multiplicatively dependent: 2^2 = 4
    rep = check_standing(scalar_action(2, 4))
    assert not rep.faithful_on_generators
    rep2 = check_standing(scalar_action(2, 3))
    assert rep2.faithful_on_generators


# -- constructible family ----------------------------------------------------------


def test_family_doubling_depth3():
    fam = constructible_family(doubling(), 3)
    assert {lat.index() for lat in fam.lattices} == {1, 2, 4, 8}
    assert not fam.saturated


def test_family_trivial_monoid():
    triv = AlgebraicAction(2, [("e", Matrix.identity(2))])
    fam = constructible_family(triv, 3)
    assert fam.lattices == (Lattice.standard(2),)
    assert fam.saturated


def test_family_negative_depth():
    with pytest.raises(ValueError):
        constructible_family(doubling(), -1)


def test_family_scalar_pair_against_divisor_oracle():
    # Independent 1-d model: image d -> m*d, preimage d -> d/gcd(d, m),
    # meet (d, d') -> lcm, starting from 1.
    def divisor_closure(ms, depth):
        current = {1}
        for _ in range(depth):
            new = set(current)
            for d in current:
                for m in ms:
                    new.add(m * d)
                    new.add(d // gcd(d, m))
            for a in current:
                for b in current:
                    new.add(a * b // gcd(a, b))
            if new == current:
                break
            current = new
        return current

    for ms in [(2,), (6, 10), (4, 6), (2, 3), (30,)]:
        for depth in (1, 2, 3):
            action = scalar_action(*ms)
            fam = constructible_family(action, depth)
            got = {lat.index() for lat in fam.lattices}
            assert got == divisor_closure(ms, depth), (ms, depth)


def test_family_six_ten_contains_hand_values():
    fam = constructible_family(scalar_action(6, 10), 2)
    indices = {lat.index() for lat in fam.lattices}
    # sigma_6^{-1}(10Z) = 5Z and sigma_10^{-1}(6Z) = 3Z; 6Z cap 10Z = 30Z
    assert {1, 3, 5, 6, 10, 30} <= indices


def test_family_monotone_and_members_pass_fi(rng):
    action = AlgebraicAction(2, [("s", Matrix([[0, 1], [2, 0]]))])
    prev = set()
    for depth in range(4):
        fam = constructible_family(action, depth)
        current = set(fam.lattices)
        assert prev <= current
        prev = current
        for lat in current:
            assert lat.index() >= 1


def test_family_replay_derivations():
    # Each recorded step rebuilds its member from members, so every member
    # derives from the ambient lattice.
    for action, depth in [(scalar_action(6, 10), 2), *((factory(), 5) for factory in EXAMPLE_ACTIONS.values())]:
        fam = constructible_family(action, depth)
        mats = dict(action.gens)
        for lat, (kind, *rest) in fam.derivations.items():
            if kind == "ambient":
                assert lat == Lattice.standard(action.n)
            elif kind == "intersect":
                assert all(parent in fam for parent in rest) and intersect(*rest) == lat
            else:
                name, parent = rest
                step = {"image": image, "preimage": preimage}[kind]
                assert parent in fam and step(mats[name], parent) == lat


def test_family_inclusion_divisibility():
    fam = constructible_family(doubling_tripling(), 2)
    for a, b in itertools.permutations(fam.lattices, 2):
        if intersect(a, b) == a:
            # a inside b: index(b) divides index(a)
            assert a.index() % b.index() == 0


def test_index_set_scalar_matrix():
    a = AlgebraicAction(2, [("p", Matrix([[3, 0], [0, 3]]))])
    assert cli.analyze_action(a, 1, 1)["family"]["index_set"] == [1, 9]


# -- eigenvalue and word checkers -----------------------------------------------------


def test_root_of_unity_known_cases():
    assert cyclotomic_split(charpoly(Matrix([[0, -1], [1, 0]]))).least_order == 4
    assert cyclotomic_split(charpoly(Matrix([[0, 1], [1, 1]]))).least_order is None
    assert cyclotomic_split(charpoly(Matrix([[1, 1], [0, 1]]))).least_order == 1


def test_condition_f_known_cases():
    assert check_condition_F(doubling()).holds_up_to_bound

    rot = AlgebraicAction(2, [("r", Matrix([[0, -1], [1, 0]]))])
    rep = check_condition_F(rot, word_bound=6)
    assert not rep.holds_up_to_bound
    assert rep.failing_word == "r^4"

    fib = fibonacci()
    rep2 = check_condition_F(fib, word_bound=6)
    assert rep2.holds_up_to_bound
    assert rep2.single_generator_equivalence["no_root_of_unity_eigenvalue"]


def test_condition_f_agrees_with_eigenvalue_test(rng):
    # For a single 3x3 generator, powers <= 6 see every possible root of
    # unity (phi(k) <= 3 forces k in {1,2,3,4,6}).
    for _ in range(100):
        m = random_nonsingular(rng, 3, 3)
        action = AlgebraicAction(3, [("s", m)])
        rou = cyclotomic_split(charpoly(m)).least_order is not None
        rep = check_condition_F(action, word_bound=6)
        assert rep.holds_up_to_bound == (not rou)


def test_free_monoid_words_checked():
    free = AlgebraicAction(
        2, [("a", Matrix([[1, 1], [0, 1]])), ("b", Matrix([[1, 0], [1, 1]]))], FREE
    )
    rep = check_condition_F(free, word_bound=2)
    assert not rep.holds_up_to_bound  # id - shear is singular
    assert rep.failing_word in ("a", "b")


# -- determinant injectivity ------------------------------------------------------------


def test_sf_known_cases():
    assert check_SF_via_det(scalar_action(2, 3)).status == "holds"

    rep = check_SF_via_det(scalar_action(2, 4))
    assert rep.status == "fails"
    k = rep.witness_exponents
    assert k is not None and 2 ** k[0] * 4 ** k[1] == 1

    assert check_SF_via_det(scalar_action(6, 10, 15)).status == "holds"


def test_sf_large_prime_determinant():
    # 1000000000039 is a prime above the default trial-division bound squared
    assert check_SF_via_det(scalar_action(2 * 1000000000039, 3)).status == "holds"
    rep = check_SF_via_det(scalar_action(1000003 * 1000033, 3))
    assert rep.status == "inconclusive"


def test_sf_sign_handling():
    rep = check_SF_via_det(scalar_action(2, -2))
    assert rep.status == "fails"
    k = rep.witness_exponents
    assert 2 ** k[0] * (-2) ** k[1] == 1


def test_sf_unit_determinants():
    rep = check_SF_via_det(AlgebraicAction(2, [("s", Matrix([[2, 1], [1, 1]]))]))
    assert rep.status == "fails"


def test_sf_requires_abelian():
    free = AlgebraicAction(1, [("s", Matrix([[2]]))], FREE)
    with pytest.raises(ValueError):
        check_SF_via_det(free)


def test_sf_witness_is_genuine(rng):
    import random
    from fractions import Fraction

    local = random.Random(5)
    for _ in range(40):
        vals = [local.choice([-6, -4, -3, -2, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(local.randint(1, 3))]
        rep = check_SF_via_det(scalar_action(*vals))
        if rep.status == "fails":
            prod = Fraction(1)
            for v, e in zip(vals, rep.witness_exponents):
                prod *= Fraction(v) ** e
            assert prod == 1
            assert any(rep.witness_exponents)


# -- exactness ---------------------------------------------------------------------


def test_exactness_doubling():
    rep = exactness(constructible_family(doubling(), 4))
    assert rep.verdict == "exact"
    assert rep.empirical_indices == [1, 2, 4, 8, 16]
    assert rep.strictly_increasing
    assert rep.basis.startswith("unit-factor rule for injective integer matrices")
    assert "label" not in rep.criterion


def test_exactness_diag21():
    action = AlgebraicAction(2, [("s", Matrix([[2, 0], [0, 1]]))])
    rep = exactness(constructible_family(action, 4))
    assert rep.verdict == "not_exact" and rep.decided
    assert rep.criterion["cyclotomic_divisor"] == 1


def test_exactness_unimodular():
    rep = exactness(constructible_family(fibonacci(), 3))
    assert rep.verdict == "not_exact" and rep.decided
    assert rep.family_saturated


def test_exactness_multi_generator_reports_only():
    rep = exactness(constructible_family(doubling_tripling(), 3))
    assert rep.verdict in ("undecided", "not_exact")
    assert rep.empirical_indices[0] == 1


# -- words --------------------------------------------------------------------------


def test_word_evaluation():
    # every word the walk yields is den^-1 num, with num = den * (the product
    # of its letters' powers): num and den are integral power products for a
    # free-abelian action, and den is the identity for a free one
    diag = Matrix([[2, 0], [0, 1]]), Matrix([[1, 0], [0, 3]]), Matrix([[-1, 0], [0, 5]])
    actions = (
        doubling_tripling(),
        AlgebraicAction(2, list(zip("abc", diag))),
        scalar_action(2, 3, kind=FREE),
    )
    for action in actions:
        ident = Matrix.identity(action.n)
        for pairs, num, den in _word_matrices(action, 3):
            expected = ident
            for i, e in pairs:
                expected = expected * action.matrices[i] ** e
            assert num == den * expected and all(e for _, e in pairs)
            if action.monoid_kind == FREE_ABELIAN:
                assert num.is_integral() and den.is_integral()
            else:
                assert den == ident
    mixed = {pairs for pairs, _, _ in _word_matrices(actions[1], 3)}
    assert ((0, 1), (1, -1), (2, 1)) in mixed and ((0, -1), (1, 1), (2, -1)) in mixed
    assert _describe(((0, 2), (1, 1)), ("s", "t")) == "s^2 t"
    assert _describe(((1, -1), (0, 1)), ("s", "t")) == "t^-1 s"
