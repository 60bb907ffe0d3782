import itertools
import random
from fractions import Fraction

import pytest

from algact import lattices
from algact.lattices import (
    Lattice,
    image,
    intersect,
    lattice_sum,
    preimage,
    quotient,
)
from algact.matrices import Matrix, hnf

from conftest import random_nonsingular


def random_lattice(rng: random.Random, n: int, index_bound: int = 64) -> Lattice:
    """Random full-rank lattice with index <= index_bound, scrambled basis."""
    while True:
        diag = [rng.randint(1, 4) for _ in range(n)]
        prod = 1
        for d in diag:
            prod *= d
        if prod <= index_bound:
            break
    rows = [[diag[i] if j == i else (rng.randint(0, diag[i] - 1) if j > i else 0) for j in range(n)] for i in range(n)]
    # mix rows unimodularly; the lattice is unchanged
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Lattice(Matrix(rows))


# -- constructors and basic queries -------------------------------------------


def test_from_generators_known_cases():
    lat = Lattice.from_generators(2, [(2, 0), (1, 1), (3, 1)])
    assert lat.basis == Matrix([[1, 1], [0, 2]])
    assert Lattice.from_generators(1, [(6,), (10,)]).basis == Matrix([[2]])
    with pytest.raises(ValueError):
        Lattice.from_generators(2, [(1, 0)])


def test_constructors_reject_bad_input():
    bad_bases = [Matrix([[1, 2]]), Matrix([[Fraction(1, 2)]]), Matrix([[1, 1], [1, 1]])]
    for basis in bad_bases:
        with pytest.raises(ValueError):
            Lattice(basis)
    bad_generators = [[], [(1, 2, 3)], [(1, 0), (2, 0)], [(Fraction(1, 2), 0), (0, 1)]]
    for vectors in bad_generators:
        with pytest.raises(ValueError):
            Lattice.from_generators(2, vectors)


def test_from_generators_runs_hnf_once(rng, monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return hnf(m)

    monkeypatch.setattr(lattices, "hnf", counting)
    for _ in range(50):
        n = rng.randint(1, 3)
        vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(n, n + 3))]
        calls.clear()
        try:
            lat = Lattice.from_generators(n, vectors)
        except ValueError:
            continue
        assert len(calls) == 1
        # the basis kept without a second hnf is already canonical
        assert hnf(lat.basis)[0] == lat.basis == Lattice(lat.basis).basis


def test_index_known_cases():
    assert Lattice.scaled(1, 2).index() == 2
    assert Lattice.from_generators(2, [(1, 1), (0, 2)]).index() == 2
    assert Lattice.standard(3).index() == 1


def test_index_by_coset_enumeration():
    # Oracle: count distinct canonical representatives over a box.
    lat = Lattice.from_generators(2, [(1, 1), (0, 2)])
    q = quotient(lat)
    reps = {q.reduce((x, y)) for x in range(4) for y in range(4)}
    assert len(reps) == 2 == lat.index()


def test_membership():
    lat = Lattice.from_generators(2, [(1, 1), (0, 2)])
    assert lat.member((1, 1))
    assert lat.member((0, 2))
    assert not lat.member((1, 0))
    assert lat.member((0, 0))


def test_equality_is_syntactic():
    a = Lattice.from_generators(2, [(2, 0), (0, 2)])
    b = Lattice.from_generators(2, [(2, 2), (0, 2), (2, 0)])
    assert a == b
    assert hash(a) == hash(b)


# -- meet / join ----------------------------------------------------------------


def test_intersect_sum_known_cases():
    assert intersect(Lattice.scaled(1, 2), Lattice.scaled(1, 3)) == Lattice.scaled(1, 6)
    assert lattice_sum(Lattice.scaled(1, 2), Lattice.scaled(1, 3)) == Lattice.standard(1)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        intersect(Lattice.standard(1), Lattice.standard(2))


def box_points(lat: Lattice):
    """All integer points in the fundamental HNF box of a lattice."""
    ranges = [range(lat.basis[i, i]) for i in range(lat.n)]
    return itertools.product(*ranges)


def test_intersect_against_box_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        l1, l2 = random_lattice(rng, n, 16), random_lattice(rng, n, 16)
        meet = intersect(l1, l2)
        # containment: every basis vector lies in both
        for i in range(n):
            row = meet.basis.row(i)
            assert l1.member(row) and l2.member(row)
        # completeness over the fundamental box of the result
        for pt in box_points(meet):
            if l1.member(pt) and l2.member(pt):
                assert meet.member(pt)


def quotient_image_subgroup(l_small: Lattice, l_big_gens):
    """BFS the subgroup of Z^n / l_small generated by the given vectors."""
    q = quotient(l_small)
    zero = q.reduce((0,) * l_small.n)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in l_big_gens:
            nxt = q.reduce(tuple(a + b for a, b in zip(x, g)))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_sum_against_quotient_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        l1, l2 = random_lattice(rng, n, 16), random_lattice(rng, n, 16)
        join = lattice_sum(l1, l2)
        for i in range(n):
            assert join.member(l1.basis.row(i))
            assert join.member(l2.basis.row(i))
        # Oracle: index of the join = index(l2) / #(image of l1 in Z^n/l2)
        img = quotient_image_subgroup(l2, [l1.basis.row(i) for i in range(n)])
        assert join.index() * len(img) == l2.index()


def test_index_product_identity(rng):
    # index(meet) * index(join) == index(l1) * index(l2)
    for _ in range(60):
        n = rng.randint(1, 4)
        l1, l2 = random_lattice(rng, n, 10), random_lattice(rng, n, 10)
        assert (
            intersect(l1, l2).index() * lattice_sum(l1, l2).index()
            == l1.index() * l2.index()
        )


# -- image / preimage -------------------------------------------------------------


def test_image_preimage_known_cases():
    two_i = Matrix.identity(2) * 2
    assert image(two_i, Lattice.standard(2)) == Lattice.scaled(2, 2)
    assert preimage(two_i, Lattice.standard(2)) == Lattice.standard(2)

    m = Matrix.diagonal([2, 1])
    l22 = Lattice.from_generators(2, [(2, 0), (0, 2)])
    assert preimage(m, l22) == Lattice.from_generators(2, [(1, 0), (0, 2)])

    fib = Matrix([[0, 1], [1, 1]])
    assert preimage(fib, Lattice.scaled(2, 2)).index() == 4


def test_preimage_membership_equivalence(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 8)
        m = random_nonsingular(rng, n, 3)
        pre = preimage(m, lat)
        side = 2 * pre.index()
        pts = [tuple(rng.randint(-side, side) for _ in range(n)) for _ in range(40)]
        for x in pts:
            assert pre.member(x) == lat.member(m.apply(x))


def test_singular_map_rejected():
    with pytest.raises(ValueError):
        image(Matrix([[1, 1], [1, 1]]), Lattice.standard(2))
    with pytest.raises(ValueError):
        preimage(Matrix([[0]]), Lattice.standard(1))


def test_image_preimage_composition(rng):
    # image(M, preimage(M, L)) == intersect(L, image(M, Z^n))
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 8)
        m = random_nonsingular(rng, n, 3)
        lhs = image(m, preimage(m, lat))
        rhs = intersect(lat, image(m, Lattice.standard(n)))
        assert lhs == rhs


def test_image_index_multiplicative(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 8)
        m = random_nonsingular(rng, n, 3)
        assert image(m, lat).index() == abs(m.det()) * lat.index()


# -- quotients -------------------------------------------------------------------


def test_quotient_known_cases():
    q = quotient(Lattice.scaled(1, 4))
    assert q.factors == (4,)
    assert q.reduce((7,)) == (3,)

    q2 = quotient(Lattice.from_generators(2, [(1, 1), (0, 2)]))
    assert q2.factors == (1, 2)

    q3 = quotient(Lattice.standard(3))
    assert q3.factors == (1, 1, 1)
    assert q3.reduce((5, -7, 2)) == (0, 0, 0)


def test_quotient_properties(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 24)
        q = quotient(lat)
        reps = list(q.representatives())
        assert len(reps) == lat.index() == q.size()
        assert len(set(reps)) == lat.index()
        # reduce is idempotent and constant on cosets
        for _ in range(20):
            x = tuple(rng.randint(-30, 30) for _ in range(n))
            rx = q.reduce(x)
            assert q.reduce(rx) == rx
            assert lat.member(tuple(a - b for a, b in zip(x, rx)))
        # additivity modulo the lattice
        for _ in range(10):
            x = tuple(rng.randint(-15, 15) for _ in range(n))
            y = tuple(rng.randint(-15, 15) for _ in range(n))
            direct = q.reduce(tuple(a + b for a, b in zip(x, y)))
            via = q.reduce(tuple(a + b for a, b in zip(q.reduce(x), q.reduce(y))))
            assert direct == via


def test_reduce_separates_cosets(rng):
    lat = Lattice.from_generators(2, [(2, 1), (0, 3)])
    q = quotient(lat)
    for _ in range(200):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        same_coset = lat.member((x[0] - y[0], x[1] - y[1]))
        assert (q.reduce(x) == q.reduce(y)) == same_coset
