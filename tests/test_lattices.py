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
from algact.matrices import Matrix, hermite_rows, hnf

from conftest import random_nonsingular, ref_member


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


def test_each_lattice_operation_runs_one_elimination(rng, monkeypatch):
    calls = []

    def counting(rows, width):
        calls.append(width)
        return hermite_rows(rows, width)

    def count(make):
        calls.clear()
        lat = make()
        assert len(calls) == 1
        # the kept block needs no further elimination: it is canonical
        assert hnf(lat.basis)[0] == lat.basis == Lattice(lat.basis).basis
        return lat

    monkeypatch.setattr(lattices, "hermite_rows", counting)
    for _ in range(50):
        n = rng.randint(1, 3)
        vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(n, n + 3))]
        try:
            l1 = count(lambda: Lattice.from_generators(n, vectors))
        except ValueError:
            continue
        l2 = count(lambda: Lattice(random_nonsingular(rng, n, 6)))
        m = random_nonsingular(rng, n, 4)
        count(lambda: image(m, l1))
        count(lambda: intersect(l1, l2))
        count(lambda: preimage(m, l2))


def test_index_known_cases():
    assert Lattice(Matrix([[2]])).index() == 2
    assert Lattice.from_generators(2, [(1, 1), (0, 2)]).index() == 2
    assert Lattice.standard(3).index() == 1


def test_index_by_coset_enumeration():
    # Oracle: count distinct representatives over a box.
    lat = Lattice.from_generators(2, [(1, 1), (0, 2)])
    q = quotient(lat)
    reps = {q.reduce((x, y)) for x in range(4) for y in range(4)}
    assert len(reps) == 2 == lat.index()


def test_membership():
    # A vector lies in the lattice exactly when it reduces to zero.
    q = quotient(Lattice.from_generators(2, [(1, 1), (0, 2)]))
    assert q.reduce((1, 1)) == (0, 0)
    assert q.reduce((0, 2)) == (0, 0)
    assert q.reduce((1, 0)) != (0, 0)
    assert q.reduce((0, 0)) == (0, 0)


def test_equality_is_syntactic():
    a = Lattice.from_generators(2, [(2, 0), (0, 2)])
    b = Lattice.from_generators(2, [(2, 2), (0, 2), (2, 0)])
    assert a == b
    assert hash(a) == hash(b)


# -- meet / join ----------------------------------------------------------------


def test_intersect_sum_known_cases():
    two, three = Lattice(Matrix([[2]])), Lattice(Matrix([[3]]))
    assert intersect(two, three) == Lattice(Matrix([[6]]))
    assert lattice_sum(two, three) == Lattice.standard(1)


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
            assert ref_member(l1.basis, row) and ref_member(l2.basis, row)
        # completeness over the fundamental box of the result
        for pt in box_points(meet):
            if ref_member(l1.basis, pt) and ref_member(l2.basis, pt):
                assert ref_member(meet.basis, pt)


def quotient_image_subgroup(l_small: Lattice, l_big_gens):
    """BFS the subgroup of Z^n / l_small generated by the given vectors."""
    q = quotient(l_small)
    zero = (0,) * l_small.n
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
            assert ref_member(join.basis, l1.basis.row(i))
            assert ref_member(join.basis, l2.basis.row(i))
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
    assert image(two_i, Lattice.standard(2)) == Lattice(two_i)
    assert preimage(two_i, Lattice.standard(2)) == Lattice.standard(2)

    m = Matrix([[2, 0], [0, 1]])
    l22 = Lattice.from_generators(2, [(2, 0), (0, 2)])
    assert preimage(m, l22) == Lattice.from_generators(2, [(1, 0), (0, 2)])

    fib = Matrix([[0, 1], [1, 1]])
    assert preimage(fib, Lattice(two_i)).index() == 4


def test_preimage_membership_equivalence(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 8)
        m = random_nonsingular(rng, n, 3)
        pre = preimage(m, lat)
        side = 2 * pre.index()
        pts = [tuple(rng.randint(-side, side) for _ in range(n)) for _ in range(40)]
        for x in pts:
            assert ref_member(pre.basis, x) == ref_member(lat.basis, m.apply(x))


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
    q = quotient(Lattice(Matrix([[4]])))
    assert q.size() == 4
    assert q.reduce((7,)) == (3,)
    assert q.reduce((-1,)) == (3,)

    # Hermite basis [[1, 1], [0, 2]]: the box is {0} x [0, 2)
    q2 = quotient(Lattice.from_generators(2, [(1, 1), (0, 2)]))
    assert q2.size() == 2
    assert q2.reduce((1, 0)) == (0, 1)
    assert q2.reduce((3, 4)) == (0, 1)

    q3 = quotient(Lattice.standard(3))
    assert q3.size() == 1
    assert q3.reduce((5, -7, 2)) == (0, 0, 0)


def test_quotient_properties(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        lat = random_lattice(rng, n, 24)
        q = quotient(lat)
        # index * e_i lies in the lattice, so a cube of side index meets every coset
        reps = {q.reduce(x) for x in itertools.product(range(lat.index()), repeat=n)}
        assert reps == set(box_points(lat))
        assert len(reps) == lat.index() == q.size()
        # reduce is idempotent, and its representative lies in the coset of x
        for _ in range(20):
            x = tuple(rng.randint(-30, 30) for _ in range(n))
            rx = q.reduce(x)
            assert q.reduce(rx) == rx
            assert ref_member(lat.basis, tuple(a - b for a, b in zip(x, rx)))
        # reduce is additive modulo the lattice
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
        same_coset = ref_member(lat.basis, (x[0] - y[0], x[1] - y[1]))
        assert (q.reduce(x) == q.reduce(y)) == same_coset
