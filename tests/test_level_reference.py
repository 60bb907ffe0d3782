"""Differential test: level maps and translation orbits against the code they
replaced, kept here as the reference.

The replaced level read Z^n / L in the cyclic coordinates of the Smith form
U B V = S of its basis B (`snf` below): `to_cyclic(x)` is x V reduced mod the
Smith factors, and `from_cyclic` maps coordinates back through V^-1.  Its
representatives depend on the V the elimination chose, so the two level maps
agree coset for coset, not key for key: an old and a new source key that are
congruent mod s^{-1}C have targets congruent mod C.  The new representatives
are the points of the Hermite box, the product of the ranges [0, h_ii).  The
reference orbit is a breadth-first search over Z^n / C along the standard
basis translations; it reaches the whole level, which the groupoid report
states without a count because <e_1, ..., e_n> + C = Z^n.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from algact.actions import FREE, FREE_ABELIAN, AlgebraicAction, constructible_family
from algact.arith import xgcd
from algact.groupoid import level_map
from algact.lattices import Lattice, preimage, quotient
from algact.matrices import Matrix

from conftest import random_int_matrix, random_nonsingular, ref_member, row_times

MAX_INDEX = 3000


# -- the replaced Smith form and cyclic coordinates ------------------------------


def snf(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (S, U, V) with U, V unimodular, U*M*V = S, S diagonal with
    nonnegative entries satisfying d1 | d2 | ... .
    """
    if not m.is_integral():
        raise ValueError("Smith form needs integer entries")
    a = [list(row) for row in m.entries()]
    nrows, ncols = m.rows, m.cols
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        piv = _smallest_nonzero(a, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # Clear column t with unimodular row combinations.
            for i in range(t + 1, nrows):
                if a[i][t]:
                    s, w, c, d = _eliminator(a[t][t], a[i][t])
                    for grid in (a, u):
                        rt, ri = grid[t], grid[i]
                        grid[t] = [s * x + w * y for x, y in zip(rt, ri)]
                        grid[i] = [c * x + d * y for x, y in zip(rt, ri)]
            # Clear row t with unimodular column combinations.
            row_cleared = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    s, w, c, d = _eliminator(a[t][t], a[t][j])
                    for row in a + v:
                        x, y = row[t], row[j]
                        row[t], row[j] = s * x + w * y, c * x + d * y
                    row_cleared = False
            if row_cleared and all(a[i][t] == 0 for i in range(t + 1, nrows)):
                # Pivot must divide the remaining block, or fold a bad row in.
                offender = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % a[t][t]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                a[t] = [x + y for x, y in zip(a[t], a[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return Matrix(a), Matrix(u), Matrix(v)


def _eliminator(p: int, x: int) -> tuple[int, int, int, int]:
    """A unimodular [[s, w], [c, d]] mapping (p, x) to (±gcd(p, x), 0), p != 0.

    When p divides x it subtracts the exact multiple and leaves p in place.
    xgcd(p, ±p) would return a swap instead, and the row and column passes
    of snf would then undo each other forever."""
    if x % p == 0:
        return 1, 0, -(x // p), 1
    g, s, w = xgcd(p, x)
    return s, w, -x // g, p // g


def _smallest_nonzero(a, t):
    best = None
    best_abs = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            x = a[i][j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


class CyclicLevel:
    """The replaced QuotientLevel: Z^n / L in the cyclic coordinates of the
    Smith chain d1 | d2 | ... | dn with product = index(L)."""

    def __init__(self, lat):
        s, _, v = snf(lat.basis)
        self.factors = tuple(s[i, i] for i in range(lat.n))
        self._v, self._v_inv = v, v.inverse()

    def to_cyclic(self, x):
        return tuple(c % d for c, d in zip(row_times(x, self._v), self.factors))

    def from_cyclic(self, coords):
        return row_times(tuple(c % d for c, d in zip(coords, self.factors)), self._v_inv)


# -- references ------------------------------------------------------------------


def reference_translation_orbit(level, start):
    """Orbit of a coset under the standard-basis translations, by search."""
    q = quotient(level)
    translations = [tuple(1 if j == i else 0 for j in range(level.n)) for i in range(level.n)]
    start = q.reduce(start)
    seen = {start}
    frontier = [start]
    while frontier:
        point = frontier.pop()
        for t in translations:
            nxt = q.reduce(tuple(a + b for a, b in zip(point, t)))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_level_table(mat, level):
    """x + s^{-1}C -> s.x + C on the replaced cyclic representatives, one point at a time."""
    source = CyclicLevel(preimage(mat, level))
    target = CyclicLevel(level)
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


def in_hermite_box(lat, x):
    return all(0 <= x[i] < lat.basis[i, i] for i in range(lat.n))


def difference(x, y):
    return tuple(a - b for a, b in zip(x, y))


def assert_matches_reference(mat, level):
    lm = level_map(mat, quotient(level))
    source = lm.source.lattice
    # Every key and every target lies in its Hermite box, and the targets are distinct.
    assert all(in_hermite_box(source, key) for key in lm.table)
    assert all(in_hermite_box(level, out) for out in lm.table.values())
    assert len(set(lm.table.values())) == len(lm.table)
    # Coset for coset, the old table is the new one.
    old = reference_level_table(mat, level)
    assert len(old) == len(lm.table)
    for key, out in old.items():
        new_key = lm.source.reduce(key)
        assert ref_member(source.basis, difference(key, new_key))
        assert ref_member(level.basis, difference(out, lm.table[new_key]))
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
    return sum(d > 1 for d in CyclicLevel(level).factors)


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
        # the same 1+i at level 4: the source's Hermite basis is [[2, 2], [0, 4]]
        (Matrix([[1, -1], [1, 1]]), Lattice(Matrix.identity(2) * 4)),
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
            assert len(reference_translation_orbit(level, start)) == level.index()


@st.composite
def level_point_and_shift(draw):
    """A full-rank lattice of rank 1-3, a vector, and integer coefficients on its basis rows."""
    n = draw(st.integers(1, 3))
    small = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    basis = Matrix(draw(st.lists(small, min_size=n, max_size=n)))
    assume(basis.det() != 0)
    x = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    return Lattice(basis), tuple(x), tuple(draw(small))


@given(level_point_and_shift())
@settings(max_examples=80)
def test_reduce_picks_the_hermite_box_point_of_each_coset(case):
    lat, x, coeffs = case
    q = quotient(lat)
    r = q.reduce(x)
    assert in_hermite_box(lat, r)
    assert ref_member(lat.basis, difference(x, r))
    shift = row_times(coeffs, lat.basis)
    assert q.reduce(tuple(a + b for a, b in zip(x, shift))) == r
    box = itertools.product(*(range(lat.basis[i, i]) for i in range(lat.n)))
    assert all(q.reduce(point) == point for point in box)
