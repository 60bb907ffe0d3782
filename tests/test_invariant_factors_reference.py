"""Pins the Krylov cyclic decomposition in `matrices.poly_invariant_factors`
against the Euclidean Smith elimination over Q[z] it replaced, against
sympy where it is installed, and against the properties every answer must
have."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algact.matrices import Matrix, _krylov, poly_invariant_factors
from algact.polynomials import Poly

from conftest import block_diagonal, companion, conjugate, random_int_matrix
from test_charpoly_reference import faddeev_leverrier


def reference_invariant_factors(m: Matrix) -> list[Poly]:
    """The replaced implementation: Smith reduction of z*I - M over Q[z]."""
    n = m.rows
    a = [
        [Poly((-m[i, j],)) + (Poly((0, 1)) if i == j else Poly()) for j in range(n)]
        for i in range(n)
    ]
    for t in range(n):
        while True:
            piv = _min_degree_entry(a, t)
            if piv is None:
                break
            pi, pj = piv
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            dirty = False
            for i in range(t + 1, n):
                if not a[i][t].is_zero():
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if not a[i][t].is_zero():
                        dirty = True
            for j in range(t + 1, n):
                if not a[t][j].is_zero():
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] = row[j] - q * row[t]
                    if not a[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (a[i][j] % a[t][t]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
    return [a[i][i].monic() for i in range(n) if a[i][i].degree >= 1]


def _min_degree_entry(a, t):
    best = None
    best_deg = None
    n = len(a)
    for i in range(t, n):
        for j in range(t, n):
            e = a[i][j]
            if not e.is_zero() and (best_deg is None or e.degree < best_deg):
                best, best_deg = (i, j), e.degree
    return best


JORDAN_2 = Matrix([[2, 1], [0, 2]])
JORDAN_3 = Matrix([[-1, 1, 0], [0, -1, 1], [0, 0, -1]])

# Derogatory matrices (several invariant factors), and the smallest shapes.
STRUCTURED = [
    block_diagonal(companion(-2, 0, 1), companion(-2, 0, 1), companion(-2, 0, 1)),
    JORDAN_2,
    JORDAN_3,
    block_diagonal(JORDAN_2, Matrix([[2]])),
    block_diagonal(JORDAN_2, JORDAN_2, Matrix([[2]]), Matrix([[3]])),
    Matrix.identity(5) * 3,
    Matrix.identity(4) * -1,
    Matrix.identity(4) * 0,
    Matrix([[7]]),
    Matrix([[0]]),
    block_diagonal(companion(1, 0, 1), companion(-1, -1, 1), companion(1, 0, 1)),
    block_diagonal(companion(1, 1, 1), companion(1, 1, 1), Matrix([[1, 1], [0, 1]])),
    block_diagonal(companion(1, 0, 1), companion(-2, 0, 1), companion(1, 0, 1), companion(-2, 0, 1)),
    block_diagonal(companion(-2, 0, 0, 1), companion(-2, 0, 0, 1), Matrix([[1]])),
]


def test_reference_agrees_on_random_matrices():
    rng = random.Random(8128)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = conjugate(rng, random_int_matrix(rng, n, 5))
        assert poly_invariant_factors(m) == reference_invariant_factors(m), m


@pytest.mark.parametrize("m", STRUCTURED, ids=lambda m: f"{m.rows}x{m.rows}")
def test_reference_agrees_on_derogatory_matrices(m):
    rng = random.Random(m.rows)
    want = reference_invariant_factors(m)
    assert poly_invariant_factors(m) == want
    for _ in range(3):
        conj = conjugate(rng, m)
        assert poly_invariant_factors(conj) == reference_invariant_factors(conj) == want


def test_known_derogatory_factors():
    three = block_diagonal(companion(-2, 0, 1), companion(-2, 0, 1), companion(-2, 0, 1))
    assert poly_invariant_factors(three) == [Poly((-2, 0, 1))] * 3
    assert poly_invariant_factors(Matrix.identity(3) * 0) == [Poly((0, 1))] * 3
    assert poly_invariant_factors(block_diagonal(JORDAN_2, Matrix([[2]]))) == [
        Poly((-2, 1)),
        Poly((4, -4, 1)),
    ]


def test_combination_vector_when_no_unit_vector_attains_the_minimal_polynomial():
    # A block-diagonal unimodular conjugator followed by a coordinate swap
    # keeps every e_i inside one block, so each e_i has a minimal polynomial
    # of degree 2 and only a combination of them reaches (z^2-2)(z^2-3).
    m = block_diagonal(companion(-2, 0, 1), companion(-3, 0, 1))
    u = block_diagonal(Matrix([[2, 1], [1, 1]]), Matrix([[1, -3], [0, 1]]))
    swap = Matrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    u = swap * u
    conj = u * m * u.inverse()
    assert conj.is_integral()
    rows = [list(r) for r in conj.entries()]
    for i in range(4):
        assert _krylov(rows, [int(i == j) for j in range(4)])[0].degree == 2
    want = [Poly((-2, 0, 1)) * Poly((-3, 0, 1))]
    assert poly_invariant_factors(conj) == reference_invariant_factors(conj) == want


def test_rational_matrices():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        assert poly_invariant_factors(m) == reference_invariant_factors(m)
    half = Matrix.identity(3) * Fraction(1, 2)
    assert poly_invariant_factors(half) == [Poly((Fraction(-1, 2), 1))] * 3


def _sympy_invariant_factors(m: Matrix) -> list[Poly]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    z = sympy.symbols("z")
    n = m.rows
    a = sympy.Matrix(n, n, lambda i, j: sympy.Rational(m[i, j]))
    out = []
    for f in invariant_factors(z * sympy.eye(n) - a, domain=sympy.QQ[z]):
        p = sympy.Poly(f, z).monic()
        if p.degree() >= 1:
            out.append(Poly([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]))
    return out


def test_sympy_oracle():
    pytest.importorskip("sympy")
    rng = random.Random(4096)
    cases = [conjugate(rng, random_int_matrix(rng, n, 5)) for n in (3, 6, 9, 10)]
    cases += [conjugate(rng, m) for m in STRUCTURED if m.rows <= 10]
    for m in cases:
        assert poly_invariant_factors(m) == _sympy_invariant_factors(m), m


def square_matrices(max_n=6, bound=4):
    entry = st.integers(-bound, bound)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)
    )


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.integers(0, 2**32))
def test_invariant_factor_properties(m, seed):
    factors = poly_invariant_factors(m)
    prod = Poly((1,))
    for f in factors:
        assert f.is_monic() and f.degree >= 1
        prod = prod * f
    assert prod == faddeev_leverrier(m)
    for a, b in zip(factors, factors[1:]):
        assert (b % a).is_zero()
    assert poly_invariant_factors(conjugate(random.Random(seed), m)) == factors


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(1, 3), st.integers(0, 2**32))
def test_repeated_blocks_under_conjugation(lower, copies, seed):
    block = companion(*lower, 1)
    m = block_diagonal(*[block] * copies)
    assert poly_invariant_factors(conjugate(random.Random(seed), m)) == [Poly(lower + [1])] * copies
