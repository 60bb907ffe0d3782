import functools
import random

import pytest

from algact.matrices import Matrix
from algact.polynomials import Poly


def random_int_matrix(rng: random.Random, n: int, bound: int) -> Matrix:
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def random_nonsingular(rng: random.Random, n: int, bound: int) -> Matrix:
    while True:
        m = random_int_matrix(rng, n, bound)
        if m.det() != 0:
            return m


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> Matrix:
    """Product of elementary shears and swaps: determinant ±1 by construction."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.25:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix(rows)


def conjugate(rng: random.Random, m: Matrix) -> Matrix:
    u = random_unimodular(rng, m.rows)
    return u * m * u.inverse()


def companion(*coeffs) -> Matrix:
    return Matrix.companion(Poly(coeffs))


def poly_eval_matrix(p: Poly, m: Matrix) -> Matrix:
    """p(M) by Horner's rule: the Cayley-Hamilton oracle for charpoly."""
    out = m * 0
    for c in reversed(p.coeffs):
        out = out * m + Matrix.identity(m.rows) * c
    return out


@functools.cache
def adjugate(m: Matrix) -> Matrix:
    return m.inverse() * m.det()


def row_times(vec, m: Matrix) -> tuple:
    """The row vector vec times the matrix m."""
    return tuple(sum(v * x for v, x in zip(vec, col)) for col in zip(*m.entries()))


def ref_member(basis: Matrix, x) -> bool:
    """Is the integer vector x in the lattice with this basis?  x adj(B) is
    det(B) times the coordinates of x in the rows of B."""
    det = basis.det()
    adj = adjugate(basis)
    return all(sum(x[i] * adj[i, j] for i in range(basis.rows)) % det == 0 for j in range(basis.rows))


def block_diagonal(*blocks: Matrix) -> Matrix:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            rows[at + i][at : at + b.rows] = b.row(i)
        at += b.rows
    return Matrix(rows)


@pytest.fixture
def rng():
    return random.Random(20240831)
