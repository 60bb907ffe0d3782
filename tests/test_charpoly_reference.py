"""Pins `matrices.charpoly` (the product of the Krylov invariant factors) and
`Matrix.det` (Bareiss on the integer matrix den*M) against the algorithms
they replaced: Faddeev-LeVerrier over Fraction and Gaussian elimination
over Fraction.  Also against sympy where it is installed."""

import random
from fractions import Fraction

import pytest

from algact.matrices import Matrix, charpoly
from algact.polynomials import Poly
from algact.polyring import MPoly, buchberger, parse_poly, quotient_algebra

from conftest import block_diagonal, companion, conjugate, random_int_matrix


def faddeev_leverrier(m: Matrix) -> Poly:
    """The replaced charpoly: det(z*I - M) from the traces of n products."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    a = m
    c = -Fraction(sum(a[i, i] for i in range(n)))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        a = m * (a + Matrix.identity(n) * c)
        c = -Fraction(sum(a[i, i] for i in range(n))) / k
        coeffs[n - k] = c
    return Poly(coeffs)


def det_fraction(m: Matrix):
    """The replaced determinant of a rational matrix: Gaussian elimination
    over Fraction, an int when the result is integral."""
    a = [list(map(Fraction, row)) for row in m.entries()]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for r in range(k + 1, n):
            if a[r][k]:
                f = a[r][k] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return int(det) if det.denominator == 1 else det


def assert_matches_reference(m: Matrix):
    chi, det = charpoly(m), m.det()
    assert chi == faddeev_leverrier(m), m
    assert det == det_fraction(m) and type(det) is type(det_fraction(m)), m
    assert chi[0] == (-1) ** m.rows * det


def random_fraction_matrix(rng: random.Random, n: int, bound: int) -> Matrix:
    return Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)])


def jordan(value, size: int) -> Matrix:
    return Matrix([[value if i == j else int(j == i + 1) for j in range(size)] for i in range(size)])


STRUCTURED = {
    "scalar": Matrix.identity(6) * -3,
    "scalar_fraction": Matrix.identity(4) * Fraction(2, 3),
    "zero": Matrix.identity(5) * 0,
    "one_by_one": Matrix([[7]]),
    "one_by_one_fraction": Matrix([[Fraction(-5, 4)]]),
    "one_by_one_zero": Matrix([[0]]),
    "singular": Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
    "singular_rank_one": Matrix([[2 * i * j - i for j in range(1, 5)] for i in range(1, 5)]),
    "repeated_companion": block_diagonal(*[companion(-2, 0, 1)] * 3),
    "repeated_companion_mixed": block_diagonal(companion(1, 0, 1), companion(-1, -1, 1), companion(1, 0, 1)),
    "repeated_cubic": block_diagonal(companion(-2, 0, 0, 1), companion(-2, 0, 0, 1), Matrix([[1]])),
    "jordan": jordan(2, 4),
    "jordan_blocks": block_diagonal(jordan(-1, 3), jordan(-1, 2), Matrix([[-1]])),
    "jordan_fraction": jordan(Fraction(1, 2), 3),
    "nilpotent": jordan(0, 5),
}


def test_random_integer_matrices():
    rng = random.Random(1968)
    for _ in range(120):
        n = rng.randint(1, 10)
        assert_matches_reference(random_int_matrix(rng, n, rng.choice((1, 5, 30))))


def test_random_fraction_matrices():
    rng = random.Random(1998)
    for _ in range(80):
        n = rng.randint(1, 10)
        assert_matches_reference(random_fraction_matrix(rng, n, 9))


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_matrices_under_conjugation(name):
    m = STRUCTURED[name]
    assert_matches_reference(m)
    rng = random.Random(name)
    for _ in range(3):
        assert_matches_reference(conjugate(rng, m))


IDEALS = [
    (["u", "v"], ["u^2-2", "v^2-3"]),
    (["u"], ["u^2-u-1"]),
    (["u", "v"], ["2*u^2-3", "3*v^2-u-1"]),
    (["u", "v"], ["u^3-2*u+5", "v^2-u*v-1"]),
    (["u", "v", "w"], ["2*u^2-1", "v^2-u", "w^2-3*v-u"]),
]


@pytest.mark.parametrize("names,gens", IDEALS, ids=lambda x: ",".join(x))
def test_variable_multiplication_matrices(names, gens):
    k = len(names)
    qa = quotient_algebra(buchberger([parse_poly(g, names) for g in gens]), k)
    ident = Matrix.identity(qa.dimension)
    for i in range(k):
        t = qa.var_matrices[i]
        assert_matches_reference(t)
        assert_matches_reference(ident - t)
        chi, norm = qa.char_poly_and_norm(MPoly.variable(k, i))
        assert chi == faddeev_leverrier(t) and norm == abs(det_fraction(t))
        assert type(norm) is type(abs(det_fraction(t)))


def test_some_variable_matrix_is_not_integral():
    qa = quotient_algebra(buchberger([parse_poly(g, ["u", "v"]) for g in ("2*u^2-3", "3*v^2-u-1")]), 2)
    assert not all(t.is_integral() for t in qa.var_matrices)


def test_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1729)
    cases = [random_int_matrix(rng, n, 6) for n in (2, 5, 8, 10)]
    cases += [random_fraction_matrix(rng, n, 5) for n in (3, 6, 9)]
    cases += [conjugate(rng, m) for m in STRUCTURED.values()]
    z = sympy.symbols("z")
    for m in cases:
        a = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j]))
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(a.charpoly(z).all_coeffs())]
        assert charpoly(m) == Poly(want), m
        d = sympy.Rational(a.det())
        assert m.det() == Fraction(int(d.p), int(d.q)), m
