import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algact.arith import xgcd
from algact.matrices import (
    Matrix,
    charpoly,
    hnf,
    left_kernel_int,
    poly_invariant_factors,
    power_products,
)
from algact.polynomials import Poly
from algact.polyring import buchberger, parse_poly, quotient_algebra

from conftest import poly_eval_matrix, random_int_matrix, random_unimodular
from test_charpoly_reference import faddeev_leverrier
from test_level_reference import snf


def int_matrix(n, bound=9):
    entry = st.integers(-bound, bound)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)


# -- basic arithmetic ---------------------------------------------------------


def test_mul_and_inverse():
    m = Matrix([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    assert m.inverse().is_integral()  # det 1
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).inverse()


def test_det_matches_cofactor_small(rng):
    def cofactor_det(m):
        if m.rows == 1:
            return m[0, 0]
        out = 0
        for j in range(m.cols):
            minor = Matrix(
                [[m[i, k] for k in range(m.cols) if k != j] for i in range(1, m.rows)]
            )
            out += (-1) ** j * m[0, j] * cofactor_det(minor)
        return out

    for n in (1, 2, 3, 4):
        for _ in range(20):
            m = random_int_matrix(rng, n, 6)
            assert m.det() == cofactor_det(m)
            q = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)])
            assert q.det() == cofactor_det(q)
    assert Matrix([[Fraction(1, 2), 0], [0, 4]]).det() == 2
    assert type(Matrix([[Fraction(1, 2), 0], [0, 4]]).det()) is int
    assert Matrix([[Fraction(1, 2), 1], [1, 2]]).det() == 0


def test_pow_negative():
    m = Matrix([[2]])
    assert m**-2 == Matrix([[Fraction(1, 4)]])


# -- power products -----------------------------------------------------------


def assert_power_products(mats, max_degree):
    """power_products against products of ** powers: degree t holds the
    C(t+k-1, k-1) exponent vectors of that degree in product order, and
    degree 1 the input matrices themselves."""
    k = len(mats)
    degrees = list(power_products(mats, max_degree))
    assert len(degrees) == max_degree
    for t, products in enumerate(degrees, 1):
        keys = [e for e in itertools.product(range(t + 1), repeat=k) if sum(e) == t]
        assert list(products) == keys and len(keys) == math.comb(t + k - 1, k - 1)
        for e, m in products.items():
            expected = Matrix.identity(mats[0].rows)
            for a, x in zip(mats, e):
                expected = expected * a**x
            assert m == expected, e
    if degrees:
        for i, m in enumerate(mats):
            assert degrees[0][tuple(int(j == i) for j in range(k))] is m


def test_power_products_random_commuting(rng):
    for _ in range(12):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        base = random_int_matrix(rng, n, 3)
        mats = [poly_eval_matrix(Poly([rng.randint(-2, 2) for _ in range(3)]), base) for _ in range(k)]
        assert_power_products(mats, rng.randint(0, 6))


@pytest.mark.parametrize(
    "names,gens", [(["u", "v"], ["2*u^2-3", "3*v^2-u-1"]), (["u", "v", "w"], ["2*u^2-1", "v^2-u", "w^2-3*v-u"])]
)
def test_power_products_quotient_algebra(names, gens):
    qa = quotient_algebra(buchberger([parse_poly(g, names) for g in gens]), len(names))
    assert not all(t.is_integral() for t in qa.var_matrices)
    assert_power_products(qa.var_matrices, 4)


# -- Hermite form -------------------------------------------------------------


def canonical_hnf_shape(h):
    """Pivot columns strictly increase, pivots positive, entries above in [0, pivot)."""
    prev = -1
    for i in range(h.rows):
        row = h.row(i)
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            # all remaining rows must be zero
            return all(
                not any(h.row(k)) for k in range(i, h.rows)
            )
        if piv <= prev or row[piv] <= 0:
            return False
        for k in range(i):
            if not 0 <= h[k, piv] < row[piv]:
                return False
        prev = piv
    return True


def brute_force_hnf_2x2(m):
    """Spec oracle: search small unimodular row transforms for the canonical form."""
    best = None
    span = range(-4, 5)
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        u = Matrix([[a, b], [c, d]])
        h = u * m
        if canonical_hnf_shape(h):
            assert best is None or best == h, "canonical form is not unique"
            best = h
    return best


def test_hnf_known_cases():
    m = Matrix([[2, 0], [1, 1]])
    h, u = hnf(m)
    assert h == Matrix([[1, 1], [0, 2]])
    assert u * m == h and abs(u.det()) == 1
    assert h == brute_force_hnf_2x2(m)

    h2, u2 = hnf(Matrix.identity(2))
    assert h2 == Matrix.identity(2) and u2 == Matrix.identity(2)

    h3, _ = hnf(Matrix([[0, 3], [0, 0]]))
    assert h3 == Matrix([[0, 3], [0, 0]])


def test_hnf_properties_random(rng):
    for _ in range(150):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, 20)
        h, u = hnf(m)
        assert u * m == h
        assert abs(u.det()) == 1
        assert canonical_hnf_shape(h)
        # canonical: re-running on H is a fixed point
        h2, _ = hnf(h)
        assert h2 == h


def reference_hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Reference: hnf as it was before the elimination moved into
    hermite_rows, updating U with separate row operations."""
    h = [list(row) for row in m.entries()]
    nrows, ncols = m.rows, m.cols
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if h[i][c]), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nrows):
            while h[i][c]:
                a, b = h[r][c], h[i][c]
                g, s, t = xgcd(a, b)
                ra, ri, ua, ui = h[r], h[i], u[r], u[i]
                h[r] = [s * x + t * y for x, y in zip(ra, ri)]
                h[i] = [(-b // g) * x + (a // g) * y for x, y in zip(ra, ri)]
                u[r] = [s * x + t * y for x, y in zip(ua, ui)]
                u[i] = [(-b // g) * x + (a // g) * y for x, y in zip(ua, ui)]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == nrows:
            break
    return Matrix(h), Matrix(u)


def test_hnf_matches_reference(rng):
    # U is not unique, and check_SF_via_det reports a kernel row of it
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert hnf(m) == reference_hnf(m), m


@given(int_matrix(3))
@settings(max_examples=60)
def test_hnf_recomposition_hypothesis(m):
    h, u = hnf(m)
    assert u * m == h and abs(u.det()) == 1


# -- Smith form ---------------------------------------------------------------
# `snf` is the Smith form that levels once used, pinned in test_level_reference.


def test_snf_known_cases():
    s, u, v = snf(Matrix([[2, 0], [0, 3]]))
    assert s == Matrix([[1, 0], [0, 6]])
    assert u * Matrix([[2, 0], [0, 3]]) * v == s
    assert abs(u.det()) == 1 and abs(v.det()) == 1

    s2, _, _ = snf(Matrix([[4, 0], [0, 2]]))
    assert s2 == Matrix([[2, 0], [0, 4]])

    zero = Matrix.identity(2) * 0
    s3, _, _ = snf(zero)
    assert s3 == zero


def check_snf(m):
    s, u, v = snf(m)
    assert u * m * v == s
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [s[i, i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_snf_properties_random(rng):
    for _ in range(150):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, 20)
        diag = check_snf(m)
        det = m.det()
        if det != 0:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)


def test_snf_terminates_when_the_pivot_divides():
    # Rank-3 preimage levels of the form below once made the row and column
    # eliminations undo each other forever.
    m = Matrix([[1, 0, 1], [0, 1, 1], [0, 0, 2]])
    assert check_snf(m) == [1, 1, 2]
    assert check_snf(m * 8) == [8, 8, 16]


def test_snf_small_entries_3x3(rng):
    for _ in range(300):
        check_snf(random_int_matrix(rng, 3, 2))


def gcd_of_k_minors(m, k):
    from math import gcd

    out = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = Matrix([[m[i, j] for j in cols] for i in rows])
            out = gcd(out, sub.det())
    return out


def test_snf_matches_minor_gcds(rng):
    # Independent oracle: d_1 * ... * d_k equals the gcd of all k x k minors.
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 12)
        s, _, _ = snf(m)
        prod = 1
        for k in range(1, n + 1):
            prod *= s[k - 1, k - 1]
            assert prod == gcd_of_k_minors(m, k)


# -- kernels ------------------------------------------------------------------


def test_left_kernel_int():
    m = Matrix([[1, 2], [2, 4], [0, 1]])
    basis = left_kernel_int(m)
    assert len(basis) == 1
    u = basis[0]
    assert all(sum(u[i] * m[i, j] for i in range(3)) == 0 for j in range(2))


# -- characteristic polynomial -------------------------------------------------


def charpoly_cofactor(m):
    """Independent oracle: symbolic cofactor expansion of det(zI - M)."""
    n = m.rows
    entries = [
        [Poly((-m[i, j],)) + (Poly((0, 1)) if i == j else Poly()) for j in range(n)]
        for i in range(n)
    ]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        out = Poly()
        for j in range(len(rows)):
            minor = [[r[k] for k in range(len(rows)) if k != j] for r in rows[1:]]
            term = rows[0][j] * det(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    return det(entries)


def test_charpoly_known_cases():
    assert charpoly(Matrix([[2]])) == Poly((-2, 1))
    assert charpoly(Matrix([[0, 1], [1, 1]])) == Poly((-1, -1, 1))
    assert charpoly(Matrix([[0, -1], [1, 0]])) == Poly((1, 0, 1))
    assert charpoly(Matrix([[0, 1], [1, 1]])) == charpoly_cofactor(Matrix([[0, 1], [1, 1]]))


def test_charpoly_matches_cofactor_random(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 5)
        assert charpoly(m) == charpoly_cofactor(m)


def test_cayley_hamilton_random(rng):
    for n in range(1, 9):
        m = random_int_matrix(rng, n, 7)
        chi = charpoly(m)
        assert poly_eval_matrix(chi, m) == m * 0
    # random rational matrices up to dimension 8
    for n in (2, 3, 5, 8):
        m = Matrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert poly_eval_matrix(charpoly(m), m) == m * 0


def test_charpoly_non_square():
    with pytest.raises(ValueError):
        charpoly(Matrix([[1, 2]]))


# -- invariant factors ----------------------------------------------------------


def minimal_polynomial_brute(m):
    """Spec oracle: least-degree monic dependence among powers of M."""
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(m * powers[-1])
    for deg in range(1, n + 1):
        # solve sum_{i<deg} c_i M^i = -M^deg
        cols = []
        for i in range(deg):
            cols.append([Fraction(x) for row in powers[i].entries() for x in row])
        target = [-Fraction(x) for row in powers[deg].entries() for x in row]
        sol = _solve_least_squares_exact(cols, target)
        if sol is not None:
            return Poly(sol + [1])
    raise AssertionError("no dependence found")


def _solve_least_squares_exact(cols, target):
    rows = len(target)
    width = len(cols)
    aug = [[cols[j][i] for j in range(width)] + [target[i]] for i in range(rows)]
    r = 0
    pivots = []
    for c in range(width):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][width] != 0:
            return None
    sol = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        sol[c] = aug[i][width]
    # verify (the system may be underdetermined; any solution certifies dependence)
    for i in range(rows):
        if sum(cols[j][i] * sol[j] for j in range(width)) != target[i]:
            return None
    return sol


def test_invariant_factors_known_cases():
    assert poly_invariant_factors(Matrix([[2, 0], [0, 2]])) == [Poly((-2, 1)), Poly((-2, 1))]

    jordan = Matrix([[2, 1], [0, 2]])
    factors = poly_invariant_factors(jordan)
    assert factors == [Poly((4, -4, 1))]
    assert factors[-1] == minimal_polynomial_brute(jordan)

    comp = Matrix.companion(Poly((6, -5, 1)))
    assert poly_invariant_factors(comp) == [Poly((6, -5, 1))]


def test_invariant_factors_structure(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 5)
        factors = poly_invariant_factors(m)
        prod = Poly((1,))
        for f in factors:
            assert f.is_monic()
            prod = prod * f
        assert prod == faddeev_leverrier(m)
        for a, b in zip(factors, factors[1:]):
            assert (b % a).is_zero()
        assert factors[-1] == minimal_polynomial_brute(m)


def test_invariant_factors_conjugation_invariant(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 5)
        u = random_unimodular(rng, n)
        conj = u * m * u.inverse()
        assert poly_invariant_factors(m) == poly_invariant_factors(conj)


def test_companion_shape():
    c = Matrix.companion(Poly((-1, -1, 1)))
    assert c == Matrix([[0, 1], [1, 1]])
    assert charpoly(Matrix.companion(Poly((5, 4, -3, 1)))) == Poly((5, 4, -3, 1))
