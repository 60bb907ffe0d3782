"""Exact dense matrices and the normal forms the rest of the package lives
on: the Hermite form over Z, and the invariant factors over Q[z] by Krylov
cyclic decomposition, whose product is the characteristic polynomial.

Entries are ints or Fractions.  Matrices are immutable and hashable so that
lattices can be deduplicated by their canonical basis.  The determinant and
the invariant factors of a rational matrix are computed on the integer
matrix den*M (`_scaled_rows`) and scaled back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .arith import xgcd
from .polynomials import Poly, _scalar


class Matrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(_scalar(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_flat(cls, r: int, c: int, flat) -> "Matrix":
        flat = list(flat)
        if len(flat) != r * c:
            raise ValueError(f"expected {r * c} entries, got {len(flat)}")
        return cls([flat[i * c : (i + 1) * c] for i in range(r)])

    @classmethod
    def companion(cls, f: Poly) -> "Matrix":
        """Companion matrix: column j holds the coordinates of z * z^j mod f."""
        if not f.is_monic() or f.degree < 1:
            raise ValueError("companion matrix needs a monic non-constant polynomial")
        n = f.degree
        cols = [[0] * n for _ in range(n)]
        for j in range(n - 1):
            cols[j][j + 1] = 1
        for i in range(n):
            cols[n - 1][i] = -f[i]
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._e)

    def entries(self) -> tuple:
        return self._e

    def flat(self) -> list:
        return [x for row in self._e for x in row]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self._e for x in row)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._e])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Matrix([[x * other for x in row] for row in self._e])
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        bt = list(zip(*other._e))
        return Matrix(
            [[_dot(row, col) for col in bt] for row in self._e]
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def apply(self, vec) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(row, vec) for row in self._e)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._e)))

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = Matrix.identity(self.rows)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def det(self):
        """Exact determinant: Bareiss elimination (Math. Comp. 22, 1968) on
        den*M, divided by den^n.  An int when it is integral."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        rows, den = _scaled_rows(self)
        d = _det_bareiss(rows)
        return d if den == 1 else _scalar(Fraction(d, den**self.rows))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self._e)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return Matrix([row[n:] for row in a])

    # -- plumbing -------------------------------------------------------------

    def _check_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"Matrix[{body}]"


def power_products(mats, max_degree: int):
    """Yield, for each total degree 1..max_degree, the dict {e: prod
    mats[i]^e_i} over the exponent vectors e of that degree, in
    itertools.product order.  Each product is one of the previous degree
    times one matrix, and degree 1 holds the input matrices themselves; only
    the previous degree's products are kept."""
    previous: dict = {}
    for total in range(1, max_degree + 1):
        current = {}
        for exp in itertools.product(range(total + 1), repeat=len(mats)):
            if sum(exp) != total:
                continue
            i = next(j for j, e in enumerate(exp) if e)
            current[exp] = previous[exp[:i] + (exp[i] - 1,) + exp[i + 1 :]] * mats[i] if total > 1 else mats[i]
        yield current
        previous = current


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _det_bareiss(a: list[list[int]]) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# --------------------------------------------------------------------------
# Integer normal forms
# --------------------------------------------------------------------------


def hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*M = H, H in the canonical row form:
    pivot entries positive, each pivot strictly right of the one above,
    entries above a pivot reduced into [0, pivot), zero rows at the bottom.
    U is the identity carried along to the right of M.
    """
    if not m.is_integral():
        raise ValueError("Hermite form needs integer entries")
    n, width = m.rows, m.cols
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries())]
    hermite_rows(rows, width)
    return Matrix([row[:width] for row in rows]), Matrix([row[width:] for row in rows])


def hermite_rows(rows: list[list[int]], width: int) -> list[list[int]]:
    """Bring integer rows, in place, into row Hermite form on their first
    `width` columns (the form `hnf` describes); the columns after them follow
    every row operation.  Returns `rows`."""
    nrows = len(rows)
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            while rows[i][c]:
                a, b = rows[r][c], rows[i][c]
                g, s, t = xgcd(a, b)
                # [[s, t], [-b//g, a//g]] is unimodular and maps (a, b) to (g, 0).
                ra, ri = rows[r], rows[i]
                rows[r] = [s * x + t * y for x, y in zip(ra, ri)]
                rows[i] = [(-b // g) * x + (a // g) * y for x, y in zip(ra, ri)]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return rows


def left_kernel_int(m: Matrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {u in Z^rows : u * M = 0}."""
    h, u = hnf(m)
    out = []
    for i in range(m.rows):
        if all(x == 0 for x in h.row(i)):
            out.append(u.row(i))
    return out


def right_kernel_int(m: Matrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^cols : M * x = 0}."""
    return left_kernel_int(m.transpose())


# --------------------------------------------------------------------------
# Characteristic polynomial and conjugacy invariants
# --------------------------------------------------------------------------


def charpoly(m: Matrix) -> Poly:
    """Characteristic polynomial det(z*I - M): the product of the invariant
    factors, so just the Krylov minimal polynomial of e_1 when that has
    degree n."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    return reduce(mul, poly_invariant_factors(m))


def poly_invariant_factors(m: Matrix) -> list[Poly]:
    """Invariant factors of z*I - M over Q[z]: monic, each dividing the next;
    the complete conjugacy invariant over Q.

    Computed by Krylov cyclic decomposition, with linear algebra over Q only
    (Storjohann, ISSAC 1998; Giesbrecht, SIAM J. Comput. 1995).  The
    minimal polynomial of e_1 comes from its Krylov sequence; when it has
    degree n it is the only factor.  Otherwise a vector v whose minimal
    polynomial mu is that of M is found, its Krylov space splits off as a
    direct summand, mu is the last factor, and the others are those of the
    map M induces on the quotient by that space.
    """
    if not m.is_square:
        raise ValueError("invariant factors of a non-square matrix")
    n = m.rows
    # Work on the integer matrix den*M, whose factors are den^k f(z/den).
    rows, den = _scaled_rows(m)
    mu, basis = _krylov(rows, [1] + [0] * (n - 1))
    if mu.degree < n:
        mu, basis = _maximal_vector(rows, mu, basis)
    factors = [mu] if mu.degree == n else poly_invariant_factors(_quotient(rows, basis)) + [mu]
    if den == 1:
        return factors
    return [Poly([Fraction(c, den ** (f.degree - i)) for i, c in enumerate(f.coeffs)]) for f in factors]


def _scaled_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """(rows of den*M as new integer lists, den), den the lcm of the
    denominators of the entries of M."""
    den = lcm(*[x.denominator for row in m.entries() for x in row])
    if den == 1:
        return [list(row) for row in m.entries()], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in m.entries()], den


def _krylov(rows: list[list[int]], v: list[int]):
    """Minimal polynomial of the integer vector v under the integer matrix
    with these rows, and an echelon basis of the Krylov space of v.

    Incremental fraction-free elimination.  A basis entry (p, x) holds, in
    one primitive integer list x, a vector w = x[:n] that is nonzero at its
    pivot p and zero at the pivots before it, and the coefficients x[n:] of
    a polynomial a with w = a(M) v.  The next candidate is M w with
    polynomial z*a; it reduces to zero exactly when M w lies in the span so
    far, and its polynomial then annihilates v with degree the dimension of
    that span.
    """
    n = len(rows)
    basis = []
    x = list(v) + [1] + [0] * n
    while True:
        x = _reduce(x, basis)[0]
        if not any(x[:n]):
            return Poly(x[n:]).monic(), basis
        g = gcd(*x)
        x = [a // g for a in x]
        basis.append((next(i for i in range(n) if x[i]), x))
        # _dot stops at the end of the row, so it reads only w.
        x = [_dot(row, x) for row in rows] + [0] + x[n:-1]


def _reduce(x: list[int], basis) -> tuple[list[int], int]:
    """(s*x - k, s): x scaled by a nonzero integer s, minus the k in the span
    of the basis vectors that makes it zero at every pivot.  The basis
    entries are truncated to the length of x."""
    scale = 1
    for p, w in basis:
        t = x[p]
        if t:
            s = w[p]
            g = gcd(s, t)
            s, t = s // g, t // g
            x = [s * a - t * b for a, b in zip(x, w)]
            scale *= s
    return x, scale


def _maximal_vector(rows: list[list[int]], mu: Poly, basis):
    """A vector whose minimal polynomial is that of M, as _krylov returns it;
    (mu, basis) is the result for e_1.

    The minimal polynomial of M is the lcm of those of e_1, ..., e_n.  If no
    e_i attains it, try sum_j c^j e_j for c = 2, 3, ...: the vectors that
    miss it lie in at most n proper subspaces, one per irreducible factor,
    and the curve c -> (c^j)_j meets each in at most n - 1 points, so at
    most n(n - 1) values of c fail.
    """
    n = len(rows)
    units = [(mu, basis)] + [_krylov(rows, [int(i == j) for j in range(n)]) for i in range(1, n)]
    target = reduce(lambda f, g: f * g // f.gcd(g), (f for f, _ in units)).degree
    powers = (_krylov(rows, [c**j for j in range(n)]) for c in itertools.count(2))
    return next(found for found in itertools.chain(units, powers) if found[0].degree == target)


def _quotient(rows: list[list[int]], basis) -> Matrix:
    """The matrix of the map M induces on Q^n / K, K the span of the basis
    vectors, on the images of the unit vectors e_q off the pivots: reducing
    M e_q to zero at every pivot leaves its coordinates at the other q."""
    n = len(rows)
    pivots = {p for p, _ in basis}
    rest = [q for q in range(n) if q not in pivots]
    cols = []
    for q in rest:
        x, scale = _reduce([row[q] for row in rows], basis)
        cols.append([Fraction(x[i], scale) for i in rest])
    return Matrix(list(zip(*cols)))

