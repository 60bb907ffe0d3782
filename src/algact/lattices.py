"""Full-rank sublattices of Z^n and their finite quotients.

A lattice is stored by its canonical Hermite-form row basis, so two lattices
are equal as subgroups exactly when their `basis` matrices are equal.  Only
full-rank lattices are representable; constructors reject anything else.

QuotientLevel is one finite stage Z^n / L.  The Hermite basis gives each coset
a representative that depends on L alone: its one point r with 0 <= r_i < h_ii
(`reduce`; Cohen, GTM 138, section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .matrices import Matrix, hermite_rows
from .polynomials import _scalar


class Lattice:
    __slots__ = ("n", "basis")

    def __init__(self, basis: Matrix):
        if not basis.is_square or not basis.is_integral():
            raise ValueError("lattice basis must be a square integer matrix")
        h = hermite_rows([list(row) for row in basis.entries()], basis.cols)
        if any(h[i][i] == 0 for i in range(len(h))):
            raise ValueError("lattice basis is rank-deficient")
        self._set_hermite_basis(Matrix(h))

    def _set_hermite_basis(self, h: Matrix) -> None:
        object.__setattr__(self, "n", h.rows)
        object.__setattr__(self, "basis", h)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls(Matrix.identity(n))

    @classmethod
    def from_generators(cls, n: int, vectors) -> "Lattice":
        """Lattice generated by the given integer vectors; must have rank n."""
        vectors = [tuple(v) for v in vectors]
        if not vectors:
            raise ValueError("no generators supplied")
        if any(len(v) != n for v in vectors):
            raise ValueError("generator length does not match the ambient rank")
        rows = [[_scalar(x) for x in v] for v in vectors]
        if not all(isinstance(x, int) for row in rows for x in row):
            raise ValueError("Hermite form needs integer entries")
        h = hermite_rows(rows, n)
        if len(h) < n or h[n - 1][n - 1] == 0:
            raise ValueError("rank-deficient generating set")
        # n nonzero Hermite rows in n columns are already the canonical basis.
        return cls._from_hermite(h[:n])

    @classmethod
    def _from_hermite(cls, rows) -> "Lattice":
        lat = cls.__new__(cls)
        lat._set_hermite_basis(Matrix(rows))
        return lat

    # -- basic queries ---------------------------------------------------------

    def index(self) -> int:
        """#(Z^n / L), the product of the Hermite pivots."""
        return prod(self.basis[i, i] for i in range(self.n))

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({self.basis!r})"


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Lattice-theoretic meet L1 ∩ L2.

    The rows (b1, b1) and (b2, 0) span {(x + y, x) : x in L1, y in L2}, whose
    vectors with first half zero are exactly (0, L1 ∩ L2).
    """
    _same_rank(l1, l2)
    b1, b2 = l1.basis.entries(), l2.basis.entries()
    return _lower_block([row + row for row in b1] + [row + (0,) * l2.n for row in b2])


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Lattice-theoretic join L1 + L2."""
    _same_rank(l1, l2)
    rows = [l1.basis.row(i) for i in range(l1.n)] + [l2.basis.row(i) for i in range(l2.n)]
    return Lattice.from_generators(l1.n, rows)


def image(m: Matrix, lat: Lattice) -> Lattice:
    """M * L for a nonsingular integer matrix M."""
    _check_map(m, lat)
    rows = [m.apply(lat.basis.row(i)) for i in range(lat.n)]
    return Lattice.from_generators(lat.n, rows)


def preimage(m: Matrix, lat: Lattice) -> Lattice:
    """{x in Z^n : M x in L}.

    The rows (M e_i, e_i) and (b, 0) span {(M x + y, x) : x in Z^n, y in L},
    whose vectors with first half zero are exactly (0, M^{-1} L ∩ Z^n).
    """
    _check_map(m, lat)
    n = lat.n
    rows = [m.col(i) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _lower_block(rows + [row + (0,) * n for row in lat.basis.entries()])


def _lower_block(rows) -> Lattice:
    """The lattice on the lower-right n x n block of the Hermite form of the
    2n x 2n block matrix `rows`: the vectors of their span with first half
    zero.  A block of a Hermite form is in Hermite form, so it is canonical."""
    n = len(rows) // 2
    h = hermite_rows([list(row) for row in rows], 2 * n)
    if any(h[n + i][n + i] == 0 for i in range(n)):
        raise ValueError("rank-deficient lattice block")
    return Lattice._from_hermite([row[n:] for row in h[n:]])


def _same_rank(l1: Lattice, l2: Lattice):
    if l1.n != l2.n:
        raise ValueError("ambient ranks differ")


def _check_map(m: Matrix, lat: Lattice):
    if not m.is_square or m.rows != lat.n:
        raise ValueError("matrix does not act on the ambient space")
    if not m.is_integral():
        raise ValueError("integer matrix required")
    if m.det() == 0:
        raise ValueError("singular matrix")


@dataclass(frozen=True)
class QuotientLevel:
    """The finite group Z^n / L; each coset is named by its point in the
    Hermite box of L, the product of the ranges [0, h_ii)."""

    lattice: Lattice

    def reduce(self, x) -> tuple[int, ...]:
        """The point of the Hermite box in x + L.  Row i of the upper-triangular
        basis is zero left of column i, so column i is reduced once for all."""
        r = tuple(x)
        for i, row in enumerate(self.lattice.basis.entries()):
            q = r[i] // row[i]
            if q:
                r = tuple([a - q * b for a, b in zip(r, row)])
        return r

    def size(self) -> int:
        return self.lattice.index()


def quotient(lat: Lattice) -> QuotientLevel:
    """The level Z^n / L."""
    return QuotientLevel(lat)
