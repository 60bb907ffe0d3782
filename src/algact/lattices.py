"""Full-rank sublattices of Z^n and their finite quotients.

A lattice is stored by its canonical Hermite-form row basis, so two lattices
are equal as subgroups exactly when their `basis` matrices are equal.  Only
full-rank lattices are representable; constructors reject anything else.

QuotientLevel materializes one finite stage Z^n / L with its cyclic
decomposition and canonical coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .matrices import Matrix, hnf, left_kernel_int, snf


class Lattice:
    __slots__ = ("n", "basis", "_adj", "_det")

    def __init__(self, basis: Matrix):
        if not basis.is_square or not basis.is_integral():
            raise ValueError("lattice basis must be a square integer matrix")
        h, _ = hnf(basis)
        if any(h[i, i] == 0 for i in range(h.rows)):
            raise ValueError("lattice basis is rank-deficient")
        self._set_hermite_basis(h)

    def _set_hermite_basis(self, h: Matrix) -> None:
        object.__setattr__(self, "n", h.rows)
        object.__setattr__(self, "basis", h)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_det", None)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls(Matrix.identity(n))

    @classmethod
    def scaled(cls, n: int, k: int) -> "Lattice":
        """k * Z^n."""
        return cls(Matrix.identity(n) * k)

    @classmethod
    def from_generators(cls, n: int, vectors) -> "Lattice":
        """Lattice generated by the given integer vectors; must have rank n."""
        vectors = [tuple(v) for v in vectors]
        if not vectors:
            raise ValueError("no generators supplied")
        if any(len(v) != n for v in vectors):
            raise ValueError("generator length does not match the ambient rank")
        h, _ = hnf(Matrix(vectors))
        rows = [h.row(i) for i in range(h.rows) if any(h.row(i))]
        if len(rows) < n:
            raise ValueError("rank-deficient generating set")
        # n nonzero Hermite rows in n columns are already the canonical basis.
        lat = cls.__new__(cls)
        lat._set_hermite_basis(Matrix(rows))
        return lat

    # -- basic queries ---------------------------------------------------------

    def index(self) -> int:
        """#(Z^n / L) = |det basis|."""
        return abs(self._cached_det())

    def member(self, x) -> bool:
        """Is the integer vector x in the lattice?"""
        x = tuple(x)
        if len(x) != self.n:
            raise ValueError("vector length mismatch")
        adj, det = self._adj_det()
        # x = c * B  <=>  c = x * B^{-1} = x * adj(B) / det integral.
        for j in range(self.n):
            s = sum(x[i] * adj[i][j] for i in range(self.n))
            if s % det:
                return False
        return True

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.n != self.n:
            raise ValueError("ambient ranks differ")
        return all(self.member(other.basis.row(i)) for i in range(self.n))

    def _cached_det(self) -> int:
        if self._det is None:
            object.__setattr__(self, "_det", self.basis.det())
        return self._det

    def _adj_det(self):
        if self._adj is None:
            adj = self.basis.adjugate()
            object.__setattr__(self, "_adj", tuple(adj.entries()))
        return self._adj, self._cached_det()

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({self.basis!r})"


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Lattice-theoretic meet L1 ∩ L2."""
    _same_rank(l1, l2)
    stacked = l1.basis.stack(-l2.basis)
    rows = []
    for vec in left_kernel_int(stacked):
        u = vec[: l1.n]
        rows.append(l1.basis.apply_row(u))
    return Lattice.from_generators(l1.n, rows)


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
    """{x in Z^n : M x in L}, computed exactly through the adjugate.

    M^{-1} L is the rational lattice spanned by B * adj(M)^T / det(M); its
    integer points are (rowspan(B * adj(M)^T) ∩ det(M) Z^n) / det(M).
    """
    _check_map(m, lat)
    det = m.det()
    adj_t = m.adjugate().transpose()
    scaled = lat.basis * adj_t
    inner = intersect(Lattice.from_generators(lat.n, scaled.entries()), Lattice.scaled(lat.n, abs(det)))
    rows = [[x // det for x in inner.basis.row(i)] for i in range(lat.n)]
    return Lattice.from_generators(lat.n, rows)


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
    """The finite group Z^n / L in cyclic coordinates.

    `factors` is the Smith chain d1 | d2 | ... | dn with product = index(L).
    `to_cyclic` maps x to its coordinates in ⊕ Z/d_i; `reduce` returns the
    canonical representative of x + L (the unique one whose cyclic
    coordinates lie in [0, d_i)).
    """

    lattice: Lattice
    factors: tuple[int, ...]
    _v: Matrix
    _v_inv: Matrix

    def to_cyclic(self, x) -> tuple[int, ...]:
        y = self._v.apply_row(tuple(x))
        return tuple(c % d for c, d in zip(y, self.factors))

    def from_cyclic(self, coords) -> tuple[int, ...]:
        coords = tuple(c % d for c, d in zip(coords, self.factors))
        return self._v_inv.apply_row(coords)

    def reduce(self, x) -> tuple[int, ...]:
        return self.from_cyclic(self.to_cyclic(x))

    def size(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def representatives(self):
        """All canonical coset representatives (index(L) many)."""
        for coords in product(*(range(d) for d in self.factors)):
            yield self.from_cyclic(coords)


def quotient(lat: Lattice) -> QuotientLevel:
    """Cyclic decomposition of Z^n / L via the Smith form of the basis."""
    s, _, v = snf(lat.basis)
    factors = tuple(s[i, i] for i in range(lat.n))
    return QuotientLevel(lat, factors, v, v.inverse())
