"""Finite-level simulation of the partial-translation machinery.

The profinite completion is never materialized; everything happens at one
finite level Z^n / C for a constructible C.  An injective integer matrix s
(a generator, or a monoid word evaluated) induces a well-defined injection
(Z^n / s^{-1}C) -> (Z^n / C), translations act on the level transitively,
and the semidirect product carries the exact affine arithmetic used by the
word-identity checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattices import Lattice, QuotientLevel, image, lattice_sum, preimage, quotient
from .matrices import Matrix, charpoly


@dataclass(frozen=True)
class SemidirectElem:
    """A pair (vector, invertible matrix) with the group law
    (a, g)(b, h) = (a + g b, g h) and identity (0, I); all arithmetic is exact.
    """

    vec: tuple
    mat: Matrix

    def __post_init__(self):
        if len(self.vec) != self.mat.rows or not self.mat.is_square:
            raise ValueError("vector length must match the matrix size")
        if self.mat.det() == 0:
            raise ValueError("group component must be invertible")

    @classmethod
    def identity(cls, n: int) -> "SemidirectElem":
        return cls((0,) * n, Matrix.identity(n))

    @classmethod
    def translation(cls, vec) -> "SemidirectElem":
        vec = tuple(vec)
        return cls(vec, Matrix.identity(len(vec)))

    @classmethod
    def linear(cls, mat: Matrix) -> "SemidirectElem":
        return cls((0,) * mat.rows, mat)

    def __mul__(self, other: "SemidirectElem") -> "SemidirectElem":
        if len(self.vec) != len(other.vec):
            raise ValueError("rank mismatch")
        moved = self.mat.apply(other.vec)
        return SemidirectElem(
            tuple(a + b for a, b in zip(self.vec, moved)), self.mat * other.mat
        )

    def __pow__(self, k: int) -> "SemidirectElem":
        if k < 0:
            raise ValueError("negative semidirect power")
        out = SemidirectElem.identity(len(self.vec))
        for _ in range(k):
            out = out * self
        return out


@dataclass
class LevelMap:
    """The injection (Z^n / s^{-1}C) -> (Z^n / C) induced by a matrix s."""

    source: QuotientLevel
    table: dict[tuple, tuple]
    image_index: int


def level_map(mat: Matrix, target: QuotientLevel) -> LevelMap:
    """Materialize x + s^{-1}C  |->  s.x + C on canonical representatives,
    for an injective integer matrix s and the target level Z^n / C.

    The map is injective because s^{-1}C is the preimage of C; its image has
    index [Z^n : s Z^n + C] in the target, which the construction verifies.
    """
    level = target.lattice
    source = quotient(preimage(mat, level))
    n, factors = level.n, source.factors
    # Source coordinates c give the representative sum c_i g_i, g_i = from_cyclic(e_i),
    # and image coordinates sum c_i t_i, t_i = to_cyclic(M g_i) (from_cyclic reduces).
    # An odometer walks c: advancing digit i resets each later digit j from d_j - 1
    # to 0, moving (rep, coords) by (g_i, t_i) - sum_{j > i} (d_j - 1)(g_j, t_j).
    steps, carry = [], (0,) * (2 * n)
    for i in reversed(range(n)):
        g = source.from_cyclic(tuple(int(i == j) for j in range(n)))
        pair = g + target.to_cyclic(mat.apply(g))
        steps.append((i, tuple(a - b for a, b in zip(pair, carry))))
        carry = tuple(b + (factors[i] - 1) * a for a, b in zip(pair, carry))
    digits, point, table = [0] * n, (0,) * (2 * n), {}
    while True:
        table[point[:n]] = target.from_cyclic(point[n:])
        for i, step in steps:
            if digits[i] + 1 < factors[i]:
                digits[i] += 1
                break
            digits[i] = 0
        else:
            break
        point = tuple(a + b for a, b in zip(point, step))
    im_index = lattice_sum(image(mat, Lattice.standard(n)), level).index()
    if len(table) * im_index != level.index():
        raise ArithmeticError("level map image has the wrong index")
    return LevelMap(source, table, im_index)


def translation_orbit_size(level: Lattice) -> int:
    """Size of each orbit on Z^n / C under the standard-basis translations:
    x + (<e_1, ..., e_n> + C) / C has [Z^n : C] / [Z^n : <e_1, ..., e_n> + C]
    points, the whole level (the finite-stage shadow of minimality)."""
    return level.index() // lattice_sum(Lattice.standard(level.n), level).index()


# ---------------------------------------------------------------------------
# Word identities in the semidirect product
# ---------------------------------------------------------------------------


@dataclass
class WordIdentityReport:
    word: str
    degree: int
    kappas: tuple[int, ...]  # (kappa_0, ..., kappa_d)
    epsilon: int
    module_identity_holds: bool
    semidirect_identity_holds: bool
    epsilon_identity_holds: bool
    samples_checked: int
    witness: tuple | None

    @property
    def all_hold(self) -> bool:
        return (
            self.module_identity_holds
            and self.semidirect_identity_holds
            and self.epsilon_identity_holds
        )


def verify_word_identity(name: str, mat: Matrix) -> WordIdentityReport:
    """Check the two faces of the characteristic-polynomial identity for the
    square integer matrix of the word called name.

    chi is monic with integer coefficients, so kappa = (-chi_0, ...,
    -chi_{d-1}, 1) and M^d = sum_i kappa_i M^i.  Module side: that identity
    on the unit vectors and the all-ones vector (Cayley-Hamilton).
    Semidirect side: the element (0, M)^d (x, I) equals the alternating
    product (kappa_0 x, I)(0, M) ... (kappa_{d-1} x, I)(0, M).  A failure on
    any sample is an arithmetic bug, reported with a witness.  Also checks
    det(I - M) = 1 - sum kappa_i.
    """
    if not mat.is_square or not mat.is_integral():
        raise ValueError("word identities need a square integer matrix")
    chi = charpoly(mat)
    d = chi.degree
    kappas = tuple(-chi[i] for i in range(d)) + (1,)
    n = mat.rows
    samples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    samples.append((1,) * n)
    module_ok = True
    sd_ok = True
    witness = None
    powers = [Matrix.identity(n)]
    for _ in range(d):
        powers.append(mat * powers[-1])
    s_elem = SemidirectElem.linear(mat)
    for x in samples:
        rhs = (0,) * n
        for i in range(d):
            term = powers[i].apply(x)
            rhs = tuple(r + kappas[i] * t for r, t in zip(rhs, term))
        if powers[d].apply(x) != rhs:
            module_ok = False
            witness = x
            break
        left = s_elem**d * SemidirectElem.translation(x)
        right = SemidirectElem.identity(n)
        for i in range(d):
            right = right * SemidirectElem.translation(tuple(kappas[i] * v for v in x)) * s_elem
        if left != right:
            sd_ok = False
            witness = x
            break
    epsilon = 1 - sum(kappas[:d])
    eps_ok = (Matrix.identity(n) - mat).det() == epsilon
    return WordIdentityReport(
        name,
        d,
        kappas,
        epsilon,
        module_ok,
        sd_ok,
        eps_ok,
        len(samples),
        witness,
    )
