"""Finite-level simulation of the partial-translation machinery.

The profinite completion is never materialized; everything happens at one
finite level Z^n / C for a constructible C.  A monoid word s induces a
well-defined injection (Z^n / s^{-1}C) -> (Z^n / C), translations act on the
level transitively, and the semidirect product carries the exact affine
arithmetic used by the word-identity checkers.

Arrows are only simulated for monoid words, their inverses, and translation
compositions; general group elements carry no constructive domain
description at a finite level, so the simulator does not guess one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import AlgebraicAction, Word
from .lattices import Lattice, QuotientLevel, image, lattice_sum, preimage, quotient
from .matrices import Matrix, charpoly
from .polynomials import _scalar


@dataclass(frozen=True)
class SemidirectElem:
    """A pair (vector, invertible matrix) acting affinely: x -> vec + mat*x.

    The group law is (a, g)(b, h) = (a + g b, g h) with identity (0, I) and
    inverse (a, g)^{-1} = (-g^{-1} a, g^{-1}); all arithmetic is exact.
    """

    vec: tuple
    mat: Matrix

    def __post_init__(self):
        if len(self.vec) != self.mat.rows or not self.mat.is_square:
            raise ValueError("vector length must match the matrix size")
        if self.mat.det() == 0:
            raise ValueError("group component must be invertible")
        object.__setattr__(self, "vec", tuple(_scalar(Fraction(v)) for v in self.vec))

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

    def inverse(self) -> "SemidirectElem":
        inv = self.mat.inverse()
        return SemidirectElem(tuple(-x for x in inv.apply(self.vec)), inv)

    def __pow__(self, k: int) -> "SemidirectElem":
        base = self if k >= 0 else self.inverse()
        out = SemidirectElem.identity(len(self.vec))
        for _ in range(abs(k)):
            out = out * base
        return out

    def act(self, point) -> tuple:
        moved = self.mat.apply(tuple(point))
        return tuple(a + b for a, b in zip(self.vec, moved))


@dataclass
class LevelMap:
    """The injection (Z^n / s^{-1}C) -> (Z^n / C) induced by a monoid word."""

    word: Word
    matrix: Matrix
    level: Lattice
    source: QuotientLevel
    target: QuotientLevel
    table: dict[tuple, tuple]
    image_index: int

    def __call__(self, x) -> tuple:
        return self.target.reduce(self.matrix.apply(tuple(x)))

    def source_size(self) -> int:
        return self.source.size()


def level_map(action: AlgebraicAction, word: Word, level: Lattice) -> LevelMap:
    """Materialize x + s^{-1}C  |->  s.x + C on canonical representatives.

    The map is injective because s^{-1}C is the preimage of C; its image has
    index [Z^n : s Z^n + C] in the target, which the construction verifies.
    """
    if not word.is_monoid_word() and not word.is_identity():
        raise ValueError("level maps are defined for monoid words")
    if level.n != action.n:
        raise ValueError("level does not live in the action's ambient space")
    mat = word.evaluate(action)
    source = quotient(preimage(mat, level))
    target = quotient(level)
    n, factors = action.n, source.factors
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
    return LevelMap(word, mat, level, source, target, table, im_index)


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


def clear_denominators(chi) -> tuple[int, ...]:
    """kappa coefficients of the integer-cleared characteristic polynomial.

    Returns (kappa_0, ..., kappa_d) where kappa_d > 0 is minimal with
    kappa_d * chi integral and kappa_d z^d - kappa_{d-1} z^{d-1} - ... -
    kappa_0 = kappa_d * chi.
    """
    kd = chi.denominator_lcm()
    p = chi * kd
    d = chi.degree
    kappas = [-p[i] for i in range(d)] + [kd]
    return tuple(int(k) for k in kappas)


def verify_word_identity(
    action: AlgebraicAction, word: Word, samples=None
) -> WordIdentityReport:
    """Check the two faces of the characteristic-polynomial identity.

    Module side: kappa_d M^d x = sum_i kappa_i M^i x (Cayley-Hamilton on
    integer samples).  Semidirect side: the element (0, M)^d (kappa_d x, I)
    equals the alternating product (kappa_0 x, I)(0, M) ... (kappa_{d-1} x,
    I)(0, M).  A failure on any sample is an arithmetic bug, reported with a
    witness.  Also checks kappa_d * det(I - M) = kappa_d - sum kappa_i.
    """
    mat = word.evaluate(action)
    chi = charpoly(mat)
    kappas = clear_denominators(chi)
    d = chi.degree
    n = action.n
    if samples is None:
        samples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        samples.append((1,) * n)
    samples = [tuple(s) for s in samples]
    module_ok = True
    sd_ok = True
    witness = None
    powers = [Matrix.identity(n)]
    for _ in range(d):
        powers.append(mat * powers[-1])
    for x in samples:
        lhs = tuple(kappas[d] * v for v in powers[d].apply(x))
        rhs = (0,) * n
        for i in range(d):
            term = powers[i].apply(x)
            rhs = tuple(r + kappas[i] * t for r, t in zip(rhs, term))
        if lhs != rhs:
            module_ok = False
            witness = x
            break
        s_elem = SemidirectElem.linear(mat)
        left = (s_elem**d if d else SemidirectElem.identity(n)) * SemidirectElem.translation(
            tuple(kappas[d] * v for v in x)
        )
        right = SemidirectElem.identity(n)
        for i in range(d):
            right = right * SemidirectElem.translation(tuple(kappas[i] * v for v in x)) * s_elem
        if left != right:
            sd_ok = False
            witness = x
            break
    epsilon = kappas[d] - sum(kappas[:d])
    eps_ok = kappas[d] * (Matrix.identity(n) - mat).det() == epsilon
    return WordIdentityReport(
        word.describe(action),
        d,
        kappas,
        epsilon,
        module_ok,
        sd_ok,
        eps_ok,
        len(samples),
        witness,
    )

