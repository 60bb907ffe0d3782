"""Finite-level simulation of the partial-translation machinery.

The profinite completion is never materialized; everything happens at one
finite level Z^n / C for a constructible C.  An injective integer matrix s
(a generator, or a monoid word evaluated) induces a well-defined injection
(Z^n / s^{-1}C) -> (Z^n / C), and each word matrix satisfies its
characteristic-polynomial identity.  The translations by e_1, ..., e_n act on
every level transitively, since <e_1, ..., e_n> + C = Z^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .lattices import Lattice, QuotientLevel, image, lattice_sum, preimage, quotient
from .matrices import Matrix, charpoly


@dataclass
class LevelMap:
    """The injection (Z^n / s^{-1}C) -> (Z^n / C) induced by a matrix s."""

    source: QuotientLevel
    table: dict[tuple, tuple]
    image_index: int


def level_map(mat: Matrix, target: QuotientLevel) -> LevelMap:
    """Materialize x + s^{-1}C  |->  s.x + C on the Hermite-box representatives
    of both levels, for an injective integer matrix s and the target level Z^n / C.

    The map is injective because s^{-1}C is the preimage of C; its image has
    index [Z^n : s Z^n + C] in the target, which the construction verifies.
    """
    level = target.lattice
    source = quotient(preimage(mat, level))
    h = source.lattice.basis
    box = product(*(range(h[i, i]) for i in range(h.rows)))
    table = {x: target.reduce(mat.apply(x)) for x in box}
    im_index = lattice_sum(image(mat, Lattice.standard(level.n)), level).index()
    if len(table) * im_index != level.index():
        raise ArithmeticError("level map image has the wrong index")
    return LevelMap(source, table, im_index)


# ---------------------------------------------------------------------------
# Word identities
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
    """Check the characteristic-polynomial identity for the square integer
    matrix of the word called name.

    chi is monic with integer coefficients, so kappa = (-chi_0, ...,
    -chi_{d-1}, 1) and M^d = sum_i kappa_i M^i.  That identity is checked once,
    as the matrix chi(M) = 0 evaluated by Horner's rule: its n columns are its
    values on the unit vectors (Cayley-Hamilton).  A nonzero column j is an
    arithmetic bug, reported with the witness e_j for the first such j.  The
    semidirect face is the same identity: (0, M)^d (x, I) = (M^d x, M^d) and
    the product (kappa_0 x, I)(0, M) ... (kappa_{d-1} x, I)(0, M) = (sum_i
    kappa_i M^i x, M^d), so it holds exactly when the module identity holds on
    x.  M must be invertible (chi_0 != 0) for (0, M) to be a group element.
    Also checks det(I - M) = 1 - sum kappa_i, which compares the Bareiss
    determinant with the Krylov characteristic polynomial.
    """
    if not mat.is_square or not mat.is_integral():
        raise ValueError("word identities need a square integer matrix")
    chi = charpoly(mat)
    if chi[0] == 0:
        raise ValueError("word identities need an invertible matrix")
    d = chi.degree
    kappas = tuple(-chi[i] for i in range(d)) + (1,)
    n = mat.rows
    identity = Matrix.identity(n)
    value = identity * 0
    for i in range(d, -1, -1):
        value = value * mat + identity * chi[i]
    column = next((j for j in range(n) if any(value.col(j))), None)
    witness = None if column is None else tuple(int(i == column) for i in range(n))
    module_ok = witness is None
    epsilon = 1 - sum(kappas[:d])
    eps_ok = (identity - mat).det() == epsilon
    return WordIdentityReport(
        name,
        d,
        kappas,
        epsilon,
        module_ok,
        module_ok,
        eps_ok,
        n,
        witness,
    )
