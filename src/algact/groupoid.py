"""Finite-level simulation of the partial-translation machinery.

The profinite completion is never materialized; everything happens at one
finite level Z^n / C for a constructible C.  An injective integer matrix s
(a generator, or a monoid word evaluated) induces a well-defined injection
(Z^n / s^{-1}C) -> (Z^n / C), translations act on the level transitively,
and each word matrix satisfies its characteristic-polynomial identity.
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


def translation_orbit_size(level: Lattice) -> int:
    """Size of each orbit on Z^n / C under the standard-basis translations:
    x + (<e_1, ..., e_n> + C) / C has [Z^n : C] / [Z^n : <e_1, ..., e_n> + C]
    points, the whole level (the finite-stage shadow of minimality)."""
    return level.index() // lattice_sum(Lattice.standard(level.n), level).index()


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
    -chi_{d-1}, 1) and M^d = sum_i kappa_i M^i.  That identity is checked on
    the unit vectors and the all-ones vector (Cayley-Hamilton); a failure on
    any sample is an arithmetic bug, reported with a witness.  The semidirect
    face is the same identity: (0, M)^d (x, I) = (M^d x, M^d) and the product
    (kappa_0 x, I)(0, M) ... (kappa_{d-1} x, I)(0, M) = (sum_i kappa_i M^i x,
    M^d), so it holds exactly when the module identity holds on x.  M must be
    invertible (chi_0 != 0) for (0, M) to be a group element.  Also checks
    det(I - M) = 1 - sum kappa_i.
    """
    if not mat.is_square or not mat.is_integral():
        raise ValueError("word identities need a square integer matrix")
    chi = charpoly(mat)
    if chi[0] == 0:
        raise ValueError("word identities need an invertible matrix")
    d = chi.degree
    kappas = tuple(-chi[i] for i in range(d)) + (1,)
    n = mat.rows
    samples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    samples.append((1,) * n)
    powers = [Matrix.identity(n)]
    for _ in range(d):
        powers.append(mat * powers[-1])
    witness = None
    for x in samples:
        rhs = (0,) * n
        for i in range(d):
            term = powers[i].apply(x)
            rhs = tuple(r + kappas[i] * t for r, t in zip(rhs, term))
        if powers[d].apply(x) != rhs:
            witness = x
            break
    module_ok = witness is None
    epsilon = 1 - sum(kappas[:d])
    eps_ok = (Matrix.identity(n) - mat).det() == epsilon
    return WordIdentityReport(
        name,
        d,
        kappas,
        epsilon,
        module_ok,
        module_ok,
        eps_ok,
        len(samples),
        witness,
    )
