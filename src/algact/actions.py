"""Algebraic monoid actions on Z^n and their hypothesis checkers.

An AlgebraicAction is a finite list of named injective integer matrices,
acting as a free or free-abelian monoid.  The checkers in this module decide
(or honestly report, where decision is out of reach) the standing properties
a rigidity analysis needs: finite-index images, non-automorphy, bounded
faithfulness, the constructible-subgroup family and its indices, torsion
eigenvalues, fixed-point freeness of group words, determinant-injectivity,
and exactness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .arith import FACTOR_BOUND, prime_factors
from .lattices import Lattice, image, intersect, preimage
from .matrices import Matrix, charpoly, power_products, right_kernel_int
from .polynomials import CyclotomicSplit, cyclotomic_split, format_poly, unit_factor_exactness

FREE = "free"
FREE_ABELIAN = "free-abelian"


class AlgebraicAction:
    """A monoid acting on Z^n by named injective integer matrices."""

    __slots__ = ("n", "gens", "monoid_kind")

    def __init__(self, n: int, gens, monoid_kind: str = FREE_ABELIAN):
        if monoid_kind not in (FREE, FREE_ABELIAN):
            raise ValueError(f"unknown monoid kind {monoid_kind!r}")
        gens = tuple((str(name), mat) for name, mat in gens)
        if not gens:
            raise ValueError("an action needs at least one generator")
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, mat in gens:
            if not isinstance(mat, Matrix) or not mat.is_square or mat.rows != n:
                raise ValueError(f"generator {name!r} is not a {n}x{n} matrix")
            if not mat.is_integral():
                raise ValueError(f"generator {name!r} must have integer entries")
            if mat.det() == 0:
                raise ValueError(f"generator {name!r} is singular (not injective)")
        if monoid_kind == FREE_ABELIAN:
            for (na, a), (nb, b) in itertools.combinations(gens, 2):
                if a * b != b * a:
                    raise ValueError(
                        f"free-abelian action needs commuting generators; {na!r} and {nb!r} do not commute"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "monoid_kind", monoid_kind)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicAction is immutable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.gens)

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        return tuple(mat for _, mat in self.gens)

    def __repr__(self) -> str:
        kind = self.monoid_kind
        return f"AlgebraicAction(n={self.n}, gens={list(self.names)}, {kind})"


# ---------------------------------------------------------------------------
# Standing assumptions
# ---------------------------------------------------------------------------


@dataclass
class StandingReport:
    fi_holds: bool
    non_automorphic: bool
    faithful_on_generators: bool
    faithful_note: str
    commuting: bool
    pc_holds: bool | None
    jf_status: str
    generator_dets: dict[str, int]


def check_standing(action: AlgebraicAction, word_bound: int = 6) -> StandingReport:
    """Report the standing assumptions for an action.

    Finite index holds once every generator is injective (checking the
    generators suffices, since images of finite-index subgroups compose).
    Faithfulness is pairwise distinctness of the generator matrices; for a
    free-abelian monoid it is additionally multiplicative independence,
    tested up to the word bound: a word den^-1 num is trivial exactly when
    num == den.  The constructor has already proved that the generators of
    a free-abelian action commute.
    """
    dets = {name: mat.det() for name, mat in action.gens}
    fi = all(d != 0 for d in dets.values())
    non_auto = any(abs(d) > 1 for d in dets.values())
    mats = action.matrices
    same = next(((na, nb) for (na, a), (nb, b) in itertools.combinations(action.gens, 2) if a == b), None)
    faithful = same is None
    note = "pairwise distinct generator matrices"
    if same:
        note = f"generators {same[0]!r} and {same[1]!r} have the same matrix"
    commuting = action.monoid_kind == FREE_ABELIAN or all(
        a * b == b * a for a, b in itertools.combinations(mats, 2)
    )
    if action.monoid_kind == FREE_ABELIAN and faithful:
        relation = next((pairs for pairs, num, den in _word_matrices(action, word_bound) if num == den), None)
        if relation is not None:
            faithful = False
            exps = dict(relation)
            note = f"multiplicative relation at exponents {tuple(exps.get(i, 0) for i in range(len(mats)))}"
        else:
            note = f"multiplicatively independent up to word length {word_bound}"
    if action.monoid_kind == FREE_ABELIAN:
        pc = True
        jf = "holds automatically: Ore monoid acting on a torsion-free group"
    else:
        pc = None
        jf = "assumed (automatic only for Ore monoids)"
    return StandingReport(fi, non_auto, faithful, note, commuting, pc, jf, dets)


# ---------------------------------------------------------------------------
# Constructible family
# ---------------------------------------------------------------------------


@dataclass
class ConstructibleFamily:
    """The depth-truncated closure of {Z^n} under images, preimages, meets.

    `rounds[k]` holds the lattices first reached in round k; round 0 is the
    ambient lattice.  An empty last round means the closure saturated within
    the depth bound.
    """

    action: AlgebraicAction
    lattices: tuple[Lattice, ...]
    saturated: bool
    derivations: dict[Lattice, tuple]
    rounds: tuple[tuple[Lattice, ...], ...]

    def indices(self) -> list[int]:
        return sorted(lat.index() for lat in self.lattices)

    def __contains__(self, lat: Lattice) -> bool:
        return lat in self.derivations


def constructible_family(action: AlgebraicAction, depth: int) -> ConstructibleFamily:
    """Semi-naive closure: each round combines only the frontier (the lattices
    the previous round reached first) with itself and with the older lattices,
    since every combination of older lattices alone was made in an earlier
    round."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    root = Lattice.standard(action.n)
    derivations: dict[Lattice, tuple] = {root: ("ambient",)}
    rounds = [(root,)]
    older: list[Lattice] = []
    for _ in range(depth):
        fresh = []
        for lat, how in _candidates(action, rounds[-1], older):
            if lat not in derivations:
                derivations[lat] = how
                fresh.append(lat)
        older.extend(rounds[-1])
        rounds.append(tuple(fresh))
        if not fresh:
            saturated = True
            break
    else:
        saturated = all(lat in derivations for lat, _ in _candidates(action, rounds[-1], older))
    ordered = sorted(derivations, key=lambda lat: (lat.index(), lat.basis.flat()))
    derivations = {lat: derivations[lat] for lat in ordered}
    return ConstructibleFamily(action, tuple(ordered), saturated, derivations, tuple(rounds))


def _candidates(action, frontier, older):
    """Yield (lattice, derivation) for every image and preimage of a frontier
    lattice and every meet of a frontier lattice with a later frontier
    lattice or an older one."""
    for lat in frontier:
        for name, mat in action.gens:
            yield image(mat, lat), ("image", name, lat)
            yield preimage(mat, lat), ("preimage", name, lat)
    for i, a in enumerate(frontier):
        for b in itertools.chain(frontier[i + 1 :], older):
            yield intersect(a, b), ("intersect", a, b)


# ---------------------------------------------------------------------------
# Fixed-point checkers
# ---------------------------------------------------------------------------


@dataclass
class ConditionFReport:
    holds_up_to_bound: bool
    word_bound: int
    failing_word: str | None
    words_checked: int
    single_generator_equivalence: dict | None


def check_condition_F(
    action: AlgebraicAction, word_bound: int = 6, chi: CyclotomicSplit | None = None
) -> ConditionFReport:
    """Check that id - w acts injectively for every nontrivial group word w
    up to the length bound, i.e. det(I - M_w) != 0 over Q; with M_w =
    den^-1 num, that is det(den - num) != 0.

    For a single generator the bounded check is upgraded to the exact
    statement: injectivity at every power is equivalent to the generator
    having no root-of-unity eigenvalue.  chi is the cyclotomic split of that
    generator's characteristic polynomial, when the caller has it.
    """
    failing = None
    checked = 0
    for pairs, num, den in _word_matrices(action, word_bound):
        checked += 1
        if (den - num).det() == 0:
            failing = _describe(pairs, action.names)
            break
    equivalence = None
    if len(action.gens) == 1:
        if chi is None:
            chi = cyclotomic_split(charpoly(action.matrices[0]))
        k = chi.least_order
        equivalence = {
            "no_root_of_unity_eigenvalue": k is None,
            "holds_at_every_power": k is None,
            "witness_order": k,
        }
    return ConditionFReport(failing is None, word_bound, failing, checked, equivalence)


def _word_matrices(action: AlgebraicAction, bound: int):
    """Yield (pairs, num, den) for every nontrivial group word of length at
    most bound, pairs being its (generator index, nonzero exponent) letters
    and den^-1 num its matrix.

    For a free-abelian monoid the words are exponent vectors e by increasing
    length, each followed by its negation, and the word is the fraction
    M^(e+) (M^(e-))^-1 of two monoid elements: num and den are integer power
    products, and nothing is inverted.  For a free monoid they are reduced
    words depth first, den is the identity, and num is the prefix's matrix
    times one letter, each generator being inverted once."""
    mats = action.matrices
    ident = Matrix.identity(action.n)
    if action.monoid_kind == FREE_ABELIAN:
        powers = {(0,) * len(mats): ident}
        for products in power_products(mats, bound):
            powers.update(products)
            for split in products:
                # Every sign pattern on the entries after the first nonzero one.
                first = next(i for i, e in enumerate(split) if e)
                choices = [(e, -e) if e and i > first else (e,) for i, e in enumerate(split)]
                for vec in itertools.product(*choices):
                    pairs = tuple([(i, e) for i, e in enumerate(vec) if e])
                    num = powers[tuple([max(e, 0) for e in vec])]
                    den = powers[tuple([max(-e, 0) for e in vec])]
                    yield pairs, num, den
                    yield tuple([(i, -e) for i, e in pairs]), den, num
        return
    letters = [((i, 1), m) for i, m in enumerate(mats)] + [((i, -1), m.inverse()) for i, m in enumerate(mats)]

    def extend(word, mat):
        if word:
            yield tuple(word), mat, ident
        if len(word) == bound:
            return
        for (i, s), step in letters:
            if word and word[-1][0] == i and word[-1][1] * s < 0:
                continue
            yield from extend(word + [(i, s)], mat * step)

    yield from extend([], ident)


def _describe(pairs, names) -> str:
    """A word as text, e.g. 's^2 t^-1'."""
    return " ".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in pairs)


@dataclass
class SFReport:
    status: str  # "holds" | "fails" | "inconclusive"
    witness_exponents: tuple[int, ...] | None
    detail: str


def check_SF_via_det(action: AlgebraicAction) -> SFReport:
    """Strong faithfulness via determinants: is k -> prod det(M_i)^{k_i}
    injective on Z^m?

    Decided through the prime-exponent matrix of the |det| values plus the
    sign condition; a nontrivial integer kernel always yields an exponent
    vector whose determinant product is exactly 1.
    """
    if action.monoid_kind != FREE_ABELIAN:
        raise ValueError("determinant test applies to free-abelian actions")
    dets = [mat.det() for mat in action.matrices]
    exponents = []
    all_primes: list[int] = []
    for d in dets:
        factors, rest = prime_factors(abs(d), bound=FACTOR_BOUND)
        if rest != 1:
            return SFReport(
                "inconclusive",
                None,
                f"unfactored determinant: |{d}| has a factor {rest} above the trial-division bound",
            )
        exponents.append(factors)
        for p in factors:
            if p not in all_primes:
                all_primes.append(p)
    m = len(dets)
    if not all_primes:
        # Every determinant is a unit: k=(2,0,...) already maps to 1.
        witness = tuple(2 if i == 0 else 0 for i in range(m))
        return SFReport("fails", witness, "all determinants are units")
    rows = [[exponents[j].get(p, 0) for j in range(m)] for p in all_primes]
    kernel = right_kernel_int(Matrix(rows))
    if not kernel:
        return SFReport("holds", None, "prime-exponent matrix has trivial kernel")
    witness = _sign_adjusted_witness(kernel, dets)
    return SFReport("fails", witness, "nontrivial kernel of the prime-exponent matrix")


def _sign_adjusted_witness(kernel, dets):
    def sign_of(vec):
        s = 1
        for d, e in zip(dets, vec):
            if d < 0 and e % 2:
                s = -s
        return s

    for vec in kernel:
        if sign_of(vec) == 1:
            return tuple(vec)
    if len(kernel) >= 2:
        combo = tuple(a + b for a, b in zip(kernel[0], kernel[1]))
        if sign_of(combo) == 1:
            return combo
    return tuple(2 * x for x in kernel[0])


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------


@dataclass
class ExactnessReport:
    verdict: str  # "exact" | "not_exact" | "undecided"
    decided: bool
    basis: str
    empirical_indices: list[int]
    strictly_increasing: bool
    family_saturated: bool
    stable_intersection_index: int | None
    criterion: dict | None
    caveat: str | None


def exactness(family: ConstructibleFamily, chi: CyclotomicSplit | None = None) -> ExactnessReport:
    """Two-part exactness verdict for the action of a constructible family.

    Empirical part: track the index of the total intersection of the depth-k
    family, round by round.  If the family saturates, the total intersection
    equals the intersection of the whole (finite) family, which is full rank,
    so the action is definitively not exact.

    Criterion part (single generator): `unit_factor_exactness` on the
    cyclotomic split of the characteristic polynomial, a theorem for every
    injective integer matrix.  chi is that split, when the caller has it.
    """
    action = family.action
    total = Lattice.standard(action.n)
    indices = []
    for frontier in family.rounds:
        total = reduce(intersect, frontier, total)
        indices.append(total.index())
    strictly = all(a < b for a, b in zip(indices, indices[1:]))

    if family.saturated:
        return ExactnessReport(
            "not_exact",
            True,
            "the constructible family is finite, so its total intersection is a full-rank subgroup",
            indices,
            strictly,
            True,
            indices[-1],
            None,
            None,
        )
    if len(action.gens) == 1:
        mat = action.matrices[0]
        if chi is None:
            chi = cyclotomic_split(charpoly(mat))
        criterion = {
            "charpoly": format_poly(chi.poly),
            "cyclotomic_divisor": chi.least_order,
            "unimodular_generator": abs(chi.poly[0]) == 1,
        }
        verdict, basis, caveat = unit_factor_exactness(chi)
        return ExactnessReport(
            verdict, verdict == "not_exact", basis, indices, strictly, False, None, criterion, caveat
        )
    basis = "multi-generator action: empirical evidence only"
    return ExactnessReport("undecided", False, basis, indices, strictly, False, None, None, None)
