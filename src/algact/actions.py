"""Algebraic monoid actions on Z^n and their hypothesis checkers.

An AlgebraicAction is a finite list of named injective integer matrices,
acting as a free or free-abelian monoid.  The checkers in this module decide
(or honestly report, where decision is out of reach) the standing properties
a rigidity analysis needs: finite-index images, non-automorphy, bounded
faithfulness, the constructible-subgroup family and its index set, torsion
eigenvalues, fixed-point freeness of group words, determinant-injectivity,
and exactness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .arith import prime_factors
from .lattices import Lattice, image, intersect, preimage
from .matrices import Matrix, charpoly, is_companion, right_kernel_int
from .polynomials import Poly, cyclotomic_divisor, format_poly

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

    def matrix(self, key) -> Matrix:
        if isinstance(key, int):
            return self.gens[key][1]
        for name, mat in self.gens:
            if name == key:
                return mat
        raise KeyError(key)

    def __repr__(self) -> str:
        kind = self.monoid_kind
        return f"AlgebraicAction(n={self.n}, gens={list(self.names)}, {kind})"


@dataclass(frozen=True)
class Word:
    """A word in the acting monoid (or its group of fractions).

    Pairs are (generator index, exponent); negative exponents step into the
    globalization and evaluate to rational matrices.
    """

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Word":
        cleaned = tuple((int(i), int(e)) for i, e in pairs if e != 0)
        return cls(cleaned)

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, index: int, exp: int = 1) -> "Word":
        return cls.from_pairs([(index, exp)])

    @classmethod
    def from_exponents(cls, exps) -> "Word":
        return cls.from_pairs((i, e) for i, e in enumerate(exps))

    def is_identity(self) -> bool:
        return not self.pairs

    def is_monoid_word(self) -> bool:
        return all(e > 0 for _, e in self.pairs)

    def length(self) -> int:
        return sum(abs(e) for _, e in self.pairs)

    def evaluate(self, action: AlgebraicAction, allow_inverses: bool = False) -> Matrix:
        out = Matrix.identity(action.n)
        for i, e in self.pairs:
            if e < 0 and not allow_inverses:
                raise ValueError("negative exponent in a monoid word")
            out = out * (action.matrix(i) ** e)
        return out

    def describe(self, action: AlgebraicAction) -> str:
        if not self.pairs:
            return "1"
        parts = []
        for i, e in self.pairs:
            name = action.names[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)


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
    tested up to the word bound.
    """
    dets = {name: mat.det() for name, mat in action.gens}
    fi = all(d != 0 for d in dets.values())
    non_auto = any(abs(d) > 1 for d in dets.values())
    mats = action.matrices
    faithful = len(set(mats)) == len(mats)
    note = "pairwise distinct generator matrices"
    commuting = all(a * b == b * a for a, b in itertools.combinations(mats, 2))
    if action.monoid_kind == FREE_ABELIAN and faithful:
        ident = Matrix.identity(action.n)
        relation = next((word for word, mat in _word_matrices(action, word_bound) if mat == ident), None)
        if relation is not None:
            faithful = False
            exps = dict(relation.pairs)
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


def _signed_vectors(num, total):
    """All integer vectors with |v|_1 == total, first nonzero positive."""
    for split in itertools.product(range(total + 1), repeat=num):
        if sum(split) != total:
            continue
        nonzero = [i for i, e in enumerate(split) if e]
        if not nonzero:
            continue
        for signs in itertools.product((1, -1), repeat=len(nonzero) - 1):
            vec = list(split)
            for i, s in zip(nonzero[1:], signs):
                vec[i] *= s
            yield tuple(vec)


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
    depth: int
    lattices: tuple[Lattice, ...]
    saturated: bool
    derivations: dict[Lattice, tuple]
    rounds: tuple[tuple[Lattice, ...], ...]

    def indices(self) -> list[int]:
        return sorted(lat.index() for lat in self.lattices)

    def inclusion_pairs(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with lattice i strictly contained in lattice j."""
        out = []
        for i, a in enumerate(self.lattices):
            for j, b in enumerate(self.lattices):
                if i != j and b.contains_lattice(a):
                    out.append((i, j))
        return out

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
    return ConstructibleFamily(action, depth, tuple(ordered), saturated, derivations, tuple(rounds))


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


def replay_derivation(family: ConstructibleFamily, lat: Lattice) -> Lattice:
    """Recompute a family member from its recorded derivation."""
    kind, *rest = family.derivations[lat]
    if kind == "ambient":
        return Lattice.standard(family.action.n)
    if kind == "image":
        name, parent = rest
        return image(family.action.matrix(name), replay_derivation(family, parent))
    if kind == "preimage":
        name, parent = rest
        return preimage(family.action.matrix(name), replay_derivation(family, parent))
    if kind == "intersect":
        a, b = rest
        return intersect(replay_derivation(family, a), replay_derivation(family, b))
    raise ValueError(f"unknown derivation {kind!r}")


def index_set(action: AlgebraicAction, depth: int) -> set[int]:
    return {lat.index() for lat in constructible_family(action, depth).lattices}


def index_primes(action: AlgebraicAction, depth: int) -> set[int]:
    primes: set[int] = set()
    for idx in index_set(action, depth):
        factors, rest = prime_factors(idx)
        assert rest == 1
        primes.update(factors)
    return primes


# ---------------------------------------------------------------------------
# Eigenvalue / fixed-point checkers
# ---------------------------------------------------------------------------


def has_root_of_unity_eigenvalue(m: Matrix, chi: Poly | None = None) -> tuple[bool, int | None]:
    """Does M have an eigenvalue that is a root of unity?  Returns (flag, k).

    Complete: an order-k root of unity has degree phi(k) <= n, and the scan
    covers every k with phi(k) <= n.  chi is the characteristic polynomial
    of M, when the caller has it.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    k = cyclotomic_divisor(charpoly(m) if chi is None else chi)
    return k is not None, k


@dataclass
class ConditionFReport:
    holds_up_to_bound: bool
    word_bound: int
    failing_word: str | None
    words_checked: int
    single_generator_equivalence: dict | None


def check_condition_F(
    action: AlgebraicAction, word_bound: int = 6, chi: Poly | None = None
) -> ConditionFReport:
    """Check that id - w acts injectively for every nontrivial group word w
    up to the length bound, i.e. det(I - M_w) != 0 over Q.

    For a single generator the bounded check is upgraded to the exact
    statement: injectivity at every power is equivalent to the generator
    having no root-of-unity eigenvalue.  chi is the characteristic
    polynomial of that generator, when the caller has it.
    """
    ident = Matrix.identity(action.n)
    failing = None
    checked = 0
    for word, mat in _word_matrices(action, word_bound):
        checked += 1
        if (ident - mat).det() == 0:
            failing = word.describe(action)
            break
    equivalence = None
    if len(action.gens) == 1:
        rou, k = has_root_of_unity_eigenvalue(action.matrices[0], chi)
        equivalence = {
            "no_root_of_unity_eigenvalue": not rou,
            "holds_at_every_power": not rou,
            "witness_order": k,
        }
    return ConditionFReport(failing is None, word_bound, failing, checked, equivalence)


def _word_matrices(action: AlgebraicAction, bound: int):
    """Yield (word, matrix) for every nontrivial group word of length at most
    bound: exponent vectors by increasing length, each followed by its
    negation, for a free-abelian monoid; reduced words depth first for a free
    one.  A word's matrix is a product of table powers, or its prefix's matrix
    times one letter, and each generator is inverted once."""
    mats = action.matrices
    if action.monoid_kind == FREE_ABELIAN:
        tables = [{0: Matrix.identity(action.n)} for _ in mats]
        for total in range(1, bound + 1):
            for m, table in zip(mats, tables):
                table[total] = table[total - 1] * m
                table[-total] = m.inverse() if total == 1 else table[1 - total] * table[-1]
            for vec in _signed_vectors(len(mats), total):
                for exps in (vec, tuple(-e for e in vec)):
                    word = Word.from_exponents(exps)
                    yield word, reduce(mul, (tables[i][e] for i, e in word.pairs))
        return
    letters = [((i, 1), m) for i, m in enumerate(mats)] + [((i, -1), m.inverse()) for i, m in enumerate(mats)]

    def extend(word, mat):
        if word:
            yield Word.from_pairs(word), mat
        if len(word) == bound:
            return
        for (i, s), step in letters:
            if word and word[-1][0] == i and word[-1][1] * s < 0:
                continue
            yield from extend(word + [(i, s)], mat * step)

    yield from extend([], Matrix.identity(action.n))


@dataclass
class SFReport:
    status: str  # "holds" | "fails" | "inconclusive"
    witness_exponents: tuple[int, ...] | None
    detail: str

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def check_SF_via_det(action: AlgebraicAction, factor_bound: int = 10**6) -> SFReport:
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
        factors, rest = prime_factors(abs(d), bound=factor_bound)
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


_UNIT_FACTOR_CAVEAT = (
    "an 'exact' verdict additionally assumes the characteristic polynomial has no "
    "degree>=2 factor with constant term ±1 beyond the tested cyclotomics; a full "
    "factor search is out of scope"
)


def exactness(family: ConstructibleFamily, chi: Poly | None = None) -> ExactnessReport:
    """Two-part exactness verdict for the action of a constructible family.

    Empirical part: track the index of the total intersection of the depth-k
    family, round by round.  If the family saturates, the total intersection
    equals the intersection of the whole (finite) family, which is full rank,
    so the action is definitively not exact.

    Criterion part (single generator): a cyclotomic factor of the
    characteristic polynomial, or a unit determinant, certifies a sublattice
    on which the generator restricts to an automorphism, hence not exact.
    Otherwise the action is reported exact under the companion-case theorem
    (labeled heuristic for non-companion matrices).  chi is the
    characteristic polynomial of the single generator, when the caller has
    it.
    """
    action = family.action
    total = Lattice.standard(action.n)
    indices = []
    for frontier in family.rounds:
        total = reduce(intersect, frontier, total)
        indices.append(total.index())
    strictly = all(a < b for a, b in zip(indices, indices[1:]))

    criterion = None
    caveat = None
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
            chi = charpoly(mat)
        cyc = cyclotomic_divisor(chi)
        unimodular = abs(chi[0]) == 1
        label = "companion-case theorem" if is_companion(mat) else "heuristic for general matrices"
        criterion = {
            "charpoly": format_poly(chi),
            "cyclotomic_divisor": cyc,
            "unimodular_generator": unimodular,
            "label": label,
        }
        if unimodular:
            return ExactnessReport(
                "not_exact", True, "the generator is an automorphism", indices, strictly, False, None, criterion, None
            )
        if cyc is not None:
            return ExactnessReport(
                "not_exact",
                True,
                f"cyclotomic factor of order {cyc} certifies an invariant subgroup acted on by automorphisms",
                indices,
                strictly,
                False,
                None,
                criterion,
                None,
            )
        caveat = _UNIT_FACTOR_CAVEAT
        return ExactnessReport(
            "exact", False, label, indices, strictly, False, None, criterion, caveat
        )
    verdict = "undecided"
    basis = "multi-generator action: empirical evidence only"
    return ExactnessReport(verdict, False, basis, indices, strictly, False, None, None, None)
