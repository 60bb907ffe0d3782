"""Differential tests for `polynomials.cyclotomic_split` and the one
exactness rule `polynomials.unit_factor_exactness`.

The split replaced separate readings of the characteristic polynomial:
`cyclotomic_divisor` (the least k with Phi_k | f), the single-generator
criterion of `actions.exactness` and the principal-action verdict on
Z[u]/(f).  Those are kept here as references and compared with the verdicts
`analyze` gives, on every monic integer polynomial of degree 1-4 with
coefficients in [-2, 2], on the companion matrices of those polynomials,
plain and conjugated by unimodular matrices, and on generators that are not
companions: a triangular matrix and block diagonals with and without a
cyclotomic block, plain and conjugated.

The old criterion labelled an `exact` verdict "companion-case theorem" or
"heuristic for general matrices".  The rule is a theorem for every injective
integer matrix M: L = the intersection of the M^k Z^n satisfies M L = L, so a
nonzero L carries a factor of chi with constant term ±1, and conversely such
a factor u gives ker u(M) on Z^n inside L.  So the label and the `exact`
basis text are the only fields the reference may disagree on.  On the
non-companion generators the verdict is compared with the companion of chi,
and a cyclotomic factor's kernel is checked to lie in every M^K Z^n.
"""

import functools
import itertools
import random

import pytest

from algact import cli
from algact.actions import AlgebraicAction, ConstructibleFamily, exactness
from algact.lattices import Lattice
from algact.matrices import Matrix, charpoly, right_kernel_int
from algact.polynomials import Poly, cyclotomic, cyclotomic_indices, cyclotomic_split, format_poly

from conftest import block_diagonal, conjugate, poly_eval_matrix, ref_member

POLYS = [
    Poly(lower + (1,))
    for degree in range(1, 5)
    for lower in itertools.product(range(-2, 3), repeat=degree)
]

OLD_UNIT_FACTOR_CAVEAT = (
    "an 'exact' verdict additionally assumes the characteristic polynomial has no "
    "degree>=2 factor with constant term ±1 beyond the tested cyclotomics; a full "
    "factor search is out of scope"
)


OLD_LABELS = ("companion-case theorem", "heuristic for general matrices")


def is_companion(m: Matrix) -> bool:
    """The shape test the old criterion chose its label by."""
    if not m.is_square or not m.is_integral():
        return False
    n = m.rows
    if n == 1:
        return True
    for j in range(n - 1):
        for i in range(n):
            want = 1 if i == j + 1 else 0
            if m[i, j] != want:
                return False
    return True


def reference_cyclotomic_divisor(f: Poly) -> int | None:
    """The least k with Phi_k | f, or None: the scan the split replaced."""
    return next(
        (k for k in cyclotomic_indices(max(f.degree, 1)) if (f % cyclotomic(k)).is_zero()),
        None,
    )


def reference_exactness_criterion(mat: Matrix, chi: Poly) -> tuple:
    """(verdict, decided, basis, criterion, caveat) of the old
    single-generator branch of `exactness`."""
    cyc = reference_cyclotomic_divisor(chi)
    unimodular = abs(chi[0]) == 1
    label = "companion-case theorem" if is_companion(mat) else "heuristic for general matrices"
    criterion = {
        "charpoly": format_poly(chi),
        "cyclotomic_divisor": cyc,
        "unimodular_generator": unimodular,
        "label": label,
    }
    if unimodular:
        return "not_exact", True, "the generator is an automorphism", criterion, None
    if cyc is not None:
        basis = f"cyclotomic factor of order {cyc} certifies an invariant subgroup acted on by automorphisms"
        return "not_exact", True, basis, criterion, None
    return "exact", False, label, criterion, OLD_UNIT_FACTOR_CAVEAT


def assert_matches_reference(rep, mat: Matrix, chi: Poly, exact_bases: set):
    """Every field of the single-generator verdict against the reference,
    except the old label and the basis text of an `exact` verdict, which is
    collected in exact_bases instead."""
    verdict, decided, basis, criterion, caveat = reference_exactness_criterion(mat, chi)
    assert criterion.pop("label") in OLD_LABELS
    assert (rep.verdict, rep.decided, rep.criterion, rep.caveat) == (verdict, decided, criterion, caveat), mat
    if verdict == "exact":
        exact_bases.add(rep.basis)
    else:
        assert rep.basis == basis, mat


def reference_principal(f: Poly) -> tuple:
    """(verdict, cyclotomic_divisor, non_automorphic, mixing_f1_nonzero) of
    the old principal-action verdict on Z[u]/(f), whose shift is the
    companion of f."""
    c0 = f[0]
    cyc = reference_cyclotomic_divisor(f)
    verdict = "not_exact" if abs(c0) <= 1 or cyc is not None else "exact"
    return verdict, cyc, abs(c0) > 1, f(1) != 0


@functools.cache
def companion_matrices() -> list[Matrix]:
    """The companion matrix of every f in POLYS with f(0) != 0, and a
    unimodular conjugate of each."""
    rng = random.Random(20240905)
    companions = [Matrix.companion(f) for f in POLYS if f[0] != 0]
    return companions + [conjugate(rng, c) for c in companions]


@functools.cache
def non_companion_matrices() -> list[Matrix]:
    """Generators that are not companion matrices: [[2, 1], [0, 3]], block
    diagonals of a Phi_k companion with a non-unimodular block, block
    diagonals without a cyclotomic block, and a unimodular conjugate of each.
    The ones with the block [[2, 1], [1, 1]] (unit factor z^2 - 3z + 1) are
    not exact, but no cyclotomic factor shows it: they read `exact` with
    decided = False, on the caveat, as the companion of chi does."""
    rng = random.Random("non-companion")
    blocks = [Matrix([[2]]), Matrix([[-3]]), Matrix([[2, 1], [0, 3]]), Matrix([[0, -2], [1, 0]])]
    cyclotomic_blocks = [Matrix.companion(cyclotomic(k)) for k in (1, 2, 3, 4, 5, 6, 8)]
    mats = [Matrix([[2, 1], [0, 3]])]
    mats += [block_diagonal(c, b) for c in cyclotomic_blocks for b in blocks]
    mats += [block_diagonal(a, b) for a, b in itertools.combinations(blocks, 2)]
    mats += [block_diagonal(Matrix([[2, 1], [1, 1]]), b) for b in blocks]
    return mats + [conjugate(rng, m) for m in mats]


def unsaturated_family(action: AlgebraicAction) -> ConstructibleFamily:
    """The depth-0 family marked unsaturated, so `exactness` reaches the
    single-generator criterion for every generator."""
    root = Lattice.standard(action.n)
    return ConstructibleFamily(action, (root,), False, {root: ("ambient",)}, ((root,),))


def test_polynomial_count():
    assert len(POLYS) == 5 + 25 + 125 + 625


def test_least_order_matches_cyclotomic_divisor():
    for f in POLYS:
        assert cyclotomic_split(f).least_order == reference_cyclotomic_divisor(f), f


def test_principal_exactness_matches_reference():
    # f(0) = 0 makes the shift singular: there is no action to analyze.
    for f in POLYS:
        if f[0] == 0:
            with pytest.raises(ValueError, match="singular"):
                AlgebraicAction(f.degree, [("s", Matrix.companion(f))])
            continue
        report = cli.analyze_action(AlgebraicAction(f.degree, [("s", Matrix.companion(f))]), 1, 1)
        exact = report["exactness"]
        least = report["mixing"]["s"]["witness_order"]
        got = (exact["verdict"], least, report["standing"]["non_automorphic"], least != 1)
        assert got == reference_principal(f), f
        if not exact["family_saturated"]:
            # basis and caveat read as the exactness criterion of the shift
            verdict, _, basis, _, caveat = reference_exactness_criterion(Matrix.companion(f), f)
            assert exact["caveat"] == caveat, f
            if verdict != "exact":
                assert exact["basis"] == basis, f


def test_exactness_criterion_matches_reference():
    bases = set()
    exact_bases = set()
    for m in companion_matrices():
        action = AlgebraicAction(m.rows, [("s", m)])
        chi = charpoly(m)
        bases.add(reference_exactness_criterion(m, chi)[2].split(" of order")[0])
        for split in (None, cyclotomic_split(chi)):
            assert_matches_reference(exactness(unsaturated_family(action), split), m, chi, exact_bases)
    # the reference labelled both kinds of exact verdict; the rule gives one basis
    assert bases == {"the generator is an automorphism", "cyclotomic factor", *OLD_LABELS}
    assert len(exact_bases) == 1


def test_non_companion_exactness_matches_its_companion():
    exact_bases = set()
    verdicts = set()
    for m in non_companion_matrices():
        assert not is_companion(m), m
        chi = charpoly(m)
        rep = exactness(unsaturated_family(AlgebraicAction(m.rows, [("s", m)])))
        companion = AlgebraicAction(m.rows, [("s", Matrix.companion(chi))])
        want = exactness(unsaturated_family(companion))
        assert (rep.verdict, rep.decided) == (want.verdict, want.decided), m
        assert_matches_reference(rep, m, chi, exact_bases)
        verdicts.add((rep.verdict, rep.decided))
    assert verdicts == {("exact", False), ("not_exact", True)}
    assert len(exact_bases) == 1


def test_cyclotomic_factor_kernel_lies_in_every_image():
    # A not_exact verdict from a factor Phi_k of chi: ker Phi_k(M) on Z^n is
    # a nonzero subgroup on which M acts invertibly, so it lies in M^K Z^n
    # for every K (the columns of M^K span that image).
    checked = 0
    for m in non_companion_matrices():
        rep = exactness(unsaturated_family(AlgebraicAction(m.rows, [("s", m)])))
        k = rep.criterion["cyclotomic_divisor"]
        if rep.verdict != "not_exact" or rep.criterion["unimodular_generator"]:
            continue
        phi_m = poly_eval_matrix(cyclotomic(k), m)
        v = right_kernel_int(phi_m)[0]
        assert any(v) and not any(phi_m.apply(v)), m
        power = Matrix.identity(m.rows)
        for _ in range(6):
            power = power * m
            assert ref_member(power.transpose(), v), (m, v)
        checked += 1
    assert checked == 2 * 7 * 4


def test_root_of_unity_matches_reference():
    orders = set()
    for m in companion_matrices():
        k = cyclotomic_split(charpoly(m)).least_order
        assert k == reference_cyclotomic_divisor(charpoly(m)), m
        orders.add(k)
    assert {None, 1, 2, 3, 4, 5, 6, 8, 10, 12} <= orders
