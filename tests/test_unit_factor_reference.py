"""Differential tests for `polynomials.cyclotomic_split` and the one
exactness rule `polynomials.unit_factor_exactness`.

The split replaced separate readings of the characteristic polynomial:
`cyclotomic_divisor` (the least k with Phi_k | f), the single-generator
criterion of `actions.exactness` and the principal-action verdict on
Z[u]/(f).  Those are kept here as references and compared with the verdicts
`analyze` gives, on every monic integer polynomial of degree 1-4 with
coefficients in [-2, 2], and on the companion matrices of those
polynomials, plain and conjugated by unimodular matrices.
"""

import functools
import itertools
import random

import pytest

from algact import cli
from algact.actions import AlgebraicAction, ConstructibleFamily, exactness
from algact.lattices import Lattice
from algact.matrices import Matrix, charpoly, is_companion
from algact.polynomials import Poly, cyclotomic, cyclotomic_indices, cyclotomic_split, format_poly

from conftest import conjugate

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
            _, _, basis, _, caveat = reference_exactness_criterion(Matrix.companion(f), f)
            assert (exact["basis"], exact["caveat"]) == (basis, caveat), f


def test_exactness_criterion_matches_reference():
    bases = set()
    for m in companion_matrices():
        action = AlgebraicAction(m.rows, [("s", m)])
        chi = charpoly(m)
        expected = reference_exactness_criterion(m, chi)
        bases.add(expected[2].split(" of order")[0])
        for split in (None, cyclotomic_split(chi)):
            rep = exactness(unsaturated_family(action), split)
            assert (rep.verdict, rep.decided, rep.basis, rep.criterion, rep.caveat) == expected, m
    assert bases == {
        "the generator is an automorphism",
        "cyclotomic factor",
        "companion-case theorem",
        "heuristic for general matrices",
    }


def test_root_of_unity_matches_reference():
    orders = set()
    for m in companion_matrices():
        k = cyclotomic_split(charpoly(m)).least_order
        assert k == reference_cyclotomic_divisor(charpoly(m)), m
        orders.add(k)
    assert {None, 1, 2, 3, 4, 5, 6, 8, 10, 12} <= orders
