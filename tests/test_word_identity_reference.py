"""Differential test: `groupoid.verify_word_identity`, which checks the
characteristic-polynomial identity once, as the matrix chi(M) = 0, against
the version that checked it sample by sample on Z^n and in the semidirect
product Z^n ⋊ GL_n(Z), kept here as the reference.

The reference builds (0, M)^d (x, I) and the alternating product
(kappa_0 x, I)(0, M) ... (kappa_{d-1} x, I)(0, M) with the group law
(a, g)(b, h) = (a + g b, g h) on the unit vectors and the all-ones vector,
and its group elements reject a singular matrix.  The all-ones sample can
fail only after a unit vector has, so both report the same witness; only
samples_checked differs, n + 1 against n.
"""

import random
import sys
from dataclasses import dataclass, replace

import pytest

from algact import groupoid
from algact.groupoid import WordIdentityReport, verify_word_identity
from algact.matrices import Matrix, charpoly
from algact.polynomials import Poly
from algact.presets import EXAMPLE_ACTIONS

from conftest import block_diagonal, random_nonsingular


@dataclass(frozen=True)
class SemidirectElem:
    vec: tuple
    mat: Matrix

    def __post_init__(self):
        if self.mat.det() == 0:
            raise ValueError("group component must be invertible")

    def __mul__(self, other):
        moved = self.mat.apply(other.vec)
        return SemidirectElem(tuple(a + b for a, b in zip(self.vec, moved)), self.mat * other.mat)

    def __pow__(self, k):
        out = SemidirectElem((0,) * len(self.vec), Matrix.identity(len(self.vec)))
        for _ in range(k):
            out = out * self
        return out


def reference_verify_word_identity(name, mat):
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
    s_elem = SemidirectElem((0,) * n, mat)
    for x in samples:
        rhs = (0,) * n
        for i in range(d):
            term = powers[i].apply(x)
            rhs = tuple(r + kappas[i] * t for r, t in zip(rhs, term))
        if powers[d].apply(x) != rhs:
            module_ok = False
            witness = x
            break
        left = s_elem**d * SemidirectElem(x, Matrix.identity(n))
        right = SemidirectElem((0,) * n, Matrix.identity(n))
        for i in range(d):
            right = right * SemidirectElem(tuple(kappas[i] * v for v in x), Matrix.identity(n)) * s_elem
        if left != right:
            sd_ok = False
            witness = x
            break
    epsilon = 1 - sum(kappas[:d])
    eps_ok = (Matrix.identity(n) - mat).det() == epsilon
    return WordIdentityReport(name, d, kappas, epsilon, module_ok, sd_ok, eps_ok, len(samples), witness)


def assert_matches_reference(name, mat):
    """Every field against the reference, except samples_checked."""
    rep = verify_word_identity(name, mat)
    ref = reference_verify_word_identity(name, mat)
    assert (rep.samples_checked, ref.samples_checked) == (mat.rows, mat.rows + 1)
    assert rep == replace(ref, samples_checked=mat.rows), mat
    return rep


def test_random_matrices_match_reference():
    rng = random.Random("word-identity")
    for _ in range(320):
        m = random_nonsingular(rng, rng.randint(1, 4), 4)
        assert assert_matches_reference("s", m).all_hold


@pytest.mark.parametrize("preset", sorted(EXAMPLE_ACTIONS))
def test_preset_generators_match_reference(preset):
    for name, mat in EXAMPLE_ACTIONS[preset]().gens:
        assert_matches_reference(name, mat)


def test_wrong_charpoly_reports_the_reference_witness(monkeypatch):
    # On M = diag(A, B), chi = chi_A (z + c) stands in for an arithmetic bug
    # that the columns of A do not see: the first failing column is in B.
    # The reference stops at the first failing sample before its semidirect
    # check, so it leaves that flag True; the matrix check sets both.
    rng = random.Random("word-identity-witness")
    true_charpoly = charpoly
    witnesses = set()
    for _ in range(60):
        a = rng.randint(1, 3)
        top = random_nonsingular(rng, a, 4)
        m = block_diagonal(top, random_nonsingular(rng, rng.randint(1, 4 - a), 4))
        wrong = true_charpoly(top) * Poly((rng.choice((-2, -1, 1, 2)), 1))
        monkeypatch.setattr(groupoid, "charpoly", lambda mat: wrong)
        monkeypatch.setattr(sys.modules[__name__], "charpoly", lambda mat: wrong)
        rep = verify_word_identity("s", m)
        ref = reference_verify_word_identity("s", m)
        expected = replace(ref, samples_checked=m.rows, semidirect_identity_holds=ref.module_identity_holds)
        assert rep == expected, m
        if rep.witness is not None:
            witnesses.add(rep.witness.index(1))
    assert witnesses == {1, 2, 3}


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 3]]])
def test_singular_matrices_are_rejected_on_both_sides(rows):
    for verify in (verify_word_identity, reference_verify_word_identity):
        with pytest.raises(ValueError):
            verify("s", Matrix(rows))
