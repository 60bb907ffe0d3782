"""Differential test: `groupoid.verify_word_identity`, which checks the
characteristic-polynomial identity on Z^n only, against the version that
also checked it in the semidirect product Z^n ⋊ GL_n(Z), kept here as the
reference.

The reference builds (0, M)^d (x, I) and the alternating product
(kappa_0 x, I)(0, M) ... (kappa_{d-1} x, I)(0, M) with the group law
(a, g)(b, h) = (a + g b, g h) on every sample x, and its group elements
reject a singular matrix.
"""

import random
from dataclasses import dataclass

import pytest

from algact.groupoid import WordIdentityReport, verify_word_identity
from algact.matrices import Matrix, charpoly
from algact.presets import EXAMPLE_ACTIONS

from conftest import random_nonsingular


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


def test_random_matrices_match_reference():
    rng = random.Random("word-identity")
    for _ in range(320):
        m = random_nonsingular(rng, rng.randint(1, 4), 4)
        rep = verify_word_identity("s", m)
        assert rep == reference_verify_word_identity("s", m), m
        assert rep.all_hold


@pytest.mark.parametrize("preset", sorted(EXAMPLE_ACTIONS))
def test_preset_generators_match_reference(preset):
    for name, mat in EXAMPLE_ACTIONS[preset]().gens:
        assert verify_word_identity(name, mat) == reference_verify_word_identity(name, mat)


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 3]]])
def test_singular_matrices_are_rejected_on_both_sides(rows):
    for verify in (verify_word_identity, reference_verify_word_identity):
        with pytest.raises(ValueError):
            verify("s", Matrix(rows))
