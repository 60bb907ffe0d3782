"""Differential test: the block-Hermite lattice operations against the ones
they replaced, kept here as the reference.

The reference meet takes the left kernel of [B1; -B2] and a second Hermite
form; the reference preimage goes through the rational adjugate of M, a meet
with det(M) Z^n and a division; the reference index is a determinant.  Every
reference function works on basis matrices and returns the canonical Hermite
basis, so results compare as matrices.
"""

import itertools
import random

import pytest

from algact.actions import constructible_family
from algact.lattices import Lattice, image, intersect, preimage
from algact.matrices import Matrix, hnf, left_kernel_int
from algact.presets import EXAMPLE_ACTIONS

from conftest import adjugate, random_nonsingular, row_times


def hermite_basis(n, rows) -> Matrix:
    h, _ = hnf(Matrix(rows))
    assert all(not any(h.row(i)) for i in range(n, h.rows))
    return Matrix([h.row(i) for i in range(n)])


def ref_intersect(b1: Matrix, b2: Matrix) -> Matrix:
    n = b1.rows
    rows = [row_times(vec[:n], b1) for vec in left_kernel_int(Matrix(b1.entries() + (-b2).entries()))]
    return hermite_basis(n, rows)


def ref_preimage(m: Matrix, basis: Matrix) -> Matrix:
    n = basis.rows
    det = m.det()
    scaled = basis * adjugate(m).transpose()
    inner = ref_intersect(hermite_basis(n, scaled.entries()), Matrix.identity(n) * abs(det))
    return hermite_basis(n, [[x // det for x in inner.row(i)] for i in range(n)])


def ref_image(m: Matrix, basis: Matrix) -> Matrix:
    return hermite_basis(basis.rows, [m.apply(basis.row(i)) for i in range(basis.rows)])


def ref_index(basis: Matrix) -> int:
    return abs(basis.det())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_lattices_match_reference(n):
    rng = random.Random(7000 + n)
    for _ in range(150):
        l1 = Lattice(random_nonsingular(rng, n, 6))
        l2 = Lattice(random_nonsingular(rng, n, 6))
        m = random_nonsingular(rng, n, 4)
        assert intersect(l1, l2).basis == ref_intersect(l1.basis, l2.basis)
        assert preimage(m, l1).basis == ref_preimage(m, l1.basis)
        assert image(m, l1).basis == ref_image(m, l1.basis)
        assert l1.index() == ref_index(l1.basis)


@pytest.mark.parametrize("name", sorted(EXAMPLE_ACTIONS))
def test_preset_families_match_reference(name):
    action = EXAMPLE_ACTIONS[name]()
    for depth in range(5):
        lattices = constructible_family(action, depth).lattices
        for lat in lattices:
            assert lat.index() == ref_index(lat.basis)
            for _, mat in action.gens:
                assert image(mat, lat).basis == ref_image(mat, lat.basis)
                assert preimage(mat, lat).basis == ref_preimage(mat, lat.basis)
        for l1, l2 in itertools.combinations(lattices, 2):
            assert intersect(l1, l2).basis == ref_intersect(l1.basis, l2.basis)
