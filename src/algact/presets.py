"""Shipped example actions used by the test suite and handy for the CLI docs."""

from __future__ import annotations

from .actions import FREE_ABELIAN, AlgebraicAction
from .matrices import Matrix
from .orders import action_from_ring, ring_preset
from .polynomials import Poly


def doubling() -> AlgebraicAction:
    """Multiplication by 2 on Z."""
    return AlgebraicAction(1, [("s", Matrix([[2]]))], FREE_ABELIAN)


def doubling_tripling() -> AlgebraicAction:
    """The commuting pair (x2, x3) on Z."""
    return AlgebraicAction(1, [("s", Matrix([[2]])), ("t", Matrix([[3]]))], FREE_ABELIAN)


def fibonacci() -> AlgebraicAction:
    """The Fibonacci matrix [[0,1],[1,1]] acting on Z^2 (an automorphism)."""
    return AlgebraicAction(2, [("s", Matrix.companion(Poly((-1, -1, 1))))], FREE_ABELIAN)


def sqrt2_shift() -> AlgebraicAction:
    """The companion of z^2 - 2 acting on Z^2."""
    return AlgebraicAction(2, [("s", Matrix.companion(Poly((-2, 0, 1))))], FREE_ABELIAN)


def gaussian_1plusi() -> AlgebraicAction:
    """Multiplication by 1+i on the Gaussian integers."""
    return action_from_ring(ring_preset("Zi"), [(1, 1)], names=["s"])


def matrix_doubling() -> AlgebraicAction:
    """Multiplication by 2*I on 2x2 integer matrices (rank 4)."""
    return action_from_ring(ring_preset("M2Z"), [(2, 0, 0, 2)], names=["s"])


EXAMPLE_ACTIONS = {
    "doubling": doubling,
    "doubling_tripling": doubling_tripling,
    "fibonacci": fibonacci,
    "sqrt2_shift": sqrt2_shift,
    "gaussian_1plusi": gaussian_1plusi,
    "matrix_doubling": matrix_doubling,
}
