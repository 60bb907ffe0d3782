"""Rigidity invariants: rational conjugacy and the prime-splitting
distinguisher for rational algebras.

Every distinguisher here is one-sided by design: a difference certifies that
two systems are not isomorphic, while agreement never claims isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .arith import divisors, iter_primes
from .matrices import Matrix, poly_invariant_factors
from .modp import RAMIFIED, ddf_signature
from .polynomials import Poly, cyclotomic_split, format_poly


# ---------------------------------------------------------------------------
# Conjugacy over Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClass:
    """Complete invariant of a rational matrix up to GL_n(Q)-conjugacy."""

    dimension: int
    invariant_factors: tuple[Poly, ...]

    def describe(self) -> list[str]:
        return [format_poly(f) for f in self.invariant_factors]

    def charpoly(self) -> Poly:
        """det(z*I - M): the product of the invariant factors."""
        return reduce(mul, self.invariant_factors, Poly((1,)))


def conjugacy_class(m: Matrix) -> ConjugacyClass:
    return ConjugacyClass(m.rows, tuple(poly_invariant_factors(m)))


# ---------------------------------------------------------------------------
# Prime-splitting distinguisher
# ---------------------------------------------------------------------------


def irreducibility_screen(f: Poly) -> tuple[bool, str]:
    """Best-effort irreducibility over Q: rational roots and cyclotomic
    factors are excluded; degrees <= 3 are thereby decided, higher degrees
    are only screened and must be asserted by the caller.
    """
    if f.degree < 1 or not f.is_monic() or not f.is_integral():
        return False, "not a monic non-constant integer polynomial"
    if f.degree == 1:
        return True, "linear"
    c0 = abs(f[0])
    if c0 == 0:
        return False, "root at 0"
    for d in divisors(c0):
        for root in (d, -d):
            if f(root) == 0:
                return False, f"rational root {root}"
    split = cyclotomic_split(f)
    if split.orders and (len(split.orders) > 1 or split.cofactor.degree >= 1):
        return False, f"cyclotomic factor of order {split.least_order}"
    if f.degree <= 3:
        return True, "degree <= 3 with no rational root"
    return True, "screened only (degree > 3): irreducibility is caller-asserted"


def splitting_signature_distinguisher(
    f: Poly, g: Poly, prime_bound: int
) -> tuple[int, tuple, tuple] | None:
    """The first unramified prime p up to the bound at which two monic
    irreducible polynomials of equal degree have different factor-degree
    signatures, as (p, signature of f, signature of g); None if there is none.

    A difference certifies that the rational algebras Q[z]/(f) and
    Q[z]/(g) are not isomorphic; None certifies nothing.
    """
    for p in iter_primes(prime_bound):
        sf = ddf_signature(f, p)
        sg = ddf_signature(g, p)
        if sf != sg and RAMIFIED not in (sf, sg):
            return p, sf, sg
    return None
