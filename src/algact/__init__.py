"""Exact-arithmetic toolkit for algebraic monoid actions on integer lattices.

The package builds the desk-scale machinery of such actions: canonical
lattice normal forms, constructible subgroup families, finite odometer
levels with their partial arrows, and the conjugacy and splitting
invariants whose disagreement certifies two systems as non-isomorphic.
"""

from .actions import (
    FREE,
    FREE_ABELIAN,
    AlgebraicAction,
    check_condition_F,
    check_SF_via_det,
    check_standing,
    constructible_family,
    exactness,
)
from .groupoid import level_map, translation_orbit_size, verify_word_identity
from .invariants import ConjugacyClass, conjugacy_class, splitting_signature_distinguisher
from .lattices import Lattice, QuotientLevel, image, intersect, lattice_sum, preimage, quotient
from .matrices import Matrix, charpoly, hnf, poly_invariant_factors, snf
from .modp import RAMIFIED, ddf_signature
from .orders import StructureRing, action_from_ring, act_matrix, norm, regular_shift, ring_preset
from .polynomials import Poly, cyclotomic, format_poly
from .polyring import (
    MPoly,
    QuotientAlgebra,
    buchberger,
    commalg_conditions,
    is_zero_dimensional,
    parse_poly,
    quotient_algebra,
)

__version__ = "0.1.0"
