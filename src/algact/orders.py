"""Rings presented by integer structure constants on Z^n.

These feed the ring-action pipelines: left-multiplication matrices, norms,
the additive shift that makes any element regular, and the bridge
into AlgebraicAction.  Presets ship for the handful of rings the examples and
tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import FREE, FREE_ABELIAN, AlgebraicAction
from .matrices import Matrix, charpoly


class StructureRing:
    """A unital ring on Z^n: e_i * e_j = sum_k c[i][j][k] e_k."""

    __slots__ = ("n", "constants", "one", "_validated")

    def __init__(self, n: int, constants, one):
        constants = tuple(
            tuple(tuple(int(x) for x in row) for row in plane) for plane in constants
        )
        one = tuple(int(x) for x in one)
        if len(constants) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in constants
        ):
            raise ValueError("structure constants must form an n*n*n array")
        if len(one) != n:
            raise ValueError("unit coordinates must have length n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "_validated", None)

    def __setattr__(self, name, value):
        raise AttributeError("StructureRing is immutable")

    @classmethod
    def from_flat(cls, n: int, flat, one) -> "StructureRing":
        flat = list(flat)
        if len(flat) != n**3:
            raise ValueError(f"expected {n ** 3} structure constants, got {len(flat)}")
        constants = [
            [[flat[(i * n + j) * n + k] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        return cls(n, constants, one)

    def multiply(self, x, y) -> tuple:
        x, y = tuple(x), tuple(y)
        out = [0] * self.n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.constants[i][j]
                for k in range(self.n):
                    if row[k]:
                        out[k] += xi * yj * row[k]
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.n))


@dataclass
class RingValidation:
    associative: bool
    unit_ok: bool
    failures: list[str]

    @property
    def valid(self) -> bool:
        return self.associative and self.unit_ok


def validate(ring: StructureRing) -> RingValidation:
    """Associativity on all basis triples plus the two-sided unit laws."""
    if ring._validated is not None:
        return ring._validated
    failures = []
    associative = True
    for i in range(ring.n):
        ei = ring.basis_vector(i)
        for j in range(ring.n):
            ej = ring.basis_vector(j)
            ij = ring.multiply(ei, ej)
            for k in range(ring.n):
                ek = ring.basis_vector(k)
                left = ring.multiply(ij, ek)
                right = ring.multiply(ei, ring.multiply(ej, ek))
                if left != right:
                    associative = False
                    failures.append(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")
    unit_ok = True
    for i in range(ring.n):
        ei = ring.basis_vector(i)
        if ring.multiply(ring.one, ei) != ei or ring.multiply(ei, ring.one) != ei:
            unit_ok = False
            failures.append(f"unit law fails on e{i}")
    report = RingValidation(associative, unit_ok, failures)
    object.__setattr__(ring, "_validated", report)
    return report


def _require_valid(ring: StructureRing):
    report = validate(ring)
    if not report.valid:
        raise ValueError("invalid structure ring: " + "; ".join(report.failures[:3]))


def act_matrix(ring: StructureRing, a) -> Matrix:
    """Left-multiplication matrix of a: column j holds a * e_j."""
    _require_valid(ring)
    a = tuple(a)
    cols = [ring.multiply(a, ring.basis_vector(j)) for j in range(ring.n)]
    return Matrix([[cols[j][i] for j in range(ring.n)] for i in range(ring.n)])


def norm(ring: StructureRing, a, *, chi=None) -> int:
    """|det M_a|, which is |chi_a(0)|.  A caller that already has chi_a, the
    characteristic polynomial of M_a, passes it and no matrix is built."""
    if chi is None:
        return abs(act_matrix(ring, a).det())
    return abs(chi[0])


def regular_shift(ring: StructureRing, a, *, chi=None) -> int:
    """Smallest kappa >= 1 with a + kappa*1 regular.

    In a valid ring the multiplication matrix of a + kappa*1 is M_a + kappa*I,
    whose determinant is (-1)^n chi_a(-kappa).  chi_a has at most n roots, so
    some kappa <= n + 1 is not a root of chi_a(-z).  A caller that already
    has chi_a passes it.
    """
    if chi is None:
        chi = charpoly(act_matrix(ring, a))
    return next(kappa for kappa in range(1, ring.n + 2) if chi(-kappa) != 0)


def action_from_ring(ring: StructureRing, generators, names=None) -> AlgebraicAction:
    """The algebraic action of the given regular ring elements by left
    multiplication, bridging into the action/level/invariant pipelines.  The
    action is free-abelian when the AlgebraicAction constructor accepts the
    generators as commuting, and free otherwise; the free construction repeats
    every other check, so an element that is not regular still raises."""
    mats = [act_matrix(ring, g) for g in generators]
    if names is None:
        names = [f"a{i}" for i in range(len(mats))]
    gens = list(zip(names, mats))
    try:
        return AlgebraicAction(ring.n, gens, FREE_ABELIAN)
    except ValueError:
        return AlgebraicAction(ring.n, gens, FREE)


def has_scalar_generator(ring: StructureRing, generators) -> bool:
    """Is some generator an integer multiple kappa*1 with kappa not in {0, 1}?
    (A hypothesis the non-commutative comparison theorems want; when absent
    the caller must assert it.)  kappa is read off the first coordinate
    where the unit, nonzero in a valid ring, is nonzero."""
    j = next(i for i, o in enumerate(ring.one) if o)
    for g in generators:
        g = tuple(g)
        kappa = g[j] // ring.one[j]
        if kappa not in (0, 1) and g == tuple(kappa * o for o in ring.one):
            return True
    return False


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _gaussian_integers() -> StructureRing:
    # basis {1, i}, i*i = -1
    c = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    return StructureRing(2, c, (1, 0))


def _z_sqrt2() -> StructureRing:
    # basis {1, w}, w*w = 2
    c = [
        [[1, 0], [0, 1]],
        [[0, 1], [2, 0]],
    ]
    return StructureRing(2, c, (1, 0))


def _m2z() -> StructureRing:
    # basis E11, E12, E21, E22; E_ab * E_cd = delta_bc E_ad
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    n = 4
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        for j, (d, e) in enumerate(pairs):
            if b == d:
                k = pairs.index((a, e))
                c[i][j][k] = 1
    return StructureRing(4, c, (1, 0, 0, 1))


def _group_ring_c2() -> StructureRing:
    # basis {1, g}, g*g = 1
    c = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
    ]
    return StructureRing(2, c, (1, 0))


RING_PRESETS = {
    "Z": lambda: StructureRing(1, [[[1]]], (1,)),
    "Zi": _gaussian_integers,
    "Zsqrt2": _z_sqrt2,
    "M2Z": _m2z,
    "ZC2": _group_ring_c2,
}


def ring_preset(name: str) -> StructureRing:
    try:
        return RING_PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown ring preset {name!r}; available: {sorted(RING_PRESETS)}") from None
