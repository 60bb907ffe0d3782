"""Rings presented by integer structure constants on Z^n.

These feed the ring-action pipelines: left-multiplication matrices, norms,
regularity, the additive shift that makes any element regular, and the bridge
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


def norm(ring: StructureRing, a) -> int:
    return abs(act_matrix(ring, a).det())


def is_regular(ring: StructureRing, a) -> bool:
    return norm(ring, a) != 0


def regular_shift(ring: StructureRing, a) -> int:
    """Smallest kappa >= 1 with a + kappa*1 regular.

    Terminates because the spectrum of the multiplication matrix is finite;
    the root bound of its characteristic polynomial caps the search.
    """
    _require_valid(ring)
    a = tuple(a)
    chi = charpoly(act_matrix(ring, a))
    # 1 + max |coefficient| bounds every integer eigenvalue in absolute value.
    cap = 2 + max(abs(chi[i]) for i in range(chi.degree + 1))
    kappa = 1
    while kappa <= cap:
        shifted = tuple(x + kappa * o for x, o in zip(a, ring.one))
        if is_regular(ring, shifted):
            return kappa
        kappa += 1
    raise ArithmeticError("regular shift exceeded the eigenvalue bound")


def action_from_ring(ring: StructureRing, generators, names=None) -> AlgebraicAction:
    """The algebraic action of the given regular ring elements by left
    multiplication, bridging into the action/level/invariant pipelines."""
    _require_valid(ring)
    generators = [tuple(g) for g in generators]
    if names is None:
        names = [f"a{i}" for i in range(len(generators))]
    mats = []
    for name, g in zip(names, generators):
        m = act_matrix(ring, g)
        if m.det() == 0:
            raise ValueError(f"generator {name!r} is not regular")
        mats.append((name, m))
    commuting = all(
        a * b == b * a for _, a in mats for _, b in mats
    )
    kind = FREE_ABELIAN if commuting else FREE
    return AlgebraicAction(ring.n, mats, kind)


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
