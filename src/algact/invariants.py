"""Rigidity invariants: rational conjugacy, torsion orders, unipotent
logarithms with the nilpotent-span rank bound, and the prime-splitting
distinguisher for rational algebras.

Every distinguisher here is one-sided by design: a difference certifies that
two systems are not isomorphic, while agreement never claims isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import mul

from .arith import divisors, primes_up_to
from .matrices import Matrix, charpoly, kernel_q, poly_invariant_factors, rank_q
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


def q_conjugate(a: Matrix, b: Matrix) -> bool:
    """Are a and b conjugate by a rational matrix?"""
    if not a.is_square or not b.is_square:
        raise ValueError("square matrices required")
    if a.rows != b.rows:
        return False
    return poly_invariant_factors(a) == poly_invariant_factors(b)


# ---------------------------------------------------------------------------
# Torsion order
# ---------------------------------------------------------------------------


def torsion_order(m: Matrix) -> int | None:
    """Multiplicative order of an invertible matrix, or None if infinite.

    Finite order forces the characteristic polynomial to be a product of
    cyclotomics Phi_k; then M^L = I for L the lcm of those k exactly when the
    minimal polynomial is squarefree, which the powering decides.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    if m.det() == 0:
        raise ValueError("torsion order of a singular matrix")
    split = cyclotomic_split(charpoly(m))
    if split.cofactor.degree >= 1:
        return None
    order = lcm(*split.orders)
    return order if m**order == Matrix.identity(m.rows) else None


# ---------------------------------------------------------------------------
# Unipotent log / exp and the rank bound
# ---------------------------------------------------------------------------


def is_unipotent(m: Matrix) -> bool:
    if not m.is_square:
        return False
    return charpoly(m) == Poly((-1, 1)) ** m.rows


def _nilpotency_index(n: Matrix) -> int:
    """Least e with N^e = 0, or raise if N is not nilpotent."""
    size = n.rows
    power = Matrix.identity(size)
    for e in range(size + 1):
        if power == Matrix.zero(size):
            return e
        power = power * n
    if power == Matrix.zero(size):
        return size + 1
    raise ValueError("matrix is not nilpotent")


def unipotent_log(alpha: Matrix) -> Matrix:
    """log of a unipotent matrix: sum_{i>=1} (-1)^{i-1} (alpha-1)^i / i.

    The series terminates at the nilpotency index, and exp inverts it
    exactly; on a commuting unipotent family log is an injective group
    homomorphism into the nilpotent span.
    """
    if not is_unipotent(alpha):
        raise ValueError("unipotent matrix required")
    n = alpha.rows
    nil = alpha - Matrix.identity(n)
    out = Matrix.zero(n)
    term = Matrix.identity(n)
    for i in range(1, n + 1):
        term = term * nil
        if term == Matrix.zero(n):
            break
        out = out + term * Fraction((-1) ** (i - 1), i)
    return out


def nilpotent_exp(nil: Matrix) -> Matrix:
    if not nil.is_square:
        raise ValueError("square matrix required")
    _nilpotency_index(nil)
    n = nil.rows
    out = Matrix.identity(n)
    term = Matrix.identity(n)
    for i in range(1, n + 1):
        term = term * nil * Fraction(1, i)
        if term == Matrix.zero(n):
            break
        out = out + term
    return out


class UnipotentFamily:
    """A pairwise-commuting family of unipotent rational matrices.

    Carries the derived data the rank bound consumes: the nilpotent parts
    eta = alpha - 1, their logs, the common kernel, and the span of the
    nilpotent algebra they generate.
    """

    def __init__(self, generators):
        generators = [g for g in generators]
        if not generators:
            raise ValueError("family needs at least one matrix")
        n = generators[0].rows
        for g in generators:
            if g.rows != n or not is_unipotent(g):
                raise ValueError("family members must be unipotent of equal size")
        for i, a in enumerate(generators):
            for b in generators[i + 1 :]:
                if a * b != b * a:
                    raise ValueError("family members must commute")
        self.dimension = n
        self.generators = tuple(generators)
        self.nilpotents = tuple(g - Matrix.identity(n) for g in generators)
        self.logs = tuple(unipotent_log(g) for g in generators)

    def common_kernel_dimension(self) -> int:
        stacked = self.nilpotents[0]
        for eta in self.nilpotents[1:]:
            stacked = stacked.stack(eta)
        return len(kernel_q(stacked))

    def nilpotent_span_dimension(self) -> int:
        """dim_Q of the span of the eta's over the whole generated group.

        eta_{ab} = eta_a + eta_b + eta_a eta_b, so the span is the non-unital
        algebra generated by the generator eta's; close under products.
        """
        basis: list[tuple] = []
        pending = [eta for eta in self.nilpotents]
        members: list[Matrix] = []
        while pending:
            cand = pending.pop()
            if _extends_span(basis, cand):
                members.append(cand)
                pending.extend(cand * other for other in members)
                pending.extend(other * cand for other in members)
        return len(basis)

    def log_rank(self) -> int:
        rows = [tuple(x for row in log.entries() for x in row) for log in self.logs]
        return rank_q(Matrix(rows).transpose()) if rows else 0


def _extends_span(basis: list, cand: Matrix) -> bool:
    """Gaussian update: add cand to the running row basis if independent."""
    vec = [Fraction(x) for row in cand.entries() for x in row]
    for pivot_row in basis:
        idx, inv = pivot_row[0], pivot_row[1]
        if vec[idx]:
            f = vec[idx] * inv
            for j, p in enumerate(pivot_row[2]):
                vec[j] -= f * p
    lead = next((j for j, x in enumerate(vec) if x), None)
    if lead is None:
        return False
    basis.append((lead, 1 / vec[lead], tuple(vec)))
    return True


@dataclass
class RankBoundReport:
    trivial: bool
    group_rank: int
    nilpotent_span_dim: int
    common_kernel_dim: int
    bound: int
    holds: bool


def rank_bound_check(family: UnipotentFamily) -> RankBoundReport:
    """Verify rk_Z <= dim span of nilpotents < n (n - k) for a nontrivial
    commuting unipotent family (k = dimension of the common kernel).

    A violation is a bug, not a finding: the bound is a theorem.
    """
    n = family.dimension
    ident = Matrix.identity(n)
    if all(g == ident for g in family.generators):
        return RankBoundReport(True, 0, 0, n, 0, True)
    rk = family.log_rank()
    span_dim = family.nilpotent_span_dimension()
    k = family.common_kernel_dimension()
    bound = n * (n - k)
    holds = rk <= span_dim < bound
    return RankBoundReport(False, rk, span_dim, k, bound, holds)


@dataclass
class PowerWitnessReport:
    relation_orientation: str
    m: int
    eta: Matrix
    nilpotency_index: int


def unipotent_power_witness(
    alpha: Matrix, kappa: int, gamma: Matrix, dim_bound: int
) -> PowerWitnessReport:
    """Given the conjugation relation between alpha and alpha^kappa, verify
    that m = kappa * dim! - 1 makes alpha^m unipotent and return the
    nilpotent part.

    The relation is accepted in either orientation (alpha = g alpha^kappa
    g^{-1} or g alpha g^{-1} = alpha^kappa); they differ only by replacing
    the conjugator with its inverse.
    """
    if kappa < 2:
        raise ValueError("kappa must be at least 2")
    if gamma.det() == 0:
        raise ValueError("conjugator must be invertible")
    gamma_inv = gamma.inverse()
    a_kappa = alpha**kappa
    if alpha == gamma * a_kappa * gamma_inv:
        orientation = "alpha = g alpha^kappa g^-1"
    elif gamma * alpha * gamma_inv == a_kappa:
        orientation = "g alpha g^-1 = alpha^kappa"
    else:
        raise ValueError("conjugation relation fails: the power-witness hypothesis is absent")
    m = kappa * factorial(dim_bound) - 1
    eta = alpha**m - Matrix.identity(alpha.rows)
    index = _nilpotency_index(eta)
    return PowerWitnessReport(orientation, m, eta, index)


# ---------------------------------------------------------------------------
# Prime-splitting distinguisher
# ---------------------------------------------------------------------------


@dataclass
class SplittingVerdict:
    status: str  # "distinguished" | "indistinguishable"
    reason: str
    prime: int | None
    signatures: tuple | None
    prime_bound: int
    irreducibility_notes: list[str]

    @property
    def distinguished(self) -> bool:
        return self.status == "distinguished"


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
    f: Poly, g: Poly, prime_bound: int = 200
) -> SplittingVerdict:
    """Compare the factor-degree signatures of two monic irreducible
    polynomials at all unramified primes up to the bound.

    A disagreement certifies that the rational algebras Q[z]/(f) and
    Q[z]/(g) are not isomorphic; agreement certifies nothing.
    """
    notes = []
    for name, poly in (("first", f), ("second", g)):
        ok, why = irreducibility_screen(poly)
        if not ok:
            raise ValueError(f"{name} polynomial fails the irreducibility screen: {why}")
        if why.startswith("screened only"):
            notes.append(f"{name}: {why}")
    if f.degree != g.degree:
        return SplittingVerdict(
            "distinguished",
            "degree",
            None,
            None,
            prime_bound,
            notes,
        )
    for p in primes_up_to(prime_bound):
        sf = ddf_signature(f, p)
        sg = ddf_signature(g, p)
        if sf == RAMIFIED or sg == RAMIFIED:
            continue
        if sf != sg:
            return SplittingVerdict(
                "distinguished",
                f"splitting signatures differ at p = {p}",
                p,
                (sf, sg),
                prime_bound,
                notes,
            )
    return SplittingVerdict(
        "indistinguishable",
        f"signatures agree at every unramified prime up to {prime_bound}",
        None,
        None,
        prime_bound,
        notes,
    )
