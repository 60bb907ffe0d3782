import random
from fractions import Fraction
from math import gcd

import pytest

from algact import cli
from algact.invariants import (
    UnipotentFamily,
    conjugacy_class,
    irreducibility_screen,
    is_unipotent,
    nilpotent_exp,
    q_conjugate,
    rank_bound_check,
    splitting_signature_distinguisher,
    torsion_order,
    unipotent_log,
    unipotent_power_witness,
)
from algact.arith import divisors
from algact.matrices import Matrix, charpoly, poly_invariant_factors
from algact.polynomials import Poly, cyclotomic, cyclotomic_indices

from conftest import random_int_matrix, random_unimodular


# -- conjugacy ------------------------------------------------------------------


def test_q_conjugate_known_cases():
    assert q_conjugate(Matrix.diagonal([2, 3]), Matrix.companion(Poly((6, -5, 1))))
    assert not q_conjugate(Matrix.diagonal([2, 2]), Matrix([[2, 1], [0, 2]]))


def test_q_conjugate_under_conjugation(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 6)
        u = random_unimodular(rng, n)
        assert q_conjugate(m, u * m * u.inverse())


def test_q_conjugate_dimension_mismatch():
    assert not q_conjugate(Matrix([[2]]), Matrix.diagonal([2, 2]))


def test_q_conjugate_transpose(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 5)
        assert q_conjugate(m, m.transpose())


def test_q_conjugate_equivalence_relation(rng):
    mats = [random_int_matrix(rng, 3, 3) for _ in range(8)]
    for a in mats:
        assert q_conjugate(a, a)
        for b in mats:
            assert q_conjugate(a, b) == q_conjugate(b, a)
            for c in mats:
                if q_conjugate(a, b) and q_conjugate(b, c):
                    assert q_conjugate(a, c)


def test_conjugacy_class_fields():
    cc = conjugacy_class(Matrix.diagonal([2, 2]))
    assert cc.dimension == 2
    assert cc.describe() == ["z - 2", "z - 2"]


# -- torsion order ----------------------------------------------------------------


def test_torsion_known_cases():
    assert torsion_order(Matrix([[0, -1], [1, 0]])) == 4
    assert torsion_order(Matrix([[1, 1], [0, 1]])) is None
    assert torsion_order(Matrix([[0, -1], [1, -1]])) == 3


def test_torsion_verified_by_powering():
    cases = [
        Matrix([[0, -1], [1, 0]]),
        Matrix([[0, -1], [1, -1]]),
        Matrix.diagonal([1, -1]),
        Matrix.identity(3),
        Matrix([[0, 1], [1, 0]]),
    ]
    for m in cases:
        order = torsion_order(m)
        assert order is not None
        assert m**order == Matrix.identity(m.rows)
        for d in divisors(order):
            if d < order:
                assert m**d != Matrix.identity(m.rows)


def reference_torsion_order(m: Matrix) -> int | None:
    """Reference: strip cyclotomics by a full index scan, then test the
    minimal polynomial (the last invariant factor) for squarefreeness."""
    rest = charpoly(m)
    orders = []
    for k in cyclotomic_indices(m.rows):
        while rest.degree >= 1 and cyclotomic(k).divides(rest):
            rest = rest // cyclotomic(k)
            orders.append(k)
    if rest.degree >= 1 or not poly_invariant_factors(m)[-1].is_squarefree():
        return None
    order = 1
    for k in orders:
        order = order * k // gcd(order, k)
    return order


def block_diagonal(blocks) -> Matrix:
    n = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b.entries():
            rows.append([0] * at + list(row) + [0] * (n - at - b.rows))
        at += b.rows
    return Matrix(rows)


def test_torsion_order_matches_reference(rng):
    small = [k for k in cyclotomic_indices(4)]
    pieces = [Matrix.companion(cyclotomic(k)) for k in small]
    pieces += [Matrix.companion(Poly((-2, 0, 1))), Matrix.companion(Poly((-1, -1, 1))), Matrix([[2]])]
    # a non-diagonalizable block with the characteristic polynomial Phi_k^2
    for k in (1, 2, 3, 4):
        c = Matrix.companion(cyclotomic(k))
        d = c.rows
        pieces.append(Matrix([list(c.row(i)) + [int(i == j) for j in range(d)] for i in range(d)]
                             + [[0] * d + list(c.row(i)) for i in range(d)]))
    finite = 0
    for _ in range(150):
        while True:
            blocks = rng.sample(pieces, rng.randint(1, 3))
            if sum(b.rows for b in blocks) <= 6:
                break
        m = block_diagonal(blocks)
        u = random_unimodular(rng, m.rows)
        m = u * m * u.inverse()
        expected = reference_torsion_order(m)
        assert torsion_order(m) == expected, m
        finite += expected is not None
    assert 30 < finite < 120


def test_torsion_infinite_cases():
    assert torsion_order(Matrix([[2]])) is None
    assert torsion_order(Matrix([[0, 1], [1, 1]])) is None
    with pytest.raises(ValueError):
        torsion_order(Matrix([[0]]))


# -- unipotent log / exp --------------------------------------------------------------


def test_log_exp_known_cases():
    shear = Matrix([[1, 1], [0, 1]])
    assert unipotent_log(shear) == Matrix([[0, 1], [0, 0]])
    assert nilpotent_exp(Matrix([[0, 1], [0, 0]])) == shear

    jordan3 = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    expected = Matrix([[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]])
    assert unipotent_log(jordan3) == expected


def random_unipotent(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-3, 3)
    return nilpotent_exp(Matrix(rows)), Matrix(rows)


def test_log_exp_roundtrip(rng):
    for n in range(2, 7):
        for _ in range(8):
            alpha, nil = random_unipotent(rng, n)
            assert is_unipotent(alpha)
            assert nilpotent_exp(unipotent_log(alpha)) == alpha
            assert unipotent_log(nilpotent_exp(nil)) == nil
        # Trace n and, from n = 3 on, determinant 1, but not unipotent.
        off = Matrix.diagonal([2, 0] + [1] * (n - 2))
        assert off.trace() == n and not is_unipotent(off)
        if n >= 3:
            u = random_unimodular(random.Random(n), n)
            c = u * Matrix.companion(Poly((-1, 1)) ** n + Poly((0, 1))) * u.inverse()
            assert c.trace() == n and c.det() == 1 and not is_unipotent(c)


def test_log_is_homomorphism_on_commuting(rng):
    n = Matrix([[0, 1, 2], [0, 0, 1], [0, 0, 0]])
    a = nilpotent_exp(n)
    b = nilpotent_exp(n * Fraction(2))
    assert a * b == b * a
    assert unipotent_log(a * b) == unipotent_log(a) + unipotent_log(b)


def test_log_rejects_non_unipotent():
    with pytest.raises(ValueError):
        unipotent_log(Matrix.diagonal([2, 1]))
    with pytest.raises(ValueError):
        nilpotent_exp(Matrix([[1]]))


# -- rank bound ------------------------------------------------------------------------


def test_rank_bound_known_cases():
    fam = UnipotentFamily([Matrix([[1, 1], [0, 1]])])
    rep = rank_bound_check(fam)
    assert (rep.group_rank, rep.common_kernel_dim, rep.bound) == (1, 1, 2)
    assert rep.holds

    e13 = Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    rep2 = rank_bound_check(UnipotentFamily([e13, e23]))
    assert (rep2.group_rank, rep2.common_kernel_dim, rep2.bound) == (2, 2, 3)
    assert rep2.holds

    trivial = rank_bound_check(UnipotentFamily([Matrix.identity(3)]))
    assert trivial.trivial


def test_nilpotent_closure_identity(rng):
    # eta_a eta_b == eta_{ab} - eta_a - eta_b for commuting unipotents
    n = Matrix([[0, 2, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 0, 0]])
    a = nilpotent_exp(n)
    b = nilpotent_exp(n * n)
    ident = Matrix.identity(4)
    ea, eb = a - ident, b - ident
    eab = a * b - ident
    assert ea * eb == eab - ea - eb


def commuting_unipotent_family(rng, n):
    """Random commuting family: exponentials of polynomials in one nilpotent."""
    base = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base[i][j] = rng.randint(-2, 2)
    nil = Matrix(base)
    members = []
    for _ in range(rng.randint(1, 3)):
        combo = Matrix.zero(n)
        power = nil
        for _ in range(n - 1):
            combo = combo + power * rng.randint(-2, 2)
            power = power * nil
        members.append(nilpotent_exp(combo))
    return UnipotentFamily(members)


def test_rank_bound_random_families(rng):
    for _ in range(60):
        n = rng.randint(2, 4)
        fam = commuting_unipotent_family(rng, n)
        rep = rank_bound_check(fam)
        if not rep.trivial:
            assert rep.holds, cli._to_json(rep)
            assert rep.group_rank <= rep.nilpotent_span_dim < rep.bound


def test_family_rejects_noncommuting():
    a = nilpotent_exp(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    b = nilpotent_exp(Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]]))
    with pytest.raises(ValueError):
        UnipotentFamily([a, b])


# -- power witness -----------------------------------------------------------------------


def test_power_witness_identity():
    rep = unipotent_power_witness(Matrix.identity(2), 2, Matrix.identity(2), 2)
    assert rep.eta == Matrix.zero(2)


def test_power_witness_shear_case():
    alpha = Matrix([[1, 1], [0, 1]])
    gamma = Matrix.diagonal([2, 1])
    rep = unipotent_power_witness(alpha, 2, gamma, 2)
    assert rep.m == 3
    assert rep.eta == Matrix([[0, 3], [0, 0]])
    assert rep.nilpotency_index == 2


def test_power_witness_relation_failure():
    rot = Matrix([[0, -1], [1, 0]])  # order 4: rot != rot^3
    with pytest.raises(ValueError):
        unipotent_power_witness(rot, 3, Matrix.identity(2), 2)


# -- splitting distinguisher ----------------------------------------------------------------


def test_splitting_known_cases():
    v = splitting_signature_distinguisher(Poly((1, 0, 1)), Poly((-2, 0, 1)), 100)
    assert v.distinguished and v.prime == 5
    assert v.signatures == ((1, 1), (2,))

    v2 = splitting_signature_distinguisher(Poly((-2, 0, 1)), Poly((-8, 0, 1)), 100)
    assert not v2.distinguished

    v3 = splitting_signature_distinguisher(Poly((1, 0, 1)), Poly((-2, 0, 0, 1)), 100)
    assert v3.distinguished and v3.reason == "degree"


def test_splitting_soundness_regression():
    # Both define the field of cube roots of unity: never distinguished.
    f = Poly((1, 1, 1))  # z^2 + z + 1
    g = Poly((3, 0, 1))  # z^2 + 3
    for bound in (50, 200, 500):
        v = splitting_signature_distinguisher(f, g, bound)
        assert not v.distinguished, bound


def test_splitting_monotone_in_bound():
    f, g = Poly((1, 0, 1)), Poly((-2, 0, 1))
    primes = []
    for bound in (10, 50, 200):
        v = splitting_signature_distinguisher(f, g, bound)
        assert v.distinguished
        primes.append(v.prime)
    assert primes[0] == primes[1] == primes[2]


def test_splitting_rejects_reducible():
    with pytest.raises(ValueError):
        splitting_signature_distinguisher(Poly((6, -5, 1)), Poly((1, 0, 1)))
    with pytest.raises(ValueError):
        splitting_signature_distinguisher(Poly((1, 0, 1)), Poly((1, 1, 1)) * Poly((-1, 1)))


def test_irreducibility_screen():
    ok, why = irreducibility_screen(Poly((1, 0, 1)))
    assert ok
    ok2, why2 = irreducibility_screen(Poly((6, -5, 1)))
    assert not ok2 and "rational root" in why2
    ok3, why3 = irreducibility_screen(Poly((1, 1, 1)) * Poly((1, 1, 1)))
    assert not ok3 and "cyclotomic" in why3
    ok4, why4 = irreducibility_screen(Poly((2, 0, 0, 0, 1)))
    assert ok4 and why4.startswith("screened only")


def reference_irreducibility_screen(f: Poly) -> tuple[bool, str]:
    """Reference: the screen with its own scan over every cyclotomic index."""
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
    for k in cyclotomic_indices(f.degree):
        phi = cyclotomic(k)
        if phi.degree < f.degree and phi.divides(f):
            return False, f"cyclotomic factor of order {k}"
    if f.degree <= 3:
        return True, "degree <= 3 with no rational root"
    return True, "screened only (degree > 3): irreducibility is caller-asserted"


def test_irreducibility_screen_matches_reference(rng):
    polys = [cyclotomic(k) for k in range(1, 31)] + [cyclotomic(5) * cyclotomic(5)]
    for _ in range(300):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))] + [1])
        for k in rng.sample(range(1, 31), rng.randint(0, 2)):
            f = f * cyclotomic(k)
        polys.append(f)
    reasons = set()
    for f in polys:
        got = irreducibility_screen(f)
        assert got == reference_irreducibility_screen(f), f
        reasons.add(got[1].split(" ")[0])
    assert {"cyclotomic", "rational", "screened", "degree"} <= reasons
