from fractions import Fraction

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
from algact.matrices import Matrix
from algact.polynomials import Poly

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
    from algact.arith import divisors

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
