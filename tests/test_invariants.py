from algact.invariants import conjugacy_class, irreducibility_screen, splitting_signature_distinguisher
from algact.arith import divisors
from algact.matrices import Matrix
from algact.polynomials import Poly, cyclotomic, cyclotomic_indices

from conftest import random_int_matrix, random_unimodular


# -- conjugacy ------------------------------------------------------------------
# Two matrices are conjugate over Q exactly when their classes are equal.


def test_q_conjugate_known_cases():
    assert conjugacy_class(Matrix([[2, 0], [0, 3]])) == conjugacy_class(Matrix.companion(Poly((6, -5, 1))))
    assert conjugacy_class(Matrix([[2, 0], [0, 2]])) != conjugacy_class(Matrix([[2, 1], [0, 2]]))


def test_q_conjugate_under_conjugation(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 6)
        u = random_unimodular(rng, n)
        assert conjugacy_class(m) == conjugacy_class(u * m * u.inverse())


def test_q_conjugate_dimension_mismatch():
    assert conjugacy_class(Matrix([[2]])) != conjugacy_class(Matrix([[2, 0], [0, 2]]))


def test_q_conjugate_transpose(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 5)
        assert conjugacy_class(m) == conjugacy_class(m.transpose())


def test_q_conjugate_equivalence_relation(rng):
    mats = [random_int_matrix(rng, 3, 3) for _ in range(8)]
    for a in mats:
        assert conjugacy_class(a) == conjugacy_class(a)
        for b in mats:
            assert (conjugacy_class(a) == conjugacy_class(b)) == (conjugacy_class(b) == conjugacy_class(a))
            for c in mats:
                if conjugacy_class(a) == conjugacy_class(b) and conjugacy_class(b) == conjugacy_class(c):
                    assert conjugacy_class(a) == conjugacy_class(c)


def test_conjugacy_class_fields():
    cc = conjugacy_class(Matrix([[2, 0], [0, 2]]))
    assert cc.dimension == 2
    assert cc.describe() == ["z - 2", "z - 2"]


# -- splitting distinguisher ----------------------------------------------------------------


def test_splitting_known_cases():
    assert splitting_signature_distinguisher(Poly((1, 0, 1)), Poly((-2, 0, 1)), 100) == (5, (1, 1), (2,))
    assert splitting_signature_distinguisher(Poly((-2, 0, 1)), Poly((-8, 0, 1)), 100) is None


def test_splitting_soundness_regression():
    # Both define the field of cube roots of unity: never distinguished.
    f = Poly((1, 1, 1))  # z^2 + z + 1
    g = Poly((3, 0, 1))  # z^2 + 3
    for bound in (50, 200, 500):
        assert splitting_signature_distinguisher(f, g, bound) is None, bound


def test_splitting_monotone_in_bound():
    f, g = Poly((1, 0, 1)), Poly((-2, 0, 1))
    primes = []
    for bound in (10, 50, 200):
        found = splitting_signature_distinguisher(f, g, bound)
        assert found is not None
        primes.append(found[0])
    assert primes[0] == primes[1] == primes[2]


def test_splitting_rejects_reducible():
    # Splitting signatures certify only between irreducible polynomials; the
    # screen that rejects these inputs runs before any prime is scanned (ring
    # compare exits 2 on them, see test_cli.py::test_compare_ring_rejects_reducible).
    ok, why = irreducibility_screen(Poly((6, -5, 1)))  # (z-2)(z-3)
    assert not ok and why == "rational root 2"
    ok, why = irreducibility_screen(Poly((1, 1, 1)) * Poly((-1, 1)))  # z^3-1
    assert not ok and why == "rational root 1"


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
        if phi.degree < f.degree and (f % phi).is_zero():
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
