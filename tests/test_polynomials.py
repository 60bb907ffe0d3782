from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algact.matrices import charpoly
from algact.polynomials import Poly, cyclotomic, cyclotomic_indices, cyclotomic_split, format_poly
from algact.arith import divisors, euler_phi
from algact.presets import EXAMPLE_ACTIONS

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(Poly)


def test_construction_normalizes():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).is_zero()
    assert Poly((Fraction(4, 2),)).coeffs == (2,)
    assert isinstance(Poly((Fraction(4, 2),)).coeffs[0], int)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_degree_and_leading():
    f = Poly((-1, -1, 1))
    assert f.degree == 2
    assert f.leading() == 1
    assert f.is_monic()
    assert Poly(()).degree == -1


@given(small_polys, small_polys)
def test_add_commutes(f, g):
    assert f + g == g + f


def test_scalar_operands_and_composition():
    z = Poly((0, 1))
    assert z + 1 == 1 + z == Poly((1, 1))
    assert 1 - z == Poly((1, -1)) and z - Fraction(1, 2) == Poly((Fraction(-1, 2), 1))
    # Horner's rule composes: f(z + 1) for f = z^2 + 2z + 2
    assert Poly((2, 2, 1))(Poly((1, 1))) == Poly((5, 4, 1))
    with pytest.raises(TypeError):
        z + 0.5


@given(small_polys, small_polys, small_polys)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(small_polys, small_polys)
def test_divmod_recomposes(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


def test_gcd_monic():
    f = Poly((-2, 1)) * Poly((3, 1))
    g = Poly((-2, 1)) * Poly((5, 1))
    assert f.gcd(g) == Poly((-2, 1))


def test_eval():
    f = Poly((6, -5, 1))  # z^2 - 5z + 6
    assert f(2) == 0 and f(3) == 0 and f(0) == 6
    assert f(Fraction(1, 2)) == Fraction(6, 1) - Fraction(5, 2) + Fraction(1, 4)


def test_cyclotomic_examples():
    assert cyclotomic(1) == Poly((-1, 1))
    assert cyclotomic(4) == Poly((1, 0, 1))
    assert cyclotomic(6) == Poly((1, -1, 1))


def test_cyclotomic_product_identity():
    # prod_{d | k} Phi_d = z^k - 1 for k <= 30
    for k in range(1, 31):
        prod = Poly((1,))
        for d in divisors(k):
            prod = prod * cyclotomic(d)
        assert prod == Poly((-1,) + (0,) * (k - 1) + (1,)), k


def test_cyclotomic_degree_is_phi():
    for k in range(1, 31):
        assert cyclotomic(k).degree == euler_phi(k)


def test_cyclotomic_indices_complete():
    # phi(k) <= 2 exactly for k in {1, 2, 3, 4, 6}
    assert cyclotomic_indices(2) == (1, 2, 3, 4, 6)


def test_cyclotomic_indices_are_computed_once_per_degree(monkeypatch):
    from algact import polynomials

    f = Poly((3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # z^11 + 3
    first = cyclotomic_split(f)
    calls = []
    monkeypatch.setattr(polynomials, "euler_phi", lambda k: calls.append(k) or euler_phi(k))
    assert cyclotomic_split(f) == first
    assert calls == []
    assert isinstance(cyclotomic_indices(11), tuple)


def gcd_scan_cyclotomic_divisor(f: Poly) -> int | None:
    """Reference: the least order k with Phi_k | f, by a gcd scan."""
    for k in cyclotomic_indices(max(f.degree, 1)):
        if f.gcd(cyclotomic(k)).degree >= 1:
            return k
    return None


def test_cyclotomic_divisor_matches_gcd_scan(rng):
    polys = [charpoly(m) for make in EXAMPLE_ACTIONS.values() for m in make().matrices]
    for _ in range(150):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 8))] + [rng.choice((-2, -1, 1, 3))])
        for k in rng.sample(range(1, 31), rng.randint(0, 2)):
            f = f * cyclotomic(k)
        polys.append(f)
    for f in polys:
        assert cyclotomic_split(f).least_order == gcd_scan_cyclotomic_divisor(f), f
    assert cyclotomic_split(Poly((1, 0, 1)) * Poly((-2, 1))).least_order == 4
    assert cyclotomic_split(Poly((-2, 0, 1))).least_order is None


def test_cyclotomic_split_factors_f(rng):
    for _ in range(100):
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))] + [rng.choice((-2, 1, 3))])
        orders = sorted(rng.choice((1, 2, 3, 4, 5, 6, 8, 12)) for _ in range(rng.randint(0, 3)))
        f = g
        for k in orders:
            f = f * cyclotomic(k)
        split = cyclotomic_split(f)
        product = split.cofactor
        for k in split.orders:
            product = product * cyclotomic(k)
        assert split.poly == f and product == f, f
        assert list(split.orders) == sorted(split.orders)
        assert gcd_scan_cyclotomic_divisor(split.cofactor) is None, f
        # every chosen factor is found, with its multiplicity
        assert all(split.orders.count(k) >= orders.count(k) for k in orders), f
    split = cyclotomic_split(cyclotomic(3) ** 2 * cyclotomic(1) * Poly((5, 1)))
    assert split.orders == (1, 3, 3) and split.cofactor == Poly((5, 1))
    with pytest.raises(ValueError):
        cyclotomic_split(Poly())


def test_format_poly():
    assert format_poly(Poly((-1, -1, 1))) == "z^2 - z - 1"
    assert format_poly(Poly((2,))) == "2"
    assert format_poly(Poly(())) == "0"
    assert format_poly(Poly((0, 1)), var="u") == "u"

