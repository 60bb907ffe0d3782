"""Differential test: `polyring.normal_form`, which reduces one term dict in
place, against the loop it replaced, kept here as the reference.  Also against
sympy's reduction by a reduced Groebner basis where sympy is installed.

The reference rebuilds the working polynomial as an MPoly at every step.  Both
pick the first basis member whose leading exponent divides the leading term,
so they agree on any basis, not only on Groebner bases: same remainder, same
coefficient types and the same term order in the remainder's dict.
"""

import random
from fractions import Fraction

import pytest

from algact.polyring import (
    DEGREVLEX,
    LEX,
    MPoly,
    _divides,
    _exp_sub,
    buchberger,
    normal_form,
    order_key,
)


def reference_normal_form(f: MPoly, basis, key) -> MPoly:
    """Remainder of multivariate division of f by the basis."""
    rem: dict = {}
    work = f
    leads = [(g.leading(key)[0], g.leading(key)[1], g) for g in basis if not g.is_zero()]
    while not work.is_zero():
        exp, coeff = work.leading(key)
        hit = next((t for t in leads if _divides(t[0], exp)), None)
        if hit is None:
            rem[exp] = rem.get(exp, 0) + coeff
            work = work - MPoly.monomial(work.nvars, exp, coeff)
        else:
            lexp, lc, g = hit
            factor = MPoly.monomial(work.nvars, _exp_sub(exp, lexp), Fraction(coeff) / Fraction(lc))
            work = work - factor * g
    return MPoly(f.nvars, rem)


def random_coeff(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-9, 9)


def random_mpoly(rng, nvars, max_terms, max_degree, rational):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exp] = random_coeff(rng, rational)
    return MPoly(nvars, terms)


def random_case(rng):
    """One (f, basis, key): 1-3 variables, either order, integer or rational
    coefficients, bases that need not be Groebner bases, may be empty and may
    hold zero polynomials, and now and then the zero polynomial as f."""
    nvars = rng.randint(1, 3)
    rational = rng.random() < 0.5
    key = order_key(rng.choice((DEGREVLEX, LEX)))
    f = MPoly(nvars) if rng.random() < 0.05 else random_mpoly(rng, nvars, 8, 5, rational)
    basis = [random_mpoly(rng, nvars, 4, 3, rational) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        basis.insert(rng.randint(0, len(basis)), MPoly(nvars))
    return f, basis, key


def snapshot(p: MPoly):
    return p.nvars, [(e, c, type(c)) for e, c in p.terms.items()]


def test_matches_reference_on_random_bases():
    rng = random.Random("normal-form-reference")
    reduced = 0
    for _ in range(2000):
        f, basis, key = random_case(rng)
        got = normal_form(f, basis, key)
        want = reference_normal_form(f, basis, key)
        assert snapshot(got) == snapshot(want), (f, basis)
        reduced += got != f
    assert reduced > 1000  # most cases take reduction steps


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
def test_matches_reference_on_groebner_bases(order):
    rng = random.Random(f"normal-form-groebner-{order}")
    key = order_key(order)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        gens = [random_mpoly(rng, nvars, 3, 2, True) for _ in range(nvars)]
        if all(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens, order)
        for _ in range(5):
            f = random_mpoly(rng, nvars, 6, 4, True)
            assert snapshot(normal_form(f, gb, key)) == snapshot(reference_normal_form(f, gb, key))


@pytest.mark.parametrize("order, sympy_order", [(DEGREVLEX, "grevlex"), (LEX, "lex")])
def test_sympy_oracle(order, sympy_order):
    # On a reduced Groebner basis the remainder is unique, whatever the
    # division picks at each step.
    sympy = pytest.importorskip("sympy")
    names = ["u", "v", "w"]
    syms = sympy.symbols(names)
    key = order_key(order)
    rng = random.Random(f"normal-form-sympy-{order}")
    checked = nonzero = 0
    for _ in range(12):
        nvars = rng.randint(1, 3)
        gens = [random_mpoly(rng, nvars, 3, 2, True) for _ in range(nvars)]
        if all(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens, order)
        sgb = sympy.groebner([to_sympy(sympy, g, syms) for g in gens], *syms[:nvars], order=sympy_order, domain="QQ")
        assert len(sgb.exprs) == len(gb)
        for _ in range(4):
            f = random_mpoly(rng, nvars, 6, 4, True)
            got = normal_form(f, gb, key)
            want = sgb.reduce(to_sympy(sympy, f, syms))[1]
            assert sympy.expand(to_sympy(sympy, got, syms) - want) == 0, (f, gb)
            checked += 1
            nonzero += not got.is_zero()
    assert checked >= 30 and nonzero >= 15


def to_sympy(sympy, p: MPoly, syms):
    out = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for s, k in zip(syms, exp):
            term *= s**k
        out += term
    return out
