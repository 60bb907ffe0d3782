"""Differential test: `polyring.buchberger`, which reads each member's leading
exponent from a list filled when the member joins, against the loop it
replaced, kept here as the reference.  Also against sympy's `groebner` where
sympy is installed.

The reference recomputes `basis[i].leading(key)` at every use: twice per pair
in the pair selection, once per member in the chain criterion and twice in
each S-polynomial.  Both choose pairs by the same key over the same set, so
they agree step by step: the same `normal_form` calls with the same
arguments, in the same order, and the same reduced basis, member by member,
down to the coefficient types.
"""

import random
import sys
from fractions import Fraction

import pytest

from algact import polyring
from algact.polyring import (
    DEGREVLEX,
    LEX,
    MPoly,
    _divides,
    _exp_lcm,
    _exp_sub,
    buchberger,
    normal_form,
    order_key,
)


def reference_s_polynomial(f: MPoly, g: MPoly, key) -> MPoly:
    ef, cf = f.leading(key)
    eg, cg = g.leading(key)
    lcm = _exp_lcm(ef, eg)
    mf = MPoly.monomial(f.nvars, _exp_sub(lcm, ef), Fraction(1) / Fraction(cf))
    mg = MPoly.monomial(g.nvars, _exp_sub(lcm, eg), Fraction(1) / Fraction(cg))
    return mf * f - mg * g


def reference_buchberger(gens, order: str = DEGREVLEX) -> list[MPoly]:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pairs are processed smallest-lcm first (normal selection); the coprime
    leading-term criterion and the chain criterion prune the queue.  The
    result is the canonical reduced, monic, autoreduced basis for the order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    key = order_key(order)
    basis = [g.monic(key) for g in gens]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lead(i):
        return basis[i].leading(key)[0]

    while pairs:
        i, j = min(pairs, key=lambda p: key(_exp_lcm(lead(p[0]), lead(p[1]))))
        pairs.discard((i, j))
        li, lj = lead(i), lead(j)
        lcm = _exp_lcm(li, lj)
        if lcm == tuple(x + y for x, y in zip(li, lj)):
            continue  # coprime leading terms
        if any(
            k != i and k != j
            and _divides(lead(k), lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue  # chain criterion
        rem = normal_form(reference_s_polynomial(basis[i], basis[j], key), basis, key)
        if rem.is_zero():
            continue
        basis.append(rem.monic(key))
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return reference_autoreduce(basis, key)


def reference_autoreduce(basis, key):
    # Drop members whose leading term another one divides, then fully reduce tails.
    kept = []
    for i, g in enumerate(basis):
        lg = g.leading(key)[0]
        if any(
            j != i and _divides(basis[j].leading(key)[0], lg) and (j < i or basis[j].leading(key)[0] != lg)
            for j in range(len(basis))
        ):
            continue
        kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, key) if others else g
        if not r.is_zero():
            reduced.append(r.monic(key))
    reduced.sort(key=lambda g: key(g.leading(key)[0]))
    return reduced


def random_coeff(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
    return rng.randint(-9, 9)


def random_mpoly(rng, nvars, max_terms, max_degree, rational):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exp] = random_coeff(rng, rational)
    return MPoly(nvars, terms)


def random_case(rng):
    """One (gens, order): 1-3 variables, either order, integer or rational
    coefficients, now and then a zero generator among nonzero ones."""
    nvars = rng.randint(1, 3)
    rational = rng.random() < 0.5
    order = rng.choice((DEGREVLEX, LEX))
    max_degree = 3 if nvars == 1 else 2
    gens = [random_mpoly(rng, nvars, 3, max_degree, rational) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.1:
        gens.insert(rng.randint(0, len(gens)), MPoly(nvars))
    if all(g.is_zero() for g in gens):
        gens.append(MPoly.variable(nvars, 0))
    return gens, order


def snapshot(p: MPoly):
    return p.nvars, [(e, c, type(c)) for e, c in p.terms.items()]


def recorded_run(monkeypatch, fn, gens, order):
    """fn(gens, order) and the arguments of every normal_form call it made,
    the basis copied at the time of the call."""
    calls = []
    real = polyring.normal_form

    def recording(f, basis, key):
        calls.append((snapshot(f), [snapshot(g) for g in basis]))
        return real(f, basis, key)

    with monkeypatch.context() as m:
        m.setattr(polyring, "normal_form", recording)
        m.setattr(sys.modules[__name__], "normal_form", recording)
        result = fn(gens, order)
    return [snapshot(g) for g in result], calls


def test_matches_reference_step_by_step(monkeypatch):
    rng = random.Random("buchberger-reference")
    grew = 0
    for _ in range(1000):
        gens, order = random_case(rng)
        got, got_calls = recorded_run(monkeypatch, buchberger, gens, order)
        want, want_calls = recorded_run(monkeypatch, reference_buchberger, gens, order)
        assert got == want, (gens, order)
        assert got_calls == want_calls, (gens, order)
        grew += len(got_calls) > len(got)
    assert grew > 200  # many cases reduce S-polynomials, not only autoreduce


def test_rejects_the_same_inputs():
    for gens in ([], [MPoly(2)], [MPoly(2), MPoly(2)]):
        with pytest.raises(ValueError, match="nonzero generator"):
            buchberger(gens)
        with pytest.raises(ValueError, match="nonzero generator"):
            reference_buchberger(gens)


@pytest.mark.parametrize("order, sympy_order", [(DEGREVLEX, "grevlex"), (LEX, "lex")])
def test_sympy_oracle(order, sympy_order):
    # A reduced Groebner basis is unique, and sympy returns it monic over QQ.
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(["u", "v", "w"])
    rng = random.Random(f"buchberger-sympy-{order}")
    proper = 0
    for _ in range(40):
        nvars = rng.randint(1, 3)
        gens = [random_mpoly(rng, nvars, 3, 2, True) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens, order)
        sgb = sympy.groebner([to_sympy(sympy, g, syms) for g in gens], *syms[:nvars], order=sympy_order, domain="QQ")
        want = {sympy.expand(p) for p in sgb.exprs}
        assert {sympy.expand(to_sympy(sympy, g, syms)) for g in gb} == want, (gens, order)
        proper += gb[0].total_degree() > 0
    assert proper >= 10  # not only unit ideals


def to_sympy(sympy, p: MPoly, syms):
    out = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for s, k in zip(syms, exp):
            term *= s**k
        out += term
    return out
