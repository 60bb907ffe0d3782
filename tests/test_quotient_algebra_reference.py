"""Differential tests for the quotient-algebra construction.

The former construction is kept here as the reference: its own pure-power
scan for zero-dimensionality and for the staircase bounds, an inline
normal-form loop for the variable matrices, and multiplication matrices
assembled from matrix powers.  The package now has one staircase scan, one
coordinate map and monomial matrices built degree by degree; these tests
check that it still produces the same staircase, the same variable matrices,
the same multiplication matrices and the same condition-(c) witness, and
that it no longer takes matrix powers.
"""

import itertools
import random
from fractions import Fraction

import pytest

from algact.matrices import Matrix
from algact.polyring import (
    DEGREVLEX,
    LEX,
    MPoly,
    buchberger,
    commalg_conditions,
    is_zero_dimensional,
    normal_form,
    order_key,
    parse_poly,
    quotient_algebra,
)

# -- the former construction ------------------------------------------------------


def old_is_zero_dimensional(gb, nvars, order):
    key = order_key(order)
    leads = [g.leading(key)[0] for g in gb]
    for i in range(nvars):
        if not any(e[i] > 0 and all(e[j] == 0 for j in range(nvars) if j != i) for e in leads):
            return False
    return True


def old_quotient_algebra(gb, nvars, order):
    """(staircase, variable matrices) as the former quotient_algebra built them."""
    key = order_key(order)
    leads = [g.leading(key)[0] for g in gb]
    bounds = []
    for i in range(nvars):
        pure = min(e[i] for e in leads if e[i] > 0 and all(e[j] == 0 for j in range(nvars) if j != i))
        bounds.append(pure)
    staircase = [
        exp
        for exp in itertools.product(*(range(b) for b in bounds))
        if not any(all(x <= y for x, y in zip(le, exp)) for le in leads)
    ]
    staircase.sort(key=key)
    index = {e: i for i, e in enumerate(staircase)}
    mats = []
    for i in range(nvars):
        cols = []
        for e in staircase:
            shifted = MPoly.monomial(nvars, tuple(x + (1 if j == i else 0) for j, x in enumerate(e)))
            nf = normal_form(shifted, list(gb), key)
            col = [0] * len(staircase)
            for ee, c in nf.terms.items():
                col[index[ee]] = c
            cols.append(col)
        mats.append(Matrix([[cols[j][i2] for j in range(len(staircase))] for i2 in range(len(staircase))]))
    return staircase, tuple(mats)


def old_mult_matrix(var_matrices, f):
    n = var_matrices[0].rows
    out = Matrix.identity(n) * 0
    for exp, coeff in f.terms.items():
        term = Matrix.identity(n)
        for i, e in enumerate(exp):
            if e:
                term = term * (var_matrices[i] ** e)
        out = out + term * coeff
    return out


def old_c_witness(var_matrices, names):
    nvars = len(names)
    n = var_matrices[0].rows
    ident = Matrix.identity(n)
    for total in range(1, 2 * n + 1):
        for exp in itertools.product(range(total + 1), repeat=nvars):
            if sum(exp) != total:
                continue
            f = MPoly.monomial(nvars, exp)
            if (ident - old_mult_matrix(var_matrices, f)).det() != 0:
                return f.format(names)
    return None


# -- the ideals ----------------------------------------------------------------------

NAMES = ["u", "v", "w"]

# (generators, order): the ideals of the golden polyideal and compare cases.
GOLDEN_IDEALS = [
    (["u^2-2", "v^2-3"], DEGREVLEX),
    (["u^2-2", "v^2-5"], DEGREVLEX),
    (["u^2-u-1"], DEGREVLEX),
    (["u^2-2"], DEGREVLEX),
    (["u*v"], DEGREVLEX),
    (["u+v-3", "u^2-3*u+2"], DEGREVLEX),
    (["u^2-1", "v^2-1"], DEGREVLEX),
    (["u^2-2", "v^2-u", "w^2-v-1"], LEX),
    (["2*u^2-3", "3*v^2-u-1"], DEGREVLEX),
]


def _names(gens):
    used = max(i for i, name in enumerate(NAMES) if any(name in g for g in gens))
    return NAMES[: used + 1]


def _random_coeff(rng, rational):
    c = rng.randint(-3, 3)
    return Fraction(c, rng.choice((1, 2, 3))) if rational else c


def triangular_ideal(rng, degrees, rational, through_ones):
    """g_k = lead * u_k^d_k + lower terms in u_1..u_k, each u_j below d_j:
    zero-dimensional of dimension prod(d_k) under every order.  Through the
    point (1, ..., 1), no monomial satisfies condition (c)."""
    nvars = len(degrees)
    gens = []
    for k, dk in enumerate(degrees):
        lead = rng.choice((1, 2, 3)) if rational else 1
        terms = {tuple(dk if j == k else 0 for j in range(nvars)): lead}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randrange(degrees[j]) if j <= k else 0 for j in range(nvars))
            terms[exp] = terms.get(exp, 0) + _random_coeff(rng, rational)
        if through_ones:
            zero = (0,) * nvars
            terms[zero] = terms.get(zero, 0) - sum(terms.values())
        gens.append(MPoly(nvars, terms))
    return gens


def _seeded_ideals():
    rng = random.Random(20261018)
    out = []
    for case in range(16):
        nvars = 2 if case < 10 else 3
        degrees = [rng.randint(2, 3) if nvars == 2 else rng.randint(1, 2) for _ in range(nvars)]
        gens = triangular_ideal(rng, degrees, rational=case % 3 == 2, through_ones=case % 4 == 3)
        out.append((gens, (DEGREVLEX, LEX)[case % 2]))
    return out


SEEDED_IDEALS = _seeded_ideals()


def _all_ideals():
    for gens, order in GOLDEN_IDEALS:
        names = _names(gens)
        yield f"golden {gens} {order}", [parse_poly(g, names) for g in gens], names, order
    for i, (gens, order) in enumerate(SEEDED_IDEALS):
        yield f"seeded {i} {order}", gens, NAMES[: gens[0].nvars], order


ALL_IDEALS = list(_all_ideals())


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exp = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[exp] = terms.get(exp, 0) + _random_coeff(rng, rng.random() < 0.3)
    return MPoly(nvars, terms)


# -- differential checks ----------------------------------------------------------------


@pytest.mark.parametrize("label, gens, names, order", ALL_IDEALS, ids=[c[0] for c in ALL_IDEALS])
def test_staircase_and_variable_matrices_match(label, gens, names, order):
    gb = buchberger(gens, order)
    nvars = len(names)
    zero_dim = old_is_zero_dimensional(gb, nvars, order)
    assert is_zero_dimensional(gb, nvars, order) == zero_dim
    # and with one member of the basis dropped
    for sub in itertools.combinations(gb, len(gb) - 1):
        assert is_zero_dimensional(list(sub), nvars, order) == old_is_zero_dimensional(list(sub), nvars, order)
    if not zero_dim:
        with pytest.raises(ValueError):
            quotient_algebra(gb, nvars, order)
        return
    staircase, mats = old_quotient_algebra(gb, nvars, order)
    qa = quotient_algebra(gb, nvars, order)
    assert qa.basis == staircase
    assert qa.var_matrices == mats


@pytest.mark.parametrize("label, gens, names, order", ALL_IDEALS, ids=[c[0] for c in ALL_IDEALS])
def test_mult_matrix_matches_matrix_powers(label, gens, names, order):
    gb = buchberger(gens, order)
    nvars = len(names)
    if not old_is_zero_dimensional(gb, nvars, order):
        return
    qa = quotient_algebra(gb, nvars, order)
    rng = random.Random(label)
    fs = [MPoly(nvars), MPoly.constant(nvars, Fraction(-5, 2))]
    fs += [MPoly.variable(nvars, i) * c for i in range(nvars) for c in (1, -1, Fraction(3, 2))]
    fs += [MPoly.monomial(nvars, exp) for exp in itertools.product(range(3), repeat=nvars)]
    fs += [_random_poly(rng, nvars) for _ in range(8)]
    for f in fs:
        assert qa.mult_matrix(f) == old_mult_matrix(qa.var_matrices, f), f


@pytest.mark.parametrize("label, gens, names, order", ALL_IDEALS, ids=[c[0] for c in ALL_IDEALS])
def test_condition_c_witness_matches_power_search(label, gens, names, order):
    gb = buchberger(gens, order)
    if not old_is_zero_dimensional(gb, len(names), order):
        return
    _, mats = old_quotient_algebra(gb, len(names), order)
    assert commalg_conditions(gens, names, order).c_witness == old_c_witness(mats, names)


# -- what the construction no longer does -----------------------------------------------


def _counting(monkeypatch, name):
    calls = []
    real = getattr(Matrix, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(Matrix, name, counted)
    return calls


@pytest.mark.parametrize("gens", [["u^2-1", "v^2-1"], ["u+v-3", "u^2-3*u+2"], ["2*u^2-3", "3*v^2-u-1"]])
def test_conditions_take_no_matrix_powers(monkeypatch, gens):
    names = ["u", "v"]
    mpolys = [parse_poly(g, names) for g in gens]
    calls = _counting(monkeypatch, "__pow__")
    commalg_conditions(mpolys, names)
    assert calls == []


def test_variable_charpoly_multiplies_no_matrices(monkeypatch):
    names = ["u", "v", "w"]
    gb = buchberger([parse_poly(g, names) for g in ("u^2-2", "v^2-u", "w^2-v-1")], LEX)
    qa = quotient_algebra(gb, 3, LEX)
    calls = _counting(monkeypatch, "__mul__")
    for i in range(3):
        assert qa.mult_matrix(MPoly.variable(3, i)) is qa.var_matrices[i]
        qa.char_poly_and_norm(MPoly.variable(3, i))
    assert calls == []
