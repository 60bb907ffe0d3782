import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algact import cli, polyring
from algact.actions import AlgebraicAction
from algact.matrices import Matrix
from algact.polynomials import Poly, cyclotomic_split, unit_factor_exactness
from algact.polyring import (
    DEGREVLEX,
    LEX,
    ORDERS,
    MPoly,
    PolyParseError,
    _divides,
    buchberger,
    commalg_conditions,
    is_zero_dimensional,
    mpoly_to_poly,
    normal_form,
    order_key,
    parse_poly,
    quotient_algebra,
)

from conftest import poly_eval_matrix


def P(text, names):
    return parse_poly(text, names)


# -- parsing --------------------------------------------------------------------


def test_parse_known_cases():
    f = P("u^2 - u - 1", ["u"])
    assert f.terms == {(2,): 1, (1,): -1, (0,): -1}

    g = P("u*v - 3", ["u", "v"])
    assert g.terms == {(1, 1): 1, (0, 0): -3}

    with pytest.raises(PolyParseError) as err:
        P("u +", ["u"])
    assert err.value.offset == 3


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError) as err:
        P("u*w", ["u", "v"])
    assert "unknown variable 'w'" in str(err.value)


def test_parse_rationals_parens_signs():
    f = P("1/2*u^2 - (u - 3)", ["u"])
    assert f.terms == {(2,): Fraction(1, 2), (1,): -1, (0,): 3}
    assert P("-u", ["u"]).terms == {(1,): -1}
    assert P("2^3", ["u"]).terms == {(0,): 8}


def test_parse_unicode_minus():
    assert P("u− 1", ["u"]).terms == {(1,): 1, (0,): -1}


@pytest.mark.parametrize("coeff", [0.5, "1/3", True, None, 1.0])
def test_mpoly_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        MPoly(1, {(1,): coeff})


@pytest.mark.parametrize("exp", [(1.5,), ("2",), (True,), (1.0,), (Fraction(1),), (None,)])
def test_mpoly_rejects_non_integer_exponents(exp):
    with pytest.raises(TypeError):
        MPoly(1, {exp: 1})


@pytest.mark.parametrize("exp", [(-1,), (1, 0), ()])
def test_mpoly_rejects_bad_exponent_vectors(exp):
    with pytest.raises(ValueError):
        MPoly(1, {exp: 1})


def test_mpoly_normalizes_exact_input():
    f = MPoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 0})
    assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(f.terms[(1, 0)]) is int


def test_mpoly_to_poly():
    assert mpoly_to_poly(P("u^2-2", ["u"])) == Poly((-2, 0, 1))
    with pytest.raises(ValueError):
        mpoly_to_poly(P("u*v", ["u", "v"]))


# -- Groebner bases ----------------------------------------------------------------


def fmt(gb, names):
    return [g.format(names) for g in gb]


def test_buchberger_known_cases():
    gb1 = buchberger([P("u^2-2", ["u"])])
    assert fmt(gb1, ["u"]) == ["u^2 - 2"]

    gb2 = buchberger([P("u^2-2", ["u", "v"]), P("v^2-3", ["u", "v"])])
    assert sorted(fmt(gb2, ["u", "v"])) == ["u^2 - 2", "v^2 - 3"]

    gb3 = buchberger([P("u-v", ["u", "v"]), P("v^2-1", ["u", "v"])], order=LEX)
    assert sorted(fmt(gb3, ["u", "v"])) == ["u - v", "v^2 - 1"]


def test_membership_via_normal_form(rng):
    names = ["u", "v"]
    gens = [P("u^2-2", names), P("v^2-3", names)]
    gb = buchberger(gens)
    key = order_key(DEGREVLEX)
    local = random.Random(3)
    for _ in range(25):
        # random ideal combination must reduce to zero
        combo = MPoly(2)
        for g in gens:
            coeff = MPoly(
                2,
                {
                    (local.randint(0, 2), local.randint(0, 2)): local.randint(-3, 3)
                    for _ in range(2)
                },
            )
            combo = combo + coeff * g
        assert normal_form(combo, gb, key).is_zero()
    # and a non-member must not
    assert not normal_form(P("u", names), gb, key).is_zero()


def test_normal_form_is_linear_projection():
    names = ["u", "v"]
    gb = buchberger([P("u^2-2", names), P("v^2-3", names)])
    key = order_key(DEGREVLEX)
    f = P("u^2*v + u*v - v + 1/2", names)
    g = P("3*u^3 - v^2 + u", names)
    nf = lambda h: normal_form(h, gb, key)
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(nf(f)) == nf(f)


def test_normal_form_builds_one_mpoly(monkeypatch):
    # the working polynomial is one term dict reduced in place, so only the
    # remainder goes through the MPoly constructor, however many steps the
    # division takes (ten here)
    names = ["u", "v"]
    gb = buchberger([P("u^2-2", names), P("v^2-u-3", names)])
    f = P("u^3*v^2 + 2*u^2*v - v^3 + 1", names)
    calls = 0
    real_init = MPoly.__init__

    def counting(self, *args):
        nonlocal calls
        calls += 1
        real_init(self, *args)

    monkeypatch.setattr(MPoly, "__init__", counting)
    nf = normal_form(f, gb, order_key(DEGREVLEX))
    assert calls == 1
    assert nf.format(names) == "-u*v + 6*u + v + 5"


@st.composite
def division_inputs(draw):
    """(f, basis, order): 1-3 variables, integer and rational coefficients;
    the basis need not be a Groebner basis and may hold zero polynomials."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    mpolys = st.dictionaries(exps, coeffs, max_size=6).map(lambda terms: MPoly(nvars, terms))
    return draw(mpolys), draw(st.lists(mpolys, max_size=4)), draw(st.sampled_from(ORDERS))


@given(division_inputs())
@settings(max_examples=150, deadline=None)
def test_normal_form_is_reduced_and_idempotent(case):
    f, basis, order = case
    key = order_key(order)
    nf = normal_form(f, basis, key)
    leads = [g.leading(key)[0] for g in basis if not g.is_zero()]
    assert not any(_divides(le, e) for e in nf.terms for le in leads)
    assert normal_form(nf, basis, key) == nf


def test_buchberger_nontrivial_spair():
    # (xy - 1, y^2 - 1) in degrevlex: the S-pair forces x - y into the basis
    names = ["x", "y"]
    gb = buchberger([P("x*y-1", names), P("y^2-1", names)])
    assert any(g.format(names) == "x - y" for g in gb)


def test_groebner_basis_is_canonical():
    names = ["u", "v"]
    gens = [P("u^2-2", names), P("v^2-3", names), P("u^2*v - 2*v", names)]
    gb_a = buchberger(gens)
    gb_b = buchberger(list(reversed(gens)))
    assert gb_a == gb_b


@pytest.mark.parametrize(
    "gens, names, order",
    [
        (["u^2*v - 2", "u*v^2 - u - 1"], ["u", "v"], DEGREVLEX),
        (["u*v - w^2", "v*w - u", "u^2 - v - 1"], ["u", "v", "w"], DEGREVLEX),
        (["u^3 - v*w", "v^2 - u - w", "u*w - v^2 + 1"], ["u", "v", "w"], LEX),
    ],
)
def test_buchberger_computes_each_leading_term_once(monkeypatch, gens, names, order):
    # Outside normal_form and _autoreduce, which divide by the basis they are
    # given, no polynomial has its leading term computed twice.
    gens = [P(g, names) for g in gens]
    counts = {}  # id -> [polynomial, count]; the polynomial keeps the id taken
    inside = []
    real_leading = MPoly.leading

    def leading(self, key):
        if not inside:
            counts.setdefault(id(self), [self, 0])[1] += 1
        return real_leading(self, key)

    def excluded(fn):
        def run(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return run

    calls = []
    real_normal_form = polyring.normal_form

    def counting_normal_form(*args):
        calls.append(args)
        return real_normal_form(*args)

    monkeypatch.setattr(MPoly, "leading", leading)
    monkeypatch.setattr(polyring, "normal_form", excluded(counting_normal_form))
    monkeypatch.setattr(polyring, "_autoreduce", excluded(polyring._autoreduce))
    gb = buchberger(gens, order)
    monkeypatch.undo()
    assert gb == buchberger(gens, order)
    assert len(calls) > len(gb) + 2  # S-pairs were reduced, not only autoreduced
    assert max(n for _, n in counts.values()) == 1


def test_all_spairs_of_result_reduce_to_zero():
    # Definitive Groebner-basis property, checked post hoc on random ideals.
    from algact.polyring import s_polynomial

    local = random.Random(13)
    names = ["x", "y"]
    for _ in range(15):
        gens = []
        for _ in range(local.randint(1, 3)):
            terms = {
                (local.randint(0, 2), local.randint(0, 2)): local.randint(-4, 4)
                for _ in range(local.randint(1, 3))
            }
            f = MPoly(2, terms)
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        for order in (DEGREVLEX, LEX):
            gb = buchberger(gens, order)
            key = order_key(order)
            for a, b in itertools.combinations(gb, 2):
                assert normal_form(s_polynomial(a, a.leading(key)[0], b, b.leading(key)[0]), gb, key).is_zero()


def test_order_invariant_outputs():
    # Dimensions, norms, and characteristic polynomials agree across orders.
    names = ["u", "v"]
    gens = ["u^2-2", "v^2 - u - 3"]
    results = {}
    for order in (DEGREVLEX, LEX):
        gb = buchberger([P(g, names) for g in gens], order)
        qa = quotient_algebra(gb, 2, order)
        chi_u, nu = qa.char_poly_and_norm(MPoly.variable(2, 0))
        chi_v, nv = qa.char_poly_and_norm(MPoly.variable(2, 1))
        results[order] = (qa.dimension, chi_u, nu, chi_v, nv)
    assert results[DEGREVLEX] == results[LEX]


# -- zero-dimensionality -----------------------------------------------------------


def test_zero_dimensional_known_cases():
    names = ["u", "v"]
    assert is_zero_dimensional(buchberger([P("u^2-2", names), P("v^2-3", names)]), 2)
    assert not is_zero_dimensional(buchberger([P("u*v", names)]), 2)
    assert is_zero_dimensional(buchberger([P("u^2-u-1", ["u"])]), 1)


# -- quotient algebras ----------------------------------------------------------------


def test_quotient_algebra_golden_ratio():
    qa = quotient_algebra(buchberger([P("u^2-u-1", ["u"])]), 1)
    assert qa.basis == [(0,), (1,)]
    assert qa.var_matrices[0] == Matrix([[0, 1], [1, 1]])
    chi, norm = qa.char_poly_and_norm(MPoly.variable(1, 0))
    assert chi == Poly((-1, -1, 1)) and norm == 1


def test_quotient_algebra_two_square_roots():
    names = ["u", "v"]
    qa = quotient_algebra(buchberger([P("u^2-2", names), P("v^2-3", names)]), 2)
    assert qa.dimension == 4
    assert set(qa.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert qa.char_poly_and_norm(MPoly.variable(2, 0))[1] == 4
    assert qa.char_poly_and_norm(MPoly.variable(2, 1))[1] == 9


def test_norm_is_read_off_the_characteristic_polynomial(monkeypatch):
    names = ["u", "v"]
    qa = quotient_algebra(buchberger([P("2*u^2-3", names), P("v^2-u-1", names)]), 2)
    fs = [MPoly.variable(2, 0), MPoly.variable(2, 1), P("u*v+1", names)]
    calls = []
    real = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda m: calls.append(m) or real(m))
    norms = [qa.char_poly_and_norm(f)[1] for f in fs]
    assert calls == []
    monkeypatch.undo()
    assert norms == [abs(qa.mult_matrix(f).det()) for f in fs]
    assert norms[:2] == [Fraction(9, 4), Fraction(1, 2)]


def test_quotient_algebra_point():
    qa = quotient_algebra(buchberger([P("u-5", ["u"])]), 1)
    assert qa.basis == [(0,)]
    assert qa.var_matrices[0] == Matrix([[5]])


def test_quotient_algebra_requires_zero_dimensional():
    with pytest.raises(ValueError):
        quotient_algebra(buchberger([P("u*v", ["u", "v"])]), 2)


def test_multiplication_matrices_commute(rng):
    cases = [
        ["u^2-2", "v^2-3"],
        ["u^2-u-1", "v^3-2"],
        ["u^2 - v", "v^2 - u"],
    ]
    for gens in cases:
        names = ["u", "v"]
        gb = buchberger([P(g, names) for g in gens])
        if not is_zero_dimensional(gb, 2):
            continue
        qa = quotient_algebra(gb, 2)
        tu, tv = qa.var_matrices
        assert tu * tv == tv * tu


def test_char_poly_annihilates_and_degree(rng):
    names = ["u", "v"]
    qa = quotient_algebra(buchberger([P("u^2-2", names), P("v^2-3", names)]), 2)
    for text in ("u", "v", "u*v", "u+v", "u^2*v - 3"):
        f = P(text, names)
        chi, _ = qa.char_poly_and_norm(f)
        assert chi.degree == qa.dimension
        assert poly_eval_matrix(chi, qa.mult_matrix(f)) == Matrix.identity(qa.dimension) * 0


def test_uv_char_poly():
    names = ["u", "v"]
    qa = quotient_algebra(buchberger([P("u^2-2", names), P("v^2-3", names)]), 2)
    chi, _ = qa.char_poly_and_norm(P("u*v", names))
    assert chi == Poly((36, 0, -12, 0, 1))  # (z^2 - 6)^2
    assert (Matrix.identity(4) - qa.mult_matrix(P("u*v", names))).det() == 25


def test_mult_matrix_depends_on_residue_only():
    names = ["u", "v"]
    gens = [P("u^2-2", names), P("v^2-3", names)]
    qa = quotient_algebra(buchberger(gens), 2)
    f = P("u*v + 1", names)
    g = f + gens[0] * P("v", names) + gens[1]
    assert qa.normal_form(f) == qa.normal_form(g)
    assert qa.mult_matrix(f) == qa.mult_matrix(g)


def test_injectivity_matches_kernel():
    # det(I - T_f) != 0 iff multiplication by 1 - f is injective
    sympy = pytest.importorskip("sympy")
    names = ["u", "v"]
    qa = quotient_algebra(buchberger([P("u^2-2", names), P("v^2-3", names)]), 2)
    for text in ("u", "u*v", "u+v-1"):
        f = P(text, names)
        m = Matrix.identity(qa.dimension) - qa.mult_matrix(f)
        kernel = sympy.Matrix(m.entries()).nullspace()
        assert (m.det() != 0) == (kernel == [])


def test_principal_companion_identity(rng):
    # For I = (f), the multiplication matrix of u is the companion of f.
    local = random.Random(9)
    for _ in range(10):
        deg = local.randint(1, 4)
        f = Poly([local.randint(-5, 5) for _ in range(deg)] + [1])
        text = " + ".join(f"{f[i]}*u^{i}" for i in range(deg + 1))
        mp = parse_poly(text.replace("+ -", "- "), ["u"])
        qa = quotient_algebra(buchberger([mp]), 1)
        assert qa.var_matrices[0] == Matrix.companion(f)
        chi, _ = qa.char_poly_and_norm(MPoly.variable(1, 0))
        assert chi == f


# -- condition battery --------------------------------------------------------------------


def test_conditions_two_root_ideal_full():
    names = ["u", "v"]
    rep = commalg_conditions([P("u^2-2", names), P("v^2-3", names)], names)
    assert rep.a_holds and rep.b_holds and rep.c_holds
    assert rep.d_holds and rep.d_witness_primes == {"u": 2, "v": 3}
    assert rep.dimension == 4
    assert rep.norms == {"u": 4, "v": 9}


def test_conditions_unit_norm_fails_d():
    rep = commalg_conditions([P("u^2-u-1", ["u"])], ["u"])
    assert rep.a_holds and rep.b_holds
    assert rep.d_holds is False
    assert rep.norms == {"u": 1}


def test_conditions_positive_dimensional():
    rep = commalg_conditions([P("u*v", ["u", "v"])], ["u", "v"])
    assert not rep.zero_dimensional and not rep.a_holds
    assert rep.b_holds is None


def test_conditions_variable_in_ideal():
    rep = commalg_conditions([P("u", ["u", "v"]), P("v^2-2", ["u", "v"])], ["u", "v"])
    assert rep.zero_dimensional
    assert not rep.variables_nonzero["u"]
    assert not rep.a_holds


def test_conditions_report_roundtrip():
    import json

    names = ["u", "v"]
    rep = commalg_conditions([P("u^2-2", names), P("v^2-3", names)], names)
    data = cli._to_json(rep)
    assert data.pop("groebner_basis") == rep.groebner_basis
    assert json.loads(json.dumps(data)) == data


# -- principal exactness -----------------------------------------------------------------
# The action on Z[u]/(f) is the shift by the companion of f, so its verdict is
# the one `analyze` gives on that companion.


def principal_analysis(f: Poly) -> dict:
    return cli.analyze_action(AlgebraicAction(f.degree, [("s", Matrix.companion(f))]), 3, 2)


def test_principal_exactness_known_cases():
    rep = principal_analysis(Poly((-2, 1)))  # z - 2
    assert rep["exactness"]["verdict"] == "exact"
    assert rep["standing"]["non_automorphic"] and rep["mixing"]["s"]["witness_order"] is None

    rep2 = principal_analysis(Poly((2, -3, 1)))  # (z-1)(z-2)
    assert rep2["exactness"]["verdict"] == "not_exact"
    assert rep2["exactness"]["criterion"]["cyclotomic_divisor"] == 1

    # z^2 - z - 1: no cyclotomic factor, but the constant term is a unit, so
    # the shift is an automorphism and the action cannot be exact.
    rep3 = principal_analysis(Poly((-1, -1, 1)))
    assert rep3["mixing"]["s"]["witness_order"] is None
    assert not rep3["standing"]["non_automorphic"]
    assert rep3["exactness"]["verdict"] == "not_exact"


def test_principal_exactness_agrees_with_action_pipeline():
    # The family-and-criterion verdict of the action agrees with the
    # unit-factor rule read off f alone.
    for coeffs in [(-2, 1), (2, -3, 1), (-1, -1, 1), (-2, 0, 1), (3, -1, 1)]:
        f = Poly(coeffs)
        verdict, _, _ = unit_factor_exactness(cyclotomic_split(f))
        assert principal_analysis(f)["exactness"]["verdict"] == verdict


def test_principal_exactness_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        principal_analysis(Poly((1, 2)))


@pytest.mark.parametrize("coeffs", [(0, 1), (0, 0, 1), (0, 1, 1)], ids=["z", "z^2", "z^2 + z"])
def test_principal_exactness_rejects_zero_constant_term(coeffs):
    # f(0) = 0: the shift on Z[u]/(f) is not injective, so there is no
    # action to call exact or not.
    with pytest.raises(ValueError, match="singular"):
        principal_analysis(Poly(coeffs))
