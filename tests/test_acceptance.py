"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

from algact import cli
from algact.actions import AlgebraicAction, constructible_family, check_condition_F
from algact.groupoid import verify_word_identity
from algact.invariants import conjugacy_class
from algact.lattices import Lattice, intersect, lattice_sum, preimage, quotient
from algact.matrices import Matrix, charpoly, hnf
from algact.polynomials import Poly, cyclotomic_split
from algact.polyring import MPoly, buchberger, commalg_conditions, parse_poly, quotient_algebra
from algact.presets import EXAMPLE_ACTIONS, doubling

from conftest import random_int_matrix, random_nonsingular, random_unimodular, ref_member


def _report(number, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {detail}")


# -- 1: normal forms -----------------------------------------------------------


def test_criterion_1_normal_forms():
    rng = random.Random(101)
    start = time.monotonic()
    for trial in range(1000):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, n, 50)
        h, u = hnf(m)
        assert u * m == h
        assert abs(u.det()) == 1
    elapsed = time.monotonic() - start
    _report(1, elapsed, 10.0, "1000 random matrices: HNF recomposes, unimodular transforms")


# -- 2: lattice oracle equivalence ------------------------------------------------


def _random_lattice(rng, n, index_bound):
    while True:
        diag = [rng.randint(1, 4) for _ in range(n)]
        prod = 1
        for d in diag:
            prod *= d
        if prod <= index_bound:
            break
    rows = [
        [diag[i] if j == i else (rng.randint(0, diag[i] - 1) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Lattice(Matrix(rows))


def _box(lat):
    return itertools.product(*(range(lat.basis[i, i]) for i in range(lat.n)))


def _subgroup_in_quotient(mod_lattice, gens):
    q = quotient(mod_lattice)
    zero = (0,) * mod_lattice.n
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            nxt = q.reduce(tuple(a + b for a, b in zip(x, g)))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_criterion_2_lattice_oracles():
    rng = random.Random(202)
    start = time.monotonic()
    for trial in range(200):
        n = rng.randint(1, 3)
        l1 = _random_lattice(rng, n, 64)
        l2 = _random_lattice(rng, n, 64)

        meet = intersect(l1, l2)
        for i in range(n):
            row = meet.basis.row(i)
            assert ref_member(l1.basis, row) and ref_member(l2.basis, row)
        for pt in _box(meet):
            assert ref_member(meet.basis, pt) == (ref_member(l1.basis, pt) and ref_member(l2.basis, pt))

        join = lattice_sum(l1, l2)
        for i in range(n):
            assert ref_member(join.basis, l1.basis.row(i)) and ref_member(join.basis, l2.basis.row(i))
        img = _subgroup_in_quotient(l2, [l1.basis.row(i) for i in range(n)])
        assert join.index() * len(img) == l2.index()

        m = random_nonsingular(rng, n, 2)
        pre = preimage(m, l1)
        for i in range(n):
            assert ref_member(l1.basis, m.apply(pre.basis.row(i)))
        for pt in _box(pre):
            assert ref_member(pre.basis, pt) == ref_member(l1.basis, m.apply(pt))
    elapsed = time.monotonic() - start
    _report(2, elapsed, 30.0, "200 random pairs: meet/join/preimage agree with coset-box enumeration")


# -- 3: constructible family of the doubling action --------------------------------


def test_criterion_3_doubling_family():
    start = time.monotonic()
    fam = constructible_family(doubling(), 6)
    expected = [Lattice(Matrix([[2**k]])) for k in range(7)]
    assert sorted(fam.lattices, key=lambda l: l.index()) == expected
    assert cli.analyze_action(doubling(), 6, 1)["family"]["index_set"] == [1, 2, 4, 8, 16, 32, 64]
    elapsed = time.monotonic() - start
    _report(3, elapsed, 5.0, "doubling family to depth 6 is exactly {2^k Z}, indices {1,...,64}")


# -- 4: word identities on every shipped example ------------------------------------


def test_criterion_4_word_identities():
    start = time.monotonic()
    checked = 0
    for name, factory in EXAMPLE_ACTIONS.items():
        action = factory()
        for gen, mat in action.gens:
            rep = verify_word_identity(gen, mat)
            assert rep.all_hold, (name, gen, rep.witness)
            checked += 1
    elapsed = time.monotonic() - start
    _report(4, elapsed, 5.0, f"module + semidirect + epsilon identities hold on {checked} shipped generators")


# -- 5: mixing / fixed-point-freeness agreement ---------------------------------------


def test_criterion_5_mixing_agreement():
    start = time.monotonic()
    fib = Matrix.companion(Poly((-1, -1, 1)))
    assert cyclotomic_split(charpoly(fib)).least_order is None
    assert check_condition_F(AlgebraicAction(2, [("s", fib)]), 6).holds_up_to_bound

    rot = Matrix([[0, -1], [1, 0]])
    assert cyclotomic_split(charpoly(rot)).least_order == 4
    rep = check_condition_F(AlgebraicAction(2, [("r", rot)]), 6)
    assert not rep.holds_up_to_bound and rep.failing_word == "r^4"

    rng = random.Random(505)
    for trial in range(100):
        m = random_nonsingular(rng, 3, 3)
        action = AlgebraicAction(3, [("s", m)])
        has_rou = cyclotomic_split(charpoly(m)).least_order is not None
        f_holds = check_condition_F(action, 6).holds_up_to_bound
        assert f_holds == (not has_rou), m.entries()
    elapsed = time.monotonic() - start
    _report(5, elapsed, 10.0, "eigenvalue test and power test agree on 100 random 3x3 generators")


# -- 6: conjugacy invariance -------------------------------------------------------------


def test_criterion_6_conjugacy():
    start = time.monotonic()
    rng = random.Random(606)
    for trial in range(100):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, 6)
        u = random_unimodular(rng, n)
        assert conjugacy_class(m) == conjugacy_class(u * m * u.inverse())
    assert conjugacy_class(Matrix([[2, 0], [0, 2]])) != conjugacy_class(Matrix([[2, 1], [0, 2]]))
    elapsed = time.monotonic() - start
    _report(6, elapsed, 5.0, "100 conjugated pairs recognized; scalar vs Jordan block separated")


# -- 9: polyring exact values -----------------------------------------------------------


def test_criterion_9_polyring():
    start = time.monotonic()
    qa = quotient_algebra(buchberger([parse_poly("u^2-u-1", ["u"])]), 1)
    assert qa.var_matrices[0] == Matrix.companion(Poly((-1, -1, 1)))
    chi, _ = qa.char_poly_and_norm(MPoly.variable(1, 0))
    assert chi == Poly((-1, -1, 1))

    names = ["u", "v"]
    gens = [parse_poly("u^2-2", names), parse_poly("v^2-3", names)]
    rep = commalg_conditions(gens, names)
    assert rep.dimension == 4
    assert rep.norms == {"u": 4, "v": 9}
    assert rep.a_holds and rep.b_holds and rep.c_holds and rep.d_holds
    assert rep.d_witness_primes == {"u": 2, "v": 3}
    elapsed = time.monotonic() - start
    _report(9, elapsed, 5.0, "companion identity exact; two-root ideal battery (a)-(d) with primes 2 and 3")


# -- 10: end-to-end compare ---------------------------------------------------------------


def test_criterion_10_end_to_end(tmp_path, capsys):
    start = time.monotonic()

    def doc(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    times2 = doc("a.json", {"schema": 1, "rank": 1, "monoid": "free-abelian",
                            "generators": [{"name": "s", "matrix": [2]}]})
    times3 = doc("b.json", {"schema": 1, "rank": 1, "monoid": "free-abelian",
                            "generators": [{"name": "s", "matrix": [3]}]})
    conj_a = doc("ca.json", {"schema": 1, "rank": 2, "monoid": "free-abelian",
                             "generators": [{"name": "s", "matrix": [2, 1, 0, 3]}]})
    conj_b = doc("cb.json", {"schema": 1, "rank": 2, "monoid": "free-abelian",
                             "generators": [{"name": "s", "matrix": [2, 2, 0, 3]}]})
    ring_f = doc("f.json", {"schema": 1, "poly": "z^2+1"})
    ring_g = doc("g.json", {"schema": 1, "poly": "z^2-2"})
    ring_h = doc("h.json", {"schema": 1, "poly": "z^2-8"})

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    v1 = run(["compare", times2, times3, "--mode", "toral", "--json"])
    assert v1["status"] == "distinguished"
    assert v1["theorem_basis"] == cli.TORAL_BASIS

    v2 = run(["compare", conj_a, conj_b, "--mode", "toral", "--json"])
    assert v2["status"] == "consistent"

    v3 = run(["compare", ring_f, ring_g, "--mode", "ring", "--json"])
    assert v3["status"] == "distinguished"
    assert v3["note"] == "distinguished at p = 5"
    assert v3["theorem_basis"] == cli.RING_BASIS

    v4 = run(["compare", ring_g, ring_h, "--mode", "ring", "--json"])
    assert v4["status"] == "consistent"
    assert "indistinguishable" in v4["note"]

    elapsed = time.monotonic() - start
    _report(10, elapsed, 5.0, "toral and ring comparisons produce the pinned verdicts end to end")
