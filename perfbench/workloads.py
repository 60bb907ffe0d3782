"""Seeded input generators for the four benchmark workloads.

Each generator yields `Case`s: a CLI command line, the JSON documents it
reads, and the answer that follows from how the documents were built.  The
checks compare a report with that answer only; they never ask algact.

Every workload cycles through a fixed list of shapes in a seeded order, so
runs with different seeds see the same mix of sizes and differ only in the
random entries.  That keeps the medians and tails of two runs comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import intmath as im


@dataclass
class Case:
    label: str
    argv: list  # "{0}" and "{1}" stand for the paths of docs[0] and docs[1]
    docs: list
    expect: dict
    check: Callable  # check(report, expect) -> list of problems


@dataclass(frozen=True)
class Shape:
    label: str
    build: Callable  # build(rng) -> Case


def _mismatch(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# family: analyze and ring-with-generators on conjugated monomial actions
# ---------------------------------------------------------------------------
#
# A monomial action conjugated by a random unimodular U has the family of the
# monomial action moved by U: the same size, indices and saturation.  The
# model in intmath computes those for the monomial action directly.


def _analysis_expect(n, monoid, names, gens, depth):
    model = im.monomial_family(gens, n, depth)
    return {
        "rank": n,
        "monoid": monoid,
        "generators": names,
        "dets": {name: im.monomial_det(*g) for name, g in zip(names, gens)},
        "indices": model["indices"],
        "saturated": model["saturated"],
        "empirical_indices": model["empirical_indices"],
        "exactness": model["exactness"],
    }


def _check_analysis(report, expect, problems, where="analysis"):
    for key in ("rank", "monoid", "generators"):
        _mismatch(problems, f"{where}.{key}", report[key], expect[key])
    _mismatch(problems, f"{where}.standing.generator_dets", report["standing"]["generator_dets"], expect["dets"])
    fam = report["family"]
    _mismatch(problems, f"{where}.family.size", fam["size"], len(expect["indices"]))
    _mismatch(problems, f"{where}.family.indices", fam["indices"], expect["indices"])
    _mismatch(problems, f"{where}.family.index_set", fam["index_set"], sorted(set(expect["indices"])))
    _mismatch(problems, f"{where}.family.saturated", fam["saturated"], expect["saturated"])
    ex = report["exactness"]
    _mismatch(problems, f"{where}.exactness.verdict", ex["verdict"], expect["exactness"])
    _mismatch(problems, f"{where}.exactness.empirical_indices", ex["empirical_indices"], expect["empirical_indices"])


def check_analyze(report, expect):
    problems = []
    _check_analysis(report, expect, problems)
    return problems


def _analyze_shape(n, monoid, gens, depth):
    names = ["s", "t", "r"][: len(gens)]

    def build(rng):
        u, u_inv = im.random_unimodular(n, rng)
        doc = {
            "schema": 1,
            "rank": n,
            "monoid": monoid,
            "generators": [
                {"name": name, "matrix": im.flat(im.conjugate(u, im.monomial_matrix(*g), u_inv))}
                for name, g in zip(names, gens)
            ],
        }
        return Case(
            label, ["analyze", "{0}", "--depth", str(depth), "--json"], [doc],
            _analysis_expect(n, monoid, names, gens, depth), check_analyze,
        )

    label = f"analyze/{monoid}/n{n}/d{depth}/det" + "x".join(str(abs(im.monomial_det(*g))) for g in gens)
    return Shape(label, build)


def _scalar_shape(n, depth):
    """One scalar generator k*I: its family is the chain {k^j Z^n}."""

    def build(rng):
        k = rng.choice([k for k in range(-64, 65) if abs(k) >= 2])
        gens = [(tuple(range(n)), (k,) * n)]
        doc = {"schema": 1, "rank": n, "generators": [{"name": "s", "matrix": im.flat(im.monomial_matrix(*gens[0]))}]}
        return Case(
            label, ["analyze", "{0}", "--depth", str(depth), "--json"], [doc],
            _analysis_expect(n, "free-abelian", ["s"], gens, depth), check_analyze,
        )

    label = f"analyze/scalar/n{n}/d{depth}"
    return Shape(label, build)


def _regular_shift(coords):
    kappa = 1
    while any(c + kappa == 0 for c in coords):
        kappa += 1
    return kappa


def check_ring(report, expect):
    problems = []
    _mismatch(problems, "rank", report["rank"], expect["rank"])
    val = report["validation"]
    _mismatch(problems, "validation", (val["associative"], val["unit_ok"]), (True, True))
    got = [(e["coords"], e["norm"], e["regular"], e["regular_shift"]) for e in report.get("elements", [])]
    _mismatch(problems, "elements", got, expect["elements"])
    _mismatch(problems, "scalar_generator_present", report["scalar_generator_present"], expect["scalar"])
    _check_analysis(report["action_analysis"], expect, problems, "action_analysis")
    return problems


def _ring_shape(n, gen_diags, element_diags, depth):
    """The product ring Z^n written in the basis of the columns of a random
    unimodular U; generators and elements are given by their components."""
    gens = [(tuple(range(n)), tuple(c)) for c in gen_diags]
    names = [f"a{i}" for i in range(len(gens))]

    def build(rng):
        u, u_inv = im.random_unimodular(n, rng)
        cols = im.transpose(u)

        def coords(std):
            return [sum(a * x for a, x in zip(row, std)) for row in u_inv]

        constants = []
        for i in range(n):
            for j in range(n):
                constants.extend(coords([x * y for x, y in zip(cols[i], cols[j])]))
        elements = [coords(e) for e in element_diags]
        doc = {
            "schema": 1,
            "rank": n,
            "constants": constants,
            "unit": coords([1] * n),
            "elements": elements,
            "generators": [coords(c) for c in gen_diags],
        }
        expect = _analysis_expect(n, "free-abelian", names, gens, depth)
        expect["elements"] = [
            (coords_, abs(math.prod(e)), all(e), _regular_shift(e))
            for coords_, e in zip(elements, element_diags)
        ]
        expect["scalar"] = any(
            len(set(c)) == 1 and c[0] not in (0, 1) and abs(c[0]) <= 64 for c in gen_diags
        )
        return Case(label, ["ring", "{0}", "--depth", str(depth), "--json"], [doc], expect, check_ring)

    label = f"ring/n{n}/g{len(gens)}/d{depth}"
    return Shape(label, build)


FAMILY = [
    _analyze_shape(2, "free", [((0, 1), (2, 1)), ((1, 0), (1, 3))], 4),
    _analyze_shape(2, "free", [((0, 1), (2, 1)), ((1, 0), (1, 3))], 5),
    _analyze_shape(2, "free", [((0, 1), (3, 1)), ((1, 0), (1, 2))], 5),
    _analyze_shape(2, "free-abelian", [((0, 1), (2, 1)), ((0, 1), (1, 3))], 5),
    _analyze_shape(2, "free-abelian", [((0, 1), (2, 1)), ((0, 1), (1, 3)), ((0, 1), (5, 5))], 4),
    _analyze_shape(3, "free-abelian", [((0, 1, 2), (2, 1, 1)), ((0, 1, 2), (1, 3, 1))], 4),
    _analyze_shape(3, "free", [((1, 2, 0), (2, 1, 1)), ((0, 1, 2), (1, 1, 3))], 4),
    _scalar_shape(3, 5),
    _ring_shape(2, [(2, 1), (1, 3)], [(2, -1), (3, 5)], 5),
    _ring_shape(2, [(2, 2)], [(-1, 4)], 5),
    _ring_shape(3, [(2, 1, 1), (1, 1, 3)], [(1, -2, 2)], 4),
]


# ---------------------------------------------------------------------------
# level: groupoid on single-generator actions, whose families are chains
# ---------------------------------------------------------------------------
#
# For one injective generator M the family at depth j is the chain
# Z^n > M Z^n > ... > M^j Z^n.  At the level C = M^j Z^n the map induced by M
# runs from Z^n / M^(j-1) Z^n into Z^n / C with image M Z^n / C.


def check_groupoid(report, expect):
    problems = []
    _mismatch(problems, "level.index", report["level"]["index"], expect["index"])
    _mismatch(problems, "orbit_covers_level", report["orbit_covers_level"], True)
    ident = report["word_identities"]["s"]
    flags = [ident[k] for k in ("module_identity_holds", "semidirect_identity_holds", "epsilon_identity_holds")]
    _mismatch(problems, "word_identities.s", flags, [True, True, True])
    lm = report["level_maps"]["s"]
    _mismatch(problems, "level_maps.s.source_size", lm["source_size"], expect["source_size"])
    _mismatch(problems, "level_maps.s.image_index", lm["image_index"], expect["image_index"])
    entries = lm["entries"]
    _mismatch(problems, "level_maps.s.entries", len(entries), expect["source_size"])
    targets = {tuple(e["target"]) for e in entries}
    _mismatch(problems, "level_maps.s injective", len(targets), len(entries))
    # Each arrow must send x to a representative of M x + C.
    m, adj_p, det_p = expect["m"], expect["adj_p"], expect["det_p"]
    step = max(1, len(entries) // 16)
    for e in entries[::step]:
        mx = [sum(a * x for a, x in zip(row, e["source"])) for row in m]
        diff = [a - b for a, b in zip(mx, e["target"])]
        if not im.in_column_lattice(adj_p, det_p, diff):
            problems.append(f"arrow {e['source']} -> {e['target']} is not M x + C")
            break
    return problems


def _level_shape(name, base, j):
    n = len(base)
    d = abs(im.det(base))

    def build(rng):
        u, u_inv = im.random_unimodular(n, rng)
        m = im.conjugate(u, base, u_inv)
        p = im.matpow(m, j)
        doc = {"schema": 1, "rank": n, "generators": [{"name": "s", "matrix": im.flat(m)}]}
        # --level takes basis rows; C = M^j Z^n is spanned by the columns of M^j.
        level = ",".join(map(str, im.flat(im.transpose(p))))
        expect = {
            "index": d**j,
            "source_size": d ** (j - 1),
            "image_index": d,
            "m": m,
            "adj_p": im.adjugate(p),
            "det_p": abs(im.det(p)),
        }
        argv = ["groupoid", "{0}", f"--level={level}", "--depth", str(j), "--json"]
        return Case(label, argv, [doc], expect, check_groupoid)

    label = f"groupoid/{name}/index{d**j}"
    return Shape(label, build)


# Rank 2 only: on rank 3, snf does not terminate for some of these levels
# (see the probe.snf.rank3_chain_s probe), and each hang would cost a run
# the whole invocation timeout.
LEVEL = [
    _level_shape("sqrt3", [[0, 3], [1, 0]], 7),  # companion of z^2-3
    _level_shape("diag13", [[1, 0], [0, 3]], 7),
    _level_shape("diag24", [[2, 0], [0, 4]], 4),
    _level_shape("gauss", [[1, -1], [1, 1]], 11),  # 1+i on Z[i]
    _level_shape("quad2", [[0, -2], [1, -1]], 11),  # companion of z^2+z+2
    _level_shape("shear2", [[2, 1], [0, 1]], 11),
    _level_shape("gauss", [[1, -1], [1, 1]], 12),
    _level_shape("quad2", [[0, -2], [1, -1]], 12),
    _level_shape("shear2", [[2, 1], [0, 1]], 12),
]


# ---------------------------------------------------------------------------
# conjugacy: compare --mode toral and --mode ring
# ---------------------------------------------------------------------------


def check_compare(report, expect):
    problems = []
    _mismatch(problems, "status", report["status"], expect["status"])
    evidence = {name: (left, right) for name, left, right in report["evidence"]}
    for name, pair in expect["evidence"].items():
        if name not in evidence:
            problems.append(f"evidence {name!r} missing")
        elif pair == "equal":
            if evidence[name][0] != evidence[name][1]:
                problems.append(f"evidence {name!r} differs: {evidence[name]}")
        else:
            _mismatch(problems, f"evidence {name!r}", list(evidence[name]), pair)
    return problems


def _toral_doc(m):
    return {"schema": 1, "rank": len(m), "generators": [{"name": "s", "matrix": im.flat(m)}]}


def _toral_shape(n, shifted, entry):
    """A = 2R with R and R + I nonsingular: A has determinant 2^n det R, so
    it is not an automorphism, and its eigenvalues are twice algebraic
    integers, so none is a root of unity; the same holds for A + 2I.
    U A U^-1 is conjugate to A; U A U^-1 + 2I has trace larger by 2n."""

    def build(rng):
        while True:
            r = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(n)]
            r_plus = [[x + (i == k) for k, x in enumerate(row)] for i, row in enumerate(r)]
            if im.det(r) and im.det(r_plus):
                break
        a = [[2 * x for x in row] for row in r]
        u, u_inv = im.random_unimodular(n, rng)
        b = im.conjugate(u, a, u_inv)
        if shifted:
            b = [[x + 2 * (i == k) for k, x in enumerate(row)] for i, row in enumerate(b)]
        expect = {
            "status": "distinguished" if shifted else "consistent",
            "evidence": {"rank": [str(n), str(n)]} if shifted else {"rank": [str(n), str(n)], "invariant_factors": "equal"},
        }
        argv = ["compare", "{0}", "{1}", "--mode", "toral", "--json"]
        return Case(label, argv, [_toral_doc(a), _toral_doc(b)], expect, check_compare)

    label = f"toral/n{n}/{'shifted' if shifted else 'conjugate'}"
    return Shape(label, build)


def _eisenstein(rng, degree):
    p = rng.choice((2, 3, 5))
    coeffs = [p * rng.randint(-2, 2) for _ in range(degree)] + [1]
    coeffs[0] = p * rng.choice([u for u in (-2, -1, 1, 2, 3) if u % p])
    return coeffs


def _ring_doc(coeffs):
    return {"schema": 1, "poly": im.format_univariate(coeffs)}


def _shift_shape(degree, bound):
    """f Eisenstein, hence irreducible; f(z) and f(z+k) define isomorphic
    fields, so every splitting signature agrees and the scan runs to the
    bound."""

    def build(rng):
        f = _eisenstein(rng, degree)
        g = im.taylor_shift(f, rng.choice((-3, -2, -1, 1, 2, 3)))
        expect = {"status": "consistent", "evidence": {"splitting_signatures": ["agree", "agree"]}}
        argv = ["compare", "{0}", "{1}", "--mode", "ring", "--prime-bound", str(bound), "--json"]
        return Case(label, argv, [_ring_doc(f), _ring_doc(g)], expect, check_compare)

    label = f"ring/shift/deg{degree}/p{bound}"
    return Shape(label, build)


def _degree_shape(d1, d2, bound):
    """Irreducible polynomials of different degree: distinguished by degree."""

    def build(rng):
        f, g = _eisenstein(rng, d1), _eisenstein(rng, d2)
        expect = {"status": "distinguished", "evidence": {"degree": [str(d1), str(d2)]}}
        argv = ["compare", "{0}", "{1}", "--mode", "ring", "--prime-bound", str(bound), "--json"]
        return Case(label, argv, [_ring_doc(f), _ring_doc(g)], expect, check_compare)

    label = f"ring/degree/{d1}-{d2}"
    return Shape(label, build)


CONJUGACY = [
    # Entries of R in [-2, 2] up to n = 11 and in [-1, 1] at n = 12: with
    # wider entries the n = 12 cost ranges over an order of magnitude (the
    # start of the poly_invariant_factors cliff the probes record).
    *(_toral_shape(n, shifted, 2) for n in (8, 9, 10, 11) for shifted in (False, True)),
    *(_toral_shape(12, shifted, 1) for shifted in (False, True)),
    _shift_shape(6, 1000),
    _shift_shape(7, 700),
    _shift_shape(8, 700),
    _shift_shape(9, 500),
    _shift_shape(10, 500),
    _degree_shape(6, 8, 1000),
    _degree_shape(7, 9, 1000),
    _degree_shape(8, 10, 1000),
    _degree_shape(10, 12, 2000),
    _degree_shape(11, 12, 2000),
]


# ---------------------------------------------------------------------------
# ideal: polyideal and compare --mode poly on zero-dimensional ideals
# ---------------------------------------------------------------------------
#
# A triangular system y_i^(d_i) + (terms of total degree < d_i in y_1..y_i)
# has pure-power leading terms, so its quotient has dimension prod(d_i).  An
# affine change y = U x + b with U unimodular is an automorphism of Q[x], so
# the transformed ideal keeps that dimension, while its generators no longer
# form a Groebner basis.
#
# Every coefficient below the leading term, and b, is even.  Modulo 2 the
# system is then y_i^(d_i) = 0, so every x_i is nilpotent in Z[x]/I mod 2
# and the norm of x_i - 1 is odd: no point of the ideal has a coordinate 1,
# and condition (c) of commalg_conditions holds with a witness of degree 1.
# Without this, an ideal with a point (1, ..., 1) has no witness at all, and
# the exhaustive search up to degree 2 dim takes minutes (the
# probe.commalg_conditions.no_witness_s probe records that cost).

VARS = ["u", "v", "w"]


def triangular_ideal(rng, degrees, through_ones=False):
    """With `through_ones`, the constant terms are 0 and b = -U (1, ..., 1),
    so (1, ..., 1) is a point of the ideal and condition (c) has no witness."""
    k = len(degrees)
    gens = []
    for i, d in enumerate(degrees):
        g = {tuple(d if v == i else 0 for v in range(k)): 1}
        lower = [
            e for e in _exponents(k, d - 1) if all(e[v] == 0 for v in range(i + 1, k)) and e != (0,) * k
        ]
        for e in rng.sample(lower, min(3, len(lower))):
            g[e] = rng.choice((-4, -2, 2, 4))
        if not through_ones:
            g[(0,) * k] = rng.choice((-6, -4, -2, 2, 4, 6))
        gens.append(g)
    u = im.mixing_unimodular(k, rng)
    images = []
    for row in u:
        img = {tuple(int(v == j) for v in range(k)): c for j, c in enumerate(row) if c}
        b = -sum(row) if through_ones else rng.choice((-2, 0, 2))
        if b:
            img[(0,) * k] = b
        images.append(img)
    return [im.mpoly_substitute(g, images, k) for g in gens]


def _exponents(k, max_total):
    if k == 0:
        return [()]
    return [
        (a,) + rest for a in range(max_total + 1) for rest in _exponents(k - 1, max_total - a)
    ]


def _ideal_doc(gens, k):
    return {"schema": 1, "vars": VARS[:k], "gens": [im.format_mpoly(g, VARS[:k]) for g in gens], "order": "degrevlex"}


def check_polyideal(report, expect):
    problems = []
    cond = report["conditions"]
    _mismatch(problems, "conditions.zero_dimensional", cond["zero_dimensional"], True)
    _mismatch(problems, "conditions.dimension", cond["dimension"], expect["dimension"])
    if not report["groebner_basis"]:
        problems.append("empty Groebner basis")
    return problems


def _polyideal_shape(degrees):
    def build(rng):
        gens = triangular_ideal(rng, degrees)
        expect = {"dimension": math.prod(degrees)}
        return Case(label, ["polyideal", "{0}", "--json"], [_ideal_doc(gens, len(degrees))], expect, check_polyideal)

    label = f"polyideal/{'x'.join(map(str, degrees))}"
    return Shape(label, build)


def check_compare_poly(report, expect):
    """The verdict is one-sided: with conditions (a)-(d) verified on both
    sides it must be the constructed one, otherwise `inconclusive`."""
    problems = []
    hyp = report["hypotheses"]
    ready = all(hyp[side][c] is True for side in ("first", "second") for c in "abcd")
    _mismatch(problems, "status", report["status"], expect["status"] if ready else "inconclusive")
    evidence = {name: [left, right] for name, left, right in report["evidence"]}
    _mismatch(problems, "evidence quotient_dimension", evidence.get("quotient_dimension"), expect["dimensions"])
    if expect["status"] == "consistent":
        _mismatch(problems, "evidence variable_char_polys equal", len(set(evidence["variable_char_polys"])), 1)
    return problems


def _same_ideal_shape(degrees):
    """One ideal under two generating sets: (g_1, ..., g_k) and the same list
    reversed with g_k replaced by g_k + (x_1 + c) g_1."""
    k = len(degrees)

    def build(rng):
        gens = triangular_ideal(rng, degrees)
        mult = {tuple(int(v == 0) for v in range(k)): 1, (0,) * k: rng.choice((-2, -1, 1, 2))}
        other = list(gens)
        other[-1] = im.mpoly_add(other[-1], im.mpoly_mul(mult, gens[0]))
        dim = str(math.prod(degrees))
        expect = {"status": "consistent", "dimensions": [dim, dim]}
        argv = ["compare", "{0}", "{1}", "--mode", "poly", "--json"]
        return Case(label, argv, [_ideal_doc(gens, k), _ideal_doc(other[::-1], k)], expect, check_compare_poly)

    label = f"poly/same/{'x'.join(map(str, degrees))}"
    return Shape(label, build)


def _other_ideal_shape(degrees_a, degrees_b):
    def build(rng):
        a = triangular_ideal(rng, degrees_a)
        b = triangular_ideal(rng, degrees_b)
        expect = {
            "status": "distinguished",
            "dimensions": [str(math.prod(degrees_a)), str(math.prod(degrees_b))],
        }
        argv = ["compare", "{0}", "{1}", "--mode", "poly", "--json"]
        docs = [_ideal_doc(a, len(degrees_a)), _ideal_doc(b, len(degrees_b))]
        return Case(label, argv, docs, expect, check_compare_poly)

    label = f"poly/other/{'x'.join(map(str, degrees_a))}-{'x'.join(map(str, degrees_b))}"
    return Shape(label, build)


IDEAL = [
    _polyideal_shape((2, 2)),
    _polyideal_shape((2, 3)),
    _polyideal_shape((3, 3)),
    _polyideal_shape((3, 4)),
    _polyideal_shape((3, 5)),
    _polyideal_shape((2, 2, 2)),
    _polyideal_shape((2, 2, 3)),
    _same_ideal_shape((2, 3)),
    _same_ideal_shape((3, 3)),
    _same_ideal_shape((2, 2, 2)),
    _other_ideal_shape((2, 2), (2, 3)),
    _other_ideal_shape((3, 3), (2, 2, 2)),
    _other_ideal_shape((2, 3), (2, 2, 2)),
    _other_ideal_shape((3, 4), (2, 2, 3)),
]


WORKLOADS = {"family": FAMILY, "level": LEVEL, "conjugacy": CONJUGACY, "ideal": IDEAL}


def cases(workload: str, seed: int):
    """Endless seeded stream of distinct cases for one workload.  Each pass
    runs every shape once, in a seeded order."""
    shapes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    while True:
        for shape in rng.sample(shapes, len(shapes)):
            for _ in range(100):
                case = shape.build(rng)
                key = json.dumps([case.argv, case.docs])
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"generator for {shape.label} keeps repeating itself")
            seen.add(key)
            yield case
