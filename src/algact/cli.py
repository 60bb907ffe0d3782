"""Command-line front end.

Subcommands: analyze (full action report), compare (non-isomorphism
certification by contraposition), groupoid (one finite level with arrows and
identity checks), polyideal (zero-dimensional ideal battery), ring
(structure-constant ring report).  Inputs are JSON documents; '-' reads
stdin.  --json switches the report to machine-readable form.

Exit codes: 0 success, 2 input/schema error, 3 any other failure (a bug in
algact, reported with its exception type).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields, is_dataclass

from .actions import (
    FREE,
    FREE_ABELIAN,
    AlgebraicAction,
    SFReport,
    Word,
    check_condition_F,
    check_SF_via_det,
    check_standing,
    constructible_family,
    exactness,
    has_root_of_unity_eigenvalue,
)
from .errors import InternalCheckError, SchemaError
from .groupoid import level_map, translation_orbit, verify_word_identity
from .invariants import ConjugacyClass, conjugacy_class, splitting_signature_distinguisher
from .lattices import Lattice
from .matrices import Matrix, charpoly
from .orders import (
    StructureRing,
    action_from_ring,
    act_matrix,
    has_scalar_generator,
    is_regular,
    norm,
    regular_shift,
    ring_preset,
    validate,
)
from .polyring import (
    DEGREVLEX,
    ORDERS,
    PolyParseError,
    commalg_conditions,
    mpoly_to_poly,
    parse_poly,
)

TORAL_BASIS = "rational-conjugacy rigidity for mixing single-endomorphism actions"
RING_BASIS = "prime-splitting rigidity for commutative ring actions"
POLY_BASIS = "dimension/character rigidity for zero-dimensional ideal actions"


@dataclass
class CompareVerdict:
    status: str  # "distinguished" | "consistent" | "inconclusive"
    evidence: list[tuple[str, str, str]]
    theorem_basis: str
    hypotheses: dict
    note: str | None = None


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("", "top-level JSON object expected")
    if doc.get("schema", 1) != 1:
        raise SchemaError("/schema", "unsupported schema version")
    return doc


def _expect(doc, key, kind, pointer):
    if key not in doc:
        raise SchemaError(f"{pointer}/{key}", "missing field")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(f"{pointer}/{key}", "integer expected")
    if kind is str and not isinstance(value, str):
        raise SchemaError(f"{pointer}/{key}", "string expected")
    if kind is list and not isinstance(value, list):
        raise SchemaError(f"{pointer}/{key}", "array expected")
    return value


def _int_list(values, pointer, length=None):
    if not isinstance(values, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise SchemaError(pointer, "array of integers expected")
    if length is not None and len(values) != length:
        raise SchemaError(pointer, f"expected {length} integers, got {len(values)}")
    return [int(v) for v in values]


def load_action(doc: dict, pointer: str = "") -> AlgebraicAction:
    rank = _expect(doc, "rank", int, pointer)
    if rank < 1:
        raise SchemaError(f"{pointer}/rank", "positive rank required")
    monoid = doc.get("monoid", FREE_ABELIAN)
    if monoid not in (FREE, FREE_ABELIAN):
        raise SchemaError(f"{pointer}/monoid", f"one of {FREE_ABELIAN!r}, {FREE!r} expected")
    gens_doc = _expect(doc, "generators", list, pointer)
    if not gens_doc:
        raise SchemaError(f"{pointer}/generators", "at least one generator required")
    gens = []
    for i, g in enumerate(gens_doc):
        gp = f"{pointer}/generators/{i}"
        if not isinstance(g, dict):
            raise SchemaError(gp, "object with name and matrix expected")
        name = _expect(g, "name", str, gp)
        flat = _int_list(_expect(g, "matrix", list, gp), f"{gp}/matrix", rank * rank)
        gens.append((name, Matrix.from_flat(rank, rank, flat)))
    try:
        return AlgebraicAction(rank, gens, monoid)
    except ValueError as exc:
        raise SchemaError(f"{pointer}/generators", str(exc)) from exc


def load_ideal(doc: dict, pointer: str = ""):
    names = _expect(doc, "vars", list, pointer)
    if not names or any(not isinstance(v, str) for v in names):
        raise SchemaError(f"{pointer}/vars", "nonempty array of variable names expected")
    if len(set(names)) != len(names):
        raise SchemaError(f"{pointer}/vars", "variable names must be distinct")
    order = doc.get("order", DEGREVLEX)
    if order not in ORDERS:
        raise SchemaError(f"{pointer}/order", f"one of {ORDERS} expected")
    gens_doc = _expect(doc, "gens", list, pointer)
    if not gens_doc:
        raise SchemaError(f"{pointer}/gens", "at least one generator required")
    gens = []
    for i, text in enumerate(gens_doc):
        if not isinstance(text, str):
            raise SchemaError(f"{pointer}/gens/{i}", "polynomial string expected")
        try:
            gens.append(parse_poly(text, names))
        except PolyParseError as exc:
            raise SchemaError(f"{pointer}/gens/{i}", str(exc)) from exc
    if all(g.is_zero() for g in gens):
        raise SchemaError(f"{pointer}/gens", "at least one nonzero generator required")
    return names, gens, order


def load_ring(doc: dict, pointer: str = "") -> StructureRing:
    if "preset" in doc:
        name = _expect(doc, "preset", str, pointer)
        try:
            return ring_preset(name)
        except KeyError as exc:
            raise SchemaError(f"{pointer}/preset", str(exc)) from exc
    rank = _expect(doc, "rank", int, pointer)
    if rank < 1:
        raise SchemaError(f"{pointer}/rank", "positive rank required")
    flat = _int_list(_expect(doc, "constants", list, pointer), f"{pointer}/constants", rank**3)
    unit = _int_list(_expect(doc, "unit", list, pointer), f"{pointer}/unit", rank)
    return StructureRing.from_flat(rank, flat, unit)


def load_compare_poly(doc: dict, pointer: str = ""):
    text = _expect(doc, "poly", str, pointer)
    var = doc.get("var", "z")
    if not isinstance(var, str):
        raise SchemaError(f"{pointer}/var", "string expected")
    try:
        f = mpoly_to_poly(parse_poly(text, [var]))
    except PolyParseError as exc:
        raise SchemaError(f"{pointer}/poly", str(exc)) from exc
    return f


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def analyze_action(action: AlgebraicAction, depth: int, word_bound: int) -> dict:
    standing = check_standing(action, word_bound)
    family = constructible_family(action, depth)
    chis = [charpoly(mat) for mat in action.matrices]
    mixing = {}
    for (name, mat), chi in zip(action.gens, chis):
        rou, k = has_root_of_unity_eigenvalue(mat, chi)
        mixing[name] = {"has_root_of_unity_eigenvalue": rou, "witness_order": k}
    single = chis[0] if len(chis) == 1 else None
    cond_f = check_condition_F(action, word_bound, single)
    if action.monoid_kind == FREE_ABELIAN:
        sf = check_SF_via_det(action)
    else:
        sf = SFReport("not-applicable", None, "free monoid")
    exact = exactness(family, single)
    return {
        "schema": 1,
        "kind": "analyze",
        "rank": action.n,
        "monoid": action.monoid_kind,
        "generators": list(action.names),
        "standing": _to_json(standing),
        "family": {
            "depth": depth,
            "size": len(family.lattices),
            "saturated": family.saturated,
            "indices": family.indices(),
            "index_set": sorted({lat.index() for lat in family.lattices}),
        },
        "mixing": mixing,
        "condition_f": _to_json(cond_f),
        "sf": _to_json(sf),
        "exactness": _to_json(exact),
    }


def cmd_analyze(args) -> int:
    action = load_action(_read_document(args.action))
    report = analyze_action(action, args.depth, args.word_bound)
    _emit(report, args.json, _render_analyze)
    return 0


def _render_analyze(report: dict) -> list[str]:
    lines = [
        f"action: rank {report['rank']}, {report['monoid']} monoid on generators {', '.join(report['generators'])}"
    ]
    st = report["standing"]
    lines.append(
        "standing: finite-index {} | non-automorphic {} | faithful {} ({})".format(
            _yn(st["fi_holds"]), _yn(st["non_automorphic"]), _yn(st["faithful_on_generators"]), st["faithful_note"]
        )
    )
    lines.append(
        f"  reversibility: {_yn(st['pc_holds'])}; globalization compatibility: {st['jf_status']}"
    )
    fam = report["family"]
    lines.append(
        f"family: depth {fam['depth']}, {fam['size']} subgroups, saturated {_yn(fam['saturated'])}, indices {fam['index_set']}"
    )
    for name, m in report["mixing"].items():
        if m["has_root_of_unity_eigenvalue"]:
            lines.append(f"mixing[{name}]: fails (root of unity of order {m['witness_order']})")
        else:
            lines.append(f"mixing[{name}]: holds (no root-of-unity eigenvalue)")
    cf = report["condition_f"]
    lines.append(
        f"fixed-point freeness: {'holds' if cf['holds_up_to_bound'] else 'fails at ' + str(cf['failing_word'])}"
        f" up to word length {cf['word_bound']} ({cf['words_checked']} words)"
    )
    lines.append(f"determinant injectivity: {report['sf']['status']} ({report['sf']['detail']})")
    ex = report["exactness"]
    lines.append(
        f"exactness: {ex['verdict']} ({ex['basis']}); intersection indices by depth {ex['empirical_indices']}"
    )
    if ex["caveat"]:
        lines.append(f"  caveat: {ex['caveat']}")
    return lines


def _yn(flag) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    if args.mode == "toral":
        verdict = _compare_toral(args)
    elif args.mode == "ring":
        verdict = _compare_ring(args)
    elif args.mode == "poly":
        verdict = _compare_poly(args)
    else:
        raise SchemaError("/mode", f"unknown mode {args.mode!r}")
    report = {"schema": 1, "kind": "compare", "mode": args.mode, **_to_json(verdict)}
    _emit(report, args.json, _render_compare)
    return 0


def _render_compare(report: dict) -> list[str]:
    lines = [f"verdict: {report['status']}  [{report['theorem_basis']}]"]
    if report.get("note"):
        lines.append(f"note: {report['note']}")
    for name, left, right in report["evidence"]:
        marker = "differs" if left != right else "matches"
        lines.append(f"  {name}: {left} vs {right} ({marker})")
    hyp = report["hypotheses"]
    lines.append(f"hypotheses: {json.dumps(hyp)}")
    return lines


def _toral_hypotheses(action: AlgebraicAction, cls: ConjugacyClass | None) -> dict:
    """cls is the conjugacy class of the generator of a single-generator
    action, None otherwise."""
    single = cls is not None
    out = {"single_generator": single}
    if single:
        chi = cls.charpoly()
        rou, k = has_root_of_unity_eigenvalue(action.matrices[0], chi)
        # chi(0) = (-1)^n det M
        out["non_automorphic"] = abs(chi[0]) > 1
        out["mixing"] = not rou
        out["root_of_unity_order"] = k
    return out


def _compare_toral(args) -> CompareVerdict:
    a = load_action(_read_document(args.first))
    b = load_action(_read_document(args.second))
    ca, cb = (conjugacy_class(x.matrices[0]) if len(x.gens) == 1 else None for x in (a, b))
    hyp_a, hyp_b = _toral_hypotheses(a, ca), _toral_hypotheses(b, cb)
    hypotheses = {"first": hyp_a, "second": hyp_b}
    ok = all(
        h.get("single_generator") and h.get("non_automorphic") and h.get("mixing")
        for h in (hyp_a, hyp_b)
    )
    evidence = [("rank", str(a.n), str(b.n))]
    if ca is not None and cb is not None:
        evidence.append(("invariant_factors", "; ".join(ca.describe()), "; ".join(cb.describe())))
    if not ok:
        return CompareVerdict(
            "inconclusive",
            evidence,
            TORAL_BASIS,
            hypotheses,
            "hypotheses not satisfied: need single non-automorphic mixing generators",
        )
    differs = any(left != right for _, left, right in evidence)
    if differs:
        return CompareVerdict("distinguished", evidence, TORAL_BASIS, hypotheses)
    return CompareVerdict(
        "consistent",
        evidence,
        TORAL_BASIS,
        hypotheses,
        "rationally conjugate generators; no distinction available (isomorphism is not claimed)",
    )


def _compare_ring(args) -> CompareVerdict:
    f = load_compare_poly(_read_document(args.first))
    g = load_compare_poly(_read_document(args.second))
    try:
        verdict = splitting_signature_distinguisher(f, g, args.prime_bound)
    except ValueError as exc:
        raise SchemaError("/poly", str(exc)) from exc
    hypotheses = {
        "monic_irreducible_screen": True,
        "notes": verdict.irreducibility_notes,
        "prime_bound": args.prime_bound,
    }
    if verdict.distinguished:
        if verdict.prime is not None:
            evidence = [
                (
                    f"splitting_signature(p={verdict.prime})",
                    str(list(verdict.signatures[0])),
                    str(list(verdict.signatures[1])),
                )
            ]
            note = f"distinguished at p = {verdict.prime}"
        else:
            evidence = [("degree", str(f.degree), str(g.degree))]
            note = "distinguished: degree"
        return CompareVerdict("distinguished", evidence, RING_BASIS, hypotheses, note)
    return CompareVerdict(
        "consistent",
        [("splitting_signatures", "agree", "agree")],
        RING_BASIS,
        hypotheses,
        f"indistinguishable up to prime bound {args.prime_bound} (isomorphism is not claimed)",
    )


def _compare_poly(args) -> CompareVerdict:
    names_a, gens_a, order_a = load_ideal(_read_document(args.first))
    names_b, gens_b, order_b = load_ideal(_read_document(args.second))
    rep_a = commalg_conditions(gens_a, names_a, order_a)
    rep_b = commalg_conditions(gens_b, names_b, order_b)
    hypotheses = {"first": _condition_summary(rep_a), "second": _condition_summary(rep_b)}
    ok = all(
        r.a_holds and r.b_holds and r.c_holds and r.d_holds is True for r in (rep_a, rep_b)
    )
    evidence = [
        ("variable_count", str(len(names_a)), str(len(names_b))),
        ("quotient_dimension", str(rep_a.dimension), str(rep_b.dimension)),
        (
            "variable_char_polys",
            "; ".join(sorted(rep_a.char_polys.values())) if rep_a.char_polys else "-",
            "; ".join(sorted(rep_b.char_polys.values())) if rep_b.char_polys else "-",
        ),
    ]
    if not ok:
        return CompareVerdict(
            "inconclusive",
            evidence,
            POLY_BASIS,
            hypotheses,
            "conditions (a)-(d) not all satisfied on both sides",
        )
    differs = any(left != right for _, left, right in evidence)
    if differs:
        return CompareVerdict("distinguished", evidence, POLY_BASIS, hypotheses)
    return CompareVerdict(
        "consistent",
        evidence,
        POLY_BASIS,
        hypotheses,
        "all computed invariants agree (isomorphism is not claimed)",
    )


def _condition_summary(rep) -> dict:
    return {"a": rep.a_holds, "b": rep.b_holds, "c": rep.c_holds, "d": rep.d_holds}


# ---------------------------------------------------------------------------
# groupoid
# ---------------------------------------------------------------------------


def _parse_level(text: str, rank: int) -> Lattice:
    try:
        values = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise SchemaError("/level", f"integers expected: {exc}") from exc
    if len(values) == 1:
        try:
            return Lattice(Matrix.identity(rank) * values[0])
        except ValueError as exc:
            raise SchemaError("/level", str(exc)) from exc
    if len(values) != rank * rank:
        raise SchemaError(
            "/level", f"expected 1 or {rank * rank} integers for rank {rank}, got {len(values)}"
        )
    try:
        return Lattice(Matrix.from_flat(rank, rank, values))
    except ValueError as exc:
        raise SchemaError("/level", str(exc)) from exc


def cmd_groupoid(args) -> int:
    action = load_action(_read_document(args.action))
    level = _parse_level(args.level, action.n)
    family = constructible_family(action, args.depth)
    if level not in family:
        raise SchemaError(
            "/level",
            f"lattice with index {level.index()} is not constructible at depth {args.depth}",
        )
    maps_report = {}
    for i, name in enumerate(action.names):
        lm = level_map(action, Word.generator(i), level)
        entries = [
            {"source": list(src), "target": list(dst)} for src, dst in sorted(lm.table.items())
        ]
        maps_report[name] = {
            "source_size": lm.source_size(),
            "image_index": lm.image_index,
            "entries": entries,
        }
    orbit = translation_orbit(level, (0,) * action.n)
    orbit_covers = len(orbit) == level.index()
    identities = {}
    failures = []
    for i, name in enumerate(action.names):
        rep = verify_word_identity(action, Word.generator(i))
        identities[name] = _to_json(rep)
        if not rep.all_hold:
            failures.append(name)
    report = {
        "schema": 1,
        "kind": "groupoid",
        "level": {
            "basis": [list(level.basis.row(i)) for i in range(level.n)],
            "index": level.index(),
        },
        "level_maps": maps_report,
        "orbit_covers_level": orbit_covers,
        "word_identities": identities,
    }
    if args.trace:
        arrows = [
            {"word": name, **entry} for name, lm in maps_report.items() for entry in lm["entries"]
        ]
        trace = {"schema": 1, "kind": "groupoid-trace", "level": report["level"], "arrows": arrows}
        if args.trace == "-":
            print(json.dumps(trace, indent=2))
        else:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(trace, fh, indent=2)
    _emit(report, args.json, _render_groupoid)
    if failures or not orbit_covers:
        raise InternalCheckError(
            f"theorem-backed checks failed: identities {failures}, orbit covers {orbit_covers}"
        )
    return 0


def _render_groupoid(report: dict) -> list[str]:
    lines = [
        f"level: basis rows {report['level']['basis']}, index {report['level']['index']}"
    ]
    for name, lm in report["level_maps"].items():
        lines.append(
            f"level map [{name}]: {lm['source_size']} arrows, image index {lm['image_index']}"
        )
        for entry in lm["entries"]:
            lines.append(f"    {entry['source']} -> {entry['target']}")
    lines.append(f"translation orbit covers level: {_yn(report['orbit_covers_level'])}")
    for name, rep in report["word_identities"].items():
        status = "ok" if (
            rep["module_identity_holds"] and rep["semidirect_identity_holds"] and rep["epsilon_identity_holds"]
        ) else "FAILED"
        lines.append(
            f"word identity [{name}]: degree {rep['degree']}, kappas {rep['kappas']}, epsilon {rep['epsilon']}: {status}"
        )
    return lines


# ---------------------------------------------------------------------------
# polyideal
# ---------------------------------------------------------------------------


def cmd_polyideal(args) -> int:
    names, gens, order = load_ideal(_read_document(args.ideal))
    conditions = _to_json(commalg_conditions(gens, names, order))
    basis = conditions.pop("groebner_basis")
    report = {
        "schema": 1,
        "kind": "polyideal",
        "vars": names,
        "order": order,
        "groebner_basis": [g.format(names) for g in basis],
        "conditions": conditions,
    }
    _emit(report, args.json, _render_polyideal)
    return 0


def _render_polyideal(report: dict) -> list[str]:
    lines = [
        f"ideal in Q[{', '.join(report['vars'])}], order {report['order']}",
        f"reduced basis: {report['groebner_basis']}",
    ]
    cond = report["conditions"]
    lines.append(f"(a) finite quotient, variables nonzero: {_yn(cond['a_holds'])}")
    if cond["dimension"] is not None:
        lines.append(f"    dimension {cond['dimension']}")
    lines.append(f"(b) variables act injectively: {_yn(cond['b_holds'])}  norms {cond['norms']}")
    lines.append(
        f"(c) some monomial f with id - f injective: {_yn(cond['c_holds'])}"
        + (f"  witness {cond['c_witness']}" if cond["c_witness"] else f"  (none up to degree {cond['c_search_bound']})")
    )
    lines.append(
        f"(d) exclusive norm primes: {_yn(cond['d_holds'])}"
        + (f"  witnesses {cond['d_witness_primes']}" if cond["d_witness_primes"] else "")
        + (f"  note: {cond['d_note']}" if cond["d_note"] else "")
    )
    return lines


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------


def cmd_ring(args) -> int:
    doc = _read_document(args.ring)
    ring = load_ring(doc)
    report: dict = {
        "schema": 1,
        "kind": "ring",
        "rank": ring.n,
        "validation": _to_json(validate(ring)),
    }
    elements = _expect(doc, "elements", list, "") if "elements" in doc else []
    if elements:
        rows = []
        for i, coords in enumerate(elements):
            coords = _int_list(coords, f"/elements/{i}", ring.n)
            try:
                mat = act_matrix(ring, coords)
            except ValueError as exc:  # the structure constants fail validation
                raise SchemaError(f"/elements/{i}", str(exc)) from exc
            entry = {
                "coords": coords,
                "matrix": [list(mat.row(r)) for r in range(ring.n)],
                "norm": norm(ring, coords),
                "regular": is_regular(ring, coords),
                "regular_shift": regular_shift(ring, coords),
            }
            rows.append(entry)
        report["elements"] = rows
    generators = _expect(doc, "generators", list, "") if "generators" in doc else []
    if generators:
        coords_list = [_int_list(g, f"/generators/{i}", ring.n) for i, g in enumerate(generators)]
        try:
            action = action_from_ring(ring, coords_list)
        except ValueError as exc:
            raise SchemaError("/generators", str(exc)) from exc
        report["scalar_generator_present"] = has_scalar_generator(ring, coords_list)
        report["action_analysis"] = analyze_action(action, args.depth, args.word_bound)
    _emit(report, args.json, _render_ring)
    return 0


def _render_ring(report: dict) -> list[str]:
    val = report["validation"]
    lines = [
        f"ring of rank {report['rank']}: associative {_yn(val['associative'])}, unit {_yn(val['unit_ok'])}"
    ]
    for entry in report.get("elements", []):
        lines.append(
            f"element {entry['coords']}: norm {entry['norm']}, regular {_yn(entry['regular'])},"
            f" regular shift {entry['regular_shift']}"
        )
    if "action_analysis" in report:
        lines.append(f"scalar generator present: {_yn(report['scalar_generator_present'])}")
        lines.append("-- induced action --")
        lines.extend(_render_analyze(report["action_analysis"]))
    return lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _to_json(value):
    """JSON data of a report dataclass: its fields in declaration order, with
    a Matrix as its list of rows, tuples as lists, and dicts and lists
    converted element by element.  Apply it to reports, not to whole report
    dicts: walking the plain level-map tables would only cost time."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Matrix):
        return [list(row) for row in value.entries()]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


def _emit(report: dict, as_json: bool, renderer) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in renderer(report):
            print(line)


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"nonnegative integer expected, got {value}")
    return value


# Built once: a parser is a web of reference cycles, and one per call piles up
# as garbage in the oldest gc generation when main runs many times in a process.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algact",
        description="Exact analysis of algebraic monoid actions on integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full action report")
    p.add_argument("action", help="action JSON file, or - for stdin")
    p.add_argument("--depth", type=_nonnegative, default=4, help="constructible-family depth (default 4)")
    p.add_argument("--word-bound", type=_nonnegative, default=6, help="group-word length bound (default 6)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="certify non-isomorphism by contraposition")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=("toral", "ring", "poly"), default="toral")
    p.add_argument("--prime-bound", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("groupoid", help="materialize one finite level")
    p.add_argument("action")
    p.add_argument("--level", required=True, help="basis (row-major integers) or a single scalar k for k*Z^n")
    p.add_argument("--depth", type=_nonnegative, default=4)
    p.add_argument("--trace", help="write the arrow table to this JSON file (- for stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_groupoid)

    p = sub.add_parser("polyideal", help="zero-dimensional ideal condition battery")
    p.add_argument("ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_polyideal)

    p = sub.add_parser("ring", help="structure-constant ring report")
    p.add_argument("ring")
    p.add_argument("--depth", type=_nonnegative, default=4)
    p.add_argument("--word-bound", type=_nonnegative, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ring)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault of algact, not of the input
        print(f"internal invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
