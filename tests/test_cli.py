import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from algact import actions, cli, invariants, matrices, modp, polynomials, polyring
from algact.matrices import Matrix
from algact.polynomials import Poly
from algact.presets import EXAMPLE_ACTIONS


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def action_doc(rank, matrices, monoid="free-abelian", names=None):
    names = names or [f"g{i}" for i in range(len(matrices))]
    return {
        "schema": 1,
        "rank": rank,
        "monoid": monoid,
        "generators": [
            {"name": n, "matrix": flat} for n, flat in zip(names, matrices)
        ],
    }


TIMES2 = action_doc(1, [[2]], names=["s"])
TIMES3 = action_doc(1, [[3]], names=["s"])


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- analyze -----------------------------------------------------------------


def test_analyze_times2(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    code, out, _ = run_cli(capsys, ["analyze", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["standing"]["fi_holds"]
    assert report["standing"]["non_automorphic"]
    assert report["exactness"]["verdict"] == "exact"
    assert report["sf"]["status"] == "holds"
    assert report["mixing"]["s"]["has_root_of_unity_eigenvalue"] is False
    # machine-readable output round-trips
    assert json.loads(json.dumps(report)) == report


def test_analyze_human_output(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    code, out, _ = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "non-automorphic yes" in out
    assert "exactness: exact" in out


def test_analyze_rotation(tmp_path, capsys):
    doc = action_doc(2, [[0, -1, 1, 0]], names=["r"])
    path = write(tmp_path, "rot.json", doc)
    code, out, _ = run_cli(capsys, ["analyze", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert not report["standing"]["non_automorphic"]
    assert report["mixing"]["r"]["has_root_of_unity_eigenvalue"]
    assert report["mixing"]["r"]["witness_order"] == 4


@pytest.mark.xfail(
    strict=True, reason="exactness sees unit factors only among cyclotomics (ROADMAP item 4)"
)
def test_analyze_golden_ratio_factor_is_not_exact(tmp_path, capsys):
    # the companion of (z^2-z-1)(z^2-3): the golden-ratio factor has constant
    # term -1, so the action is not exact; today it reads exact
    path = write(tmp_path, "a.json", action_doc(4, [[0, 0, 0, -3, 1, 0, 0, -3, 0, 1, 0, 4, 0, 0, 1, 1]]))
    code, out, _ = run_cli(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert json.loads(out)["exactness"]["verdict"] == "not_exact"


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "malformed JSON" in err


def test_analyze_schema_violations(tmp_path, capsys):
    bad = {"schema": 1, "rank": 2, "generators": [{"name": "s", "matrix": [1, 2, 3]}]}
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "/generators/0/matrix" in err

    singular = action_doc(1, [[0]])
    path2 = write(tmp_path, "sing.json", singular)
    code2, _, err2 = run_cli(capsys, ["analyze", path2])
    assert code2 == 2
    assert "singular" in err2


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TIMES2)))
    code, out, _ = run_cli(capsys, ["analyze", "-", "--json"])
    assert code == 0
    assert json.loads(out)["rank"] == 1


# -- compare -----------------------------------------------------------------


def test_compare_toral_distinguished(tmp_path, capsys):
    a = write(tmp_path, "a.json", TIMES2)
    b = write(tmp_path, "b.json", TIMES3)
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "toral", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "distinguished"
    assert verdict["theorem_basis"] == cli.TORAL_BASIS
    assert any("invariant_factors" in e for e in verdict["evidence"])


def test_compare_toral_conjugated_consistent(tmp_path, capsys):
    m = [2, 1, 0, 3]
    conj = [2, 2, 0, 3]  # U m U^-1 for the shear U = [[1,1],[0,1]]
    a = write(tmp_path, "a.json", action_doc(2, [m]))
    b = write(tmp_path, "b.json", action_doc(2, [conj]))
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "toral", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "consistent"


def test_compare_toral_hypothesis_failure(tmp_path, capsys):
    rot = action_doc(2, [[0, -1, 1, 0]])
    a = write(tmp_path, "a.json", rot)
    b = write(tmp_path, "b.json", TIMES2)
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "toral", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "inconclusive"


def count_calls(monkeypatch, real):
    """Replace `real` in every algact module that imported it by a wrapper
    recording its first argument; returns the record."""
    calls = []

    def counting(m, *args):
        calls.append(m)
        return real(m, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("algact") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return calls


@pytest.mark.parametrize(
    "docs,factor_calls",
    [
        ((action_doc(2, [[2, 1, 0, 3]]), action_doc(2, [[2, 2, 0, 3]])), 2),
        ((action_doc(2, [[2, 0, 0, 1], [3, 0, 0, 1]]), action_doc(2, [[2, 2, 0, 3]])), 1),
    ],
    ids=["both-single", "one-single"],
)
def test_compare_toral_one_invariant_factor_computation_per_side(tmp_path, capsys, monkeypatch, docs, factor_calls):
    factors = count_calls(monkeypatch, matrices.poly_invariant_factors)
    charpolys = count_calls(monkeypatch, matrices.charpoly)
    paths = [write(tmp_path, f"{i}.json", doc) for i, doc in enumerate(docs)]
    code, out, _ = run_cli(capsys, ["compare", *paths, "--mode", "toral", "--json"])
    assert code == 0
    assert len(factors) == factor_calls and charpolys == []
    hypotheses = json.loads(out)["hypotheses"]
    assert hypotheses["second"] == {
        "single_generator": True,
        "non_automorphic": True,
        "mixing": True,
        "root_of_unity_order": None,
    }


def count_det_calls(monkeypatch):
    calls = []
    real = Matrix.det

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(Matrix, "det", counting)
    return calls


def test_compare_toral_one_determinant_per_generator(tmp_path, capsys, monkeypatch):
    # The only determinants are the singularity checks of AlgebraicAction;
    # non_automorphic reads |det| as |chi(0)|.
    first = action_doc(3, [[0, 0, 2, 1, 0, 0, 0, 1, 0]])
    second = action_doc(3, [[0, 0, 3, 1, 0, 1, 0, 1, 0]])
    paths = [write(tmp_path, "a.json", first), write(tmp_path, "b.json", second)]
    calls = count_det_calls(monkeypatch)
    code, out, _ = run_cli(capsys, ["compare", *paths, "--mode", "toral", "--json"])
    assert code == 0
    assert len(calls) == 2
    hypotheses = json.loads(out)["hypotheses"]
    assert hypotheses["first"]["non_automorphic"] and hypotheses["second"]["non_automorphic"]


@pytest.mark.parametrize("preset", sorted(EXAMPLE_ACTIONS))
def test_analyze_computes_one_charpoly_per_generator(tmp_path, capsys, monkeypatch, preset):
    action = EXAMPLE_ACTIONS[preset]()
    doc = action_doc(action.n, [m.flat() for m in action.matrices], action.monoid_kind, list(action.names))
    calls = count_calls(monkeypatch, matrices.charpoly)
    code, _, _ = run_cli(capsys, ["analyze", write(tmp_path, "a.json", doc), "--json"])
    assert code == 0
    assert calls == list(action.matrices)


@pytest.mark.parametrize("preset", sorted(EXAMPLE_ACTIONS))
def test_analyze_splits_each_charpoly_once(tmp_path, capsys, monkeypatch, preset):
    # mixing, condition F and the exactness criterion read one cyclotomic
    # split per generator.
    action = EXAMPLE_ACTIONS[preset]()
    doc = action_doc(action.n, [m.flat() for m in action.matrices], action.monoid_kind, list(action.names))
    splits = count_calls(monkeypatch, polynomials.cyclotomic_split)
    code, _, _ = run_cli(capsys, ["analyze", write(tmp_path, "a.json", doc), "--json"])
    assert code == 0
    assert splits == [matrices.charpoly(m) for m in action.matrices]


def test_compare_ring_mode(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^2+1"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^2-2"})
    code, out, _ = run_cli(capsys, ["compare", f, g, "--mode", "ring", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "distinguished"
    assert verdict["note"] == "distinguished at p = 5"
    assert verdict["theorem_basis"] == cli.RING_BASIS


def test_compare_ring_same_field(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^2-2"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^2-8"})
    code, out, _ = run_cli(capsys, ["compare", f, g, "--mode", "ring", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "consistent"
    assert "indistinguishable" in verdict["note"]


def test_compare_ring_rejects_reducible(tmp_path, capsys):
    # (z^2+z+1)(z-1) = z^3-1 is reducible on the second side
    for first, second in (("z^2-1", "z^2-2"), ("z^2-5*z+6", "z^2+1"), ("z^2+1", "z^3-1")):
        f = write(tmp_path, "f.json", {"schema": 1, "poly": first})
        g = write(tmp_path, "g.json", {"schema": 1, "poly": second})
        code, _, err = run_cli(capsys, ["compare", f, g, "--mode", "ring"])
        assert code == 2, (first, second)
        assert "irreducibility" in err


def test_compare_ring_smooth_constant_exits_promptly(tmp_path):
    # The rational-root screen lists the 441 divisors of 10^20 from its
    # factorization; trial division up to 10^10 would not finish.  A child
    # process with a generous timeout turns a hang into a failure.
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^4-10^20"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^4-2"})
    proc = run_module("compare", f, g, "--mode", "ring", timeout=60)
    assert proc.returncode == 2
    assert "rational root 100000" in proc.stderr


@pytest.mark.xfail(
    strict=True, reason="the irreducibility screen only screens above degree 3 (ROADMAP item 4)"
)
def test_compare_ring_rejects_reducible_quartic(tmp_path, capsys):
    # z^4+5*z^2+6 = (z^2+2)(z^2+3) has no rational root and no cyclotomic
    # factor; today it passes the screen and reads distinguished at p = 5
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^4+5*z^2+6"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^4-2"})
    code, _, err = run_cli(capsys, ["compare", f, g, "--mode", "ring"])
    assert code == 2
    assert "irreducibility" in err


def test_compare_ring_degree_scans_no_prime(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(f, p):
        calls.append(p)
        return modp.ddf_signature(f, p)

    monkeypatch.setattr(invariants, "ddf_signature", counting)
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^2+1"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^3-2"})
    code, out, _ = run_cli(capsys, ["compare", f, g, "--mode", "ring", "--json"])
    assert code == 0
    assert json.loads(out)["evidence"] == [["degree", "2", "3"]]
    assert calls == []


def test_compare_poly_mode(tmp_path, capsys):
    a = write(
        tmp_path, "i1.json", {"schema": 1, "vars": ["u", "v"], "gens": ["u^2-2", "v^2-3"]}
    )
    b = write(
        tmp_path, "i2.json", {"schema": 1, "vars": ["u", "v"], "gens": ["u^2-2", "v^2-5"]}
    )
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "poly", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "distinguished"
    assert verdict["theorem_basis"] == cli.POLY_BASIS

    code2, out2, _ = run_cli(capsys, ["compare", a, a, "--mode", "poly", "--json"])
    assert json.loads(out2)["status"] == "consistent"


def test_compare_poly_inconclusive_when_conditions_fail(tmp_path, capsys):
    # N(u) = 1 breaks condition (d)
    a = write(tmp_path, "i1.json", {"schema": 1, "vars": ["u"], "gens": ["u^2-u-1"]})
    b = write(tmp_path, "i2.json", {"schema": 1, "vars": ["u"], "gens": ["u^2-2"]})
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "poly", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "inconclusive"


def test_non_integral_norm_leaves_d_undecided(tmp_path, capsys):
    # N(u) = 9/4: (d) asks for primes of integral norms, so it stays open,
    # and the norm is reported exactly instead of truncated to 2.
    a = write(tmp_path, "i1.json", {"schema": 1, "vars": ["u", "v"], "gens": ["4*u^2 - 9", "v - 5"]})
    b = write(tmp_path, "i2.json", {"schema": 1, "vars": ["u", "v"], "gens": ["u - 2", "v - 3"]})
    code, out, _ = run_cli(capsys, ["polyideal", a, "--json"])
    assert code == 0
    cond = json.loads(out)["conditions"]
    assert cond["norms"] == {"u": "9/4", "v": 25}
    assert cond["d_holds"] is None and cond["d_witness_primes"] is None
    assert "N(u) = 9/4" in cond["d_note"]
    code, out, _ = run_cli(capsys, ["compare", a, b, "--mode", "poly", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "inconclusive"
    assert verdict["hypotheses"]["first"]["d"] is None


def test_compare_mode_input_mismatch(tmp_path, capsys):
    # feeding an action document to ring mode is a schema error
    a = write(tmp_path, "a.json", TIMES2)
    b = write(tmp_path, "g.json", {"schema": 1, "poly": "z^2-2"})
    code, _, err = run_cli(capsys, ["compare", a, b, "--mode", "ring"])
    assert code == 2
    assert "/poly" in err


def test_compare_prime_bound_flag(tmp_path, capsys):
    # at a tiny bound the distinguishing prime is out of reach
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^2+1"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^2-2"})
    code, out, _ = run_cli(
        capsys, ["compare", f, g, "--mode", "ring", "--prime-bound", "3", "--json"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "consistent"
    code2, out2, _ = run_cli(
        capsys, ["compare", f, g, "--mode", "ring", "--prime-bound", "400", "--json"]
    )
    assert json.loads(out2)["status"] == "distinguished"
    assert json.loads(out2)["evidence"][0][0] == "splitting_signature(p=5)"


def test_compare_prime_bound_caps_the_scan_without_allocating(tmp_path, capsys):
    # decided at p = 7; a sieve of every integer up to 10^12 would not fit in memory
    f = write(tmp_path, "f.json", {"schema": 1, "poly": "z^6-2"})
    g = write(tmp_path, "g.json", {"schema": 1, "poly": "z^6-3"})
    code, out, _ = run_cli(capsys, ["compare", f, g, "--mode", "ring", "--prime-bound", str(10**12)])
    assert code == 0
    assert "distinguished at p = 7" in out


# -- groupoid -----------------------------------------------------------------


def test_groupoid_level4(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, ["groupoid", path, "--level", "4", "--trace", str(trace_path), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["level"]["index"] == 4
    assert len(report["level_maps"]["s"]["entries"]) == 2
    assert report["orbit_covers_level"]
    assert report["word_identities"]["s"]["semidirect_identity_holds"]
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["kind"] == "groupoid-trace"
    assert {tuple(a["source"]) for a in trace["arrows"]} == {(0,), (1,)}


def test_groupoid_trace_to_stdout_matches_the_file(tmp_path, capsys):
    path = write(tmp_path, "a.json", action_doc(2, [[0, 2, 1, 0]], names=["s"]))
    trace_path = tmp_path / "trace.json"
    argv = ["groupoid", path, "--level", "4"]
    code, report, _ = run_cli(capsys, [*argv, "--trace", str(trace_path)])
    assert code == 0
    code, out, _ = run_cli(capsys, [*argv, "--trace", "-"])
    assert code == 0
    assert out == trace_path.read_text(encoding="utf-8") + "\n" + report


def test_groupoid_trivial_level(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    code, out, _ = run_cli(capsys, ["groupoid", path, "--level", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["level"]["index"] == 1


def test_groupoid_level_not_constructible(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    code, _, err = run_cli(capsys, ["groupoid", path, "--level", "3", "--depth", "2"])
    assert code == 2
    assert "not constructible" in err


def test_groupoid_degenerate_level(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    code, _, err = run_cli(capsys, ["groupoid", path, "--level", "0"])
    assert code == 2
    assert "rank-deficient" in err


def test_groupoid_unwritable_trace_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "a.json", TIMES2)
    trace = str(tmp_path / "missing" / "t.json")
    code, _, err = run_cli(capsys, ["groupoid", path, "--level", "2", "--trace", trace])
    assert code == 2
    assert "/trace" in err
    assert "internal invariant violation" not in err


def test_groupoid_internal_check_exit_code(tmp_path, capsys, monkeypatch):
    # Force a failing identity report to exercise the exit-3 path.
    from algact.groupoid import WordIdentityReport

    def fake_verify(name, mat):
        return WordIdentityReport("s", 1, (2, 1), -1, False, False, False, 0, None)

    monkeypatch.setattr(cli, "verify_word_identity", fake_verify)
    path = write(tmp_path, "a.json", TIMES2)
    code, _, err = run_cli(capsys, ["groupoid", path, "--level", "2"])
    assert code == 3
    assert "invariant violation" in err


# -- polyideal -----------------------------------------------------------------


def test_polyideal_report(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["u", "v"], "gens": ["u^2-2", "v^2-3"], "order": "degrevlex"}
    path = write(tmp_path, "ideal.json", doc)
    code, out, _ = run_cli(capsys, ["polyideal", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["conditions"]["a_holds"]
    assert report["conditions"]["d_witness_primes"] == {"u": 2, "v": 3}
    assert sorted(report["groebner_basis"]) == ["u^2 - 2", "v^2 - 3"]


def test_polyideal_positive_dimensional_is_reported_not_fatal(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["u", "v"], "gens": ["u*v"]}
    path = write(tmp_path, "ideal.json", doc)
    code, out, _ = run_cli(capsys, ["polyideal", path, "--json"])
    assert code == 0
    assert json.loads(out)["conditions"]["a_holds"] is False


def test_polyideal_parse_error_pointer(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["u"], "gens": ["u +"]}
    path = write(tmp_path, "ideal.json", doc)
    code, _, err = run_cli(capsys, ["polyideal", path])
    assert code == 2
    assert "/gens/0" in err and "offset 3" in err


def test_polyideal_zero_generator(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["u"], "gens": ["0"]}
    path = write(tmp_path, "ideal.json", doc)
    code, _, err = run_cli(capsys, ["polyideal", path])
    assert code == 2
    assert "/gens" in err


needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer string conversion"
)


@needs_int_digit_limit
def test_oversized_json_integer_is_an_input_error(tmp_path, capsys):
    # json.loads refuses the literal with a ValueError that is not a JSONDecodeError
    path = tmp_path / "ideal.json"
    path.write_text('{"schema": 1, "vars": ["u"], "gens": ["u^2-2"], "extra": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, ["polyideal", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "digits" in err


@needs_int_digit_limit
def test_oversized_polynomial_literal_is_a_parse_error(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["u"], "gens": ["u^2-" + "9" * 5000]}
    code, out, err = run_cli(capsys, ["polyideal", write(tmp_path, "ideal.json", doc)])
    assert code == 2 and out == ""
    assert "/gens/0" in err and "offset 4" in err
    with pytest.raises(polyring.PolyParseError) as info:
        polyring.parse_poly("u + " + "9" * 5000, ["u"])
    assert info.value.offset == 4


def test_polyideal_computes_one_groebner_basis(tmp_path, capsys, monkeypatch):
    calls = []
    real = polyring.buchberger

    def counting(gens, order=polyring.DEGREVLEX):
        calls.append(order)
        return real(gens, order)

    monkeypatch.setattr(polyring, "buchberger", counting)
    doc = {"schema": 1, "vars": ["u", "v"], "gens": ["u^2-2", "v^2-3"]}
    code, out, _ = run_cli(capsys, ["polyideal", write(tmp_path, "ideal.json", doc), "--json"])
    assert code == 0
    assert len(calls) == 1
    assert sorted(json.loads(out)["groebner_basis"]) == ["u^2 - 2", "v^2 - 3"]


def test_analyze_free_monoid(tmp_path, capsys):
    doc = action_doc(
        2, [[1, 1, 0, 1], [1, 0, 1, 1]], monoid="free", names=["a", "b"]
    )
    path = write(tmp_path, "free.json", doc)
    code, out, _ = run_cli(capsys, ["analyze", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["monoid"] == "free"
    assert not report["standing"]["non_automorphic"]
    assert report["sf"]["status"] == "not-applicable"
    assert not report["condition_f"]["holds_up_to_bound"]


# -- ring -----------------------------------------------------------------------


def test_ring_preset_report(tmp_path, capsys):
    doc = {"schema": 1, "preset": "Zi", "elements": [[1, 1]], "generators": [[1, 1]]}
    path = write(tmp_path, "ring.json", doc)
    code, out, _ = run_cli(capsys, ["ring", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["associative"]
    assert report["elements"][0]["norm"] == 2
    assert report["action_analysis"]["standing"]["fi_holds"]


def test_ring_explicit_constants(tmp_path, capsys):
    doc = {
        "schema": 1,
        "rank": 1,
        "constants": [1],
        "unit": [1],
        "elements": [[-1]],
    }
    path = write(tmp_path, "ring.json", doc)
    code, out, _ = run_cli(capsys, ["ring", path, "--json"])
    assert code == 0
    assert json.loads(out)["elements"][0]["regular_shift"] == 2


def test_ring_builds_each_element_matrix_once(tmp_path, capsys, monkeypatch):
    # one multiplication matrix and one characteristic polynomial per element;
    # the norm is |chi(0)|, so no determinant is taken
    mats = count_calls(monkeypatch, cli.act_matrix)
    charpolys = count_calls(monkeypatch, matrices.charpoly)
    dets = count_det_calls(monkeypatch)
    doc = {"schema": 1, "preset": "Zi", "elements": [[1, 1], [0, 0], [-1, 0]]}
    code, out, _ = run_cli(capsys, ["ring", write(tmp_path, "ring.json", doc), "--json"])
    assert code == 0
    rows = json.loads(out)["elements"]
    assert [(e["norm"], e["regular"], e["regular_shift"]) for e in rows] == [(2, True, 1), (0, False, 1), (1, True, 2)]
    assert (len(mats), len(charpolys), len(dets)) == (3, 3, 0)


def test_ring_unknown_preset(tmp_path, capsys):
    path = write(tmp_path, "ring.json", {"schema": 1, "preset": "nope"})
    code, _, err = run_cli(capsys, ["ring", path])
    assert code == 2
    assert "unknown ring preset" in err


def test_ring_invalid_constants_with_elements_is_input_error(tmp_path, capsys):
    # 2 * e0 * e0 breaks the unit law, so no element has a multiplication matrix.
    doc = {"schema": 1, "rank": 1, "constants": [2], "unit": [1], "elements": [[1]]}
    code, _, err = run_cli(capsys, ["ring", write(tmp_path, "ring.json", doc)])
    assert code == 2
    assert "/elements/0" in err and "invalid structure ring" in err


def test_ring_zero_divisor_generator_is_input_error(tmp_path, capsys):
    # e11 in M2(Z) is a zero divisor: its multiplication matrix is singular.
    doc = {"schema": 1, "preset": "M2Z", "generators": [[1, 0, 0, 0]]}
    code, out, err = run_cli(capsys, ["ring", write(tmp_path, "ring.json", doc)])
    assert code == 2 and out == ""
    assert "/generators" in err and "'a0' is singular" in err


@pytest.mark.parametrize("field", ["elements", "generators"])
def test_ring_non_array_field_is_input_error(tmp_path, capsys, field):
    doc = {"schema": 1, "preset": "Zi", field: 5}
    code, _, err = run_cli(capsys, ["ring", write(tmp_path, "ring.json", doc)])
    assert code == 2
    assert f"/{field}" in err


def test_analyze_and_ring_build_one_family_each(tmp_path, capsys, monkeypatch):
    calls = []
    real = actions.constructible_family

    def counting(action, depth):
        calls.append(depth)
        return real(action, depth)

    monkeypatch.setattr(actions, "constructible_family", counting)
    monkeypatch.setattr(cli, "constructible_family", counting)
    code, _, _ = run_cli(capsys, ["analyze", write(tmp_path, "a.json", TIMES2), "--json"])
    assert code == 0 and calls == [4]
    ring = write(tmp_path, "ring.json", {"schema": 1, "preset": "Zi", "generators": [[1, 1]]})
    code, _, _ = run_cli(capsys, ["ring", ring, "--depth", "3", "--json"])
    assert code == 0 and calls == [4, 3]


# -- report serialization -------------------------------------------------------------


@pytest.mark.parametrize(
    "report,expected",
    [
        (
            actions.check_SF_via_det(
                actions.AlgebraicAction(
                    2, [("s", Matrix([[2, 0], [0, 2]])), ("t", Matrix([[0, 4], [-4, 0]]))]
                )
            ),
            {"status": "fails", "witness_exponents": [-2, 1]},
        ),
    ],
    ids=["SFReport"],
)
def test_report_json_roundtrip(report, expected):
    data = cli._to_json(report)
    assert list(data) == [f.name for f in fields(report)]
    assert json.loads(json.dumps(data)) == data
    assert {k: data[k] for k in expected} == expected


# -- exit codes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "command,flag",
    [
        ("analyze", "--depth"),
        ("analyze", "--word-bound"),
        ("groupoid", "--depth"),
        ("ring", "--depth"),
        ("ring", "--word-bound"),
        ("compare", "--prime-bound"),
    ],
)
def test_negative_bound_is_rejected_by_the_parser(tmp_path, capsys, command, flag):
    assert reject_bound(tmp_path, capsys, command, flag, "-1") == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [("analyze", "--depth"), ("analyze", "--word-bound"), ("compare", "--prime-bound")],
)
def test_non_integer_bound_is_rejected_without_the_type_name(tmp_path, capsys, command, flag):
    assert reject_bound(tmp_path, capsys, command, flag, "abc") == 2
    err = capsys.readouterr().err
    assert "nonnegative integer expected, got 'abc'" in err
    assert "_nonnegative" not in err


def reject_bound(tmp_path, capsys, command, flag, value):
    """Exit code of a run whose bound `flag` is `value`."""
    path = write(tmp_path, "a.json", TIMES2)
    files = [path, path] if command == "compare" else [path]
    extra = ["--level", "2"] if command == "groupoid" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *files, flag, value, *extra])
    return exc.value.code


def test_internal_fault_exits_3_with_its_type(tmp_path, capsys, monkeypatch):
    # A ValueError from inside the package is a bug, not an input error.
    def broken(action, word_bound):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(cli, "check_standing", broken)
    code, _, err = run_cli(capsys, ["analyze", write(tmp_path, "a.json", TIMES2)])
    assert code == 3
    assert "ValueError: matrix is singular" in err


# -- schema version and subprocess entry -----------------------------------------


def test_unsupported_schema_version(tmp_path, capsys):
    # True == 1 and 1.0 == 1 in Python, but only the integer 1 is version 1
    for version in (2, True, 1.0, "1"):
        path = write(tmp_path, "a.json", dict(TIMES2, schema=version))
        code, _, err = run_cli(capsys, ["analyze", path])
        assert code == 2, version
        assert "/schema" in err


def run_module(*args, timeout=None):
    # The child process imports the same algact as this one, installed or not.
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "algact", *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "a.json", TIMES2)
    proc = run_module("analyze", path)
    assert proc.returncode == 0
    assert "exactness: exact" in proc.stdout


def test_module_entry_point_bad_input(tmp_path):
    path = tmp_path / "missing.json"
    proc = run_module("analyze", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: cannot read")  # no empty pointer
