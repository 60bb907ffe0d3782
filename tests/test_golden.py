"""Golden CLI output: the --json and text reports of fixed documents, byte for byte.

The captures under tests/golden/ pin every report the CLI emits (analyze on
each preset, ring, groupoid with its --trace file, polyideal and the three
compare modes across all three verdicts).  After an intended change of
output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from algact import cli
from algact.presets import EXAMPLE_ACTIONS

GOLDEN = Path(__file__).parent / "golden"


def _action(rank, matrices, names, monoid="free-abelian") -> dict:
    return {
        "schema": 1,
        "rank": rank,
        "monoid": monoid,
        "generators": [{"name": n, "matrix": m} for n, m in zip(names, matrices)],
    }


def _action_doc(action) -> dict:
    return _action(action.n, [m.flat() for m in action.matrices], action.names, action.monoid_kind)


def _ideal(names, gens, order=None) -> dict:
    doc = {"schema": 1, "vars": names, "gens": gens}
    return doc if order is None else {**doc, "order": order}


def _poly(text) -> dict:
    return {"schema": 1, "poly": text}


TIMES2 = _action(1, [[2]], ["s"])
TIMES3 = _action(1, [[3]], ["s"])
ROTATION = _action(2, [[0, -1, 1, 0]], ["r"])

# name -> (subcommand, input documents, extra arguments)
CASES = {
    **{
        f"analyze_{name}": ("analyze", [_action_doc(make())], [])
        for name, make in EXAMPLE_ACTIONS.items()
    },
    "analyze_free_monoid": (
        "analyze",
        [_action(2, [[1, 1, 0, 1], [1, 0, 1, 1]], ["a", "b"], monoid="free")],
        [],
    ),
    # sf fails with a right-kernel witness, read off the U of hnf
    "analyze_sf_kernel_witness": ("analyze", [_action(2, [[2, 0, 0, 2], [0, 4, -4, 0]], ["s", "t"])], []),
    "ring_elements_generators": (
        "ring",
        [{"schema": 1, "preset": "Zi", "elements": [[1, 1], [2, 0], [0, 3]], "generators": [[1, 1]]}],
        ["--depth", "3"],
    ),
    "groupoid_sqrt2_level2": (
        "groupoid",
        [_action_doc(EXAMPLE_ACTIONS["sqrt2_shift"]())],
        ["--level", "2"],
    ),
    "groupoid_doubling_tripling_level6": (
        "groupoid",
        [_action_doc(EXAMPLE_ACTIONS["doubling_tripling"]())],
        ["--level", "6"],
    ),
    # a diagonal level: C = 4Z x 16Z with Hermite box [0, 4) x [0, 16), 8 arrows
    "groupoid_diag24_level4_16": (
        "groupoid",
        [_action(2, [[2, 0, 0, 4]], ["s"])],
        ["--level=4,0,0,16", "--depth", "2"],
    ),
    # rank 3, C = 2Z^3 with Hermite box [0, 2)^3: the companion of z^3-2, 4 arrows
    "groupoid_cube_root2_level2": (
        "groupoid",
        [_action(3, [[0, 0, 2, 1, 0, 0, 0, 1, 0]], ["s"])],
        ["--level=2", "--depth", "3"],
    ),
    # a non-diagonal source: s^{-1}C has Hermite basis [[2, 2], [0, 4]], 8 arrows
    "groupoid_gaussian_1plusi_level4": (
        "groupoid",
        [_action_doc(EXAMPLE_ACTIONS["gaussian_1plusi"]())],
        ["--level", "4", "--depth", "4"],
    ),
    "polyideal_two_square_roots": ("polyideal", [_ideal(["u", "v"], ["u^2-2", "v^2-3"])], []),
    "polyideal_golden_ratio": ("polyideal", [_ideal(["u"], ["u^2-u-1"])], []),
    "polyideal_positive_dimensional": ("polyideal", [_ideal(["u", "v"], ["u*v"])], []),
    # the (c) witness u*v only appears at degree 2
    "polyideal_degree2_witness": ("polyideal", [_ideal(["u", "v"], ["u+v-3", "u^2-3*u+2"])], []),
    # (c) fails: the search runs through every monomial up to degree 8
    "polyideal_no_c_witness": ("polyideal", [_ideal(["u", "v"], ["u^2-1", "v^2-1"])], []),
    "polyideal_tower_lex": (
        "polyideal",
        [_ideal(["u", "v", "w"], ["u^2-2", "v^2-u", "w^2-v-1"], order="lex")],
        [],
    ),
    # rational multiplication matrices: norms 9/4 and 1/18, (d) undecided
    "polyideal_rational_norms": ("polyideal", [_ideal(["u", "v"], ["2*u^2-3", "3*v^2-u-1"])], []),
    "compare_toral_distinguished": ("compare", [TIMES2, TIMES3], ["--mode", "toral"]),
    "compare_toral_consistent": (
        "compare",
        [_action(2, [[2, 1, 0, 3]], ["g0"]), _action(2, [[2, 2, 0, 3]], ["g0"])],
        ["--mode", "toral"],
    ),
    "compare_toral_inconclusive": ("compare", [ROTATION, TIMES2], ["--mode", "toral"]),
    "compare_ring_distinguished": ("compare", [_poly("z^2+1"), _poly("z^2-2")], ["--mode", "ring"]),
    "compare_ring_degree": ("compare", [_poly("z^2-2"), _poly("z^3-2")], ["--mode", "ring"]),
    "compare_ring_consistent": ("compare", [_poly("z^2-2"), _poly("z^2-8")], ["--mode", "ring"]),
    # degree 8 against its Taylor shift z -> z+1: every split reaches the d >= 2 Frobenius steps
    "compare_ring_shift_degree8": (
        "compare",
        [_poly("z^8+2*z+2"), _poly("z^8+8*z^7+28*z^6+56*z^5+70*z^4+56*z^3+28*z^2+10*z+5")],
        ["--mode", "ring", "--prime-bound", "300"],
    ),
    # decided at p = 7 by a degree-3 split: [3, 3] against [6]
    "compare_ring_sextic_distinguished": ("compare", [_poly("z^6-2"), _poly("z^6-3")], ["--mode", "ring"]),
    "compare_poly_distinguished": (
        "compare",
        [_ideal(["u", "v"], ["u^2-2", "v^2-3"]), _ideal(["u", "v"], ["u^2-2", "v^2-5"])],
        ["--mode", "poly"],
    ),
    "compare_poly_consistent": (
        "compare",
        [_ideal(["u", "v"], ["u^2-2", "v^2-3"]), _ideal(["u", "v"], ["u^2-2", "v^2-3"])],
        ["--mode", "poly"],
    ),
    "compare_poly_inconclusive": (
        "compare",
        [_ideal(["u"], ["u^2-u-1"]), _ideal(["u"], ["u^2-2"])],
        ["--mode", "poly"],
    ),
}


def _run(name: str, workdir: Path) -> dict[str, str]:
    """The outputs of one case: file suffix -> text."""
    command, docs, extra = CASES[name]
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"{name}.{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    trace = workdir / f"{name}.trace.json"
    if command == "groupoid":
        extra = [*extra, "--trace", str(trace)]
    outputs = {}
    for suffix, flags in ((".json", ["--json"]), (".txt", [])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, *paths, *extra, *flags])
        assert code == 0, (name, flags)
        outputs[suffix] = buf.getvalue()
        if command == "groupoid":
            text = trace.read_text(encoding="utf-8")
            assert outputs.setdefault(".trace.json", text) == text, "trace depends on --json"
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for suffix, text in _run(name, tmp_path).items():
        assert text == (GOLDEN / (name + suffix)).read_text(encoding="utf-8"), suffix


# compare mode -> the hypotheses that must read true on both sides; ring mode
# has none in its report, because a failed irreducibility screen is an input error
RULE_HYPOTHESES = {
    "toral": ("single_generator", "non_automorphic", "mixing"),
    "ring": (),
    "poly": ("a", "b", "c", "d"),
}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("compare_*.json")), ids=lambda path: path.stem)
def test_compare_status_follows_the_one_sided_rule(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    hypotheses = report["hypotheses"]
    verified = all(
        hypotheses[side].get(key) is True for key in RULE_HYPOTHESES[report["mode"]] for side in ("first", "second")
    )
    if not verified:
        expected = "inconclusive"
    elif any(left != right for _, left, right in report["evidence"]):
        expected = "distinguished"
    else:
        expected = "consistent"
    assert report["status"] == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for suffix, text in _run(case, Path(tmp)).items():
                (GOLDEN / (case + suffix)).write_text(text, encoding="utf-8")
