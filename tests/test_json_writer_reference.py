"""Differential test: `cli._write_json`, which writes indented JSON directly,
against the chunk loop over `json.JSONEncoder(indent=2).iterencode` that it
replaced, kept here as the reference.

Both write the text json.dumps(value, indent=2) gives, ASCII-escaped, on every
value a report can hold: dicts with str keys, lists, tuples, str, int, bool
and None.  The reference also accepts floats and converts non-str keys; the
writer refuses them, because a report never holds one.
"""

import contextlib
import gc
import io
import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from algact import cli


def reference_write_json(value, out) -> None:
    chunks = json.JSONEncoder(indent=2).iterencode(value)
    for piece in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        out.write(piece)


def _both(value) -> tuple[str, str]:
    new, old = io.StringIO(), io.StringIO()
    cli._write_json(value, new)
    reference_write_json(value, old)
    return new.getvalue(), old.getvalue()


TRICKY_TEXT = ['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\t\r", "é", " ", "\ud800", "x\udfffy", "\U0001f600", ""]
strings = st.sampled_from(TRICKY_TEXT) | st.text(st.characters(exclude_categories=()), max_size=8)
big = st.integers(10**999, 10**1000)
ints = st.integers() | big | big.map(int.__neg__) | st.sampled_from([0, -1, 1])
scalars = ints | strings | st.booleans() | st.none()
# int lists with bools mixed in must not be written as ints
int_lists = st.lists(ints | st.booleans(), max_size=5)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    )


values = st.recursive(scalars | int_lists | int_lists.map(tuple), _containers, max_leaves=30)

# nested seven deep: dict, list, dict, tuple, dict, list, list
DEEP = {"a": [{"b": ({"c": [[1, 2], [True, 3], []], "d": {}},)}], "e": ()}


@settings(max_examples=300, deadline=None)
@given(values)
@example(DEEP)
@example([[[[[-(10**999)]]]]])
@example({"flat": [1, True, 0], "bools": [False, True], "none": [None], "empty": {}, "tuple": ()})
def test_matches_reference(value):
    new, old = _both(value)
    assert new == old


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.fixture(scope="module")
def level_output(tmp_path_factory):
    """The writes of `groupoid --json --trace -` on a level with 4,096 arrows:
    s = diag(1, 2) at the level Z + 8192 Z."""
    path = tmp_path_factory.mktemp("level") / "diag12.json"
    doc = {"schema": 1, "rank": 2, "monoid": "free-abelian", "generators": [{"name": "s", "matrix": [1, 0, 0, 2]}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    sink = _Recorder()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["groupoid", str(path), "--level=1,0,0,8192", "--depth", "13", "--json", "--trace", "-"])
    assert code == 0
    return sink.writes


def test_level_report_matches_reference(level_output):
    text = "".join(level_output)
    decoder = json.JSONDecoder()
    trace, end = decoder.raw_decode(text)
    report, _ = decoder.raw_decode(text, end + 1)
    assert len(trace["arrows"]) == 4096
    expected = []
    for doc in (trace, report):
        buf = io.StringIO()
        reference_write_json(doc, buf)
        expected.append(buf.getvalue() + "\n")
    assert text == "".join(expected)


def test_level_report_is_written_in_chunks(level_output):
    # the trace, "\n", the report, "\n"
    first_newline = level_output.index("\n")
    assert level_output[-1] == "\n"
    assert first_newline > 1 and len(level_output) - first_newline > 3
    assert max(map(len, level_output)) <= 64 * 1024


def test_leaves_no_reference_cycle():
    """A cycle through the writer's state would keep `out`, with the whole
    document, alive until the next full collection."""
    gc.collect()
    gc.disable()
    try:
        cli._write_json(DEEP, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": [1, {2}]}], ids=["float", "int key", "set"])
def test_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._write_json(value, io.StringIO())
