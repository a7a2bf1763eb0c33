"""Indented JSON output: the CLI's ``_dump_json`` and ``save_drawing``
write the text of ``json.dumps(obj, indent=2)``, byte for byte, for the
library's JSON forms and for hand-made values, and so does the streamed
decomposition writer of ``pathwidth --out``."""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from layerlens.cli import _dump_json, _report_json, analyze_drawing
from layerlens.core import Drawing, drawing_to_json, save_drawing
from layerlens.decomposition import (
    PathDecomposition,
    _write_decomposition_json,
    build_path_decomposition,
    decomposition_to_json,
)
from layerlens.families import special_s


def _text(obj: object) -> str:
    """What ``_dump_json`` writes for obj to a file, after checking that it
    writes the same text and a newline to stdout."""
    f = io.StringIO()
    _dump_json(obj, f)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        _dump_json(obj, None)
    assert stdout.getvalue() == f.getvalue() + "\n"
    return f.getvalue()


def _saved(d: Drawing) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        save_drawing(d, path)
        with open(path, "rb") as f:
            return f.read()


def _written(pd: PathDecomposition) -> str:
    f = io.StringIO()
    _write_decomposition_json(pd, f)
    return f.getvalue()


@st.composite
def drawings(draw):
    p = draw(st.integers(1, 8))
    q = draw(st.integers(1, 8))
    cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
    return Drawing(p, q, frozenset(draw(st.sets(st.sampled_from(cells)))))


@given(drawings())
@example(Drawing(3, 2))  # no edges: five singleton bags, width 0
@example(Drawing(4, 5, frozenset({(2, 3)})))  # singleton bags of isolated vertices
@example(special_s())  # a cubic bound of None, Fraction strings
def test_library_json_forms(d):
    pd = build_path_decomposition(d)
    forms = (drawing_to_json(d), decomposition_to_json(pd), _report_json(analyze_drawing(d)))
    for obj in forms:
        assert _text(obj) == json.dumps(obj, indent=2)
    assert _saved(d) == (json.dumps(forms[0], indent=2) + "\n").encode()
    # the streamed writer of pathwidth --out
    assert _written(pd) == json.dumps(forms[1], indent=2)


def _bag(*verts) -> frozenset:
    return frozenset(verts)


def _label(vert: object) -> str:
    return f"{vert[0]}{vert[1]}" if isinstance(vert, tuple) else repr(vert)


@pytest.mark.parametrize(
    "bags",
    [
        (),
        (_bag(),),
        (_bag(("u", 1)), _bag(), _bag(("v", 1))),
        # a quote, a backslash, non-ASCII text and control characters
        (_bag(('u"', 1), ("v", 2)), _bag(("v\\", 2), ("v", 2)), _bag(("h\u00e9", 1), ("\u2603", 2), ("\U0001f600", 3))),
        (_bag(("u\x01", 1), ("tab\t", 2), ("\x7f", 3)),),
        # "u1" sorts before "u1!", but '"u1!"' before '"u1"'
        (_bag(("u", 1), ("u1", "!")), _bag(("u1", "!")), _bag(("u1", "!"), ("u", 1), ("u1", '"'))),
        # ("u", 11) and ("u1", 1) share the label "u11"
        (_bag(("u", 11), ("u1", 1)), _bag(("u1", 1)), _bag(("u", 11), ("u1", 1), ("v", 0)), _bag(("u", 11))),
        # entries that are not pairs are labelled with their repr
        (_bag("x", ("u", 1)), _bag(7, ("w", 3), "x"), _bag()),
    ],
    ids=["none", "empty-bag", "empty-between", "escapes", "control", "quoted-order", "shared-label", "foreign"],
)
def test_decomposition_writer_given_bags(bags):
    pd = PathDecomposition(bags)
    data = decomposition_to_json(pd)
    assert data["bags"] == [sorted(map(_label, b)) for b in bags]
    assert _written(pd) == json.dumps(data, indent=2)


class _Label(str):
    """A str whose str and repr are not its value; json writes its value."""

    def __str__(self):
        return "label"

    def __repr__(self):
        return "label"


class _Mode(IntEnum):
    ONE = 1


class _Named(int):
    """An int whose str is not json's text for it."""

    def __str__(self):
        return "one"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[], [1]],
        [1, [2]],
        [[1, 2], {}, [3]],
        (1, (2, 3)),
        ((),),
        {"a": {"b": ()}},
        ["hé", "☃", "\U0001f600", "tab\t", 'q"uote', "back\\slash", "\x00\x1f", "\ud800"],
        {"é\n": [None, True, False, 1.5, -0.0, float("inf"), float("nan")]},
        {1: 2, None: 3, True: [False], 2.5: {}},
        "plain",
        7,
        None,
        # lists of strs, of ints and of mixed scalars, and str and int subclasses
        ["u1", "v12", "u3"],
        ("a", "b"),
        {"bags": [["u1", "v2"], ["v2"]], "edges": [[1, 2], [3, 4]]},
        [""],
        ["", "a", ""],
        ["\x7f"],
        ["ok", "\x01"],
        ["tab\t", "ok"],
        ['say "hi"'],
        ["back\\slash"],
        ["h\u00e9"],
        ["a", "\u2603"],
        [_Label("u1"), "v1"],
        [_Label("u1")],
        [0, -1, 10**40, -(10**40)],
        (1, 2),
        [_Mode.ONE, 2],
        [_Mode.ONE],
        [_Named(1), 2],
        [True, 1],
        [1, False],
        [1, 2.5],
        [1, "1"],
        [1, None],
    ],
)
def test_hand_made(obj):
    assert _text(obj) == json.dumps(obj, indent=2)
