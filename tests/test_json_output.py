"""Indented JSON output: the shared writer's text is ``json.dumps(obj,
indent=2)``, byte for byte, for the library's JSON forms and for any JSON
value."""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from layerlens.cli import _report_json, analyze_drawing
from layerlens.core import Drawing, _json_chunks, drawing_to_json
from layerlens.decomposition import build_path_decomposition, decomposition_to_json
from layerlens.families import special_s


def _text(obj: object) -> str:
    return "".join(_json_chunks(obj))


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
    forms = (drawing_to_json(d), decomposition_to_json(build_path_decomposition(d)), _report_json(analyze_drawing(d)))
    for obj in forms:
        assert _text(obj) == json.dumps(obj, indent=2)


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids) | st.tuples(kids, kids) | st.dictionaries(_keys, kids),
    max_leaves=40,
)


@given(_values)
def test_any_json_value(obj):
    assert _text(obj) == json.dumps(obj, indent=2)


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
        # the str and int join paths, and the lists that must bypass them
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
