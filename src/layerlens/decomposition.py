"""Path decompositions of two-layer drawings, built from the edge order.

The builder walks the edges in lexicographic order and forms one bag per
edge from its endpoints plus the "related" bottom vertices, those whose
incidence interval strictly spans the edge's position and that touch an
edge crossing it.  For a drawing with at most k crossings per edge this
yields width at most k + 1.  A validator checks the four defining bag
properties against any drawing.

Call a bottom vertex y *active* at position pos when its first and last
positions in the order satisfy first[y] < pos < last[y].  Every active
y other than the bottom end t of the pos-th edge e = (s, t) is related
to e: if y > t, the first edge of y has a top index below s and crosses
e; if y < t, the last edge of y has a top index above s and crosses e.
So the bag of e is exactly {u_s, v_t} plus the active vertices.

``_steps`` is the one routine that derives bags from an edge order.  It
yields the (leaving, entering) step into each bag: between the bags of
positions pos - 1 and pos, u_s leaves and the new top end enters when
the top index changes, the previous bottom end leaves after its last
position, and v_t enters at its first, so at most two vertices leave and
two enter.  A bag's size is the running sum of len(entering) -
len(leaving), so the largest bag of an orientation is known without
making a bag.  ``path_width`` and the builder share ``_narrower``, which
sweeps both orientations and keeps the narrower one, in O(m log m) time
and O(m) memory.

Every decomposition holds one form, its ``_Events``: the steps, then one
singleton bag per isolated vertex, each replacing the bag before it.  A
built decomposition records the steps of its kept sweep; one made from
bags, corrupted ones included, records the two frozenset differences of
each pair of neighbouring bags at construction.  ``_transitions`` yields
the (leaving, entering) pair of every bag from the events alone.  The
validator and ``_sorted_labels`` read only ``_transitions``, and ``bags``
of a built decomposition replays the events once on first use.
``_sorted_labels`` keeps the current bag's labels sorted, for the writer
each next to its JSON text, encoded once per vertex;
``decomposition_to_json`` copies the labels of each bag, and
``_write_decomposition_json`` writes each bag's text as it comes and
holds one bag at a time.  Building, validating and writing the JSON then
cost O(m log m + p + q) plus the size of the output, writing holds memory
O(m + p + q) whatever the size of the output, and no frozenset is made
per bag unless ``bags`` is read.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import TextIO

from .core import Drawing, Edge

Vertex = tuple[str, int]  # ("u", i) or ("v", x)

__all__ = [
    "Vertex",
    "PathDecomposition",
    "DecompositionReport",
    "edge_order",
    "related_vertices",
    "path_width",
    "build_path_decomposition",
    "validate_decomposition",
    "decomposition_to_json",
]


def edge_order(d: Drawing) -> list[Edge]:
    """Edges ordered by top index, ties broken by bottom index."""
    return d.sorted_edges()


def _spans(order: list[Edge]) -> tuple[dict[int, int], dict[int, int]]:
    """The first and the last position (1-based) of each bottom vertex of
    the order."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, (_, y) in enumerate(order, 1):
        first.setdefault(y, pos)
        last[y] = pos
    return first, last


def _tags(layer: str, order: list[Edge]) -> dict[int, Vertex]:
    """One shared (layer, idx) tuple per vertex at the second end of an
    edge of the order, keyed by idx; vertices without edges get none."""
    return {idx: (layer, idx) for _, idx in order}


def related_vertices(d: Drawing, pos: int) -> set[int]:
    """Bottom vertices related to the pos-th edge (1-based) in the order.

    v_y is related when it is incident to an edge crossing the pos-th edge
    and its incidence interval strictly contains pos; these are exactly
    the y with first[y] < pos < last[y] other than the edge's own bottom
    end.
    """
    order = edge_order(d)
    if not 1 <= pos <= len(order):
        raise ValueError(f"position {pos} out of range 1..{len(order)}")
    first, last = _spans(order)
    return {y for y, start in first.items() if start < pos < last[y]} - {order[pos - 1][1]}


_Step = tuple[Collection[Vertex], Collection[Vertex]]  # (leaving, entering)


def _steps(order: list[Edge], primary: dict[int, Vertex], secondary: dict[int, Vertex]) -> Iterator[_Step]:
    """The (leaving, entering) step into each edge bag of the sweep over
    the order, from the first and last positions alone: the top end
    leaves and enters when it changes, the previous bottom end leaves
    after its last position and the new one enters at its first."""
    if not order:
        return
    first, last = _spans(order)
    s, t = order[0]
    yield (), (primary[s], secondary[t])
    for pos, ((ps, pt), (s, t)) in enumerate(zip(order, islice(order, 1, None)), 2):
        leaving = (secondary[pt],) if last[pt] == pos - 1 else ()
        entering = (secondary[t],) if first[t] == pos else ()
        if s != ps:
            leaving += (primary[ps],)
            entering += (primary[s],)
        yield leaving, entering


def _largest(steps: Iterable[_Step]) -> int:
    """The size of the largest bag reached by the steps; 0 for none."""
    return max(accumulate(len(entering) - len(leaving) for leaving, entering in steps), default=0)


@dataclass(frozen=True, eq=False)
class _Events:
    """The one form of every decomposition: one step per bag, then, after
    the bag ``final``, one singleton bag per vertex of the layers of sizes
    p and q that is not linked."""

    steps: list[_Step]
    width: int
    final: tuple[Vertex, ...] = ()
    p: int = 0
    q: int = 0
    u_linked: Collection[int] = ()
    v_linked: Collection[int] = ()

    def isolated(self) -> Iterator[Vertex]:
        yield from (("u", i) for i in range(1, self.p + 1) if i not in self.u_linked)
        yield from (("v", x) for x in range(1, self.q + 1) if x not in self.v_linked)

    def count(self) -> int:
        return len(self.steps) + self.p - len(self.u_linked) + self.q - len(self.v_linked)


class PathDecomposition:
    """An ordered list of bags; each vertex is tagged with its layer.

    ``orientation`` records which layer played the role of the primary
    (edge-ordering) layer when the decomposition was built: "top" for the
    given drawing, "bottom" for its transpose.  Bags given here are kept
    and recorded as their differences; a built decomposition keeps only
    the events of its sweep and makes ``bags`` from them on first use.
    Two decompositions are equal when their bags and orientations are.
    """

    __slots__ = ("_bags", "_orientation", "_events")

    def __init__(self, bags: tuple[frozenset[Vertex], ...], orientation: str = "top") -> None:
        steps = [(prev - bag, bag - prev) for prev, bag in zip((frozenset(), *bags), bags)]
        self._bags = bags
        self._orientation = orientation
        self._events = _Events(steps, _largest(steps) - 1)

    @classmethod
    def _built(cls, events: _Events, orientation: str) -> PathDecomposition:
        pd = cls.__new__(cls)
        pd._bags = None
        pd._orientation = orientation
        pd._events = events
        return pd

    @property
    def bags(self) -> tuple[frozenset[Vertex], ...]:
        """The bags in order; a built decomposition replays its events
        into them on first read."""
        if self._bags is None:
            current: set[Vertex] = set()
            bags = []
            for leaving, entering in _transitions(self):
                current.difference_update(leaving)
                current.update(entering)
                bags.append(frozenset(current))
            self._bags = tuple(bags)
        return self._bags

    @property
    def orientation(self) -> str:
        return self._orientation

    @property
    def bag_count(self) -> int:
        """``len(bags)``, counted without making a bag."""
        return self._events.count()

    @property
    def width(self) -> int:
        """Largest bag size minus one; -1 for an empty decomposition."""
        return self._events.width

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.bags, self.orientation) == (other.bags, other.orientation)

    def __hash__(self) -> int:
        return hash((self.bags, self.orientation))

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={self.bags!r}, orientation={self.orientation!r})"


def _transitions(pd: PathDecomposition) -> Iterator[_Step]:
    """(leaving, entering) for each bag of pd in turn: the vertices of the
    bag before it that it lacks (none before the first bag), and its
    vertices that the bag before lacks.  The recorded steps come first,
    then one singleton bag per isolated vertex."""
    events = pd._events
    yield from events.steps
    before = events.final
    for vert in events.isolated():
        bag = (vert,)
        yield before, bag
        before = bag


def _narrower(d: Drawing) -> tuple[str, list[Edge], dict[int, Vertex], dict[int, Vertex], int]:
    """The orientation to keep: both are swept and the one with the
    smaller largest bag wins, ties to the top.  Returns its name, its edge
    order, the tags of the vertices with edges on its primary and on its
    secondary layer, and the width.  Isolated vertices only add singleton
    bags, which decide the width only when there is no edge: then both
    largest edge bags are 0, the top is kept and the width is 0."""
    top = edge_order(d)
    bottom = sorted((x, i) for i, x in d.edges)
    u, v = _tags("u", bottom), _tags("v", top)
    top_size, bottom_size = _largest(_steps(top, u, v)), _largest(_steps(bottom, v, u))
    if bottom_size < top_size:
        return "bottom", bottom, v, u, bottom_size - 1
    return "top", top, u, v, max(top_size, 1) - 1


def path_width(d: Drawing) -> int:
    """``build_path_decomposition(d).width`` without building a bag, in
    time O(m log m) and memory O(m), whatever the layer sizes."""
    return _narrower(d)[-1]


def build_path_decomposition(d: Drawing) -> PathDecomposition:
    """One bag per edge in lexicographic order; width at most k + 1 when
    every edge has at most k crossings.

    The construction is asymmetric, so the orientation ``_narrower``
    keeps is the one recorded, as its steps.  The cost is O(m log m),
    plus O(p + q) for the isolated vertices when the bags are walked.
    Isolated vertices get singleton bags at the end so that every vertex
    is covered; an edgeless drawing has only those, and width 0.
    """
    orientation, order, primary, secondary, width = _narrower(d)
    u, v = (primary, secondary) if orientation == "top" else (secondary, primary)
    final = (primary[order[-1][0]], secondary[order[-1][1]]) if order else ()
    events = _Events(list(_steps(order, primary, secondary)), width, final, d.p, d.q, u, v)
    return PathDecomposition._built(events, orientation)


@dataclass(frozen=True)
class DecompositionReport:
    """Validation outcome: the width, and one entry per violated property
    with a concrete witness."""

    valid: bool
    width: int
    violations: tuple[tuple[str, str], ...]


# The end of a run still open after the last bag.
_OPEN = sys.maxsize


def _runs_meet(a: list[int], b: list[int]) -> bool:
    """True iff two sorted flat lists of disjoint runs, start, end, start,
    end and so on, overlap."""
    i = j = 0
    while i < len(a) and j < len(b):
        s1, e1, s2, e2 = a[i], a[i + 1], b[j], b[j + 1]
        if s1 <= e2 and s2 <= e1:
            return True
        if e1 < e2:
            i += 2
        else:
            j += 2
    return False


def _least(entries: Collection[object]) -> object:
    """The smallest entry; entries that do not compare, such as a foreign
    7 next to ("w", 3), are ordered by type name and then repr."""
    try:
        return min(entries)
    except TypeError:
        return min(entries, key=lambda entry: (type(entry).__name__, repr(entry)))


def _name(entry: object) -> str:
    """"u3" for ("u", 3); the repr of an entry that is not a pair, such
    as the string "u1", which indexing alone would label u1 too."""
    if isinstance(entry, tuple) and len(entry) == 2:
        return f"{entry[0]}{entry[1]}"
    return repr(entry)


def validate_decomposition(d: Drawing, pd: PathDecomposition) -> DecompositionReport:
    """Check the four bag properties of a path decomposition against d.

    P.1 bags contain only vertices of d; P.2 every vertex appears in some
    bag; P.3 every edge has both endpoints in a common bag; P.4 the bags
    containing a vertex are consecutive.  Violations are reported, not
    raised, each with the first witness: the first offending bag for P.1,
    and the smallest vertex or edge otherwise.  A foreign bag entry that
    is not a (layer, index) pair is a P.1 violation like any other.

    One pass over ``_transitions`` records, per vertex, the maximal runs
    of consecutive bags holding it as one flat list of starts and ends,
    from the vertices that enter and leave between neighbouring bags;
    nothing is taken on trust from the builder.  P.1 is decided as
    vertices enter; P.2 to P.4 are read off the record.
    """
    verts = {("u", i) for i in range(1, d.p + 1)} | {("v", x) for x in range(1, d.q + 1)}
    violations: list[tuple[str, str]] = []

    runs: dict[Vertex, list[int]] = {}
    for idx, (leaving, entering) in enumerate(_transitions(pd)):
        for vert in leaving:
            runs[vert][-1] = idx - 1
        for vert in entering:
            where = runs.get(vert)
            if where is None:
                runs[vert] = [idx, _OPEN]
            else:
                where += (idx, _OPEN)
        # only P.1 is recorded during the pass; the first bag with a
        # foreign vertex is the first one where such a vertex enters
        if not violations and not verts.issuperset(entering):
            who = _least([vert for vert in entering if vert not in verts])
            violations.append(("P.1", f"bag {idx + 1} contains {_name(who)} not in the graph"))

    missing = verts.difference(runs)
    if missing:
        violations.append(("P.2", f"vertex {_name(min(missing))} appears in no bag"))

    for i, x in d.sorted_edges():
        if not _runs_meet(runs.get(("u", i), []), runs.get(("v", x), [])):
            violations.append(("P.3", f"edge (u{i}, v{x}) has no common bag"))
            break

    scattered = [vert for vert, where in runs.items() if len(where) > 2]
    if scattered:
        violations.append(("P.4", f"bags containing {_name(_least(scattered))} are not consecutive"))

    return DecompositionReport(not violations, pd.width, tuple(violations))


def _sorted_labels(pd: PathDecomposition, encode: bool) -> Iterator[tuple[list[str], list[str]]]:
    """For each bag of pd in turn, its sorted list of "u<i>"/"v<x>" labels
    and, when ``encode`` is set, index for index the JSON text of each
    label (else an empty list); the same two lists, updated in place
    between bags.

    Each vertex is labelled once, and encoded once by ``json.dumps`` when
    ``encode`` is set, however many bags hold it.  At each transition the
    leaving labels are deleted at ``bisect_left`` and the entering ones
    inserted at ``bisect_right``, in both lists at the same index, so the
    lists stay sorted by the label, not by its quoted text.  Between
    consecutive bags of a sweep at most two vertices leave and two enter,
    so the cost is O(bag size) list shifting per bag rather than a sort.
    Two vertices may share a label, such as "u11" of ("u", 11) and
    ("u1", 1); their texts are equal too, so deleting either gives the
    same lists.  An entry that is not a (layer, index) pair, which the
    validator reports under P.1, is labelled with its repr, as in the
    validator's messages."""
    names: dict[Vertex, tuple[str, str]] = {}
    labels: list[str] = []
    texts: list[str] = []
    for leaving, entering in _transitions(pd):
        for vert in leaving:
            at = bisect_left(labels, names[vert][0])
            del labels[at]
            if encode:
                del texts[at]
        for vert in entering:
            name = names.get(vert)
            if name is None:
                label = _name(vert)
                name = names[vert] = (label, json.dumps(label) if encode else "")
            at = bisect_right(labels, name[0])
            labels.insert(at, name[0])
            if encode:
                texts.insert(at, name[1])
        yield labels, texts


def decomposition_to_json(pd: PathDecomposition) -> dict:
    """JSON form: bags as sorted lists of "u<i>"/"v<x>" labels, plus the
    width.

    Each bag is a copy of the one sorted list ``_sorted_labels`` keeps, so
    the cost is O(sum of bag sizes) list copying rather than a sort per
    bag.  Any bags give ``sorted``'s lists, a label shared by two
    vertices included; an entry that is not a (layer, index) pair is
    labelled with its repr."""
    return {"bags": [labels[:] for labels, _ in _sorted_labels(pd, encode=False)], "width": pd.width}


def _write_decomposition_json(pd: PathDecomposition, f: TextIO) -> None:
    """Write ``json.dumps(decomposition_to_json(pd), indent=2)`` to the text
    stream f, one bag at a time.

    Each bag's text is its labels' JSON texts from ``_sorted_labels``,
    joined between its brackets, so no label is encoded twice and no bag
    is kept after it is written: memory stays O(m + p + q) however long
    the output is."""
    f.write('{\n  "bags": [')
    sep, close = "\n    ", "]"
    for _, texts in _sorted_labels(pd, encode=True):
        f.write(sep + ("[\n      " + ",\n      ".join(texts) + "\n    ]" if texts else "[]"))
        sep, close = ",\n    ", "\n  ]"
    f.write(f'{close},\n  "width": {pd.width}\n}}')
