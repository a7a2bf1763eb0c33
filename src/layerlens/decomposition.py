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
So the bag of e is exactly {u_s, v_t} plus the active vertices, and one
sweep that opens each vertex after its first position and closes it at
its last builds all bags in O(m log m + sum of bag sizes), without
testing edge pairs.  The largest bag is known from the sizes of the
active sets alone, so ``path_width`` gives the width in O(m log m) time
and O(m) memory without building a bag.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

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


def _sweep(order: list[Edge], tags: dict[int, Vertex]) -> Iterator[tuple[int, int, dict[int, Vertex]]]:
    """Yield (s, t, active) for each edge (s, t) of the order, where
    ``active`` maps each bottom vertex active at that position to its tag
    ``tags[y]``.  The mapping is updated in place, so read it before
    advancing."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, (_, y) in enumerate(order, 1):
        first.setdefault(y, pos)
        last[y] = pos
    active: dict[int, Vertex] = {}
    for pos, (s, t) in enumerate(order, 1):
        if last[t] == pos:
            active.pop(t, None)
        yield s, t, active
        if first[t] == pos < last[t]:
            active[t] = tags[t]


def _tags(layer: str, order: list[Edge]) -> dict[int, Vertex]:
    """One shared (layer, idx) tuple per vertex at the second end of an
    edge of the order, keyed by idx; vertices without edges get none."""
    return {idx: (layer, idx) for _, idx in order}


def related_vertices(d: Drawing, pos: int) -> set[int]:
    """Bottom vertices related to the pos-th edge (1-based) in the order.

    v_y is related when it is incident to an edge crossing the pos-th edge
    and its incidence interval strictly contains pos; these are exactly
    the vertices active at pos other than the edge's own bottom end.
    """
    order = edge_order(d)
    if not 1 <= pos <= len(order):
        raise ValueError(f"position {pos} out of range 1..{len(order)}")
    _, t, active = next(islice(_sweep(order, _tags("v", order)), pos - 1, None))
    return active.keys() - {t}


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered list of bags; each vertex is tagged with its layer.

    ``orientation`` records which layer played the role of the primary
    (edge-ordering) layer when the decomposition was built: "top" for the
    given drawing, "bottom" for its transpose.
    """

    bags: tuple[frozenset[Vertex], ...]
    orientation: str = "top"

    @property
    def width(self) -> int:
        """Largest bag size minus one; -1 for an empty decomposition."""
        return max((len(b) for b in self.bags), default=0) - 1


def _largest_bag(order: list[Edge], tags: dict[int, Vertex]) -> int:
    return max(len(active) + 2 - (t in active) for _, t, active in _sweep(order, tags))


def _orientations(d: Drawing) -> tuple[list[Edge], list[Edge], dict[int, Vertex], dict[int, Vertex]]:
    """The edge orders of the top and the bottom orientation, and the tags
    of the vertices with edges on the top and on the bottom layer."""
    top = edge_order(d)
    bottom = sorted((x, i) for i, x in d.edges)
    return top, bottom, _tags("u", bottom), _tags("v", top)


def path_width(d: Drawing) -> int:
    """``build_path_decomposition(d).width`` without building a bag.

    Both orientations are swept and the smaller largest bag is kept, as
    the builder does; isolated vertices only add singleton bags, which
    never decide the width unless there is no edge, and then it is 0.  Time
    O(m log m) and memory O(m), whatever the layer sizes.
    """
    if d.m == 0:
        return 0
    top, bottom, u, v = _orientations(d)
    return min(_largest_bag(top, v), _largest_bag(bottom, u)) - 1


def build_path_decomposition(d: Drawing) -> PathDecomposition:
    """One bag per edge in lexicographic order; width at most k + 1 when
    every edge has at most k crossings.

    The construction is asymmetric, so both layer orientations are swept
    and the narrower one is built (ties go to the top layer); a bag's size
    is known from the active set alone, so only the chosen orientation's
    bags are materialized.  The cost is O(m log m + sum of bag sizes).
    Isolated vertices get singleton bags at the end so that every vertex
    is covered; an edgeless drawing has only those, and width 0.
    """
    top, bottom, u, v = _orientations(d)
    if d.m and _largest_bag(bottom, u) < _largest_bag(top, v):
        order, primary, secondary, orientation = bottom, v, u, "bottom"
    else:
        order, primary, secondary, orientation = top, u, v, "top"
    bags = [frozenset((primary[s], secondary[t], *active.values())) for s, t, active in _sweep(order, secondary)]
    bags += [frozenset({("u", i)}) for i in range(1, d.p + 1) if i not in u]
    bags += [frozenset({("v", x)}) for x in range(1, d.q + 1) if x not in v]
    return PathDecomposition(tuple(bags), orientation)


@dataclass(frozen=True)
class DecompositionReport:
    """Validation outcome: the width, and one entry per violated property
    with a concrete witness."""

    valid: bool
    width: int
    violations: tuple[tuple[str, str], ...]


def _runs_meet(a: list[list[int]], b: list[list[int]]) -> bool:
    """True iff two sorted lists of disjoint [start, end] runs overlap."""
    i = j = 0
    while i < len(a) and j < len(b):
        (s1, e1), (s2, e2) = a[i], b[j]
        if s1 <= e2 and s2 <= e1:
            return True
        if e1 < e2:
            i += 1
        else:
            j += 1
    return False


def validate_decomposition(d: Drawing, pd: PathDecomposition) -> DecompositionReport:
    """Check the four bag properties of a path decomposition against d.

    P.1 bags contain only vertices of d; P.2 every vertex appears in some
    bag; P.3 every edge has both endpoints in a common bag; P.4 the bags
    containing a vertex are consecutive.  Violations are reported, not
    raised, each with the first witness: the first offending bag for P.1,
    and the smallest vertex or edge otherwise.

    One pass over the bags records, per vertex, the maximal runs of
    consecutive bags holding it, from the vertices that enter and leave
    between neighbouring bags.  P.1 is decided as vertices enter; P.2 to
    P.4 are read off the record.
    """
    verts = {("u", i) for i in range(1, d.p + 1)} | {("v", x) for x in range(1, d.q + 1)}
    violations: list[tuple[str, str]] = []

    runs: dict[Vertex, list[list[int]]] = {}
    prev: frozenset[Vertex] = frozenset()
    for idx, bag in enumerate(pd.bags):
        entering = bag - prev
        for vert in prev - bag:
            runs[vert][-1][1] = idx - 1
        for vert in entering:
            runs.setdefault(vert, []).append([idx, idx])
        # only P.1 is recorded during the pass; the first bag with a
        # foreign vertex is the first one where such a vertex enters
        if not violations and not verts.issuperset(entering):
            who = min(entering - verts)
            violations.append(("P.1", f"bag {idx + 1} contains {who[0]}{who[1]} not in the graph"))
        prev = bag
    for vert in prev:
        runs[vert][-1][1] = len(pd.bags) - 1

    missing = verts.difference(runs)
    if missing:
        who = min(missing)
        violations.append(("P.2", f"vertex {who[0]}{who[1]} appears in no bag"))

    for i, x in d.sorted_edges():
        if not _runs_meet(runs.get(("u", i), []), runs.get(("v", x), [])):
            violations.append(("P.3", f"edge (u{i}, v{x}) has no common bag"))
            break

    scattered = [vert for vert, where in runs.items() if len(where) > 1]
    if scattered:
        who = min(scattered)
        violations.append(("P.4", f"bags containing {who[0]}{who[1]} are not consecutive"))

    return DecompositionReport(not violations, pd.width, tuple(violations))


def decomposition_to_json(pd: PathDecomposition) -> dict:
    """JSON form: bags as sorted lists of "u<i>"/"v<x>" labels, plus the
    width.

    Each vertex is labelled once, however many bags hold it.  One sorted
    list of the current bag's labels is kept: between neighbouring bags
    the leaving labels are deleted and the entering ones inserted by
    bisection, and each bag is a copy of the list.  Between consecutive
    bags of a sweep at most two vertices leave and two enter, so the cost
    is O(sum of bag sizes) list copying rather than a sort per bag.  Any
    bags give ``sorted``'s lists, a label shared by two vertices, such as
    "u11" of ("u", 11) and ("u1", 1), included."""
    labels = {vert: f"{vert[0]}{vert[1]}" for vert in frozenset().union(*pd.bags)}
    bags = []
    current: list[str] = []
    prev: frozenset[Vertex] = frozenset()
    for bag in pd.bags:
        for vert in prev - bag:
            del current[bisect_left(current, labels[vert])]
        for vert in bag - prev:
            insort(current, labels[vert])
        bags.append(current[:])
        prev = bag
    return {"bags": bags, "width": pd.width}
