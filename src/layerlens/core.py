"""Two-layer drawing model and its crossing structure.

A drawing places ``p`` vertices on a top line and ``q`` on a bottom line
and joins them by y-monotone segments.  Whether two edges cross depends
only on how their endpoint indices interleave, so a drawing is purely
combinatorial data: two layer sizes and an edge set over index positions.

This module provides the crossing engine (per-edge counts and totals via
inversion counting), the k-planarity and h-quasiplanarity predicates, and
the decomposition of a drawing into bricks delimited by crossing-free
edges.
"""

from __future__ import annotations

import json
import reprlib
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Drawing",
    "CrossingProfile",
    "Brick",
    "BrickDecomposition",
    "edges_cross",
    "crossing_profile",
    "is_k_planar",
    "is_h_quasiplanar",
    "mutually_crossing_number",
    "brick_decomposition",
    "induced_subdrawing",
    "drawing_to_json",
    "drawing_from_json",
    "load_drawing",
    "save_drawing",
]


def _is_int(value: object) -> bool:
    """Integers only: True and False are bools, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


class _BoundedRepr(reprlib.Repr):
    """``reprlib.repr`` that shows an int of more than 128 bits, which may
    have more digits than the 40 it would show, by its size: converting a
    huge int to decimal takes time quadratic in its digits, and raises past
    ``sys.get_int_max_str_digits()``.  Smaller ints look as they do in
    ``reprlib.repr``."""

    def repr_int(self, x: int, level: int) -> str:
        if x.bit_length() > 128:
            return f"<{'negative ' if x < 0 else ''}{x.bit_length()}-bit int>"
        return super().repr_int(x, level)


_short = _BoundedRepr().repr


def _pairs_in_grid(edges: list[tuple] | frozenset, p: int, q: int) -> bool:
    """True when every edge is an exact tuple of two exact ints inside the
    p x q grid.  False says only that some edge needs the per-edge check:
    it may be bad, or hold a bool, an int subclass or a tuple subclass,
    which that check tells apart.  Exact type tests keep this loop to a
    few operations per edge."""
    for e in edges:
        if type(e) is not tuple or len(e) != 2:
            return False
        i, x = e
        if type(i) is not int or type(x) is not int or not (0 < i <= p and 0 < x <= q):
            return False
    return True


@dataclass(frozen=True)
class Drawing:
    """A two-layer drawing: top vertices u_1..u_p, bottom vertices
    v_1..v_q, and edges (i, x) joining u_i to v_x.

    Indices are 1-based everywhere, matching the figures this library
    reproduces.  Isolated vertices are allowed; duplicate edges are not.

    ``edges`` may be any iterable of pairs; it is stored as a frozenset.
    Construction first runs one pass of exact type and range tests over
    all edges (``_pairs_in_grid``).  Only when that pass does not accept
    them does a per-edge loop run: it accepts int subclasses other than
    bool and raises on the first bad edge in input order, shown by
    ``_short``, so the message stays short whatever the edge or layer
    size.  The lexicographic edge order is computed on the first call of
    :meth:`sorted_edges` and kept on the instance; it is not a field, so
    equality, hashing, ``repr`` and pickling ignore it.
    """

    p: int
    q: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (_is_int(p) and _is_int(q)):
            raise ValueError(f"layer sizes must be integers, got p={_short(p)}, q={_short(q)}")
        if p < 1 or q < 1:
            raise ValueError(f"layer sizes must be positive, got p={_short(p)}, q={_short(q)}")
        edges = self.edges
        if not isinstance(edges, frozenset):
            edges = list(map(tuple, edges))
        if not _pairs_in_grid(edges, p, q):
            for e in edges:
                if len(e) != 2 or not (_is_int(e[0]) and _is_int(e[1])):
                    raise ValueError(f"edge {_short(e)} is not a pair of integers")
                i, x = e
                if not (1 <= i <= p and 1 <= x <= q):
                    raise ValueError(f"edge {_short(e)} lies outside the {_short(p)}x{_short(q)} grid")
        if not isinstance(self.edges, frozenset):
            frozen = frozenset(edges)
            if len(frozen) != len(edges):
                raise ValueError("duplicate edges are not allowed")
            object.__setattr__(self, "edges", frozen)

    def __getstate__(self) -> dict:
        # the fields only, so the kept edge order never reaches a pickle
        return {"p": self.p, "q": self.q, "edges": self.edges}

    @property
    def n(self) -> int:
        """Total vertex count p + q."""
        return self.p + self.q

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        """Edges in lexicographic order (top index, then bottom index), as
        a new list.  The drawing sorts once and keeps the order."""
        try:
            order = self._order
        except AttributeError:
            order = tuple(sorted(self.edges))
            object.__setattr__(self, "_order", order)
        return list(order)

    def transpose(self) -> Drawing:
        """Swap the two layers."""
        return Drawing(self.q, self.p, frozenset((x, i) for i, x in self.edges))

    def rotate(self) -> Drawing:
        """Reverse both layer orders (180 degree rotation of the page).

        Rotation preserves all crossings; reversing a single layer does
        not.
        """
        return Drawing(
            self.p,
            self.q,
            frozenset((self.p + 1 - i, self.q + 1 - x) for i, x in self.edges),
        )


def edges_cross(e1: Edge, e2: Edge) -> bool:
    """True iff the two edges strictly interleave.

    Edges sharing an endpoint never cross (the segments meet at the common
    vertex), which is exactly the case where one factor below is zero.
    """
    return (e1[0] - e2[0]) * (e1[1] - e2[1]) < 0


@dataclass(frozen=True)
class CrossingProfile:
    """Per-edge crossing counts of a fixed drawing, ``per_edge`` keyed in
    (i, x) order.  ``total`` counts unordered crossing pairs, so the
    per-edge values sum to twice the total.
    """

    per_edge: dict[Edge, int]
    total: int
    max_per_edge: int


def crossing_profile(d: Drawing) -> CrossingProfile:
    """Count crossings per edge and in total in O(m log m), in one sweep.

    Crossing pairs are inversions: with edges sorted by (top, bottom), an
    edge crosses exactly the earlier edges with a strictly larger bottom
    index and the later edges with a strictly smaller one.  The rank of
    an edge is its bottom index, or, when q > 2m, the rank of that index
    among those used, so the counting tree's size is O(m) whatever q is
    and most drawings build no rank table.  Edge t of rank r makes one
    prefix query, s = number of earlier edges of rank <= r, and one
    insert; then

    * earlier larger = t - s.  The earlier edges on t's own top vertex all
      have smaller ranks, so they sit in s and never count as crossings;
    * later smaller = below[r] + at[r] - s, where below[r] counts all
      edges of rank < r and at[r] the earlier edges of rank exactly r: of
      the below[r] edges, s - at[r] come before t, and the later edges on
      t's top vertex have larger ranks.
    """
    edges = d.sorted_edges()
    m = len(edges)
    if m == 0:
        return CrossingProfile({}, 0, 0)

    ranks = [x for _, x in edges]
    size = d.q
    if size > 2 * m:
        used = sorted(set(ranks))
        size = len(used)
        rank = dict(zip(used, range(1, size + 1)))
        ranks = [rank[x] for x in ranks]
    # base[r] = below[r] + at[r]: starts as the edges of rank < r and grows
    # by one as each edge of rank r is passed
    base = [0] * (size + 2)
    for r in ranks:
        base[r + 1] += 1
    base = list(accumulate(base))
    tree = [0] * (size + 1)
    counts = [0] * m
    total = 0
    for t, r in enumerate(ranks):
        s = 0
        i = r
        while i:
            s += tree[i]
            i &= i - 1
        total += t - s
        counts[t] = t + base[r] - 2 * s
        base[r] += 1
        i = r
        while i <= size:
            tree[i] += 1
            i += i & -i

    return CrossingProfile(dict(zip(edges, counts)), total, max(counts))


def is_k_planar(d: Drawing, k: int) -> bool:
    """True iff every edge of the drawing is crossed at most k times.

    Raises ValueError unless k is a non-negative int, as ``KPlanar`` does:
    a bool, a float or None is not a k."""
    if not _is_int(k) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if d.m == 0:
        return True
    return crossing_profile(d).max_per_edge <= k


def mutually_crossing_number(d: Drawing) -> int:
    """Size of the largest set of pairwise crossing edges.

    A pairwise crossing set has all top indices distinct and all bottom
    indices distinct, and sorted by top index its bottom indices strictly
    decrease.  With edges sorted by (i, x) this reduces to a longest
    strictly decreasing subsequence on the bottom indices; ties in i are
    sorted by ascending x, so no two edges of the same top vertex can be
    picked together.
    """
    xs = [x for _, x in d.sorted_edges()]
    tails: list[int] = []
    for x in xs:
        v = -x
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    return len(tails)


def is_h_quasiplanar(d: Drawing, h: int) -> bool:
    """True iff no h edges of the drawing pairwise cross.

    Raises ValueError unless h is an int of at least 2, as
    ``Quasiplanar`` does: a bool, a float or None is not an h."""
    if not _is_int(h) or h < 2:
        raise ValueError(f"h must be an integer of at least 2, got {h!r}")
    return mutually_crossing_number(d) < h


def induced_subdrawing(d: Drawing, i_lo: int, i_hi: int, x_lo: int, x_hi: int) -> Drawing:
    """Sub-drawing induced by u_{i_lo}..u_{i_hi} and v_{x_lo}..v_{x_hi},
    reindexed so the window starts at 1."""
    if not (1 <= i_lo <= i_hi <= d.p and 1 <= x_lo <= x_hi <= d.q):
        raise ValueError("window out of range")
    edges = frozenset(
        (i - i_lo + 1, x - x_lo + 1)
        for i, x in d.edges
        if i_lo <= i <= i_hi and x_lo <= x <= x_hi
    )
    return Drawing(i_hi - i_lo + 1, x_hi - x_lo + 1, edges)


@dataclass(frozen=True)
class Brick:
    """Index window [i_lo, i_hi | x_lo, x_hi] between two crossing-free
    edges, together with its induced sub-drawing (reindexed to 1)."""

    i_lo: int
    i_hi: int
    x_lo: int
    x_hi: int
    drawing: Drawing


@dataclass(frozen=True)
class BrickDecomposition:
    """Crossing-free edges in lexicographic order and the bricks between
    consecutive ones.  Fewer than two crossing-free edges means no brick."""

    planar_edges: tuple[Edge, ...]
    bricks: tuple[Brick, ...]


def brick_decomposition(d: Drawing) -> BrickDecomposition:
    """Split a drawing into bricks at its crossing-free (planar) edges.

    Planar edges pairwise do not cross, so sorted lexicographically their
    windows nest left to right and every consecutive pair delimits one
    maximal brick.  Consecutive bricks share exactly their common boundary
    edge.  Planar edges sharing a vertex produce degenerate (trivial)
    bricks, which are reported as-is.

    The edges of a brick are exactly the run of sorted edges from one
    planar edge to the next, both included: a run edge outside the window
    would cross one of the two planar edges, and every window edge lies
    between them in (i, x) order.  So one sweep over the sorted edges
    builds every brick's drawing, in O(m log m) in all.
    """
    prof = crossing_profile(d)
    order = list(prof.per_edge)
    cuts = [pos for pos, c in enumerate(prof.per_edge.values()) if c == 0]
    bricks = []
    for a, b in zip(cuts, cuts[1:]):
        (i1, x1), (i2, x2) = order[a], order[b]
        edges = frozenset((i - i1 + 1, x - x1 + 1) for i, x in order[a : b + 1])
        bricks.append(Brick(i1, i2, x1, x2, Drawing(i2 - i1 + 1, x2 - x1 + 1, edges)))
    return BrickDecomposition(tuple(order[pos] for pos in cuts), tuple(bricks))


# ---------------------------------------------------------------------------
# JSON interchange: {"p": int, "q": int, "edges": [[i, x], ...]}, 1-based
# ---------------------------------------------------------------------------


def drawing_to_json(d: Drawing) -> dict:
    """Dict form of a drawing with edges in lexicographic order."""
    return {"p": d.p, "q": d.q, "edges": [list(e) for e in d.sorted_edges()]}


def _check_pairs(edges: list) -> None:
    """Raise on the first edge that is not a list or tuple of length 2,
    shown by ``_short``."""
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"edge {_short(e)} is not an [i, x] pair")


def drawing_from_json(data: dict) -> Drawing:
    """Parse the dict form; raises ValueError on malformed input, including
    JSON booleans where integers belong."""
    if not isinstance(data, dict):
        raise ValueError("drawing JSON must be an object")
    for key in ("p", "q", "edges"):
        if key not in data:
            raise ValueError(f"drawing JSON is missing {key!r}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of [i, x] pairs")
    _check_pairs(edges)  # first: Drawing would take a two-key dict or a set as a pair
    return Drawing(data["p"], data["q"], edges)


def _read_json(path: str) -> object:
    """The JSON value in the file at ``path``.  Every error of ``json.load``
    becomes a ValueError whose one-line message starts with the path."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValueError(f"{path}: not valid JSON (nested too deeply)") from exc
        except ValueError as exc:  # the only other one: an int too long to convert
            raise ValueError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc


def load_drawing(path: str) -> Drawing:
    return drawing_from_json(_read_json(path))


def save_drawing(d: Drawing, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(drawing_to_json(d), f, indent=2)
        f.write("\n")
