"""Exact extremal search over two-layer drawings on small vertex counts.

``max_density`` answers: across every split p + q = n and every edge
subset of the p x q grid, how many edges can a drawing have under a
k-planarity or h-quasiplanarity cap?  It answers quasiplanarity with a
closed form and k-planarity with a depth-first branch and bound over
grid cells in lexicographic (row, column) order:

* the closed form (Greene, Adv. Math. 1974; Greene and Kleitman, JCTA
  1976): the most edges with no h pairwise crossing is
  (h - 1)(n - h + 1) when 2(h - 1) <= n and floor(n/2) * ceil(n/2)
  otherwise, on the complete grid with p = min(h - 1, floor(n/2)) rows.  The cells of one anti-diagonal
  pairwise cross, so each of the p + q - 1 holds at most h - 1 chosen
  cells, (h - 1)(p + q - h + 1) in all for h - 1 <= p <= q; edges sharing
  an endpoint do not cross, so the complete grid with h - 1 rows attains
  it,
* symmetry reduction: only splits with p <= q (layer swap), plus a
  partial canonicalization under 180 degree rotation of the grid,
* an admissible bound: the current edge count plus the smaller of a
  residual-budget count of the future cells that are still addable and
  the exact optimum of the future cells taken on their own.  The first
  is the number of addable cells, less, for the rightmost chosen cell e
  of each row, how far the addable cells crossing e outnumber the k - c_e
  crossings e has left, c_e chosen cells crossing it already: a
  completion adds at most k - c_e of them.  Each chosen cell gives such
  a bound, so the least over any set of them is one too.  The second is a
  Russian-doll bound (Verfaillie, Lemaitre and Schiex, AAAI 1996): the
  constraint is hereditary, so whatever a completion adds is itself an
  allowed drawing on those cells, and the suffix optima are found last
  cell first, each one more than the next or equal to it: one more when
  the next one's optimal drawing extends by the new cell, otherwise
  decided by the same DFS from the next one as its incumbent, stopped at
  the first drawing one above it,
* a floor for every split's search: the suffix optima of every split are
  found first, and each leaves an optimal drawing of the rows 2..p, grown
  greedily over the first row into an allowed drawing of the whole grid;
  the main DFS of every split starts from one below the largest of their
  edge counts, which is at most the optimum, so the first optimal leaf is
  still recorded and the witness does not change.  Over n = 2..14 and
  k = 0..10 this cuts the nodes from 366,141 to 296,671, and at n = 14,
  k = 5 from 24,863 to 22,025,
* per-split statistics: ``SearchStats.splits`` holds the nodes of every
  split, the part of them spent on the suffix optima, the number of
  suffixes that needed a search and the floor,
* one k-planar DFS kernel whose state is two integers: a blocked-cell
  bitmask marking the cells that can no longer be added, so the addable
  count is one popcount, and bit-sliced masks, "crossed by at least j
  chosen cells", packed into one integer, plane j at bits jN..(j+1)N-1 for
  N cells, so one shift, AND and OR, written out in the kernel, advance
  every crossing counter at once; the residual budget, a yes/no test
  against what the node needs, takes two popcounts per row holding a
  chosen cell, until one rules it out, and a suffix drawing is extended by
  checking the cells the new one crosses.  A node is counted when its
  parent creates it, whether or not it is pruned; the parent bound-checks
  each child before entering it, and the exclude child continues in its
  parent's frame.  The tests keep a DFS that takes an include step as a
  function, the reference route for the kernel and for the closed form.

``minimax_k`` minimizes the maximum per-edge crossing count of a
drawing over all re-orderings of both of its layers, so the order the
drawing is given in does not matter.  It scans the orders of the smaller
layer and, for each, places the other layer left to right in a
depth-first branch and bound: a placed vertex's edges have final
crossing counts, and two arrays over the top positions keep the counts
of the unplaced edges, so a placement costs O(p) and a branch is cut as
soon as a final or partial count reaches the incumbent.  Both layers are
ordered only up to twins, vertices of one layer with the same
neighbours: swapping two twins maps a drawing to one with the same
multiset of per-edge crossing counts, so fixing their relative order
loses no optimum; each layer of K_{5,5} is one twin class, and it takes
5 nodes.  It is still exponential and holds for ten vertices with edges
at most.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import permutations, product

from .core import Drawing, Edge, _is_int

__all__ = [
    "KPlanar",
    "Quasiplanar",
    "Constraint",
    "SearchStats",
    "SplitStats",
    "SearchResult",
    "complete_bipartite",
    "max_density",
    "minimax_k",
    "random_drawing",
    "MAX_DENSITY_N",
    "MINIMAX_MAX_VERTICES",
]

MAX_DENSITY_N = 14
MINIMAX_MAX_VERTICES = 10


@dataclass(frozen=True)
class KPlanar:
    """Constraint: every edge crossed at most k times."""

    k: int

    def __post_init__(self) -> None:
        if not _is_int(self.k) or self.k < 0:
            raise ValueError(f"k must be a non-negative integer, got {self.k!r}")

    @property
    def label(self) -> str:
        return f"k-planar(k={self.k})"


@dataclass(frozen=True)
class Quasiplanar:
    """Constraint: no h pairwise crossing edges."""

    h: int

    def __post_init__(self) -> None:
        if not _is_int(self.h) or self.h < 2:
            raise ValueError(f"h must be an integer of at least 2, got {self.h!r}")

    @property
    def label(self) -> str:
        return f"quasiplanar(h={self.h})"


Constraint = KPlanar | Quasiplanar


@dataclass(frozen=True)
class SplitStats:
    """Work done on one split p + q = n: ``nodes`` counts every DFS node,
    of which ``bound_nodes`` went into the suffix solves of the bound, and
    ``solves`` counts the suffix positions that ran a DFS.  ``floor`` is
    the edge count of the k-planar drawing the suffix solves leave, grown
    over the first row; ``max_density`` starts every main DFS one below
    the largest floor of the splits."""

    p: int
    q: int
    nodes: int
    bound_nodes: int
    solves: int = 0
    floor: int = 0


@dataclass(frozen=True)
class SearchStats:
    """``nodes`` is the total over ``splits``, one record per split
    searched, in increasing p."""

    nodes: int
    millis: float
    splits: tuple[SplitStats, ...] = ()


@dataclass(frozen=True)
class SearchResult:
    best_m: int
    witness: Drawing
    stats: SearchStats


# ---------------------------------------------------------------------------
# Branch and bound per split
# ---------------------------------------------------------------------------


def _grid_cells(p: int, q: int) -> list[Edge]:
    """Every cell of the p x q grid in lexicographic order."""
    return list(product(range(1, p + 1), range(1, q + 1)))


def _cross_masks(p: int, q: int) -> list[int]:
    """The cells each cell (r, c) of the p x q grid crosses, in cell order:
    those right of column c in the rows above r and left of it below, each
    row mask copied onto those rows by one product."""
    h = [sum(1 << t * q for t in range(r)) for r in range(p + 1)]  # h[r]: the first cell of each row above r
    return [((1 << q) - (2 << c)) * h[r] | ((1 << c) - 1) * (h[p] ^ h[r + 1]) for r in range(p) for c in range(q)]


class _SuffixSolved(Exception):
    """Raised by a suffix solve at its first leaf one above the incumbent,
    the most one more cell can add."""


def _prepare_split(p: int, q: int, k: int) -> tuple[int, Callable[[int], tuple[int, list[Edge] | None, SplitStats, list[int]]]]:
    """The suffix solves of the p x q split under a cap of k crossings per
    edge, done at once, and the main DFS, left to run later: returns
    (``floor``, ``search``).  ``floor`` is the mask of a k-planar drawing
    of the grid, bit t for the cell t in lexicographic order, and
    ``search(start_best)`` runs the main DFS from the incumbent
    ``start_best``: it returns the best edge count found strictly above
    ``start_best``, the cells of that drawing (None if none is above),
    the split's ``SplitStats`` and the bound table ``cap``.

    The DFS decides cells in lexicographic order, include branch first.
    Cells that cross nothing are always included: adding them changes no
    crossing, so it never violates the constraint, and it never hurts the
    objective.  A node is counted when its parent creates it, whether or
    not its bound then prunes it; the root counts itself.

    The state of a node is two integers.  ``blocked`` marks the cells that
    can no longer be added.  With N cells, bits jN..(j+1)N-1 of ``packed``
    mark the cells crossed by at least j chosen cells (j = 0..k+1, plane 0
    is every cell).  Including a cell moves every plane up one into the
    cells it crosses, in one shift, AND and OR over all planes at once (the
    bit-parallel counters of shift-and matching, Baeza-Yates and Gonnet,
    CACM 1992).  A later cell is blocked once it is crossed k+1 times or
    crosses a chosen cell that has k crossings.  The include step is
    written out in the kernel, the parent bound-checks each child before
    entering it, and the exclude child continues in its parent's frame.

    The bound at cell ``pos`` is ``m + min(cap[pos], room)``.  ``room``
    bounds what a completion adds from ``free``, the later cells outside
    ``blocked``.  With ``a_e`` cells of ``free`` crossing a chosen cell e
    and ``c_e`` chosen cells crossing it, e takes at most k - c_e more
    crossings, so a completion adds at most
    ``len(free) - a_e + min(a_e, k - c_e)`` cells (the residual budget).
    That holds for every chosen cell, so the least over any of them is
    admissible; ``room`` tests the least of ``len(free)`` and the bounds of
    each row's rightmost chosen cell, crossed by every later cell that
    crosses a chosen cell left of it, against a need (``best - m`` to
    include, one more to exclude), row by row from the highest, until one
    rules it out.  ``cap[pos]`` is the most cells of ``pos..N-1`` that are
    k-planar on their own (a Russian-doll bound).  The constraint is
    hereditary, so the later cells of any completion form an allowed drawing
    by themselves and number at most ``cap[pos]``.  One loop, last cell
    first, settles ``cap`` and ``wit``, the mask of a k-planar drawing of
    the suffix ``pos + 1..N-1``.  One more cell adds at most one edge, so
    ``cap[pos]`` starts at ``cap[pos + 1] + 1``.  If ``wit`` and ``pos``
    are k-planar together (``extends`` checks the cells ``pos`` crosses),
    ``pos`` joins ``wit`` with no search; a cell of the first column
    crosses no later cell, so it always joins.  Otherwise, from the second
    row on, this same DFS solves the suffix alone through ``root``, without
    rotation canonicalization, from the incumbent ``cap[pos + 1]``, and
    stops at the first leaf one above it, whose cells become ``wit``;
    ``solves`` counts these searches.  So from the second row on ``cap`` is
    exact and ``wit`` optimal.  The first row is not solved, because exact
    solves there cost more nodes than they save: its ``cap`` is
    ``cap[q] + (q - pos)`` and ``wit`` grows over it greedily, into the
    floor.  An admissible bound never prunes the first optimal leaf in DFS
    order, so the result does not depend on it.

    The floor has at least ``cap[q] + 1`` cells, as cell (1, 1) crosses
    nothing, and at most the split's optimum.  The suffix solves do not
    depend on the incumbent, so ``cap``, ``bound_nodes`` and ``solves`` are
    the same whatever ``search`` is given, and ``search`` can be called
    again: each call counts its nodes from ``bound_nodes``.  From any
    incumbent below the split's optimum it returns the same cells: each
    node on the path to the first optimal leaf has a bound of at least the
    optimum, above the incumbent until that leaf is recorded.

    Rotation canonicalization: the 180 degree rotation maps cell t to cell
    N-1-t and preserves crossings, hence the constraint, so each drawing and
    its rotation are interchangeable.  Scanning mirror pairs from the
    innermost outward (the order in which the DFS completes them), the first
    unequal pair may only have the later cell included, which halves the
    symmetric part of the tree.
    """
    n_cells = p * q
    cross = _cross_masks(p, q)
    ones = (1 << n_cells) - 1
    future = [ones >> pos << pos for pos in range(n_cells + 1)]
    # cross[pos] copied into planes 1..k+1; the shift's plane k+2 drops off
    rep = sum(1 << j * n_cells for j in range(1, k + 2))
    cross_rep = [cm * rep for cm in cross]
    kn = k * n_cells
    top = kn + n_cells
    above = [(1 << t // q * q) - 1 for t in range(n_cells)]  # the cells of the rows above t's row
    nodes = 0
    best_chosen: int | None = None
    cap = [0] * (n_cells + 1)

    def room(chosen: int, free: int, need: int) -> bool:
        """Whether the residual budget lets a completion of ``chosen`` add
        ``need`` cells of ``free``; at k = 0 a chosen cell blocks every cell
        crossing it, so no row lowers the addable count."""
        slack = free.bit_count() - need
        if slack < 0:
            return False
        rest = chosen if k else 0
        while rest:
            e = rest.bit_length() - 1
            cm = cross[e]
            if (free & cm).bit_count() + (chosen & cm).bit_count() - k > slack:
                return False
            rest &= above[e]
        return True

    def dfs(pos: int, m: int, chosen: int, blocked: int, packed: int, eq: bool) -> None:
        """The subtree of a node already counted and bound-checked; the
        loop walks its chain of exclude children."""
        nonlocal nodes, best, best_chosen
        while pos < n_cells:
            mirror = n_cells - 1 - pos
            eq_inc = eq
            force_include = False
            if eq and mirror < pos:
                if chosen >> mirror & 1:
                    force_include = True
                else:
                    eq_inc = False

            if not blocked >> pos & 1:
                # the include child, tested by room alone: room can prune
                # it, but the cap test m + 1 + cap[pos + 1] > best cannot,
                # as this node passed m + cap[pos] > best with no leaf found
                # since, and cap[pos] <= cap[pos + 1] + 1
                nodes += 1
                grown = packed | ((packed << n_cells) & cross_rep[pos])
                # chosen cells that have just reached k crossings; pos needs
                # no such step, as crossing is transitive along cell order:
                # a later cell crossing pos crosses the cells pos crosses,
                # so it is blocked by plane k + 1 once pos has k crossings
                full = (grown ^ packed) >> kn & chosen
                grown_blocked = blocked | grown >> top
                while full:
                    low = full & -full
                    grown_blocked |= cross[low.bit_length() - 1]
                    full ^= low
                if room(chosen | 1 << pos, future[pos + 1] & ~grown_blocked, best - m):
                    dfs(pos + 1, m + 1, chosen | 1 << pos, grown_blocked, grown, eq_inc)
            if force_include or not cross[pos]:
                return
            nodes += 1
            pos += 1
            if m + cap[pos] <= best or not room(chosen, future[pos] & ~blocked, best - m + 1):
                return
        best = m
        best_chosen = chosen
        if m == limit:
            raise _SuffixSolved

    def root(pos: int, eq: bool) -> None:
        """The one entry into the DFS, for a suffix solve and the main
        search alike; ``cap[pos] <= N - pos``, so it needs no other test."""
        nonlocal nodes
        nodes += 1
        if cap[pos] > best:
            dfs(pos, 0, 0, 0, ones, eq)

    def extends(wit: int, pos: int) -> bool:
        """Whether ``wit | 1 << pos`` is k-planar, ``wit`` being k-planar and
        after pos: pos crosses at most k cells of it, each crossing under k."""
        rest = cross[pos] & wit
        if rest.bit_count() > k:
            return False
        while rest:
            low = rest & -rest
            if (cross[low.bit_length() - 1] & wit).bit_count() >= k:
                return False
            rest ^= low
        return True

    wit = 0  # a k-planar drawing of the suffix pos + 1..N-1, optimal below the first row
    solves = 0
    for pos in range(n_cells - 1, -1, -1):
        cap[pos] = limit = cap[pos + 1] + 1  # the most it can be; bounds the root of a solve
        if extends(wit, pos):
            wit |= 1 << pos
        elif pos >= q:
            solves += 1
            best = limit - 1
            try:
                root(pos, False)
            except _SuffixSolved:
                wit = best_chosen
            cap[pos] = best
    bound_nodes = nodes

    def search(start_best: int) -> tuple[int, list[Edge] | None, SplitStats, list[int]]:
        nonlocal nodes, best, best_chosen, limit
        nodes = bound_nodes
        best = start_best
        best_chosen = None
        limit = n_cells + 1  # out of reach: the main DFS runs to the end
        root(0, True)
        cells = None if best_chosen is None else [(t // q + 1, t % q + 1) for t in range(n_cells) if best_chosen >> t & 1]
        return best, cells, SplitStats(p, q, nodes, bound_nodes, solves, wit.bit_count()), cap

    return wit, search


def _quasiplanar_optimum(n: int, h: int) -> tuple[int, int]:
    """The split (p, q), p <= q, whose complete grid is the densest n-vertex
    drawing with no h pairwise crossing edges (see the module docstring)."""
    p = min(h - 1, n // 2)
    return p, n - p


def _check_density_size(n: int) -> None:
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not 2 <= n <= MAX_DENSITY_N:
        raise ValueError(f"n must be between 2 and {MAX_DENSITY_N} (practical search range)")


def max_density(n: int, constraint: Constraint, threads: int = 1) -> SearchResult:
    """Exact maximum edge count of an n-vertex two-layer drawing under the
    given constraint, with a witness drawing attaining it.

    A quasiplanar constraint is answered in closed form by the complete
    grid of ``_quasiplanar_optimum``, with ``nodes == 0`` and no
    ``splits``.  A k-planar one runs in two phases over the splits with
    p <= q, each on its p x q grid, one row per top vertex.  First it runs
    every split's suffix solves (``_prepare_split``), which leave a
    k-planar drawing of each split; the largest floor L, the most edges of
    those drawings, is at most the optimum OPT.  Then it runs the main DFS of the splits in increasing p, carrying the
    running best across splits as the incumbent, from L - 1 on.  The
    witness is the first optimal leaf in DFS order of the smallest p
    attaining the optimum, as it is from an incumbent of 0: an admissible
    bound never prunes a leaf above the incumbent, and the incumbent stays
    at or below OPT - 1 until the first optimal leaf is recorded, so that
    leaf is recorded.  The suffix solves do not depend on the incumbent, so
    the starting floor changes only the main DFS's nodes.  ``threads``
    must be a positive integer and has no effect: it is kept so that
    existing callers run unchanged.
    """
    _check_density_size(n)
    if not _is_int(threads) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    if not isinstance(constraint, (KPlanar, Quasiplanar)):
        raise TypeError(f"constraint must be KPlanar or Quasiplanar, got {constraint!r}")

    t0 = time.perf_counter()
    if isinstance(constraint, Quasiplanar):
        p, q = _quasiplanar_optimum(n, constraint.h)
        return SearchResult(p * q, complete_bipartite(p, q), SearchStats(0, (time.perf_counter() - t0) * 1000.0))
    # no cell crosses more than (p - 1)(q - 1) others, so a larger k allows
    # the same drawings; clamped, the state no longer grows with k
    prepared = [_prepare_split(p, n - p, min(constraint.k, (p - 1) * (n - p - 1))) for p in range(1, n // 2 + 1)]
    split_stats: list[SplitStats] = []
    best = max(floor.bit_count() for floor, _ in prepared) - 1
    best_p = 0
    best_cells: list[Edge] | None = None
    for p, (_, search_from) in enumerate(prepared, 1):
        got, cells, stats, _ = search_from(best)
        split_stats.append(stats)
        if got > best:
            best, best_p, best_cells = got, p, cells

    assert best_cells is not None
    witness = Drawing(best_p, n - best_p, frozenset(best_cells))
    millis = (time.perf_counter() - t0) * 1000.0
    total_nodes = sum(s.nodes for s in split_stats)
    return SearchResult(best, witness, SearchStats(total_nodes, millis, tuple(split_stats)))


# ---------------------------------------------------------------------------
# Minimax per-edge crossings over all orderings
# ---------------------------------------------------------------------------


def complete_bipartite(a: int, b: int) -> Drawing:
    """K_{a,b}, drawn with both layers in index order."""
    return Drawing(a, b, frozenset(_grid_cells(a, b)))


def _check_minimax_size(p: int, q: int) -> None:
    if p + q > MINIMAX_MAX_VERTICES:
        raise ValueError(f"minimax search is factorial; at most {MINIMAX_MAX_VERTICES} vertices supported")


def minimax_k(d: Drawing) -> int:
    """Minimum over all re-orderings of both layers of ``d`` of the maximum
    per-edge crossing count; the order ``d`` is drawn in does not matter.

    Isolated vertices cross nothing and are dropped, before the limit of
    ``MINIMAX_MAX_VERTICES`` is applied to the vertices that have edges,
    and the layers are swapped if that makes the top one the smaller:
    swapping maps crossings to crossings.

    Twins, vertices of one layer with the same neighbours, are
    interchangeable: swapping two of them maps a drawing to one with the
    same multiset of per-edge crossing counts, so some optimum has every
    set of twins in index order, and only such orders are searched.  The
    top vertices are labelled by twin class, each bottom vertex's
    neighbours are a union of classes, and the outer loop scans the
    distinct arrangements of the labels, one of each (arrangement,
    reversed arrangement) pair, since the 180 degree rotation reverses both
    layers and preserves the objective.  For each top order a depth-first
    branch and bound places the bottom vertices left to right, a bottom
    vertex only once its earlier twins are placed.  Every
    bottom vertex placed after v sits to its right, so once v is placed the
    crossings of its edges are final: (u, v) crosses an edge (u', w) placed
    earlier when u' is right of u, and one placed later when u' is left of
    u.  Two arrays indexed by top position carry the state: ``rem[i]``
    counts the unplaced edges at position i, and ``acc[i]`` the crossings
    each of them already has with placed edges.  Counts only grow, so a
    branch is cut, exactly, as soon as a final count, or an ``acc[i]`` with
    ``rem[i] > 0``, reaches the best maximum found so far.  Placing a
    vertex costs O(p).
    """
    return _minimax(d)[0]


def _minimax(d: Drawing) -> tuple[int, int]:
    """``minimax_k(d)`` and the number of nodes of its search, one per
    call of ``place``, summed over the top orders scanned."""
    tops = sorted({u for u, _ in d.edges})
    bottoms = {v for _, v in d.edges}
    _check_minimax_size(len(tops), len(bottoms))
    if len(tops) > len(bottoms):
        d = d.transpose()
        tops = sorted(bottoms)
    p = len(tops)
    if p < 2:
        return 0, 0  # a star draws without crossings
    index = {u: i for i, u in enumerate(tops)}
    up: list[set[int]] = [set() for _ in tops]
    down: dict[int, set[int]] = {}
    for u, v in d.edges:
        up[index[u]].add(v)
        down.setdefault(v, set()).add(index[u])
    # top twins share a label, numbered in order of first member, so
    # twin-free tops are labelled by their indices
    classes: dict[frozenset[int], int] = {}
    labels = [classes.setdefault(frozenset(vs), len(classes)) for vs in up]
    class_degree = [len(vs) for vs in classes]
    # bottom twins are placed in index order: a bottom vertex is ready once
    # its earlier twins are placed, and placing v readies bit successor[v]
    rows = [[0] * len(classes) for _ in down]  # per bottom vertex: 1 at the labels of its neighbours
    degree = [len(vs) for vs in down.values()]
    successor = [0] * len(down)
    last: dict[frozenset[int], int] = {}  # the latest bottom vertex of each neighbourhood
    first = 0  # the bottom vertices with no earlier twin
    for v, vs in enumerate(down.values()):
        for i in vs:
            rows[v][labels[i]] = 1
        key = frozenset(vs)
        if key in last:
            successor[last[key]] = 1 << v
        else:
            first |= 1 << v
        last[key] = v
    best = d.m  # no edge crosses more than m - 1 others
    nodes = 0

    def place(left: int, ready: int, acc: list[int], rem: list[int], worst: int) -> None:
        nonlocal best, nodes
        nodes += 1
        todo = ready
        while todo and worst < best:  # a leaf found below may have brought best down to worst
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            rest = [r - c for r, c in zip(rem, cols[v])]
            grown = []
            before = 0  # unplaced edges left of position i, v's own excluded
            right = degree[v]  # v's edges right of position i
            w = worst
            for a, c, r in zip(acc, cols[v], rest):
                if c:
                    right -= 1
                    if a + before >= best:
                        break
                    w = max(w, a + before)
                a += right
                if r and a >= best:
                    break
                grown.append(a)
                before += r
            else:
                if left == low:
                    best = w
                else:
                    place(left ^ low, ready ^ low | successor[v], grown, rest, w)

    # sorted labels give their distinct arrangements in lexicographic order
    for order in dict.fromkeys(permutations(sorted(labels))):
        if order > order[::-1]:
            continue
        cols = [[row[c] for c in order] for row in rows]  # per bottom vertex: 1 at the top positions of its edges
        place((1 << len(cols)) - 1, first, [0] * p, [class_degree[c] for c in order], 0)
    return best, nodes


# ---------------------------------------------------------------------------
# Seeded random drawings (fuel for property tests)
# ---------------------------------------------------------------------------


def random_drawing(p: int, q: int, m: int, seed: int) -> Drawing:
    """Uniformly random m-edge drawing on a p x q grid.

    Deterministic: a Mersenne Twister (``random.Random(seed)``) samples an
    m-subset of the grid cells listed in lexicographic order, so the same
    seed always yields the same drawing.  It samples the cells' indices,
    which picks the same cells without building the list of all p * q.
    The seed, like p, q and m, must be an exact int: None, which would
    seed from the operating system, a bool, a float or a str raises
    ValueError.
    """
    for name, value in (("p", p), ("q", q), ("m", m), ("seed", seed)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if m > p * q:
        raise ValueError(f"m={m} exceeds the grid capacity {p * q}")
    if m < 0:
        raise ValueError("m must be non-negative")
    picks = random.Random(seed).sample(range(p * q), m)
    return Drawing(p, q, frozenset([(j // q + 1, j % q + 1) for j in picks]))
