"""Reference implementations used to cross-check the fast paths.

Deliberately naive: a quadratic pair loop for the crossing profile, an
exponential clique search for the mutually crossing number, a
breadth-first component search under a direct caterpillar-forest test,
a scan of every pair of layer orders for the minimax per-edge crossing
count, and path-decomposition bags straight from the definition of
related vertices.  They share nothing with the optimized code beyond the
drawing type and the one-line crossing predicate, so the two routes stay
independent.
"""

from __future__ import annotations

from itertools import permutations

from .core import CrossingProfile, Drawing, edges_cross

__all__ = [
    "brute_force_profile",
    "brute_force_mutually_crossing",
    "connected_components",
    "is_caterpillar_forest",
    "brute_force_minimax",
    "brute_force_bags",
]


def brute_force_profile(d: Drawing) -> CrossingProfile:
    """Crossing profile by checking every unordered edge pair."""
    edges = d.sorted_edges()
    m = len(edges)
    per = {e: 0 for e in edges}
    total = 0
    for a in range(m):
        ia, xa = edges[a]
        for b in range(a + 1, m):
            ib, xb = edges[b]
            if (ia - ib) * (xa - xb) < 0:
                per[edges[a]] += 1
                per[edges[b]] += 1
                total += 1
    return CrossingProfile(per, total, max(per.values()) if per else 0)


def brute_force_mutually_crossing(d: Drawing) -> int:
    """Largest pairwise crossing edge set via clique search on the
    crossing graph.  Exponential; intended for m up to ~20."""
    edges = d.sorted_edges()
    m = len(edges)
    if m == 0:
        return 0
    adj = [0] * m
    for a in range(m):
        ia, xa = edges[a]
        for b in range(a + 1, m):
            ib, xb = edges[b]
            if (ia - ib) * (xa - xb) < 0:
                adj[a] |= 1 << b
                adj[b] |= 1 << a

    best = 0

    def extend(cand: int, size: int) -> None:
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        if size + cand.bit_count() <= best:
            return
        low = cand & -cand
        v = low.bit_length() - 1
        extend(cand & adj[v], size + 1)
        extend(cand ^ low, size)

    extend((1 << m) - 1, 0)
    return best


def connected_components(p: int, q: int, edges) -> tuple[list[list[int]], list[list[int]]]:
    """Connected components, each in breadth-first order, and the
    adjacency lists of the bipartite graph on top vertices 0..p-1 and
    bottom vertices p..p+q-1, where edge (i, x) joins i - 1 and p + x - 1."""
    nbrs: list[list[int]] = [[] for _ in range(p + q)]
    for i, x in edges:
        nbrs[i - 1].append(p + x - 1)
        nbrs[p + x - 1].append(i - 1)
    seen = [False] * (p + q)
    comps = []
    for start in range(p + q):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # comp grows while it is read: a queue
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comps.append(comp)
    return comps, nbrs


def is_caterpillar_forest(d: Drawing) -> bool:
    """True iff every component of the graph of ``d`` is a tree whose
    non-leaf vertices induce a path; the order ``d`` is drawn in does not
    matter.  These are exactly the graphs that some re-ordering of both
    layers draws without any crossing, which makes this an independent
    oracle for minimax_k == 0.
    """
    comps, nbrs = connected_components(d.p, d.q, d.edges)
    for comp in comps:
        comp_edges = sum(len(nbrs[v]) for v in comp) // 2
        if comp_edges != len(comp) - 1:
            return False  # cycle
        spine = [v for v in comp if len(nbrs[v]) >= 2]
        for v in spine:
            if sum(1 for w in nbrs[v] if len(nbrs[w]) >= 2) > 2:
                return False
    return True


def brute_force_minimax(d: Drawing) -> int:
    """Minimum over every pair of layer permutations of the maximum
    per-edge crossing count of ``d`` relabelled by them, each profile
    counted by ``brute_force_profile``.  Takes p! q! profiles; intended
    for p + q up to ~8."""
    return min(
        brute_force_profile(
            Drawing(d.p, d.q, frozenset((pu[u - 1], pv[v - 1]) for u, v in d.edges))
        ).max_per_edge
        for pu in permutations(range(1, d.p + 1))
        for pv in permutations(range(1, d.q + 1))
    )


def brute_force_bags(d: Drawing) -> list[frozenset[tuple[str, int]]]:
    """One bag per edge in lexicographic order, by definition: the edge's
    endpoints plus every bottom vertex v_y that is incident to an edge
    crossing it and whose first and last positions in the order strictly
    enclose the edge's position.  Quadratic in the edge count."""
    order = d.sorted_edges()
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, (_, x) in enumerate(order, 1):
        if x not in first:
            first[x] = pos
        last[x] = pos
    bags = []
    for pos, e in enumerate(order, 1):
        bag = {("u", e[0]), ("v", e[1])}
        for f in order:
            y = f[1]
            if edges_cross(e, f) and first[y] < pos < last[y]:
                bag.add(("v", y))
        bags.append(frozenset(bag))
    return bags
