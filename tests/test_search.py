"""Tests for the extremal search, minimax, and seeded random drawings."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from layerlens.core import Drawing, is_h_quasiplanar, is_k_planar
from layerlens.families import general_k_family, opt2planar, planar3_family, planar4_family
from layerlens.oracles import is_caterpillar_forest
from layerlens.search import (
    BipartiteGraph,
    KPlanar,
    Quasiplanar,
    complete_bipartite,
    max_density,
    minimax_k,
    random_drawing,
)


class TestConstraints:
    def test_validation(self):
        with pytest.raises(ValueError):
            KPlanar(-1)
        with pytest.raises(ValueError):
            Quasiplanar(1)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    def test_rejects_non_integer_parameters(self, value):
        with pytest.raises(ValueError):
            KPlanar(value)
        with pytest.raises(ValueError):
            Quasiplanar(value)


class TestMaxDensity:
    @pytest.mark.parametrize(
        "n,constraint,want",
        [
            (5, KPlanar(2), 6),
            (8, KPlanar(5), 14),
            (6, KPlanar(4), 9),
            (6, Quasiplanar(3), 8),
            (8, KPlanar(3), 12),
            (2, KPlanar(0), 1),
            (2, Quasiplanar(2), 1),
        ],
    )
    def test_known_values(self, n, constraint, want):
        assert max_density(n, constraint).best_m == want

    def test_witness_attains_and_satisfies(self):
        r = max_density(7, KPlanar(2))
        assert r.witness.m == r.best_m
        assert r.witness.n == 7
        assert is_k_planar(r.witness, 2)
        r = max_density(7, Quasiplanar(3))
        assert r.witness.m == r.best_m
        assert is_h_quasiplanar(r.witness, 3)

    def test_dominates_family_instances(self):
        # any family drawing is a feasible point of the search
        for d, k in [
            (opt2planar(2), 2),
            (planar3_family(4), 3),
            (planar4_family(2), 4),
            (general_k_family(4, 2), 2),
        ]:
            if d.n <= 10:
                assert max_density(d.n, KPlanar(k)).best_m >= d.m

    def test_quasiplanar_density_cap(self):
        for n in range(3, 11):
            assert max_density(n, Quasiplanar(3)).best_m <= 2 * n - 4

    def test_crossing_free_is_tree_density(self):
        # with no crossing allowed the optimum is a spanning caterpillar
        for n in range(2, 9):
            assert max_density(n, KPlanar(0)).best_m == n - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            max_density(1, KPlanar(2))
        with pytest.raises(ValueError):
            max_density(15, KPlanar(2))

    def test_parallel_matches_sequential(self):
        for n, cons in [(8, KPlanar(3)), (7, Quasiplanar(3))]:
            seq = max_density(n, cons, threads=1)
            par = max_density(n, cons, threads=3)
            assert seq.best_m == par.best_m
            assert seq.witness == par.witness

    def test_parallel_splits_start_from_the_sequential_incumbent(self):
        # splits p = 1..3 run in order, then p = 4 and 5 in two processes,
        # both from the best of p <= 3
        seq = max_density(11, KPlanar(8), threads=1)
        par = max_density(11, KPlanar(8), threads=2)
        assert par.stats.nodes == 147_356
        assert (par.best_m, par.witness) == (seq.best_m, seq.witness)

    # Optimum, node count and witness cells ("ix" = top i, bottom x) of the
    # search tree; any change to the DFS that walks a different tree or
    # keeps a different first optimum shows here.
    @pytest.mark.parametrize(
        "n,constraint,best_m,nodes,cells",
        [
            (6, KPlanar(0), 5, 41, "11 12 13 14 15"),
            (6, KPlanar(2), 7, 45, "11 12 13 21 22 23 24"),
            (6, KPlanar(5), 9, 32, "11 12 13 21 22 23 31 32 33"),
            (6, Quasiplanar(2), 5, 41, "11 12 13 14 15"),
            (6, Quasiplanar(3), 8, 28, "11 12 13 14 21 22 23 24"),
            (6, Quasiplanar(4), 9, 32, "11 12 13 21 22 23 31 32 33"),
            (8, KPlanar(0), 7, 280, "11 12 13 14 15 16 17"),
            (8, KPlanar(2), 11, 401, "11 12 13 21 22 23 24 25 33 34 35"),
            (8, KPlanar(5), 14, 236, "11 12 13 21 22 23 24 31 32 33 34 42 43 44"),
            (8, Quasiplanar(2), 7, 280, "11 12 13 14 15 16 17"),
            (8, Quasiplanar(3), 12, 319, "11 12 13 14 15 16 21 22 23 24 25 26"),
            (8, Quasiplanar(4), 15, 67, "11 12 13 14 15 21 22 23 24 25 31 32 33 34 35"),
            (10, KPlanar(0), 9, 1994, "11 12 13 14 15 16 17 18 19"),
            (10, KPlanar(2), 14, 5720, "11 12 13 21 22 23 24 33 34 35 36 44 45 46"),
            (10, KPlanar(5), 18, 19542, "11 12 13 21 22 23 24 31 32 34 35 42 43 44 45 53 54 55"),
            (10, Quasiplanar(2), 9, 1994, "11 12 13 14 15 16 17 18 19"),
            (10, Quasiplanar(3), 16, 10023, "11 12 13 14 15 16 17 18 21 22 23 24 25 26 27 28"),
            (10, Quasiplanar(4), 21, 2453, "11 12 13 14 15 16 17 21 22 23 24 25 26 27 31 32 33 34 35 36 37"),
        ],
    )
    def test_pinned_search_tree(self, n, constraint, best_m, nodes, cells):
        r = max_density(n, constraint)
        assert r.best_m == best_m
        assert r.stats.nodes == nodes
        assert r.witness.sorted_edges() == [(int(c[0]), int(c[1])) for c in cells.split()]

    def test_stats_populated(self):
        r = max_density(6, KPlanar(2))
        assert r.stats.nodes > 0
        assert r.stats.millis >= 0


class TestMinimax:
    def test_k24(self):
        assert minimax_k(complete_bipartite(2, 4)) == 3

    def test_k23(self):
        assert minimax_k(complete_bipartite(2, 3)) == 2

    def test_path_is_crossing_free(self):
        p4 = BipartiteGraph(2, 2, frozenset([(1, 1), (2, 1), (2, 2)]))
        assert minimax_k(p4) == 0

    def test_k33(self):
        assert minimax_k(complete_bipartite(3, 3)) == 4

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            minimax_k(complete_bipartite(5, 6))

    def test_zero_iff_caterpillar_forest(self):
        # independent characterization: crossing-free two-layer drawings
        # exist exactly for caterpillar forests
        for a in range(1, 4):
            for b in range(a, 7 - a):
                cells = [(u, v) for u in range(1, a + 1) for v in range(1, b + 1)]
                for r in range(len(cells) + 1):
                    for chosen in combinations(cells, r):
                        g = BipartiteGraph(a, b, frozenset(chosen))
                        assert (minimax_k(g) == 0) == is_caterpillar_forest(g), chosen


class TestRandomDrawing:
    def test_full_grid_forced(self):
        d = random_drawing(3, 3, 9, 123)
        assert d.m == 9

    def test_empty(self):
        assert random_drawing(4, 5, 0, 1).m == 0

    def test_deterministic_pinned(self):
        d = random_drawing(4, 4, 8, 7)
        assert sorted(d.edges) == [
            (1, 1), (1, 2), (1, 3), (2, 3), (3, 1), (3, 3), (4, 1), (4, 4),
        ]
        assert random_drawing(4, 4, 8, 7) == d

    def test_seeds_differ(self):
        draws = {random_drawing(5, 5, 10, s).edges for s in range(20)}
        assert len(draws) > 1

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_drawing(2, 2, 5, 0)


class TestBipartiteGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(0, 2)
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(1, 3)])
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(1, 1), (1, 1)])

    def test_complete(self):
        g = complete_bipartite(2, 4)
        assert g.n == 6
        assert len(g.edges) == 8


def test_search_exhaustive_cross_check():
    # tiny-n ground truth by full enumeration over splits and subsets
    rng = random.Random(5)
    for n in (3, 4, 5):
        for cons in (KPlanar(1), KPlanar(2), Quasiplanar(3)):
            best = 0
            for p in range(1, n):
                q = n - p
                cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
                for r in range(len(cells), 0, -1):
                    if r <= best:
                        break
                    for chosen in combinations(cells, r):
                        d = Drawing(p, q, frozenset(chosen))
                        ok = (
                            is_k_planar(d, cons.k)
                            if isinstance(cons, KPlanar)
                            else is_h_quasiplanar(d, cons.h)
                        )
                        if ok:
                            best = max(best, r)
                            break
            assert max_density(n, cons).best_m == best, (n, cons)
