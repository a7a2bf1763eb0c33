"""Tests for the extremal search, minimax, and seeded random drawings."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import tracemalloc
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import search
from layerlens.bounds import default_table
from layerlens.core import Drawing, crossing_profile, is_h_quasiplanar, is_k_planar
from layerlens.families import general_k_family, opt2planar, planar3_family, planar4_family
from layerlens.oracles import (
    brute_force_minimax,
    brute_force_mutually_crossing,
    brute_force_profile,
    is_caterpillar_forest,
)
from layerlens.search import (
    Constraint,
    KPlanar,
    Quasiplanar,
    SearchResult,
    SearchStats,
    SplitStats,
    complete_bipartite,
    _minimax,
    max_density,
    minimax_k,
    random_drawing,
)

# max_density results shared by the tests that pin the same cases
_max_density = cache(max_density)


def _split(p: int, q: int, c: Constraint, start_best: int):
    """The kernel, ``_prepare_split(p, q, k)[1](start_best)``, for a
    k-planar c, and the reference DFS with the quasiplanar include step for
    a quasiplanar one.  k is not clamped to the grid's crossing cap; a
    larger k allows the same drawings and only widens the state."""
    if isinstance(c, KPlanar):
        return search._prepare_split(p, q, c.k)[1](start_best)
    return _reference_split(p, q, partial(_quasiplanar_include, c.h), start_best)


def _transposed_split(p: int, q: int, c: Constraint, start_best: int) -> tuple[int, list | None, SplitStats]:
    """``_split`` on the transposed q x p grid, one row per vertex of the
    larger layer; returns (best, cells mapped back to the p x q frame with
    (x, i) -> (i, x) or None, stats of the p x q split)."""
    best, cells, stats, _ = _split(q, p, c, start_best)
    if cells is not None:
        cells = [(i, x) for x, i in cells]
    return best, cells, dataclasses.replace(stats, p=p, q=q)


@cache
def _quasiplanar_search(n: int, c: Quasiplanar) -> SearchResult:
    """The branch and bound that ``max_density`` answered a quasiplanar
    constraint with before its closed form, kept as the reference route:
    the splits with p <= q in increasing p, each on its transposed grid,
    carrying the incumbent; the witness is from the smallest p attaining
    the optimum."""
    best, witness, splits = 0, None, []
    for p in range(1, n // 2 + 1):
        got, cells, stats = _transposed_split(p, n - p, c, best)
        splits.append(stats)
        if got > best:
            best, witness = got, Drawing(p, n - p, frozenset(cells))
    return SearchResult(best, witness, SearchStats(sum(s.nodes for s in splits), 0.0, tuple(splits)))


def _searched(n: int, c: Constraint) -> SearchResult:
    """The branch-and-bound result for n and c: ``max_density``'s for a
    k-planar constraint, the reference route's for a quasiplanar one."""
    return _quasiplanar_search(n, c) if isinstance(c, Quasiplanar) else _max_density(n, c)


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

    def test_huge_k_searches_the_tree_of_the_grid_cap(self):
        # no cell of a p x q grid crosses more than (p - 1)(q - 1) others, at
        # most 4 at n = 6, so any larger k searches the same tree, and its
        # state does not grow with k
        tracemalloc.start()
        try:
            huge = max_density(6, KPlanar(10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capped = max_density(6, KPlanar(4))
        assert (huge.best_m, huge.stats.nodes, huge.witness) == (capped.best_m, capped.stats.nodes, capped.witness)
        assert huge.stats.splits == capped.stats.splits
        assert peak < 1_000_000

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            max_density(1, KPlanar(2))
        with pytest.raises(ValueError):
            max_density(15, KPlanar(2))

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_parameters(self, value):
        with pytest.raises(ValueError):
            max_density(value, KPlanar(5))
        with pytest.raises(ValueError):
            max_density(6, KPlanar(2), threads=value)

    @pytest.mark.parametrize("constraint", ["x", 2, None, Drawing(1, 1)])
    def test_rejects_a_constraint_of_another_type(self, constraint):
        with pytest.raises(TypeError):
            max_density(6, constraint)

    def test_threads_has_no_effect(self):
        # threads is accepted and validated, and changes no result or count
        for n in (8, 11, 14):
            for k in (0, 2, 5, 8, 16):
                want = _max_density(n, KPlanar(k))
                for threads in (1, 2, 4):
                    got = max_density(n, KPlanar(k), threads=threads)
                    assert (got.best_m, got.witness, got.stats.nodes, got.stats.splits) == (
                        want.best_m,
                        want.witness,
                        want.stats.nodes,
                        want.stats.splits,
                    ), (n, k, threads)

    # Optimum, witness cells ("ix" = top i, bottom x) and the node count of
    # the search tree before the suffix bound, each measured exactly with
    # that bound off (quasiplanar splits by the reference route, on their
    # transposed grid); any change to the DFS that keeps a different first
    # optimum shows here.  The suffix bound only tightens an admissible
    # bound, and the incumbent at each point of the DFS order is the best
    # leaf before it either way, so outside the suffix solves it visits a
    # subset of that tree.
    @pytest.mark.parametrize(
        "n,constraint,best_m,unbounded_nodes,cells",
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
            (8, Quasiplanar(2), 7, 269, "11 12 13 14 15 16 17"),
            (8, Quasiplanar(3), 12, 303, "11 12 13 14 15 16 21 22 23 24 25 26"),
            (8, Quasiplanar(4), 15, 67, "11 12 13 14 15 21 22 23 24 25 31 32 33 34 35"),
            (10, KPlanar(0), 9, 1994, "11 12 13 14 15 16 17 18 19"),
            (10, KPlanar(2), 14, 5720, "11 12 13 21 22 23 24 33 34 35 36 44 45 46"),
            (10, KPlanar(5), 18, 19542, "11 12 13 21 22 23 24 31 32 34 35 42 43 44 45 53 54 55"),
            (10, Quasiplanar(2), 9, 1881, "11 12 13 14 15 16 17 18 19"),
            (10, Quasiplanar(3), 16, 9681, "11 12 13 14 15 16 17 18 21 22 23 24 25 26 27 28"),
            (10, Quasiplanar(4), 21, 2256, "11 12 13 14 15 16 17 21 22 23 24 25 26 27 31 32 33 34 35 36 37"),
            (12, KPlanar(5), 22, 679_854, "11 12 13 14 21 22 23 24 25 32 33 34 35 36 37 44 45 46 47 55 56 57"),
            (12, Quasiplanar(4), 27, 314_864, " ".join(f"{i}{x}" for i in range(1, 4) for x in range(1, 10))),
            (13, KPlanar(5), 24, 2_978_649, "11 12 13 14 21 22 23 24 25 32 33 34 35 36 37 44 45 46 47 48 55 56 57 58"),
        ],
    )
    def test_pinned_search_tree(self, n, constraint, best_m, unbounded_nodes, cells):
        r = _searched(n, constraint)
        assert r.best_m == best_m
        assert r.stats.nodes - sum(s.bound_nodes for s in r.stats.splits) <= unbounded_nodes
        assert r.witness.sorted_edges() == [(int(c[0]), int(c[1])) for c in cells.split()]

    # Exact node counts with the suffix bound: all nodes, the part of them
    # spent on suffix solves, and the nodes of the main DFS of each split
    # (nodes - bound_nodes).  Extending the last suffix witness and stopping
    # a solve one above its incumbent fill the same bound table, so the
    # main DFS keeps the counts it had when every suffix was solved in
    # full.  Every k-planar main DFS starts one below the largest floor of
    # the splits, so a split whose floor is the optimum, such as p = 1 at
    # k = 0, keeps its count, and the others fall, the p = 1 root alone
    # often being pruned.  Quasiplanar splits are searched by the reference
    # route, on the transposed grid, one row per vertex of the larger layer,
    # from an incumbent of 0.
    NODE_COUNTS = [
        (6, KPlanar(0), 37, 8, (6, 14, 9)),
        (6, KPlanar(2), 29, 0, (1, 15, 13)),
        (6, KPlanar(5), 16, 0, (1, 1, 14)),
        (6, Quasiplanar(2), 33, 14, (6, 4, 9)),
        (6, Quasiplanar(3), 28, 0, (6, 12, 10)),
        (6, Quasiplanar(4), 32, 0, (6, 12, 14)),
        (8, KPlanar(0), 191, 65, (8, 40, 51, 27)),
        (8, KPlanar(2), 124, 32, (1, 34, 45, 12)),
        (8, KPlanar(5), 77, 3, (1, 18, 31, 24)),
        (8, Quasiplanar(2), 125, 77, (8, 4, 9, 27)),
        (8, Quasiplanar(3), 137, 40, (8, 18, 10, 61)),
        (8, Quasiplanar(4), 67, 0, (8, 18, 23, 18)),
        (10, KPlanar(0), 1149, 412, (10, 108, 231, 216, 172)),
        (10, KPlanar(2), 521, 222, (1, 34, 65, 117, 82)),
        (10, KPlanar(5), 491, 165, (1, 1, 74, 199, 51)),
        (10, Quasiplanar(2), 589, 357, (10, 4, 9, 37, 172)),
        (10, Quasiplanar(3), 2216, 725, (10, 24, 10, 207, 1240)),
        (10, Quasiplanar(4), 889, 140, (10, 24, 32, 36, 647)),
        (11, KPlanar(8), 604, 113, (1, 1, 66, 175, 248)),
        (11, Quasiplanar(3), 5843, 2524, (11, 27, 10, 336, 2935)),
        (12, KPlanar(2), 3273, 619, (1, 60, 163, 348, 862, 1220)),
        (12, KPlanar(5), 1316, 390, (1, 1, 108, 374, 230, 212)),
        (12, Quasiplanar(4), 58_775, 10_610, (12, 30, 41, 50, 6774, 41_258)),
        (13, KPlanar(5), 3155, 724, (1, 1, 76, 190, 770, 1393)),
        (13, KPlanar(8), 1966, 892, (1, 1, 76, 130, 401, 465)),
        (14, KPlanar(5), 22_025, 4535, (1, 1, 100, 378, 3425, 9088, 4497)),
        (14, KPlanar(8), 10_869, 2745, (1, 1, 46, 162, 635, 3885, 3394)),
    ]

    @pytest.mark.parametrize(
        "n,constraint,nodes,bound_nodes,main_nodes", NODE_COUNTS, ids=[f"{n}-{c.label}" for n, c, *_ in NODE_COUNTS]
    )
    def test_pinned_node_counts(self, n, constraint, nodes, bound_nodes, main_nodes):
        stats = _searched(n, constraint).stats
        assert (stats.nodes, sum(s.bound_nodes for s in stats.splits)) == (nodes, bound_nodes)
        assert tuple(s.nodes - s.bound_nodes for s in stats.splits) == main_nodes

    # Optimum, witness split p and witness cells ("i:a-b,c" = top i with
    # bottoms a..b and c) at the top of the range and past the largest k of
    # the tables above, measured with the addable count and the suffix bound
    # only.  Every bound the search adds must be admissible, so these stay.
    TOP_OF_RANGE = [
        (14, 0, 13, 1, "1:1-13"),
        (14, 1, 19, 7, "1:1-2 2:1-3 3:2-4 4:3-5 5:4-6 6:5-7 7:6-7"),
        (14, 2, 21, 5, "1:1-3 2:1-5 3:3-7 4:5-9 5:7-9"),
        (14, 3, 24, 7, "1:1-3 2:1-4 3:2-5 4:3-6 5:4-7 6:5-7 7:6-7"),
        (14, 4, 25, 7, "1:1-3 2:1-3 3:1-5 4:3-5 5:3-7 6:5-7 7:5-7"),
        (14, 5, 27, 7, "1:1-3 2:1-4 3:1-5 4:3-5 5:3-7 6:4-7 7:5-7"),
        (14, 6, 29, 7, "1:1-3 2:1-4 3:1-5 4:2-6 5:3-7 6:4-7 7:5-7"),
        (14, 7, 30, 6, "1:1-4 2:1-5 3:1-6 4:3-8 5:4-8 6:5-8"),
        (14, 8, 30, 6, "1:1-4 2:1-5 3:1-6 4:3-8 5:4-8 6:5-8"),
        (14, 9, 32, 7, "1:1-4 2:1-5 3:1-6 4:2-7 5:4-7 6:4-7 7:5-7"),
        (13, 9, 29, 6, "1:1-4 2:1-5 3:1-3,5-6 4:2-7 5:3-7 6:4-7"),
        (13, 10, 30, 6, "1:1-4 2:1-5 3:1-6 4:2-7 5:3-7 6:4-7"),
        (13, 11, 30, 5, "1:1-5 2:1-6 3:1-8 4:3-8 5:4-8"),
        (13, 12, 31, 6, "1:1-4 2:1-5 3:1-6 4:1-7 5:3-7 6:4-7"),
        (13, 13, 32, 6, "1:1-5 2:1-6 3:1-2,5-7 4:1-7 5:3-7 6:4-7"),
    ]

    @pytest.mark.parametrize("n,k,best_m,p,cells", TOP_OF_RANGE, ids=[f"{n}-k{k}" for n, k, *_ in TOP_OF_RANGE])
    def test_top_of_range(self, n, k, best_m, p, cells):
        edges = set()
        for row in cells.split():
            i, runs = row.split(":")
            for run in runs.split(","):
                lo, _, hi = run.partition("-")
                edges.update((int(i), x) for x in range(int(lo), int(hi or lo) + 1))
        r = _max_density(n, KPlanar(k))
        assert (r.best_m, r.witness) == (best_m, Drawing(p, n - p, frozenset(edges)))

    def test_top_of_range_bound_tables(self):
        # sha256 of repr([[cap of the split p x (14 - p) for p = 1..7] for
        # k = 0..9]), measured with the addable count and the suffix bound
        # only; the suffix solves stop at the first leaf one above their
        # incumbent, which an admissible bound never prunes.  An incumbent
        # of p * q skips each split's main DFS.
        caps = [
            [search._prepare_split(p, 14 - p, min(k, (p - 1) * (13 - p)))[1](p * (14 - p))[3] for p in range(1, 8)]
            for k in range(10)
        ]
        digest = "0243160c2225362292db532f6cbf9bbb182bf7b9c880e221c69d532345fb4e60"
        assert hashlib.sha256(repr(caps).encode()).hexdigest() == digest

    def test_sweep_digest(self):
        # sha256 of repr([(best_m, nodes, [(p, nodes, bound nodes, solves) of
        # each split], witness edges) for n = 2..14, k = 0..10]), 296,671
        # nodes in all, measured with every main DFS starting one below the
        # largest floor of the splits (366,141 nodes from the incumbent of
        # the splits before it).  Rewrites that change the cost of a node,
        # and not the nodes, keep it.
        sweep = []
        for n in range(2, 15):
            for k in range(11):
                r = _max_density(n, KPlanar(k))
                splits = [(s.p, s.nodes, s.bound_nodes, s.solves) for s in r.stats.splits]
                sweep.append((r.best_m, r.stats.nodes, splits, r.witness.sorted_edges()))
        digest = "e71b9e251b90ab334a83ea2c7696ac5464dc284a3fbfa8b5d391d196322697fe"
        assert hashlib.sha256(repr(sweep).encode()).hexdigest() == digest

    def test_sweep_results_digest(self):
        # sha256 of repr([(best_m, witness p, witness edges, [(bound nodes,
        # solves) of each split]) for n = 2..14, k = 0..10]), measured at
        # commit 4607c6a.  It leaves out the main DFS's nodes, so a change
        # that only prunes more keeps it: the results, and the suffix solves,
        # which do not depend on the incumbent.
        sweep = []
        for n in range(2, 15):
            for k in range(11):
                r = _max_density(n, KPlanar(k))
                splits = [(s.bound_nodes, s.solves) for s in r.stats.splits]
                sweep.append((r.best_m, r.witness.p, r.witness.sorted_edges(), splits))
        digest = "3211bda0cb9679e0271fa27f1b2cf2d1097c78435ef320418d8183c8bded87c9"
        assert hashlib.sha256(repr(sweep).encode()).hexdigest() == digest

    def test_table_rows_against_the_search(self):
        # the exceptions that the notes of `bounds --k 3..5` name, for n =
        # 2..14: one edge over the row's 0 at n = 2 for k = 3 and 5, the
        # special S at n = 8, k = 5, and 2n - 4 under the k = 4 row's 2n - 3
        # unless n = 2 (mod 4); every other floor is attained.  The
        # searches are the sweep's, from the shared cache
        table = default_table()
        for k in range(table.t):
            for n in range(2, 15):
                row = table.alpha[k] * n - table.beta[k]
                want = row.numerator // row.denominator
                if (k, n) in ((3, 2), (5, 2), (5, 8)):
                    want += 1
                elif k == 4 and n % 4 != 2:
                    want -= 1
                assert _max_density(n, KPlanar(k)).best_m == want, (k, n)

    def test_split_stats(self):
        r = _max_density(11, KPlanar(8))
        assert [(s.p, s.q) for s in r.stats.splits] == [(p, 11 - p) for p in range(1, 6)]
        assert r.stats.nodes == sum(s.nodes for s in r.stats.splits)
        assert all(0 <= s.bound_nodes < s.nodes for s in r.stats.splits)
        # the suffix solves do not depend on the incumbent, so each split
        # spends the same bound nodes from an incumbent of 0
        fresh = [search._prepare_split(s.p, s.q, min(8, (s.p - 1) * (s.q - 1)))[1](0)[2] for s in r.stats.splits]
        assert [(s.bound_nodes, s.solves, s.floor) for s in fresh] == [
            (s.bound_nodes, s.solves, s.floor) for s in r.stats.splits
        ]
        # every main DFS started one below the largest floor, 22 at p = 4
        assert [s.floor for s in r.stats.splits] == [10, 18, 18, 22, 21]
        assert r.best_m == 22

    @pytest.mark.parametrize("n,constraint", [(11, KPlanar(8)), (12, KPlanar(5)), (12, KPlanar(2)), (10, Quasiplanar(3))])
    def test_suffix_solves_counted(self, n, constraint):
        # the first column of every row below the first crosses no later
        # cell, so its suffix optimum is always the next one plus one, and
        # the last cell's is 1: at most (p - 1)(q - 1) positions run a DFS
        splits = _searched(n, constraint).stats.splits
        assert all(0 <= s.solves <= (s.p - 1) * (s.q - 1) for s in splits)
        assert all((s.solves == 0) == (s.bound_nodes == 0) for s in splits)
        if isinstance(constraint, KPlanar):
            assert sum(s.solves for s in splits) > 0

    def test_split_stats_constructor_without_solves(self):
        assert (SplitStats(1, 2, 3, 0).solves, SplitStats(1, 2, 3, 0).floor) == (0, 0)

    def test_stats_populated(self):
        r = max_density(6, KPlanar(2))
        assert r.stats.nodes > 0
        assert r.stats.millis >= 0

    def test_quasiplanar_closed_form_matches_the_search(self):
        for n in range(2, 14):
            for h in range(2, 8):
                r = max_density(n, Quasiplanar(h))
                ref = _quasiplanar_search(n, Quasiplanar(h))
                assert (r.best_m, r.witness) == (ref.best_m, ref.witness), (n, h)
                assert (r.stats.nodes, r.stats.splits) == (0, ())

    def test_quasiplanar_runs_no_search(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("searched")

        # every k-planar search, the suffix solves and the main DFS, starts in
        # _prepare_split
        monkeypatch.setattr(search, "_prepare_split", fail)
        assert max_density(14, Quasiplanar(4)).best_m == 33
        with pytest.raises(AssertionError, match="searched"):
            max_density(6, KPlanar(2))


def _brute_force_suffix_optima(
    p: int, q: int, constraints: list[Constraint], start: int = 0
) -> dict[Constraint, list[int]]:
    """For each constraint, the most cells of pos..N-1 (grid cells in
    lexicographic order) that form an allowed drawing on their own, for
    pos = start..N, indexed by pos - start, from every subset of the cells
    start..N-1 checked by the oracles."""
    cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)][start:]
    n_cells = len(cells)
    # by_low[c][t]: the largest allowed subset whose first cell is t
    by_low = {c: [0] * (n_cells + 1) for c in constraints}
    for mask in range(1, 1 << n_cells):
        d = Drawing(p, q, frozenset(cells[t] for t in range(n_cells) if mask >> t & 1))
        per_edge = brute_force_profile(d).max_per_edge
        clique = brute_force_mutually_crossing(d)
        low = (mask & -mask).bit_length() - 1
        for c in constraints:
            allowed = per_edge <= c.k if isinstance(c, KPlanar) else clique < c.h
            if allowed and d.m > by_low[c][low]:
                by_low[c][low] = d.m
    optima = {}
    for c in constraints:
        suffix = [0] * (n_cells + 1)
        for pos in range(n_cells - 1, -1, -1):
            suffix[pos] = max(suffix[pos + 1], by_low[c][pos])
        optima[c] = suffix
    return optima


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 13) for q in range(1, 13) if p * q <= 12])
def test_suffix_bound_table(p, q):
    # cap[pos] is exact from the second row on and an upper bound on the
    # first; the split's optimum is the whole grid's
    constraints = [KPlanar(k) for k in range(6)] + [Quasiplanar(h) for h in (2, 3, 4)]
    optima = _brute_force_suffix_optima(p, q, constraints)
    for c in constraints:
        best, _, _, cap = _split(p, q, c, 0)
        want = optima[c]
        assert cap[q:] == want[q:], c
        assert all(cap[pos] >= want[pos] for pos in range(q)), c
        assert best == want[0], c


@pytest.mark.parametrize("p,q,start", [(5, 3, 3), (5, 4, 8), (7, 3, 9)])
def test_suffix_bound_table_beyond_twelve_cells(p, q, start):
    # on these grids, solving a suffix with rotation canonicalization, as
    # if it were a whole grid, falls short of its optimum for some k: the
    # suffix has no rotation symmetry.  Twelve-cell suffixes from `start`
    # on are checked against every subset of their cells.
    constraints = [KPlanar(k) for k in range(6)] + [Quasiplanar(h) for h in (2, 3, 4)]
    optima = _brute_force_suffix_optima(p, q, constraints, start)
    for c in constraints:
        cap = _split(p, q, c, 0)[3]
        assert cap[start:] == optima[c], c


def _pair_cross_masks(cells: list[tuple[int, int]]) -> list[int]:
    """The crossing mask of each cell, from a test of every pair: the
    reference for ``search._cross_masks``, and the masks of the reference
    DFS, so that it shares no mask code with the kernel."""
    n = len(cells)
    masks = [0] * n
    for a in range(n):
        ia, xa = cells[a]
        for b in range(a + 1, n):
            ib, xb = cells[b]
            if (ia - ib) * (xa - xb) < 0:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


@pytest.mark.parametrize("p", range(1, 9))
def test_cross_masks_match_the_pair_test(p):
    for q in range(1, 9):
        assert search._cross_masks(p, q) == _pair_cross_masks(search._grid_cells(p, q)), q


def _budget_bound(k: int, q: int, cross: list[int], chosen: int, free: int) -> int:
    """The residual-budget bound of ``_prepare_split``, written plainly: the
    most cells of ``free`` a k-planar completion of ``chosen`` can add,
    the minimum of ``len(free) - a_e + min(a_e, k - c_e)`` over the
    rightmost chosen cell e of each row of q cells, where a_e counts the
    cells of ``free`` crossing e and c_e the chosen cells crossing it."""
    addable = free.bit_count()
    bound = addable
    for start in range(0, len(cross), q):
        row = [t for t in range(start, start + q) if chosen >> t & 1]
        if row:
            e = row[-1]
            a_e = (free & cross[e]).bit_count()
            c_e = (cross[e] & chosen).bit_count()
            bound = min(bound, addable - a_e + min(a_e, k - c_e))
    return bound


def _reference_split(p: int, q: int, step, start_best: int, k: int | None = None):
    """The split search with the constraint given as an include step: the
    reference route for the kernel, ``_prepare_split(p, q, k)[1](start_best)``,
    and, with ``_quasiplanar_include``, for the quasiplanar closed form.
    Given k, it also prunes by ``_budget_bound``, as the kernel does.  It
    returns what the kernel does, and visits and counts the same nodes,
    though it builds ``cap`` and the floor in three loops where the kernel
    uses one; see ``_prepare_split`` for the bound, the suffix table
    ``cap``, the floor and the rotation canonicalization.

    ``step(cross)``, given the crossing mask of each cell, returns the
    include step and the empty drawing's state.  The include step
    ``include(pos, chosen, state)`` returns a new state whose first item is
    the bitmask of the cells that can no longer be added; the DFS knows the
    constraint only through it.  The constraint must depend on crossings
    alone and be hereditary.  Whether the suffix witness extends by a cell
    is decided by replaying the include step over it in cell order, both
    in the suffix loop and when the floor grows it over the first row."""
    cells = search._grid_cells(p, q)
    n_cells = len(cells)
    cross = _pair_cross_masks(cells)
    future = [((1 << n_cells) - 1) >> pos << pos for pos in range(n_cells + 1)]
    include, start = step(cross)
    nodes = 0
    best_chosen = None
    cap = [0] * (n_cells + 1)

    def rec(pos, m, chosen, state, eq):
        nonlocal nodes, best, best_chosen
        nodes += 1
        blocked = state[0]
        free = future[pos] & ~blocked
        if m + cap[pos] <= best or m + free.bit_count() <= best:
            return
        if k is not None and m + _budget_bound(k, q, cross, chosen, free) <= best:
            return
        if pos == n_cells:
            best = m
            best_chosen = chosen
            if m == limit:
                raise search._SuffixSolved
            return

        mirror = n_cells - 1 - pos
        eq_inc = eq
        force_include = False
        if eq and mirror < pos:
            if chosen >> mirror & 1:
                force_include = True
            else:
                eq_inc = False

        if not blocked >> pos & 1:
            rec(pos + 1, m + 1, chosen | (1 << pos), include(pos, chosen, state), eq_inc)
        if cross[pos] and not force_include:
            rec(pos + 1, m, chosen, state, eq)

    def allowed(mask):
        chosen, state = 0, start
        while mask:
            low = mask & -mask
            t = low.bit_length() - 1
            if state[0] & low:
                return False
            state = include(t, chosen, state)
            chosen |= low
            mask ^= low
        return True

    wit = 0
    solves = 0
    for pos in range(n_cells - 1, q - 1, -1):
        limit = cap[pos + 1] + 1
        cap[pos] = limit
        if allowed(wit | 1 << pos):
            wit |= 1 << pos
            continue
        solves += 1
        best = limit - 1
        try:
            rec(pos, 0, 0, start, False)
        except search._SuffixSolved:
            wit = best_chosen
        cap[pos] = best
    for pos in range(q):
        cap[pos] = cap[q] + q - pos
    for pos in range(q - 1, -1, -1):
        if allowed(wit | 1 << pos):
            wit |= 1 << pos
    bound_nodes = nodes
    best = start_best
    best_chosen = None
    limit = n_cells + 1
    rec(0, 0, 0, start, True)
    best_cells = None if best_chosen is None else [cells[t] for t in range(n_cells) if best_chosen >> t & 1]
    return best, best_cells, SplitStats(p, q, nodes, bound_nodes, solves, wit.bit_count()), cap


def _quasiplanar_include(h: int, cross: list[int]):
    """Include step for "no h pairwise crossing edges", the reference route
    that the closed form of ``max_density`` is checked against.

    Pairwise crossing sets are chains of the crossing relation in cell
    order, and every chosen cell precedes every undecided one, so a cell's
    longest chain is fixed by the chosen cells.  ``reach[j]`` marks the
    cells crossing a chosen cell whose chain has at least j + 1 edges
    (j = 0..h-2); the last level is the blocked mask.
    """

    def include(pos, chosen, state):
        reach = state[1]
        j = 0  # pos ends a chain of j + 1 edges; j < h - 1 as pos is not blocked
        while reach[j] >> pos & 1:
            j += 1
        cm = cross[pos]
        reach = (*[r | cm for r in reach[: j + 1]], *reach[j + 1 :])
        return reach[-1], reach

    return include, (0, (0,) * (h - 1))


def _tuple_kplanar_include(k: int, cross: list[int]):
    """The k-planar include step with one mask per plane in a tuple,
    ``levels[j]`` marking the cells crossed by at least j chosen cells
    (level 0 is every cell); run by ``_reference_split``, the reference
    for the packed planes that the kernel advances in place."""

    def include(pos, chosen, state):
        blocked, levels = state
        cm = cross[pos]
        grown = (-1, *[levels[j] | (levels[j - 1] & cm) for j in range(1, k + 2)])
        full = (grown[k] & ~levels[k] & chosen) | (levels[k] & (1 << pos))
        blocked |= grown[k + 1]
        while full:
            low = full & -full
            blocked |= cross[low.bit_length() - 1]
            full ^= low
        return blocked, grown

    return include, (0, (-1,) + (0,) * (k + 1))


@st.composite
def _kplanar_splits(draw):
    """A p x q grid up to 6 x 6, a k up to one past the crossing cap
    (p - 1)(q - 1), and an incumbent from 0 to the grid's size."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    return p, q, draw(st.integers(0, (p - 1) * (q - 1) + 1)), draw(st.integers(0, p * q))


@settings(max_examples=30, deadline=None)
@given(_kplanar_splits())
def test_kernel_matches_the_reference_dfs(split):
    # best, cells, stats (nodes, bound nodes, solves) and the bound table
    p, q, k, start_best = split
    assert search._prepare_split(p, q, k)[1](start_best) == _reference_split(p, q, partial(_tuple_kplanar_include, k), start_best, k)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 31) for q in range(1, 31) if p * q <= 30])
def test_kernel_matches_the_reference_dfs_on_every_small_grid(p, q):
    for k in range(9):
        assert search._prepare_split(p, q, k)[1](0) == _reference_split(p, q, partial(_tuple_kplanar_include, k), 0, k), k


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 6) for q in range(p, 11 - p)])
def test_floor_is_a_k_planar_drawing_below_the_optimum(p, q):
    # the floor's cells are checked by crossing_profile, not by the
    # kernel's masks; the reference DFS gives the bound table and the optimum
    cells = search._grid_cells(p, q)
    for k in range(9):
        floor, search_from = search._prepare_split(p, q, k)
        d = Drawing(p, q, frozenset(cells[t] for t in range(p * q) if floor >> t & 1))
        assert crossing_profile(d).max_per_edge <= k, k
        optimum, _, _, cap = _reference_split(p, q, partial(_tuple_kplanar_include, k), 0, k)
        assert cap[q] + 1 <= d.m <= optimum, k
        assert search_from(0)[2].floor == d.m, k


@pytest.mark.parametrize("n", range(2, 11))
def test_every_incumbent_below_the_optimum_finds_the_same_cells(n):
    # an admissible bound never prunes the first optimal leaf while the
    # incumbent is below it, so a higher start prunes more and finds the
    # same cells; the suffix solves do not depend on the start
    for p in range(1, n // 2 + 1):
        for k in range(9):
            _, search_from = search._prepare_split(p, n - p, k)
            want = search_from(0)
            best, cells, stats, _ = want
            for start in range(1, best):
                got, got_cells, got_stats, _ = search_from(start)
                assert (got, got_cells) == (best, cells), (p, k, start)
                assert (got_stats.bound_nodes, got_stats.solves) == (stats.bound_nodes, stats.solves)
                assert got_stats.nodes <= stats.nodes, (p, k, start)
            assert search_from(best)[:2] == (best, None), (p, k)
            assert search_from(0) == want, (p, k)  # each search counts its nodes afresh


def _kplanar_cells(cross: list[int], mask: int, k: int) -> bool:
    """Whether every cell of ``mask`` crosses at most k of its cells."""
    return all((cross[t] & mask).bit_count() <= k for t in range(len(cross)) if mask >> t & 1)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 13) for q in range(1, 13) if p * q <= 12])
def test_budget_bound_is_admissible(p, q):
    # random k-planar prefixes of the cells before pos, built as the DFS
    # builds them; the bound must be at least the most undecided cells that
    # a completion adds, found over every subset of the addable ones
    cross = _pair_cross_masks(search._grid_cells(p, q))
    n_cells = len(cross)
    rng = random.Random(p * 100 + q)
    pruned = 0
    for k in range(min((p - 1) * (q - 1), 6) + 1):
        for _ in range(100):
            pos = rng.randint(0, n_cells)
            chosen = 0
            for t in range(pos):
                if rng.random() < 0.6 and _kplanar_cells(cross, chosen | 1 << t, k):
                    chosen |= 1 << t
            free = 0
            for t in range(pos, n_cells):
                if _kplanar_cells(cross, chosen | 1 << t, k):
                    free |= 1 << t
            best = 0
            sub = free
            while sub:
                if sub.bit_count() > best and _kplanar_cells(cross, chosen | sub, k):
                    best = sub.bit_count()
                sub = (sub - 1) & free
            bound = _budget_bound(k, q, cross, chosen, free)
            assert best <= bound <= free.bit_count(), (k, pos, chosen)
            pruned += bound < free.bit_count()
    if p > 1 and q > 1 and p * q > 4:
        assert pruned  # the bound is tighter than the addable count somewhere


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 13) for q in range(1, 13) if p * q <= 12])
def test_layer_swap_second_route(p, q):
    # the p x q and q x p grids have the same optimum, and the cells of
    # either search, those of the transposed one mapped back, are an
    # allowed p x q drawing
    for c in [KPlanar(k) for k in range(4)] + [Quasiplanar(h) for h in range(2, 5)]:
        best, cells, _, _ = _split(p, q, c, 0)
        got, back, stats = _transposed_split(p, q, c, 0)
        assert (got, stats.p, stats.q) == (best, p, q), c
        for found in (cells, back):
            d = Drawing(p, q, frozenset(found))
            assert d.m == best, c
            if isinstance(c, KPlanar):
                assert is_k_planar(d, c.k) and brute_force_profile(d).max_per_edge <= c.k, c
            else:
                assert is_h_quasiplanar(d, c.h) and brute_force_mutually_crossing(d) < c.h, c


class TestMinimax:
    def test_k24(self):
        assert minimax_k(complete_bipartite(2, 4)) == 3

    def test_k23(self):
        assert minimax_k(complete_bipartite(2, 3)) == 2

    def test_path_is_crossing_free(self):
        p4 = Drawing(2, 2, frozenset([(1, 1), (2, 1), (2, 2)]))
        assert minimax_k(p4) == 0

    def test_k33(self):
        assert minimax_k(complete_bipartite(3, 3)) == 4

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            minimax_k(complete_bipartite(5, 6))

    @pytest.mark.parametrize("a,b,want", [(5, 5, 16), (4, 6, 15), (3, 7, 12), (2, 8, 7)])
    def test_ten_vertex_complete(self, a, b, want):
        assert minimax_k(complete_bipartite(a, b)) == want
        assert minimax_k(complete_bipartite(b, a)) == want

    # Value and search nodes (calls of the placement step).  The rotation
    # dedupe, the partial-count prune, the layer swap and the twin
    # reduction only save work, so only these counts see them: without the
    # swap, the 8 + 2 drawing scans 20,160 top orders instead of one, and
    # without the twin reduction K_{5,5} takes 64 nodes, K_{4,6} 17,
    # K_{3,7} 9, the 8 + 2 drawing 38 and the dense 5 + 5 ones 77, 353, 79
    # and 250.
    @pytest.mark.parametrize(
        "d,value,nodes",
        [
            (complete_bipartite(5, 5), 16, 5),
            (complete_bipartite(4, 6), 15, 6),
            (complete_bipartite(6, 4), 15, 6),
            (complete_bipartite(3, 7), 12, 7),
            (complete_bipartite(7, 3), 12, 7),
            (complete_bipartite(2, 8), 7, 8),
            (complete_bipartite(8, 2), 7, 8),
            (random_drawing(8, 2, 10, 0), 1, 26),
            (random_drawing(5, 5, 20, 0), 9, 41),
            (random_drawing(5, 5, 20, 1), 11, 38),
            (random_drawing(5, 5, 20, 2), 9, 46),
            (random_drawing(5, 5, 20, 3), 9, 52),
        ],
        ids=["K5,5", "K4,6", "K6,4", "K3,7", "K7,3", "K2,8", "K8,2", "random-8+2"]
        + [f"random-5+5-m20-s{s}" for s in range(4)],
    )
    def test_pinned_node_counts(self, d, value, nodes):
        assert _minimax(d) == (value, nodes)

    def test_isolated_vertices_do_not_count_toward_the_limit(self):
        assert _minimax(Drawing(2, 1_000_000, frozenset([(1, 1), (2, 2)]))) == (0, 2)
        assert minimax_k(Drawing(20, 20, complete_bipartite(5, 5).edges)) == 16
        with pytest.raises(ValueError, match="at most 10 vertices"):
            minimax_k(Drawing(20, 20, frozenset((i, i) for i in range(1, 7))))

    def test_zero_iff_caterpillar_forest(self):
        # independent characterization: crossing-free two-layer drawings
        # exist exactly for caterpillar forests
        for d in _small_drawings():
            assert (minimax_k(d) == 0) == is_caterpillar_forest(d), d

    def test_matches_brute_force_on_small_drawings(self):
        for d in _small_drawings():
            assert minimax_k(d) == brute_force_minimax(d), d

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_drawings(self, data):
        p = data.draw(st.integers(1, 7))
        q = data.draw(st.integers(1, 8 - p))
        m = data.draw(st.integers(0, p * q))
        d = random_drawing(p, q, m, data.draw(st.integers(0, 2**32 - 1)))
        assert minimax_k(d) == brute_force_minimax(d)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_drawings_with_twins(self, data):
        # copy the neighbours of random vertices onto fresh ones, so both
        # layers may hold twins, then shuffle both layers
        p = data.draw(st.integers(1, 6))
        q = data.draw(st.integers(1, 7 - p))
        m = data.draw(st.integers(0, p * q))
        edges = set(random_drawing(p, q, m, data.draw(st.integers(0, 2**32 - 1))).edges)
        for _ in range(data.draw(st.integers(1, 8 - p - q))):
            if data.draw(st.booleans()):
                u = data.draw(st.integers(1, p))
                p += 1
                edges |= {(p, x) for i, x in edges if i == u}
            else:
                v = data.draw(st.integers(1, q))
                q += 1
                edges |= {(i, q) for i, x in edges if x == v}
        pu = data.draw(st.permutations(range(1, p + 1)))
        pv = data.draw(st.permutations(range(1, q + 1)))
        d = Drawing(p, q, frozenset((pu[u - 1], pv[v - 1]) for u, v in edges))
        assert minimax_k(d) == brute_force_minimax(d), d

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_at_most_the_drawn_order(self, data):
        p = data.draw(st.integers(1, 9))
        q = data.draw(st.integers(1, 10 - p))
        m = data.draw(st.integers(0, p * q))
        d = random_drawing(p, q, m, data.draw(st.integers(0, 2**32 - 1)))
        assert minimax_k(d) <= crossing_profile(d).max_per_edge

    @pytest.mark.parametrize("n", range(2, 11))
    def test_max_density_witnesses_are_in_the_class(self, n):
        # a k-planar witness is a 2-layer k-planar graph, so some
        # re-ordering of it has no edge crossed more than k times
        for k in range(9):
            assert minimax_k(_max_density(n, KPlanar(k)).witness) <= k, (n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_relabelling_both_layers(self, data):
        p = data.draw(st.integers(1, 9))
        q = data.draw(st.integers(1, 10 - p))
        m = data.draw(st.integers(0, p * q))
        d = random_drawing(p, q, m, data.draw(st.integers(0, 2**32 - 1)))
        pu = data.draw(st.permutations(range(1, p + 1)))
        pv = data.draw(st.permutations(range(1, q + 1)))
        relabelled = Drawing(p, q, frozenset((pu[u - 1], pv[v - 1]) for u, v in d.edges))
        assert minimax_k(relabelled) == minimax_k(d)


def _small_drawings():
    """Every drawing on an a x b grid with a <= b and a + b <= 6."""
    for a in range(1, 4):
        for b in range(a, 7 - a):
            cells = [(u, v) for u in range(1, a + 1) for v in range(1, b + 1)]
            for r in range(len(cells) + 1):
                for chosen in combinations(cells, r):
                    yield Drawing(a, b, frozenset(chosen))


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

    @pytest.mark.parametrize(
        "args,digest",
        [
            ((250, 250, 2000, 1), "9b5521811394d1bd3bd469741d6821d0d03be75a1a5cc1f2b1aa837e6cf1647f"),
            ((400, 500, 100000, 1), "2a7c013911bccfdac2a76633c3a9d0d63bbb956682ebfbe5adb40d07e348d8fb"),
            ((8, 8, 30, 5), "91d8a4ef30fd2bab0c8d2b2f5c7a5955583b97c4cc485a531d9c34e0dace46fc"),
        ],
    )
    def test_pinned_edge_digests(self, args, digest):
        # sha256 of repr(sorted edges), for the analyze-large input, the
        # 100,000-edge CI input and a small one; any change to the sampling
        # or to Random.sample across Python versions shows here
        edges = random_drawing(*args).sorted_edges()
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    def test_seeds_differ(self):
        draws = {random_drawing(5, 5, 10, s).edges for s in range(20)}
        assert len(draws) > 1

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_drawing(2, 2, 5, 0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_parameters(self, value):
        with pytest.raises(ValueError):
            random_drawing(3, 3, value, 1)
        with pytest.raises(ValueError):
            random_drawing(value, 3, 1, 1)
        with pytest.raises(ValueError):
            random_drawing(3, value, 1, 1)
        # None would seed from the OS; True and 2.0 would act as 1 and 2
        with pytest.raises(ValueError):
            random_drawing(3, 3, 1, value)


class TestBipartiteGraph:
    # A bipartite graph is a two-layer Drawing; its validation is Drawing's.
    def test_validation(self):
        with pytest.raises(ValueError):
            Drawing(0, 2)
        with pytest.raises(ValueError):
            Drawing(2, 2, [(1, 3)])
        with pytest.raises(ValueError):
            Drawing(2, 2, [(1, 1), (1, 1)])

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_part_sizes(self, value):
        with pytest.raises(ValueError):
            Drawing(value, 2)
        with pytest.raises(ValueError):
            Drawing(2, value)

    @pytest.mark.parametrize(
        "edge", [(True, 1), (1, 1.0), (1.5, 1), ("1", 1), (1, None), (1,), (1, 1, 1)]
    )
    def test_rejects_non_integer_edges(self, edge):
        with pytest.raises(ValueError):
            Drawing(2, 2, [edge])
        with pytest.raises(ValueError):
            Drawing(2, 2, frozenset([edge]))

    def test_complete(self):
        d = complete_bipartite(2, 4)
        assert isinstance(d, Drawing)
        assert (d.n, d.m) == (6, 8)


def test_search_exhaustive_cross_check():
    # small-n ground truth by full enumeration over splits and subsets, up
    # to the 4 x 4 grid, which holds the exceptional 14-edge drawing at k = 5
    for n in range(3, 9):
        for cons in (KPlanar(1), KPlanar(2), KPlanar(3), KPlanar(5), Quasiplanar(2), Quasiplanar(3), Quasiplanar(4)):
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
            assert max_density(n, cons).best_m == _searched(n, cons).best_m == best, (n, cons)
