"""Tests for the drawing model and crossing engine."""

from __future__ import annotations

import dataclasses
import pickle
import random
import re
import reprlib
import tracemalloc
from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerlens.core import (
    Brick,
    BrickDecomposition,
    Drawing,
    brick_decomposition,
    crossing_profile,
    drawing_from_json,
    drawing_to_json,
    edges_cross,
    induced_subdrawing,
    is_h_quasiplanar,
    is_k_planar,
    mutually_crossing_number,
)
from layerlens.families import opt2planar, planar4_family, planar6_family, special_s
from layerlens.oracles import brute_force_mutually_crossing, brute_force_profile
from layerlens.search import KPlanar, Quasiplanar, random_drawing


def complete_grid(p: int, q: int) -> Drawing:
    return Drawing(p, q, frozenset((i, x) for i in range(1, p + 1) for x in range(1, q + 1)))


K33 = complete_grid(3, 3)


# ---------------------------------------------------------------------------
# Drawing construction
# ---------------------------------------------------------------------------


class TestDrawing:
    def test_derived_counts(self):
        d = Drawing(2, 3, frozenset([(1, 1), (2, 3)]))
        assert d.n == 5
        assert d.m == 2

    def test_rejects_empty_layer(self):
        with pytest.raises(ValueError):
            Drawing(0, 3, frozenset())

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="outside"):
            Drawing(2, 2, [(1, 3)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Drawing(2, 2, [(1, 1), (1, 1)])

    @pytest.mark.parametrize("p,q", [(2.5, 2), (2, 2.0), (True, 2), (2, False), ("2", 2), (None, 2)])
    def test_rejects_non_integer_layer_sizes(self, p, q):
        with pytest.raises(ValueError, match="integers"):
            Drawing(p, q, frozenset())

    @pytest.mark.parametrize("edge", [(True, 1), (1, True), (1.0, 1), (1, "1"), (1.5, 1), (1, None), (1,)])
    def test_rejects_non_integer_edge_coordinates(self, edge):
        with pytest.raises(ValueError, match="integers"):
            Drawing(2, 2, [edge])
        with pytest.raises(ValueError, match="integers"):
            Drawing(2, 2, frozenset([edge]))

    def test_names_the_first_offending_edge_in_order(self):
        with pytest.raises(ValueError, match=re.escape("edge (1, 3) lies outside the 2x2 grid")):
            Drawing(2, 2, [(1, 1), (1, 3), (True, 1)])
        with pytest.raises(ValueError, match=re.escape("edge (True, 1) is not a pair of integers")):
            Drawing(2, 2, [(1, 1), (True, 1), (1, 3)])

    @pytest.mark.parametrize(
        "args,message",
        [
            ((2, 2, [(1, 10**5000)]), "edge (1, <16610-bit int>) lies outside the 2x2 grid"),
            ((10**5000, 2, [(1, 3)]), "edge (1, 3) lies outside the <16610-bit int>x2 grid"),
            ((-(10**5000), 1), "layer sizes must be positive, got p=<negative 16610-bit int>, q=1"),
            (([10**5000], 2), "layer sizes must be integers, got p=[<16610-bit int>], q=2"),
            ((2, 2, [(1, 2, 10**5000)]), "edge (1, 2, <16610-bit int>) is not a pair of integers"),
        ],
        ids=["edge", "grid", "negative", "nested", "triple"],
    )
    def test_messages_show_a_huge_int_by_its_size(self, args, message):
        # its decimal form has more digits than int-to-str conversion allows
        with pytest.raises(ValueError, match=re.escape(message)):
            Drawing(*args)
        with pytest.raises(ValueError, match=re.escape("edge [1, 2, <16610-bit int>] is not an [i, x] pair")):
            drawing_from_json({"p": 2, "q": 2, "edges": [[1, 2, 10**5000]]})

    def test_non_tuple_edges_keep_their_errors(self):
        with pytest.raises(TypeError):
            Drawing(2, 2, frozenset([frozenset([1, 2])]))
        with pytest.raises(ValueError, match=re.escape("edge (1, 2, 1) is not a pair of integers")):
            Drawing(2, 2, [[1, 1], [1, 2, 1]])
        assert Drawing(2, 2, [[1, 2], [2, 1]]).edges == frozenset([(1, 2), (2, 1)])

    def test_accepts_int_subclasses_other_than_bool(self):
        class Index(IntEnum):
            ONE = 1
            TWO = 2

        for edges in ([(Index.ONE, Index.TWO), (2, 1)], frozenset([(Index.TWO, 1)])):
            d = Drawing(2, 2, edges)
            assert d.edges == frozenset(edges)

    def test_isolated_vertices_allowed(self):
        d = Drawing(4, 4, frozenset([(1, 1)]))
        assert d.n == 8

    def test_json_round_trip(self):
        d = Drawing(3, 4, frozenset([(1, 2), (3, 4), (2, 1)]))
        assert drawing_from_json(drawing_to_json(d)) == d

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            drawing_from_json({"p": 2, "q": 2})
        with pytest.raises(ValueError):
            drawing_from_json({"p": 2, "q": 2, "edges": [[1]]})
        with pytest.raises(ValueError):
            drawing_from_json({"p": 2, "q": 2, "edges": [[1, 1], [1, 1]]})


class Index(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


Pair = namedtuple("Pair", "i x")


def reference_edges(p: int, q: int, edges) -> frozenset:
    """Drawing's edge validation written out apart from core's helpers, one
    edge at a time: the frozenset a drawing stores, or the error it
    raises."""
    if not isinstance(edges, frozenset):
        edges = [tuple(e) for e in edges]
    def is_int(c) -> bool:
        return isinstance(c, int) and not isinstance(c, bool)

    for e in edges:
        if len(e) != 2 or not (is_int(e[0]) and is_int(e[1])):
            raise ValueError(f"edge {reprlib.repr(e)} is not a pair of integers")
        i, x = e
        if not (1 <= i <= p and 1 <= x <= q):
            raise ValueError(f"edge {reprlib.repr(e)} lies outside the {p}x{q} grid")
    frozen = frozenset(edges)
    if len(frozen) != len(edges):
        raise ValueError("duplicate edges are not allowed")
    return frozen


def _outcome(build):
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def edge_inputs(draw):
    """(p, q, edges): lists or frozensets of grid pairs in which up to two
    edges are odd.  Odd coordinates are 0, p + 1, q + 1, big ints, bools,
    IntEnum members, floats, strs and None; odd edges are pairs with one
    or two of them, 1- and 3-tuples, and list and frozenset edges.  List
    input may repeat an edge."""
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(1, p), st.integers(1, q))
    odd_coord = st.one_of(
        st.sampled_from([0, p + 1, q + 1]),
        st.sampled_from([-1, 2**70, True, False, *Index, "1", None]),
        st.floats(-1, 5, allow_nan=False),
    )
    coord = st.one_of(st.integers(1, 4), odd_coord)
    odd_edge = st.one_of(
        st.tuples(odd_coord, st.integers(1, q)),
        st.tuples(st.integers(1, p), odd_coord),
        st.tuples(coord, coord),
        st.tuples(coord),
        st.tuples(coord, coord, coord),
        st.frozensets(st.integers(1, 4), min_size=1, max_size=3),
    )
    edges = draw(st.lists(pair, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        edges.insert(draw(st.integers(0, len(edges))), draw(odd_edge))
    if draw(st.booleans()):
        return p, q, frozenset(edges)
    if draw(st.booleans()):
        # list edges are unhashable, so only list input can hold them
        edges.insert(draw(st.integers(0, len(edges))), draw(st.lists(coord, min_size=1, max_size=3)))
    if edges and draw(st.booleans()):
        edges.append(edges[draw(st.integers(0, len(edges) - 1))])
    return p, q, edges


@given(edge_inputs())
@example((2, 3, [(1, 1), (1, 4)]))
@example((2, 3, [(0, 1), (2, 3)]))
@example((2, 3, frozenset([(3, 1), (1, 1)])))
@example((2, 3, frozenset([(1, 0)])))
@example((2, 3, [(1, 2**70)]))
@example((2, 3, [(1, True)]))
@example((2, 3, [(Index.TWO, 3), (1, 2)]))
@example((2, 3, frozenset([(1, Index.THREE)])))
@example((2, 3, [(1, 1), (1.0, 2)]))
@example((2, 3, [(1, 1), (1, 1)]))
@example((2, 3, [(1, 1), (3, 1), (1, 1)]))
@example((2, 3, frozenset([frozenset([1, 2])])))
@example((2, 3, [[1, 2], [2, 3, 1]]))
@example((2, 3, frozenset([Pair(1, 2), (2, 3)])))
@example((2, 3, frozenset([(Index.THREE, 1)])))
@example((2, 3, [(True, 9)]))
@example((2, 3, [(1,)]))
@settings(max_examples=400, deadline=None)
def test_drawing_validates_like_the_per_edge_reference(case):
    p, q, edges = case
    want = _outcome(lambda: reference_edges(p, q, edges))
    got = _outcome(lambda: Drawing(p, q, edges).edges)
    assert got == want
    if isinstance(want, frozenset):
        assert Drawing(p, q, edges).sorted_edges() == sorted(want)


def reference_from_json(data) -> Drawing:
    """drawing_from_json written out apart from core's helpers: every
    edge's shape checked, then the drawing built."""
    if not isinstance(data, dict):
        raise ValueError("drawing JSON must be an object")
    for key in ("p", "q", "edges"):
        if key not in data:
            raise ValueError(f"drawing JSON is missing {key!r}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of [i, x] pairs")
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"edge {reprlib.repr(e)} is not an [i, x] pair")
    return Drawing(data["p"], data["q"], edges)


@st.composite
def json_inputs(draw):
    """Drawing dicts whose p, q or edges may be bad: up to three odd edges
    among grid pairs, an odd edge being a list of another length, a list
    or tuple of odd coordinates, or a non-sequence that Drawing would
    still read as a pair (a two-key dict, a set, bytes) or would not (a
    str, an int, None)."""
    p = draw(st.one_of(st.integers(1, 4), st.sampled_from([0, True, "2", None])))
    q = draw(st.integers(1, 4))
    top = p if type(p) is int and p > 0 else 3
    pair = st.lists(st.integers(1, 4), min_size=2, max_size=2).filter(lambda e: e[0] <= top and e[1] <= q)
    coord = st.one_of(st.integers(0, 5), st.sampled_from([True, 1.0, "1", None, Index.TWO]))
    small = st.integers(1, 3)
    odd_edge = st.one_of(
        st.lists(coord, max_size=3),
        st.tuples(coord, coord),
        st.dictionaries(small, small, min_size=2, max_size=2),
        st.dictionaries(st.sampled_from("ix"), small, min_size=2, max_size=2),
        st.sets(small, min_size=2, max_size=2),
        st.builds(bytes, st.lists(small, min_size=2, max_size=2)),
        st.sampled_from(["12", 12, None]),
    )
    edges = draw(st.lists(pair, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        edges.insert(draw(st.integers(0, len(edges))), draw(odd_edge))
    data = {"p": p, "q": q, "edges": edges if draw(st.integers(0, 9)) else tuple(edges)}
    if not draw(st.integers(0, 9)):
        del data[draw(st.sampled_from(["p", "q", "edges"]))]
    return data


@given(json_inputs())
@example({"p": 2, "q": 2, "edges": [{1: 0, 2: 0}]})
@example({"p": 2, "q": 2, "edges": [[1, "a"], [1, 2, 3]]})
@example({"p": "2", "q": 2, "edges": [[1, 1], [1]]})
@example({"p": 2, "q": 2, "edges": [[1, 1], (2, 2), b"\x01\x02"]})
@settings(max_examples=400, deadline=None)
def test_drawing_from_json_matches_the_shape_first_reference(data):
    assert _outcome(lambda: drawing_from_json(data)) == _outcome(lambda: reference_from_json(data))


def test_kept_edge_order_is_invisible():
    d = random_drawing(6, 7, 20, 3)
    fresh = Drawing(6, 7, frozenset(d.edges))
    listed = Drawing(6, 7, sorted(d.edges))  # kept as given, never sorted
    first = d.sorted_edges()
    assert first == sorted(d.edges)
    first.reverse()
    first.append((1, 1))
    assert d.sorted_edges() == sorted(d.edges)
    assert d.sorted_edges() is not d.sorted_edges()
    assert "_order" in vars(listed) and "_order" not in vars(fresh)
    for kept in (d, listed):
        assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(kept, proto) == pickle.dumps(fresh, proto)
            back = pickle.loads(pickle.dumps(kept, proto))
            assert back == kept and "_order" not in vars(back) and back.sorted_edges() == sorted(d.edges)
    for other in (dataclasses.replace(d), d.transpose().transpose(), d.rotate().rotate()):
        assert other == d and other.sorted_edges() == sorted(d.edges)
    swapped = dataclasses.replace(d, p=7, edges=frozenset([(7, 1)]))
    assert swapped.sorted_edges() == [(7, 1)]


class TestKeptOrder:
    """Edges that come in lexicographic order are kept as they come; the
    order is checked only after every edge is."""

    EDGES = [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2)]

    def test_sorted_list_keeps_its_order(self):
        for edges in (self.EDGES, tuple(self.EDGES), iter(self.EDGES), [list(e) for e in self.EDGES]):
            d = Drawing(3, 3, edges)
            assert vars(d)["_order"] == tuple(self.EDGES)
            assert d.sorted_edges() == self.EDGES

    @pytest.mark.parametrize("kind", ["unsorted list", "set", "frozenset"])
    def test_other_edges_sort_on_first_use(self, kind):
        edges = {"unsorted list": self.EDGES[::-1], "set": set(self.EDGES), "frozenset": frozenset(self.EDGES)}[kind]
        assert list(edges) != self.EDGES  # a set of int pairs iterates in hash order
        d = Drawing(3, 3, edges)
        assert "_order" not in vars(d)
        assert d.sorted_edges() == self.EDGES
        assert vars(d)["_order"] == tuple(self.EDGES)

    def test_sorted_list_with_a_duplicate(self):
        with pytest.raises(ValueError, match="^duplicate edges are not allowed$"):
            Drawing(3, 3, [(1, 1), (1, 3), (1, 3), (2, 1)])

    @pytest.mark.parametrize(
        "last,message",
        [
            ((3, 4), "edge (3, 4) lies outside the 3x3 grid"),
            ((4, 1), "edge (4, 1) lies outside the 3x3 grid"),
            ((4,), "edge (4,) is not a pair of integers"),
            ((3, 1, 1), "edge (3, 1, 1) is not a pair of integers"),
            ((3, "2"), "edge (3, '2') is not a pair of integers"),
            ((3, True), "edge (3, True) is not a pair of integers"),
        ],
    )
    def test_sorted_list_with_a_bad_last_edge(self, last, message):
        # the list is in order up to the bad edge, which shares its top
        # index with the one before, so comparing the two before every edge
        # is checked would raise TypeError on (3, "2")
        edges = [(1, 1), (2, 3), (3, 1), last]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Drawing(3, 3, edges)


# ---------------------------------------------------------------------------
# edges_cross
# ---------------------------------------------------------------------------


class TestEdgesCross:
    def test_minimal_interleave(self):
        assert edges_cross((1, 2), (2, 1))

    def test_nested_parallel(self):
        assert not edges_cross((1, 1), (2, 2))

    def test_adjacent_edges_never_cross(self):
        assert not edges_cross((1, 1), (1, 2))
        assert not edges_cross((1, 2), (3, 2))

    def test_self(self):
        assert not edges_cross((2, 2), (2, 2))

    @given(st.tuples(st.integers(1, 9), st.integers(1, 9)), st.tuples(st.integers(1, 9), st.integers(1, 9)))
    def test_symmetric(self, e1, e2):
        assert edges_cross(e1, e2) == edges_cross(e2, e1)


# ---------------------------------------------------------------------------
# crossing_profile
# ---------------------------------------------------------------------------


class TestCrossingProfile:
    def test_k22(self):
        prof = crossing_profile(complete_grid(2, 2))
        assert prof.total == 1
        assert prof.max_per_edge == 1

    def test_k33(self):
        prof = crossing_profile(K33)
        assert prof.total == 9
        assert prof.max_per_edge == 4
        assert prof.per_edge[(2, 2)] == 2

    def test_complete_grid_closed_form(self):
        # (i-1)(q-x) + (p-i)(x-1) crossings per edge in the full grid
        for p, q in [(2, 5), (4, 4), (3, 6)]:
            prof = crossing_profile(complete_grid(p, q))
            for (i, x), c in prof.per_edge.items():
                assert c == (i - 1) * (q - x) + (p - i) * (x - 1)

    def test_matching_is_crossing_free(self):
        d = Drawing(5, 5, frozenset((i, i) for i in range(1, 6)))
        prof = crossing_profile(d)
        assert prof.total == 0
        assert prof.max_per_edge == 0

    def test_empty(self):
        prof = crossing_profile(Drawing(2, 2, frozenset()))
        assert prof.total == 0 and prof.max_per_edge == 0 and prof.per_edge == {}

    def test_matches_oracle_on_random_drawings(self):
        rng = random.Random(4242)
        for _ in range(200):
            p, q = rng.randint(1, 9), rng.randint(1, 9)
            m = rng.randint(0, p * q)
            d = random_drawing(p, q, m, rng.randrange(2**32))
            fast, slow = crossing_profile(d), brute_force_profile(d)
            assert fast.per_edge == slow.per_edge
            assert fast.total == slow.total
            assert fast.max_per_edge == slow.max_per_edge

    def test_matches_oracle_on_large_drawings(self):
        # the O(m log m) path against the pair loop up to m = 200
        rng = random.Random(11)
        for _ in range(20):
            p, q = rng.randint(10, 15), rng.randint(10, 15)
            m = rng.randint(100, min(200, p * q))
            d = random_drawing(p, q, m, rng.randrange(2**32))
            fast, slow = crossing_profile(d), brute_force_profile(d)
            assert fast.per_edge == slow.per_edge
            assert fast.total == slow.total

    def test_matches_oracle_on_sparse_bottom_indices(self):
        # few edges spread over a huge bottom layer: the trees work on ranks
        rng = random.Random(7)
        for _ in range(50):
            p, q = rng.randint(1, 6), 10**6
            cells = {(rng.randint(1, p), rng.choice([1, q, rng.randint(1, q)])) for _ in range(rng.randint(1, 12))}
            d = Drawing(p, q, frozenset(cells))
            fast, slow = crossing_profile(d), brute_force_profile(d)
            assert fast.per_edge == slow.per_edge
            assert fast.total == slow.total

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 9), (9, 1)])
    def test_matches_oracle_on_a_single_top_or_bottom_vertex(self, p, q):
        # one same-top group, or every edge at one rank
        rng = random.Random(p * 100 + q)
        for m in range(p * q + 1):
            d = random_drawing(p, q, m, rng.randrange(2**32))
            assert crossing_profile(d) == brute_force_profile(d)

    def test_matches_oracle_on_complete_grids(self):
        for p in range(1, 9):
            for q in range(1, 9):
                d = complete_grid(p, q)
                assert crossing_profile(d) == brute_force_profile(d)

    def test_matches_oracle_on_many_tops_sharing_few_sparse_bottoms(self):
        # many same-top groups over three bottom ranks: the terms for edges
        # of equal rank before and after carry the whole count
        rng = random.Random(5)
        for _ in range(30):
            p, q = rng.randint(2, 40), 10**6
            bottoms = rng.sample(range(1, q + 1), 3)
            cells = {(i, x) for i in range(1, p + 1) for x in bottoms if rng.random() < 0.6}
            d = Drawing(p, q, frozenset(cells))
            assert crossing_profile(d) == brute_force_profile(d)

    def test_memory_follows_edges_not_layer_size(self):
        d = Drawing(2, 10**6, frozenset([(1, 10**6), (2, 1)]))
        tracemalloc.start()
        try:
            prof = crossing_profile(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.total == 1
        assert peak < 1_000_000

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_per_edge_sums_to_twice_total(self, data):
        p = data.draw(st.integers(1, 7))
        q = data.draw(st.integers(1, 7))
        cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
        edges = data.draw(st.sets(st.sampled_from(cells)))
        d = Drawing(p, q, frozenset(edges))
        prof = crossing_profile(d)
        assert sum(prof.per_edge.values()) == 2 * prof.total
        assert list(prof.per_edge) == d.sorted_edges()


# ---------------------------------------------------------------------------
# k-planarity / quasiplanarity
# ---------------------------------------------------------------------------


class TestPlanarityPredicates:
    def test_k33_is_4_planar_not_3_planar(self):
        assert is_k_planar(K33, 4)
        assert not is_k_planar(K33, 3)

    def test_empty_is_0_planar(self):
        assert is_k_planar(Drawing(1, 1, frozenset()), 0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            is_k_planar(K33, -1)

    @pytest.mark.parametrize("bad", [True, False, 3.5, 2.0, None, "3"])
    def test_parameters_checked_as_the_constraints_check_them(self, bad):
        # each predicate raises what its constraint class raises, for the
        # special S drawing and an empty one alike
        for d in (special_s(), Drawing(1, 1)):
            for predicate, constraint in ((is_k_planar, KPlanar), (is_h_quasiplanar, Quasiplanar)):
                with pytest.raises(ValueError) as expected:
                    constraint(bad)
                with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                    predicate(d, bad)

    def test_k33_mutually_crossing(self):
        assert mutually_crossing_number(K33) == 3

    def test_k23_mutually_crossing(self):
        assert mutually_crossing_number(complete_grid(2, 3)) == 2

    def test_crossing_free_matching(self):
        d = Drawing(3, 3, frozenset((i, i) for i in range(1, 4)))
        assert mutually_crossing_number(d) == 1
        assert mutually_crossing_number(Drawing(1, 1, frozenset())) == 0

    def test_quasiplanarity(self):
        assert not is_h_quasiplanar(K33, 3)
        assert is_h_quasiplanar(complete_grid(2, 3), 3)
        assert is_h_quasiplanar(K33, K33.m + 1)
        with pytest.raises(ValueError):
            is_h_quasiplanar(K33, 1)

    def test_matches_clique_oracle(self):
        rng = random.Random(999)
        for _ in range(300):
            p, q = rng.randint(1, 7), rng.randint(1, 7)
            m = rng.randint(0, min(20, p * q))
            d = random_drawing(p, q, m, rng.randrange(2**32))
            assert mutually_crossing_number(d) == brute_force_mutually_crossing(d)


# ---------------------------------------------------------------------------
# bricks
# ---------------------------------------------------------------------------


class TestBricks:
    def test_k33_single_brick(self):
        bd = brick_decomposition(K33)
        assert bd.planar_edges == ((1, 1), (3, 3))
        assert len(bd.bricks) == 1
        assert bd.bricks[0].drawing == K33

    def test_single_edge_no_brick(self):
        bd = brick_decomposition(Drawing(1, 1, frozenset([(1, 1)])))
        assert bd.planar_edges == ((1, 1),)
        assert bd.bricks == ()

    def test_opt2planar_chain(self):
        bd = brick_decomposition(opt2planar(2))
        assert len(bd.bricks) == 2
        for brick in bd.bricks:
            assert brick.drawing == complete_grid(2, 3)

    def test_planar_edges_have_zero_crossings_and_none_missed(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q = rng.randint(1, 7), rng.randint(1, 7)
            d = random_drawing(p, q, rng.randint(0, p * q), rng.randrange(2**32))
            prof = crossing_profile(d)
            bd = brick_decomposition(d)
            assert set(bd.planar_edges) == {e for e, c in prof.per_edge.items() if c == 0}

    def test_consecutive_bricks_share_exactly_one_planar_edge(self):
        bd = brick_decomposition(opt2planar(4))
        for left, right in zip(bd.bricks, bd.bricks[1:]):
            assert (left.i_hi, left.x_hi) == (right.i_lo, right.x_lo)

    @settings(max_examples=300)
    @given(st.data())
    def test_one_sweep_matches_induced_subdrawings(self, data):
        # sparse drawings have several planar edges, hence several bricks
        p, q = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
        edges = data.draw(st.sets(st.sampled_from(cells), max_size=data.draw(st.sampled_from([3, 8, p * q]))))
        for d in (Drawing(p, q, frozenset(edges)), opt2planar(p), planar4_family(q), planar6_family(p + 1)):
            planar = [e for e, c in crossing_profile(d).per_edge.items() if c == 0]
            bricks = [
                Brick(i1, i2, x1, x2, induced_subdrawing(d, i1, i2, x1, x2))
                for (i1, x1), (i2, x2) in zip(planar, planar[1:])
            ]
            assert brick_decomposition(d) == BrickDecomposition(tuple(planar), tuple(bricks))

    def test_induced_subdrawing_window_check(self):
        with pytest.raises(ValueError):
            induced_subdrawing(K33, 0, 2, 1, 2)
