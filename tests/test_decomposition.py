"""Tests for the path decomposition builder and validator."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerlens.core import Drawing, crossing_profile
from layerlens.decomposition import (
    PathDecomposition,
    build_path_decomposition,
    decomposition_to_json,
    edge_order,
    path_width,
    related_vertices,
    validate_decomposition,
)
from layerlens.families import opt2planar, planar4_family, special_s
from layerlens.oracles import brute_force_bags
from layerlens.search import random_drawing


def complete_grid(p, q):
    return Drawing(p, q, frozenset((i, x) for i in range(1, p + 1) for x in range(1, q + 1)))


def bag(*labels):
    """Bag from labels such as "u1" and "v12"."""
    return frozenset((label[0], int(label[1:])) for label in labels)


@st.composite
def drawings(draw):
    p = draw(st.integers(1, 8))
    q = draw(st.integers(1, 8))
    cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
    return Drawing(p, q, frozenset(draw(st.sets(st.sampled_from(cells)))))


def oracle_decomposition(d):
    """Bags and orientation from the definition: the oracle's bags for both
    layer orientations, the narrower kept (ties to the top layer), then one
    singleton bag per isolated vertex."""
    flip = {"u": "v", "v": "u"}
    top = brute_force_bags(d)
    bottom = [frozenset((flip[layer], idx) for layer, idx in b) for b in brute_force_bags(d.transpose())]
    if max(map(len, bottom), default=0) < max(map(len, top), default=0):
        bags, orientation = bottom, "bottom"
    else:
        bags, orientation = top, "top"
    bags += [frozenset({("u", i)}) for i in range(1, d.p + 1) if all(e[0] != i for e in d.edges)]
    bags += [frozenset({("v", x)}) for x in range(1, d.q + 1) if all(e[1] != x for e in d.edges)]
    return tuple(bags), orientation


class TestEdgeOrder:
    def test_lexicographic(self):
        d = Drawing(2, 2, frozenset([(2, 1), (1, 2), (1, 1)]))
        assert edge_order(d) == [(1, 1), (1, 2), (2, 1)]

    def test_single_edge(self):
        assert edge_order(Drawing(1, 1, frozenset([(1, 1)]))) == [(1, 1)]

    def test_k22_grid(self):
        assert edge_order(complete_grid(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestRelatedVertices:
    def test_crossing_free_drawing_has_none(self):
        d = Drawing(3, 3, frozenset((i, i) for i in range(1, 4)))
        for pos in range(1, 4):
            assert related_vertices(d, pos) == set()

    def test_k22_position_two(self):
        # edge (1,2): v_1 is incident to the crossing edge (2,1) and its
        # incidence interval [1, 3] strictly contains position 2
        assert related_vertices(complete_grid(2, 2), 2) == {1}

    def test_k33_middle_edge_bounded_by_cap(self):
        d = complete_grid(3, 3)
        order = edge_order(d)
        pos = order.index((2, 2)) + 1
        assert len(related_vertices(d, pos)) <= 4

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            related_vertices(complete_grid(2, 2), 5)


class TestBuilder:
    def test_opt2planar_width_within_cap(self):
        d = opt2planar(2)
        pd = build_path_decomposition(d)
        assert pd.width <= 3
        assert validate_decomposition(d, pd).valid

    def test_k33_width_within_cap(self):
        d = complete_grid(3, 3)
        pd = build_path_decomposition(d)
        assert pd.width <= 5
        assert validate_decomposition(d, pd).valid

    def test_matching_width_one(self):
        d = Drawing(4, 4, frozenset((i, i) for i in range(1, 5)))
        pd = build_path_decomposition(d)
        assert pd.width == 1
        assert validate_decomposition(d, pd).valid

    def test_empty_drawing(self):
        d = Drawing(2, 3, frozenset())
        pd = build_path_decomposition(d)
        assert validate_decomposition(d, pd).valid
        assert pd.width == path_width(d) == 0
        assert sorted(pd.bags) == sorted(frozenset({v}) for v in [("u", 1), ("u", 2), ("v", 1), ("v", 2), ("v", 3)])

    def test_isolated_vertices_get_singleton_bags(self):
        d = Drawing(3, 3, frozenset([(1, 1)]))
        pd = build_path_decomposition(d)
        assert frozenset({("u", 2)}) in pd.bags
        assert frozenset({("v", 3)}) in pd.bags
        assert validate_decomposition(d, pd).valid

    def test_orientation_reported(self):
        assert build_path_decomposition(opt2planar(2)).orientation in ("top", "bottom")

    def test_disconnected_global_build_validates(self):
        # two components whose index ranges interleave
        d = Drawing(2, 2, frozenset([(1, 2), (2, 1)]))
        pd = build_path_decomposition(d)
        assert validate_decomposition(d, pd).valid

    def test_component_concatenation_validates(self):
        # decompose two blocks separately, shift the second, concatenate
        d1 = opt2planar(1)
        d2 = complete_grid(2, 2)
        combined = Drawing(
            d1.p + d2.p,
            d1.q + d2.q,
            frozenset(d1.edges) | frozenset((i + d1.p, x + d1.q) for i, x in d2.edges),
        )
        pd1 = build_path_decomposition(d1)
        pd2 = build_path_decomposition(d2)
        shifted = [
            frozenset((layer, idx + (d1.p if layer == "u" else d1.q)) for layer, idx in bag)
            for bag in pd2.bags
        ]
        pd = PathDecomposition(tuple(pd1.bags) + tuple(shifted))
        assert validate_decomposition(combined, pd).valid

    def test_random_drawings_validate_within_cap(self):
        rng = random.Random(31337)
        for _ in range(150):
            p, q = rng.randint(1, 8), rng.randint(1, 8)
            m = rng.randint(1, p * q)
            d = random_drawing(p, q, m, rng.randrange(2**32))
            pd = build_path_decomposition(d)
            rep = validate_decomposition(d, pd)
            k = crossing_profile(d).max_per_edge
            assert rep.valid, rep.violations
            assert pd.width <= k + 1
            assert all(len(b) <= k + 2 for b in pd.bags)

    def test_family_instances_validate(self):
        for d in (opt2planar(5), planar4_family(3), special_s()):
            pd = build_path_decomposition(d)
            rep = validate_decomposition(d, pd)
            k = crossing_profile(d).max_per_edge
            assert rep.valid
            assert pd.width <= k + 1


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(drawings())
    @example(Drawing(3, 4, frozenset()))
    @example(Drawing(4, 5, frozenset([(2, 3), (3, 1), (3, 4)])))
    @example(opt2planar(2))
    def test_bags_and_orientation_match_oracle(self, d):
        for dd in (d, d.transpose()):
            pd = build_path_decomposition(dd)
            assert (pd.bags, pd.orientation) == oracle_decomposition(dd)

    @settings(max_examples=200, deadline=None)
    @given(drawings())
    @example(Drawing(3, 4, frozenset()))
    @example(Drawing(4, 5, frozenset([(2, 3), (3, 1), (3, 4)])))
    def test_path_width_is_built_width(self, d):
        for dd in (d, d.transpose()):
            assert path_width(dd) == build_path_decomposition(dd).width

    @settings(max_examples=200, deadline=None)
    @given(drawings())
    @example(complete_grid(3, 3))
    def test_related_vertices_are_oracle_bag_minus_endpoints(self, d):
        for dd in (d, d.transpose()):
            for pos, ((s, t), b) in enumerate(zip(edge_order(dd), brute_force_bags(dd)), 1):
                assert {("v", y) for y in related_vertices(dd, pos)} == b - {("u", s), ("v", t)}

    def test_both_orientations_exercised(self):
        # the tie rule and the bottom orientation are both reachable
        assert build_path_decomposition(Drawing(1, 3, frozenset([(1, 1), (1, 2), (1, 3)]))).orientation == "top"
        assert build_path_decomposition(complete_grid(2, 4)).orientation == "bottom"


class TestValidator:
    def test_p4_violation(self):
        d = Drawing(1, 3, frozenset([(1, 1), (1, 2), (1, 3)]))
        bags = (
            frozenset({("u", 1), ("v", 1)}),
            frozenset({("u", 1), ("v", 2)}),
            frozenset({("u", 1), ("v", 3), ("v", 1)}),  # v1 in bags 1 and 3 only
        )
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert not rep.valid
        assert any(code == "P.4" for code, _ in rep.violations)

    def test_p3_violation(self):
        d = Drawing(1, 2, frozenset([(1, 1), (1, 2)]))
        bags = (frozenset({("u", 1)}), frozenset({("v", 1), ("v", 2)}))
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert not rep.valid
        assert any(code == "P.3" for code, _ in rep.violations)

    def test_p2_violation(self):
        d = Drawing(2, 1, frozenset([(1, 1)]))
        bags = (frozenset({("u", 1), ("v", 1)}),)
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert not rep.valid
        assert any(code == "P.2" for code, _ in rep.violations)

    def test_p1_violation(self):
        d = Drawing(1, 1, frozenset([(1, 1)]))
        bags = (frozenset({("u", 1), ("v", 1), ("v", 9)}),)
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert not rep.valid
        assert any(code == "P.1" for code, _ in rep.violations)

    def test_p1_first_bag_then_smallest_vertex(self):
        d = Drawing(2, 2, frozenset([(1, 1), (2, 2)]))
        bags = (bag("u1", "v1"), bag("u1", "v1", "v7", "u9"), bag("u2", "v2", "u3"))
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert rep.violations == (("P.1", "bag 2 contains u9 not in the graph"),)

    def test_p2_smallest_missing_vertex(self):
        d = Drawing(3, 2, frozenset([(1, 1)]))
        rep = validate_decomposition(d, PathDecomposition((bag("u1", "v1"),)))
        assert rep.violations == (("P.2", "vertex u2 appears in no bag"),)

    def test_p3_smallest_uncovered_edge(self):
        d = Drawing(2, 3, frozenset([(1, 1), (1, 3), (2, 2), (2, 3)]))
        bags = (bag("u1", "v1"), bag("u1"), bag("u2", "v2"), bag("v3"))
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert rep.violations == (("P.3", "edge (u1, v3) has no common bag"),)

    def test_p4_smallest_scattered_vertex(self):
        d = complete_grid(2, 2)
        bags = (bag("u1", "v1", "v2", "u2"), bag("u1"), bag("v2"), bag("u2", "v1", "v2"))
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert rep.violations == (("P.4", "bags containing u2 are not consecutive"),)

    def test_all_four_properties_at_once(self):
        d = Drawing(3, 3, frozenset([(1, 1), (2, 2), (3, 3)]))
        bags = (bag("u1", "v1", "v2"), bag("u2", "v4", "u4"), bag("u1", "v2"), bag("v4"))
        rep = validate_decomposition(d, PathDecomposition(bags))
        assert not rep.valid
        assert rep.violations == (
            ("P.1", "bag 2 contains u4 not in the graph"),
            ("P.2", "vertex u3 appears in no bag"),
            ("P.3", "edge (u2, v2) has no common bag"),
            ("P.4", "bags containing u1 are not consecutive"),
        )

    def test_report_width(self):
        d = complete_grid(2, 2)
        pd = build_path_decomposition(d)
        assert validate_decomposition(d, pd).width == pd.width


def test_json_schema():
    pd = build_path_decomposition(Drawing(2, 2, frozenset([(1, 1), (2, 2)])))
    data = decomposition_to_json(pd)
    assert set(data) == {"bags", "width"}
    assert data["width"] == pd.width
    assert all(isinstance(b, list) for b in data["bags"])
    flat = {v for bag in data["bags"] for v in bag}
    assert flat <= {"u1", "u2", "v1", "v2"}


# ("u", 11) and ("u1", 1) share the label "u11", and labels sort as
# strings, so "u10" comes before "u2"
_tags = st.sampled_from([("u", 1), ("u", 2), ("u", 10), ("u", 11), ("u1", 1), ("v", 0), ("v", 1), ("v", 12), ("v1", 2)])


@given(st.lists(st.frozensets(_tags, max_size=6), max_size=12))
@example([])
@example([frozenset(), frozenset({("u", 1)}), frozenset()])
@example([frozenset({("u", 1), ("v", 1)}), frozenset({("v", 1)}), frozenset({("u", 1), ("v", 1)})])
@example([frozenset({("u", 11), ("u1", 1)}), frozenset({("u1", 1)}), frozenset({("u", 11), ("u1", 1), ("v", 0)})])
def test_json_bags_match_sorted_labels(bags):
    pd = PathDecomposition(tuple(bags))
    expected = [sorted(f"{layer}{idx}" for layer, idx in b) for b in bags]
    assert decomposition_to_json(pd) == {"bags": expected, "width": pd.width}
