"""Tests for the path decomposition builder and validator."""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerlens.core import Drawing, crossing_profile
from layerlens.decomposition import (
    DecompositionReport,
    PathDecomposition,
    _transitions,
    build_path_decomposition,
    decomposition_to_json,
    edge_order,
    path_width,
    related_vertices,
    validate_decomposition,
)
from layerlens.families import opt2planar, planar4_family, planar6_family, special_s
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


# Reference implementations: the builder, validator and JSON writer as
# they were before decompositions recorded their sweep's events.  Every
# bag is a frozenset, and the validator and the writer take each pair of
# neighbouring bags apart with two frozenset differences.


def reference_build(d):
    order = edge_order(d)
    bottom = sorted((x, i) for i, x in d.edges)
    u = {i: ("u", i) for _, i in bottom}
    v = {x: ("v", x) for _, x in order}

    def sweep(order, tags):
        first, last = {}, {}
        for pos, (_, y) in enumerate(order, 1):
            first.setdefault(y, pos)
            last[y] = pos
        active = {}
        for pos, (s, t) in enumerate(order, 1):
            if last[t] == pos:
                active.pop(t, None)
            yield s, t, active
            if first[t] == pos < last[t]:
                active[t] = tags[t]

    def largest(order, tags):
        return max(len(active) + 2 - (t in active) for _, t, active in sweep(order, tags))

    if d.m and largest(bottom, u) < largest(order, v):
        order, primary, secondary, orientation = bottom, v, u, "bottom"
    else:
        primary, secondary, orientation = u, v, "top"
    bags = [frozenset((primary[s], secondary[t], *active.values())) for s, t, active in sweep(order, secondary)]
    bags += [frozenset({("u", i)}) for i in range(1, d.p + 1) if i not in u]
    bags += [frozenset({("v", x)}) for x in range(1, d.q + 1) if x not in v]
    return PathDecomposition(tuple(bags), orientation)


def reference_validate(d, pd):
    verts = {("u", i) for i in range(1, d.p + 1)} | {("v", x) for x in range(1, d.q + 1)}
    violations = []
    runs = {}
    prev = frozenset()
    for idx, b in enumerate(pd.bags):
        entering = b - prev
        for vert in prev - b:
            runs[vert][-1][1] = idx - 1
        for vert in entering:
            runs.setdefault(vert, []).append([idx, idx])
        if not violations and not verts.issuperset(entering):
            who = min(entering - verts)
            violations.append(("P.1", f"bag {idx + 1} contains {who[0]}{who[1]} not in the graph"))
        prev = b
    for vert in prev:
        runs[vert][-1][1] = len(pd.bags) - 1

    def meet(a, b):
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

    missing = verts.difference(runs)
    if missing:
        who = min(missing)
        violations.append(("P.2", f"vertex {who[0]}{who[1]} appears in no bag"))
    for i, x in d.sorted_edges():
        if not meet(runs.get(("u", i), []), runs.get(("v", x), [])):
            violations.append(("P.3", f"edge (u{i}, v{x}) has no common bag"))
            break
    scattered = [vert for vert, where in runs.items() if len(where) > 1]
    if scattered:
        who = min(scattered)
        violations.append(("P.4", f"bags containing {who[0]}{who[1]} are not consecutive"))
    return DecompositionReport(not violations, pd.width, tuple(violations))


def reference_to_json(pd):
    labels = {vert: f"{vert[0]}{vert[1]}" for vert in frozenset().union(*pd.bags)}
    bags = []
    current = []
    prev = frozenset()
    for b in pd.bags:
        for vert in prev - b:
            del current[bisect_left(current, labels[vert])]
        for vert in b - prev:
            insort(current, labels[vert])
        bags.append(current[:])
        prev = b
    return {"bags": bags, "width": pd.width}


@st.composite
def event_inputs(draw):
    """Random drawings up to 9 x 9 (isolated vertices and edgeless ones
    among them), opt2planar and planar6_family chains, and edgeless
    drawings, each in either orientation."""
    p, q = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
    d = draw(
        st.one_of(
            st.builds(Drawing, st.just(p), st.just(q), st.frozensets(st.sampled_from(cells))),
            st.builds(opt2planar, st.integers(1, 6)),
            st.builds(planar6_family, st.integers(2, 4)),
            st.builds(Drawing, st.integers(1, 12), st.integers(1, 12), st.just(frozenset())),
        )
    )
    return d.transpose() if draw(st.booleans()) else d


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


class TestEventRoute:
    """A built decomposition, read through its recorded events, against the
    frozenset-difference reference and against the same bags given by hand."""

    @settings(max_examples=300, deadline=None)
    @given(event_inputs(), drawings())
    @example(Drawing(3, 4, frozenset()), Drawing(3, 4, frozenset()))
    @example(Drawing(3, 3, frozenset([(2, 2)])), Drawing(2, 2, frozenset([(1, 1)])))
    @example(complete_grid(2, 4), complete_grid(2, 4))
    @example(opt2planar(3), Drawing(1, 1, frozenset([(1, 1)])))
    def test_matches_reference(self, d, other):
        pd, ref = build_path_decomposition(d), reference_build(d)
        assert pd.bags == ref.bags
        assert (pd.width, pd.orientation, pd.bag_count) == (ref.width, ref.orientation, len(ref.bags))
        assert pd == ref and hash(pd) == hash(ref)
        assert decomposition_to_json(pd) == reference_to_json(ref)
        # against its own drawing the report is clean; against another one
        # the violations and their witnesses must agree too
        for dd in (d, other):
            assert validate_decomposition(dd, pd) == reference_validate(dd, ref)

    @settings(max_examples=200, deadline=None)
    @given(event_inputs(), drawings())
    @example(Drawing(2, 3, frozenset()), Drawing(2, 3, frozenset()))
    def test_rebuilt_from_bags_reads_the_same(self, d, other):
        pd = build_path_decomposition(d)
        report, data = validate_decomposition(d, pd), decomposition_to_json(pd)
        again = PathDecomposition(pd.bags, pd.orientation)
        assert validate_decomposition(d, again) == report
        assert decomposition_to_json(again) == data
        assert validate_decomposition(other, again) == validate_decomposition(other, pd)
        assert (again.width, again.bag_count) == (pd.width, pd.bag_count)

    def test_bags_replayed_once(self):
        pd = build_path_decomposition(opt2planar(3))
        assert pd.bags is pd.bags

    def test_repr_and_equality_with_other_types(self):
        pd = build_path_decomposition(Drawing(1, 2, frozenset([(1, 1), (1, 2)])))
        assert repr(pd) == f"PathDecomposition(bags={pd.bags!r}, orientation='top')"
        # __eq__ returns NotImplemented for a foreign type, so == falls back to identity
        assert pd.__eq__(pd.bags) is NotImplemented
        assert pd != pd.bags and not pd == 1

    def test_bag_count_makes_no_bag(self):
        d = Drawing(2, 10**6, frozenset([(1, 1), (2, 2)]))
        pd = build_path_decomposition(d)
        assert (pd.bag_count, pd.width, pd.orientation) == (10**6, 1, "top")
        assert pd._bags is None


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

    def test_p1_entry_not_a_pair(self):
        d = Drawing(1, 1, frozenset([(1, 1)]))
        pd = PathDecomposition((frozenset({("u", 1), ("v", 1), "x"}),))
        assert validate_decomposition(d, pd).violations == (("P.1", "bag 1 contains 'x' not in the graph"),)

    def test_p1_string_entry_is_named_by_its_repr(self):
        d = Drawing(1, 1, frozenset([(1, 1)]))
        pd = PathDecomposition((frozenset({("u", 1), ("v", 1), "u1"}),))
        assert validate_decomposition(d, pd).violations == (("P.1", "bag 1 contains 'u1' not in the graph"),)

    def test_p1_entries_that_do_not_compare(self):
        d = Drawing(1, 1, frozenset([(1, 1)]))
        pd = PathDecomposition((bag("u1", "v1"), frozenset({("u", 1), ("w", 3), 7})))
        assert validate_decomposition(d, pd).violations == (("P.1", "bag 2 contains 7 not in the graph"),)

    def test_p4_entries_that_do_not_compare(self):
        d = Drawing(1, 1, frozenset([(1, 1)]))
        pd = PathDecomposition((frozenset({("u", 1), ("v", 1), ("w", 3), 7}), bag("u1"), frozenset({("w", 3), 7})))
        assert validate_decomposition(d, pd).violations == (
            ("P.1", "bag 1 contains 7 not in the graph"),
            ("P.4", "bags containing 7 are not consecutive"),
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
    # the steps and width recorded at construction, against the definition
    assert pd.width == max((len(b) for b in bags), default=0) - 1
    assert pd.bag_count == len(bags)
    assert list(_transitions(pd)) == [(prev - b, b - prev) for prev, b in zip([frozenset(), *bags], bags)]


@pytest.mark.parametrize(
    "bags,expected",
    [
        ((frozenset({"x"}),), [["'x'"]]),
        ((bag("u1", "v1"), frozenset({("u", 1), ("w", 3), 7})), [["u1", "v1"], ["7", "u1", "w3"]]),
        ((frozenset({("u", 1), "u1", "xyz"}),), [["'u1'", "'xyz'", "u1"]]),
    ],
)
def test_json_labels_foreign_entries_by_repr(bags, expected):
    # the entries the validator reports under P.1 are written, not raised on
    pd = PathDecomposition(bags)
    assert decomposition_to_json(pd) == {"bags": expected, "width": pd.width}


def test_json_form_encodes_no_label(monkeypatch):
    # only the streamed writer needs each label's JSON text; the dict form
    # is encoded by whoever dumps it
    pd = build_path_decomposition(random_drawing(12, 12, 40, 3))
    expected = reference_to_json(pd)

    def fail(*args, **kwargs):
        raise AssertionError("decomposition_to_json called json.dumps")

    monkeypatch.setattr(json, "dumps", fail)
    assert decomposition_to_json(pd) == expected
