"""Tests for the extremal family generators."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from layerlens.core import Drawing, brick_decomposition, crossing_profile, mutually_crossing_number
from layerlens.families import (
    FAMILY_NAMES,
    FamilySpec,
    advertised_k,
    band_offset,
    closed_form,
    general_k_family,
    generate,
    min_size,
    opt2planar,
    planar3_family,
    planar4_family,
    planar5_family,
    planar6_family,
    special_s,
)
from layerlens.oracles import brute_force_profile


class TestOpt2planar:
    def test_single_brick_is_k23(self):
        d = opt2planar(1)
        assert (d.n, d.m) == (5, 6)
        assert d.edges == frozenset((i, x) for i in (1, 2) for x in (1, 2, 3))
        assert len(brick_decomposition(d).bricks) == 1

    def test_counts_and_planar_edges(self):
        k23 = Drawing(2, 3, frozenset((i, x) for i in (1, 2) for x in (1, 2, 3)))
        for beta in range(1, 51):
            d = opt2planar(beta)
            assert (d.n, d.m) == (3 * beta + 2, 5 * beta + 1)
            bd = brick_decomposition(d)
            assert len(bd.planar_edges) == beta + 1
            assert len(bd.bricks) == beta
            assert all(brick.drawing == k23 for brick in bd.bricks)

    def test_two_planar(self):
        for beta in (1, 2, 3, 7):
            assert brute_force_profile(opt2planar(beta)).max_per_edge <= 2

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            opt2planar(0)


class TestPlanar3:
    def test_counts(self):
        assert (planar3_family(4).n, planar3_family(4).m) == (8, 12)
        assert (planar3_family(3).n, planar3_family(3).m) == (6, 8)
        for p in range(3, 51):
            d = planar3_family(p)
            assert (d.n, d.m) == (2 * p, 2 * (2 * p) - 4)

    def test_three_planar_and_quasiplanar(self):
        for p in range(3, 51):
            d = planar3_family(p)
            assert crossing_profile(d).max_per_edge <= 3
            assert mutually_crossing_number(d) <= 2

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            planar3_family(2)


class TestPlanar4:
    def test_single_brick_is_k33(self):
        d = planar4_family(1)
        assert (d.n, d.m) == (6, 9)
        assert brute_force_profile(d).max_per_edge == 4

    def test_counts(self):
        assert (planar4_family(2).n, planar4_family(2).m) == (10, 17)
        for beta in range(1, 51):
            d = planar4_family(beta)
            assert (d.n, d.m) == (4 * beta + 2, 8 * beta + 1)
            assert crossing_profile(d).max_per_edge <= 4


class TestPlanar5:
    def test_counts(self):
        assert (planar5_family(2).n, planar5_family(2).m) == (10, 18)
        assert (planar5_family(4).n, planar5_family(4).m) == (18, 36)
        for beta in range(2, 51):
            d = planar5_family(beta)
            assert (d.n, d.m) == (4 * beta + 2, 9 * beta)

    def test_five_planar(self):
        assert brute_force_profile(planar5_family(2)).max_per_edge <= 5
        for beta in range(2, 51):
            assert crossing_profile(planar5_family(beta)).max_per_edge <= 5

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            planar5_family(1)


class TestPlanar6:
    def test_counts(self):
        assert (planar6_family(2).n, planar6_family(2).m) == (10, 19)
        assert (planar6_family(3).n, planar6_family(3).m) == (14, 29)
        for beta in range(2, 51):
            d = planar6_family(beta)
            assert (d.n, d.m) == (4 * beta + 2, 10 * beta - 1)

    def test_six_planar(self):
        assert brute_force_profile(planar6_family(2)).max_per_edge <= 6
        for beta in range(2, 51):
            assert crossing_profile(planar6_family(beta)).max_per_edge <= 6


class TestGeneralK:
    def test_offset(self):
        assert band_offset(2) == 1
        assert band_offset(8) == 2
        assert band_offset(50) == 5
        assert band_offset(7) == 1

    def test_counts_k8(self):
        d = general_k_family(6, 8)
        assert (d.n, d.m) == (12, 18)

    def test_counts_k2(self):
        d = general_k_family(5, 2)
        assert d.m == 8
        assert crossing_profile(d).max_per_edge <= 2
        assert crossing_profile(d).total > 0  # not crossing-free

    def test_k_planar_across_parameters(self):
        for k in (2, 3, 8, 9, 18, 32, 50):
            ell = band_offset(k)
            for p in range(ell + 1, 31):
                d = general_k_family(p, k)
                assert (d.n, d.m) == (2 * p, 2 * (ell * p - ell * (ell + 1) // 2))
                assert crossing_profile(d).max_per_edge <= k, (k, p)

    def test_crossing_cap_formula(self):
        # 1, 5, 13, 25 and 41 for the reproduce suite's k = 2, 8, 18, 32, 50
        for k in (2, 3, 8, 9, 18, 32, 50):
            ell = band_offset(k)
            cap = 2 * ell * ell - 2 * ell + 1
            for p in range(ell + 1, 4 * ell + 2):
                worst = crossing_profile(general_k_family(p, k)).max_per_edge
                assert worst == cap if p >= 3 * ell - 1 else worst < cap, (k, p)
            assert crossing_profile(general_k_family(60, k)).max_per_edge == cap

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            general_k_family(2, 8)
        with pytest.raises(ValueError):
            general_k_family(5, 1)


class TestSpecialS:
    def test_counts_and_cap(self):
        s = special_s()
        assert (s.n, s.m) == (8, 14)
        assert brute_force_profile(s).max_per_edge <= 5

    def test_planar_and_heavy_edges(self):
        prof = brute_force_profile(special_s())
        assert prof.per_edge[(4, 4)] == 0
        assert prof.per_edge[(2, 4)] == 5
        assert prof.per_edge[(4, 2)] == 5

    def test_unique_14_edge_drawing_on_4x4(self):
        # regeneration check: scanning every 14-edge subset of the 4x4
        # grid, exactly one drawing keeps all edges within 5 crossings,
        # and it is special_s()
        cells = [(i, x) for i in range(1, 5) for x in range(1, 5)]
        feasible = []
        for drop in combinations(cells, 2):
            edges = frozenset(set(cells) - set(drop))
            d = Drawing(4, 4, edges)
            if crossing_profile(d).max_per_edge <= 5:
                feasible.append(edges)
        assert feasible == [special_s().edges]

    def test_rotation_invariant(self):
        s = special_s()
        assert s.rotate() == s


class TestFamilySpec:
    def test_generate_dispatch(self):
        assert generate(FamilySpec("opt2planar", 3)) == opt2planar(3)
        assert generate(FamilySpec("general_k", 6, k=8)) == general_k_family(6, 8)
        assert generate(FamilySpec("special_s")) == special_s()

    def test_advertised_k(self):
        assert advertised_k(FamilySpec("opt2planar", 1)) == 2
        assert advertised_k(FamilySpec("planar6", 2)) == 6
        assert advertised_k(FamilySpec("general_k", 6, k=9)) == 9
        assert advertised_k(FamilySpec("special_s")) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("nosuch", 1)
        with pytest.raises(ValueError):
            FamilySpec("general_k", 5)  # missing k
        with pytest.raises(ValueError):
            FamilySpec("opt2planar", 0)
        with pytest.raises(ValueError, match="takes no k"):
            FamilySpec("opt2planar", 3, k=2)  # a fixed cap

    @pytest.mark.parametrize(
        "size, k",
        [(True, None), (2.0, None), ("3", None), (5, 2.5), (5, True)],
    )
    def test_rejects_non_integer_size_and_k(self, size, k):
        with pytest.raises(ValueError, match="integers"):
            FamilySpec("general_k" if k is not None else "opt2planar", size, k=k)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_registry_consistent(self, name):
        # the spec rejects one below the minimum size, and the minimum
        # instance meets the registry's closed form and cap
        k = 8 if name == "general_k" else None
        low = min_size(name, k)
        if low is None:
            spec = FamilySpec(name)
        else:
            with pytest.raises(ValueError):
                FamilySpec(name, low - 1, k=k)
            spec = FamilySpec(name, low, k=k)
        d = generate(spec)
        assert (d.n, d.m) == closed_form(spec)
        assert brute_force_profile(d).max_per_edge <= advertised_k(spec)


def test_family_edges_digest():
    # every edge set, not only counts and caps: sha256 over 1,822
    # generator calls, measured on the per-family edge loops before
    # _brick_chain and _offset_band replaced them
    h = hashlib.sha256()
    calls = 0

    def feed(d):
        nonlocal calls
        h.update(json.dumps([d.p, d.q, sorted(d.edges)]).encode())
        calls += 1

    for beta in range(1, 51):
        feed(opt2planar(beta))
        feed(planar4_family(beta))
    for beta in range(2, 51):
        feed(planar5_family(beta))
        feed(planar6_family(beta))
    for p in range(3, 51):
        feed(planar3_family(p))
    for k in range(2, 61):
        for p in range(band_offset(k) + 1, 31):
            feed(general_k_family(p, k))
    feed(special_s())
    assert calls == 1822
    assert h.hexdigest() == "528238d0e47072047da9414929c12b30c4c5744d69d6fbefdeed270c23f893a2"
