"""Tests for the exact rational bound evaluators."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import pytest

from layerlens.bounds import (
    CoefficientTable,
    auxiliary_lower_bound,
    crossing_lemma_coefficient,
    crossing_lower_bound,
    default_table,
    density_lower_bound_general,
    density_threshold,
    density_upper_bound,
    load_table,
    quasiplanar_threshold,
    small_k_density_bound,
    table_from_json,
    table_to_json,
)
from layerlens.core import crossing_profile
from layerlens.families import planar6_family


class TestDefaultTable:
    def test_shape_and_sums(self):
        t = default_table()
        assert t.t == 6
        assert t.alpha == (Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(2), Fraction(9, 4))
        assert t.alpha_sum == Fraction(125, 12)
        assert t.beta[5] == Fraction(9, 2)
        assert t.beta_sum == Fraction(101, 6)

    def test_one_shared_instance(self):
        assert default_table() is default_table()
        assert default_table() == CoefficientTable(default_table().alpha, default_table().beta)

    def test_row_bounds(self):
        assert small_k_density_bound(1, 6) == Fraction(7)
        assert small_k_density_bound(2, 11) == Fraction(16)
        assert small_k_density_bound(5, 8) == Fraction(27, 2)
        with pytest.raises(ValueError):
            small_k_density_bound(6, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientTable(alpha=(Fraction(1, 2),), beta=(Fraction(0),))
        with pytest.raises(ValueError):
            CoefficientTable(alpha=(Fraction(2),), beta=(Fraction(-1),))
        with pytest.raises(ValueError):
            CoefficientTable(alpha=(Fraction(1), Fraction(2)), beta=(Fraction(0),))


class TestCrossingBounds:
    def test_leading_coefficient_exact(self):
        c = crossing_lemma_coefficient()
        assert c == Fraction(4608, 15625)
        assert c == Fraction(124416, 421875)
        assert float(c) == 0.294912

    def test_threshold(self):
        assert density_threshold() == Fraction(125, 48)

    def test_exact_value_at_threshold(self):
        # m = 125/48 * 48 = 125 exactly at the threshold
        assert crossing_lower_bound(48, 125) == Fraction(4608, 15625) * Fraction(125**3, 48**2) == 250

    def test_inapplicable_below_threshold(self):
        assert crossing_lower_bound(48, 124) is None
        assert crossing_lower_bound(3, 100) is None

    def test_auxiliary_exact(self):
        assert auxiliary_lower_bound(8, 14) == Fraction(35, 2)

    def test_auxiliary_negative_clamps_to_zero(self):
        v = auxiliary_lower_bound(10, 0)
        assert v < 0
        assert max(Fraction(0), v) == 0

    def test_auxiliary_against_six_planar_family(self):
        d = planar6_family(2)
        assert (d.n, d.m) == (10, 19)
        bound = auxiliary_lower_bound(10, 19)
        assert bound == Fraction(80, 3)
        assert crossing_profile(d).total >= bound


class TestDensityUpperBound:
    def test_default_k6(self):
        b = density_upper_bound(10, 6)
        assert b.base_coeff == Fraction(125, 48)
        assert b.sqrt_coeff == Fraction(125, 96)
        assert b.coefficient_str(3) == "3.19"
        assert b.value() == pytest.approx(float(Fraction(125, 96)) * math.sqrt(6) * 10)

    def test_general_coefficient_shape(self):
        # max(125/48, 125/96 sqrt(k)): the sqrt branch takes over at k = 4
        big = density_upper_bound(10, 100)
        assert big.coefficient() == pytest.approx(float(Fraction(125, 96)) * 10.0)
        base = density_upper_bound(10, 6)
        assert base.coefficient() > float(Fraction(125, 48))

    def test_toy_all_ones_table(self):
        toy = CoefficientTable(alpha=(Fraction(1),) * 6, beta=(Fraction(0),) * 6)
        b = density_upper_bound(8, 6, toy)
        # 3 alpha / (2t) = 3/2; sqrt coefficient (3/2) * sqrt(3/12) = 3/4
        assert b.base_coeff == Fraction(3, 2)
        assert b.sqrt_coeff == Fraction(3, 4)
        assert b.coefficient() == pytest.approx(max(1.5, 0.75 * math.sqrt(6)))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            density_upper_bound(10, 5)
        with pytest.raises(ValueError):
            density_upper_bound(3, 6)


class TestGeneralLowerBound:
    def test_offsets(self):
        assert density_lower_bound_general(2).ell == 1
        assert density_lower_bound_general(8).ell == 2
        assert density_lower_bound_general(50).ell == 5

    def test_edge_count(self):
        gl = density_lower_bound_general(8)
        assert gl.edge_count(6) == 18
        with pytest.raises(ValueError):
            gl.edge_count(2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            density_lower_bound_general(1)


class TestQuasiplanarThreshold:
    @pytest.mark.parametrize("k,h", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 6), (9, 8), (12, 10)])
    def test_values(self, k, h):
        assert quasiplanar_threshold(k) == h

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            quasiplanar_threshold(1)


class TestTableJson:
    def test_round_trip(self):
        t = default_table()
        data = table_to_json(t)
        assert data["t"] == 6
        assert data["alpha"][1] == "3/2"
        assert table_from_json(data) == t

    def test_parse_strings(self):
        t = table_from_json({"alpha": ["1", "3/2"], "beta": ["0", "2"]})
        assert t.alpha == (Fraction(1), Fraction(3, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            table_from_json({"alpha": ["1"]})
        with pytest.raises(ValueError):
            table_from_json({"alpha": ["x"], "beta": ["1"]})
        with pytest.raises(ValueError):
            table_from_json({"t": 3, "alpha": ["1"], "beta": ["1"]})

    @pytest.mark.parametrize(
        "data",
        [
            {"alpha": 5, "beta": [1]},
            {"alpha": [[1]], "beta": [1]},
            {"alpha": [None], "beta": [1]},
            {"alpha": [float("inf")], "beta": [1]},
            {"alpha": "123", "beta": "000"},
            {"alpha": [True, 2], "beta": [0, 1]},
            {"t": True, "alpha": ["1"], "beta": ["0"]},
            {"t": 1.0, "alpha": ["1"], "beta": ["0"]},
        ],
    )
    def test_rejects_malformed_rows(self, data):
        with pytest.raises(ValueError):
            table_from_json(data)

    def test_long_rational_string_is_named_by_its_size(self):
        # Fraction converts each run of digits with int(), which refuses more
        # than sys.get_int_max_str_digits() digits; the check comes first, so
        # the message does not quote Python's int-limit text
        limit = sys.get_int_max_str_digits()
        for text in ["1" + "0" * limit, "1/" + "3" * (limit + 1), "1." + "5" * (limit + 1), "12_" * (limit // 2) + "1"]:
            with pytest.raises(ValueError) as info:
                table_from_json({"alpha": ["1"], "beta": [text]})
            assert str(info.value) == f"bad rational in table: an integer has more than {limit} digits"
        # runs within the limit pass, however long the string
        long_runs = "3" * limit + "/" + "1" * limit
        assert table_from_json({"alpha": [long_runs], "beta": ["0"]}).alpha == (Fraction(long_runs),)

    def test_no_int_limit_no_digit_check(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert table_from_json({"alpha": ["1" + "0" * 5000], "beta": ["0"]}).alpha == (Fraction(10**5000),)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_loaded_table_errors_start_with_the_path(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"alpha": ["1/0"], "beta": ["0"]}', encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_table(str(path))
        assert str(info.value) == f"{path}: bad rational in table: Fraction(1, 0)"

    def test_accepts_finite_numbers(self):
        t = table_from_json({"alpha": [1, 1.5], "beta": [0, 2]})
        assert (t.alpha, t.beta) == ((Fraction(1), Fraction(3, 2)), (Fraction(0), Fraction(2)))

    def test_loaded_tables_get_their_own_constants(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"alpha": ["1", "5/2"], "beta": ["1/3", "2"]}', encoding="utf-8")
        t = load_table(str(path))
        # read twice: the second read is the kept value
        for _ in range(2):
            assert t.alpha_sum == Fraction(7, 2)
            assert t.beta_sum == Fraction(7, 3)
            assert density_threshold(t) == 3 * Fraction(7, 2) / 4
            assert crossing_lemma_coefficient(t) == Fraction(4 * 8, 27) / Fraction(49, 4)
            assert auxiliary_lower_bound(10, 20, t) == 2 * 20 - Fraction(7, 2) * 10 + Fraction(7, 3)
        assert t == table_from_json(json.loads(path.read_text(encoding="utf-8")))
        # the default table's constants are unchanged by another table's
        assert density_threshold() == Fraction(125, 48)
        assert crossing_lemma_coefficient() == Fraction(4608, 15625)
