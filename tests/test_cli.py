"""Tests for the command-line front end and the export formats."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import cli, core
from layerlens import export as exp
from layerlens import reproduce as rep
from layerlens.cli import analyze_drawing, main
from layerlens.core import Drawing, brick_decomposition, drawing_from_json, drawing_to_json, save_drawing
from layerlens.decomposition import build_path_decomposition, decomposition_to_json
from layerlens.export import to_csv, to_dot, to_svg
from layerlens.families import opt2planar, planar4_family, planar6_family, special_s
from layerlens.search import MAX_DENSITY_N, KPlanar, complete_bipartite, max_density, random_drawing


@st.composite
def _drawings(draw):
    """Random drawings of up to 7 x 7, edgeless ones and isolated vertices
    included."""
    p = draw(st.integers(1, 7))
    q = draw(st.integers(1, 7))
    cells = [(i, x) for i in range(1, p + 1) for x in range(1, q + 1)]
    return Drawing(p, q, frozenset(draw(st.sets(st.sampled_from(cells)))))


@pytest.fixture
def k23_file(tmp_path):
    path = tmp_path / "k23.json"
    path.write_text(json.dumps(drawing_to_json(opt2planar(1))))
    return str(path)


class TestGen:
    def test_gen_analyze_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["gen", "--family", "special_s", "--out", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "m=14" in text
        assert "max per edge=5" in text

    def test_gen_stdout(self, capsys):
        assert main(["gen", "--family", "planar4", "--size", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert drawing_from_json(data) == planar4_family(2)

    def test_json_bytes(self, tmp_path, capsys):
        # the file ends without a newline, stdout with one
        text = json.dumps(drawing_to_json(planar4_family(3)), indent=2)
        out = tmp_path / "g.json"
        assert main(["gen", "--family", "planar4", "--size", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()
        assert main(["gen", "--family", "planar4", "--size", "3"]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_gen_bad_family_is_usage_error(self, capsys):
        assert main(["gen", "--family", "nosuch"]) == 1

    def test_gen_bad_size_is_usage_error(self, capsys):
        assert main(["gen", "--family", "planar5", "--size", "1"]) == 1
        assert capsys.readouterr().err == "usage error: planar5 needs size >= 2, got 1\n"

    def test_gen_general_k_without_k_is_usage_error(self, capsys):
        assert main(["gen", "--family", "general_k"]) == 1
        assert capsys.readouterr().err == "usage error: general_k requires k >= 2\n"

    def test_gen_k_for_a_fixed_cap_family_is_usage_error(self, capsys):
        # only general_k reads k; any other family once wrote its drawing
        # and dropped the k without a word
        assert main(["gen", "--family", "planar3", "--size", "5", "--k", "3"]) == 1
        assert capsys.readouterr() == ("", "usage error: planar3 takes no k: its cap is fixed at 3\n")


class TestAnalyze:
    def test_json_report(self, k23_file, capsys):
        assert main(["analyze", k23_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 6
        assert data["total_crossings"] == 3
        assert data["max_per_edge"] == 2
        assert data["brick_count"] == 1
        assert data["planar_edges"] == [[1, 1], [2, 3]]

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", str(bad)]) == 2

    def test_invalid_edge_reported_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 2, "q": 2, "edges": [[1, 1], [9, 1]]}')
        assert main(["analyze", str(bad)]) == 2
        assert "(9, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"p": true, "q": 2, "edges": [[1, 1]]}',
            '{"p": 2, "q": true, "edges": [[1, 1]]}',
            '{"p": 2, "q": 2, "edges": [[true, 1]]}',
            '{"p": 2, "q": 2, "edges": [[1, false]]}',
        ],
    )
    def test_json_booleans_are_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer" in captured.err

    def test_empty_drawing_all_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"p": 1, "q": 1, "edges": []}')
        assert main(["analyze", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 0
        assert data["total_crossings"] == 0
        assert data["max_per_edge"] == 0
        assert data["mutually_crossing"] == 0
        assert data["brick_count"] == 0
        assert data["pathwidth_width"] == 0

    @pytest.mark.parametrize(
        "drawing, expected",
        [
            (
                Drawing(6, 6, frozenset((i, x) for i in range(1, 7) for x in range(1, 7))),
                {
                    "p": 6,
                    "q": 6,
                    "n": 12,
                    "m": 36,
                    "total_crossings": 225,
                    "max_per_edge": 25,
                    "mutually_crossing": 6,
                    "planar_edges": [[1, 1], [6, 6]],
                    "brick_count": 1,
                    "pathwidth_width": 6,
                    "cubic_bound": "1492992/15625",
                    "cubic_bound_holds": True,
                    "linear_bound_clamped": "647/6",
                    "linear_bound_holds": True,
                    "quasiplanar_h": 19,
                    "quasiplanar_trivial": False,
                    "quasiplanar_holds": True,
                },
            ),
            (
                special_s(),
                {
                    "p": 4,
                    "q": 4,
                    "n": 8,
                    "m": 14,
                    "total_crossings": 19,
                    "max_per_edge": 5,
                    "mutually_crossing": 3,
                    "planar_edges": [[1, 1], [4, 4]],
                    "brick_count": 1,
                    "pathwidth_width": 4,
                    "cubic_bound": None,
                    "cubic_bound_holds": None,
                    "linear_bound_clamped": "35/2",
                    "linear_bound_holds": True,
                    "quasiplanar_h": 6,
                    "quasiplanar_trivial": False,
                    "quasiplanar_holds": True,
                },
            ),
        ],
        ids=["complete-6x6", "special_s"],
    )
    def test_json_stdout_exact(self, tmp_path, capsys, drawing, expected):
        # every key, in order, and every value with its JSON encoding
        path = tmp_path / "d.json"
        path.write_text(json.dumps(drawing_to_json(drawing)))
        assert main(["analyze", str(path), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_memory_follows_edges_not_layer_size(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"p": 2, "q": 1000000, "edges": [[1, 1], [2, 2]]}')
        tracemalloc.start()
        try:
            code = main(["analyze", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "path decomposition width: 1\n" in capsys.readouterr().out
        assert peak < 1_000_000

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            _drawings(),
            st.builds(opt2planar, st.integers(1, 6)),
            st.builds(planar4_family, st.integers(1, 6)),
        )
    )
    def test_bricks_match_brick_decomposition(self, d):
        r = analyze_drawing(d)
        bd = brick_decomposition(d)
        assert r.planar_edges == bd.planar_edges
        assert r.brick_count == len(bd.bricks)

    def test_bricks_read_off_one_crossing_profile(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a sub-drawing")

        calls = []

        def counted(d):
            calls.append(d)
            return core.crossing_profile(d)

        monkeypatch.setattr(core, "brick_decomposition", fail)
        monkeypatch.setattr(core, "induced_subdrawing", fail)
        monkeypatch.setattr(cli, "crossing_profile", counted)
        r = analyze_drawing(opt2planar(50))
        assert (r.brick_count, len(r.planar_edges)) == (50, 51)
        assert len(calls) == 1

    def test_text_report_on_the_complete_grid(self, tmp_path, capsys):
        path = tmp_path / "k66.json"
        path.write_text(json.dumps(drawing_to_json(complete_bipartite(6, 6))))
        assert main(["analyze", str(path)]) == 0
        assert "cubic crossing bound: 1492992/15625 (95.5515) holds\n" in capsys.readouterr().out

    def test_report_fields_match_library(self):
        r = analyze_drawing(special_s())
        assert (r.p, r.q, r.n, r.m) == (4, 4, 8, 14)
        assert r.max_per_edge == 5
        assert r.total_crossings == 19
        assert r.linear_bound_holds  # 19 >= 35/2


class TestSearchCommand:
    def test_basic(self, capsys):
        assert main(["search", "--n", "6", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "best_m=7" in out

    def test_exceptional_case_labeled(self, capsys):
        assert main(["search", "--n", "8", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "best_m=14" in out
        assert "exceeds" in out

    @pytest.mark.parametrize(
        "n,k,first",
        [
            (8, 5, "n=8 k-planar(k=5): best_m=14 (exceeds the table bound floor(27/2) = 13 (exceptional graph))"),
            # one edge exceeds the row's 0, and it is not the special S
            (2, 3, "n=2 k-planar(k=3): best_m=1 (exceeds the table bound floor(0) = 0 (the table row does not hold at this n))"),
        ],
    )
    def test_excess_note_names_only_the_special_s(self, n, k, first, capsys):
        assert main(["search", "--n", str(n), "--k", str(k)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first

    @pytest.mark.parametrize(
        "n,k,first",
        [
            (8, 4, "n=8 k-planar(k=4): best_m=12 (below the table bound floor(13) = 13 (bound not attained at this n))"),
            (8, 6, "n=8 k-planar(k=6): best_m=14 (no closed-form bound at this size)"),
        ],
    )
    def test_note_below_and_past_the_table(self, n, k, first, capsys):
        assert main(["search", "--n", str(n), "--k", str(k)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first

    def test_csv_and_witness(self, tmp_path, capsys):
        csv = tmp_path / "row.csv"
        wit = tmp_path / "w.json"
        assert main(["search", "--n", "6", "--quasi", "3", "--csv", str(csv), "--witness", str(wit)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,constraint,best_m,nodes,millis"
        assert lines[1].startswith("6,h=3,8,")
        w = drawing_from_json(json.loads(wit.read_text()))
        assert w.m == 8

    def test_quasiplanar_formula_note(self, capsys):
        assert main(["search", "--n", "12", "--quasi", "4"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "n=12 quasiplanar(h=4): best_m=27 (matches the table bound floor(27) = 27)"

    def test_witness_json_bytes(self, tmp_path, capsys):
        wit = tmp_path / "w.json"
        assert main(["search", "--n", "8", "--k", "2", "--witness", str(wit)]) == 0
        witness = max_density(8, KPlanar(2)).witness
        assert wit.read_bytes() == json.dumps(drawing_to_json(witness), indent=2).encode()

    def test_witness_does_not_depend_on_threads(self, tmp_path, capsys):
        witnesses = []
        for threads in ("1", "2"):
            wit = tmp_path / f"w{threads}.json"
            assert main(["search", "--n", "10", "--k", "3", "--threads", threads, "--witness", str(wit)]) == 0
            assert "witness: first optimum in deterministic scan order\n" in capsys.readouterr().out
            witnesses.append(wit.read_bytes())
        assert witnesses[0] == witnesses[1]

    def test_out_of_range_n_is_usage_error(self, capsys):
        assert main(["search", "--n", "40", "--k", "2"]) == 1

    def test_requires_exactly_one_constraint(self, capsys):
        assert main(["search", "--n", "6"]) == 1
        assert main(["search", "--n", "6", "--k", "1", "--quasi", "3"]) == 1


class TestMinimaxCommand:
    def test_complete(self, capsys):
        assert main(["minimax", "--complete", "2", "4"]) == 0
        assert ": 3" in capsys.readouterr().out

    def test_from_file(self, k23_file, capsys):
        assert main(["minimax", k23_file]) == 0
        assert ": 2" in capsys.readouterr().out

    def test_oversize_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        edges = [[i, x] for i in range(1, 7) for x in range(1, 7)]
        path.write_text(json.dumps({"p": 6, "q": 6, "edges": edges}))
        assert main(["minimax", str(path)]) == 2

    def test_isolated_vertices_do_not_count_toward_the_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"p": 2, "q": 1_000_000, "edges": [[1, 1], [2, 2]]}))
        assert main(["minimax", str(path)]) == 0
        assert capsys.readouterr().out == f"minimax per-edge crossings of {path}: 0\n"

    def test_eleven_vertices_with_edges_is_data_error(self, tmp_path, capsys):
        # a path on 11 vertices in a 20 x 20 grid
        path = tmp_path / "path.json"
        edges = [[i, i] for i in range(1, 6)] + [[i + 1, i] for i in range(1, 6)]
        path.write_text(json.dumps({"p": 20, "q": 20, "edges": edges}))
        assert main(["minimax", str(path)]) == 2
        assert capsys.readouterr().err == "invalid input: minimax search is factorial; at most 10 vertices supported\n"

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["minimax"]) == 1

    def test_file_and_complete_is_usage_error(self, k23_file, capsys):
        # the file was once dropped without a word and K_{A,B} searched
        assert main(["minimax", k23_file, "--complete", "2", "2"]) == 1
        assert capsys.readouterr() == ("", "usage error: provide a drawing file or --complete A B, not both\n")

    def test_oversize_complete_rejected_before_building(self, capsys):
        tracemalloc.start()
        try:
            code = main(["minimax", "--complete", "100000", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "invalid input: minimax search is factorial; at most 10 vertices supported\n"
        assert peak < 1_000_000


class TestPathwidthCommand:
    def test_output_schema(self, k23_file, tmp_path, capsys):
        out = tmp_path / "pd.json"
        assert main(["pathwidth", k23_file, "--out", str(out)]) == 0
        assert "valid=True" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert set(data) == {"bags", "width"}
        assert all(re.fullmatch(r"[uv]\d+", v) for bag in data["bags"] for v in bag)

    def test_edgeless_drawing_is_valid(self, tmp_path, capsys):
        src, out = tmp_path / "d.json", tmp_path / "pd.json"
        src.write_text('{"p": 2, "q": 1, "edges": []}')
        assert main(["pathwidth", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "bags=3 width=0 orientation=top valid=True\n"
        assert json.loads(out.read_text()) == {"bags": [["u1"], ["u2"], ["v1"]], "width": 0}

    @pytest.mark.parametrize(
        "drawing",
        [planar6_family(3), Drawing(3, 4, frozenset({(1, 2), (3, 1)})), Drawing(2, 2)],
        ids=["planar6", "isolated-vertices", "no-edges"],
    )
    def test_out_json_bytes(self, tmp_path, capsys, drawing):
        src, out = tmp_path / "d.json", tmp_path / "pd.json"
        src.write_text(json.dumps(drawing_to_json(drawing)))
        assert main(["pathwidth", str(src), "--out", str(out)]) == 0
        expected = json.dumps(decomposition_to_json(build_path_decomposition(drawing)), indent=2)
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "drawing, digest",
        [
            (planar6_family(250), "46a6e288411736a0ba1a7b04c1ee6f1fcf2b69240171bff3387dbab4c927a2d3"),
            (random_drawing(250, 250, 2000, 1), "7fba7a1cc46316063560823965715118fb738c9392f4c141e19efb322963c975"),
        ],
        ids=["planar6-250", "random-250x250-m2000"],
    )
    def test_out_bytes_pinned(self, tmp_path, capsys, drawing, digest):
        # sha256 of json.dumps(..., indent=2) of the decomposition with every bag sorted on its own
        src, out = tmp_path / "d.json", tmp_path / "pd.json"
        save_drawing(drawing, str(src))
        assert main(["pathwidth", str(src), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_out_memory_stays_below_output(self, tmp_path, capsys):
        # the decomposition is written one bag at a time; holding every bag
        # as a list of labels would add about 60% of the output's length to
        # the peak of the same command without --out
        src, out = tmp_path / "d.json", tmp_path / "pd.json"
        save_drawing(random_drawing(250, 250, 2000, 1), str(src))
        assert main(["pathwidth", str(src), "--out", str(out)]) == 0
        size = out.stat().st_size
        peaks = []
        for extra in ([], ["--out", os.devnull]):
            tracemalloc.start()
            try:
                assert main(["pathwidth", str(src), *extra]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert size > 5_000_000
        assert peaks[1] - peaks[0] < size // 20


class TestBoundsCommands:
    def test_small_k_row(self, capsys):
        assert main(["bounds", "--k", "2", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "5/3*n - 7/3 = 16" in out

    def test_large_k(self, capsys):
        assert main(["bounds", "--k", "6", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "3.19*n" in out
        assert "h = 6" in out

    def test_crossing_bound(self, capsys):
        assert main(["crossing-bound", "--n", "8", "--m", "14"]) == 0
        out = capsys.readouterr().out
        assert "35/2" in out
        assert "inapplicable" in out  # 14 < 125/48 * 8

    def test_crossing_bound_applicable(self, capsys):
        assert main(["crossing-bound", "--n", "48", "--m", "125"]) == 0
        out = capsys.readouterr().out
        assert "cr >= 250" in out
        assert "[applicable]" in out

    def test_custom_table(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"t": 2, "alpha": ["1", "3/2"], "beta": ["1", "2"]}))
        assert main(["crossing-bound", "--n", "8", "--m", "14", "--table", str(table)]) == 0
        assert main(["crossing-bound", "--n", "8", "--m", "14", "--table", "/nonexistent.json"]) == 2

    def test_bad_table_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"alpha": ["1/2"], "beta": ["0"]}))
        assert main(["bounds", "--k", "0", "--table", str(table)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"alpha": 5, "beta": [1]}',
            '{"alpha": [[1]], "beta": [1]}',
            '{"alpha": [null], "beta": [1]}',
            '{"alpha": [1e400], "beta": [1]}',
            '{"alpha": "123", "beta": "000"}',
            '{"alpha": [true, 2], "beta": [0, 1]}',
            '{"t": true, "alpha": ["1"], "beta": ["0"]}',
            '{"t": 1.0, "alpha": ["1"], "beta": ["0"]}',
        ],
    )
    def test_malformed_table_is_data_error(self, tmp_path, capsys, text):
        table = tmp_path / "t.json"
        table.write_text(text)
        assert main(["crossing-bound", "--n", "10", "--m", "30", "--table", str(table)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")
        assert main(["bounds", "--k", "0", "--table", str(table)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--k", "6", "--n", str(10**330)],
            ["bounds", "--k", str(10**330)],
            ["crossing-bound", "--n", "4", "--m", str(10**330)],
            ["crossing-bound", "--n", str(10**330), "--m", "1"],
        ],
        ids=["bounds-n", "bounds-k", "crossing-bound-m", "crossing-bound-n"],
    )
    def test_huge_integers_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", [0, 5, 6])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_usage_error(self, capsys, k, n):
        # table rows would print a negative bound at n = -3
        assert main(["bounds", "--k", str(k), "--n", n]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")

    def test_bounds_text_pinned(self, capsys):
        # sha256 of the stdout of bounds for k = 0..8, each without and with
        # --n 100; the notes of rows 3..5 as in test_row_notes
        for k in range(9):
            for extra in ([], ["--n", "100"]):
                assert main(["bounds", "--k", str(k), *extra]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == "f2f1be31319e03a24efd6f45ddf0a7a82fd355522e418851904ebaf527cca0cc"

    ROW_NOTES = {
        3: "note: for n = 2..14 the floor of this row is the exact maximum, except at n = 2, where one edge exceeds it",
        4: "note: for n = 2..14 the floor of this row is the exact maximum only at n = 2 (mod 4); every other n has 2n - 4",
        5: "note: for n = 2..14 the floor of this row is the exact maximum, except at n = 2, where one edge exceeds it,"
        " and at n = 8, where the 14-edge exceptional drawing does",
    }

    @pytest.mark.parametrize("k", range(6))
    def test_row_notes(self, k, capsys):
        # tests/test_search.py checks the notes against the exact search
        assert main(["bounds", "--k", str(k)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: ")]
        assert notes == ([self.ROW_NOTES[k]] if k in self.ROW_NOTES else [])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_no_row_note_for_a_given_table(self, k, tmp_path, capsys):
        # a row 5 of 3n - 1 has no exceptional drawing; the notes describe
        # the default table alone
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"alpha": ["1", "3/2", "5/3", "2", "2", "3"], "beta": ["1", "2", "7/3", "4", "3", "1"]}))
        assert main(["bounds", "--k", str(k), "--table", str(table)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"density upper bound (table row {k}): ")
        assert "note" not in out


class TestExport:
    def test_dot_round_trip(self, k23_file, capsys):
        assert main(["export", k23_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        edges = set(re.findall(r"u(\d+) -- v(\d+)", out))
        assert {(int(a), int(b)) for a, b in edges} == set(opt2planar(1).edges)

    def test_svg_crossing_annotation(self):
        svg = to_svg(opt2planar(1))
        assert "crossings: 3" in svg
        assert svg.count("<line") == 6

    def test_csv_rows(self):
        csv = to_csv(planar4_family(2))
        lines = csv.strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 1 + 17

    def test_dot_ranks(self):
        dot = to_dot(Drawing(2, 1, frozenset([(1, 1)])))
        assert "rank=same" in dot

    @pytest.mark.parametrize("fmt", exp.EXPORT_FORMATS)
    def test_each_format_runs_its_writer_as_found_at_call_time(self, fmt, k23_file, capsys, monkeypatch):
        # the writer is looked up on the module when the command runs, so
        # a wrapper put in its place (as a profiler's) sees the call
        calls = []
        writer = getattr(exp, f"to_{fmt}")
        monkeypatch.setattr(exp, f"to_{fmt}", lambda d: calls.append(d) or writer(d))
        assert main(["export", k23_file, "--format", fmt]) == 0
        assert calls == [opt2planar(1)]
        text = writer(opt2planar(1))
        assert capsys.readouterr().out == (text if text.endswith("\n") else text + "\n")

    def test_unknown_format_is_usage_error(self, k23_file, capsys):
        assert main(["export", k23_file, "--format", "png"]) == 1

    def test_export_to_file(self, k23_file, tmp_path):
        out = tmp_path / "d.svg"
        assert main(["export", k23_file, "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["minimax", "--complete", "0", "3"], "part sizes must be positive"),
        (["bounds", "--k", "-1"], "k must be non-negative"),
        (["crossing-bound", "--n", "0", "--m", "1"], "n must be positive and m non-negative"),
    ],
)
def test_out_of_range_argument_is_usage_error(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{}"], ["pathwidth", "{}"], ["bounds", "--k", "3", "--table", "{}"]],
    ids=["analyze", "pathwidth", "bounds-table"],
)
def test_deeply_nested_input_is_data_error(capsys, tmp_path, argv):
    # json.load raises RecursionError, not JSONDecodeError, on deep nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main([arg.format(deep) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {deep}: not valid JSON (nested too deeply)\n"


@pytest.mark.parametrize(
    "argv,text",
    [
        (["analyze", "{}"], '{"p": 2, "q": 2, "edges": [[1, 1' + "0" * 5000 + "]]}"),
        (["bounds", "--k", "6", "--table", "{}"], '{"alpha": ["1"], "beta": [1' + "0" * 5000 + "]}"),
    ],
    ids=["analyze", "bounds-table"],
)
def test_huge_integer_in_input_is_data_error(capsys, tmp_path, argv, text):
    # json.load raises a plain ValueError on an int of more than
    # sys.get_int_max_str_digits() digits; the message names the file
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}: an integer has more than {sys.get_int_max_str_digits()} digits\n"
    assert len(captured.err.encode()) < 200


def test_long_rational_string_in_table_is_data_error(capsys, tmp_path):
    # the same digits as a string reach Fraction, not json.load: the table
    # reader counts them first and names the file
    path = tmp_path / "t.json"
    path.write_text('{"alpha": ["1"], "beta": ["1' + "0" * 5000 + '"]}')
    assert main(["bounds", "--k", "6", "--table", str(path)]) == 2
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}: bad rational in table: an integer has more than {limit} digits\n"


def test_long_exponent_in_table_is_data_error(capsys, tmp_path):
    # a 10-digit exponent would make Fraction build a 10-million-digit int
    path = tmp_path / "t.json"
    path.write_text('{"alpha": ["1"], "beta": ["1e10000000"]}')
    assert main(["bounds", "--k", "3", "--table", str(path)]) == 2
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}: bad rational in table: an exponent exceeds {limit}\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"p": 2, "q": 2, "edges": [[' + ", ".join(["1"] * 200_000) + "]]}",
        '{"p": 2, "q": 2, "edges": [' + "[" * 980 + "1" + "]" * 980 + "]}",
        '{"p": [' + ", ".join(["1"] * 200_000) + '], "q": 2, "edges": []}',
    ],
    ids=["long-edge", "deep-edge", "long-p"],
)
@pytest.mark.parametrize("command", ["analyze", "pathwidth"])
def test_invalid_input_message_is_bounded(tmp_path, text, command):
    # the bad value is shown by reprlib, not in full: a 200,000-int
    # edge once gave a 600,043-byte line.  A child process, as under pytest
    # the stack is too deep for json.load to read the 980-deep edge.
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "layerlens.cli", command, str(path)], capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"invalid input: ") and proc.stderr.count(b"\n") == 1
    assert b"pair" in proc.stderr or b"layer sizes" in proc.stderr
    assert len(proc.stderr) < 200


def test_save_drawing_json_bytes(tmp_path):
    # unlike the CLI's output files, a saved drawing ends with a newline
    for d in (special_s(), Drawing(2, 3)):
        path = tmp_path / "d.json"
        save_drawing(d, str(path))
        assert path.read_bytes() == (json.dumps(drawing_to_json(d), indent=2) + "\n").encode()


def test_json_round_trip_property():
    for d in (opt2planar(3), special_s(), Drawing(1, 1, frozenset())):
        assert drawing_from_json(json.loads(json.dumps(drawing_to_json(d)))) == d


@pytest.mark.parametrize("command", [["search", "--n", "6", "--k", "2"], ["reproduce"]])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_nonpositive_threads_is_usage_error(capsys, command, threads):
    assert main(command + ["--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads must be positive" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "opt2planar", "--out"],
        ["search", "--n", "6", "--k", "2", "--witness"],
        ["search", "--n", "6", "--k", "2", "--csv"],
        ["pathwidth", "{drawing}", "--out"],
        ["export", "{drawing}", "--format", "dot", "--out"],
        ["reproduce", "--out"],
    ],
    ids=["gen-out", "search-witness", "search-csv", "pathwidth-out", "export-out", "reproduce-out"],
)
def test_unwritable_output_is_usage_error(capsys, monkeypatch, tmp_path, k23_file, argv):
    # the output's directory does not exist; the command fails before it
    # prints anything or starts its work
    def run_all(elapsed=None):
        raise AssertionError("the suite ran before the output was opened")

    monkeypatch.setattr(rep, "run_all", run_all)
    argv = [a.format(drawing=k23_file) for a in argv] + [str(tmp_path / "missing" / "x.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_search_checks_n_before_opening_outputs(capsys, tmp_path):
    witness = tmp_path / "w.json"
    assert main(["search", "--n", str(MAX_DENSITY_N + 1), "--k", "2", "--witness", str(witness)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be between 2 and" in captured.err
    assert not witness.exists()


@pytest.mark.parametrize("second", ["same.txt", "./same.txt", "link.txt"])
def test_search_witness_and_csv_on_one_file_is_usage_error(capsys, monkeypatch, tmp_path, second):
    # the two outputs would overwrite each other, so one path for both,
    # however spelled, fails before the file is opened or the search runs
    def fail(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(cli, "max_density", fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.txt").write_text("kept")
    (tmp_path / "link.txt").symlink_to("same.txt")
    assert main(["search", "--n", "6", "--k", "2", "--witness", "same.txt", "--csv", second]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "same.txt").read_text() == "kept"


def test_reproduce_json_rows_equal_the_csv_rows(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["reproduce", "--json", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert captured.out == json.dumps(data, indent=2) + "\n"
    # the --out file holds the CSV of the same run, runtime cells included
    with open(out, encoding="utf-8", newline="") as f:
        assert data["rows"] == list(csv.DictReader(f))
    assert list(data["elapsed_s"]) == ["families", *map(str, range(1, 9))]
    assert all(isinstance(v, float) and v >= 0 for v in data["elapsed_s"].values())


@pytest.mark.parametrize("passed", [True, False])
def test_reproduce_json_keeps_the_exit_codes(capsys, monkeypatch, passed):
    rows = [rep.CheckRow("1", "a, quoted \"case\"", "1", "1", True), rep.CheckRow("2", "b", "0", "0", passed)]

    def run_all(elapsed=None):
        elapsed.update({"families": 0.5, "1": 0.25})
        return rows

    monkeypatch.setattr(rep, "run_all", run_all)
    want = 0 if passed else 3
    assert main(["reproduce"]) == want
    captured = capsys.readouterr()
    summary = "all 2 checks pass\n" if passed else ""
    assert captured.out == rep.rows_to_csv(rows) + summary
    assert main(["reproduce", "--json"]) == want
    json_captured = capsys.readouterr()
    assert json_captured.err == captured.err == ("" if passed else "1 of 2 checks FAILED\n")
    data = json.loads(json_captured.out)
    assert data["elapsed_s"] == {"families": 0.5, "1": 0.25}
    assert data["rows"] == list(csv.DictReader(io.StringIO(rep.rows_to_csv(rows))))
    assert data["rows"][1]["pass"] == ("pass" if passed else "FAIL")


@pytest.mark.parametrize(
    "drawing",
    [planar6_family(12), random_drawing(40, 40, 300, 1), Drawing(3, 4, frozenset({(1, 2), (3, 1), (3, 4)}))],
    ids=["planar6", "random-40x40-m300", "isolated-vertices"],
)
def test_shuffled_file_reads_as_the_sorted_one(tmp_path, capsys, drawing):
    # a saved drawing lists its edges in order, which Drawing keeps instead
    # of sorting them again; a file in any other order is sorted on use
    data = drawing_to_json(drawing)
    random.Random(1).shuffle(data["edges"])
    assert data["edges"] != drawing_to_json(drawing)["edges"]
    paths = {"sorted": tmp_path / "sorted.json", "shuffled": tmp_path / "shuffled.json"}
    save_drawing(drawing, str(paths["sorted"]))
    paths["shuffled"].write_text(json.dumps(data))
    seen = {}
    for name, path in paths.items():
        out = tmp_path / f"{name}.pd.json"
        assert main(["analyze", str(path), "--json"]) == 0
        analysis = capsys.readouterr().out
        assert main(["pathwidth", str(path), "--out", str(out)]) == 0
        seen[name] = (analysis, capsys.readouterr().out, out.read_bytes())
    assert seen["sorted"] == seen["shuffled"]


# a child interpreter imports this package, wherever the tests found it
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "K23", "--json"], ["bounds", "--k", "5", "--n", "11"], ["minimax", "--complete", "2", "3"]],
        ids=["analyze", "bounds", "minimax"],
    )
    def test_errors_and_help_leave_the_parser_as_it_was(self, k23_file, capsys, argv):
        argv = [k23_file if arg == "K23" else arg for arg in argv]
        fresh = subprocess.run(
            [sys.executable, "-m", "layerlens.cli", *argv], capture_output=True, text=True, timeout=60, env=_CHILD_ENV
        )
        assert main(["analyze"]) == 1
        assert main(["search", "--n", "8", "--k", "2", "--quasi", "3"]) == 1
        assert main(["minimax", "--complete", "2"]) == 1
        assert main(["nosuch"]) == 1
        for help_argv in (["--help"], [argv[0], "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(help_argv)
            assert exc.value.code == 0
        capsys.readouterr()
        assert main(argv) == fresh.returncode == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)

    def test_building_the_parser_loads_neither_families_nor_export(self):
        probe = (
            "import sys\nfrom layerlens.cli import _build_parser\n_build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith('layerlens')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60, env=_CHILD_ENV
        )
        assert proc.stdout.splitlines()[-1] == "['layerlens', 'layerlens.cli', 'layerlens.core', 'layerlens.search']"
