"""Acceptance suite: one test per criterion, one printed line each.

Criteria 1-8 run through the reproduction checks; criterion 9 drives the
``reproduce`` subcommand end to end in a subprocess.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys

import pytest

from layerlens import families as fam
from layerlens import reproduce as rep
from layerlens.core import Drawing


@pytest.fixture(scope="module")
def summaries() -> list[rep.FamilySummary]:
    """The family summaries criteria 2, 5, 6 and 7 share, built once."""
    return rep._family_summaries()


def _report(criterion: str, rows: list[rep.CheckRow]) -> None:
    ok = all(r.passed for r in rows)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({len(rows)} checks)")
    for r in rows:
        if not r.passed:
            print(f"  failed: {r.case}: expected {r.expected}, got {r.actual}")
    assert ok


def test_criterion_1_density_table():
    _report("1", rep.check_density_table())


def test_criterion_2_families(summaries):
    _report("2", rep.check_families(summaries))


def test_criterion_3_minimax_k24():
    _report("3", rep.check_minimax())


def test_criterion_4_crossing_lemma_constants():
    _report("4", rep.check_constants())


def test_criterion_5_crossing_bound_inequalities(summaries):
    _report("5", rep.check_crossing_bounds(summaries))


def test_special_s_window_scan():
    # criterion 5's exceptional branch: the exceptional drawing embedded at
    # every offset of a 6x7 grid is found, and every one-cell change inside
    # its window is not
    s_edges = fam.special_s().edges
    assert rep._contains_special_s(fam.special_s())
    for di in range(3):
        for dx in range(4):
            window = {(i + di, x + dx) for i in range(1, 5) for x in range(1, 5)}
            embedded = {(i + di, x + dx) for i, x in s_edges}
            assert rep._contains_special_s(Drawing(6, 7, frozenset(embedded))), (di, dx)
            for cell in window:
                near = frozenset(embedded ^ {cell})
                assert not rep._contains_special_s(Drawing(6, 7, near)), (di, dx, cell)


def test_criterion_6_pathwidth(summaries):
    _report("6", rep.check_pathwidth(summaries))


def test_criterion_7_quasiplanarity_relationship(summaries):
    _report("7", rep.check_relationship(summaries))


def test_criterion_8_oracle_equivalence():
    _report("8", rep.check_oracle_equivalence())


def test_run_all_builds_each_family_instance_once(monkeypatch):
    calls = 0
    generate = fam.generate

    def counting(spec):
        nonlocal calls
        calls += 1
        return generate(spec)

    monkeypatch.setattr(fam, "generate", counting)
    # criteria 1 and 8 build no family instance; the tests above run them
    monkeypatch.setattr(rep, "check_density_table", lambda: [])
    monkeypatch.setattr(rep, "check_oracle_equivalence", lambda: [])
    assert all(r.passed for r in rep.run_all())
    # one shared pass over the 482 instances up to size 50 for criteria 2, 5,
    # 6 and 7; criterion 6 reads the verdicts of the 82 up to size 10
    assert calls == 482


# sha256 of the rows of rows_to_json(run_all()) as json.dumps writes them,
# the "actual" cell of the three runtime rows masked as "*"
_RUN_ALL_ROWS_SHA256 = "6fb9cf1e951b4c12bafc9169aea394338d5a7917829233e7b0abbe3ce2f77cfd"


def test_run_all_json_rows_are_pinned():
    elapsed: dict[str, float] = {}
    out = rep.rows_to_json(rep.run_all(elapsed=elapsed), elapsed)
    masked = [{**r, "actual": "*"} if r["case"].endswith(" runtime") else r for r in out["rows"]]
    assert len(masked) == 27
    assert sum(r["actual"] == "*" for r in masked) == 3
    assert hashlib.sha256(json.dumps(masked).encode()).hexdigest() == _RUN_ALL_ROWS_SHA256
    assert sorted(out["elapsed_s"]) == ["1", "2", "3", "4", "5", "6", "7", "8", "families"]


# the "actual" cell of each "... runtime" row, the one part of the CSV that
# varies between runs; a quoted case such as "K_{2,4} runtime" included
_RUNTIME_CELL = re.compile(r'^(\d+,(?:"[^"\n]* runtime"|[^,"\n]* runtime),[^,\n]*),[^,\n]*,', re.M)
# sha256 of the reproduce stdout with the three runtime cells masked as "*"
_REPRODUCE_SHA256 = "69b9987f40718511c175bd07751edc8429fc2cad0181a5d236cebf71ddc4f624"


def test_criterion_9_reproduce_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "layerlens.cli", "reproduce"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} (exit {proc.returncode}, {len(lines)} lines)")
    assert lines[0] == "criterion,case,expected,actual,pass"
    assert all(line.endswith(",pass") for line in lines[1:-1])
    assert lines[-1] == f"all {len(lines) - 2} checks pass"
    assert ok, proc.stderr
    masked, runtime_cells = _RUNTIME_CELL.subn(r"\1,*,", proc.stdout)
    assert runtime_cells == 3
    assert hashlib.sha256(masked.encode()).hexdigest() == _REPRODUCE_SHA256
