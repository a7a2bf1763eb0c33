"""Tests of the benchmark's own code: span arithmetic, metric names,
seeded inputs, output checks, count repetition and verdicts.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics

import pytest

from conftest import ROOT
from layerlens import KPlanar, max_density, special_s
import layerlens
import layerlens.core
from layerlens import cli
from perfbench import calibrate, run, spans, suite, worker
from perfbench.workloads import WORKLOADS, DensityCase, Exact, MinimaxCase, check_density, check_reproduce

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_nested_trace():
    # core.a [0, 10] holds search.b [1, 5], which holds families.c [2, 4],
    # and a recursive core.a [6, 8].
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 2, 4, 5, 6, 8, 10]))
    a = tracer.begin("core.a")
    b = tracer.begin("search.b")
    c = tracer.begin("families.c")
    tracer.end(c)
    tracer.end(b)
    a2 = tracer.begin("core.a")
    tracer.end(a2)
    tracer.end(a)

    summary = spans.summarize(tracer.spans)
    assert summary["core.a"] == {"calls": 2, "busy_s": 10, "self_s": (10 - 4 - 2) + 2}
    assert summary["search.b"] == {"calls": 1, "busy_s": 4, "self_s": 2}
    assert summary["families.c"] == {"calls": 1, "busy_s": 2, "self_s": 2}
    assert spans.layer_self_time(summary) == {"core": 6, "search": 2, "families": 2}
    # self times partition the outermost span
    assert sum(row["self_s"] for row in summary.values()) == 10


def test_patched_records_cross_layer_calls_and_restores():
    original = layerlens.core.crossing_profile
    tracer = spans.Tracer()
    with spans.patched(tracer):
        cli.analyze_drawing(special_s())
    assert layerlens.core.crossing_profile is original
    assert cli.crossing_profile is original
    names = [s[0] for s in tracer.spans]
    top = names.index("cli.analyze_drawing")
    assert tracer.spans[top][3] == -1
    children = {s[0] for s in tracer.spans if s[3] == top}
    assert {"core.crossing_profile", "decomposition.build_path_decomposition"} <= children
    assert tracer.counts["core.edges_profiled"] >= special_s().m
    assert tracer.counts["decomposition.bag_entries"] > 0


def test_workload_calls_are_traced(tmp_path):
    small = Exact((DensityCase("n6-k1", 6, KPlanar(1), 7),), (MinimaxCase("K2x4", 2, 4, 3),))
    _, graphs = small.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.patched(tracer):
        outputs = [op() for op in small.ops(graphs)]
    assert [problems for _, problems in small.check(graphs, outputs)] == [[], []]
    summary = spans.summarize(tracer.spans)
    assert summary["search.max_density"]["calls"] == 1
    assert summary["search.minimax_k"]["calls"] == 1
    assert tracer.counts["search.nodes"] == small.counts(outputs)["search.nodes.n6-k1"] > 0


def test_metric_names_are_valid_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(suite.valid_name(n) for n in names), [n for n in names if not suite.valid_name(n)]
    assert len(names) == len(set(names))
    units = [m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    for bad in ("", "a b", ".lead", "-lead", "a/b", "x" * 65, "é"):
        assert not suite.valid_name(bad)


def test_benchmark_file_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(BENCH["workloads"][0]) == {"name", "why"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_declared_per_layer_metric_is_produced():
    produced = spans.layer_metrics({}, {}, {})
    produced.update({f"search.nodes.{n}": 0 for w in WORKLOADS.values() for n in w.case_names()})
    produced.update({k: 0 for k in ("trace.spans", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")})
    missing = [m["name"] for m in BENCH["per_layer"] if m["name"] not in produced]
    assert not missing


def test_same_seed_gives_identical_inputs(tmp_path):
    made = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        describe, data = WORKLOADS["analyze-large"].setup(seed, str(workdir))
        made.append((describe, [open(item.path, "rb").read() for item in data]))
    assert made[0] == made[1]
    assert made[0][1][0] == made[2][1][0]  # the family drawing does not depend on the seed
    assert made[0][1][1] != made[2][1][1]  # the random drawing does
    for name in ("exact-k", "exact-h", "reproduce"):
        assert WORKLOADS[name].setup(1, str(tmp_path))[0] == WORKLOADS[name].setup(2, str(tmp_path))[0]


def test_check_flags_a_wrong_best_m():
    case = DensityCase("n6-k1", 6, KPlanar(1), 7)
    result = max_density(6, KPlanar(1))
    assert check_density(case, result) == []
    wrong = dataclasses.replace(result, best_m=8)
    problems = check_density(case, wrong)
    assert any("best_m=8" in p for p in problems)
    assert check_density(dataclasses.replace(case, best_m=8), result)


def test_check_flags_a_failed_reproduce_row():
    good = "criterion,case,expected,actual,pass\n" + "".join(f"{c},x,1,1,pass\n" for c in range(1, 9))
    assert check_reproduce(0, good + "all 8 checks pass\n") == []
    bad = good.replace("3,x,1,1,pass", "3,x,1,2,FAIL")
    assert check_reproduce(3, bad)
    assert check_reproduce(0, good + "all 9 checks pass\n")


def test_counts_must_repeat_for_identical_inputs():
    def run(digest, nodes):
        return {"workload": "exact-k", "inputs_digest": digest, "pass_counts": [{"search.nodes.n12-k5": nodes}],
                "layer": {"decomposition.bag_entries": 5}}

    assert suite.repeat_problems([run("d1", 10), run("d1", 10), run("d2", 11)], ["decomposition.bag_entries"]) == []
    problems = suite.repeat_problems([run("d1", 10), run("d1", 12)], ["decomposition.bag_entries"])
    assert len(problems) == 1 and "search.nodes.n12-k5" in problems[0]


@pytest.mark.parametrize(
    "parent, change, bound, want",
    [
        ([10.0 + 0.01 * i for i in range(10)], [9.0 + 0.01 * i for i in range(10)], 0.1, suite.IMPROVED),
        ([10.0 + 0.01 * i for i in range(10)], [10.5 + 0.01 * i for i in range(10)], 0.1, suite.NO_WORSE),
        ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)], 0.1, suite.WORSE),
        ([10.0, 13.0, 10.0, 13.0, 10.0, 13.0, 10.0, 13.0, 10.0, 13.0], [11.0] * 10, 0.1, suite.UNRESOLVED),
    ],
)
def test_verdict(parent, change, bound, want):
    pairs = list(zip(parent, change))
    assert suite.verdict(parent, change, pairs, bound, "lower") == want


def test_traced_pass_produces_every_per_layer_metric(tmp_path):
    record = worker.measure("reproduce", 1, 0, True, False, str(tmp_path))
    assert record["failed"] == 0 and record["attempted"] == 2
    assert all(m["name"] in record["layer"] for m in BENCH["per_layer"])
    assert record["layer"]["reproduce.check_density_table.busy_s"] > 0
    traced_counts = [c for c in record["pass_counts"] if "decomposition.bag_entries" in c]
    assert len(traced_counts) == 1 and traced_counts[0]["decomposition.bag_entries"] > 0
    assert traced_counts[0]["core.Drawing.calls"] == record["layer"]["core.Drawing.calls"]
    assert record["layer"]["search.nodes"] == sum(
        max_density(n, KPlanar(p) if kind == "k" else layerlens.Quasiplanar(p)).stats.nodes
        for kind, p, n, _ in layerlens.reproduce.DENSITY_TABLE
    )


class _RaisingSetup:
    def case_names(self):
        return []

    def setup(self, seed, workdir):
        raise RuntimeError("generator broke")


class _RaisingJob(_RaisingSetup):
    def setup(self, seed, workdir):
        return {"case": "x"}, None

    def ops(self, data):
        return [lambda: 1, lambda: 1 // 0]


def test_program_raising_counts_as_failed_not_as_benchmark_error(tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "exact-h", _RaisingSetup())
    record = worker.measure("exact-h", 1, 0, False, False, str(tmp_path))
    assert (record["attempted"], record["failed"], record["passes"]) == (1, 1, [])
    metrics = run.select_metrics(BENCH, 0, record, [0.2, 0.3])
    assert set(metrics) == {"setup_s", "peak_rss_mb"}
    assert run.select_metrics(BENCH, 1, record, []) == {}

    monkeypatch.setitem(WORKLOADS, "exact-h", _RaisingJob())
    record = worker.measure("exact-h", 1, 0, False, False, str(tmp_path))
    assert (record["attempted"], record["failed"], len(record["passes"])) == (2, 2, 1)
    assert set(run.select_metrics(BENCH, 0, record, [0.2])) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_a_correct_run_must_have_every_declared_metric():
    record = {"passes": [], "peak_rss_mb": 20.0, "failed": 0}
    with pytest.raises(run.BenchError, match="wall_s"):
        run.select_metrics(BENCH, 0, record, [0.2])
    with pytest.raises(run.BenchError):
        run.select_metrics(BENCH, 1, record, [0.2])


def test_paired_collection_alternates_which_side_runs_first():
    runs = suite.plan(["a", "b"], 2)
    untraced = [r for r in runs if r[3] == 0]
    assert len(untraced) == 2 * 2 * len(suite.SEEDS)
    assert untraced[:4] == [(0, "a", 1, 0), (1, "a", 1, 0), (0, "b", 1, 0), (1, "b", 1, 0)]
    assert untraced[4:6] == [(1, "a", 2, 0), (0, "a", 2, 0)]
    firsts = [side for i, (side, _, _, _) in enumerate(untraced) if i % 2 == 0]
    assert firsts.count(0) == firsts.count(1)
    assert suite.plan(["a"], 1) == [(0, "a", s, 0) for s in suite.SEEDS] + [(0, "a", 1, 1)] * suite.TRACE_RUNS


def _result(seeds, pairing=None, wall=1.0):
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    runs = [{"workload": "exact-k", "seed": s, "trace": 0, "metrics": metrics, "inputs_digest": "d",
             "pass_counts": [], "layer": {}, "failed": 0, "attempted": 6} for s in seeds]
    return {"benchmark": BENCH, "env": {"git_commit": "c", "source_sha256": "s"}, "pairing": pairing, "runs": runs}


def test_compare_refuses_unpaired_seeds_and_flags_separate_collections(capsys):
    assert suite.compare(_result(range(1, 11)), _result(range(11, 21))) == 2
    assert "verdict" not in capsys.readouterr().out

    assert suite.compare(_result(range(1, 11)), _result(range(1, 11))) == 0
    out = capsys.readouterr().out
    assert "advisory" in out and "not interleaved" in out

    pair = {"id": "x", "side": "parent"}
    assert suite.compare(_result(range(1, 11), pair), _result(range(1, 11), {"id": "x", "side": "change"})) == 0
    assert "advisory" not in capsys.readouterr().out


def test_passes_and_setup_are_scaled_by_the_calibration_around_them(tmp_path, monkeypatch):
    small = Exact((DensityCase("n7-k1", 7, KPlanar(1), 8),), (MinimaxCase("K2x4", 2, 4, 3),))
    monkeypatch.setitem(WORKLOADS, "exact-k", small)
    # a host at half the reference speed: every round takes twice REFERENCE_S
    monkeypatch.setattr(calibrate, "calibrate", lambda rounds=25: (rounds, rounds * 2 * calibrate.REFERENCE_S))
    record = worker.measure("exact-k", 1, 0, False, False, str(tmp_path))
    assert record["failed"] == 0
    assert len(record["calibrations"]) == 3 * len(record["passes"])  # before the job and after each of its 2 ops
    assert record["scaled_wall_s"] == pytest.approx(statistics.fmean(record["passes"]) / 2)
    assert record["setup_scale"] == pytest.approx(0.5)
